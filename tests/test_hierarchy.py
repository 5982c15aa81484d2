import csv
import io
import json
from dataclasses import replace
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lexigraph import corpus, hierarchy
from lexigraph.corpus import Document
from lexigraph.errors import DataError, ParameterError
from lexigraph.hierarchy import (
    Hierarchy,
    assign_clusters,
    decompose,
    top_keywords,
)
from lexigraph.nmfk import NmfkConfig, NmfkResult, KEvaluation, select_k

from conftest import (
    fast_hierarchy_config,
    fast_nmfk_config,
    manual_hierarchy,
    planted_block_labels,
    planted_matrix,
    planted_tokens,
    synthetic_docs,
)


def fake_result(W, H):
    k = W.shape[1]
    return NmfkResult(
        selected_k=k,
        evaluations=[KEvaluation(k=k, min_silhouette=1.0, mean_silhouette=1.0,
                                 mean_reconstruction_error=0.0)],
        consensus_W=W,
        consensus_H=H,
    )


class TestAssignClusters:
    def test_argmax(self):
        labels, zero = assign_clusters(np.array([[0.1], [0.9]]))
        assert labels.tolist() == [1]
        assert zero.tolist() == [False]

    def test_tie_goes_to_lowest_index(self):
        labels, _ = assign_clusters(np.array([[0.5], [0.5]]))
        assert labels.tolist() == [0]

    def test_zero_column_flagged_to_cluster_zero(self):
        labels, zero = assign_clusters(np.array([[0.0, 0.3], [0.0, 0.7]]))
        assert labels.tolist() == [0, 1]
        assert zero.tolist() == [True, False]

    def test_planted_blocks_recovered_up_to_permutation(self):
        X = planted_matrix(3, seed=31)
        res = select_k(X, fast_nmfk_config(base_seed=5, k_max=4))
        assert res.selected_k == 3
        predicted, _ = assign_clusters(res.consensus_H)
        truth = planted_block_labels(3)
        best = max(
            sum(1 for p, t in zip(predicted, truth) if perm[p] == t)
            for perm in permutations(range(3))
        )
        assert best == X.shape[1]


class TestTopKeywords:
    def test_single_nonzero_then_lexicographic(self):
        vocab = ("appeal", "court", "water", "zoning")
        W = np.zeros((4, 1))
        W[2, 0] = 1.0  # "water"
        res = fake_result(W, np.ones((1, 2)))
        assert top_keywords(res, vocab, 0, 3) == ["water", "appeal", "court"]

    @given(weights=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=1, max_size=30),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_unsorted_vocabulary_with_tied_weights(self, weights, data):
        # few distinct weights, so most tokens tie and fall back to token order
        tokens = data.draw(st.lists(st.text("abcxyz", min_size=1, max_size=4),
                                    min_size=len(weights), max_size=len(weights), unique=True))
        m = data.draw(st.integers(1, len(weights) + 2))
        res = fake_result(np.array(weights)[:, None], np.ones((1, 1)))
        expected = sorted(zip(tokens, weights), key=lambda tw: (-tw[1], tw[0]))
        assert top_keywords(res, tuple(tokens), 0, m) == [t for t, _ in expected[:m]]

    def test_m_one_returns_max(self):
        vocab = ("a", "b", "c")
        W = np.array([[0.2], [0.9], [0.4]])
        res = fake_result(W, np.ones((1, 1)))
        assert top_keywords(res, vocab, 0, 1) == ["b"]

    def test_m_larger_than_vocab(self):
        vocab = ("a", "b")
        res = fake_result(np.array([[0.5], [0.1]]), np.ones((1, 1)))
        assert top_keywords(res, vocab, 0, 10) == ["a", "b"]

    def test_planted_block_keywords_come_from_block_terms(self):
        X = planted_matrix(3, seed=32)
        res = select_k(X, fast_nmfk_config(base_seed=6, k_max=4))
        assert res.selected_k == 3
        for c in range(3):
            kws = top_keywords(res, planted_tokens(X), c, 5)
            # the block supports are t0000..0019 / t0020..0039 / t0040..0059;
            # a cluster's top keywords must come from exactly one block
            blocks = {int(kw[1:]) // 20 for kw in kws}
            assert len(blocks) == 1

    def test_cluster_out_of_range(self):
        vocab = ("a",)
        res = fake_result(np.ones((1, 1)), np.ones((1, 1)))
        with pytest.raises(ParameterError):
            top_keywords(res, vocab, 1, 1)


class TestDecompose:
    def test_partition_and_depth_invariants(self):
        docs = synthetic_docs(3, 30, seed=41)
        cfg = fast_hierarchy_config(base_seed=7, max_depth=2, min_cluster_size=15)
        h = decompose(docs, cfg)
        all_ids = {d.id for d in docs}
        root_ids = [i for r in h.roots for i in r.doc_ids]
        assert set(root_ids) == all_ids and len(root_ids) == len(all_ids)
        for node in h.walk():
            assert node.depth <= cfg.max_depth
            if node.children:
                child_ids = [i for c in node.children for i in c.doc_ids]
                assert set(child_ids) == set(node.doc_ids)
                assert len(child_ids) == len(node.doc_ids)
                assert len(node.doc_ids) >= cfg.min_cluster_size
                # a child holding every document of its parent is a leaf, not a split
                assert all(len(c.doc_ids) < len(node.doc_ids) for c in node.children)
                # empty clusters are dropped, so children never exceed selected_k
                assert 0 < len(node.children) <= node.selected_k

    def test_max_depth_zero_means_roots_only(self):
        docs = synthetic_docs(2, 20, seed=42)
        cfg = fast_hierarchy_config(base_seed=8, max_depth=0, min_cluster_size=5)
        h = decompose(docs, cfg)
        assert h.roots
        for node in h.walk():
            assert node.depth == 0
            assert node.is_leaf

    def test_small_cluster_never_decomposed(self):
        docs = synthetic_docs(2, 20, seed=43)
        cfg = fast_hierarchy_config(base_seed=9, max_depth=2, min_cluster_size=1000)
        h = decompose(docs, cfg)
        for node in h.walk():
            assert node.is_leaf  # 40 docs total < 1000 everywhere

    def test_node_ids_encode_path(self):
        docs = synthetic_docs(2, 25, seed=44)
        cfg = fast_hierarchy_config(base_seed=10, max_depth=1, min_cluster_size=10)
        h = decompose(docs, cfg)
        for root in h.roots:
            assert root.id.startswith("root/")
            for child in root.children:
                assert child.id.startswith(root.id + "/")

    def test_determinism_byte_identical_json(self):
        docs = synthetic_docs(2, 22, seed=45)
        cfg = fast_hierarchy_config(base_seed=11, max_depth=1, min_cluster_size=10)
        a = decompose(docs, cfg).to_json()
        b = decompose(docs, cfg).to_json()
        assert a == b

    def test_vocabulary_empty_cluster_becomes_flagged_leaf(self):
        # one topic of identical documents: at its node every token hits the
        # max-DF ceiling, the vocabulary dies, and the node stays a leaf
        same = [Document(id=f"same-{i}", doc_type="generic", text="alpha beta gamma")
                for i in range(30)]
        varied = synthetic_docs(1, 30, seed=46)
        docs = same + varied
        cfg = fast_hierarchy_config(base_seed=12, max_depth=2, min_cluster_size=10, k_max=2)
        h = decompose(docs, cfg)
        flagged = [n for n in h.walk() if "vocabulary_empty" in n.flags]
        identical_leaves = [n for n in h.walk()
                            if n.is_leaf and set(n.doc_ids) >= {d.id for d in same}]
        assert flagged or identical_leaves

    def test_tokenizes_each_document_once(self, monkeypatch):
        calls = []
        tokenize = corpus.tokenize
        monkeypatch.setattr(corpus, "tokenize", lambda text: calls.append(text) or tokenize(text))
        docs = synthetic_docs(3, 30, seed=41)
        cfg = fast_hierarchy_config(base_seed=7, max_depth=2, min_cluster_size=15)
        h = decompose(docs, cfg)
        assert any(node.children for node in h.roots)  # the recursion ran
        assert len(calls) == len(docs)

    def _count_select_k(self, monkeypatch, stub=None):
        calls = []
        inner = stub or hierarchy.select_k
        monkeypatch.setattr(hierarchy, "select_k", lambda X, cfg: calls.append(X.shape) or inner(X, cfg))
        return calls

    def test_k_one_child_is_a_leaf(self, monkeypatch):
        # NMFk runs once per document set: the one child of a k=1 split holds
        # every document, so splitting it again would repeat the split
        calls = self._count_select_k(monkeypatch)
        docs = synthetic_docs(2, 20, seed=49)
        cfg = replace(fast_hierarchy_config(base_seed=15, max_depth=2, min_cluster_size=10),
                      nmfk=NmfkConfig(k_min=1, k_max=1, n_perturbations=4, nmf_max_iters=50))
        h = decompose(docs, cfg)
        assert h.selected_k == 1
        assert [n.id for n in h.walk()] == ["root/0"]
        leaf = h.roots[0]
        assert leaf.is_leaf and leaf.selected_k == 0 and leaf.evaluations == []
        assert sorted(leaf.doc_ids) == sorted(d.id for d in docs)
        assert len(calls) == 1

    def test_split_into_one_nonempty_cluster_is_a_leaf(self, monkeypatch):
        # k=2 selected, but the argmax puts every document in cluster 0
        def one_cluster(X, cfg):
            H = np.zeros((2, X.shape[1]))
            H[0] = 1.0
            return fake_result(np.ones((X.shape[0], 2)), H)

        calls = self._count_select_k(monkeypatch, one_cluster)
        docs = synthetic_docs(2, 20, seed=50)
        h = decompose(docs, fast_hierarchy_config(base_seed=16, max_depth=2, min_cluster_size=10))
        assert h.selected_k == 2
        assert [n.id for n in h.walk()] == ["root/0"]
        assert h.roots[0].is_leaf and len(h.roots[0].doc_ids) == len(docs)
        assert len(calls) == 1

    def test_too_few_docs(self):
        docs = synthetic_docs(1, 1, seed=47)
        with pytest.raises(DataError, match="at least 2 documents"):
            decompose(docs, fast_hierarchy_config())

    def test_keywords_in_node_vocabulary(self):
        docs = synthetic_docs(2, 25, seed=48)
        cfg = fast_hierarchy_config(base_seed=13, max_depth=1, min_cluster_size=10)
        h = decompose(docs, cfg)
        corpus_tokens = {t for d in docs for t in d.text.split()}
        for node in h.walk():
            for kw in node.top_keywords:
                assert kw in corpus_tokens


class TestHierarchySerialization:
    def test_json_round_trip(self, tmp_path):
        docs = synthetic_docs(2, 20, seed=51)
        cfg = fast_hierarchy_config(base_seed=14, max_depth=1, min_cluster_size=10)
        h = decompose(docs, cfg)
        h.save(tmp_path / "hierarchy.json")
        restored = Hierarchy.load(tmp_path / "hierarchy.json")
        assert restored.to_json() == h.to_json()
        assert [n.id for n in restored.walk()] == [n.id for n in h.walk()]

    def test_file_without_the_k_evidence_loads(self, tmp_path):
        # as written before the hierarchy kept each split's k evidence
        docs = synthetic_docs(2, 20, seed=51)
        h = decompose(docs, fast_hierarchy_config(base_seed=14, max_depth=1, min_cluster_size=10))
        payload = json.loads(h.to_json())
        del payload["selected_k"], payload["evaluations"]
        h.selected_k, h.evaluations = 0, []
        stack = list(payload["roots"])
        while stack:
            node = stack.pop()
            del node["evaluations"]
            stack.extend(node["children"])
        for node in h.walk():
            node.evaluations = []
        path = tmp_path / "hierarchy.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert Hierarchy.load(path) == h

    def test_size_csv(self):
        h = manual_hierarchy({"alpha": ["a", "b"], "beta": ["c"]})
        csv = h.size_csv()
        assert csv.splitlines()[0] == "id,depth,size,label"
        assert "root/0,0,2" in csv

    def test_size_csv_keeps_a_quoted_label(self):
        h = manual_hierarchy({'say "x", then': ["a"]})
        rows = list(csv.reader(io.StringIO(h.size_csv())))
        assert rows[1] == ["root/0", "0", "1", 'say "x", then']

    def test_leaf_of_doc(self):
        h = manual_hierarchy({"alpha": ["a", "b"], "beta": ["c"]})
        assert h.leaf_of_doc() == {"a": "root/0", "b": "root/0", "c": "root/1"}

    def test_leaf_docs(self):
        h = manual_hierarchy({"alpha": ["b", "a"], "beta": ["c"], "gamma": ["absent"]})
        docs = [Document(id=i, doc_type="generic", text=i) for i in ("a", "b", "c")]
        groups = h.leaf_docs(docs)
        assert {t: [d.id for d in g] for t, g in groups.items()} == {"root/0": ["b", "a"], "root/1": ["c"]}
        assert list(groups) == ["root/0", "root/1"]

    def test_leaf_docs_rejects_a_repeated_leaf_id(self):
        h = manual_hierarchy({"alpha": ["a"], "beta": ["b"]})
        h.roots[1].id = "root/0"
        with pytest.raises(DataError, match="root/0"):
            h.leaf_docs([Document(id=i, doc_type="generic", text=i) for i in ("a", "b")])
