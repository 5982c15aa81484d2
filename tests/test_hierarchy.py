from itertools import permutations

import numpy as np
import pytest

from lexigraph import corpus
from lexigraph.chat import StubChatClient
from lexigraph.corpus import Document
from lexigraph.errors import ParameterError
from lexigraph.hierarchy import (
    Hierarchy,
    LABEL_PROMPT_TEMPLATE,
    assign_clusters,
    decompose,
    label_topics,
    top_keywords,
)
from lexigraph.nmfk import NmfkResult, KEvaluation, select_k

from conftest import (
    fast_hierarchy_config,
    fast_nmfk_config,
    manual_hierarchy,
    planted_block_labels,
    planted_matrix,
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
        res = fake_result(np.ones((3, 2)), np.array([[0.1], [0.9]]))
        out = assign_clusters(res, ["d0"])
        assert out.by_cluster == {1: ["d0"]}

    def test_tie_goes_to_lowest_index(self):
        res = fake_result(np.ones((3, 2)), np.array([[0.5], [0.5]]))
        out = assign_clusters(res, ["d0"])
        assert out.by_cluster == {0: ["d0"]}

    def test_zero_column_flagged_to_cluster_zero(self):
        res = fake_result(np.ones((3, 2)), np.array([[0.0, 0.3], [0.0, 0.7]]))
        out = assign_clusters(res, ["d0", "d1"])
        assert out.by_cluster[0] == ["d0"]
        assert out.flagged == ["d0"]

    def test_planted_blocks_recovered_up_to_permutation(self):
        X = planted_matrix(3, seed=31)
        res = select_k(X, fast_nmfk_config(base_seed=5, k_max=4))
        assert res.selected_k == 3
        out = assign_clusters(res, list(X.doc_ids))
        truth = dict(zip(X.doc_ids, planted_block_labels(3)))
        predicted = {}
        for cluster, ids in out.by_cluster.items():
            for doc_id in ids:
                predicted[doc_id] = cluster
        best = max(
            sum(1 for d in X.doc_ids if perm[predicted[d]] == truth[d])
            for perm in permutations(range(3))
        )
        assert best == len(X.doc_ids)

    def test_dimension_mismatch(self):
        res = fake_result(np.ones((3, 2)), np.ones((2, 3)))
        with pytest.raises(ParameterError):
            assign_clusters(res, ["only-one"])


class TestTopKeywords:
    def _vocab(self, tokens):
        from lexigraph.corpus import Vocabulary

        return Vocabulary(tokens=tuple(tokens), df=tuple([1] * len(tokens)),
                          min_df=1, max_df_ratio=1.0)

    def test_single_nonzero_then_lexicographic(self):
        vocab = self._vocab(["appeal", "court", "water", "zoning"])
        W = np.zeros((4, 1))
        W[2, 0] = 1.0  # "water"
        res = fake_result(W, np.ones((1, 2)))
        assert top_keywords(res, vocab, 0, 3) == ["water", "appeal", "court"]

    def test_m_one_returns_max(self):
        vocab = self._vocab(["a", "b", "c"])
        W = np.array([[0.2], [0.9], [0.4]])
        res = fake_result(W, np.ones((1, 1)))
        assert top_keywords(res, vocab, 0, 1) == ["b"]

    def test_m_larger_than_vocab(self):
        vocab = self._vocab(["a", "b"])
        res = fake_result(np.array([[0.5], [0.1]]), np.ones((1, 1)))
        assert top_keywords(res, vocab, 0, 10) == ["a", "b"]

    def test_planted_block_keywords_come_from_block_terms(self):
        X = planted_matrix(3, seed=32)
        res = select_k(X, fast_nmfk_config(base_seed=6, k_max=4))
        assert res.selected_k == 3
        for c in range(3):
            kws = top_keywords(res, X.vocabulary, c, 5)
            # the block supports are t0000..0019 / t0020..0039 / t0040..0059;
            # a cluster's top keywords must come from exactly one block
            blocks = {int(kw[1:]) // 20 for kw in kws}
            assert len(blocks) == 1

    def test_cluster_out_of_range(self):
        vocab = self._vocab(["a"])
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

    def test_too_few_docs(self):
        docs = synthetic_docs(1, 1, seed=47)
        with pytest.raises(ParameterError):
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
    def test_json_round_trip(self):
        docs = synthetic_docs(2, 20, seed=51)
        cfg = fast_hierarchy_config(base_seed=14, max_depth=1, min_cluster_size=10)
        h = decompose(docs, cfg)
        restored = Hierarchy.from_json(h.to_json())
        assert restored.to_json() == h.to_json()
        assert [n.id for n in restored.walk()] == [n.id for n in h.walk()]

    def test_size_csv(self):
        h = manual_hierarchy({"alpha": ["a", "b"], "beta": ["c"]})
        csv = h.size_csv()
        assert csv.splitlines()[0] == "id,depth,size,label"
        assert "root/0,0,2" in csv

    def test_leaf_of_doc(self):
        h = manual_hierarchy({"alpha": ["a", "b"], "beta": ["c"]})
        assert h.leaf_of_doc() == {"a": "root/0", "b": "root/0", "c": "root/1"}


class TestLabelTopics:
    def test_stub_echoes_first_keyword(self):
        h = manual_hierarchy({"t0": ["a"], "t1": ["b"]},
                             keywords={"t0": ["water", "x"], "t1": ["crime", "y"]})
        for node in h.walk():
            node.label = ""
        chat = StubChatClient(lambda sys_p, user_p: user_p.split("topic: ")[1].split(",")[0])
        label_topics(h, chat)
        labels = {n.id: n.label for n in h.walk()}
        assert labels == {"root/0": "water", "root/1": "crime"}

    def test_prompt_contains_keywords(self):
        h = manual_hierarchy({"t0": ["a"]}, keywords={"t0": ["alpha", "beta"]})
        for node in h.walk():
            node.label = ""
        chat = StubChatClient("Title")
        label_topics(h, chat)
        (system_p, user_p), = chat.calls
        assert user_p == LABEL_PROMPT_TEMPLATE.format(keywords="alpha, beta")

    def test_failure_leaves_labels_empty(self):
        h = manual_hierarchy({"t0": ["a"]})
        for node in h.walk():
            node.label = ""

        class Boom:
            def complete(self, s, u):
                raise ConnectionError("offline")

        label_topics(h, Boom())
        assert all(n.label == "" for n in h.walk())

    def test_idempotent_unless_forced(self):
        h = manual_hierarchy({"t0": ["a"]}, keywords={"t0": ["alpha"]})
        for node in h.walk():
            node.label = "existing"
        label_topics(h, StubChatClient("new"))
        assert all(n.label == "existing" for n in h.walk())
        label_topics(h, StubChatClient("new"), force=True)
        assert all(n.label == "new" for n in h.walk())
