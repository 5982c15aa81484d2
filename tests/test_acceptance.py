"""Acceptance suite: ten go/no-go checks for the whole package.

Each criterion prints one PASS/FAIL line (run with `pytest -s` or `-rA` to
see them). Tolerances and budgets are pinned here, not configurable.
"""

import json
import re
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from lexigraph.chat import StubChatClient
from lexigraph.chunking import Chunk, chunk_document
from lexigraph.citations import Citation, extract_citations_regex
from lexigraph.corpus import Document, tokenize
from lexigraph.embeddings import DeterministicEmbedder
from lexigraph.evaluation import RetrievalCase, hit_at_k, mrr, rouge_l, run_retrieval_eval
from lexigraph.graph import (
    bow_node_id,
    build_graph,
    common_citations,
    count_mentions,
    export_graph,
    import_triplet_csv,
    keyword_neighborhood,
    keyword_node_id,
)
from lexigraph.hierarchy import decompose
from lexigraph.nmf import factorize
from lexigraph.nmfk import NmfkConfig, select_k
from lexigraph.rag import Session, answer
from lexigraph.vectorstore import VectorIndex, build_index, search

from conftest import (
    fast_hierarchy_config,
    graph_facts,
    manual_hierarchy,
    planted_matrix,
    synthetic_docs,
)

DATA_DIR = Path(__file__).parent / "data"


@contextmanager
def criterion(number: int, name: str):
    started = time.time()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number:02d} {name}: FAIL ({time.time() - started:.1f}s)")
        raise
    print(f"\nACCEPTANCE {number:02d} {name}: PASS ({time.time() - started:.1f}s)")


# --- 1: NMF correctness on exactly factorizable matrices -----------------

def _random_rank_r(rng):
    """Random rank-r non-negative matrix (r <= 5, sides 10..100)."""
    while True:
        r = int(rng.integers(1, 6))
        m = int(rng.integers(10, 101))
        n = int(rng.integers(10, 101))
        A = rng.uniform(0.1, 1.0, (m, r)) * (rng.random((m, r)) < 0.5)
        B = rng.uniform(0.1, 1.0, (r, n)) * (rng.random((r, n)) < 0.5)
        X = A @ B
        if (A.sum(axis=0) > 0).all() and (B.sum(axis=1) > 0).all() \
                and np.linalg.matrix_rank(X) == r:
            return r, X


def test_criterion_01_nmf_correctness():
    with criterion(1, "NMF rank-r recovery"):
        rng = np.random.default_rng(123)
        started = time.time()
        for i in range(50):
            r, X = _random_rank_r(rng)
            f = factorize(X, k=r, seed=int(rng.integers(0, 2**31)),
                          max_iters=60_000, tol=0.0, target_error=5e-5)
            assert f.final_error < 1e-4, f"case {i}: error {f.final_error:.2e}"
            h = np.asarray(f.loss_history)
            assert (h[1:] <= h[:-1] + 1e-9).all(), f"case {i}: loss increased"
        elapsed = time.time() - started
        assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"


# --- 2: NMFk planted-k recovery -------------------------------------------

def test_criterion_02_nmfk_planted_k():
    with criterion(2, "NMFk planted-k recovery"):
        started = time.time()
        hits = 0
        for case in range(20):
            k_true = 2 + case % 5
            X = planted_matrix(k_true, docs_per_block=40, terms_per_block=20,
                               noise=0.01, seed=100 + case)
            cfg = NmfkConfig(k_min=1, k_max=8, n_perturbations=6,
                             base_seed=7 + case, nmf_max_iters=800, nmf_tol=1e-8)
            binary = select_k(X, cfg)
            exhaustive = select_k(X, cfg, exhaustive=True)
            if binary.selected_k == k_true:
                hits += 1
            flags = [ev.min_silhouette >= cfg.silhouette_threshold
                     for ev in sorted(exhaustive.evaluations, key=lambda e: e.k)]
            monotone = all(not (late and not early)
                           for early, late in zip(flags, flags[1:]))
            if monotone:
                assert binary.selected_k == exhaustive.selected_k, \
                    f"case {case}: binary {binary.selected_k} != exhaustive {exhaustive.selected_k}"
        elapsed = time.time() - started
        assert hits >= 18, f"planted k recovered only {hits}/20 times"
        assert elapsed < 300.0, f"runtime {elapsed:.1f}s exceeds 5 min"


# --- 3: hierarchy stopping rules ------------------------------------------

def test_criterion_03_hierarchy_stopping_rules():
    with criterion(3, "hierarchy depth and cluster-size gates"):
        rng = np.random.default_rng(9)
        setups = [
            # the headline configuration: depth limit 2, 100-document floor
            dict(n_topics=3, docs_per_topic=110, max_depth=2, min_cluster_size=100),
            dict(n_topics=2, docs_per_topic=30, max_depth=0, min_cluster_size=10),
            dict(n_topics=2, docs_per_topic=25, max_depth=1, min_cluster_size=10),
            dict(n_topics=3, docs_per_topic=20, max_depth=2, min_cluster_size=15),
            dict(n_topics=2, docs_per_topic=26, max_depth=2, min_cluster_size=1000),
        ]
        for i, setup in enumerate(setups):
            docs = synthetic_docs(setup["n_topics"], setup["docs_per_topic"],
                                  seed=int(rng.integers(0, 10_000)))
            cfg = fast_hierarchy_config(
                base_seed=int(rng.integers(0, 10_000)),
                max_depth=setup["max_depth"],
                min_cluster_size=setup["min_cluster_size"],
            )
            h = decompose(docs, cfg)
            for node in h.walk():
                assert node.depth <= cfg.max_depth, f"setup {i}: node too deep"
                if node.children:
                    assert len(node.doc_ids) >= cfg.min_cluster_size, \
                        f"setup {i}: decomposed node of {len(node.doc_ids)} docs"
                    assert node.depth < cfg.max_depth


# --- 4: partition invariant and run-to-run determinism ---------------------

def test_criterion_04_partition_and_determinism():
    with criterion(4, "partition invariant and byte-identical reruns"):
        rng = np.random.default_rng(10)
        for i in range(10):
            n_topics = int(rng.integers(2, 4))
            docs = synthetic_docs(n_topics, int(rng.integers(14, 26)),
                                  seed=int(rng.integers(0, 10_000)))
            cfg = fast_hierarchy_config(base_seed=int(rng.integers(0, 10_000)),
                                        max_depth=2, min_cluster_size=12)
            h1 = decompose(docs, cfg)
            all_ids = sorted(d.id for d in docs)
            root_ids = sorted(i for r in h1.roots for i in r.doc_ids)
            assert root_ids == all_ids, f"corpus {i}: roots do not partition corpus"
            for node in h1.walk():
                if node.children:
                    child_ids = sorted(x for c in node.children for x in c.doc_ids)
                    assert child_ids == sorted(node.doc_ids), \
                        f"corpus {i}: children do not partition {node.id}"
            h2 = decompose(docs, cfg)
            assert h1.to_json() == h2.to_json(), f"corpus {i}: rerun differs"


# --- 5: KG query equivalence against brute force ----------------------------

def _random_graph_world(seed):
    rng = np.random.default_rng(seed)
    doc_types = ["constitution", "statute", "appeals_case", "supreme_case"]
    n_docs = int(rng.integers(30, 60))
    words = [f"term{j:02d}" for j in range(30)]
    docs = []
    for i in range(n_docs):
        body = " ".join(words[int(rng.integers(30))] for _ in range(25))
        meta = {}
        if rng.random() < 0.5:
            meta["citation_string"] = f"NMSA 1978, § {10 + i}-1-1"
        docs.append(Document(id=f"doc{i:03d}", doc_type=doc_types[int(rng.integers(4))],
                             text=body, metadata=meta))
    n_groups = int(rng.integers(2, 6))
    groups: dict[str, list[str]] = {f"g{j}": [] for j in range(n_groups)}
    for d in docs:
        groups[f"g{int(rng.integers(n_groups))}"].append(d.id)
    groups = {k: v for k, v in groups.items() if v}
    keywords = {k: sorted(rng.choice(words, size=4, replace=False)) for k in groups}
    hierarchy = manual_hierarchy(groups, keywords=keywords)
    citations = {}
    for d in docs:
        cits = []
        for _ in range(int(rng.integers(0, 4))):
            target = docs[int(rng.integers(n_docs))]
            key = f"NMSA {10 + int(target.id[3:])}-1-1"
            cits.append(Citation(raw=key, kind="nmsa_statute", key=key))
        if rng.random() < 0.3:
            cits.append(Citation(raw="ext", kind="nm_case",
                                 key=f"EXT V. CASE ({1900 + int(rng.integers(100))})"))
        citations[d.id] = cits
    return docs, hierarchy, citations


def test_criterion_05_kg_oracle_equivalence(tmp_path):
    with criterion(5, "KG queries match brute force; export round-trips"):
        for seed in range(5):
            docs, hierarchy, citations = _random_graph_world(seed)
            g = build_graph(docs, hierarchy, citations)
            assert len(g.nodes) <= 1000
            edges = list(g.edges)

            # keyword_neighborhood vs raw edge scans, for every keyword token
            kw_tokens = sorted({n.attrs["token"] for n in g.nodes.values()
                                if n.kind == "keyword"})
            for tok in kw_tokens:
                hood = keyword_neighborhood(g, tok)
                topics = sorted(e.head for e in edges
                                if e.relation == "TOPIC_HAS_KEYWORD"
                                and e.tail == keyword_node_id(tok))
                assert hood.topics_with_keyword == topics
                by_kind: dict[str, set] = {}
                for e in edges:
                    if e.relation == "HAS_TOPIC" and e.tail in topics:
                        by_kind.setdefault(g.nodes[e.head].kind, set()).add(e.head)
                assert hood.docs_via_topics == {k: sorted(v) for k, v in sorted(by_kind.items())}
                bow = sorted(e.head for e in edges
                             if e.relation == "MENTIONS_TOKEN"
                             and e.tail == bow_node_id(tok))
                assert hood.docs_via_bow == bow

            # count_mentions and common_citations vs linear scans
            probe_words = ["term00", "term07", "term29", "absent-phrase"]
            kinds = ["constitution_doc", "statute_doc", "appeals_case", "supreme_case"]
            type_of_kind = {"constitution_doc": "constitution", "statute_doc": "statute",
                            "appeals_case": "appeals_case", "supreme_case": "supreme_case"}
            for phrase in probe_words:
                for kind in kinds:
                    expected = sum(
                        1 for d in docs
                        if d.doc_type == type_of_kind[kind] and phrase in d.text.lower()
                    )
                    assert count_mentions(g, phrase, kind) == expected
                    tally: dict[str, int] = {}
                    for d in docs:
                        if d.doc_type != type_of_kind[kind] or phrase not in d.text.lower():
                            continue
                        for e in edges:
                            if e.head == d.id and e.relation == "CITES":
                                node = g.nodes[e.tail]
                                key = node.attrs.get("key") or node.attrs.get("citation_key", e.tail)
                                tally[key] = tally.get(key, 0) + 1
                        ranked = sorted(tally.items(), key=lambda kv: (-kv[1], kv[0]))
                    assert common_citations(g, phrase, kind, top_n=10) == ranked[:10] \
                        if tally else common_citations(g, phrase, kind, top_n=10) == []

            # export/import round-trip: isomorphic and byte-stable
            out_a = tmp_path / f"a{seed}"
            out_b = tmp_path / f"b{seed}"
            export_graph(g, "triplet_csv", out_a)
            export_graph(g, "triplet_csv", out_b)
            for name in ("nodes.csv", "edges.csv"):
                assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
            assert graph_facts(g) == graph_facts(import_triplet_csv(out_a))


# --- 6: citation extraction fixture -----------------------------------------

def test_criterion_06_citation_extraction():
    with criterion(6, "citation extractor: 30-sentence fixture, exact keys"):
        lines = (DATA_DIR / "citation_sentences.jsonl").read_text().strip().splitlines()
        assert len(lines) == 30
        for line in lines:
            rec = json.loads(line)
            got = {c.key for c in extract_citations_regex(rec["text"])}
            assert got == set(rec["expected_keys"]), \
                f"{rec['text']!r}: got {sorted(got)}, want {rec['expected_keys']}"


# --- 7: exact vector search and chunk reconstruction ------------------------

def _brute_force_order(entries, q):
    qn = np.linalg.norm(q)
    scored = []
    for chunk, v in entries:
        vn = np.linalg.norm(v)
        s = float(v @ q / (vn * qn)) if vn > 0 and qn > 0 else 0.0
        scored.append((chunk, s))
    scored.sort(key=lambda cs: (-cs[1], cs[0].doc_id, cs[0].index))
    return scored


def test_criterion_07_search_exactness_and_chunking():
    with criterion(7, "brute-force search equality and chunk reconstruction"):
        rng = np.random.default_rng(77)
        sizes = [int(x) for x in rng.integers(10, 500, size=90)]
        sizes += [int(x) for x in rng.integers(1000, 5000, size=8)]
        sizes += [10_000, 10_000]
        for i, n in enumerate(sizes):
            dim = 8 if i % 2 == 0 else 256
            vecs = rng.standard_normal((n, dim))
            idx = VectorIndex(provider_id="random", dim=dim, chunks=[
                Chunk(doc_id=f"c{j:05d}", index=0, unit="words", start=0, end=1, text="t")
                for j in range(n)
            ], matrix=vecs)
            assert len(idx) == n
            q = rng.standard_normal(dim)
            top_k = min(50, n)
            hits = search(idx, q, top_k=top_k)
            expected = _brute_force_order(idx.entries, q)[:top_k]
            assert [c.doc_id for c, _ in hits] == [c.doc_id for c, _ in expected], \
                f"index {i}: ranking mismatch"
            for (_, s1), (_, s2) in zip(hits, expected):
                assert abs(s1 - s2) <= 1e-12

        for t in range(1000):
            n = int(rng.integers(1, 300))
            size = int(rng.integers(1, 80))
            overlap = int(rng.integers(0, size))
            doc = Document(id=f"d{t}", doc_type="generic",
                           text=" ".join(f"w{j}" for j in range(n)))
            chunks = chunk_document(doc, size, overlap)
            words = []
            for ci, c in enumerate(chunks):
                parts = c.text.split()
                words.extend(parts if ci == 0 else parts[overlap:])
            assert words == doc.text.split(), f"triple {t}: reconstruction failed"


# --- 8: retrieval strategy ordering at desk scale ----------------------------

def _long_case_corpus(seed):
    rng = np.random.default_rng(seed)
    boiler = [f"boiler{j:03d}" for j in range(40)]
    docs, meta = [], []
    for t in range(5):
        pool = [f"topic{t}term{j:02d}" for j in range(25)]
        for i in range(100):
            spec = [f"doc{t}x{i:03d}spec{j}" for j in range(10)]
            words = [boiler[int(rng.integers(40))] for _ in range(600)]
            words += [pool[int(rng.integers(25))] for _ in range(140)]
            seg = [spec[int(rng.integers(10))] for _ in range(45)]
            seg += [pool[int(rng.integers(25))] for _ in range(15)]
            rng.shuffle(seg)
            words += seg
            docs.append(Document(id=f"case-{t}-{i:03d}", doc_type="appeals_case",
                                 text=" ".join(words), metadata={"topic": str(t)}))
            meta.append((f"case-{t}-{i:03d}", t, spec))
    return docs, meta


def test_criterion_08_strategy_ordering():
    with criterion(8, "topic_routed_chunked >= topic_routed >= whole_corpus"):
        started = time.time()
        docs, meta = _long_case_corpus(101)
        groups: dict[str, list[str]] = {}
        for d in docs:
            groups.setdefault(f"t{d.metadata['topic']}", []).append(d.id)
        hierarchy = manual_hierarchy(groups)
        rng = np.random.default_rng(102)
        cases = []
        for p in rng.choice(len(meta), size=50, replace=False):
            doc_id, t, spec = meta[p]
            q = list(rng.choice(spec, size=7, replace=False))
            q += [f"topic{t}term{int(rng.integers(25)):02d}" for _ in range(2)]
            q += [f"boiler{int(rng.integers(40)):03d}" for _ in range(3)]
            rng.shuffle(q)
            cases.append(RetrievalCase(question=" ".join(q), gold_doc_id=doc_id,
                                       source_part="appeals_case"))
        provider = DeterministicEmbedder(dim=256)
        scores = {}
        for strategy in ("whole_corpus", "topic_routed", "topic_routed_chunked"):
            report = run_retrieval_eval(cases, docs, hierarchy, provider, strategy,
                                        chunk_size=120, chunk_overlap=24)
            scores[strategy] = report.mrr_per_part["appeals_case"]
        gap_routed = scores["topic_routed"] - scores["whole_corpus"]
        gap_chunked = scores["topic_routed_chunked"] - scores["topic_routed"]
        assert gap_routed >= 0.02, f"routing gap {gap_routed:.4f} below 0.02 ({scores})"
        assert gap_chunked >= 0.02, f"chunking gap {gap_chunked:.4f} below 0.02 ({scores})"
        elapsed = time.time() - started
        assert elapsed < 600.0, f"runtime {elapsed:.1f}s exceeds 10 min"


# --- 9: metric oracles --------------------------------------------------------

def _oracle_rouge(reference, candidate):
    a = tokenize(reference, remove_stopwords=False)
    b = tokenize(candidate, remove_stopwords=False)
    if not a or not b:
        return 0.0
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            table[i][j] = (table[i - 1][j - 1] + 1 if a[i - 1] == b[j - 1]
                           else max(table[i - 1][j], table[i][j - 1]))
    lcs = table[-1][-1]
    if lcs == 0:
        return 0.0
    r, p = lcs / len(a), lcs / len(b)
    return 2 * r * p / (r + p)


def test_criterion_09_metric_oracles():
    with criterion(9, "mrr / hit@k exact, ROUGE-L within 1e-12"):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            ranks = [None if rng.random() < 0.25 else int(rng.integers(1, 60))
                     for _ in range(n)]
            expected_mrr = sum(1.0 / r for r in ranks if r is not None) / len(ranks)
            assert mrr(ranks) == expected_mrr
            k = int(rng.integers(1, 20))
            expected_hit = 100.0 * sum(1 for r in ranks if r is not None and r <= k) / len(ranks)
            assert hit_at_k(ranks, k) == expected_hit
        words = ["water", "court", "appeal", "rights", "the", "held", "case",
                 "law", "statute", "claim"]
        for _ in range(1000):
            ref = " ".join(rng.choice(words, size=int(rng.integers(0, 14))))
            cand = " ".join(rng.choice(words, size=int(rng.integers(0, 14))))
            assert abs(rouge_l(ref, cand) - _oracle_rouge(ref, cand)) <= 1e-12


# --- 10: grounding and refusal -------------------------------------------------

def test_criterion_10_grounding_and_refusal():
    with criterion(10, "quantitative grounding and refusal floor"):
        rng = np.random.default_rng(12)
        docs = synthetic_docs(3, 15, words_per_doc=40, doc_type="supreme_case", seed=13)
        groups: dict[str, list[str]] = {}
        for d in docs:
            groups.setdefault(f"t{d.metadata['topic']}", []).append(d.id)
        keywords = {name: [f"topic{name[1]}word{j:02d}" for j in range(4)]
                    for name in groups}
        hierarchy = manual_hierarchy(groups, keywords=keywords)
        graph = build_graph(docs, hierarchy, {})
        provider = DeterministicEmbedder(dim=128)
        chunks = [Chunk(doc_id=d.id, index=0, unit="words", start=0,
                        end=len(d.text.split()), text=d.text) for d in docs]
        index = build_index(chunks, provider)
        chat = StubChatClient("A cited reply.")

        corpus_words = sorted({w for d in docs for w in d.text.split()})
        for i in range(100):
            if rng.random() < 0.5:
                word = corpus_words[int(rng.integers(len(corpus_words)))]
            else:
                word = f"absent{i}"
            result = answer(f"How many Supreme Court cases mention '{word}'?",
                            Session(id=f"g{i}"), graph, {None: index}, provider, chat)
            fact_digits = set(re.findall(r"\d+", " ".join(str(v) for _, v in result.kg_facts)))
            numbers = re.findall(r"\d+", result.text)
            assert numbers, "quantitative answer must state a count"
            assert set(numbers) <= fact_digits, \
                f"untraceable number in {result.text!r} (facts {result.kg_facts})"
        assert chat.calls == []  # the model never sees countable questions

        threshold = 0.15
        for i in range(100):
            if rng.random() < 0.5:
                doc = docs[int(rng.integers(len(docs)))]
                words = doc.text.split()
                start = int(rng.integers(0, len(words) - 6))
                query = "what about " + " ".join(words[start:start + 6])
            else:
                query = f"excluded gibberish {''.join(rng.choice(list('qxzvj'), size=8))} nothing"
            q_vec = provider.embed([query])[0]
            top = search(index, q_vec, top_k=1)
            best_score = top[0][1] if top else 0.0
            result = answer(query, Session(id=f"r{i}"), graph, {None: index}, provider, chat,
                            score_threshold=threshold)
            if best_score < threshold:
                assert result.refused and result.sources == [], \
                    f"expected refusal for {query!r} (best {best_score:.3f})"
            else:
                assert not result.refused, \
                    f"unexpected refusal for {query!r} (best {best_score:.3f})"
