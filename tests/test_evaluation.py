import json
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lexigraph.chunking import chunk_document
from lexigraph.corpus import Document, tokenize
from lexigraph.embeddings import DeterministicEmbedder
from lexigraph.errors import DataError, ParameterError
from lexigraph.evaluation import (
    STRATEGIES,
    EvalRecord,
    RetrievalCase,
    attach_external_scores,
    grade,
    hit_at_k,
    load_cases,
    mrr,
    report_to_csv,
    report_to_json,
    rouge_l,
    run_retrieval_eval,
)

from conftest import manual_hierarchy, synthetic_docs


def oracle_rouge(reference, candidate):
    """Independent ROUGE-L: full 2D DP table, same tokenizer settings."""
    a = tokenize(reference, remove_stopwords=False)
    b = tokenize(candidate, remove_stopwords=False)
    if not a or not b:
        return 0.0
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    lcs = table[-1][-1]
    if lcs == 0:
        return 0.0
    r, p = lcs / len(a), lcs / len(b)
    return 2 * r * p / (r + p)


class TestMrr:
    def test_all_first(self):
        assert mrr([1, 1, 1]) == 1.0

    def test_mixed_ranks(self):
        assert mrr([1, 2, 4]) == pytest.approx((1 + 0.5 + 0.25) / 3)

    def test_absent_gold_counts_zero(self):
        assert mrr([None]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            mrr([])

    def test_matches_brute_force_on_random_inputs(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            ranks = [None if rng.random() < 0.3 else int(rng.integers(1, 50))
                     for _ in range(n)]
            expected = sum(1.0 / r for r in ranks if r is not None) / len(ranks)
            assert mrr(ranks) == pytest.approx(expected, abs=1e-15)


class TestHitAtK:
    def test_all_within(self):
        assert hit_at_k([1, 5, 10], 10) == 100.0

    def test_half(self):
        assert hit_at_k([1, 11], 10) == 50.0

    def test_all_absent(self):
        assert hit_at_k([None, None], 10) == 0.0

    def test_validation(self):
        with pytest.raises(ParameterError):
            hit_at_k([], 10)
        with pytest.raises(ParameterError):
            hit_at_k([1], 0)


class TestRougeL:
    def test_identical(self):
        assert rouge_l("the cat sat", "the cat sat") == 1.0

    def test_spec_example(self):
        assert rouge_l("the cat sat", "cat the sat") == pytest.approx(2 / 3)

    def test_empty_candidate(self):
        assert rouge_l("something", "") == 0.0

    def test_symmetry_of_f1(self):
        a, b = "the water rights were granted", "water rights granted by the court"
        assert rouge_l(a, b) == pytest.approx(rouge_l(b, a))

    def test_one_iff_identical_tokens(self):
        assert rouge_l("Court held; the appeal", "court held the appeal!") == 1.0
        assert rouge_l("a b c", "a b d") < 1.0

    def test_matches_dp_oracle_on_random_pairs(self):
        rng = np.random.default_rng(2)
        words = ["water", "court", "appeal", "rights", "the", "held", "case", "law"]
        for _ in range(300):
            ref = " ".join(rng.choice(words, size=rng.integers(0, 12)))
            cand = " ".join(rng.choice(words, size=rng.integers(0, 12)))
            assert rouge_l(ref, cand) == pytest.approx(oracle_rouge(ref, cand), abs=1e-12)


class TestGrade:
    def test_refusal_pattern_forces_zero(self):
        rec = EvalRecord(question="q", reference="ref",
                         response="I don't have access to court databases",
                         attempted=1, accuracy=3)
        out = grade(rec)
        assert out.attempted == 0 and out.accuracy == 0

    def test_valid_attempt(self):
        rec = EvalRecord(question="q", reference="the statute applies",
                         response="the statute applies", attempted=1, accuracy=3)
        out = grade(rec)
        assert out.accuracy == 3
        assert out.rouge_l == 1.0

    def test_non_attempt_with_credit_rejected(self):
        rec = EvalRecord(question="q", reference="r", response="answer",
                         attempted=0, accuracy=2)
        with pytest.raises(DataError):
            grade(rec)

    def test_accuracy_range_enforced(self):
        rec = EvalRecord(question="q", reference="r", response="a", accuracy=4)
        with pytest.raises(DataError):
            grade(rec)

    def test_external_scores_ingested(self, tmp_path):
        rec = EvalRecord(question="q1", reference="r", response="a")
        sidecar = tmp_path / "external.json"
        sidecar.write_text(json.dumps({"q1": {"nli": 0.8, "summac": 1}}))
        attach_external_scores([rec], sidecar)
        assert rec.external_scores == {"nli": 0.8, "summac": 1.0}
        assert type(rec.external_scores["summac"]) is float  # written back as 1.0


class TestRetrievalEval:
    def test_self_retrieval_rank_one(self):
        doc = Document(id="only", doc_type="generic", title="water rights act",
                       text="water rights act establishing priority")
        cases = [RetrievalCase(question="water rights act establishing priority",
                               gold_doc_id="only", source_part="generic")]
        report = run_retrieval_eval(cases, [doc], None, DeterministicEmbedder(dim=64),
                                    "whole_corpus")
        assert report.mrr_per_part["generic"] == 1.0
        assert report.hit_at_10_per_part["generic"] == 100.0

    def test_routing_never_hurts_with_gold_topics(self):
        docs = synthetic_docs(2, 20, words_per_doc=40, seed=7)
        hierarchy = manual_hierarchy({
            "t0": [d.id for d in docs if d.metadata["topic"] == "0"],
            "t1": [d.id for d in docs if d.metadata["topic"] == "1"],
        })
        rng = np.random.default_rng(8)
        cases = []
        for d in docs[::4]:
            words = d.text.split()
            start = int(rng.integers(0, max(1, len(words) - 8)))
            cases.append(RetrievalCase(question=" ".join(words[start:start + 8]),
                                       gold_doc_id=d.id, source_part="generic"))
        provider = DeterministicEmbedder(dim=128)
        whole = run_retrieval_eval(cases, docs, None, provider, "whole_corpus")
        routed = run_retrieval_eval(cases, docs, hierarchy, provider, "topic_routed")
        assert routed.mrr_per_part["generic"] >= whole.mrr_per_part["generic"]

    def test_routed_needs_hierarchy(self):
        docs = synthetic_docs(1, 4, seed=9)
        cases = [RetrievalCase(question="x", gold_doc_id=docs[0].id, source_part="generic")]
        with pytest.raises(ParameterError):
            run_retrieval_eval(cases, docs, None, DeterministicEmbedder(dim=16), "topic_routed")

    @pytest.mark.parametrize("strategy", ["topic_routed", "topic_routed_chunked"])
    def test_gold_topic_without_index_ranks_none(self, strategy):
        docs = synthetic_docs(1, 4, words_per_doc=20, seed=12)
        hierarchy = manual_hierarchy({"t0": [d.id for d in docs]})
        question = docs[0].text  # scores 1 against its own document
        cases = [
            RetrievalCase(question=question, gold_doc_id=docs[0].id, source_part="known"),
            RetrievalCase(question=question, gold_doc_id=docs[0].id, source_part="missing",
                          gold_topic_id="no-such-topic"),
        ]
        report = run_retrieval_eval(cases, docs, hierarchy, DeterministicEmbedder(dim=64), strategy)
        assert report.ranks["known"] == [1]
        assert report.ranks["missing"] == [None]
        assert report.mrr_per_part["missing"] == 0.0

    @pytest.mark.parametrize("strategy", ["whole_corpus", "chunked"])
    def test_empty_corpus_is_rejected(self, strategy):
        cases = [RetrievalCase(question="q", gold_doc_id="d", source_part="generic")]
        with pytest.raises(ParameterError):
            run_retrieval_eval(cases, [], None, DeterministicEmbedder(dim=8), strategy)

    def test_unknown_strategy(self):
        with pytest.raises(ParameterError):
            run_retrieval_eval([], [], None, DeterministicEmbedder(dim=8), "bm25")

    def test_reports_serialize(self):
        doc = Document(id="d", doc_type="generic", text="alpha beta gamma")
        cases = [RetrievalCase(question="alpha beta", gold_doc_id="d", source_part="generic")]
        report = run_retrieval_eval(cases, [doc], None, DeterministicEmbedder(dim=16),
                                    "chunked")
        js = report_to_json([report], {"seed": 1})
        parsed = json.loads(js)
        assert parsed["strategies"][0]["strategy"] == "chunked"
        csv = report_to_csv([report])
        assert csv.startswith("strategy,part,mrr,hit_at_10")

    def test_report_json_round_trips_losslessly(self):
        doc = Document(id="d", doc_type="generic", text="alpha beta gamma")
        cases = [RetrievalCase(question="alpha beta", gold_doc_id="d", source_part="generic")]
        report = run_retrieval_eval(cases, [doc], None, DeterministicEmbedder(dim=16),
                                    "whole_corpus")
        js = report_to_json([report], {"seed": 3})
        parsed = json.loads(js)
        assert parsed["strategies"] == [report.to_json_dict()]
        assert json.loads(report_to_json([report], {"seed": 3})) == parsed

    def test_load_cases(self, tmp_path):
        p = tmp_path / "cases.jsonl"
        p.write_text(json.dumps({"question": "q", "gold_doc_id": "d",
                                 "source_part": "generic"}) + "\n")
        (case,) = load_cases(p)
        assert case.gold_doc_id == "d" and case.gold_topic_id is None

    def test_load_cases_rejects_missing_fields(self, tmp_path):
        p = tmp_path / "cases.jsonl"
        p.write_text(json.dumps({"question": "q"}) + "\n")
        with pytest.raises(DataError):
            load_cases(p)

    def test_distractors_never_improve_rank(self):
        # adding unrelated documents must not move the gold doc up
        provider = DeterministicEmbedder(dim=128)
        base = synthetic_docs(1, 6, words_per_doc=30, seed=10)
        gold = base[0]
        words = gold.text.split()[:8]
        cases = [RetrievalCase(question=" ".join(words), gold_doc_id=gold.id,
                               source_part="generic")]
        small = run_retrieval_eval(cases, base, None, provider, "whole_corpus")
        distractors = synthetic_docs(1, 10, words_per_doc=30, seed=11)
        renamed = [Document(id=f"x-{d.id}", doc_type=d.doc_type, text=d.text)
                   for d in distractors]
        big = run_retrieval_eval(cases, base + renamed, None, provider, "whole_corpus")
        assert big.mrr_per_part["generic"] <= small.mrr_per_part["generic"]


class SignedOneHotEmbedder:
    """Embeds a text as +e_j, -e_j or zero, chosen by a hash of the text.

    Every cosine is then exactly -1, 0 or 1 in whatever order a product sums,
    so equal texts, and many unequal ones, tie bit for bit.
    """

    provider_id = "signed-one-hot"
    dim = 3

    def embed(self, texts):
        out = np.zeros((len(texts), self.dim))
        for i, text in enumerate(texts):
            h = zlib.crc32(text.encode("utf-8")) % (2 * self.dim + 1)
            if h < 2 * self.dim:
                out[i, h % self.dim] = 1.0 if h < self.dim else -1.0
        return out


def brute_force_ranks(cases, docs, hierarchy, provider, strategy, size, overlap):
    """Every chunk's cosine, each document's best, ties by doc_id; None when
    the gold document is not among the searched documents."""
    def cosine(text, q):
        v = provider.embed([text])[0]
        vn, qn = np.linalg.norm(v), np.linalg.norm(q)
        return float(v @ q / (vn * qn)) if vn > 0 and qn > 0 else 0.0

    def texts(doc):
        if strategy.endswith("chunked"):
            return [c.text for c in chunk_document(doc, size, overlap)]
        return [doc.text]

    routed = strategy.startswith("topic_routed")
    leaves = {leaf.id: set(leaf.doc_ids) for leaf in hierarchy.leaves()}
    leaf_of = {i: leaf_id for leaf_id, ids in leaves.items() for i in ids}
    ranks = {}
    for case in cases:
        key = (case.gold_topic_id or leaf_of.get(case.gold_doc_id)) if routed else None
        members = leaves.get(key, set()) if routed else {d.id for d in docs}
        rank = None
        if case.gold_doc_id in members:
            q = provider.embed([case.question])[0]
            best = {d.id: max(cosine(t, q) for t in texts(d)) for d in docs if d.id in members}
            rank = sorted(best, key=lambda i: (-best[i], i)).index(case.gold_doc_id) + 1
        ranks.setdefault(case.source_part, []).append(rank)
    return ranks


WORDS = ["alpha", "beta", "gamma", "delta", "eps"]


@settings(max_examples=60, deadline=None)
@given(
    ids=st.permutations([f"d{i}" for i in range(7)]),
    texts=st.lists(st.lists(st.sampled_from(WORDS), min_size=1, max_size=7), min_size=7, max_size=7),
    homes=st.lists(st.sampled_from(["t0", "t1", None]), min_size=7, max_size=7),
    n_docs=st.integers(min_value=2, max_value=7),
    cases=st.lists(st.tuples(st.lists(st.sampled_from(WORDS), min_size=1, max_size=4),
                             st.integers(min_value=0, max_value=7),
                             st.sampled_from([None, "root/0", "root/1", "no-such-topic"]),
                             st.sampled_from(["p", "q"])), min_size=1, max_size=6),
)
def test_ranks_match_brute_force_for_every_strategy(ids, texts, homes, n_docs, cases):
    # the corpus is not in doc_id order, docs[1] repeats docs[0]'s text under
    # another id, chunks of two words make multi-chunk documents, and gold id
    # "d7" or a doc in no leaf is outside the searched index; when no leaf
    # holds a document there is no index to route to, a data error
    texts[1] = texts[0]
    docs = [Document(id=ids[i], doc_type="generic", text=" ".join(texts[i])) for i in range(n_docs)]
    hierarchy = manual_hierarchy({t: [d.id for d, h in zip(docs, homes) if h == t]
                                  for t in ("t0", "t1")})
    cases = [RetrievalCase(question=" ".join(words), gold_doc_id=f"d{gold}", source_part=part,
                           gold_topic_id=topic) for words, gold, topic, part in cases]
    provider = SignedOneHotEmbedder()
    some_leaf_holds_a_doc = any(h is not None for h in homes[:n_docs])
    for strategy in STRATEGIES:
        if strategy.startswith("topic_routed") and not some_leaf_holds_a_doc:
            with pytest.raises(DataError, match="nothing to index"):
                run_retrieval_eval(cases, docs, hierarchy, provider, strategy,
                                   chunk_size=2, chunk_overlap=1)
            continue
        report = run_retrieval_eval(cases, docs, hierarchy, provider, strategy,
                                    chunk_size=2, chunk_overlap=1)
        assert report.ranks == brute_force_ranks(cases, docs, hierarchy, provider, strategy, 2, 1)
