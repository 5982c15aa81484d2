import json
import math
import re
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st

from lexigraph.corpus import (
    Document,
    STOPWORDS,
    TermDocMatrix,
    build_tfidf,
    build_vocabulary,
    count_tokens,
    ingest_jsonl,
    tokenize,
)
from lexigraph.errors import DataError, ParameterError


def write_jsonl_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestIngest:
    def test_two_line_file(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        write_jsonl_lines(p, [
            json.dumps({"id": "a", "doc_type": "statute", "text": "first"}),
            json.dumps({"id": "b", "doc_type": "generic", "text": "second"}),
        ])
        docs = ingest_jsonl(p)
        assert [d.id for d in docs] == ["a", "b"]
        assert docs[0].doc_type == "statute"

    def test_duplicate_id_names_both_lines(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        write_jsonl_lines(p, [
            json.dumps({"id": "a", "doc_type": "generic", "text": "x"}),
            json.dumps({"id": "b", "doc_type": "generic", "text": "y"}),
            json.dumps({"id": "a", "doc_type": "generic", "text": "z"}),
        ])
        with pytest.raises(DataError) as err:
            ingest_jsonl(p)
        assert "1" in str(err.value) and "3" in str(err.value)

    def test_malformed_line_reports_line_number(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        write_jsonl_lines(p, [
            json.dumps({"id": "a", "doc_type": "generic", "text": "x"}),
            "{not json",
        ])
        with pytest.raises(DataError) as err:
            ingest_jsonl(p)
        assert ":2" in str(err.value)

    def test_missing_required_key(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        write_jsonl_lines(p, [json.dumps({"id": "a", "text": "x"})])
        with pytest.raises(DataError, match="doc_type"):
            ingest_jsonl(p)

    def test_metadata_round_trip(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        write_jsonl_lines(p, [json.dumps({
            "id": "a", "doc_type": "supreme_case", "text": "x",
            "metadata": {"year": "1955", "citation_string": "Smith v. South, 1955"},
        })])
        (doc,) = ingest_jsonl(p)
        assert doc.metadata["year"] == "1955"


class TestTokenize:
    def test_statute_sentence(self):
        assert tokenize("The Court held §41-5-1 applies.") == ["court", "held", "applies"]

    def test_empty(self):
        assert tokenize("") == []

    def test_case_folding(self):
        assert tokenize("Estoppel estoppel ESTOPPEL") == ["estoppel"] * 3

    def test_hyphen_split(self):
        assert tokenize("well-known cross-reference") == ["well", "known", "cross", "reference"]

    def test_stopwords_removed_but_kept_on_request(self):
        assert "the" in STOPWORDS
        assert tokenize("the court") == ["court"]
        assert tokenize("the court", remove_stopwords=False) == ["the", "court"]

    def test_numeric_only_tokens_dropped(self):
        assert tokenize("1978 section 42b") == ["section", "42b"]

    @given(st.text(max_size=200))
    def test_deterministic(self, text):
        assert tokenize(text) == tokenize(text)


class TestVocabulary:
    def _docs(self, texts):
        return [Document(id=f"d{i}", doc_type="generic", text=t) for i, t in enumerate(texts)]

    def test_max_df_excludes_ubiquitous(self):
        # token in 9 of 10 docs with ratio 0.8 -> floor(8) = 8 < 9 -> excluded
        docs = self._docs(["alpha beta"] * 9 + ["beta gamma"])
        vocab = build_vocabulary(count_tokens(docs), min_df=1, max_df_ratio=0.8)
        assert "alpha" not in vocab.tokens
        assert "beta" not in vocab.tokens
        assert "gamma" in vocab.tokens

    def test_min_df_excludes_rare(self):
        docs = self._docs(["alpha unique0"] + ["alpha filler%d" % i for i in range(1, 10)])
        vocab = build_vocabulary(count_tokens(docs), min_df=5, max_df_ratio=1.0)
        assert "unique0" not in vocab.tokens
        assert "alpha" in vocab.tokens

    def test_sorted_and_unique(self):
        docs = self._docs(["zebra apple", "apple zebra", "apple zebra mango"])
        vocab = build_vocabulary(count_tokens(docs), min_df=1, max_df_ratio=1.0)
        assert list(vocab.tokens) == sorted(set(vocab.tokens))

    def test_empty_vocabulary_is_an_error(self):
        docs = self._docs(["alpha", "alpha"])
        with pytest.raises(DataError, match="vocabulary empty"):
            build_vocabulary(count_tokens(docs), min_df=1, max_df_ratio=0.4)  # floor(0.8)=0

    def test_idempotent_rebuild(self):
        docs = self._docs(["water rights", "water law", "law review water"])
        a = build_vocabulary(count_tokens(docs), 1, 1.0)
        b = build_vocabulary(count_tokens(docs), 1, 1.0)
        assert a == b

    def test_df_window_invariant(self):
        docs = self._docs(["a b c unique", "a b c", "a b d", "a d e", "b c e"])
        vocab = build_vocabulary(count_tokens(docs), min_df=2, max_df_ratio=0.8)
        limit = math.floor(0.8 * len(docs))
        for tok, df in zip(vocab.tokens, vocab.df):
            assert 2 <= df <= limit

    def test_parameter_validation(self):
        docs = self._docs(["x y"])
        with pytest.raises(ParameterError):
            build_vocabulary(count_tokens(docs), min_df=0, max_df_ratio=1.0)
        with pytest.raises(ParameterError):
            build_vocabulary(count_tokens(docs), min_df=1, max_df_ratio=1.5)
        with pytest.raises(ParameterError):
            build_vocabulary(count_tokens([]), min_df=1, max_df_ratio=1.0)


class TestTfidf:
    def _docs(self, texts):
        return [Document(id=f"d{i}", doc_type="generic", text=t) for i, t in enumerate(texts)]

    def test_ubiquitous_token_row_absent(self):
        docs = self._docs(["alpha beta", "alpha gamma"])
        vocab = build_vocabulary(count_tokens(docs), 1, 1.0)
        X = build_tfidf(count_tokens(docs), vocab)
        alpha_row = vocab.tokens.index("alpha")
        assert all(ti != alpha_row for ti, _, _ in X.entries())

    def test_double_count_weight(self):
        docs = self._docs(["word word", "other"])
        vocab = build_vocabulary(count_tokens(docs), 1, 1.0)
        X = build_tfidf(count_tokens(docs), vocab)
        wi = vocab.tokens.index("word")
        weights = {(ti, di): w for ti, di, w in X.entries()}
        assert weights[(wi, 0)] == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_empty_doc_column_retained(self):
        docs = self._docs(["alpha beta", "1978 ..."])  # second doc tokenizes to nothing
        vocab = build_vocabulary(count_tokens(docs), 1, 1.0)
        X = build_tfidf(count_tokens(docs), vocab)
        assert X.shape[1] == 2
        assert all(di == 0 for _, di, _ in X.entries())

    def test_all_zero_matrix_rejected(self):
        docs = self._docs(["alpha beta", "alpha beta"])
        vocab = build_vocabulary(count_tokens(docs), 1, 1.0)
        with pytest.raises(DataError, match="all zero"):
            build_tfidf(count_tokens(docs), vocab)

    def test_weights_match_brute_force(self):
        # independent recomputation of tf * ln(N/df) entry by entry
        texts = [
            "water rights water use permit",
            "criminal appeal court ruling",
            "water permit application court",
            "appeal water ruling permit permit",
        ]
        docs = self._docs(texts)
        vocab = build_vocabulary(count_tokens(docs), 1, 1.0)
        X = build_tfidf(count_tokens(docs), vocab)
        token_lists = [tokenize_list(t) for t in texts]
        n = len(docs)
        expected = {}
        for ti, tok in enumerate(vocab.tokens):
            df = sum(1 for toks in token_lists if tok in toks)
            for di, toks in enumerate(token_lists):
                tf = toks.count(tok)
                w = tf * math.log(n / df) if df else 0.0
                if w > 0:
                    expected[(ti, di)] = w
        actual = {(ti, di): w for ti, di, w in X.entries()}
        assert actual.keys() == expected.keys()
        for key in expected:
            assert actual[key] == pytest.approx(expected[key], abs=1e-12)
        assert all(w > 0 for w in actual.values())

    def test_save_load_round_trip(self, tmp_path):
        docs = self._docs(["water rights", "appeal court", "water appeal"])
        vocab = build_vocabulary(count_tokens(docs), 1, 1.0)
        X = build_tfidf(count_tokens(docs), vocab)
        path = tmp_path / "matrix.npz"
        X.save(path)
        Y = TermDocMatrix.load(path)
        assert Y.doc_ids == X.doc_ids
        assert Y.vocabulary == X.vocabulary
        assert Y.entries() == X.entries()

    def test_load_never_unpickles(self, tmp_path):
        marker = tmp_path / "unpickled"

        class Payload:
            def __reduce__(self):
                return (open, (str(marker), "w"))

        path = tmp_path / "hostile.npz"
        np.savez(path, data=np.ones(1), indices=np.zeros(1, dtype=np.int32),
                 indptr=np.array([0, 1]), shape=np.array([1, 1]),
                 tokens=np.array([Payload()], dtype=object), df=np.array([1]),
                 min_df=np.array(1), max_df_ratio=np.array(1.0),
                 doc_ids=np.array([Payload()], dtype=object))
        with pytest.raises(DataError, match="hostile.npz"):
            TermDocMatrix.load(path)
        assert not marker.exists()

    def test_load_non_npz_is_data_error(self, tmp_path):
        path = tmp_path / "matrix.npz"
        path.write_text("not a matrix", encoding="utf-8")
        with pytest.raises(DataError, match="matrix.npz"):
            TermDocMatrix.load(path)


# texts over a small pool, so tokens repeat across documents; "the" and "1978"
# tokenize to nothing, so some documents have no tokens at all
_TEXTS = st.lists(
    st.sampled_from(["alpha", "Beta", "beta", "gamma", "well-known", "delta.", "the", "1978"]),
    max_size=8,
).map(lambda words: " ".join(words) or "1978")


def _docs(texts, prefix="d"):
    return [Document(id=f"{prefix}{i}", doc_type="generic", text=t) for i, t in enumerate(texts)]


def _reference_vocabulary(docs, min_df, max_df_ratio):
    """DF from per-document token sets."""
    df = Counter(tok for d in docs for tok in set(tokenize(d.text)))
    max_df = math.floor(max_df_ratio * len(docs))
    kept = sorted(t for t, c in df.items() if min_df <= c <= max_df)
    return tuple(kept), tuple(df[t] for t in kept)


def _reference_tfidf(docs, tokens):
    """tf * ln(N / df) document by document, df over `docs`."""
    index = {t: i for i, t in enumerate(tokens)}
    tf = [Counter(index[t] for t in tokenize(d.text) if t in index) for d in docs]
    df = Counter(ti for counts in tf for ti in counts)
    rows, cols, vals = [], [], []
    for di, counts in enumerate(tf):
        for ti, n in sorted(counts.items()):
            w = n * np.log(len(docs) / df[ti])
            if w > 0.0:
                rows.append(ti)
                cols.append(di)
                vals.append(w)
    if not vals:
        return None
    return sp.csr_matrix((np.asarray(vals), (np.asarray(rows), np.asarray(cols))),
                         shape=(len(tokens), len(docs)))


def _assert_same_csr(actual, expected):
    assert actual.shape == expected.shape
    for name in ("data", "indices", "indptr"):
        np.testing.assert_array_equal(getattr(actual, name), getattr(expected, name))


class TestTokenCounts:
    @given(texts=st.lists(_TEXTS, min_size=1, max_size=8),
           extra=st.lists(_TEXTS, max_size=4),
           min_df=st.integers(1, 3),
           max_df_ratio=st.sampled_from([0.5, 0.8, 1.0]))
    def test_matches_per_document_reference(self, texts, extra, min_df, max_df_ratio):
        # the vocabulary comes from a superset corpus, the TF-IDF from its first part
        docs = _docs(texts)
        superset = docs + _docs(extra, prefix="x")
        min_df = min(min_df, len(superset))
        tokens, df = _reference_vocabulary(superset, min_df, max_df_ratio)
        if not tokens:
            with pytest.raises(DataError, match="vocabulary empty"):
                build_vocabulary(count_tokens(superset), min_df, max_df_ratio)
            return
        vocab = build_vocabulary(count_tokens(superset), min_df, max_df_ratio)
        assert (vocab.tokens, vocab.df) == (tokens, df)

        expected = _reference_tfidf(docs, vocab.tokens)
        if expected is None:
            with pytest.raises(DataError, match="all zero"):
                build_tfidf(count_tokens(docs), vocab)
            return
        X = build_tfidf(count_tokens(docs), vocab)
        assert X.doc_ids == tuple(d.id for d in docs)
        _assert_same_csr(X.matrix, expected)

    @given(texts=st.lists(_TEXTS, min_size=2, max_size=10), data=st.data(),
           min_df=st.integers(1, 2), max_df_ratio=st.sampled_from([0.8, 1.0]))
    def test_rows_equal_counting_the_subset(self, texts, data, min_df, max_df_ratio):
        docs = _docs(texts)
        picks = data.draw(st.lists(st.integers(0, len(docs) - 1), min_size=1, unique=True))
        sliced = count_tokens(docs).rows(picks)
        direct = count_tokens([docs[i] for i in picks])
        assert sliced.doc_ids == direct.doc_ids
        min_df = min(min_df, len(picks))
        try:
            vocab = build_vocabulary(direct, min_df, max_df_ratio)
            expected = build_tfidf(direct, vocab)
        except DataError as exc:
            with pytest.raises(DataError, match=re.escape(str(exc))):
                build_tfidf(sliced, build_vocabulary(sliced, min_df, max_df_ratio))
            return
        assert build_vocabulary(sliced, min_df, max_df_ratio) == vocab
        X = build_tfidf(sliced, vocab)
        assert X.doc_ids == expected.doc_ids
        _assert_same_csr(X.matrix, expected.matrix)

def tokenize_list(text):
    from lexigraph.corpus import tokenize

    return tokenize(text)
