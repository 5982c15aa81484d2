"""Corpus ingestion, tokenization, vocabulary building, and TF-IDF matrices.

The term-document matrix built here is the input to every factorization in
the package: rows are vocabulary tokens, columns are documents, and each
weight is raw term frequency times ln(N / document frequency).
"""

from __future__ import annotations

import gzip
import json
import math
import re
import zipfile
from array import array
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import DataError, ParameterError

DOC_TYPES = ("constitution", "statute", "appeals_case", "supreme_case", "generic")

_DASHES = re.compile(r"[-–—]")
_EDGE_PUNCT = re.compile(r"^\W+|\W+$", re.UNICODE)


def _load_stopwords() -> frozenset[str]:
    text = resources.files("lexigraph.data").joinpath("stopwords.txt").read_text("utf-8")
    words = set()
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            words.add(line)
    return frozenset(words)


STOPWORDS = _load_stopwords()


@dataclass(frozen=True)
class Document:
    """One legal text unit (constitutional section, statute section, opinion)."""

    id: str
    doc_type: str
    text: str
    title: str = ""
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not self.id:
            raise DataError("document id must be non-empty")
        if self.doc_type not in DOC_TYPES:
            raise DataError(f"unknown doc_type {self.doc_type!r} for document {self.id!r}")
        if not self.text:
            raise DataError(f"document {self.id!r} has empty text")


def ingest_jsonl(path: str | Path) -> list[Document]:
    """Read a JSON Lines corpus file into Documents, preserving file order.

    Each line must be a JSON object with at least `id`, `doc_type`, and
    `text`; `title` and a flat string `metadata` map are optional. A `.gz`
    suffix selects transparent decompression. Raises DataError on malformed
    lines (with the line number) and on duplicate ids (naming both offending
    lines).
    """
    path = Path(path)
    docs: list[Document] = []
    seen: dict[str, int] = {}
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{lineno}: malformed JSON: {exc.msg}") from exc
            if not isinstance(rec, dict):
                raise DataError(f"{path}:{lineno}: expected a JSON object")
            missing = [k for k in ("id", "doc_type", "text") if k not in rec]
            if missing:
                raise DataError(f"{path}:{lineno}: missing required keys {missing}")
            doc_id = str(rec["id"])
            if doc_id in seen:
                raise DataError(
                    f"{path}: duplicate document id {doc_id!r} on lines "
                    f"{seen[doc_id]} and {lineno}"
                )
            seen[doc_id] = lineno
            metadata = rec.get("metadata") or {}
            if not isinstance(metadata, dict):
                raise DataError(f"{path}:{lineno}: metadata must be an object")
            try:
                doc = Document(
                    id=doc_id,
                    doc_type=str(rec["doc_type"]),
                    text=str(rec["text"]),
                    title=str(rec.get("title", "")),
                    metadata={str(k): str(v) for k, v in metadata.items()},
                )
            except DataError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            docs.append(doc)
    return docs


def write_jsonl(docs: list[Document], path: str | Path) -> None:
    """Write Documents in the ingestion format; `.gz` compresses."""
    path = Path(path)
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "wt", encoding="utf-8") as fh:
        for d in docs:
            rec = {"id": d.id, "doc_type": d.doc_type, "title": d.title,
                   "text": d.text, "metadata": d.metadata}
            fh.write(json.dumps(rec, ensure_ascii=False, sort_keys=True) + "\n")


def tokenize(text: str, remove_stopwords: bool = True) -> list[str]:
    """Lowercase unigram tokenizer.

    Hyphenated words are split on the hyphen, leading/trailing punctuation is
    stripped, tokens without any alphabetic character are dropped, and (by
    default) stop words from the shipped list are removed. Pure and
    deterministic: equal inputs always give equal outputs.
    """
    tokens: list[str] = []
    for piece in _DASHES.sub(" ", text.lower()).split():
        tok = _EDGE_PUNCT.sub("", piece)
        if not tok or not any(ch.isalpha() for ch in tok):
            continue
        if remove_stopwords and tok in STOPWORDS:
            continue
        tokens.append(tok)
    return tokens


@dataclass(frozen=True)
class Vocabulary:
    """DF-filtered, sorted unigram vocabulary of a corpus."""

    tokens: tuple[str, ...]
    df: tuple[int, ...]
    min_df: int
    max_df_ratio: float

    def __post_init__(self):
        if len(self.tokens) != len(self.df):
            raise DataError("tokens and df lengths differ")

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class TokenCounts:
    """Token counts of a corpus, the one input of every vocabulary and TF-IDF matrix."""

    doc_ids: tuple[str, ...]
    tokens: tuple[str, ...]  # sorted, distinct
    matrix: sp.csr_matrix  # int64 counts, shape (len(doc_ids), len(tokens))

    def rows(self, indices: list[int]) -> "TokenCounts":
        """The counts of the documents at `indices`, in that order."""
        return TokenCounts(tuple(self.doc_ids[i] for i in indices), self.tokens, self.matrix[indices])

    def restrict(self, vocab: Vocabulary) -> sp.csr_matrix:
        """Documents x vocabulary counts; a token absent from these documents has an empty column."""
        index = {t: i for i, t in enumerate(self.tokens)}
        cols = [index.get(t, len(self.tokens)) for t in vocab.tokens]
        empty = sp.csr_matrix((len(self.doc_ids), 1), dtype=np.int64)
        return sp.hstack([self.matrix, empty], format="csr")[:, cols]


def count_tokens(docs: list[Document]) -> TokenCounts:
    """Tokenize each document once and count its tokens."""
    index: dict[str, int] = {}  # token -> id in order of first appearance
    ids, indptr = array("q"), [0]  # token ids of every occurrence, 8 bytes each
    for d in docs:
        ids.extend(index.setdefault(tok, len(index)) for tok in tokenize(d.text))
        indptr.append(len(ids))
    tokens = sorted(index)
    rank = np.empty(len(tokens), dtype=np.int64)
    rank[[index[t] for t in tokens]] = np.arange(len(tokens))
    cols = rank[np.frombuffer(ids, dtype=np.int64)]
    matrix = sp.csr_matrix((np.ones(len(cols), dtype=np.int64), cols, indptr),
                           shape=(len(docs), len(tokens)))
    matrix.sum_duplicates()  # repeated occurrences become counts
    return TokenCounts(doc_ids=tuple(d.id for d in docs), tokens=tuple(tokens), matrix=matrix)


def build_vocabulary(corpus: TokenCounts, min_df: int, max_df_ratio: float) -> Vocabulary:
    """Collect corpus unigrams whose document frequency falls in the DF window.

    A token is kept iff min_df <= df(token) <= floor(max_df_ratio * N), N the
    number of documents; the result is sorted lexicographically. Raises
    DataError if no token survives, since an empty vocabulary makes every
    downstream matrix undefined.
    """
    n_docs = len(corpus.doc_ids)
    if not n_docs:
        raise ParameterError("docs must be non-empty")
    if not (1 <= min_df <= n_docs):
        raise ParameterError(f"min_df must be in [1, {n_docs}], got {min_df}")
    if not (0.0 < max_df_ratio <= 1.0):
        raise ParameterError(f"max_df_ratio must be in (0, 1], got {max_df_ratio}")

    df = np.bincount(corpus.matrix.indices, minlength=len(corpus.tokens))
    max_df = math.floor(max_df_ratio * n_docs)
    kept = np.flatnonzero((df >= min_df) & (df <= max_df))
    if not len(kept):
        raise DataError(
            f"vocabulary empty: no token has document frequency in "
            f"[{min_df}, {max_df}] over {n_docs} documents"
        )
    return Vocabulary(
        tokens=tuple(corpus.tokens[i] for i in kept),
        df=tuple(int(c) for c in df[kept]),
        min_df=min_df,
        max_df_ratio=max_df_ratio,
    )


@dataclass(frozen=True)
class TermDocMatrix:
    """Sparse non-negative TF-IDF matrix (terms x documents)."""

    vocabulary: Vocabulary
    doc_ids: tuple[str, ...]
    matrix: sp.csr_matrix  # shape (len(vocabulary), len(doc_ids))

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    def entries(self) -> list[tuple[int, int, float]]:
        """Sparse (term_index, doc_index, weight) triples, row-major order."""
        coo = self.matrix.tocoo()
        order = np.lexsort((coo.col, coo.row))
        return [(int(coo.row[i]), int(coo.col[i]), float(coo.data[i])) for i in order]

    def save(self, path: str | Path) -> None:
        csr = self.matrix.tocsr()
        np.savez_compressed(
            path,
            data=csr.data,
            indices=csr.indices,
            indptr=csr.indptr,
            shape=np.asarray(csr.shape),
            tokens=np.asarray(self.vocabulary.tokens, dtype=str),
            df=np.asarray(self.vocabulary.df),
            min_df=np.asarray(self.vocabulary.min_df),
            max_df_ratio=np.asarray(self.vocabulary.max_df_ratio),
            doc_ids=np.asarray(self.doc_ids, dtype=str),
        )

    @classmethod
    def load(cls, path: str | Path) -> "TermDocMatrix":
        """Read a matrix written by `save`, never unpickling; DataError names a bad path."""
        try:
            with np.load(path) as z:
                csr = sp.csr_matrix(
                    (z["data"], z["indices"], z["indptr"]), shape=tuple(z["shape"])
                )
                vocab = Vocabulary(
                    tokens=tuple(str(t) for t in z["tokens"]),
                    df=tuple(int(c) for c in z["df"]),
                    min_df=int(z["min_df"]),
                    max_df_ratio=float(z["max_df_ratio"]),
                )
                doc_ids = tuple(str(d) for d in z["doc_ids"])
        except (DataError, OSError, EOFError, ValueError, TypeError, KeyError, zipfile.BadZipFile) as exc:
            raise DataError(f"{path}: not a readable term-document matrix: {exc}") from exc
        return cls(vocabulary=vocab, doc_ids=doc_ids, matrix=csr)


def build_tfidf(corpus: TokenCounts, vocab: Vocabulary) -> TermDocMatrix:
    """Build the sparse TF-IDF matrix for the documents of `corpus` under `vocab`.

    weight(t, d) = tf(t, d) * ln(N / df(t)) with raw counts, N documents,
    and df recomputed over these documents so the weight is non-negative even
    when the vocabulary came from a superset corpus. Zero weights are omitted;
    documents that tokenize to nothing keep their (all-zero) column. Raises
    DataError if every weight is zero, which happens exactly when each kept
    token appears in all documents.
    """
    if not corpus.doc_ids:
        raise ParameterError("docs must be non-empty")
    counts = corpus.restrict(vocab)
    df = np.bincount(counts.indices, minlength=len(vocab))
    idf = np.log(len(corpus.doc_ids) / np.maximum(df, 1))  # df is 0 only where a token has no counts
    matrix = (counts @ sp.diags(idf)).T.tocsr()
    matrix.eliminate_zeros()
    if not matrix.nnz:
        raise DataError("TF-IDF matrix is all zero: every kept token appears in all documents")
    return TermDocMatrix(vocabulary=vocab, doc_ids=corpus.doc_ids, matrix=matrix)
