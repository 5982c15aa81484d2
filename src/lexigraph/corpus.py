"""Corpus ingestion, tokenization, vocabulary building, and TF-IDF matrices.

The term-document matrix built here is the input to every factorization in
the package: rows are vocabulary tokens, columns are documents, and each
weight is raw term frequency times ln(N / document frequency).
"""

from __future__ import annotations

import json
import math
import re
from array import array
from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import DataError, ParameterError, data_errors, from_json, write_file

DOC_TYPES = ("constitution", "statute", "appeals_case", "supreme_case", "generic")

# a piece is a run of characters that are neither whitespace nor a dash; the
# group is the piece from its first to its last word character
_TOKEN = re.compile(r"[^\s\-–—]*?(\w(?:[^\s\-–—]*\w)?)[^\s\-–—]*")


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


def _lines(path: Path) -> Iterator[str]:
    """The lines of the UTF-8 file at `path`. A fault met opening or reading
    it (invalid UTF-8) is a DataError naming `path`; faults the caller raises
    between lines do not pass through here."""
    with data_errors(path), open(path, encoding="utf-8") as fh:
        yield from fh


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """(line number, object) for each non-blank line of a plain UTF-8 JSON
    Lines file, read line by line; a `.gz` file is not decompressed, so it
    fails as a file that is not UTF-8.

    A file that cannot be opened or is not UTF-8 is a DataError naming it; a
    line that is not JSON, is nested too deep to parse or is not a JSON
    object is a DataError naming its number.
    """
    path = Path(path)
    for lineno, line in enumerate(_lines(path), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}:{lineno}: malformed JSON: {exc.msg}") from exc
        except RecursionError as exc:
            raise DataError(f"{path}:{lineno}: JSON nested too deep") from exc
        if not isinstance(rec, dict):
            raise DataError(f"{path}:{lineno}: expected a JSON object")
        yield lineno, rec


def read_records(path: str | Path, cls) -> list:
    """Each line of a JSON Lines file read into the dataclass `cls` by
    `errors.from_json`; a line it does not fit is a DataError naming the
    file and line."""
    records = []
    for lineno, rec in read_jsonl(path):
        try:
            records.append(from_json(cls, rec))
        except TypeError as exc:
            raise DataError(f"{path}:{lineno}: bad record: {exc}") from exc
    return records


def _text_value(value, name: str) -> str:
    """The value of the string field `name`: a string as it is, a number as
    `str` writes it; null, a boolean, an array or an object is a DataError."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return str(value)
    raise DataError(f"{name} must be a string or a number, got {json.dumps(value):.40}")


def ingest_jsonl(path: str | Path) -> list[Document]:
    """Read a JSON Lines corpus file into Documents, preserving file order.

    Each line must be a JSON object with at least `id`, `doc_type`, and
    `text`; `title` and a flat `metadata` map are optional, and every one of
    these values is a string or a number (read as `str` writes it). Raises
    DataError on malformed lines (with the line number), on duplicate ids
    (naming both offending lines), on a file that is not UTF-8, and on a
    file that holds no document.
    """
    path = Path(path)
    docs: list[Document] = []
    seen: dict[str, int] = {}
    for lineno, rec in read_jsonl(path):
        missing = [k for k in ("id", "doc_type", "text") if k not in rec]
        if missing:
            raise DataError(f"{path}:{lineno}: missing required keys {missing}")
        metadata = rec.get("metadata", {})
        if not isinstance(metadata, dict):
            raise DataError(f"{path}:{lineno}: metadata must be an object")
        try:
            doc = Document(
                id=_text_value(rec["id"], "id"),
                doc_type=_text_value(rec["doc_type"], "doc_type"),
                text=_text_value(rec["text"], "text"),
                title=_text_value(rec.get("title", ""), "title"),
                metadata={k: _text_value(v, f"metadata value {k!r}") for k, v in metadata.items()},
            )
        except DataError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        if doc.id in seen:
            raise DataError(
                f"{path}: duplicate document id {doc.id!r} on lines "
                f"{seen[doc.id]} and {lineno}"
            )
        seen[doc.id] = lineno
        docs.append(doc)
    if not docs:
        raise DataError(f"{path}: the corpus holds no document")
    return docs


def write_jsonl(docs: list[Document], path: str | Path) -> None:
    """Replace the file at `path` with Documents in the ingestion format, by
    `errors.write_file`: a document it cannot encode as UTF-8 is a
    DataError, and the file is left as it was."""
    write_file(path, "".join(
        json.dumps({"id": d.id, "doc_type": d.doc_type, "title": d.title, "text": d.text,
                    "metadata": d.metadata}, ensure_ascii=False, sort_keys=True) + "\n"
        for d in docs))


def tokenize(text: str, remove_stopwords: bool = True) -> list[str]:
    """Lowercase unigram tokenizer.

    Hyphenated words are split on the hyphen, leading/trailing punctuation is
    stripped, tokens without any alphabetic character are dropped, and (by
    default) stop words from the shipped list are removed. Pure and
    deterministic: equal inputs always give equal outputs.
    """
    return [
        tok for tok in _TOKEN.findall(text.lower())
        if (tok.isalpha() or any(ch.isalpha() for ch in tok))
        and not (remove_stopwords and tok in STOPWORDS)
    ]


@dataclass(frozen=True)
class TokenCounts:
    """Token counts of a corpus, the one input of every vocabulary and TF-IDF matrix."""

    doc_ids: tuple[str, ...]
    tokens: tuple[str, ...]  # sorted, distinct
    matrix: sp.csr_matrix  # int64 counts, shape (len(doc_ids), len(tokens))

    def rows(self, indices: list[int] | np.ndarray) -> "TokenCounts":
        """The counts of the documents at `indices`, in that order."""
        return TokenCounts(tuple(self.doc_ids[i] for i in indices), self.tokens, self.matrix[indices])

    def restrict(self, vocab: tuple[str, ...]) -> sp.csr_matrix:
        """Documents x vocabulary counts; a token absent from these documents has an empty column."""
        n = len(self.tokens)
        cols = []
        for t in vocab:
            i = bisect_left(self.tokens, t)
            cols.append(i if i < n and self.tokens[i] == t else n)
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


def build_vocabulary(corpus: TokenCounts, min_df: int, max_df_ratio: float) -> tuple[str, ...]:
    """The corpus unigrams whose document frequency falls in the DF window.

    A token is kept iff min_df <= df(token) <= floor(max_df_ratio * N), N the
    number of documents; the tuple is sorted lexicographically. Raises
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
    return tuple(corpus.tokens[i] for i in kept)


def build_tfidf(corpus: TokenCounts, vocab: tuple[str, ...]) -> sp.csr_matrix:
    """The sparse TF-IDF matrix (terms x documents) of the documents of
    `corpus` under the sorted tokens `vocab`, one row per token in that order.

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
    return matrix
