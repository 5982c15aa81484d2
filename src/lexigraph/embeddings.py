"""Embedding providers: a deterministic offline embedder and an HTTP client.

The deterministic provider projects a text's bag of words through per-token
hash-seeded random vectors, so texts sharing vocabulary land near each other
and every embedding is a pure function of the text. Each distinct token's
vector is derived once and kept for the life of the process, never evicted,
as one row of a float64 matrix per `dim` (2 KB a token at dim 256, so 76k
distinct tokens hold about 156 MB); a second pass over a corpus derives
nothing, however large its vocabulary.

A text's tokens are read from the bytes of its lowered UTF-8 form, every
byte outside `[a-z0-9']` turned into a space: a non-ASCII character is
written with bytes >= 0x80 only, so the tokens are exactly the regex
`[a-z0-9']+` matches of the lowered text. One text's vector is the sum of
its tokens' rows, gathered and added row after row. A batch of texts is one
sparse product: a CSR matrix with one entry of 1.0 per token occurrence (in
text order, duplicates not summed) times the token matrix. scipy adds each
stored entry's `1.0 * row`, which is the row exactly, to a zeroed output row
in stored order, so either way a text's vector is, byte for byte, the sum a
loop over its tokens makes. The single-text gather is kept because building
the sparse matrix costs more than the whole sum of one short question.

The HTTP provider speaks the common JSON embeddings schema (POST model +
input array, response with one vector per input) through `remote.post_json`,
which retries a failed request.
"""

from __future__ import annotations

import math
import threading
from hashlib import blake2b
from itertools import chain
from typing import Protocol

import numpy as np
from scipy.sparse import csr_array

from .errors import ExternalServiceError, ParameterError
from .remote import new_session, post_json

DEFAULT_DIM = 256

# every byte outside [a-z0-9'] becomes a space (see the module docstring)
_TOKEN_BYTES = bytes(b if b in b"abcdefghijklmnopqrstuvwxyz0123456789'" else 0x20 for b in range(256))


def _tokens(text: str) -> list[bytes]:
    """The `[a-z0-9']+` tokens of `text.lower()`, as ASCII bytes."""
    # "surrogatepass" writes a lone surrogate as three bytes >= 0x80 as well
    return text.lower().encode("utf-8", "surrogatepass").translate(_TOKEN_BYTES).split()


class EmbeddingProvider(Protocol):
    provider_id: str
    dim: int

    def embed(self, texts: list[str]) -> np.ndarray:
        """One row per text: a (len(texts), dim) float64 array."""


# Rows reserved when a dim's matrix is created. np.empty commits memory only
# as rows are written, so the reservation costs address space, not RSS; a
# vocabulary beyond it doubles the matrix by copying.
_RESERVED_ROWS = 1 << 17


class _TokenMatrix:
    """Every token vector of one dim derived so far: one row each, never evicted.

    `embed` holds the lock while it looks up, derives and sums rows, so a
    row is derived exactly once however many threads embed at a time.
    """

    def __init__(self, dim: int):
        self.lock = threading.Lock()
        self.rows: dict[bytes, int] = {}
        self.matrix = np.empty((_RESERVED_ROWS, dim))

    def derive(self, token: bytes) -> int:
        """Write `token`'s vector into the next free row and return the row."""
        row = len(self.rows)
        if row == len(self.matrix):
            grown = np.empty((2 * row, self.matrix.shape[1]))
            grown[:row] = self.matrix
            self.matrix = grown
        digest = blake2b(token, digest_size=8).digest()
        # Generator(PCG64(seed)) is what default_rng(seed) builds
        rng = np.random.Generator(np.random.PCG64(int.from_bytes(digest, "big")))
        rng.standard_normal(out=self.matrix[row])
        self.rows[token] = row
        return row


_matrices: dict[int, _TokenMatrix] = {}
_matrices_lock = threading.Lock()


def _token_matrix(dim: int) -> _TokenMatrix:
    with _matrices_lock:
        if dim not in _matrices:
            _matrices[dim] = _TokenMatrix(dim)
        return _matrices[dim]


class DeterministicEmbedder:
    """Hash-seeded random-projection embedder for tests and offline runs."""

    def __init__(self, dim: int = DEFAULT_DIM):
        if dim < 1:
            raise ParameterError("dim must be >= 1")
        self.dim = dim
        self.provider_id = f"deterministic-bow-d{dim}"
        self._table = _token_matrix(dim)

    def embed(self, texts: list[str]) -> np.ndarray:
        token_lists = [_tokens(text) for text in texts]
        tokens = list(chain.from_iterable(token_lists))
        table = self._table
        with table.lock:
            rows = table.rows
            try:
                ids = list(map(rows.__getitem__, tokens))
            except KeyError:  # derive each new token once, at its first occurrence
                ids = [rows[t] if t in rows else table.derive(t) for t in tokens]
            # both paths add a text's rows one after another in text order,
            # starting from zero: the sum a loop over its tokens makes (at dim
            # 1 numpy's reduce sums pairwise, but a unit scalar is ±1 either
            # way); one text keeps the gather, as building a CSR matrix costs
            # more than the whole sum of a short question
            if len(texts) == 1:
                sums = np.add.reduce(table.matrix.take(ids, axis=0), axis=0, keepdims=True)
            else:
                # one entry of 1.0 per token occurrence; summing duplicates
                # into counts would multiply rows instead of adding them
                indptr = np.zeros(len(texts) + 1, dtype=np.intp)
                np.cumsum([len(t) for t in token_lists], out=indptr[1:])
                occurrences = csr_array((np.ones(len(ids)), np.array(ids, dtype=np.intp), indptr),
                                        shape=(len(texts), len(rows)))
                sums = occurrences @ table.matrix[:len(rows)]
        for vec in sums:
            norm = math.sqrt(vec.dot(vec))  # np.linalg.norm's own formula
            if norm > 0:
                vec /= norm
        return sums


class HttpEmbeddingProvider:
    """Client for a remote embeddings endpoint.

    Request: POST {"model": ..., "input": [texts]} with an optional bearer
    key; response: {"data": [{"embedding": [...]}, ...]} in input order.
    """

    def __init__(self, endpoint: str, model: str, dim: int, api_key: str | None = None,
                 timeout: float = 30.0, session=None):
        self.endpoint = endpoint
        self.model = model
        self.dim = dim
        self.api_key = api_key
        self.timeout = timeout
        self._session = session if session is not None else new_session()
        self.provider_id = f"http:{model}"

    def embed(self, texts: list[str]) -> np.ndarray:
        resp = post_json(self._session, self.endpoint, {"model": self.model, "input": list(texts)},
                         self.api_key, self.timeout)
        try:
            rows = resp.json()["data"]
            matrix = np.array([row["embedding"] for row in rows], dtype=float)
        except Exception as exc:
            raise ExternalServiceError(f"malformed embedding response: {exc}") from exc
        if len(rows) != len(texts):
            raise ExternalServiceError(
                f"embedding count mismatch: sent {len(texts)}, got {len(rows)}"
            )
        if matrix.shape != (len(texts), self.dim):
            raise ExternalServiceError(f"expected dim {self.dim}, got embeddings of shape {matrix.shape}")
        if not np.isfinite(matrix).all():
            raise ExternalServiceError("embedding response holds null or non-finite values")
        return matrix
