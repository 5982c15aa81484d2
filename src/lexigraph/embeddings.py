"""Embedding providers: a deterministic offline embedder and an HTTP client.

The deterministic provider projects a text's bag of words through per-token
hash-seeded random vectors, so texts sharing vocabulary land near each other
and every embedding is a pure function of the text. Each distinct token's
vector is derived once and kept for the life of the process, never evicted,
as one row of a float64 matrix per `dim` (2 KB a token at dim 256, so 76k
distinct tokens hold about 156 MB); a second pass over a corpus derives
nothing, however large its vocabulary, and a text's vector is one sum over
its tokens' rows. The HTTP provider speaks the common JSON embeddings schema
(POST model + input array, response with one vector per input) through
`remote.post_json`, which retries a failed request.
"""

from __future__ import annotations

import math
import re
import threading
from hashlib import blake2b
from typing import Protocol

import numpy as np

from .errors import ExternalServiceError, ParameterError
from .remote import new_session, post_json

_WORD_RE = re.compile(r"[a-z0-9']+")


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

    `embed` holds the lock while it looks up, derives and gathers rows, so a
    row is derived exactly once however many threads embed at a time.
    """

    def __init__(self, dim: int):
        self.lock = threading.Lock()
        self.rows: dict[str, int] = {}
        self.matrix = np.empty((_RESERVED_ROWS, dim))

    def derive(self, token: str) -> int:
        """Write `token`'s vector into the next free row and return the row."""
        row = len(self.rows)
        if row == len(self.matrix):
            grown = np.empty((2 * row, self.matrix.shape[1]))
            grown[:row] = self.matrix
            self.matrix = grown
        digest = blake2b(token.encode("utf-8"), digest_size=8).digest()
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

    def __init__(self, dim: int = 256):
        if dim < 1:
            raise ParameterError("dim must be >= 1")
        self.dim = dim
        self.provider_id = f"deterministic-bow-d{dim}"
        self._table = _token_matrix(dim)

    def embed(self, texts: list[str]) -> np.ndarray:
        token_lists = [_WORD_RE.findall(text.lower()) for text in texts]
        out = np.zeros((len(texts), self.dim))
        table = self._table
        with table.lock:
            rows, derive = table.rows, table.derive
            for i, tokens in enumerate(token_lists):
                if not tokens:
                    continue
                ids = [rows[t] if t in rows else derive(t) for t in tokens]
                # adds the rows one after another in text order, so the sum
                # is the one a loop over the tokens makes (at dim 1 numpy
                # sums pairwise, but a unit scalar is ±1 either way)
                vec = np.add.reduce(table.matrix.take(ids, axis=0), axis=0)
                norm = math.sqrt(vec.dot(vec))  # np.linalg.norm's own formula
                if norm > 0:
                    out[i] = vec / norm
        return out


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
