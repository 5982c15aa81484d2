"""Embedding providers: a deterministic offline embedder and an HTTP client.

The deterministic provider projects a text's bag of words through per-token
hash-seeded random vectors, so texts sharing vocabulary land near each other
and every embedding is a pure function of the text. Each distinct token's
vector is derived once and kept for the life of the process, never evicted:
one `dim`-float64 vector per token (2 KB at dim 256), so a second pass over a
corpus derives nothing, however large its vocabulary. The HTTP provider
speaks the common JSON embeddings schema (POST model + input array, response
with one vector per input).
"""

from __future__ import annotations

import re
from functools import cache
from hashlib import blake2b
from typing import Protocol

import numpy as np

from .errors import ExternalServiceError, ParameterError

_WORD_RE = re.compile(r"[a-z0-9']+")


class EmbeddingProvider(Protocol):
    provider_id: str
    dim: int

    def embed(self, texts: list[str]) -> np.ndarray:
        """One row per text: a (len(texts), dim) float64 array."""


@cache
def _token_vector(token: str, dim: int) -> np.ndarray:
    digest = blake2b(token.encode("utf-8"), digest_size=8).digest()
    rng = np.random.default_rng(int.from_bytes(digest, "big"))
    v = rng.standard_normal(dim)
    v.setflags(write=False)
    return v


class DeterministicEmbedder:
    """Hash-seeded random-projection embedder for tests and offline runs."""

    def __init__(self, dim: int = 256):
        if dim < 1:
            raise ParameterError("dim must be >= 1")
        self.dim = dim
        self.provider_id = f"deterministic-bow-d{dim}"

    def embed(self, texts: list[str]) -> np.ndarray:
        out = np.zeros((len(texts), self.dim))
        for i, text in enumerate(texts):
            vec = np.zeros(self.dim)
            for token in _WORD_RE.findall(text.lower()):
                vec += _token_vector(token, self.dim)
            norm = np.linalg.norm(vec)
            out[i] = vec / norm if norm > 0 else vec
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
        if session is None:
            import requests

            session = requests.Session()
        self._session = session
        self.provider_id = f"http:{model}"

    def embed(self, texts: list[str]) -> np.ndarray:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        try:
            resp = self._session.post(
                self.endpoint,
                json={"model": self.model, "input": list(texts)},
                headers=headers,
                timeout=self.timeout,
            )
        except Exception as exc:
            raise ExternalServiceError(f"embedding request failed: {exc}") from exc
        if getattr(resp, "status_code", 200) >= 400:
            raise ExternalServiceError(f"embedding endpoint returned {resp.status_code}")
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
