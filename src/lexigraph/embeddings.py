"""Embedding providers: a deterministic offline embedder and an HTTP client.

The deterministic provider projects a text's bag of words through per-token
hash-seeded random vectors, so texts sharing vocabulary land near each other
and every embedding is a pure function of the text. Each distinct token's
vector is derived once and kept for the life of the embedder, never evicted,
as one row of its float64 matrix (2 KB a token at dim 256, so 76k distinct
tokens hold about 156 MB); a second pass over a corpus derives nothing,
however large its vocabulary.

A token's vector is `np.random.default_rng(seed).standard_normal(dim)`, its
seed the big-endian int of its 8-byte blake2b digest. The new tokens of one
`embed` call are derived together, in order of first occurrence: numpy's
SeedSequence hash, documented as stable, runs once over all their seeds as
uint32 array arithmetic (`_seed_words`), and each token's PCG64 takes its
words from there instead of building a SeedSequence, about half of what
a token's derivation cost. Each row is still, byte for byte, the
`default_rng(seed)` draw.

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


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """`SeedSequence(seed).generate_state(4, np.uint64)` of every uint64 seed,
    one row each: numpy's documented-stable hash as uint32 array arithmetic.

    numpy mixes the seed's 32-bit words, low first, into a pool of four and
    mixes 0 into a slot without a word; a seed below 2**32 has one word, and
    its missing high word is 0, so every seed is taken as two words."""
    u32 = np.uint32
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ u32(hash_const)
        hash_const = hash_const * _MULT_A & 0xFFFFFFFF
        value = value * u32(hash_const)
        return value ^ (value >> u32(16))

    def mix(x, y):
        result = x * u32(_MIX_MULT_L) - y * u32(_MIX_MULT_R)
        return result ^ (result >> u32(16))

    low, high = seeds.astype(u32), (seeds >> np.uint64(32)).astype(u32)
    zero = np.zeros_like(low)
    pool = [hashmix(word) for word in (low, high, zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    # eight uint32 words drawn from the pool in turn, paired low word first
    hash_const = _INIT_B
    words = []
    for i in range(8):
        value = pool[i % 4] ^ u32(hash_const)
        hash_const = hash_const * _MULT_B & 0xFFFFFFFF
        value = value * u32(hash_const)
        words.append((value ^ (value >> u32(16))).astype(np.uint64))
    return np.stack([words[j] | words[j + 1] << np.uint64(32) for j in range(0, 8, 2)], axis=1)


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """A seed sequence whose words are already computed, a contiguous row of
    `_seed_words`: PCG64 asks its seed sequence for
    `generate_state(4, np.uint64)` once and nothing else."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


# Bytes reserved for each embedder's matrix, 131,072 rows at dim 256.
# np.empty commits memory only as rows are written, so the reservation costs
# address space, not RSS; a vocabulary beyond it doubles the matrix by copying.
_RESERVED_BYTES = 1 << 28


def _check_dim(dim: int) -> None:
    if dim < 1:
        raise ParameterError(f"embedding dim must be >= 1, got {dim}")


class DeterministicEmbedder:
    """Hash-seeded random-projection embedder for tests and offline runs.

    Every token vector derived so far is one row of `_matrix`, never evicted.
    `embed` holds the lock while it looks up, derives and sums rows, so
    threads may share one embedder and a row is derived exactly once.
    """

    def __init__(self, dim: int = DEFAULT_DIM):
        _check_dim(dim)
        self.dim = dim
        self.provider_id = f"deterministic-bow-d{dim}"
        self._lock = threading.Lock()
        self._rows: dict[bytes, int] = {}
        self._matrix = np.empty((max(1, _RESERVED_BYTES // (8 * dim)), dim))

    def _derive(self, tokens: list[bytes]) -> None:
        """Write the vectors of `tokens`, distinct and none derived yet, into
        the next free rows in order."""
        first, end = len(self._rows), len(self._rows) + len(tokens)
        if end > len(self._matrix):
            size = len(self._matrix)
            while size < end:
                size *= 2
            grown = np.empty((size, self.dim))
            grown[:first] = self._matrix[:first]
            self._matrix = grown
        seeds = np.frombuffer(b"".join(blake2b(t, digest_size=8).digest() for t in tokens), dtype=">u8")
        for token, row, words in zip(tokens, range(first, end), _seed_words(seeds)):
            # what default_rng(seed) builds, its SeedSequence hash done above
            rng = np.random.Generator(np.random.PCG64(_SeedWords(words)))
            rng.standard_normal(out=self._matrix[row])
            self._rows[token] = row

    def embed(self, texts: list[str]) -> np.ndarray:
        token_lists = [_tokens(text) for text in texts]
        tokens = list(chain.from_iterable(token_lists))
        with self._lock:
            rows = self._rows
            try:
                ids = list(map(rows.__getitem__, tokens))
            except KeyError:  # derive the new tokens together, in order of first occurrence
                self._derive(list(dict.fromkeys(t for t in tokens if t not in rows)))
                ids = list(map(rows.__getitem__, tokens))
            # both paths add a text's rows one after another in text order,
            # starting from zero: the sum a loop over its tokens makes (at dim
            # 1 numpy's reduce sums pairwise, but a unit scalar is ±1 either
            # way); one text keeps the gather, as building a CSR matrix costs
            # more than the whole sum of a short question
            if len(texts) == 1:
                sums = np.add.reduce(self._matrix.take(ids, axis=0), axis=0, keepdims=True)
            else:
                # one entry of 1.0 per token occurrence; summing duplicates
                # into counts would multiply rows instead of adding them
                indptr = np.zeros(len(texts) + 1, dtype=np.intp)
                np.cumsum([len(t) for t in token_lists], out=indptr[1:])
                occurrences = csr_array((np.ones(len(ids)), np.array(ids, dtype=np.intp), indptr),
                                        shape=(len(texts), len(rows)))
                sums = occurrences @ self._matrix[:len(rows)]
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
        _check_dim(dim)
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
