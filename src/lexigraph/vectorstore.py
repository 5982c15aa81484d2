"""Exact cosine-similarity vector indexes, whole-corpus or per-topic.

Search is brute force on purpose: desk-scale corpora make exactness
affordable, and every ranking can be checked against an independent
re-implementation. An index set maps each index's topic id to it, `None`
for the one whole-corpus index. `write_indexes` builds one from chunks and
replaces one `.lxvi` file with it, whole or not at all; `load_indexes` reads
it back. A query goes to the index of the set whose centroid is most
cosine-similar to it (`route_and_search`); there is no other routing rule.
An index is one chunk table and one (n, dim) float64 matrix, and a `.lxvi`
file (version 3) stores one record of exactly that per index, in set order:

    b"LXVI" | u16 version | u32 header length    (little-endian)
    header      JSON of a `_Header` {"chunk_bytes", "count", "dim", "provider_id", "records", "topic_id"}
    chunks      `chunk_bytes` of UTF-8 JSON: an array of `count` chunk records
    matrix      `count * dim` little-endian float64 values, row-major

`records` is the number of records in the file, which ends with the last
one's matrix; `_read_records` checks every part and length.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .chunking import Chunk
from .embeddings import EmbeddingProvider
from .errors import DataError, ParameterError, data_errors, from_json, write_file

_MAGIC = b"LXVI"
_VERSION = 3
_PREFIX = struct.Struct("<HI")

BATCH_SIZE = 128
DEFAULT_TOP_K = 5


@dataclass(frozen=True)
class _Header:
    chunk_bytes: int
    count: int
    dim: int
    provider_id: str
    records: int
    topic_id: str | None


class VectorIndex:
    """Chunks and their embeddings: row i of `matrix` embeds `chunks[i]`.

    The unit rows, the unit centroid (zero for a zero centroid) and each
    row's position in (doc_id, index) order are derived once here, so an
    index is not changed after it is built.
    """

    def __init__(self, provider_id: str, dim: int, chunks: list[Chunk], matrix: np.ndarray,
                 topic_id: str | None = None):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[1] != dim:
            raise ParameterError(f"matrix of shape {matrix.shape} does not have width {dim}")
        if matrix.shape[0] != len(chunks):
            raise ParameterError(f"{len(chunks)} chunks for {matrix.shape[0]} rows")
        seen: set[str] = set()
        for chunk in chunks:
            chunk_id = chunk.chunk_id
            if chunk_id in seen:
                raise DataError(f"duplicate chunk id {chunk_id}")
            seen.add(chunk_id)
        self.provider_id = provider_id
        self.dim = dim
        self.topic_id = topic_id
        self.chunks = list(chunks)
        self.matrix = matrix
        self.unit_rows = unit_rows(matrix)
        centroid = np.mean(matrix, axis=0) if len(chunks) else np.zeros(dim)
        cn = np.linalg.norm(centroid)
        self.unit_centroid = centroid / cn if cn > 0 else np.zeros(dim)
        keys = [(c.doc_id, c.index) for c in chunks]
        order = sorted(range(len(chunks)), key=keys.__getitem__)
        self.tie_rank = np.empty(len(chunks), dtype=np.intp)
        self.tie_rank[order] = np.arange(len(chunks))

    def __len__(self) -> int:
        return len(self.chunks)

    @property
    def entries(self) -> tuple[tuple[Chunk, np.ndarray], ...]:
        """(chunk, vector) pairs in row order."""
        return tuple(zip(self.chunks, self.matrix))

    def record(self, records: int = 1) -> bytes:
        """This index as one record of a `.lxvi` file of `records` records."""
        chunks = json.dumps([vars(c) for c in self.chunks],
                            sort_keys=True, ensure_ascii=True).encode("utf-8")
        header = json.dumps(asdict(_Header(len(chunks), len(self.chunks), self.dim,
                                           self.provider_id, records, self.topic_id)),
                            sort_keys=True).encode("utf-8")
        return b"".join((_MAGIC, _PREFIX.pack(_VERSION, len(header)), header, chunks,
                         np.ascontiguousarray(self.matrix, dtype="<f8").data))

    def save(self, path: str | Path) -> None:
        write_file(path, self.record())

    @classmethod
    def load(cls, path: str | Path) -> "VectorIndex":
        """The index of a `.lxvi` file that holds one (`_read_records`)."""
        indexes = _read_records(path)
        if len(indexes) != 1:
            raise DataError(f"{path}: a set of {len(indexes)} indexes, not one index")
        return indexes[0]


def _read_records(path: str | Path) -> list[VectorIndex]:
    """The indexes of the version-3 `.lxvi` file at `path` in record order,
    read by `errors.from_json`; any fault in it is a `DataError` naming it."""
    with data_errors(path):
        data = Path(path).read_bytes()
        indexes: list[VectorIndex] = []
        at, records = 0, 1
        while len(indexes) < records:
            if data[at:at + 4] != _MAGIC:
                raise ValueError("not a vector index file")
            version, header_len = _PREFIX.unpack_from(data, at + 4)
            if version != _VERSION:
                raise ValueError(f"unsupported index version {version}; rebuild with lexigraph index")
            at += 4 + _PREFIX.size + header_len
            header = from_json(_Header, json.loads(data[at - header_len:at].decode("utf-8")))
            if header.records < 1 or (indexes and header.records != records):
                raise ValueError(f"record {len(indexes)} gives {header.records} records in the file")
            records, count, dim, chunk_bytes = header.records, header.count, header.dim, header.chunk_bytes
            if count < 1:
                raise ValueError(f"an index holds at least one chunk, the header gives {count}")
            end = at + chunk_bytes + 8 * count * dim
            last = len(indexes) + 1 == records  # it ends the file, and any other leaves bytes after it
            if dim < 1 or chunk_bytes < 0 or len(data) < end or (len(data) == end) != last:
                raise ValueError(f"{len(data)} bytes do not match the header {header}")
            chunks = json.loads(data[at:at + chunk_bytes].decode("utf-8"))
            if not isinstance(chunks, list) or len(chunks) != count:
                raise ValueError(f"chunk block does not hold {count} records")
            matrix = np.frombuffer(data, dtype="<f8", count=count * dim, offset=at + chunk_bytes)
            indexes.append(VectorIndex(provider_id=header.provider_id, dim=dim,
                                       chunks=[from_json(Chunk, r) for r in chunks],
                                       matrix=matrix.reshape(count, dim).copy(), topic_id=header.topic_id))
            at = end
        return indexes


def load_indexes(path: str | Path, provider: EmbeddingProvider) -> dict[str | None, VectorIndex]:
    """The index set of the `.lxvi` file at `path`, keyed by each record's
    topic id. An index that `provider` did not build (another provider id or
    dim), a second index of one topic, or a whole-corpus index beside any
    other index is a `DataError` naming the file."""
    indexes: dict[str | None, VectorIndex] = {}
    for index in _read_records(path):
        if (index.provider_id, index.dim) != (provider.provider_id, provider.dim):
            raise DataError(f"{path}: built by {index.provider_id!r} at dim {index.dim}, not by the "
                            f"configured {provider.provider_id!r} at dim {provider.dim}")
        if indexes and (None in indexes or index.topic_id is None):
            raise DataError(f"{path}: a whole-corpus index must be the only index of its set")
        if index.topic_id in indexes:
            raise DataError(f"{path}: a second index of topic {index.topic_id!r}")
        indexes[index.topic_id] = index
    return indexes


def embed_texts(provider: EmbeddingProvider, texts: list[str]) -> np.ndarray:
    """The (len(texts), dim) embeddings of non-empty `texts`, sent to
    `provider` in batches of `BATCH_SIZE`.

    Batching here bounds memory for every provider: a call holds the token
    lists (or the request body) of one batch only. One call over the whole
    documents of the retrieval evaluation held them all at once: perfbench
    `ask`'s peak RSS rose by about 12 MB, for roughly 172k words."""
    return np.vstack([provider.embed(texts[lo:lo + BATCH_SIZE])
                      for lo in range(0, len(texts), BATCH_SIZE)])


def build_index(chunks: list[Chunk], provider: EmbeddingProvider,
                topic_id: str | None = None) -> VectorIndex:
    """The index of `chunks`, row i embedding `chunks[i]` (`embed_texts`)."""
    if not chunks:
        raise ParameterError("chunks must be non-empty")
    return VectorIndex(provider_id=provider.provider_id, dim=provider.dim, chunks=chunks,
                       matrix=embed_texts(provider, [c.text for c in chunks]), topic_id=topic_id)


def check_index_set(groups: dict[str | None, list]) -> None:
    """Refuse the groups of an index set (topic id -> what its index would
    hold, `None` for the whole corpus) that cannot be built: no group at all,
    as from leaves that hold no corpus document, or an empty group, whose
    documents are all blank. The `DataError` names the topic or the corpus."""
    if not groups:
        raise DataError("no topic holds a document of the corpus; there is nothing to index")
    for topic_id, items in groups.items():
        if not items:
            where = "the corpus" if topic_id is None else f"topic {topic_id!r}"
            raise DataError(f"{where} holds no words to index")


def write_indexes(chunk_groups: dict[str | None, list[Chunk]], provider: EmbeddingProvider,
                  path: str | Path) -> dict[str | None, VectorIndex]:
    """Build the index set of `chunk_groups` (topic id -> its chunks, `None`
    for the whole corpus), one `build_index` each, and replace the file at
    `path` with it, one `record` each. A set that `check_index_set` refuses, a
    failed build or a failed write leaves the earlier file as it was;
    `load_indexes` reads the set back."""
    check_index_set(chunk_groups)
    indexes = {t: build_index(chunks, provider, topic_id=t) for t, chunks in chunk_groups.items()}
    write_file(path, b"".join(index.record(len(indexes)) for index in indexes.values()))
    return indexes


def unit_rows(matrix: np.ndarray) -> np.ndarray:
    """Each row of `matrix` scaled to length 1; a zero row stays zero."""
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    return np.where(norms > 0, matrix / np.where(norms == 0, 1, norms), 0.0)


def unit_vector(v: np.ndarray) -> np.ndarray:
    """`v` scaled to length 1; a zero vector stays zero."""
    n = np.linalg.norm(v)
    return v / n if n > 0 else v


def check_top_k(top_k: int) -> None:
    """Refuse a hit count below 1."""
    if top_k < 1:
        raise ParameterError(f"top_k must be >= 1, got {top_k}")


def search(index: VectorIndex, query: np.ndarray, top_k: int) -> list[tuple[Chunk, float]]:
    """Exact cosine ranking of the whole index; ties break by (doc_id, index).

    Returns min(top_k, len(index)) results with scores in [-1, 1].
    """
    check_top_k(top_k)
    q = np.asarray(query, dtype=float)
    if q.shape != (index.dim,):
        raise ParameterError(f"query dim {q.shape} != index dim {index.dim}")
    scores = index.unit_rows @ unit_vector(q)
    order = np.lexsort((index.tie_rank, -scores))[:top_k]
    return [(index.chunks[i], float(scores[i])) for i in order]


def route_and_search(indexes: dict[str | None, VectorIndex], query_vec: np.ndarray,
                     top_k: int = DEFAULT_TOP_K) -> tuple[str | None, list[tuple[Chunk, float]]]:
    """(topic id, hits) of the index of the set whose centroid is most
    cosine-similar to `query_vec`; a zero centroid scores 0 and ties go to
    the smallest topic id. A set of one index always picks that index.
    """
    if not indexes:
        raise ParameterError("indexes must be non-empty")
    unit_q = unit_vector(query_vec)
    chosen = max(sorted(indexes), key=lambda tid: float(indexes[tid].unit_centroid @ unit_q))
    return chosen, search(indexes[chosen], query_vec, top_k)
