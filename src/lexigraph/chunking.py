"""Document chunking: sliding windows over words or paragraphs.

Structured texts (constitutions, statutes) default to paragraph splitting;
long unstructured case law uses overlapping word windows so retrieval can hit
a passage without embedding the whole opinion.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .corpus import Document
from .errors import ParameterError

_PARAGRAPH_SPLIT = re.compile(r"\n\s*\n")


@dataclass(frozen=True)
class Chunk:
    doc_id: str
    index: int
    unit: str
    start: int
    end: int
    text: str

    @property
    def chunk_id(self) -> str:
        return f"{self.doc_id}#{self.index:05d}"


def _units_of(text: str, unit: str) -> list[str]:
    if unit == "words":
        return text.split()
    if unit == "paragraphs":
        return [p.strip() for p in _PARAGRAPH_SPLIT.split(text) if p.strip()]
    raise ParameterError(f"unknown chunk unit {unit!r}")


def _join(units: list[str], unit: str) -> str:
    if unit == "words":
        return " ".join(units)
    return "\n\n".join(units)


def chunk_document(doc: Document, unit: str, size: int, overlap: int) -> list[Chunk]:
    """Sliding-window chunks with stride (size - overlap).

    Consecutive chunks share exactly `overlap` units; the final chunk may be
    shorter. Dropping each later chunk's first `overlap` units and
    concatenating reconstructs the unit sequence exactly. A document shorter
    than `size` yields a single chunk; an empty one yields none.
    """
    if size < 1:
        raise ParameterError("size must be >= 1")
    if not (0 <= overlap < size):
        raise ParameterError(f"overlap must satisfy 0 <= overlap < size, got {overlap} (size {size})")
    units = _units_of(doc.text, unit)
    if not units:
        return []
    stride = size - overlap
    chunks: list[Chunk] = []
    start = 0
    while True:
        end = min(start + size, len(units))
        chunks.append(Chunk(
            doc_id=doc.id, index=len(chunks), unit=unit,
            start=start, end=end, text=_join(units[start:end], unit),
        ))
        if end >= len(units):
            break
        start += stride
    return chunks


def default_chunks(doc: Document, size: int = 300, overlap: int = 50) -> list[Chunk]:
    """Per-type default: paragraph splits for structured texts, overlapping
    word windows for case law and generic documents."""
    if doc.doc_type in ("constitution", "statute"):
        chunks = chunk_document(doc, "paragraphs", 1, 0)
        if chunks:
            return chunks
        # whitespace-only structured text: nothing to split, window it instead
    return chunk_document(doc, "words", size, overlap)
