"""Document chunking: sliding windows over words/chars and paragraph splits.

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

    @property
    def sort_key(self) -> tuple[str, int]:
        return (self.doc_id, self.index)

    def to_json_dict(self) -> dict:
        return {
            "doc_id": self.doc_id, "index": self.index, "unit": self.unit,
            "start": self.start, "end": self.end, "text": self.text,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Chunk":
        return cls(doc_id=d["doc_id"], index=d["index"], unit=d["unit"],
                   start=d["start"], end=d["end"], text=d["text"])


def _units_of(text: str, unit: str) -> list[str]:
    if unit == "words":
        return text.split()
    if unit == "chars":
        return list(text)
    if unit == "paragraphs":
        return [p.strip() for p in _PARAGRAPH_SPLIT.split(text) if p.strip()]
    raise ParameterError(f"unknown chunk unit {unit!r}")


def _join(units: list[str], unit: str) -> str:
    if unit == "words":
        return " ".join(units)
    if unit == "chars":
        return "".join(units)
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


def split_paragraphs(doc: Document) -> list[Chunk]:
    """One chunk per blank-line-separated paragraph; empty paragraphs dropped."""
    paragraphs = _units_of(doc.text, "paragraphs")
    return [
        Chunk(doc_id=doc.id, index=i, unit="paragraphs", start=i, end=i + 1, text=p)
        for i, p in enumerate(paragraphs)
    ]


def default_chunks(doc: Document, size: int = 300, overlap: int = 50) -> list[Chunk]:
    """Per-type default: paragraph splits for structured texts, overlapping
    word windows for case law and generic documents."""
    if doc.doc_type in ("constitution", "statute"):
        chunks = split_paragraphs(doc)
        if chunks:
            return chunks
        # whitespace-only structured text: nothing to split, window it instead
    return chunk_document(doc, "words", size, overlap)
