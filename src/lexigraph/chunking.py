"""Document chunking: paragraphs or sliding windows over words.

Structured texts (constitutions, statutes) are split into one chunk per
paragraph; long unstructured case law uses overlapping word windows so
retrieval can hit a passage without embedding the whole opinion.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .corpus import Document
from .errors import ParameterError

_PARAGRAPH_SPLIT = re.compile(r"\n\s*\n")
DEFAULT_SIZE = 300
DEFAULT_OVERLAP = 50


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


def check_window(size: int, overlap: int) -> None:
    """Refuse a word window that `chunk_document` cannot cut."""
    if size < 1:
        raise ParameterError(f"chunk size must be >= 1, got {size}")
    if not (0 <= overlap < size):
        raise ParameterError(f"chunk overlap must satisfy 0 <= overlap < size, got {overlap} (size {size})")


def chunk_document(doc: Document, size: int, overlap: int) -> list[Chunk]:
    """Sliding windows of `size` words with stride (size - overlap).

    Consecutive chunks share exactly `overlap` words; the final chunk may be
    shorter. Dropping each later chunk's first `overlap` words and
    concatenating reconstructs the word sequence exactly. A document shorter
    than `size` yields a single chunk; an empty one yields none.
    """
    check_window(size, overlap)
    words = doc.text.split()
    if not words:
        return []
    stride = size - overlap
    chunks: list[Chunk] = []
    start = 0
    while True:
        end = min(start + size, len(words))
        chunks.append(Chunk(
            doc_id=doc.id, index=len(chunks), unit="words",
            start=start, end=end, text=" ".join(words[start:end]),
        ))
        if end >= len(words):
            break
        start += stride
    return chunks


def default_chunks(doc: Document, size: int = DEFAULT_SIZE, overlap: int = DEFAULT_OVERLAP) -> list[Chunk]:
    """Per-type default: one chunk per paragraph for structured texts,
    overlapping word windows for case law and generic documents."""
    if doc.doc_type in ("constitution", "statute"):
        paragraphs = [p.strip() for p in _PARAGRAPH_SPLIT.split(doc.text) if p.strip()]
        return [Chunk(doc_id=doc.id, index=i, unit="paragraphs", start=i, end=i + 1, text=paragraph)
                for i, paragraph in enumerate(paragraphs)]
    return chunk_document(doc, size, overlap)
