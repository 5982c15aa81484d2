"""Extraction and normalization of New Mexico legal citations.

The extractor is one loop over a table of regex rules, each a pattern, the
citation kind it yields and the keys of one match. A Citation holds what the
text says; the document it resolves to is recorded only as the graph's CITES
edge.

Key formats: statutes "NMSA 41-5-1", cases "SMITH V. SOUTH (1955)" or a bare
neutral citation "1994-NMSC-125", constitution clauses "NM CONST ART IV § 22",
court rules "RULE 11-702".
"""

from __future__ import annotations

import re
from dataclasses import dataclass

# chapter-article-section numbers like 41-5-1 or 32A-4-28.1
_SEC = r"\d{1,3}[A-Za-z]?-\d{1,3}[A-Za-z]?-\d{1,4}(?:\.\d+)?"
_SEC_RE = re.compile(_SEC)

# statute anchors; the trailing tail picks up ", 41-5-13 and 41-5-15" lists
_SEC_TAIL = rf"(?:\s*(?:,|;|and|or|to|through)\s*(?:§§?\s*)?{_SEC})*"
_NMSA_PATTERNS = [
    re.compile(rf"NMSA(?:\s+1978)?\s*,?\s*(?:§§?\s*)?({_SEC}{_SEC_TAIL})"),
    re.compile(rf"Sections?\s+({_SEC}{_SEC_TAIL})\s+NMSA", re.IGNORECASE),
    re.compile(rf"§§?\s*({_SEC}{_SEC_TAIL})"),
]
# "Chapter 50, Article 17, Section 3" is statute structure, not a constitution clause
_CHAPTER_RE = re.compile(
    r"Chapter\s+(\d{1,3}[A-Za-z]?),?\s+Article\s+(\d{1,3}[A-Za-z]?),?\s+Section\s+(\d{1,4}(?:\.\d+)?)",
    re.IGNORECASE,
)

# "Smith v. South, 1955" / "CERVANTES v. FORBIS (1964)" / "Gomez v. Chua, 1994-NMSC-125"
_NAME = r"[A-Z][\w'&.-]*(?:[,.]?\s+(?:[A-Z][\w'&.-]*|of|the|ex|rel\.?|de|la|Inc\.?|Co\.?|Corp\.?|Ltd\.?|LLC))*"
_CASE_RE = re.compile(
    rf"({_NAME})\s+v\.?\s+({_NAME})\s*[,(]\s*(\d{{4}})(?:-NM(?:SC|CA)-\d+)?\)?",
)
_NEUTRAL_RE = re.compile(r"\b(\d{4})-(NMSC|NMCA)-(\d{1,4})\b")

_CONST_PATTERNS = [
    re.compile(
        r"N\.?\s?M\.?\s+Const\.?,?\s+art(?:icle|\.)?\s+([IVXLCDM]+|\d+)\s*,?\s*§\s*(\d+[A-Za-z]?)",
        re.IGNORECASE,
    ),
    re.compile(
        r"Article\s+([IVXLCDM]+|\d+)(?:\s*[-–—]+\s*[\w' ]{0,60}?)?\s*[-–—,]*\s*"
        r"(?:§|Section)\s*(\d+[A-Za-z]?)",
    ),
]

_RULE_RE = re.compile(r"Rule\s+(\d{1,2}-\d{1,4}(?:\([A-Za-z0-9]+\))?)(?:\s+NMRA)?", re.IGNORECASE)

# sentence-leading words that the case-name regex must not absorb
_NAME_STOPWORDS = frozenset(
    "in the see at on from under of as and but or to a an by for with that "
    "this however also was is were citing cf compare accord".split()
)

_ROMAN = {"I": 1, "V": 5, "X": 10, "L": 50, "C": 100, "D": 500, "M": 1000}


@dataclass
class Citation:
    raw: str
    kind: str
    key: str

    def __post_init__(self):
        if not self.key:
            raise ValueError("citation key must be non-empty")


def _to_roman_upper(article: str) -> str:
    article = article.upper()
    if all(ch in _ROMAN for ch in article):
        return article
    try:
        n = int(article)
    except ValueError:
        return article
    out = []
    for value, sym in ((1000, "M"), (900, "CM"), (500, "D"), (400, "CD"), (100, "C"),
                       (90, "XC"), (50, "L"), (40, "XL"), (10, "X"), (9, "IX"),
                       (5, "V"), (4, "IV"), (1, "I")):
        while n >= value:
            out.append(sym)
            n -= value
    return "".join(out)


def normalize_case_name(left: str, right: str, year: str) -> str:
    left = re.sub(r"\s+", " ", left).strip().strip(",")
    words = left.split()
    while words and words[0].lower().strip(".,") in _NAME_STOPWORDS:
        words.pop(0)
    left = " ".join(words) or left
    right = re.sub(r"\s+", " ", right).strip().strip(",")
    return f"{left.upper()} V. {right.upper()} ({year})"


def statute_key(section: str) -> str:
    return f"NMSA {section.upper()}"


def constitution_key(article: str, section: str) -> str:
    return f"NM CONST ART {_to_roman_upper(article)} § {section.upper()}"


# (pattern, kind, keys of a match), in claim order: a span one rule claims
# is closed to every later rule. Chapter-article-section is statute
# structure, so it is claimed before the constitution patterns can read its
# "Article ..., Section ..." tail.
_RULES = [
    (_CHAPTER_RE, "nmsa_statute", lambda m: [statute_key(f"{m[1]}-{m[2]}-{m[3]}")]),
    *[(pat, "constitution_clause", lambda m: [constitution_key(m[1], m[2])])
      for pat in _CONST_PATTERNS],
    (_CASE_RE, "nm_case", lambda m: [normalize_case_name(m[1], m[2], m[3])]),
    (_NEUTRAL_RE, "nm_case", lambda m: [f"{m[1]}-{m[2]}-{m[3]}"]),
    (_RULE_RE, "rule", lambda m: [f"RULE {m[1].upper()}"]),
    *[(pat, "nmsa_statute", lambda m: [statute_key(sec) for sec in _SEC_RE.findall(m[1])])
      for pat in _NMSA_PATTERNS],
]


def extract_citations_regex(text: str) -> list[Citation]:
    """Find all statute, case, constitution, and rule citations in `text`.

    Matches are deduplicated by normalized key in order of first occurrence.
    """
    found: list[tuple[int, Citation]] = []
    claimed: list[tuple[int, int]] = []  # spans already consumed by a match

    def claim(start: int, end: int) -> bool:
        for s, e in claimed:
            if start < e and end > s:
                return False
        claimed.append((start, end))
        return True

    for pat, kind, keys in _RULES:
        for m in pat.finditer(text):
            if claim(m.start(), m.end()):
                found.extend((m.start(), Citation(raw=m[0], kind=kind, key=key)) for key in keys(m))

    found.sort(key=lambda pair: pair[0])
    seen: set[str] = set()
    out: list[Citation] = []
    for _, cit in found:
        if cit.key not in seen:
            seen.add(cit.key)
            out.append(cit)
    return out
