"""Retrieval and answer-quality measurement.

Retrieval quality (MRR, hit@k) is scored per corpus part across four
strategies: whole documents, word-window chunks, and their topic-routed
variants. A strategy holds its scores as one (distinct questions x texts)
matrix; a routed one ranks, for each query, the documents of its gold topic
out of that matrix, not those of the topic `ask` would route it to. Answer
records carry an attempt flag, a 0-3 accuracy grade, ROUGE-L, and slots for
externally computed scores.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .chunking import DEFAULT_OVERLAP, DEFAULT_SIZE, chunk_document
from .corpus import Document, read_records, tokenize
from .errors import DataError, ParameterError, data_errors, read_json
from .hierarchy import Hierarchy
from .vectorstore import check_index_set, embed_texts, unit_rows

STRATEGIES = ("whole_corpus", "chunked", "topic_routed", "topic_routed_chunked")

# shipped, editable refusal markers; a matching response counts as no attempt
REFUSAL_PATTERNS = (
    "i cannot",
    "i can't",
    "i don't have access",
    "i do not have access",
    "i don't have the ability",
    "unable to answer",
    "cannot provide an exact",
)


def mrr(ranks: list[int | None]) -> float:
    """Mean reciprocal rank; a missing gold document contributes 0."""
    if not ranks:
        raise ParameterError("ranks must be non-empty")
    total = 0.0
    for r in ranks:
        if r is not None:
            if r < 1:
                raise ParameterError(f"ranks are 1-based, got {r}")
            total += 1.0 / r
    return total / len(ranks)


def hit_at_k(ranks: list[int | None], k: int) -> float:
    """Percentage of cases whose gold document ranks within the top k."""
    if not ranks:
        raise ParameterError("ranks must be non-empty")
    if k < 1:
        raise ParameterError("k must be >= 1")
    if any(r is not None and r < 1 for r in ranks):
        raise ParameterError("ranks are 1-based")
    hits = sum(1 for r in ranks if r is not None and r <= k)
    return 100.0 * hits / len(ranks)


def _lcs_length(a: list[str], b: list[str]) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            if x == y:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def rouge_l(reference: str, candidate: str) -> float:
    """Token-level ROUGE-L F1 (beta = 1).

    Tokens come from the corpus tokenizer with stop words retained, so common
    words still count toward overlap. Returns 0 when either side is empty.
    """
    ref = tokenize(reference, remove_stopwords=False)
    cand = tokenize(candidate, remove_stopwords=False)
    if not ref or not cand:
        return 0.0
    lcs = _lcs_length(ref, cand)
    if lcs == 0:
        return 0.0
    recall = lcs / len(ref)
    precision = lcs / len(cand)
    return 2 * recall * precision / (recall + precision)


@dataclass
class EvalRecord:
    question: str
    reference: str
    response: str
    attempted: int = 1
    accuracy: int = 0
    rouge_l: float = 0.0
    external_scores: dict[str, float] = field(default_factory=dict)


def looks_like_refusal(response: str) -> bool:
    low = response.lower()
    return any(p in low for p in REFUSAL_PATTERNS)


def _check_scores(question: str, scores: dict[str, float]) -> None:
    """Refuse a score that JSON cannot hold: NaN or an infinity."""
    for metric, value in scores.items():
        if not math.isfinite(value):
            raise DataError(f"question {question!r}: score {metric!r} is {value}, not a finite number")


def grade(record: EvalRecord) -> EvalRecord:
    """Validate a human-graded record and apply the refusal rule.

    A response matching the refusal patterns forces attempted=0 and
    accuracy=0. Accuracy outside 0-3, a graded non-attempt or an external
    score that is not finite is rejected. ROUGE-L is (re)computed from
    reference and response.
    """
    _check_scores(record.question, record.external_scores)
    if record.accuracy not in (0, 1, 2, 3):
        raise DataError(f"accuracy must be 0..3, got {record.accuracy}")
    if record.attempted not in (0, 1):
        raise DataError(f"attempted must be 0 or 1, got {record.attempted}")
    attempted, accuracy = record.attempted, record.accuracy
    if looks_like_refusal(record.response):
        attempted, accuracy = 0, 0
    if attempted == 0 and accuracy != 0:
        raise DataError("attempted=0 requires accuracy=0")
    record.attempted = attempted
    record.accuracy = accuracy
    record.rouge_l = rouge_l(record.reference, record.response)
    return record


def attach_external_scores(records: list[EvalRecord], sidecar_path: str | Path) -> None:
    """Merge externally computed metric scores (keyed by question) into records.

    The sidecar is JSON: {question: {metric: value, ...}, ...}. Entailment-
    style metrics are never computed here, only ingested. It is read by
    `errors.from_json`: a sidecar of any other shape, or a score that is not
    a finite JSON number (a string, `true`, `NaN` or `1e999`), is a
    DataError naming it, and an integer score is stored as a float.
    """
    payload = read_json(sidecar_path, dict[str, dict[str, float]])
    with data_errors(sidecar_path):
        for question, scores in payload.items():
            _check_scores(question, scores)
    for rec in records:
        rec.external_scores.update(payload.get(rec.question, {}))


@dataclass(frozen=True)
class RetrievalCase:
    question: str
    gold_doc_id: str
    source_part: str
    gold_topic_id: str | None = None


@dataclass
class StrategyReport:
    strategy: str
    mrr_per_part: dict[str, float]
    hit_at_10_per_part: dict[str, float]
    ranks: dict[str, list[int | None]] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "mrr_per_part": self.mrr_per_part,
            "hit_at_10_per_part": self.hit_at_10_per_part,
        }


def load_cases(path: str | Path) -> list[RetrievalCase]:
    """Read JSONL retrieval cases {question, gold_doc_id, source_part, gold_topic_id?}.

    Each line is read into a `RetrievalCase` by `corpus.read_records`: a missing
    or unknown field, or a field that is not a string (`gold_topic_id` may be
    null), is a DataError naming the file and line, and so is a file that
    holds no case.
    """
    cases = read_records(path, RetrievalCase)
    if not cases:
        raise DataError(f"{path}: the file holds no retrieval case")
    return cases


def run_retrieval_eval(
    cases: list[RetrievalCase],
    docs: list[Document],
    hierarchy: Hierarchy | None,
    provider,
    strategy: str,
    chunk_size: int = DEFAULT_SIZE,
    chunk_overlap: int = DEFAULT_OVERLAP,
) -> StrategyReport:
    """Score one strategy over a case set: each case's gold document ranks by
    its best text's cosine, equal scores by doc_id as `search` breaks ties. A
    topic-routed strategy needs the hierarchy and ranks only the documents of
    the gold topic (`gold_topic_id`, else the leaf holding the gold document);
    a gold document not searched there ranks None."""
    if strategy not in STRATEGIES:
        raise ParameterError(f"unknown strategy {strategy!r}")
    routed = strategy.startswith("topic_routed")
    chunked = strategy.endswith("chunked")
    if routed and hierarchy is None:
        raise ParameterError(f"strategy {strategy!r} requires a hierarchy")
    if not cases:
        raise ParameterError("cases must be non-empty")
    if not docs:
        raise ParameterError("docs must be non-empty")

    groups = hierarchy.leaf_docs(docs) if routed else {None: docs}
    # the texts searched for each document: its word windows, or the whole document
    pieces = {d.id: chunk_document(d, chunk_size, chunk_overlap) if chunked else [d]
              for group in groups.values() for d in group}
    check_index_set({t: [p for d in group for p in pieces[d.id]] for t, group in groups.items()})
    column = {doc_id: i for i, doc_id in enumerate(sorted(d for d, p in pieces.items() if p))}
    text_rows = unit_rows(embed_texts(provider, [p.text for ps in pieces.values() for p in ps]))
    questions, row = np.unique([c.question for c in cases], return_inverse=True)
    # one (distinct questions x texts) product; best[r, i]: the best score of
    # question r over the texts of the document in column i
    best = np.full((len(questions), len(column)), -np.inf)
    np.maximum.at(best, (slice(None), [column[d] for d, ps in pieces.items() for _ in ps]),
                  unit_rows(embed_texts(provider, questions.tolist())) @ text_rows.T)

    leaf_of = hierarchy.leaf_of_doc() if routed else {}
    topic = {topic_id: t for t, topic_id in enumerate(groups)}
    home = np.array([topic[leaf_of.get(doc_id)] for doc_id in column])  # each column's topic
    gold = np.array([column.get(c.gold_doc_id, -1) for c in cases])
    case_topic = np.array([topic.get((c.gold_topic_id or leaf_of.get(c.gold_doc_id)) if routed else None, -1)
                           for c in cases])
    # only the documents of the case's topic count, and a gold document not among
    # them ranks None; ahead of it: a higher best, or an equal best and a smaller doc_id
    case_best = np.where(home == case_topic[:, None], best[row], -np.inf)
    gold_best = np.where(gold >= 0, case_best[np.arange(len(cases)), gold], -np.inf)[:, None]
    ahead = (case_best > gold_best) | ((case_best == gold_best) & (np.arange(len(column)) < gold[:, None]))
    ranks = np.where(np.isfinite(gold_best[:, 0]), 1 + np.count_nonzero(ahead, axis=1), 0)

    ranks_per_part: dict[str, list[int | None]] = {}
    for case, rank in zip(cases, ranks.tolist()):
        ranks_per_part.setdefault(case.source_part, []).append(rank or None)

    return StrategyReport(
        strategy=strategy,
        mrr_per_part={p: mrr(r) for p, r in sorted(ranks_per_part.items())},
        hit_at_10_per_part={p: hit_at_k(r, 10) for p, r in sorted(ranks_per_part.items())},
        ranks=ranks_per_part,
    )


def report_to_json(reports: list[StrategyReport], metadata: dict | None = None) -> str:
    payload = {
        "metadata": metadata or {},
        "strategies": [r.to_json_dict() for r in reports],
    }
    return json.dumps(payload, sort_keys=True, indent=2)


def report_to_csv(reports: list[StrategyReport]) -> str:
    """One row per strategy and part; a part name holding a comma or a quote is quoted."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["strategy", "part", "mrr", "hit_at_10"])
    for r in reports:
        for part in sorted(r.mrr_per_part):
            writer.writerow([r.strategy, part, f"{r.mrr_per_part[part]:.6f}",
                             f"{r.hit_at_10_per_part[part]:.2f}"])
    return out.getvalue()
