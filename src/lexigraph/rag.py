"""Grounded question answering over the knowledge graph and vector indexes.

Countable questions are answered straight from graph queries with a
templated sentence: the language model never computes a number. Semantic
questions embed the question once and search the index of the index set
whose centroid is most cosine-similar to the question (the one index of a
whole-corpus set); they attach any keyword-topic facts from the graph and
send everything to a chat client that is instructed to cite only the
provided sources. Retrieval below the similarity floor produces an explicit
refusal instead of an answer.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field

from .chat import ChatClient
from .corpus import tokenize
from .errors import ExternalServiceError, ParameterError
from .graph import Graph, common_citations, count_mentions, keyword_node_id
from .vectorstore import DEFAULT_TOP_K, VectorIndex, route_and_search

DEFAULT_SCORE_THRESHOLD = 0.15
DEFAULT_SESSION_WINDOW = 5
DEFAULT_CITATIONS_TOP_N = 10

REFUSAL_TEXT = (
    "I cannot answer this question from the indexed sources; "
    "no sufficiently relevant passages were found."
)

QA_SYSTEM_PROMPT = (
    "You answer legal research questions strictly from the numbered sources "
    "provided. Cite the source id in square brackets for every claim. If the "
    "sources do not contain the answer, say you cannot answer. Never invent "
    "citations or counts."
)

KIND_LABELS = {
    "supreme_case": "Supreme Court cases",
    "appeals_case": "Court of Appeals cases",
    "statute_doc": "statutes",
    "constitution_doc": "constitutional provisions",
    "generic_doc": "documents",
}

_QUOTED = re.compile(r"(?<!\w)['\"‘“](.+?)['\"’”](?!\w)")
_QUANT = re.compile(r"\bhow many\b|\bnumber of\b|\bcount of\b", re.IGNORECASE)
_CITATION_Q = re.compile(r"\bcommon citations?\b|\bmost cited\b", re.IGNORECASE)

_KIND_CUES = [
    ("supreme_case", re.compile(r"supreme court", re.IGNORECASE)),
    ("appeals_case", re.compile(r"court of appeals|appeals court|appellate", re.IGNORECASE)),
    ("statute_doc", re.compile(r"statute", re.IGNORECASE)),
    ("constitution_doc", re.compile(r"constitution", re.IGNORECASE)),
]


@dataclass
class QueryPlan:
    mode: str  # quantitative | citation_pattern | semantic
    phrase: str | None  # the quoted phrase graph questions count or tally
    kind: str  # the document kind graph questions are about


@dataclass
class GroundedAnswer:
    text: str
    sources: list[tuple[str, str]] = field(default_factory=list)
    routed_topic: str | None = None
    kg_facts: list[tuple[str, object]] = field(default_factory=list)
    refused: bool = False
    # the score of every hit retrieval returned, best first, kept or not by
    # the threshold; empty for an answer from the graph
    scores: list[float] = field(default_factory=list)


@dataclass
class Session:
    id: str
    window: int = DEFAULT_SESSION_WINDOW
    turns: deque = field(default_factory=deque)

    def __post_init__(self):
        self.turns = deque(self.turns, maxlen=self.window)

    def record(self, query: str, answer_text: str) -> None:
        self.turns.append((query, answer_text))


def _extract_phrase(q: str) -> str | None:
    m = _QUOTED.search(q)
    return m.group(1) if m else None


def _extract_kind(q: str) -> str:
    for kind, pattern in _KIND_CUES:
        if pattern.search(q):
            return kind
    return "generic_doc"


def classify_query(q: str) -> QueryPlan:
    """Route a question to graph counting, citation tallying, or retrieval."""
    if not q.strip():
        raise ParameterError("query must be non-empty")
    phrase = _extract_phrase(q)
    if phrase and _QUANT.search(q):
        mode = "quantitative"
    elif phrase and _CITATION_Q.search(q):
        mode = "citation_pattern"
    else:
        mode = "semantic"
    return QueryPlan(mode=mode, phrase=phrase, kind=_extract_kind(q))


def _source_ref(chunk) -> tuple[str, str]:
    return (chunk.doc_id, f"{chunk.unit}:{chunk.start}-{chunk.end}")


def _keyword_facts(graph: Graph, query: str) -> list[tuple[str, object]]:
    facts: list[tuple[str, object]] = []
    for tok in sorted(set(tokenize(query))):
        topics = sorted(graph.in_neighbors(keyword_node_id(tok), "TOPIC_HAS_KEYWORD"))
        if topics:
            facts.append((f"keyword_topics({tok!r})", topics))
    return facts


def answer(
    q: str,
    session: Session,
    graph: Graph,
    indexes: dict[str | None, VectorIndex],
    provider,
    chat: ChatClient,
    top_k: int = DEFAULT_TOP_K,
    score_threshold: float = DEFAULT_SCORE_THRESHOLD,
    history: bool = False,
) -> GroundedAnswer:
    """Answer one question and record the turn in the session.

    Quantitative and citation-pattern questions never reach the chat client;
    their numbers come from graph queries verbatim. Semantic questions with
    no retrieval hit at or above `score_threshold` refuse explicitly.
    """
    plan = classify_query(q)
    phrase, kind = plan.phrase, plan.kind

    if plan.mode == "quantitative":
        count = count_mentions(graph, phrase, kind)
        result = GroundedAnswer(
            text=f"There are {count} {KIND_LABELS[kind]} that mention '{phrase}.'",
            sources=[(f"kg:count_mentions({phrase!r}, {kind})", "")],
            kg_facts=[
                ("count_mentions.count", count),
                ("count_mentions.phrase", phrase),
                ("count_mentions.kind", kind),
            ],
        )
    elif plan.mode == "citation_pattern":
        ranked = common_citations(graph, phrase, kind, DEFAULT_CITATIONS_TOP_N)
        label = KIND_LABELS[kind]
        facts: list[tuple[str, object]] = [("common_citations.phrase", phrase)]
        if ranked:
            parts = [f"{key} with {n} cases" for key, n in ranked]
            text = (f"The common citations among {label} that mention "
                    f"'{phrase}' include {', '.join(parts)}.")
            for i, (key, n) in enumerate(ranked):
                facts.append((f"common_citations[{i}].key", key))
                facts.append((f"common_citations[{i}].count", n))
        else:
            text = f"No citations were found among {label} that mention '{phrase}'."
        result = GroundedAnswer(
            text=text,
            sources=[(f"kg:common_citations({phrase!r}, {kind})", "")],
            kg_facts=facts,
        )
    else:
        routed_topic, ranked = route_and_search(indexes, provider.embed([q])[0], top_k)
        scores = [s for _, s in ranked]
        hits = [(c, s) for c, s in ranked if s >= score_threshold]
        if not hits:
            result = GroundedAnswer(text=REFUSAL_TEXT, routed_topic=routed_topic, refused=True,
                                    scores=scores)
        else:
            facts = _keyword_facts(graph, q)
            lines = []
            for chunk, score in hits:
                lines.append(f"[{chunk.chunk_id}] (score {score:.3f}) {chunk.text}")
            if facts:
                lines.append("Knowledge-graph facts:")
                for name, value in facts:
                    lines.append(f"- {name} = {value}")
            prefix = ""
            if history and session.turns:
                convo = "\n".join(f"Q: {pq}\nA: {pa}" for pq, pa in session.turns)
                prefix = f"Previous conversation:\n{convo}\n\n"
            user_prompt = f"{prefix}Sources:\n" + "\n".join(lines) + f"\n\nQuestion: {q}"

            sources = [_source_ref(chunk) for chunk, _ in hits]
            try:
                text = chat.complete(QA_SYSTEM_PROMPT, user_prompt)
            except Exception as exc:
                raise ExternalServiceError(f"chat completion failed: {exc}") from exc
            result = GroundedAnswer(
                text=text, sources=sources, routed_topic=routed_topic, kg_facts=facts, scores=scores
            )
    session.record(q, result.text)
    return result


def follow_up(
    q: str,
    session: Session,
    graph: Graph,
    indexes: dict[str | None, VectorIndex],
    provider,
    chat: ChatClient,
    **kwargs,
) -> GroundedAnswer:
    """Answer with the session window prepended to the prompt.

    Retrieval always re-runs for the new question; no stale context is
    reused. With an empty session this is identical to `answer`.
    """
    return answer(q, session, graph, indexes, provider, chat, history=True, **kwargs)
