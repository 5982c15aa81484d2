"""Independent checks of the program's outputs.

Nothing here calls lexigraph. Each check recomputes what the output should
be from the generator's truth, from the documented formats and from the
documented algorithms (chunking rules, the hash-seeded embedder, exact cosine
ranking with ties broken by `(doc_id, index)`), and returns `None` when the
output is right or a one-line reason when it is not.

Scores are recomputed with the same float64 operations the documentation
describes; where two candidates lie within `TIE_EPS` of each other either
order is accepted, since the last bits of a sum may differ between two
correct implementations.
"""

from __future__ import annotations

import csv
import json
import re
from hashlib import blake2b
from pathlib import Path

import numpy as np

TIE_EPS = 1e-9
TOP_K = 5
SCORE_THRESHOLD = 0.15
CITATIONS_TOP_N = 10
CHUNK_SIZE, CHUNK_OVERLAP = 300, 50

_WORD = re.compile(r"[a-z0-9']+")
_PARAGRAPH = re.compile(r"\n\s*\n")


# --- embedding and chunking, as documented ----------------------------------

class Embedder:
    """The deterministic provider's definition: each token's vector is a
    standard normal draw seeded by the first 8 bytes of its blake2b digest;
    a text is the unit-normalised sum over its `[a-z0-9']+` tokens."""

    def __init__(self, dim: int = 256):
        self.dim = dim
        self._vectors: dict[str, np.ndarray] = {}
        self._matrices: dict[tuple, np.ndarray] = {}

    def _token(self, token: str) -> np.ndarray:
        v = self._vectors.get(token)
        if v is None:
            seed = int.from_bytes(blake2b(token.encode("utf-8"), digest_size=8).digest(), "big")
            v = self._vectors[token] = np.random.default_rng(seed).standard_normal(self.dim)
        return v

    def embed(self, text: str) -> np.ndarray:
        vec = np.zeros(self.dim)
        for token in _WORD.findall(text.lower()):
            vec += self._token(token)
        norm = np.linalg.norm(vec)
        return vec / norm if norm > 0 else vec

    def matrix(self, texts: list[str]) -> np.ndarray:
        """Embeddings of several texts, remembered for the next equal request."""
        key = tuple(texts)
        if key not in self._matrices:
            self._matrices[key] = np.array([self.embed(t) for t in texts])
        return self._matrices[key]

    def query(self, text: str) -> np.ndarray:
        """A query as search scores it: the embedding scaled to unit norm again."""
        q = self.embed(text)
        n = np.linalg.norm(q)
        return q / n if n > 0 else q


def windows(doc_id: str, text: str) -> list[dict]:
    """Word windows of CHUNK_SIZE with CHUNK_OVERLAP shared words."""
    words = text.split()
    out, start = [], 0
    while words:
        end = min(start + CHUNK_SIZE, len(words))
        out.append({"doc_id": doc_id, "index": len(out), "unit": "words",
                    "start": start, "end": end, "text": " ".join(words[start:end])})
        if end >= len(words):
            break
        start += CHUNK_SIZE - CHUNK_OVERLAP
    return out


def default_chunks(rec: dict) -> list[dict]:
    """Paragraphs for constitution sections and statutes, windows otherwise."""
    if rec["doc_type"] in ("constitution", "statute"):
        paras = [p.strip() for p in _PARAGRAPH.split(rec["text"]) if p.strip()]
        if paras:
            return [{"doc_id": rec["id"], "index": i, "unit": "paragraphs", "start": i,
                     "end": i + 1, "text": p} for i, p in enumerate(paras)]
    return windows(rec["id"], rec["text"])


def chunk_id(c: dict) -> str:
    return f"{c['doc_id']}#{c['index']:05d}"


# --- artifact readers ------------------------------------------------------------

def read_hierarchy(path: Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def leaves(hierarchy: dict) -> list[dict]:
    """Leaves in depth-first order, children in stored order."""
    out = []

    def walk(node):
        if node["children"]:
            for child in node["children"]:
                walk(child)
        else:
            out.append(node)

    for root in hierarchy["roots"]:
        walk(root)
    return out


def read_edges(graph_dir: Path, relation: str) -> set[tuple[str, str]]:
    with (Path(graph_dir) / "edges.csv").open(encoding="utf-8", newline="") as fh:
        return {(r["head"], r["tail"]) for r in csv.DictReader(fh) if r["relation"] == relation}


# --- build checks ----------------------------------------------------------

def check_partition(hierarchy: dict, truth: dict) -> str | None:
    """Every corpus document sits in exactly one leaf."""
    seen: dict[str, str] = {}
    for leaf in leaves(hierarchy):
        for doc_id in leaf["doc_ids"]:
            if doc_id in seen:
                return f"{doc_id} in leaves {seen[doc_id]} and {leaf['id']}"
            seen[doc_id] = leaf["id"]
    missing = set(truth["docs"]) - set(seen)
    extra = set(seen) - set(truth["docs"])
    if missing or extra:
        return f"leaves miss {len(missing)} and invent {len(extra)} documents"
    return None


def check_root_split(hierarchy: dict, truth: dict) -> str | None:
    """The top-level split recovers the planted topic count."""
    got = len(hierarchy["roots"])
    return None if got == truth["topics"] else f"root split into {got}, planted {truth['topics']}"


def expected_cites(truth: dict) -> set[tuple[str, str]]:
    return {(doc_id, target if target is not None else f"cite:{key}")
            for doc_id, d in truth["docs"].items() for key, target in d["cites"].items()}


def check_cites(edges: set[tuple[str, str]], truth: dict) -> str | None:
    """CITES edges are exactly the planted citations, resolved where planted so."""
    want = expected_cites(truth)
    if edges == want:
        return None
    return f"CITES: {len(want - edges)} planted edges missing, {len(edges - want)} unplanted"


def leaf_chunks(hierarchy: dict, corpus: dict[str, dict]) -> list[tuple[str, list[dict]]]:
    """(leaf id, default chunks of its documents) for every non-empty leaf, in
    leaf order: what the topic indexes must hold."""
    out = []
    for leaf in leaves(hierarchy):
        chunks = [c for d in leaf["doc_ids"] if d in corpus for c in default_chunks(corpus[d])]
        if chunks:
            out.append((leaf["id"], chunks))
    return out


def check_indexes(reloaded: list[tuple[str, list[str], np.ndarray]], hierarchy: dict,
                  corpus: dict[str, dict], embedder: Embedder) -> str | None:
    """The saved indexes, as the program reloads them (topic id, chunk ids,
    vectors), are one per leaf in leaf order and hold the leaf's chunks with
    their embeddings."""
    want = leaf_chunks(hierarchy, corpus)
    if len(reloaded) != len(want):
        return f"{len(reloaded)} index files for {len(want)} leaves"
    for (topic, ids, vectors), (leaf_id, chunks) in zip(reloaded, want):
        if topic != leaf_id:
            return f"index of topic {topic} where leaf {leaf_id} belongs"
        if ids != [chunk_id(c) for c in chunks]:
            return f"{leaf_id}: reloaded chunk ids differ from the leaf's chunks"
        expect = embedder.matrix([c["text"] for c in chunks])
        if vectors.shape != expect.shape or not np.allclose(vectors, expect, rtol=0, atol=1e-12):
            return f"{leaf_id}: reloaded vectors are not the chunks' embeddings"
    return None


def topic_purity(hierarchy: dict, truth: dict) -> float:
    """Share of documents whose leaf's majority planted topic is their own."""
    total = 0
    for leaf in leaves(hierarchy):
        counts: dict[int, int] = {}
        for doc_id in leaf["doc_ids"]:
            t = truth["docs"][doc_id]["topic"]
            counts[t] = counts.get(t, 0) + 1
        total += max(counts.values(), default=0)
    return total / len(truth["docs"])


# --- ask checks ---------------------------------------------------------------

class RoutedIndexes:
    """Unit-row matrices and centroids the topic indexes of a hierarchy must
    have, computed from the corpus and the embedder's definition."""

    def __init__(self, hierarchy: dict, corpus: dict[str, dict], embedder: Embedder):
        self.topics: dict[str, tuple[list[dict], np.ndarray, np.ndarray]] = {}
        self._tiebreak: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for leaf_id, chunks in leaf_chunks(hierarchy, corpus):
            rows = embedder.matrix([c["text"] for c in chunks])
            norms = np.linalg.norm(rows, axis=1, keepdims=True)
            unit = np.where(norms > 0, rows / np.where(norms == 0, 1, norms), 0.0)
            self.topics[leaf_id] = (chunks, unit, rows.mean(axis=0))
            doc_ids = sorted({c["doc_id"] for c in chunks})
            rank = {d: r for r, d in enumerate(doc_ids)}
            self._tiebreak[leaf_id] = (np.array([c["index"] for c in chunks]),
                                       np.array([rank[c["doc_id"]] for c in chunks]))

    def route(self, q: np.ndarray) -> tuple[str, list[tuple[float, str]]]:
        scores = []
        for tid in sorted(self.topics):
            c = self.topics[tid][2]
            cn = np.linalg.norm(c)
            scores.append((float((c / cn) @ q) if cn > 0 else 0.0, tid))
        best = max(s for s, _ in scores)
        return next(tid for s, tid in scores if s == best), sorted(scores, reverse=True)

    def top(self, tid: str, q: np.ndarray, k: int) -> list[tuple[float, dict]]:
        chunks, unit, _ = self.topics[tid]
        scores = unit @ q
        index, doc_rank = self._tiebreak[tid]
        order = np.lexsort((index, doc_rank, -scores))  # score desc, then (doc_id, index)
        return [(float(scores[i]), chunks[i]) for i in order[:k]]

    def score_of(self, tid: str, q: np.ndarray, doc_id: str, ref: str) -> float | None:
        chunks, unit, _ = self.topics[tid]
        for i, c in enumerate(chunks):
            if c["doc_id"] == doc_id and f"{c['unit']}:{c['start']}-{c['end']}" == ref:
                return float(unit[i] @ q)
        return None


def _source(c: dict) -> list[str]:
    return [c["doc_id"], f"{c['unit']}:{c['start']}-{c['end']}"]


def check_semantic(out: dict, question: str, routed: RoutedIndexes, embedder: Embedder) -> str | None:
    """Routed topic is the argmax of centroid cosine; sources are the exact
    top-k above the threshold, or the answer is a refusal when none is."""
    q = embedder.query(question)
    tid, ranked = routed.route(q)
    if out["routed"] != tid:
        got = dict((t, s) for s, t in ranked).get(out["routed"])
        if got is None or ranked[0][0] - got > TIE_EPS:
            return f"routed to {out['routed']}, centroid argmax is {tid}"
        tid = out["routed"]
    hits = [(s, c) for s, c in routed.top(tid, q, TOP_K) if s >= SCORE_THRESHOLD]
    if not hits:
        return None if out["refused"] and out["sources"] == [] else "expected a refusal"
    if out["refused"]:
        return f"refused although the best hit scores {hits[0][0]:.4f}"
    want = [_source(c) for _, c in hits]
    if out["sources"] == want:
        return None
    # accept another order only among near-tied scores
    got_scores = [routed.score_of(tid, q, d, ref) for d, ref in out["sources"]]
    if None in got_scores or len(got_scores) != len(hits):
        return "sources are not the exact top-k"
    if all(abs(a - s) <= TIE_EPS for a, (s, _) in zip(got_scores, hits)):
        return None
    return "sources are not the exact top-k"


def check_refused(out: dict) -> str | None:
    """A question that shares no token with the corpus gets a refusal."""
    return None if out["refused"] and out["sources"] == [] else "not refused"


def phrase_count(truth: dict, phrase: str, kind: str) -> int:
    return len(truth["phrase_docs"][phrase][kind])


def check_quantitative(out: dict, q: dict, truth: dict) -> str | None:
    """The count comes from the graph and equals the planted count."""
    facts = dict(out["facts"])
    if facts.get("count_mentions.phrase") != q["phrase"]:
        return f"counted phrase {facts.get('count_mentions.phrase')!r}, asked {q['phrase']!r}"
    if facts.get("count_mentions.kind") != q["kind"]:
        return f"counted kind {facts.get('count_mentions.kind')!r}, asked {q['kind']!r}"
    want = phrase_count(truth, q["phrase"], q["kind"])
    if facts.get("count_mentions.count") != want or str(want) not in out["text"]:
        return f"count {facts.get('count_mentions.count')}, planted {want}"
    return None


def expected_citations(truth: dict, phrase: str, kind: str) -> list[tuple[str, int]]:
    counts: dict[str, int] = {}
    for doc_id in truth["phrase_docs"][phrase][kind]:
        for key in truth["docs"][doc_id]["cites"]:
            counts[key] = counts.get(key, 0) + 1
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:CITATIONS_TOP_N]


def check_citation(out: dict, q: dict, truth: dict) -> str | None:
    """The ranked citation tally equals the planted citations of the
    documents of that kind that contain the phrase."""
    facts = dict(out["facts"])
    got = []
    for i in range(len(out["facts"])):
        if f"common_citations[{i}].key" not in facts:
            break
        got.append((facts[f"common_citations[{i}].key"], facts[f"common_citations[{i}].count"]))
    want = expected_citations(truth, q["phrase"], q["kind"])
    if facts.get("common_citations.phrase") != q["phrase"]:
        return f"tallied phrase {facts.get('common_citations.phrase')!r}, asked {q['phrase']!r}"
    return None if got == want else f"tally {got[:3]}..., planted {want[:3]}..."


def check_answer(out: dict, q: dict, truth: dict, routed: RoutedIndexes, embedder: Embedder) -> str | None:
    mode = q["mode"]
    if mode == "semantic":
        return check_semantic(out, q["question"], routed, embedder)
    if mode == "refusal":
        # the program's own rule: refuse exactly when no hit clears the threshold
        return check_semantic(out, q["question"], routed, embedder)
    if mode == "quantitative":
        return check_quantitative(out, q, truth)
    return check_citation(out, q, truth)


# --- eval checks ----------------------------------------------------------------

class EvalOracle:
    """Document ranks for every case under every strategy, from numpy."""

    def __init__(self, corpus: list[dict], hierarchy: dict, cases: list[dict], embedder: Embedder):
        self.corpus = corpus
        self.cases = cases
        self.embedder = embedder
        self.queries = np.array([embedder.query(c["question"]) for c in cases])
        self.leaf_of = {d: leaf["id"] for leaf in leaves(hierarchy) for d in leaf["doc_ids"]}
        by_id = {r["id"]: r for r in corpus}
        self.groups = {None: [r["id"] for r in corpus]}
        for leaf in leaves(hierarchy):
            ids = [d for d in leaf["doc_ids"] if d in by_id]
            if ids:
                self.groups[leaf["id"]] = ids
        self.by_id = by_id
        self._best: dict[tuple, np.ndarray] = {}

    def _doc_scores(self, group, chunked: bool) -> np.ndarray:
        """Best chunk score of every document of a group, for every case."""
        key = (group, chunked)
        if key not in self._best:
            ids = self.groups[group]
            chunks, owner = [], []
            for j, d in enumerate(ids):
                rec = self.by_id[d]
                parts = windows(d, rec["text"]) if chunked else [{"text": rec["text"]}]
                chunks.extend(p["text"] for p in parts)
                owner.extend([j] * len(parts))
            rows = np.array([self.embedder.embed(t) for t in chunks])
            norms = np.linalg.norm(rows, axis=1, keepdims=True)
            unit = np.where(norms > 0, rows / np.where(norms == 0, 1, norms), 0.0)
            scores = self.queries @ unit.T  # cases x chunks
            best = np.full((len(self.cases), len(ids)), -np.inf)
            np.maximum.at(best.T, np.array(owner), scores.T)
            self._best[key] = best
        return self._best[key]

    def ranks(self, strategy: str) -> list[tuple[int | None, int | None, int | None]]:
        """Per case: (rank, lowest rank, highest rank) with near-ties spread."""
        routed = strategy.startswith("topic_routed")
        chunked = strategy.endswith("chunked")
        out = []
        for i, case in enumerate(self.cases):
            group = self.leaf_of.get(case["gold_doc_id"]) if routed else None
            if group not in self.groups or case["gold_doc_id"] not in self.groups[group]:
                out.append((None, None, None))
                continue
            ids = self.groups[group]
            best = self._doc_scores(group, chunked)[i]
            g = ids.index(case["gold_doc_id"])
            s = best[g]
            others = np.arange(len(ids)) != g
            ahead = (best > s) | ((best == s) & (np.array(ids) < ids[g]))
            rank = 1 + int(np.sum(ahead & others))
            lo = 1 + int(np.sum((best > s + TIE_EPS) & others))
            hi = 1 + int(np.sum((best >= s - TIE_EPS) & others))
            out.append((rank, lo, hi))
        return out


def check_eval_ranks(program_ranks: list[int | None], oracle: list[tuple]) -> str | None:
    """The program's rank of each case equals the numpy ranking."""
    if len(program_ranks) != len(oracle):
        return f"{len(program_ranks)} ranks for {len(oracle)} cases"
    for i, (got, (rank, lo, hi)) in enumerate(zip(program_ranks, oracle)):
        if rank is None:
            if got is not None:
                return f"case {i}: rank {got}, expected none"
        elif got is None or not lo <= got <= hi:
            return f"case {i}: rank {got}, expected {rank}"
    return None


def agreed_ranks(program_ranks: list[int | None], oracle: list[tuple]) -> list[int | None]:
    """The numpy ranks, taking the program's order where scores nearly tie."""
    return [got if rank is not None and got is not None and lo <= got <= hi else rank
            for got, (rank, lo, hi) in zip(program_ranks, oracle)]


def mrr(ranks: list[int | None]) -> float:
    return sum(1.0 / r for r in ranks if r is not None) / len(ranks)


def check_mrr(program_mrr_per_part: dict[str, float], parts: list[str],
              ranks: list[int | None]) -> str | None:
    """Each corpus part's MRR as the program reports it equals the MRR of the
    numpy ranks of that part's cases."""
    by_part: dict[str, list] = {}
    for part, r in zip(parts, ranks):
        by_part.setdefault(part, []).append(r)
    if sorted(by_part) != sorted(program_mrr_per_part):
        return f"MRR parts {sorted(program_mrr_per_part)}, cases hold {sorted(by_part)}"
    for part, rs in by_part.items():
        if abs(program_mrr_per_part[part] - mrr(rs)) > 1e-12:
            return f"{part}: MRR {program_mrr_per_part[part]:.6f}, numpy {mrr(rs):.6f}"
    return None
