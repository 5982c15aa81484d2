"""Recursive topic decomposition of a corpus into a tree of H-clusters.

Every node slices its documents' rows from one token-count matrix of the
corpus, builds its own vocabulary and TF-IDF matrix from them, selects k with
stability search, hard-assigns documents by argmax of the consensus H, and
recurses into clusters that are large enough until the depth limit. Node ids
encode the cluster path ("root/4/2" is cluster 2 inside cluster 4).
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .corpus import Document, TokenCounts, Vocabulary, build_tfidf, build_vocabulary, count_tokens
from .errors import DataError, ParameterError
from .nmfk import NmfkConfig, NmfkResult, select_k

logger = logging.getLogger(__name__)

LABEL_PROMPT_TEMPLATE = "These words describe a topic: {keywords}. Give a short descriptive title."
LABEL_SYSTEM_PROMPT = "You name document topics concisely."


@dataclass(frozen=True)
class HierarchyConfig:
    nmfk: NmfkConfig
    max_depth: int = 2
    min_cluster_size: int = 100
    keywords_per_topic: int = 50
    vocab_min_df: int = 5
    vocab_max_df_ratio: float = 0.8

    def __post_init__(self):
        if self.max_depth < 0:
            raise ParameterError("max_depth must be >= 0")
        if self.min_cluster_size < 2:
            raise ParameterError("min_cluster_size must be >= 2")
        if self.keywords_per_topic < 1:
            raise ParameterError("keywords_per_topic must be >= 1")

    def min_df(self, n_docs: int) -> int:
        """DF floor over n_docs documents: vocab_min_df, shrunk so small clusters keep a vocabulary."""
        return max(1, min(self.vocab_min_df, max(2, n_docs // 10), n_docs))

    def to_json_dict(self) -> dict:
        return {
            "max_depth": self.max_depth,
            "min_cluster_size": self.min_cluster_size,
            "keywords_per_topic": self.keywords_per_topic,
            "vocab_min_df": self.vocab_min_df,
            "vocab_max_df_ratio": self.vocab_max_df_ratio,
            "nmfk": {
                "k_min": self.nmfk.k_min,
                "k_max": self.nmfk.k_max,
                "n_perturbations": self.nmfk.n_perturbations,
                "noise_epsilon": self.nmfk.noise_epsilon,
                "silhouette_threshold": self.nmfk.silhouette_threshold,
                "base_seed": self.nmfk.base_seed,
                "nmf_max_iters": self.nmfk.nmf_max_iters,
                "nmf_tol": self.nmfk.nmf_tol,
            },
        }


@dataclass
class TopicNode:
    id: str
    depth: int
    doc_ids: list[str]
    top_keywords: list[str]
    label: str = ""
    children: list["TopicNode"] = field(default_factory=list)
    selected_k: int = 0  # k used to split this node; 0 for leaves
    flags: list[str] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "depth": self.depth,
            "selected_k": self.selected_k,
            "doc_ids": list(self.doc_ids),
            "top_keywords": list(self.top_keywords),
            "label": self.label,
            "flags": list(self.flags),
            "children": [c.to_json_dict() for c in self.children],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "TopicNode":
        return cls(
            id=d["id"],
            depth=d["depth"],
            doc_ids=list(d["doc_ids"]),
            top_keywords=list(d["top_keywords"]),
            label=d.get("label", ""),
            selected_k=d.get("selected_k", 0),
            flags=list(d.get("flags", [])),
            children=[cls.from_json_dict(c) for c in d.get("children", [])],
        )


@dataclass
class Hierarchy:
    roots: list[TopicNode]
    config: HierarchyConfig
    corpus_id: str

    def walk(self):
        for root in self.roots:
            yield from root.walk()

    def leaves(self) -> list[TopicNode]:
        return [n for n in self.walk() if n.is_leaf]

    def leaf_of_doc(self) -> dict[str, str]:
        """doc_id -> id of the leaf topic containing it."""
        out: dict[str, str] = {}
        for leaf in self.leaves():
            for doc_id in leaf.doc_ids:
                out[doc_id] = leaf.id
        return out

    def to_json(self) -> str:
        payload = {
            "corpus_id": self.corpus_id,
            "config": self.config.to_json_dict(),
            "roots": [r.to_json_dict() for r in self.roots],
        }
        return json.dumps(payload, sort_keys=True, ensure_ascii=True, separators=(",", ":"))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def from_json(cls, text: str) -> "Hierarchy":
        payload = json.loads(text)
        cfg = payload["config"]
        config = HierarchyConfig(
            nmfk=NmfkConfig(**cfg["nmfk"]),
            max_depth=cfg["max_depth"],
            min_cluster_size=cfg["min_cluster_size"],
            keywords_per_topic=cfg["keywords_per_topic"],
            vocab_min_df=cfg["vocab_min_df"],
            vocab_max_df_ratio=cfg["vocab_max_df_ratio"],
        )
        return cls(
            roots=[TopicNode.from_json_dict(r) for r in payload["roots"]],
            config=config,
            corpus_id=payload["corpus_id"],
        )

    @classmethod
    def load(cls, path: str | Path) -> "Hierarchy":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    def size_csv(self) -> str:
        """Flat node-size table for external plotting."""
        lines = ["id,depth,size,label"]
        for node in sorted(self.walk(), key=lambda n: n.id):
            label = node.label.replace('"', "'")
            lines.append(f'{node.id},{node.depth},{len(node.doc_ids)},"{label}"')
        return "\n".join(lines) + "\n"


@dataclass
class ClusterAssignment:
    by_cluster: dict[int, list[str]]
    flagged: list[str]  # documents with an all-zero H column, forced to cluster 0


def assign_clusters(result: NmfkResult, doc_ids: list[str]) -> ClusterAssignment:
    """Hard-assign each document to argmax of its consensus-H column.

    Ties break toward the lowest cluster index. A document whose H column is
    all zero goes to cluster 0 and is flagged.
    """
    H = result.consensus_H
    if H.shape[1] != len(doc_ids):
        raise ParameterError(f"H has {H.shape[1]} columns for {len(doc_ids)} documents")
    by_cluster: dict[int, list[str]] = {}
    flagged: list[str] = []
    for j, doc_id in enumerate(doc_ids):
        col = H[:, j]
        if not col.any():
            cluster = 0
            flagged.append(doc_id)
        else:
            cluster = int(np.argmax(col))  # argmax takes the first (lowest) maximum
        by_cluster.setdefault(cluster, []).append(doc_id)
    return ClusterAssignment(by_cluster=by_cluster, flagged=flagged)


def top_keywords(result: NmfkResult, vocab: Vocabulary, cluster: int, m: int) -> list[str]:
    """The m vocabulary tokens with the largest weight in one consensus-W column.

    Descending weight, ties broken lexicographically; if m exceeds the
    vocabulary, every token is returned.
    """
    if not (0 <= cluster < result.selected_k):
        raise ParameterError(f"cluster {cluster} out of range for k={result.selected_k}")
    if m < 1:
        raise ParameterError("m must be >= 1")
    weights = result.consensus_W[:, cluster]
    order = sorted(range(len(vocab.tokens)), key=lambda i: (-weights[i], vocab.tokens[i]))
    return [vocab.tokens[i] for i in order[:m]]


def _node_seed(base_seed: int, path: str) -> int:
    digest = hashlib.blake2b(f"{base_seed}:{path}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _split(counts: TokenCounts, path: str, cfg: HierarchyConfig) -> tuple[int, NmfkResult, Vocabulary]:
    vocab = build_vocabulary(counts, cfg.min_df(len(counts.doc_ids)), cfg.vocab_max_df_ratio)
    X = build_tfidf(counts, vocab)
    bound = min(X.shape)
    ncfg = replace(
        cfg.nmfk,
        k_min=min(cfg.nmfk.k_min, bound),
        k_max=min(cfg.nmfk.k_max, bound),
        base_seed=_node_seed(cfg.nmfk.base_seed, path),
    )
    result = select_k(X, ncfg)
    return result.selected_k, result, vocab


def _build_children(
    counts: TokenCounts, parent_path: str, depth: int, cfg: HierarchyConfig
) -> tuple[int, list[TopicNode]]:
    """Split the documents of `counts`; return (selected_k, child nodes at `depth`)."""
    row_of = {doc_id: i for i, doc_id in enumerate(counts.doc_ids)}
    selected_k, result, vocab = _split(counts, parent_path, cfg)
    assignment = assign_clusters(result, list(counts.doc_ids))

    nodes: list[TopicNode] = []
    for c in range(selected_k):
        c_ids = assignment.by_cluster.get(c, [])
        if not c_ids:
            continue  # argmax never chose this cluster; drop the empty node
        flags = []
        if result.low_confidence:
            flags.append("low_confidence_k")
        flagged_here = [i for i in assignment.flagged if i in set(c_ids)]
        if flagged_here:
            flags.append("zero_h_column")
        node = TopicNode(
            id=f"{parent_path}/{c}",
            depth=depth,
            doc_ids=c_ids,
            top_keywords=top_keywords(result, vocab, c, cfg.keywords_per_topic),
            flags=flags,
        )
        nodes.append(node)

    for node in nodes:
        if len(node.doc_ids) >= cfg.min_cluster_size and node.depth < cfg.max_depth:
            sub_counts = counts.rows([row_of[i] for i in node.doc_ids])
            try:
                node.selected_k, node.children = _build_children(
                    sub_counts, node.id, depth + 1, cfg
                )
            except DataError:
                # vocabulary or matrix degenerate at this node: keep it a leaf
                node.flags.append("vocabulary_empty")
    return selected_k, nodes


def decompose(docs: list[Document], cfg: HierarchyConfig, corpus_id: str = "corpus") -> Hierarchy:
    """Build the full topic hierarchy for a corpus.

    The corpus itself is always split once (the depth-0 clusters); a cluster
    is split further only while it holds at least min_cluster_size documents
    and sits above the depth limit. Deterministic for a fixed corpus, config,
    and base seed.
    """
    if len(docs) < 2:
        raise ParameterError("need at least 2 documents to decompose")
    ids = [d.id for d in docs]
    if len(set(ids)) != len(ids):
        raise DataError("duplicate document ids in corpus")
    _, roots = _build_children(count_tokens(docs), "root", 0, cfg)
    return Hierarchy(roots=roots, config=cfg, corpus_id=corpus_id)


def label_topics(hierarchy: Hierarchy, chat, force: bool = False) -> Hierarchy:
    """Fill node labels from a chat client; failures leave labels empty.

    Nodes that already carry a label are skipped unless `force` is set. The
    hierarchy is modified in place and returned.
    """
    for node in hierarchy.walk():
        if node.label and not force:
            continue
        prompt = LABEL_PROMPT_TEMPLATE.format(keywords=", ".join(node.top_keywords))
        try:
            node.label = chat.complete(LABEL_SYSTEM_PROMPT, prompt).strip()
        except Exception as exc:  # noqa: BLE001 - any client failure is non-fatal
            logger.warning("labeling failed for %s: %s", node.id, exc)
            node.label = ""
    return hierarchy
