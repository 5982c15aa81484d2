"""Recursive topic decomposition of a corpus into a tree of H-clusters.

Every node slices its documents' rows from one token-count matrix of the
corpus, builds its own vocabulary and TF-IDF matrix from them, selects k with
stability search, hard-assigns documents by argmax of the consensus H, and
recurses into a cluster only while it holds at least min_cluster_size
documents, sits above the depth limit and is a proper subset of its parent's
documents, so NMFk runs once per document set. Each split keeps its k
evidence, the `KEvaluation` of every k probed. Node ids encode the cluster
path ("root/4/2" is cluster 2 inside cluster 4).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .corpus import Document, TokenCounts, build_tfidf, build_vocabulary, count_tokens
from .errors import DataError, ParameterError, data_errors, read_json, write_file
from .nmfk import KEvaluation, NmfkConfig, NmfkResult, select_k


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
        if self.vocab_min_df < 1:
            raise ParameterError("vocab_min_df must be >= 1")
        if not (0.0 < self.vocab_max_df_ratio <= 1.0):
            raise ParameterError("vocab_max_df_ratio must be in (0, 1]")

    def vocabulary(self, counts: TokenCounts) -> tuple[str, ...]:
        """The tokens of `counts` in the DF window: vocab_min_df, shrunk so small
        clusters keep a vocabulary, up to vocab_max_df_ratio of the documents."""
        n_docs = len(counts.doc_ids)
        min_df = max(1, min(self.vocab_min_df, max(2, n_docs // 10), n_docs))
        return build_vocabulary(counts, min_df, self.vocab_max_df_ratio)


@dataclass
class TopicNode:
    id: str
    depth: int
    doc_ids: list[str]
    top_keywords: list[str]
    label: str = ""
    children: list[TopicNode] = field(default_factory=list)
    selected_k: int = 0  # k used to split this node; 0 for leaves
    evaluations: list[KEvaluation] = field(default_factory=list)  # every k NMFk probed, by k
    flags: list[str] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass
class Hierarchy:
    roots: list[TopicNode]
    config: HierarchyConfig
    corpus_id: str
    selected_k: int = 0  # k of the corpus's split into the roots
    evaluations: list[KEvaluation] = field(default_factory=list)  # every k NMFk probed there, by k

    def walk(self):
        for root in self.roots:
            yield from root.walk()

    def leaves(self) -> list[TopicNode]:
        return [n for n in self.walk() if n.is_leaf]

    def leaf_of_doc(self) -> dict[str, str]:
        """doc_id -> id of the leaf topic containing it. The leaves must
        partition their documents: a repeated leaf id, or a document id held
        twice by one leaf or by two, is a DataError."""
        leaf_of: dict[str, str] = {}
        leaf_ids: set[str] = set()
        for leaf in self.leaves():
            if leaf.id in leaf_ids:
                raise DataError(f"two leaves have id {leaf.id!r}")
            leaf_ids.add(leaf.id)
            for doc_id in leaf.doc_ids:
                if doc_id in leaf_of:
                    raise DataError(f"document {doc_id!r} is in leaf {leaf_of[doc_id]!r} "
                                    f"and again in leaf {leaf.id!r}")
                leaf_of[doc_id] = leaf.id
        return leaf_of

    def leaf_docs(self, docs: list[Document]) -> dict[str, list[Document]]:
        """Leaf id -> the documents of `docs` that leaf holds, in leaf order;
        a leaf holding none of them is left out. Leaves that do not partition
        their documents are a DataError, as for `leaf_of_doc`."""
        self.leaf_of_doc()
        by_id = {d.id: d for d in docs}
        groups = {leaf.id: [by_id[i] for i in leaf.doc_ids if i in by_id] for leaf in self.leaves()}
        return {leaf_id: group for leaf_id, group in groups.items() if group}

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, ensure_ascii=True, separators=(",", ":"))

    def save(self, path: str | Path) -> None:
        write_file(path, self.to_json())

    @classmethod
    def load(cls, path: str | Path) -> "Hierarchy":
        """Read a hierarchy written by `save`, every node and config field
        type-checked against its dataclass by `errors.from_json`. Its leaves
        must partition their documents: a repeated leaf id, or a document id
        held twice by one leaf or by two, is a fault. Any fault in the file is
        a DataError naming it."""
        hierarchy = read_json(path, cls)
        with data_errors(path):
            hierarchy.leaf_of_doc()
        return hierarchy

    def size_csv(self) -> str:
        """Flat node-size table for external plotting; labels are quoted CSV fields."""
        lines = ["id,depth,size,label"]
        for node in sorted(self.walk(), key=lambda n: n.id):
            label = node.label.replace('"', '""')
            lines.append(f'{node.id},{node.depth},{len(node.doc_ids)},"{label}"')
        return "\n".join(lines) + "\n"


def assign_clusters(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(labels, zero) for the documents, the columns of a consensus H: each
    document's label is the argmax of its column, ties toward the lowest
    cluster; a column that is all zero is labelled 0 and flagged in `zero`."""
    return H.argmax(axis=0), ~H.any(axis=0)


def top_keywords(result: NmfkResult, vocab: tuple[str, ...], cluster: int, m: int) -> list[str]:
    """The m tokens of `vocab` with the largest weight in one consensus-W column.

    Descending weight, ties broken lexicographically; if m exceeds the
    vocabulary, every token is returned.
    """
    if not (0 <= cluster < result.selected_k):
        raise ParameterError(f"cluster {cluster} out of range for k={result.selected_k}")
    if m < 1:
        raise ParameterError("m must be >= 1")
    order = np.lexsort((np.array(vocab), -result.consensus_W[:, cluster]))
    return [vocab[i] for i in order[:m]]


def _node_seed(base_seed: int, path: str) -> int:
    digest = hashlib.blake2b(f"{base_seed}:{path}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def split_node(counts: TokenCounts, path: str, cfg: HierarchyConfig) -> tuple[NmfkResult, tuple[str, ...]]:
    """NMFk over the TF-IDF matrix of the node at `path`, whose documents are
    those of `counts`: the vocabulary is `cfg.vocabulary(counts)`, the k range
    is cut to the matrix's rank bound and the base seed is derived from the
    path. Returns the result and the vocabulary, the rows of its W."""
    vocab = cfg.vocabulary(counts)
    X = build_tfidf(counts, vocab)
    bound = min(X.shape)
    ncfg = replace(
        cfg.nmfk,
        k_min=min(cfg.nmfk.k_min, bound),
        k_max=min(cfg.nmfk.k_max, bound),
        base_seed=_node_seed(cfg.nmfk.base_seed, path),
    )
    return select_k(X, ncfg), vocab


def _build_children(
    counts: TokenCounts, parent_path: str, depth: int, cfg: HierarchyConfig
) -> tuple[NmfkResult, list[TopicNode]]:
    """Split the documents of `counts`; return NMFk's result and the child nodes at `depth`."""
    result, vocab = split_node(counts, parent_path, cfg)
    labels, zero = assign_clusters(result.consensus_H)

    nodes: list[TopicNode] = []
    for c in range(result.selected_k):
        rows = np.flatnonzero(labels == c)
        if not len(rows):
            continue  # argmax never chose this cluster; drop the empty node
        flags = []
        if result.low_confidence:
            flags.append("low_confidence_k")
        if zero[rows].any():
            flags.append("zero_h_column")
        sub_counts = counts.rows(rows)
        node = TopicNode(
            id=f"{parent_path}/{c}",
            depth=depth,
            doc_ids=list(sub_counts.doc_ids),
            top_keywords=top_keywords(result, vocab, c, cfg.keywords_per_topic),
            flags=flags,
        )
        if cfg.min_cluster_size <= len(rows) < len(labels) and depth < cfg.max_depth:
            try:
                split, node.children = _build_children(sub_counts, node.id, depth + 1, cfg)
                node.selected_k, node.evaluations = split.selected_k, split.evaluations
            except DataError:
                # vocabulary or matrix degenerate at this node: keep it a leaf
                node.flags.append("vocabulary_empty")
        nodes.append(node)
    return result, nodes


def decompose(docs: list[Document], cfg: HierarchyConfig, corpus_id: str = "corpus") -> Hierarchy:
    """Build the full topic hierarchy for a corpus.

    The corpus itself is always split once (the depth-0 clusters); a cluster
    is split further only while it holds at least min_cluster_size documents,
    sits above the depth limit and is a proper subset of its parent's
    documents (a k=1 split, or one whose argmax puts every document in one
    cluster, yields a leaf). The hierarchy, for the split into the
    roots, and every split node record the selected k and NMFk's evaluation
    of each k it probed. Deterministic for a fixed corpus, config, and base
    seed.
    """
    if len(docs) < 2:
        raise DataError("need at least 2 documents to decompose")
    ids = [d.id for d in docs]
    if len(set(ids)) != len(ids):
        raise DataError("duplicate document ids in corpus")
    result, roots = _build_children(count_tokens(docs), "root", 0, cfg)
    return Hierarchy(roots=roots, config=cfg, corpus_id=corpus_id,
                     selected_k=result.selected_k, evaluations=result.evaluations)
