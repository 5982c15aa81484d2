"""Shared builders for synthetic corpora and planted-structure matrices."""

from __future__ import annotations

import json
import struct

import numpy as np
import scipy.sparse as sp

from lexigraph.corpus import Document
from lexigraph.hierarchy import Hierarchy, HierarchyConfig, TopicNode
from lexigraph.nmfk import NmfkConfig


def planted_matrix(
    k_true: int,
    docs_per_block: int = 40,
    terms_per_block: int = 20,
    noise: float = 0.01,
    seed: int = 0,
    scale_step: float = 0.85,
    base_level: float = 0.05,
) -> sp.csr_matrix:
    """Block-diagonal term-document matrix with k_true planted topics.

    Each topic is a rank-1 block: a term profile (strong on its own terms,
    a small positive floor elsewhere, like topics sharing common words)
    times a per-document mixture, with multiplicative noise. Topic scales
    are graded so weaker topics drop out in a fixed order when k is too
    small, keeping the stability predicate monotone.
    """
    rng = np.random.default_rng(seed)
    t, d = k_true * terms_per_block, k_true * docs_per_block
    X = np.zeros((t, d))
    for b in range(k_true):
        ds = b * docs_per_block
        u = rng.uniform(0.0, base_level, t)
        u[b * terms_per_block:(b + 1) * terms_per_block] = rng.uniform(0.5, 1.0, terms_per_block)
        v = rng.uniform(0.5, 1.0, docs_per_block)
        X[:, ds:ds + docs_per_block] += np.outer(u, v) * (scale_step**b)
    X *= rng.uniform(1 - noise, 1 + noise, X.shape)
    return sp.csr_matrix(X)


def planted_tokens(X: sp.csr_matrix) -> tuple[str, ...]:
    """A sorted vocabulary naming the rows of a planted matrix."""
    return tuple(f"t{i:04d}" for i in range(X.shape[0]))


def planted_block_labels(k_true: int, docs_per_block: int = 40) -> list[int]:
    return [b for b in range(k_true) for _ in range(docs_per_block)]


def topic_word(topic: int, j: int) -> str:
    return f"topic{topic}word{j:02d}"


def synthetic_docs(
    n_topics: int,
    docs_per_topic: int,
    words_per_doc: int = 60,
    vocab_per_topic: int = 12,
    shared_vocab: int = 8,
    shared_fraction: float = 0.25,
    doc_type: str = "generic",
    seed: int = 0,
) -> list[Document]:
    """Documents drawn from per-topic word pools plus a shared pool."""
    rng = np.random.default_rng(seed)
    shared = [f"common{j:02d}" for j in range(shared_vocab)]
    docs = []
    for t in range(n_topics):
        pool = [topic_word(t, j) for j in range(vocab_per_topic)]
        for i in range(docs_per_topic):
            words = []
            for _ in range(words_per_doc):
                if rng.random() < shared_fraction:
                    words.append(shared[int(rng.integers(len(shared)))])
                else:
                    words.append(pool[int(rng.integers(len(pool)))])
            docs.append(Document(
                id=f"doc-{t}-{i:03d}",
                doc_type=doc_type,
                title=f"Synthetic document {t}-{i}",
                text=" ".join(words),
                metadata={"topic": str(t)},
            ))
    return docs


def fast_nmfk_config(base_seed: int = 0, k_min: int = 1, k_max: int = 4) -> NmfkConfig:
    return NmfkConfig(
        k_min=k_min,
        k_max=k_max,
        n_perturbations=4,
        noise_epsilon=0.015,
        silhouette_threshold=0.7,
        base_seed=base_seed,
        nmf_max_iters=200,
        nmf_tol=1e-6,
    )


def fast_hierarchy_config(
    base_seed: int = 0,
    max_depth: int = 2,
    min_cluster_size: int = 10,
    k_max: int = 4,
) -> HierarchyConfig:
    return HierarchyConfig(
        nmfk=fast_nmfk_config(base_seed=base_seed, k_max=k_max),
        max_depth=max_depth,
        min_cluster_size=min_cluster_size,
        keywords_per_topic=10,
        vocab_min_df=2,
        vocab_max_df_ratio=0.9,
    )


def graph_facts(g) -> tuple[set, set]:
    """Every node of g as (id, kind, sorted attrs) and every edge: two graphs
    with equal facts are the same graph."""
    nodes = {(n.id, n.kind, tuple(sorted(n.attrs.items()))) for n in g.nodes.values()}
    return nodes, set(g.edges)


def manual_hierarchy(doc_groups: dict[str, list[str]], keywords: dict[str, list[str]] | None = None) -> Hierarchy:
    """Single-level hierarchy built directly from given doc-id groups."""
    keywords = keywords or {}
    roots = []
    for i, (name, ids) in enumerate(sorted(doc_groups.items())):
        roots.append(TopicNode(
            id=f"root/{i}",
            depth=0,
            doc_ids=list(ids),
            top_keywords=list(keywords.get(name, [])),
            label=name,
        ))
    cfg = fast_hierarchy_config()
    return Hierarchy(roots=roots, config=cfg, corpus_id="manual")


def zero_row_index(dim: int = 10**12) -> bytes:
    """The bytes of a `.lxvi` file whose header gives no rows and a huge `dim`."""
    header = json.dumps({"chunk_bytes": 2, "count": 0, "dim": dim, "provider_id": "m",
                         "records": 1, "topic_id": None}).encode("utf-8")
    return b"LXVI" + struct.pack("<HI", 3, len(header)) + header + b"[]"
