"""Directional-triplet property graph over documents, topics, keywords,
vocabulary tokens, and legal citations.

The graph is an in-memory adjacency structure; exports (CSV triples or a
Cypher script) are byte-deterministic so two builds of the same corpus can be
diffed. Keyword and bag-of-words token nodes are deliberately distinct: a
topic carries only its top keywords, while MENTIONS_TOKEN edges cover every
vocabulary token a document contains.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

from .citations import Citation, extract_citations_regex
from .corpus import Document, build_vocabulary, count_tokens
from .errors import DataError, ParameterError
from .hierarchy import Hierarchy

NODE_KINDS = (
    "constitution_doc",
    "statute_doc",
    "supreme_case",
    "appeals_case",
    "generic_doc",
    "topic",
    "keyword",
    "bow_token",
    "external_citation",
)

RELATIONS = ("HAS_TOPIC", "TOPIC_HAS_KEYWORD", "MENTIONS_TOKEN", "CITES", "CHILD_OF")

DOC_KIND_BY_TYPE = {
    "constitution": "constitution_doc",
    "statute": "statute_doc",
    "supreme_case": "supreme_case",
    "appeals_case": "appeals_case",
    "generic": "generic_doc",
}

DOC_KINDS = frozenset(DOC_KIND_BY_TYPE.values())


@dataclass
class GraphNode:
    id: str
    kind: str
    attrs: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in NODE_KINDS:
            raise DataError(f"unknown node kind {self.kind!r}")


@dataclass(frozen=True)
class GraphEdge:
    head: str
    relation: str
    tail: str

    def __post_init__(self):
        if self.relation not in RELATIONS:
            raise DataError(f"unknown relation {self.relation!r}")


class Graph:
    """Nodes by id plus a deduplicated directional edge set."""

    def __init__(self):
        self.nodes: dict[str, GraphNode] = {}
        self.edges: set[GraphEdge] = set()
        self.doc_texts: dict[str, str] = {}  # raw text for phrase queries; not exported
        self._out: dict[tuple[str, str], set[str]] = {}
        self._in: dict[tuple[str, str], set[str]] = {}

    def add_node(self, node: GraphNode) -> None:
        if node.id in self.nodes:
            raise DataError(f"duplicate node id {node.id!r}")
        self.nodes[node.id] = node

    def add_edge(self, head: str, relation: str, tail: str) -> None:
        if head not in self.nodes:
            raise DataError(f"edge head {head!r} does not exist")
        if tail not in self.nodes:
            raise DataError(f"edge tail {tail!r} does not exist")
        edge = GraphEdge(head, relation, tail)
        if edge in self.edges:
            return
        self.edges.add(edge)
        self._out.setdefault((head, relation), set()).add(tail)
        self._in.setdefault((tail, relation), set()).add(head)

    def out_neighbors(self, head: str, relation: str) -> set[str]:
        return self._out.get((head, relation), set())

    def in_neighbors(self, tail: str, relation: str) -> set[str]:
        return self._in.get((tail, relation), set())

    def nodes_of_kind(self, kind: str) -> list[GraphNode]:
        return [n for n in self.nodes.values() if n.kind == kind]

    def check_integrity(self) -> None:
        for e in self.edges:
            if e.head not in self.nodes or e.tail not in self.nodes:
                raise DataError(f"dangling edge {e}")

    def structurally_equal(self, other: "Graph") -> bool:
        mine = {(n.id, n.kind, tuple(sorted(n.attrs.items()))) for n in self.nodes.values()}
        theirs = {(n.id, n.kind, tuple(sorted(n.attrs.items()))) for n in other.nodes.values()}
        return mine == theirs and self.edges == other.edges


def keyword_node_id(token: str) -> str:
    return f"keyword:{token}"


def bow_node_id(token: str) -> str:
    return f"token:{token}"


def external_citation_id(key: str) -> str:
    return f"cite:{key}"


def canonical_doc_key(doc: Document) -> str | None:
    """Normalized citation key a document can be resolved by, if any."""
    raw = doc.metadata.get("citation_string", "")
    if not raw:
        return None
    cits = extract_citations_regex(raw)
    return cits[0].key if cits else None


def build_graph(
    docs: list[Document],
    hierarchy: Hierarchy,
    citations: dict[str, list[Citation]] | None = None,
) -> Graph:
    """Assemble the full property graph for a decomposed corpus.

    Creates one node per document, hierarchy topic, distinct topic keyword,
    vocabulary token, and unresolved citation. Documents link to their leaf
    topic and, through the CHILD_OF chain, to every ancestor topic. Citation
    keys matching a document's own citation key resolve to that document;
    anything else becomes an external_citation node.
    """
    citations = citations or {}
    g = Graph()

    for doc in docs:
        kind = DOC_KIND_BY_TYPE.get(doc.doc_type)
        if kind is None:
            raise DataError(f"document {doc.id!r} has unmappable type {doc.doc_type!r}")
        attrs = {k: v for k, v in sorted(doc.metadata.items())}
        if doc.title:
            attrs["title"] = doc.title
        key = canonical_doc_key(doc)
        if key:
            attrs["citation_key"] = key
        g.add_node(GraphNode(id=doc.id, kind=kind, attrs=attrs))
        g.doc_texts[doc.id] = doc.text

    parent_of: dict[str, str | None] = {}
    for root in hierarchy.roots:
        stack = [(root, None)]
        while stack:
            node, parent = stack.pop()
            attrs = {"depth": str(node.depth), "path": node.id, "size": str(len(node.doc_ids))}
            if node.label:
                attrs["label"] = node.label
            g.add_node(GraphNode(id=node.id, kind="topic", attrs=attrs))
            parent_of[node.id] = parent
            for child in node.children:
                stack.append((child, node.id))

    for topic_id, parent in parent_of.items():
        if parent is not None:
            g.add_edge(topic_id, "CHILD_OF", parent)

    keywords = sorted({kw for n in hierarchy.walk() for kw in n.top_keywords})
    for kw in keywords:
        g.add_node(GraphNode(id=keyword_node_id(kw), kind="keyword", attrs={"token": kw}))
    for node in hierarchy.walk():
        for kw in node.top_keywords:
            g.add_edge(node.id, "TOPIC_HAS_KEYWORD", keyword_node_id(kw))

    # a document links to its leaf topic and transitively to every ancestor
    leaf_of = hierarchy.leaf_of_doc()
    for doc in docs:
        topic = leaf_of.get(doc.id)
        while topic is not None:
            g.add_edge(doc.id, "HAS_TOPIC", topic)
            topic = parent_of.get(topic)

    # MENTIONS_TOKEN edges cover the DF-filtered vocabulary, not every word
    cfg = hierarchy.config
    counts = count_tokens(docs)
    try:
        vocab = build_vocabulary(counts, cfg.min_df(len(docs)), cfg.vocab_max_df_ratio)
    except DataError:
        vocab = None
    if vocab is not None:
        for tok in vocab.tokens:
            g.add_node(GraphNode(id=bow_node_id(tok), kind="bow_token", attrs={"token": tok}))
        mentions = counts.restrict(vocab).tocoo()
        for di, ti in zip(mentions.row, mentions.col):
            g.add_edge(docs[di].id, "MENTIONS_TOKEN", bow_node_id(vocab.tokens[ti]))

    key_to_doc: dict[str, str] = {}
    for doc in docs:
        key = canonical_doc_key(doc)
        if key and key not in key_to_doc:
            key_to_doc[key] = doc.id
    for doc in docs:
        for cit in citations.get(doc.id, []):
            target = key_to_doc.get(cit.key)
            if target is not None:
                cit.resolved_node = target
                g.add_edge(doc.id, "CITES", target)
            else:
                ext_id = external_citation_id(cit.key)
                if ext_id not in g.nodes:
                    g.add_node(GraphNode(
                        id=ext_id, kind="external_citation",
                        attrs={"key": cit.key, "citation_kind": cit.kind},
                    ))
                g.add_edge(doc.id, "CITES", ext_id)

    g.check_integrity()
    return g


@dataclass
class KeywordNeighborhood:
    token: str
    topics_with_keyword: list[str]
    docs_via_topics: dict[str, list[str]]  # node kind -> sorted doc ids
    docs_via_bow: list[str]


def keyword_neighborhood(g: Graph, token: str) -> KeywordNeighborhood:
    """Compare the topic-keyword view of a token with its bag-of-words view.

    Topics listing the token among their keywords, the documents attached to
    those topics (grouped by document kind), and the documents that merely
    mention the token may all differ; that difference is the point.
    """
    topics = sorted(g.in_neighbors(keyword_node_id(token), "TOPIC_HAS_KEYWORD"))
    docs_by_kind: dict[str, set[str]] = {}
    for topic in topics:
        for doc_id in g.in_neighbors(topic, "HAS_TOPIC"):
            kind = g.nodes[doc_id].kind
            docs_by_kind.setdefault(kind, set()).add(doc_id)
    docs_via_bow = sorted(g.in_neighbors(bow_node_id(token), "MENTIONS_TOKEN"))
    return KeywordNeighborhood(
        token=token,
        topics_with_keyword=topics,
        docs_via_topics={k: sorted(v) for k, v in sorted(docs_by_kind.items())},
        docs_via_bow=docs_via_bow,
    )


def count_mentions(g: Graph, phrase: str, kind: str) -> int:
    """Documents of `kind` whose raw text contains `phrase`, case-insensitive.

    Runs against stored document text rather than the token graph so
    multi-word phrases work.
    """
    if not phrase:
        raise ParameterError("phrase must be non-empty")
    if kind not in DOC_KINDS:
        raise ParameterError(f"{kind!r} is not a document kind")
    needle = phrase.lower()
    return sum(
        1
        for node in g.nodes_of_kind(kind)
        if needle in g.doc_texts.get(node.id, "").lower()
    )


def mentioning_docs(g: Graph, phrase: str, kind: str) -> list[str]:
    needle = phrase.lower()
    return sorted(
        node.id
        for node in g.nodes_of_kind(kind)
        if needle in g.doc_texts.get(node.id, "").lower()
    )


def _target_key(g: Graph, node_id: str) -> str:
    node = g.nodes[node_id]
    if node.kind == "external_citation":
        return node.attrs["key"]
    return node.attrs.get("citation_key", node_id)


def common_citations(g: Graph, phrase: str, kind: str, top_n: int) -> list[tuple[str, int]]:
    """Top CITES targets among documents of `kind` that mention `phrase`.

    Counts citing documents per normalized citation key; descending count,
    key ascending on ties.
    """
    if top_n < 1:
        raise ParameterError("top_n must be >= 1")
    counts: dict[str, int] = {}
    for doc_id in mentioning_docs(g, phrase, kind):
        for target in g.out_neighbors(doc_id, "CITES"):
            key = _target_key(g, target)
            counts[key] = counts.get(key, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:top_n]


def _nodes_csv(g: Graph) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "kind", "attrs_json"])
    for node_id in sorted(g.nodes):
        node = g.nodes[node_id]
        writer.writerow([node.id, node.kind, json.dumps(node.attrs, sort_keys=True, ensure_ascii=True)])
    return buf.getvalue()


def _edges_csv(g: Graph) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["head", "relation", "tail"])
    for edge in sorted(g.edges, key=lambda e: (e.head, e.relation, e.tail)):
        writer.writerow([edge.head, edge.relation, edge.tail])
    return buf.getvalue()


def _cypher_escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace("'", "\\'")


def _cypher(g: Graph) -> str:
    lines = []
    for node_id in sorted(g.nodes):
        node = g.nodes[node_id]
        props = ", ".join(
            [f"id: '{_cypher_escape(node.id)}'"]
            + [f"{k}: '{_cypher_escape(v)}'" for k, v in sorted(node.attrs.items())]
        )
        lines.append(f"MERGE (:{node.kind} {{{props}}});")
    for edge in sorted(g.edges, key=lambda e: (e.head, e.relation, e.tail)):
        lines.append(
            f"MATCH (a {{id: '{_cypher_escape(edge.head)}'}}), "
            f"(b {{id: '{_cypher_escape(edge.tail)}'}}) "
            f"MERGE (a)-[:{edge.relation}]->(b);"
        )
    return "\n".join(lines) + "\n"


def _export_meta(g: Graph) -> str:
    node_counts: dict[str, int] = {}
    for node in g.nodes.values():
        node_counts[node.kind] = node_counts.get(node.kind, 0) + 1
    edge_counts: dict[str, int] = {}
    out_by_head_kind: dict[str, int] = {}
    for e in g.edges:
        edge_counts[e.relation] = edge_counts.get(e.relation, 0) + 1
        kind = g.nodes[e.head].kind
        out_by_head_kind[kind] = out_by_head_kind.get(kind, 0) + 1
    return json.dumps(
        {
            "nodes_by_kind": node_counts,
            "edges_by_relation": edge_counts,
            "out_edges_by_head_kind": out_by_head_kind,
            "edge_direction": "edges are counted at the head node; a triple "
                              "(head, relation, tail) points from head to tail",
        },
        sort_keys=True, indent=2,
    ) + "\n"


def export_graph(g: Graph, fmt: str, out_dir: str | Path) -> list[Path]:
    """Write the graph under `out_dir`; returns the files written.

    triplet_csv produces nodes.csv, edges.csv, and a meta.json with per-kind
    counts and the edge-direction convention; cypher produces graph.cypher
    with MERGE statements for nodes then relationships. Output ordering is
    fixed (nodes by id, edges by triple) so exports are byte-reproducible.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if fmt == "triplet_csv":
        nodes_path = out_dir / "nodes.csv"
        edges_path = out_dir / "edges.csv"
        meta_path = out_dir / "meta.json"
        nodes_path.write_text(_nodes_csv(g), encoding="utf-8")
        edges_path.write_text(_edges_csv(g), encoding="utf-8")
        meta_path.write_text(_export_meta(g), encoding="utf-8")
        return [nodes_path, edges_path, meta_path]
    if fmt == "cypher":
        path = out_dir / "graph.cypher"
        path.write_text(_cypher(g), encoding="utf-8")
        return [path]
    raise ParameterError(f"unknown export format {fmt!r}")


def import_triplet_csv(in_dir: str | Path) -> Graph:
    """Rebuild a graph from a triplet_csv export (structure only, no raw text)."""
    in_dir = Path(in_dir)
    g = Graph()
    with (in_dir / "nodes.csv").open(encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            g.add_node(GraphNode(id=row["id"], kind=row["kind"], attrs=json.loads(row["attrs_json"])))
    with (in_dir / "edges.csv").open(encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            g.add_edge(row["head"], row["relation"], row["tail"])
    g.check_integrity()
    return g
