"""Directional-triplet property graph over documents, topics, keywords,
vocabulary tokens, and legal citations.

The graph is an in-memory adjacency structure that holds each edge once, in
its head's out-neighbour set and its tail's in-neighbour set; exports (CSV
triples or a Cypher script) are byte-deterministic so two builds of the same
corpus can be diffed. A citation that resolves to a corpus document is
recorded only as that document's CITES edge. Keyword and bag-of-words token
nodes are deliberately distinct: a topic carries only its top keywords, while
MENTIONS_TOKEN edges cover every vocabulary token a document contains.
"""

from __future__ import annotations

import csv
import io
import json
import operator
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from .citations import Citation, extract_citations_regex
from .corpus import Document, count_tokens
from .errors import DataError, ParameterError, data_errors, from_json, write_file
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

# properties a document node takes from the document itself, never from its metadata
DOC_OWN_KEYS = frozenset({"id", "title", "citation_key"})


@dataclass
class GraphNode:
    id: str
    kind: str
    attrs: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in NODE_KINDS:
            raise DataError(f"unknown node kind {self.kind!r}")
        if self.kind == "external_citation" and "key" not in self.attrs:
            raise DataError(f"external_citation node {self.id!r} has no key attr")
        if "id" in self.attrs:
            raise DataError(f"node {self.id!r} has an id attr; its node id is its only id")


class GraphEdge(NamedTuple):
    head: str
    relation: str
    tail: str


class Graph:
    """Nodes by id plus deduplicated directional edges, each held once in
    the out-neighbour sets and once in the in-neighbour sets."""

    def __init__(self):
        self.nodes: dict[str, GraphNode] = {}
        # raw text for phrase queries, not exported; `folded_text` lower-cases
        # each document's text once and caches it
        self.doc_texts: dict[str, str] = {}
        self._folded: dict[str, tuple[str, str]] = {}  # doc id -> (raw text, raw.lower())
        self._by_kind: dict[str, list[GraphNode]] = {}  # in insertion order
        self._out: dict[tuple[str, str], set[str]] = {}
        self._in: dict[tuple[str, str], set[str]] = {}

    def add_node(self, node: GraphNode) -> None:
        if node.id in self.nodes:
            raise DataError(f"duplicate node id {node.id!r}")
        self.nodes[node.id] = node
        self._by_kind.setdefault(node.kind, []).append(node)

    def add_edge(self, head: str, relation: str, tail: str) -> None:
        if head not in self.nodes:
            raise DataError(f"edge head {head!r} does not exist")
        if tail not in self.nodes:
            raise DataError(f"edge tail {tail!r} does not exist")
        if relation not in RELATIONS:
            raise DataError(f"unknown relation {relation!r}")
        self._out.setdefault((head, relation), set()).add(tail)
        self._in.setdefault((tail, relation), set()).add(head)

    @property
    def edges(self) -> list[GraphEdge]:
        """Every edge, in no particular order; built on each read."""
        return [GraphEdge(head, relation, tail)
                for (head, relation), tails in self._out.items() for tail in tails]

    def out_neighbors(self, head: str, relation: str) -> set[str]:
        return self._out.get((head, relation), set())

    def in_neighbors(self, tail: str, relation: str) -> set[str]:
        return self._in.get((tail, relation), set())

    def nodes_of_kind(self, kind: str) -> list[GraphNode]:
        return list(self._by_kind.get(kind, ()))

    def folded_text(self, doc_id: str) -> str:
        """`doc_texts[doc_id].lower()` ("" without a text), folded once per text.

        The cache keeps the raw string it folded and folds again when
        `doc_texts[doc_id]` is no longer that very object, so callers may
        assign texts directly at any time. Two threads racing on one text
        at worst both fold it; each gets the right result.
        """
        raw = self.doc_texts.get(doc_id, "")
        cached = self._folded.get(doc_id)
        if cached is None or cached[0] is not raw:
            cached = (raw, raw.lower())
            self._folded[doc_id] = cached
        return cached[1]


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
    topic and, through the CHILD_OF chain, to every ancestor topic. A citation
    whose key matches a document's own citation key resolves to that document,
    recorded only as a CITES edge to it (`citations` is not modified);
    anything else becomes an external_citation node. A document's metadata
    becomes its node's attrs; a metadata key in DOC_OWN_KEYS is a DataError.
    """
    citations = citations or {}
    g = Graph()

    key_to_doc: dict[str, str] = {}
    for doc in docs:
        clash = sorted(DOC_OWN_KEYS & doc.metadata.keys())
        if clash:
            raise DataError(f"document {doc.id!r} has metadata key(s) {', '.join(clash)}, "
                            "which the graph sets from the document itself; rename them")
        attrs = dict(doc.metadata)
        if doc.title:
            attrs["title"] = doc.title
        key = canonical_doc_key(doc)
        if key:
            attrs["citation_key"] = key
            key_to_doc.setdefault(key, doc.id)
        g.add_node(GraphNode(id=doc.id, kind=DOC_KIND_BY_TYPE[doc.doc_type], attrs=attrs))
        g.doc_texts[doc.id] = doc.text

    keywords = sorted({kw for n in hierarchy.walk() for kw in n.top_keywords})
    for kw in keywords:
        g.add_node(GraphNode(id=keyword_node_id(kw), kind="keyword", attrs={"token": kw}))
    for node in hierarchy.walk():
        attrs = {"depth": str(node.depth), "path": node.id, "size": str(len(node.doc_ids))}
        if node.label:
            attrs["label"] = node.label
        g.add_node(GraphNode(id=node.id, kind="topic", attrs=attrs))
        for kw in node.top_keywords:
            g.add_edge(node.id, "TOPIC_HAS_KEYWORD", keyword_node_id(kw))
    parent_of = {child.id: node.id for node in hierarchy.walk() for child in node.children}
    for topic_id, parent in parent_of.items():
        g.add_edge(topic_id, "CHILD_OF", parent)

    # a document links to its leaf topic and transitively to every ancestor
    leaf_of = hierarchy.leaf_of_doc()
    for doc in docs:
        topic = leaf_of.get(doc.id)
        while topic is not None:
            g.add_edge(doc.id, "HAS_TOPIC", topic)
            topic = parent_of.get(topic)

    # MENTIONS_TOKEN edges cover the DF-filtered vocabulary, not every word
    counts = count_tokens(docs)
    try:
        vocab = hierarchy.config.vocabulary(counts)
    except DataError:
        vocab = ()
    for tok in vocab:
        g.add_node(GraphNode(id=bow_node_id(tok), kind="bow_token", attrs={"token": tok}))
    mentions = counts.restrict(vocab).tocoo()
    for di, ti in zip(mentions.row, mentions.col):
        g.add_edge(docs[di].id, "MENTIONS_TOKEN", bow_node_id(vocab[ti]))

    for doc in docs:
        for cit in citations.get(doc.id, []):
            target = key_to_doc.get(cit.key)
            if target is not None:
                g.add_edge(doc.id, "CITES", target)
            else:
                ext_id = external_citation_id(cit.key)
                if ext_id not in g.nodes:
                    g.add_node(GraphNode(
                        id=ext_id, kind="external_citation",
                        attrs={"key": cit.key, "citation_kind": cit.kind},
                    ))
                g.add_edge(doc.id, "CITES", ext_id)
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


def mentioning_docs(g: Graph, phrase: str, kind: str) -> list[str]:
    """Sorted ids of the documents of `kind` whose raw text contains `phrase`,
    case-insensitive.

    Runs against stored document text rather than the token graph so
    multi-word phrases work. Each document's text is lower-cased once and
    cached (`Graph.folded_text`); only the phrase is folded per query.
    """
    if not phrase:
        raise ParameterError("phrase must be non-empty")
    if kind not in DOC_KINDS:
        raise ParameterError(f"{kind!r} is not a document kind")
    needle = phrase.lower()
    return sorted(node.id for node in g.nodes_of_kind(kind) if needle in g.folded_text(node.id))


def count_mentions(g: Graph, phrase: str, kind: str) -> int:
    """Number of documents of `kind` whose raw text contains `phrase`,
    case-insensitive; the text of each document is folded once and cached."""
    return len(mentioning_docs(g, phrase, kind))


def _target_key(g: Graph, node_id: str) -> str:
    node = g.nodes[node_id]
    if node.kind == "external_citation":
        return node.attrs["key"]
    return node.attrs.get("citation_key", node_id)


def common_citations(g: Graph, phrase: str, kind: str, top_n: int) -> list[tuple[str, int]]:
    """Top CITES targets among documents of `kind` that mention `phrase`.

    Counts citing documents per normalized citation key; descending count,
    key ascending on ties. The phrase and kind are checked as in
    `mentioning_docs`.
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


def _edges_csv(edges: list[GraphEdge]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["head", "relation", "tail"])
    writer.writerows(edges)
    return buf.getvalue()


def _cypher_escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace("'", "\\'")


_CYPHER_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _cypher_key(key: str) -> str:
    """A property key as Cypher reads it: plain names as they are, any other
    key backtick-quoted with its backticks doubled."""
    return key if _CYPHER_NAME.fullmatch(key) else "`" + key.replace("`", "``") + "`"


def _cypher(g: Graph) -> str:
    lines = []
    for node_id in sorted(g.nodes):
        node = g.nodes[node_id]
        props = ", ".join(
            [f"id: '{_cypher_escape(node.id)}'"]
            + [f"{_cypher_key(k)}: '{_cypher_escape(v)}'" for k, v in sorted(node.attrs.items())]
        )
        lines.append(f"MERGE (:{node.kind} {{{props}}});")
    for edge in sorted(g.edges):
        lines.append(
            f"MATCH (a {{id: '{_cypher_escape(edge.head)}'}}), "
            f"(b {{id: '{_cypher_escape(edge.tail)}'}}) "
            f"MERGE (a)-[:{edge.relation}]->(b);"
        )
    return "\n".join(lines) + "\n"


def _export_meta(g: Graph, edges: list[GraphEdge]) -> str:
    node_counts: dict[str, int] = {}
    for node in g.nodes.values():
        node_counts[node.kind] = node_counts.get(node.kind, 0) + 1
    edge_counts: dict[str, int] = {}
    out_by_head_kind: dict[str, int] = {}
    for e in edges:
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
    if fmt == "triplet_csv":
        nodes_path = out_dir / "nodes.csv"
        edges_path = out_dir / "edges.csv"
        meta_path = out_dir / "meta.json"
        edges = sorted(g.edges)  # built once, for edges.csv and meta.json
        # nodes.csv first: it holds every id in edges.csv, and meta.json is ASCII
        write_file(nodes_path, _nodes_csv(g))
        write_file(edges_path, _edges_csv(edges))
        write_file(meta_path, _export_meta(g, edges))
        return [nodes_path, edges_path, meta_path]
    if fmt == "cypher":
        path = out_dir / "graph.cypher"
        write_file(path, _cypher(g))
        return [path]
    raise ParameterError(f"unknown export format {fmt!r}")


def _csv_rows(path: Path, columns: tuple[str, ...]):
    """Each data row of a triplet_csv file, as a tuple of its values in
    `columns` order; a row of another width than the header is a DataError."""
    with path.open(encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [c for c in columns if c not in header]
        if missing:
            raise DataError(f"missing column(s) {', '.join(missing)}")
        pick = operator.itemgetter(*(header.index(c) for c in columns))
        for row in reader:
            if len(row) == len(header):
                yield pick(row)
            elif row:  # a blank line is skipped
                raise DataError(f"line {reader.line_num} has {len(row)} fields, the header {len(header)}")


def import_triplet_csv(in_dir: str | Path) -> Graph:
    """Rebuild a graph from a triplet_csv export (structure only, no raw text).

    A missing file, an undecodable or truncated row, a missing column, an
    `attrs_json` that is not a JSON object of strings, or an
    external_citation node without a `key` attr is a DataError naming the
    file.
    """
    in_dir = Path(in_dir)
    g = Graph()
    nodes_path = in_dir / "nodes.csv"
    with data_errors(nodes_path):
        for node_id, kind, attrs_json in _csv_rows(nodes_path, ("id", "kind", "attrs_json")):
            attrs = from_json(dict[str, str], json.loads(attrs_json))
            g.add_node(GraphNode(id=node_id, kind=kind, attrs=attrs))
    edges_path = in_dir / "edges.csv"
    with data_errors(edges_path):
        for head, relation, tail in _csv_rows(edges_path, ("head", "relation", "tail")):
            g.add_edge(head, relation, tail)
    return g
