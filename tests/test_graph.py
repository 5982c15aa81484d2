import pytest

from lexigraph import corpus
from lexigraph.citations import extract_citations_regex
from lexigraph.corpus import Document
from lexigraph.errors import DataError, ParameterError
from lexigraph.graph import (
    Graph,
    GraphNode,
    bow_node_id,
    build_graph,
    common_citations,
    count_mentions,
    export_graph,
    import_triplet_csv,
    keyword_neighborhood,
    keyword_node_id,
)

from conftest import manual_hierarchy


def legal_docs():
    return [
        Document(
            id="stat-41-5-1", doc_type="statute", title="Medical Malpractice Act",
            text="malpractice claims procedure for health care providers",
            metadata={"citation_string": "NMSA 1978, § 41-5-1"},
        ),
        Document(
            id="case-sup-1", doc_type="supreme_case", title="Cervantes v. Forbis",
            text="habeas corpus petition and malpractice standard see NMSA 1978, § 41-5-1",
            metadata={"citation_string": "Cervantes v. Forbis, 1964"},
        ),
        Document(
            id="case-app-1", doc_type="appeals_case", title="Appeal One",
            text="malpractice appeal citing GOODMAN v. BROCK (1972) and NMSA 1978, § 41-5-1",
            metadata={},
        ),
        Document(
            id="case-app-2", doc_type="appeals_case", title="Appeal Two",
            text="water rights dispute mentions habeas corpus in passing",
            metadata={},
        ),
    ]


def build_legal_graph():
    docs = legal_docs()
    hierarchy = manual_hierarchy(
        {"malpractice": ["stat-41-5-1", "case-sup-1", "case-app-1"],
         "water": ["case-app-2"]},
        keywords={"malpractice": ["malpractice", "claims"], "water": ["water", "rights"]},
    )
    citations = {d.id: extract_citations_regex(d.text) for d in docs}
    return docs, build_graph(docs, hierarchy, citations)


class TestGraphPrimitives:
    def test_duplicate_node_rejected(self):
        g = Graph()
        g.add_node(GraphNode(id="x", kind="topic"))
        with pytest.raises(DataError):
            g.add_node(GraphNode(id="x", kind="topic"))

    def test_edge_requires_endpoints(self):
        g = Graph()
        g.add_node(GraphNode(id="a", kind="topic"))
        with pytest.raises(DataError):
            g.add_edge("a", "CHILD_OF", "missing")

    def test_edges_deduplicate(self):
        g = Graph()
        g.add_node(GraphNode(id="a", kind="topic"))
        g.add_node(GraphNode(id="b", kind="topic"))
        g.add_edge("a", "CHILD_OF", "b")
        g.add_edge("a", "CHILD_OF", "b")
        assert len(g.edges) == 1

    def test_unknown_kind_and_relation(self):
        with pytest.raises(DataError):
            GraphNode(id="x", kind="mystery")
        g = Graph()
        g.add_node(GraphNode(id="a", kind="topic"))
        g.add_node(GraphNode(id="b", kind="topic"))
        with pytest.raises(DataError):
            g.add_edge("a", "LINKS_TO", "b")


class TestBuildGraph:
    def test_single_doc_graph_shape(self):
        docs = [Document(id="d1", doc_type="generic", text="water law appeal water")]
        hierarchy = manual_hierarchy({"all": ["d1"]}, keywords={"all": ["water", "law"]})
        g = build_graph(docs, hierarchy, {})
        kinds = {n.kind for n in g.nodes.values()}
        assert "generic_doc" in kinds and "topic" in kinds and "keyword" in kinds
        has_topic = [e for e in g.edges if e.relation == "HAS_TOPIC"]
        assert len(has_topic) == 1
        assert has_topic[0].head == "d1" and has_topic[0].tail == "root/0"

    def test_citation_resolution_to_document(self):
        _, g = build_legal_graph()
        resolved = [e for e in g.edges
                    if e.relation == "CITES" and e.tail == "stat-41-5-1"]
        assert {e.head for e in resolved} == {"case-sup-1", "case-app-1"}
        # GOODMAN v. BROCK has no matching document: external node
        ext = [n for n in g.nodes.values() if n.kind == "external_citation"]
        assert any(n.attrs["key"] == "GOODMAN V. BROCK (1972)" for n in ext)

    def test_doc_links_to_leaf_and_ancestors(self):
        docs = [Document(id=f"d{i}", doc_type="generic", text=f"alpha beta w{i}")
                for i in range(4)]
        hierarchy = manual_hierarchy({"grp": [d.id for d in docs]})
        child = type(hierarchy.roots[0])(
            id="root/0/0", depth=1, doc_ids=[d.id for d in docs], top_keywords=[]
        )
        hierarchy.roots[0].children = [child]
        hierarchy.roots[0].selected_k = 1
        g = build_graph(docs, hierarchy, {})
        for d in docs:
            targets = g.out_neighbors(d.id, "HAS_TOPIC")
            assert targets == {"root/0/0", "root/0"}
        assert g.out_neighbors("root/0/0", "CHILD_OF") == {"root/0"}

    def test_mentions_token_edges_restricted_to_vocabulary(self):
        docs, g = build_legal_graph()
        bow_nodes = {n.id for n in g.nodes.values() if n.kind == "bow_token"}
        # "malpractice" passes the DF filter; it must have mention edges
        assert bow_node_id("malpractice") in bow_nodes
        heads = g.in_neighbors(bow_node_id("malpractice"), "MENTIONS_TOKEN")
        assert heads == {"stat-41-5-1", "case-sup-1", "case-app-1"}

    def test_tokenizes_each_document_once(self, monkeypatch):
        calls = []
        tokenize = corpus.tokenize
        monkeypatch.setattr(corpus, "tokenize", lambda text: calls.append(text) or tokenize(text))
        docs, _ = build_legal_graph()
        assert len(calls) == len(docs)


class TestQueries:
    def test_keyword_neighborhood_matches_brute_force(self):
        _, g = build_legal_graph()
        hood = keyword_neighborhood(g, "malpractice")
        # brute force over raw edge triples
        kw = keyword_node_id("malpractice")
        topics = sorted(e.head for e in g.edges
                        if e.relation == "TOPIC_HAS_KEYWORD" and e.tail == kw)
        assert hood.topics_with_keyword == topics
        expect_docs = {}
        for e in g.edges:
            if e.relation == "HAS_TOPIC" and e.tail in topics:
                expect_docs.setdefault(g.nodes[e.head].kind, set()).add(e.head)
        assert hood.docs_via_topics == {k: sorted(v) for k, v in sorted(expect_docs.items())}
        bow = sorted(e.head for e in g.edges
                     if e.relation == "MENTIONS_TOKEN" and e.tail == bow_node_id("malpractice"))
        assert hood.docs_via_bow == bow

    def test_keyword_vs_bow_views_differ(self):
        _, g = build_legal_graph()
        hood = keyword_neighborhood(g, "malpractice")
        via_topics = {d for ids in hood.docs_via_topics.values() for d in ids}
        assert set(hood.docs_via_bow) == via_topics  # here they coincide
        # "habeas" is mentioned but is no topic keyword: views must differ
        hood2 = keyword_neighborhood(g, "habeas")
        assert hood2.topics_with_keyword == []
        assert hood2.docs_via_bow  # mentioned in two documents

    def test_unknown_token_is_empty_not_error(self):
        _, g = build_legal_graph()
        hood = keyword_neighborhood(g, "nonexistent")
        assert hood.topics_with_keyword == [] and hood.docs_via_bow == []

    def test_count_mentions_linear_scan_oracle(self):
        docs, g = build_legal_graph()
        for phrase, kind in [("habeas corpus", "supreme_case"),
                             ("habeas corpus", "appeals_case"),
                             ("malpractice", "appeals_case"),
                             ("absent-phrase", "supreme_case")]:
            expected = sum(
                1 for d in docs
                if d.doc_type == {"supreme_case": "supreme_case",
                                  "appeals_case": "appeals_case"}[kind]
                and phrase.lower() in d.text.lower()
            )
            assert count_mentions(g, phrase, kind) == expected

    def test_count_mentions_case_insensitive(self):
        _, g = build_legal_graph()
        assert count_mentions(g, "HABEAS CORPUS", "supreme_case") == 1

    def test_count_mentions_validation(self):
        _, g = build_legal_graph()
        with pytest.raises(ParameterError):
            count_mentions(g, "", "supreme_case")
        with pytest.raises(ParameterError):
            count_mentions(g, "x", "topic")

    def test_common_citations_hand_tally(self):
        _, g = build_legal_graph()
        ranked = common_citations(g, "malpractice", "appeals_case", top_n=5)
        # one appeals case mentions malpractice; it cites the statute and Goodman
        assert ("NMSA 41-5-1", 1) in ranked
        assert ("GOODMAN V. BROCK (1972)", 1) in ranked
        # ties broken by key ascending
        assert ranked == sorted(ranked, key=lambda kv: (-kv[1], kv[0]))

    def test_common_citations_empty_phrase_match(self):
        _, g = build_legal_graph()
        assert common_citations(g, "zebra", "appeals_case", top_n=3) == []

    def test_containment_sanity(self):
        # every resolved citer of the statute also counts as mentioning its raw form
        _, g = build_legal_graph()
        n_mention = count_mentions(g, "41-5-1", "supreme_case")
        citers = [h for h in g.in_neighbors("stat-41-5-1", "CITES")
                  if g.nodes[h].kind == "supreme_case"]
        assert n_mention >= len(citers)


class TestExportImport:
    def test_round_trip_isomorphic(self, tmp_path):
        _, g = build_legal_graph()
        export_graph(g, "triplet_csv", tmp_path)
        g2 = import_triplet_csv(tmp_path)
        assert g.structurally_equal(g2)

    def test_export_byte_stable(self, tmp_path):
        _, g = build_legal_graph()
        export_graph(g, "triplet_csv", tmp_path / "a")
        export_graph(g, "triplet_csv", tmp_path / "b")
        for name in ("nodes.csv", "edges.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_empty_graph_headers_only(self, tmp_path):
        g = Graph()
        export_graph(g, "triplet_csv", tmp_path)
        assert (tmp_path / "nodes.csv").read_text().strip() == "id,kind,attrs_json"
        assert (tmp_path / "edges.csv").read_text().strip() == "head,relation,tail"

    def test_two_node_one_edge_row_count(self, tmp_path):
        g = Graph()
        g.add_node(GraphNode(id="a", kind="topic"))
        g.add_node(GraphNode(id="b", kind="topic"))
        g.add_edge("a", "CHILD_OF", "b")
        export_graph(g, "triplet_csv", tmp_path)
        node_rows = (tmp_path / "nodes.csv").read_text().strip().splitlines()[1:]
        edge_rows = (tmp_path / "edges.csv").read_text().strip().splitlines()[1:]
        assert len(node_rows) + len(edge_rows) == 3

    def test_cypher_export(self, tmp_path):
        _, g = build_legal_graph()
        (path,) = export_graph(g, "cypher", tmp_path)
        text = path.read_text(encoding="utf-8")
        assert text.startswith("MERGE (:")
        assert "MERGE (a)-[:HAS_TOPIC]->(b);" in text
        # nodes come before relationships
        assert text.index("MERGE (:") < text.index("MATCH (a")

    def test_unknown_format(self, tmp_path):
        g = Graph()
        with pytest.raises(ParameterError):
            export_graph(g, "graphml", tmp_path)

    def test_citation_objects_get_resolved_node(self):
        docs = legal_docs()
        hierarchy = manual_hierarchy({"all": [d.id for d in docs]})
        cits = {d.id: extract_citations_regex(d.text) for d in docs}
        build_graph(docs, hierarchy, cits)
        statute_cits = [c for c in cits["case-sup-1"] if c.key == "NMSA 41-5-1"]
        assert statute_cits and statute_cits[0].resolved_node == "stat-41-5-1"
