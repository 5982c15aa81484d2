import re

import pytest

import lexigraph.graph
import lexigraph.rag
from lexigraph.chat import StubChatClient
from lexigraph.chunking import Chunk
from lexigraph.citations import extract_citations_regex
from lexigraph.corpus import Document
from lexigraph.embeddings import DeterministicEmbedder
from lexigraph.errors import ExternalServiceError
from lexigraph.graph import build_graph
from lexigraph.rag import (
    REFUSAL_TEXT,
    Session,
    answer,
    classify_query,
    follow_up,
)
from lexigraph.vectorstore import build_index

from conftest import manual_hierarchy


def fixture_world():
    docs = [
        Document(id="sup-1", doc_type="supreme_case",
                 text="habeas corpus petition denied for procedural reasons",
                 metadata={"citation_string": "One v. State, 1980"}),
        Document(id="sup-2", doc_type="supreme_case",
                 text="this opinion discusses habeas corpus at length with water rights",
                 metadata={"citation_string": "Two v. State, 1981"}),
        Document(id="sup-3", doc_type="supreme_case",
                 text="a water rights allocation dispute between irrigation districts",
                 metadata={}),
        Document(id="app-1", doc_type="appeals_case",
                 text="malpractice appeal citing NMSA 1978, § 41-5-1 and Smith v. South, 1955",
                 metadata={}),
    ]
    hierarchy = manual_hierarchy(
        {"habeas": ["sup-1", "sup-2"], "water": ["sup-3", "app-1"]},
        keywords={"habeas": ["habeas", "corpus"], "water": ["water", "rights"]},
    )
    citations = {d.id: extract_citations_regex(d.text) for d in docs}
    graph = build_graph(docs, hierarchy, citations)
    provider = DeterministicEmbedder(dim=128)
    chunks = [Chunk(doc_id=d.id, index=0, unit="words", start=0,
                    end=len(d.text.split()), text=d.text) for d in docs]
    index = {None: build_index(chunks, provider)}
    return docs, graph, index, provider


class TestClassifyQuery:
    def test_quantitative(self):
        plan = classify_query("How many New Mexico Supreme Court cases mention 'Habeas Corpus'?")
        assert plan.mode == "quantitative"
        assert (plan.phrase, plan.kind) == ("Habeas Corpus", "supreme_case")

    def test_citation_pattern(self):
        plan = classify_query(
            "What are common citations among New Mexico Court of Appeals cases "
            "that mention 'malpractice'?"
        )
        assert plan.mode == "citation_pattern"
        assert plan.kind == "appeals_case"

    def test_semantic(self):
        plan = classify_query(
            "What happens to a bill if the governor neither returns it within "
            "the specified three-day window (Sundays excepted) nor signs it?"
        )
        assert plan.mode == "semantic"
        assert plan.phrase is None

    @pytest.mark.parametrize("question, phrase", [
        ("How many of the state's Supreme Court cases mention 'habeas corpus'?", "habeas corpus"),
        ("How many cases mention 'the court's ruling'?", "the court's ruling"),
    ])
    def test_in_word_apostrophe_is_not_a_quote(self, question, phrase):
        plan = classify_query(question)
        assert plan.mode == "quantitative"
        assert plan.phrase == phrase

    def test_quantitative_without_phrase_is_semantic(self):
        assert classify_query("How many cases are there?").mode == "semantic"

    def test_empty_query_rejected(self):
        with pytest.raises(Exception):
            classify_query("   ")


class TestQuantitativeAnswers:
    def test_count_from_graph_not_llm(self):
        docs, graph, index, provider = fixture_world()
        chat = StubChatClient("SHOULD NEVER BE CALLED")
        session = Session(id="s1")
        result = answer("How many Supreme Court cases mention 'habeas corpus'?",
                        session, graph, index, provider, chat)
        assert result.text == "There are 2 Supreme Court cases that mention 'habeas corpus.'"
        assert chat.calls == []
        assert result.kg_facts[0][1] == 2
        assert result.sources

    def test_numbers_in_text_covered_by_facts(self):
        docs, graph, index, provider = fixture_world()
        session = Session(id="s2")
        result = answer("How many Supreme Court cases mention 'water'?",
                        session, graph, index, provider, StubChatClient(""))
        fact_digits = set(re.findall(r"\d+", " ".join(str(v) for _, v in result.kg_facts)))
        for number in re.findall(r"\d+", result.text):
            assert number in fact_digits

    def test_citation_pattern_answer(self):
        docs, graph, index, provider = fixture_world()
        session = Session(id="s3")
        result = answer("What are common citations among appeals court cases "
                        "that mention 'malpractice'?",
                        session, graph, index, provider, StubChatClient(""))
        assert "NMSA 41-5-1 with 1 cases" in result.text
        keys = {v for name, v in result.kg_facts if name.endswith(".key")}
        assert {"NMSA 41-5-1", "SMITH V. SOUTH (1955)"} == keys
        counts = [v for name, v in result.kg_facts if name.endswith(".count")]
        assert all(c == 1 for c in counts)


class TestSemanticAnswers:
    def test_stub_chat_answer_and_sources(self):
        docs, graph, index, provider = fixture_world()
        chat = StubChatClient("The answer, per [sup-3#00000].")
        session = Session(id="s4")
        result = answer("Tell me about the water rights allocation dispute",
                        session, graph, index, provider, chat)
        assert result.text == "The answer, per [sup-3#00000]."
        assert not result.refused
        source_ids = [doc_id for doc_id, _ in result.sources]
        assert "sup-3" in source_ids
        # keyword facts attach because "water" is a topic keyword
        assert any(name.startswith("keyword_topics") for name, _ in result.kg_facts)

    def test_keyword_facts_read_only_the_topic_edges(self, monkeypatch):
        # a fact lists the topics naming a query token as a keyword; building
        # that token's whole neighbourhood (every document of every topic,
        # every mentioning document) for it is work the answer throws away
        docs, graph, index, provider = fixture_world()

        def whole_neighbourhood(*args):
            raise AssertionError("keyword_neighborhood called")

        monkeypatch.setattr(lexigraph.graph, "keyword_neighborhood", whole_neighbourhood)
        monkeypatch.setattr(lexigraph.rag, "keyword_neighborhood", whole_neighbourhood, raising=False)
        result = answer("What about habeas corpus and water rights?", Session(id="s4k"),
                        graph, index, provider, StubChatClient("ok"))
        assert result.kg_facts == [
            ("keyword_topics('corpus')", ["root/0"]),
            ("keyword_topics('habeas')", ["root/0"]),
            ("keyword_topics('rights')", ["root/1"]),
            ("keyword_topics('water')", ["root/1"]),
        ]

    def test_refusal_when_below_threshold(self):
        docs, graph, index, provider = fixture_world()
        chat = StubChatClient("SHOULD NOT RUN")
        session = Session(id="s5")
        result = answer("zzz qqq vvv completely unrelated gibberish words",
                        session, graph, index, provider, chat,
                        score_threshold=0.9)
        assert result.refused
        assert result.text == REFUSAL_TEXT
        assert result.sources == []
        assert chat.calls == []

    def test_chat_failure_is_external_service_error_and_records_no_turn(self):
        docs, graph, index, provider = fixture_world()

        class Down:
            def complete(self, s, u):
                raise ConnectionError("boom")

        session = Session(id="s6")
        with pytest.raises(ExternalServiceError, match="^chat completion failed: boom$"):
            answer("water rights allocation dispute", session, graph, index,
                   provider, Down())
        assert not session.turns

    def test_prompt_forbids_uncited_claims(self):
        docs, graph, index, provider = fixture_world()
        chat = StubChatClient("ok")
        answer("water rights allocation dispute", Session(id="s7"), graph,
               index, provider, chat)
        system_prompt = chat.calls[0][0]
        assert "cite" in system_prompt.lower()

    def test_routed_topic_with_partitioned_indexes(self):
        docs, graph, _, provider = fixture_world()
        by_topic = {}
        groups = {"root/0": ["sup-1", "sup-2"], "root/1": ["sup-3", "app-1"]}
        by_id = {d.id: d for d in docs}
        for tid, ids in groups.items():
            chunks = [Chunk(doc_id=i, index=0, unit="words", start=0,
                            end=len(by_id[i].text.split()), text=by_id[i].text)
                      for i in ids]
            by_topic[tid] = build_index(chunks, provider, topic_id=tid)
        chat = StubChatClient("routed answer")
        result = answer("irrigation water allocation dispute", Session(id="s8"),
                        graph, by_topic, provider, chat)
        assert result.routed_topic == "root/1"


class TestSessions:
    def test_window_eviction(self):
        s = Session(id="w", window=5)
        for i in range(6):
            s.record(f"q{i}", f"a{i}")
        assert len(s.turns) == 5
        assert s.turns[0] == ("q1", "a1")

    def test_follow_up_includes_history(self):
        docs, graph, index, provider = fixture_world()
        chat = StubChatClient(lambda s, u: u)  # echo the prompt back
        session = Session(id="f1")
        answer("water rights allocation dispute", session, graph, index, provider, chat)
        first_answer = session.turns[-1][1]
        result = follow_up("tell me more about the irrigation districts",
                           session, graph, index, provider, chat)
        assert "Previous conversation:" in result.text
        assert first_answer[:40] in result.text

    def test_follow_up_with_empty_session_matches_answer(self):
        docs, graph, index, provider = fixture_world()
        chat = StubChatClient(lambda s, u: u)
        r1 = answer("water rights allocation dispute", Session(id="a"),
                    graph, index, provider, chat)
        r2 = follow_up("water rights allocation dispute", Session(id="b"),
                       graph, index, provider, chat)
        assert r1.text == r2.text

    def test_old_turns_leave_the_prompt(self):
        docs, graph, index, provider = fixture_world()
        chat = StubChatClient(lambda s, u: u)
        session = Session(id="f2", window=2)
        for i in range(4):
            answer(f"water rights dispute number {i}", session, graph, index,
                   provider, chat)
        result = follow_up("more about water", session, graph, index, provider, chat)
        assert "number 0" not in result.text
        assert "number 3" in result.text
