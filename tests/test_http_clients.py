"""HTTP embedding/chat clients against an injected fake transport."""

import logging

import numpy as np
import pytest

from lexigraph import remote
from lexigraph.chat import HttpChatClient
from lexigraph.embeddings import HttpEmbeddingProvider
from lexigraph.errors import ExternalServiceError


@pytest.fixture(autouse=True)
def sleeps(monkeypatch):
    """The backoff of every retry, recorded instead of slept."""
    slept = []
    monkeypatch.setattr(remote.time, "sleep", slept.append)
    return slept


class FakeResponse:
    def __init__(self, payload, status_code=200):
        self._payload = payload
        self.status_code = status_code

    def json(self):
        return self._payload


class FakeSession:
    """Answers each request with the next of `outcomes` (the last one
    repeats): a response to return or an exception to raise."""

    def __init__(self, response=None, error=None, outcomes=None):
        self.outcomes = outcomes or [error or response]
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json, "headers": headers})
        outcome = self.outcomes[min(len(self.requests), len(self.outcomes)) - 1]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


class TestHttpEmbeddingProvider:
    def test_happy_path_and_request_schema(self):
        session = FakeSession(FakeResponse({
            "data": [{"embedding": [1.0, 0.0]}, {"embedding": [0.0, 1.0]}]
        }))
        provider = HttpEmbeddingProvider("http://emb", "model-x", dim=2,
                                         api_key="secret", session=session)
        vecs = provider.embed(["a", "b"])
        assert np.array_equal(vecs, [[1.0, 0.0], [0.0, 1.0]])
        req = session.requests[0]
        assert req["json"] == {"model": "model-x", "input": ["a", "b"]}
        assert req["headers"]["Authorization"] == "Bearer secret"

    def test_http_error_status(self):
        provider = HttpEmbeddingProvider("http://emb", "m", dim=2,
                                         session=FakeSession(FakeResponse({}, 500)))
        with pytest.raises(ExternalServiceError, match="500"):
            provider.embed(["x"])

    def test_transport_error(self):
        provider = HttpEmbeddingProvider("http://emb", "m", dim=2,
                                         session=FakeSession(error=ConnectionError("down")))
        with pytest.raises(ExternalServiceError):
            provider.embed(["x"])

    def test_count_mismatch(self):
        session = FakeSession(FakeResponse({"data": [{"embedding": [1.0, 0.0]}]}))
        provider = HttpEmbeddingProvider("http://emb", "m", dim=2, session=session)
        with pytest.raises(ExternalServiceError, match="mismatch"):
            provider.embed(["a", "b"])

    def test_dim_mismatch(self):
        session = FakeSession(FakeResponse({"data": [{"embedding": [1.0, 0.0, 0.0]}]}))
        provider = HttpEmbeddingProvider("http://emb", "m", dim=2, session=session)
        with pytest.raises(ExternalServiceError, match="dim"):
            provider.embed(["a"])

    @pytest.mark.parametrize("data", [
        [{"embedding": [1.0, 0.0]}, {"embedding": [1.0]}],
        [{"embedding": ["one", "zero"]}, {"embedding": [0.0, 1.0]}],
        [{"embedding": [None, 0.0]}, {"embedding": [0.0, 1.0]}],
        [{"embedding": 1.0}, {"embedding": 0.0}],
        [{"embedding": "ab"}, {"embedding": "cd"}],
        {"embedding": [1.0, 0.0]},
    ], ids=["ragged", "non-numeric", "null", "scalar", "string", "not-a-list"])
    def test_malformed_embeddings_are_service_errors(self, data):
        session = FakeSession(FakeResponse({"data": data}))
        provider = HttpEmbeddingProvider("http://emb", "m", dim=2, session=session)
        with pytest.raises(ExternalServiceError):
            provider.embed(["a", "b"])


class TestHttpChatClient:
    def test_happy_path_and_message_schema(self):
        session = FakeSession(FakeResponse({
            "choices": [{"message": {"content": "the reply"}}]
        }))
        client = HttpChatClient("http://chat", "chat-model", api_key="k", session=session)
        out = client.complete("sys", "user question")
        assert out == "the reply"
        req = session.requests[0]
        assert req["json"]["messages"] == [
            {"role": "system", "content": "sys"},
            {"role": "user", "content": "user question"},
        ]

    def test_empty_system_prompt_omitted(self):
        session = FakeSession(FakeResponse({"choices": [{"message": {"content": "r"}}]}))
        HttpChatClient("http://chat", "m", session=session).complete("", "u")
        assert session.requests[0]["json"]["messages"][0]["role"] == "user"

    def test_malformed_response(self):
        session = FakeSession(FakeResponse({"unexpected": True}))
        client = HttpChatClient("http://chat", "m", session=session)
        with pytest.raises(ExternalServiceError, match="malformed"):
            client.complete("s", "u")

    def test_transport_error(self):
        client = HttpChatClient("http://chat", "m",
                                session=FakeSession(error=TimeoutError("slow")))
        with pytest.raises(ExternalServiceError):
            client.complete("s", "u")


# (client over a session, its call, a good reply and what the call returns for it)
CLIENTS = {
    "embedding": (lambda session: HttpEmbeddingProvider("http://emb", "m", dim=2, session=session),
                  lambda client: client.embed(["a"]).tolist(),
                  {"data": [{"embedding": [1.0, 0.0]}]}, [[1.0, 0.0]]),
    "chat": (lambda session: HttpChatClient("http://chat", "m", session=session),
             lambda client: client.complete("s", "u"),
             {"choices": [{"message": {"content": "the reply"}}]}, "the reply"),
}


@pytest.mark.parametrize("name", sorted(CLIENTS))
class TestRetries:
    def test_fails_twice_then_succeeds(self, name, caplog, sleeps):
        make, call, reply, expected = CLIENTS[name]
        session = FakeSession(outcomes=[ConnectionError("down"), FakeResponse({}, 503), FakeResponse(reply)])
        with caplog.at_level(logging.WARNING, logger="lexigraph.remote"):
            assert call(make(session)) == expected
        assert len(session.requests) == 3
        assert len(caplog.records) == 2 and "503" in caplog.messages[1]
        assert sleeps == [0.5, 1.0]

    @pytest.mark.parametrize("failure", [ConnectionError("down"), FakeResponse({}, 503)],
                             ids=["raises", "status-503"])
    def test_always_failing_gives_up_after_3_retries(self, name, sleeps, failure):
        make, call, _, _ = CLIENTS[name]
        session = FakeSession(outcomes=[failure])
        with pytest.raises(ExternalServiceError, match="after 3 retries"):
            call(make(session))
        assert len(session.requests) == 4
        assert sleeps == [0.5, 1.0, 2.0]

    def test_malformed_reply_is_not_retried(self, name, sleeps):
        make, call, _, _ = CLIENTS[name]
        session = FakeSession(FakeResponse({"unexpected": True}))
        with pytest.raises(ExternalServiceError, match="malformed"):
            call(make(session))
        assert len(session.requests) == 1 and sleeps == []
