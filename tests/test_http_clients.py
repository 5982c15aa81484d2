"""HTTP embedding/chat clients against an injected fake transport."""

import numpy as np
import pytest

from lexigraph.chat import HttpChatClient
from lexigraph.embeddings import HttpEmbeddingProvider
from lexigraph.errors import ExternalServiceError


class FakeResponse:
    def __init__(self, payload, status_code=200):
        self._payload = payload
        self.status_code = status_code

    def json(self):
        return self._payload


class FakeSession:
    def __init__(self, response=None, error=None):
        self.response = response
        self.error = error
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json, "headers": headers})
        if self.error:
            raise self.error
        return self.response


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
