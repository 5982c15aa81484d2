"""Chat-completion clients: an HTTP client for the common chat JSON schema,
which sends through `remote.post_json` and so retries a failed request, and
deterministic stubs for offline runs and tests."""

from __future__ import annotations

from typing import Callable, Protocol

from .errors import ExternalServiceError
from .remote import new_session, post_json


class ChatClient(Protocol):
    def complete(self, system_prompt: str, user_prompt: str) -> str: ...


class StubChatClient:
    """Deterministic stand-in; replies via a callable or a fixed string.

    Records every (system, user) prompt pair for assertions.
    """

    def __init__(self, reply: str | Callable[[str, str], str] = ""):
        self._reply = reply
        self.calls: list[tuple[str, str]] = []

    def complete(self, system_prompt: str, user_prompt: str) -> str:
        self.calls.append((system_prompt, user_prompt))
        if callable(self._reply):
            return self._reply(system_prompt, user_prompt)
        return self._reply


class HttpChatClient:
    """Client for a remote chat-completions endpoint.

    Request: POST {"model": ..., "messages": [{role, content}, ...]};
    response: {"choices": [{"message": {"content": ...}}]}.
    """

    def __init__(self, endpoint: str, model: str, api_key: str | None = None,
                 timeout: float = 60.0, session=None):
        self.endpoint = endpoint
        self.model = model
        self.api_key = api_key
        self.timeout = timeout
        self._session = session if session is not None else new_session()

    def complete(self, system_prompt: str, user_prompt: str) -> str:
        messages = []
        if system_prompt:
            messages.append({"role": "system", "content": system_prompt})
        messages.append({"role": "user", "content": user_prompt})
        resp = post_json(self._session, self.endpoint, {"model": self.model, "messages": messages},
                         self.api_key, self.timeout)
        try:
            return resp.json()["choices"][0]["message"]["content"]
        except Exception as exc:
            raise ExternalServiceError(f"malformed chat response: {exc}") from exc
