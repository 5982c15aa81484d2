"""The one path to outside services: both HTTP clients, embeddings and chat,
send every request through `post_json`, which retries it, and check only
their own reply. The offline embedder and the stub chat client never retry."""

from __future__ import annotations

import logging
import time

from .errors import ExternalServiceError

logger = logging.getLogger(__name__)

MAX_RETRIES = 3


def new_session():
    """A `requests.Session`; `requests` is imported only when an HTTP client is made."""
    import requests

    return requests.Session()


def post_json(session, endpoint: str, payload: dict, api_key: str | None, timeout: float):
    """The response to `payload` POSTed as JSON to `endpoint`, with a bearer
    `api_key` when one is given.

    A request that raises or returns a status of 400 or more is sent again,
    `MAX_RETRIES` times, 0.5 * 2**attempt seconds apart, with one
    warning per failed attempt; then it is an ExternalServiceError. What the
    response holds is the caller's to check: a malformed reply is not retried.
    """
    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    for attempt in range(MAX_RETRIES + 1):
        try:
            resp = session.post(endpoint, json=payload, headers=headers, timeout=timeout)
            if resp.status_code >= 400:
                raise ExternalServiceError(f"{endpoint} returned {resp.status_code}")
            return resp
        except Exception as exc:  # noqa: BLE001 - any transport fault is retried
            if attempt == MAX_RETRIES:
                raise ExternalServiceError(
                    f"POST {endpoint} failed after {MAX_RETRIES} retries: {exc}") from exc
            logger.warning("POST %s failed (attempt %d): %s", endpoint, attempt + 1, exc)
            time.sleep(0.5 * 2**attempt)
