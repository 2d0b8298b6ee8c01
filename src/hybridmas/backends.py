"""Chat-completion backends: a remote HTTP client and a deterministic
scripted backend for tests.

All network use lives here. The wire format is the widely deployed
chat-completions JSON shape (POST <base_url>/v1/chat/completions), which
covers both cloud APIs and local vLLM-style servers with one client.
"""

from __future__ import annotations

import base64
import functools
import http.client
import json
import logging
import math
import os
import select
import ssl
import threading
import time
import urllib.parse
import urllib.request
import weakref
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain
from typing import Optional

from .core import TokenUsage

logger = logging.getLogger(__name__)

CHAT_COMPLETIONS_PATH = "/v1/chat/completions"
VALID_ROLES = ("system", "user", "assistant")


class BackendError(Exception):
    pass


class TransportError(BackendError):
    """Network failure, HTTP >= 500, or a body that is not JSON or has no
    choices; retriable."""


class RejectedError(BackendError):
    """HTTP 3xx or 4xx; never retried."""

    def __init__(self, status: int, detail: str = ""):
        super().__init__(f"request rejected with HTTP {status}: {detail}")
        self.status = status


class UsageMissingError(BackendError):
    """The endpoint returned a completion without a well-formed usage
    block; never retried."""


class ScriptExhaustedError(BackendError):
    """The scripted backend ran out of entries."""


class NoMatchingEntryError(BackendError):
    """No unconsumed scripted entry matches the request."""


@dataclass(frozen=True, init=False)
class ChatMessage:
    """One message; its content is kept as a tuple of text parts whose join
    is the text sent. A str content is one part. Passing the same str
    objects as parts across calls lets a backend that counts tokens count a
    part it has seen once."""

    role: str
    parts: tuple[str, ...]

    def __init__(self, role: str, content: str | Sequence[str]):
        if role not in VALID_ROLES:
            raise ValueError(f"unknown role {role!r}")
        parts = (content,) if isinstance(content, str) else tuple(content)
        object.__setattr__(self, "role", role)
        object.__setattr__(self, "parts", parts)

    @property
    def content(self) -> str:
        return "".join(self.parts)


@dataclass
class ChatRequest:
    messages: list[ChatMessage]
    temperature: float = 0.0
    max_generated_tokens: int = 1024
    seed: Optional[int] = None

    def __post_init__(self):
        if not self.messages:
            raise ValueError("a chat request needs at least one message")
        if not math.isfinite(self.temperature):
            raise ValueError("temperature must be finite")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_generated_tokens <= 0:
            raise ValueError("max_generated_tokens must be > 0")

    def concatenated_content(self) -> str:
        return "".join(self.parts())

    def parts(self) -> tuple[str, ...]:
        """The text parts of every message, in order."""
        return tuple(chain.from_iterable(m.parts for m in self.messages))


@dataclass
class ChatResponse:
    text: str
    usage: TokenUsage
    wall_time_ms: int = 0


def user_request(
    content: str | Sequence[str],
    temperature: float = 0.0,
    max_generated_tokens: int = 1024,
    seed: Optional[int] = None,
) -> ChatRequest:
    return ChatRequest(
        [ChatMessage("user", content)], temperature, max_generated_tokens, seed
    )


def whitespace_token_count(text: str) -> int:
    return len(text.split())


@dataclass(frozen=True)
class ScriptEntry:
    """One scripted completion; if match is set, the entry only fires when
    that substring occurs in the rendered request text."""

    response: str
    match: Optional[str] = None


class _JoinedRequests(Sequence):
    """The requests a ScriptedBackend received, kept as their parts and
    read as joined text: indexing, slicing and iteration give str, and a
    list of str compares equal when its texts are the same."""

    def __init__(self):
        self._parts: list[tuple[str, ...]] = []

    def append(self, parts: tuple[str, ...]) -> None:
        self._parts.append(parts)

    def __len__(self) -> int:
        return len(self._parts)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ["".join(parts) for parts in self._parts[index]]
        return "".join(self._parts[index])

    def __eq__(self, other) -> bool:
        return list(self) == other


class ScriptedBackend:
    """Deterministic backend that replays a fixed script.

    Each complete() consumes the first unconsumed entry whose match (if
    any) occurs in the concatenated request text. Usage is synthesized as
    whitespace-token counts: prompt_tokens is len(text.split()) of the
    concatenated request. It is counted from the request's parts with a
    cache, part -> (tokens, starts with a non-space, ends with a
    non-space), that lives as long as the backend, so a part resent on
    every turn (the same str object) is counted once and looked up in O(1).
    The counts are summed, less one at each boundary where a part ending in
    a non-space meets one starting with a non-space (a token glued across
    the boundary); empty parts are skipped. This is exact for any split of
    any text. requests keeps each request as its parts and joins it on
    read. Wall time is always 0 so logs stay byte-reproducible. Consumption
    and the cache are serialized by an internal lock.
    """

    def __init__(self, script: Sequence[ScriptEntry | dict | str]):
        entries = []
        for item in script:
            if isinstance(item, ScriptEntry):
                entries.append(item)
            elif isinstance(item, str):
                entries.append(ScriptEntry(item))
            else:
                entries.append(ScriptEntry(item["response"], item.get("match")))
        if not entries:
            raise ValueError("script must be non-empty")
        self._entries = entries
        self._consumed = [False] * len(entries)
        self._first = 0  # index of the first unconsumed entry
        self._part_tokens: dict[str, tuple[int, bool, bool]] = {}
        self._lock = threading.Lock()
        self.requests = _JoinedRequests()

    def _tokens(self, parts: Sequence[str]) -> int:
        """whitespace_token_count("".join(parts)) from the cached counts of
        the parts. Call with the lock held."""
        cache = self._part_tokens
        total = 0
        glued = False  # the last non-empty part ended in a non-space
        for part in parts:
            if not part:
                continue
            info = cache.get(part)
            if info is None:
                info = cache[part] = (
                    len(part.split()), not part[0].isspace(), not part[-1].isspace()
                )
            count, starts_in_token, ends_in_token = info
            total += count
            if glued and starts_in_token:
                total -= 1
            glued = ends_in_token
        return total

    def complete(self, request: ChatRequest) -> ChatResponse:
        parts = request.parts()
        text = None  # joined only to look for a match
        with self._lock:
            self.requests.append(parts)
            if self._first == len(self._entries):
                raise ScriptExhaustedError("script exhausted")
            for i in range(self._first, len(self._entries)):
                entry = self._entries[i]
                if self._consumed[i]:
                    continue
                if entry.match is not None and text is None:
                    text = request.concatenated_content()
                if entry.match is None or entry.match in text:
                    self._consumed[i] = True
                    while self._first < len(self._entries) and self._consumed[self._first]:
                        self._first += 1
                    usage = TokenUsage(
                        prompt_tokens=self._tokens(parts),
                        cached_tokens=0,
                        generated_tokens=whitespace_token_count(entry.response),
                    )
                    return ChatResponse(entry.response, usage, wall_time_ms=0)
            raise NoMatchingEntryError("no unconsumed entry matches the request")

    def count_tokens(self, parts: Sequence[str]) -> Optional[int]:
        """Tokens of the text that the parts join to."""
        with self._lock:
            return self._tokens(parts)

    @property
    def remaining(self) -> int:
        with self._lock:
            return sum(1 for c in self._consumed if not c)


def _parse_usage(block) -> TokenUsage:
    """Token counts from a chat-completions usage block, with cached tokens
    capped at the prompt. A block that is absent, not a mapping, lacks
    prompt_tokens or completion_tokens, or holds a count that is not a
    non-negative integer raises UsageMissingError; absent cached-token
    details mean 0 cached tokens."""
    if not block:
        raise UsageMissingError("endpoint returned no usage block")
    malformed = UsageMissingError(f"malformed usage block: {str(block)[:300]}")
    try:
        details = block.get("prompt_tokens_details") or {}
        counts = (
            block.get("prompt_tokens"),
            details.get("cached_tokens") or 0,
            block.get("completion_tokens"),
        )
    except AttributeError:  # the block or its details is not a mapping
        raise malformed from None
    if not all(type(count) is int and count >= 0 for count in counts):
        raise malformed
    prompt, cached, generated = counts
    return TokenUsage(prompt, min(cached, prompt), generated)


def _tls_context() -> ssl.SSLContext:
    """Verification against the REQUESTS_CA_BUNDLE / CURL_CA_BUNDLE file or
    directory, or the system trust store when neither is set."""
    bundle = os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE")
    if not bundle:
        return ssl.create_default_context()
    if os.path.isdir(bundle):
        return ssl.create_default_context(capath=bundle)
    return ssl.create_default_context(cafile=bundle)


def _close_all(connections: list) -> None:
    for connection in connections:
        connection.close()


def _closed_by_peer(sock) -> bool:
    """True when an idle kept-alive socket is readable: the server closed it
    (or sent bytes nobody asked for), so it must not carry a request."""
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


class HttpChatBackend:
    """Client for a chat-completions endpoint, on the stdlib http.client.

    Each thread that calls complete() keeps one HTTP/1.1 connection to the
    endpoint, kept alive across calls and made at the thread's first call.
    The environment is read once per thread, at that point, for the
    backend's one URL: the proxy from HTTP_PROXY / HTTPS_PROXY (NO_PROXY
    honoured; userinfo in the proxy URL is sent as Proxy-Authorization;
    HTTPS goes through a CONNECT tunnel) and the REQUESTS_CA_BUNDLE /
    CURL_CA_BUNDLE file or directory that TLS verifies against, the system
    trust store when neither is set. Later changes to those variables do not
    apply to that thread, and ~/.netrc is never consulted. The credential is
    read on each call from the environment variable named in config (never
    stored) and is the only source of the Authorization header.

    The body is encoded once per call. Before a kept connection carries a
    request, a zero-timeout poll checks that the server has not closed it
    while idle; one it has closed is replaced at no retried attempt. Every
    response body is read whole, so a 4xx or 5xx leaves the connection
    reusable; a socket or protocol error closes it, and the next attempt
    opens a new one. Redirects are not followed: a 3xx is rejected like a
    4xx.

    Transport failures, including a 200 whose body is not JSON, has no
    choices or has content that is neither a string nor null, are retried
    up to max_retries times with capped exponential backoff; rejections
    and malformed usage are not retried. attempts_logged counts attempts
    across every thread that shares the client.
    """

    def __init__(
        self,
        base_url: str,
        model: str,
        credential_env: Optional[str] = None,
        max_retries: int = 3,
        backoff_s: float = 0.5,
        backoff_cap_s: float = 8.0,
        timeout_s: float = 120.0,
    ):
        self.base_url = base_url.rstrip("/")
        self._url = self.base_url + CHAT_COMPLETIONS_PATH
        url = urllib.parse.urlsplit(self._url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"base_url must be an http or https URL, not {base_url!r}")
        self._scheme = url.scheme
        self._host = url.hostname
        self._port = url.port or (443 if url.scheme == "https" else 80)
        self._netloc = url.netloc.rpartition("@")[2]
        self._path = url.path + (f"?{url.query}" if url.query else "")
        self.model = model
        self.credential_env = credential_env
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self.backoff_cap_s = backoff_cap_s
        self.timeout_s = timeout_s
        self.attempts_logged = 0
        self._attempts_lock = threading.Lock()
        self._local = threading.local()
        # Every thread's connection, closed when the backend is collected:
        # a worker thread's local storage dies with the thread, unclosed.
        self._connections: list[http.client.HTTPConnection] = []
        weakref.finalize(self, _close_all, self._connections)

    def _connect(self) -> http.client.HTTPConnection:
        """Make this thread's connection, request target and fixed headers,
        with the environment resolved once for self._url. The socket opens
        at the first request."""
        https = self._scheme == "https"
        if https:
            make = functools.partial(http.client.HTTPSConnection, context=_tls_context())
        else:
            make = http.client.HTTPConnection
        target, headers = self._path, {"Content-Type": "application/json"}
        proxy = urllib.request.getproxies().get(self._scheme)
        if proxy and not urllib.request.proxy_bypass(self._netloc):
            proxy_url = urllib.parse.urlsplit(proxy if "://" in proxy else "http://" + proxy)
            if not proxy_url.hostname:
                raise ValueError(f"proxy URL {proxy!r} names no host")
            proxy_headers = {}
            if proxy_url.username is not None:
                userinfo = (f"{urllib.parse.unquote(proxy_url.username)}:"
                            f"{urllib.parse.unquote(proxy_url.password or '')}")
                proxy_headers["Proxy-Authorization"] = (
                    "Basic " + base64.b64encode(userinfo.encode()).decode()
                )
            connection = make(proxy_url.hostname, proxy_url.port or 80, timeout=self.timeout_s)
            if https:
                connection.set_tunnel(self._host, self._port, headers=proxy_headers)
            else:
                target = self._url  # the absolute form a proxy expects
                headers.update(proxy_headers)
        else:
            connection = make(self._host, self._port, timeout=self.timeout_s)
        self._connections.append(connection)
        local = self._local
        local.connection, local.target, local.headers = connection, target, headers
        return connection

    def _post(self, body: bytes) -> tuple[int, bytes]:
        """POST body over this thread's connection; the status and the
        whole response body."""
        local = self._local
        connection = getattr(local, "connection", None)
        if connection is None:
            connection = self._connect()
        elif connection.sock is not None and _closed_by_peer(connection.sock):
            connection.close()  # the next request reconnects
        headers = local.headers
        if self.credential_env:
            credential = os.environ.get(self.credential_env, "")
            if credential:
                headers = {**headers, "Authorization": f"Bearer {credential}"}
        connection.request("POST", local.target, body, headers)
        response = connection.getresponse()
        return response.status, response.read()

    def _payload(self, request: ChatRequest) -> dict:
        payload = {
            "model": self.model,
            "messages": [{"role": m.role, "content": m.content} for m in request.messages],
            "temperature": request.temperature,
            "max_tokens": request.max_generated_tokens,
        }
        if request.seed is not None:
            payload["seed"] = request.seed
        return payload

    def complete(self, request: ChatRequest) -> ChatResponse:
        body = json.dumps(self._payload(request), allow_nan=False).encode()
        last_error: Optional[Exception] = None
        started = time.monotonic()
        for attempt in range(1 + self.max_retries):
            if attempt:
                time.sleep(min(self.backoff_cap_s, self.backoff_s * 2 ** (attempt - 1)))
            with self._attempts_lock:
                self.attempts_logged += 1
            try:
                status, data = self._post(body)
            except (OSError, ValueError, http.client.HTTPException) as exc:
                connection = getattr(self._local, "connection", None)
                if connection is not None:
                    connection.close()
                last_error = TransportError(f"request failed: {exc}")
                logger.warning("chat call attempt %d failed: %s", attempt + 1, exc)
                continue
            if status >= 500:
                last_error = TransportError(f"HTTP {status}")
                logger.warning("chat call attempt %d got HTTP %d", attempt + 1, status)
                continue
            if status >= 300:
                raise RejectedError(status, data.decode("utf-8", "replace")[:500])
            try:
                reply = json.loads(data)
                text = reply["choices"][0]["message"]["content"]
                if text is not None and not isinstance(text, str):
                    raise TypeError("completion content is not a string")
            except ValueError as exc:  # not JSON, or not UTF-8/16/32 text
                last_error = TransportError(f"non-JSON body with HTTP {status}")
                logger.warning("chat call attempt %d got a non-JSON body: %s", attempt + 1, exc)
                continue
            except (KeyError, IndexError, TypeError):
                last_error = TransportError(f"malformed completion body: {str(reply)[:300]}")
                logger.warning("chat call attempt %d got a malformed completion body", attempt + 1)
                continue
            usage = _parse_usage(reply.get("usage"))
            wall_time_ms = int((time.monotonic() - started) * 1000)
            logger.info(
                "chat call to %s completed in %d ms after %d attempt(s): %d prompt / %d generated tokens",
                self.base_url,
                wall_time_ms,
                attempt + 1,
                usage.prompt_tokens,
                usage.generated_tokens,
            )
            return ChatResponse(text or "", usage, wall_time_ms)
        raise last_error if last_error is not None else TransportError("no attempts made")

    def count_tokens(self, parts: Sequence[str]) -> Optional[int]:
        return None
