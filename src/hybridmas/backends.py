"""Chat-completion backends: a remote HTTP client and a deterministic
scripted backend for tests.

All network use lives here. The wire format is the widely deployed
chat-completions JSON shape (POST <base_url>/v1/chat/completions), which
covers both cloud APIs and local vLLM-style servers with one client.
"""

from __future__ import annotations

import base64
import http.client
import json
import logging
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
from typing import Optional

from .core import SamplingParams, TokenUsage

logger = logging.getLogger(__name__)

CHAT_COMPLETIONS_PATH = "/v1/chat/completions"


class BackendError(Exception):
    pass


class TransportError(BackendError):
    """Network failure, HTTP >= 500, 408 or 429, or a body that is not JSON
    or has no choices; retriable."""


class RejectedError(BackendError):
    """HTTP 3xx or 4xx other than 408 and 429; never retried."""

    def __init__(self, status: int, detail: str = ""):
        super().__init__(f"request rejected with HTTP {status}: {detail}")
        self.status = status


class ContextOverflowError(RejectedError):
    """HTTP 400 because the prompt and max_tokens exceed the model's
    context window; never retried."""


# What a 400 body says when the request overflows the context window:
# OpenAI's error code, and vLLM's wording.
_CONTEXT_OVERFLOW_MARKERS = ("context_length_exceeded", "maximum context length")


class UsageMissingError(BackendError):
    """The endpoint returned a completion without a well-formed usage
    block; never retried."""


class ScriptExhaustedError(BackendError):
    """The scripted backend ran out of entries."""


class NoMatchingEntryError(BackendError):
    """No unconsumed scripted entry matches the request."""


def join_parts(parts: Sequence[str | Sequence[str]]) -> str:
    """The text of prompt parts: each part is a str, or a group (a tuple of
    str) that is joined in its place."""
    return "".join([part if isinstance(part, str) else "".join(part) for part in parts])


@dataclass(frozen=True)
class ChatRequest:
    """One model call: a single user message whose content is the prompt,
    sent with the run's sampling settings and seed (None: no seed is sent).
    The prompt is a str or a sequence of parts whose join is the text sent:
    a part is a str, or a group, a tuple of str that is joined in its place
    (join_parts). A sequence is kept as the same object, not copied.
    Passing the same str objects as parts, and a growing group as the same
    leading parts, across calls lets a backend that counts tokens count
    each text it has seen once."""

    prompt: str | Sequence[str | tuple[str, ...]]
    sampling: SamplingParams = SamplingParams()
    seed: Optional[int] = None

    @property
    def parts(self) -> Sequence[str | tuple[str, ...]]:
        """The prompt as parts; a str is one part."""
        prompt = self.prompt
        return (prompt,) if isinstance(prompt, str) else prompt

    @property
    def text(self) -> str:
        return join_parts(self.parts)


@dataclass
class ChatResponse:
    text: str
    usage: TokenUsage
    wall_time_ms: int = 0


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
        self._parts: list[Sequence[str | tuple[str, ...]]] = []

    def append(self, parts: Sequence[str | tuple[str, ...]]) -> None:
        self._parts.append(parts)

    def __len__(self) -> int:
        return len(self._parts)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [join_parts(parts) for parts in self._parts[index]]
        return join_parts(self._parts[index])

    def __eq__(self, other) -> bool:
        return list(self) == other


class ScriptedBackend:
    """Deterministic backend that replays a fixed script.

    The script is kept as given. Each entry is either a plain string, which
    answers the next request whatever it says, or a ScriptEntry, which
    answers only a request whose text holds its match, when it has one.
    Each complete() consumes the first unconsumed entry that answers the
    request; the request's text is joined only to look for a match.

    Usage is synthesized as whitespace-token counts: prompt_tokens is
    len(text.split()) of the request's text, for any split of the text into
    parts and groups. A text's count is kept as its state: (tokens, starts
    in a token, ends in a token), None for the empty text. Joining two
    texts adds their tokens, less one where the first ends in a token and
    the second starts in one (a token glued across the boundary); an empty
    part or group adds nothing and no glue. One rule counts the request
    and each group in it: the backend looks up the last sequence that it
    counted under the same first part, and when the new sequence starts
    with it (compared by value) it counts on from that sequence's state
    over the new parts only; otherwise it folds the sequence part by part.
    A str part's state comes from a cache, part -> state, that lives as
    long as the backend, so a part resent on every turn (the same str
    object) is counted once and looked up in O(1). The orchestrator sends
    the turn log as one group that grows by a turn's head part and
    observation, so a turn's text is counted once however many later
    prompts carry it, and a verify prompt's turn log and memory are counted
    on from the last executor and verify prompts. requests keeps each
    request's parts, the prompt's own tuple, and joins them on read. Wall
    time is always 0 so logs stay byte-reproducible. Consumption and the
    counts are serialized by an internal lock.
    """

    def __init__(self, script: Sequence[ScriptEntry | str]):
        if not script:
            raise ValueError("script must be non-empty")
        self._entries = script
        self._consumed = [False] * len(script)
        self._first = 0  # index of the first unconsumed entry
        self._part_tokens: dict[str, tuple[int, bool, bool]] = {}
        # first part -> (the last sequence counted under it, its state)
        self._last: dict = {}
        self._lock = threading.Lock()
        self.requests = _JoinedRequests()

    def _state(self, parts: Sequence) -> Optional[tuple[int, bool, bool]]:
        """The state of join_parts(parts): counted on from the last sequence
        counted under the same first part when parts starts with it, and
        else folded part by part. Call with the lock held."""
        parts = tuple(parts)  # the same object when parts is a tuple
        if not parts:
            return None
        last, state = self._last.get(parts[0], ((), None))
        n = len(last)
        if parts[:n] != last:
            n, state = 0, None
        # starts_in_token is None until a non-empty part
        tokens, starts_in_token, glued = state or (0, None, False)
        cache = self._part_tokens
        for part in parts[n:]:
            if isinstance(part, str):
                if not part:
                    continue
                info = cache.get(part)
                if info is None:
                    info = cache[part] = (
                        len(part.split()), not part[0].isspace(), not part[-1].isspace()
                    )
            else:
                info = self._state(part)
                if info is None:
                    continue
            count, starts, ends = info
            tokens += count - (glued and starts)
            glued = ends
            if starts_in_token is None:
                starts_in_token = starts
        state = None if starts_in_token is None else (tokens, starts_in_token, glued)
        self._last[parts[0]] = parts, state
        return state

    def complete(self, request: ChatRequest) -> ChatResponse:
        parts = request.parts
        text = None  # joined only to look for a match
        with self._lock:
            self.requests.append(parts)
            if self._first == len(self._entries):
                raise ScriptExhaustedError("script exhausted")
            for i in range(self._first, len(self._entries)):
                if self._consumed[i]:
                    continue
                entry = self._entries[i]
                if isinstance(entry, str):
                    response = entry
                else:
                    if entry.match is not None:
                        if text is None:
                            text = request.text
                        if entry.match not in text:
                            continue
                    response = entry.response
                self._consumed[i] = True
                while self._first < len(self._entries) and self._consumed[self._first]:
                    self._first += 1
                state = self._state(parts)
                usage = TokenUsage(
                    prompt_tokens=state[0] if state else 0,
                    cached_tokens=0,
                    generated_tokens=whitespace_token_count(response),
                )
                return ChatResponse(response, usage, wall_time_ms=0)
            raise NoMatchingEntryError("no unconsumed entry matches the request")


def _parse_usage(block) -> TokenUsage:
    """Token counts from a chat-completions usage block, with cached tokens
    capped at the prompt. A block that is absent, not a mapping, lacks
    prompt_tokens or completion_tokens, or holds a count that is not a
    non-negative integer raises UsageMissingError. Only absent or null
    cached-token details, or an absent or null count in them, mean 0 cached
    tokens: a false, empty or 0.0 value is as malformed as any other."""
    if not block:
        raise UsageMissingError("endpoint returned no usage block")
    try:
        details = block.get("prompt_tokens_details")
        cached = None if details is None else details.get("cached_tokens")
        counts = (
            block.get("prompt_tokens"),
            0 if cached is None else cached,
            block.get("completion_tokens"),
        )
        well_formed = all(type(count) is int and count >= 0 for count in counts)
    except AttributeError:  # the block or its details is not a mapping
        well_formed = False
    if not well_formed:
        raise UsageMissingError(f"malformed usage block: {str(block)[:300]}")
    prompt, cached, generated = counts
    return TokenUsage(prompt, min(cached, prompt), generated)


def _tls_context() -> ssl.SSLContext:
    """Verification against the REQUESTS_CA_BUNDLE / CURL_CA_BUNDLE file or
    directory, or the system trust store when neither is set. A bundle
    that is missing, unreadable or holds no certificate is a ValueError."""
    bundle = os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE")
    if not bundle:
        return ssl.create_default_context()
    try:
        if os.path.isdir(bundle):
            return ssl.create_default_context(capath=bundle)
        return ssl.create_default_context(cafile=bundle)
    except OSError as exc:
        raise ValueError(f"CA bundle {bundle!r}: {exc}") from None


def _bearer_line(credential_env: Optional[str], credential: str) -> bytes:
    """The Authorization header line for a bearer credential; none for an
    empty one. A credential that cannot be a header value is a ValueError,
    whose message does not repeat the credential."""
    if not credential:
        return b""
    if "\r" in credential or "\n" in credential or "\0" in credential:
        raise ValueError(f"the credential in ${credential_env} holds a CR, LF or NUL")
    try:
        return b"Authorization: Bearer %s\r\n" % credential.encode("latin-1")
    except UnicodeEncodeError:
        raise ValueError(f"the credential in ${credential_env} is not Latin-1 text") from None


# http.client's limits on a header line and on the number of header fields.
_MAX_LINE = 65536
_MAX_HEADERS = 100
_HEX_DIGITS = b"0123456789abcdefABCDEF"


def _time_left(deadline: float) -> float:
    """The seconds until deadline, a time.monotonic() reading; TimeoutError
    once it has passed."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("the attempt ran out of time")
    return left


class _ReplyReader:
    """Reads one HTTP/1.1 reply from a socket, each read bounded by the
    time left until deadline. A short read or a framing error raises
    http.client.HTTPException or ValueError, and a passed deadline
    TimeoutError. A field line outside RFC 9112 §5's grammar (no colon, or
    whitespace around the name) is read as well as it can be, and sets
    lax."""

    def __init__(self, sock, deadline: float):
        self._sock = sock
        self._deadline = deadline
        self._buf = b""
        self._pos = 0
        self.lax = False

    def _read(self) -> bytes:
        self._sock.settimeout(_time_left(self._deadline))
        return self._sock.recv(65536)

    def _recv(self) -> bytes:
        data = self._read()
        if not data:
            raise http.client.RemoteDisconnected("the server closed the connection mid-reply")
        return data

    def leftover(self) -> bool:
        return self._pos < len(self._buf)

    def line(self) -> bytes:
        """The next line, without its CRLF (or bare LF)."""
        end = self._buf.find(b"\n", self._pos)
        while end < 0:
            if len(self._buf) - self._pos > _MAX_LINE:
                raise http.client.LineTooLong("header line")
            self._buf = self._buf[self._pos:] + self._recv()
            self._pos = 0
            end = self._buf.find(b"\n")
        if end - self._pos >= _MAX_LINE:  # with its LF, longer than the limit
            raise http.client.LineTooLong("header line")
        line = self._buf[self._pos:end]
        self._pos = end + 1
        return line[:-1] if line.endswith(b"\r") else line

    def headers(self) -> dict[bytes, list[bytes]]:
        """The fields up to the next empty line, by lower-cased name, each
        with its values in order; an obs-fold continues the last value."""
        fields: dict[bytes, list[bytes]] = {}
        values = None
        for _ in range(_MAX_HEADERS + 1):
            line = self.line()
            if not line:
                return fields
            if line[:1] in (b" ", b"\t") and values:
                values[-1] += b" " + line.strip()
                continue
            name, colon, value = line.partition(b":")
            if not colon or name != name.strip():
                self.lax = True
            if colon:
                values = fields.setdefault(name.strip().lower(), [])
                values.append(value.strip())
        raise http.client.HTTPException(f"got more than {_MAX_HEADERS} headers")

    def take(self, n: int) -> bytes:
        """The next n bytes."""
        end = self._pos + n
        if end > len(self._buf):
            chunks = [self._buf[self._pos:]]
            missing = end - len(self._buf)
            while missing > 0:
                chunks.append(self._recv())
                missing -= len(chunks[-1])
            self._buf, self._pos, end = b"".join(chunks), 0, n
        data = self._buf[self._pos:end]
        self._pos = end
        return data

    def chunked(self) -> bytes:
        """A chunked body (RFC 9112 §7.1); extensions and trailers are
        read and dropped."""
        chunks = []
        while True:
            size = self.line().partition(b";")[0].strip()
            if not size or size.strip(_HEX_DIGITS):
                raise ValueError(f"invalid chunk size {size[:40]!r}")
            n = int(size, 16)
            if not n:
                break
            chunks.append(self.take(n))
            if self.line():
                raise ValueError("chunk data is not followed by CRLF")
        self.headers()
        return b"".join(chunks)

    def rest(self) -> bytes:
        """Every byte until the server closes the connection."""
        chunks = [self._buf[self._pos:]]
        while data := self._read():
            chunks.append(data)
        self._buf, self._pos = b"", 0
        return b"".join(chunks)


def _content_length(values: list[bytes]) -> int:
    """The one length that every Content-Length value (each may be a list)
    gives; a negative, non-numeric or conflicting one is a ValueError."""
    lengths = {length.strip() for value in values for length in value.split(b",")}
    if len(lengths) != 1:
        raise ValueError(f"conflicting Content-Length values {values!r}")
    (length,) = lengths
    if not length.isdigit():
        raise ValueError(f"invalid Content-Length {length[:40]!r}")
    return int(length)


def _tokens(values: list[bytes]) -> list[bytes]:
    return [token.strip().lower() for value in values for token in value.split(b",")]


def _read_reply(sock, deadline: float) -> tuple[int, dict[bytes, list[bytes]], bytes, bool]:
    """Read one reply by deadline, framed by RFC 9112 §6: its status, its
    header fields, its body, and whether the connection may carry another
    request."""
    reader = _ReplyReader(sock, deadline)
    status = 100
    while 100 <= status < 200:  # interim replies are skipped
        parts = reader.line().split(None, 2)
        if (len(parts) < 2 or not parts[0].startswith(b"HTTP/1.")
                or len(parts[1]) != 3 or not parts[1].isdigit()):
            raise http.client.BadStatusLine(repr(b" ".join(parts)[:80]))
        status = int(parts[1])
        headers = reader.headers()
    connection = _tokens(headers.get(b"connection", []))
    if parts[0] == b"HTTP/1.0":
        reusable = b"keep-alive" in connection
    else:
        reusable = b"close" not in connection
    coding = headers.get(b"transfer-encoding")
    if status in (204, 304):
        body = b""
    elif coding is not None:
        if _tokens(coding)[-1] == b"chunked":
            body = reader.chunked()
        else:
            body, reusable = reader.rest(), False
        if b"content-length" in headers:
            reusable = False  # framed by both: never reuse what carried it
    elif b"content-length" in headers:
        body = reader.take(_content_length(headers[b"content-length"]))
    else:
        body, reusable = reader.rest(), False
    # Bytes past the reply, or a lax field line: the framing is not to be trusted.
    if reader.leftover() or reader.lax:
        reusable = False
    return status, headers, body, reusable


def _retry_after(headers: dict[bytes, list[bytes]]) -> Optional[int]:
    """Retry-After in delta-seconds; None when absent or an HTTP-date."""
    values = headers.get(b"retry-after")
    if values and len(values) == 1 and values[0].isdigit():
        return int(values[0])
    return None


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
    """Client for a chat-completions endpoint, on the stdlib socket layer.

    What the environment sets is resolved once, when the backend is built,
    for its one URL: the proxy from HTTP_PROXY / HTTPS_PROXY (NO_PROXY
    honoured; userinfo in the proxy URL is sent as Proxy-Authorization;
    HTTPS goes through a CONNECT tunnel) and the TLS context, verifying
    against the REQUESTS_CA_BUNDLE / CURL_CA_BUNDLE file or directory, or
    the system trust store when neither is set, and the credential from the
    environment variable named in config, the only source of the
    Authorization header. Later changes to those variables do not apply,
    and ~/.netrc is never consulted. A malformed proxy URL, a bundle that
    cannot be loaded, a base_url that cannot be a request target and a
    credential that cannot be a header value each raise ValueError there,
    before any request. The credential is held in memory only as its header
    line; it is never written to config, a log or a message.

    A request is sent as one user message whose content is the prompt's
    parts joined, with the temperature and max_tokens of its sampling
    settings and its seed when set. max_retries, backoff_s and
    backoff_cap_s below 0, and a timeout_s not above 0, raise ValueError
    when the backend is built. timeout_s bounds each attempt as a whole:
    the request must be sent and the whole reply read by timeout_s after
    the attempt began (opening a connection waits at most timeout_s for
    each of its steps), or the attempt fails as a transport error.

    Each thread that calls complete() keeps one HTTP/1.1 connection to the
    endpoint, kept alive across calls and opened at the thread's first
    call; http.client only opens it (TCP_NODELAY, the timeout, the tunnel,
    TLS). A request goes out in one write: the request line and fixed
    headers, Authorization among them, built once, then the Content-Length
    line and the body, encoded once per call. The reply is read by a
    byte-level reader framed by RFC 9112 §6, under http.client's limits on
    header lines and header count. A connection is closed after a reply
    that asks for it (Connection: close, or HTTP/1.0 without keep-alive), one
    delimited by the close, one with a field line outside the grammar, and
    one followed by bytes nobody asked for.
    Before a kept connection carries a request, a zero-timeout poll checks
    that the server has not closed it while idle; one it has closed is
    replaced at no retried attempt. Every reply is read whole, so a 4xx or
    5xx leaves the connection reusable; a socket, protocol or framing error
    closes it, and the next attempt opens a new one. Redirects are not
    followed: a 3xx is rejected like a 4xx.

    Transport failures, a 5xx, 408 or 429, and a 200 whose body is not
    JSON, has no choices or has content that is neither a string nor null,
    are retried up to max_retries times with capped exponential backoff; a
    408 or 429 with Retry-After in delta-seconds waits that long instead,
    also capped by backoff_cap_s. Other rejections and malformed usage are
    not retried; a 400 whose body reports a context overflow (OpenAI's
    "context_length_exceeded" code or vLLM's "maximum context length"
    wording) is a ContextOverflowError. attempts_logged counts attempts
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
        for name, value in (("max_retries", max_retries), ("backoff_s", backoff_s),
                            ("backoff_cap_s", backoff_cap_s)):
            if value < 0:
                raise ValueError(f"{name} must be >= 0, not {value!r}")
        if timeout_s <= 0:
            raise ValueError(f"timeout_s must be > 0, not {timeout_s!r}")
        self.base_url = base_url.rstrip("/")
        self._url = self.base_url + CHAT_COMPLETIONS_PATH
        url = urllib.parse.urlsplit(self._url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"base_url must be an http or https URL, not {base_url!r}")
        https = url.scheme == "https"
        self._host = url.hostname
        self._port = url.port or (443 if https else 80)
        self.model = model
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

        self._tls = _tls_context() if https else None
        self._proxy = None  # (host, port) to connect to in place of the endpoint
        self._proxy_headers = {}
        target = url.path + (f"?{url.query}" if url.query else "")
        proxy = urllib.request.getproxies().get(url.scheme)
        if proxy and not urllib.request.proxy_bypass(url.netloc.rpartition("@")[2]):
            proxy_url = urllib.parse.urlsplit(proxy if "://" in proxy else "http://" + proxy)
            if not proxy_url.hostname:
                raise ValueError(f"proxy URL {proxy!r} names no host")
            self._proxy = proxy_url.hostname, proxy_url.port or 80
            if proxy_url.username is not None:
                userinfo = (f"{urllib.parse.unquote(proxy_url.username)}:"
                            f"{urllib.parse.unquote(proxy_url.password or '')}")
                self._proxy_headers["Proxy-Authorization"] = (
                    "Basic " + base64.b64encode(userinfo.encode()).decode()
                )
            if not https:
                target = self._url  # the absolute form a proxy expects
        if " " in target or not (target.isascii() and target.isprintable()):
            raise ValueError(f"base_url {base_url!r} holds a space, a control or a non-ASCII "
                             "character")
        host = f"[{self._host}]" if ":" in self._host else self._host
        if url.port is not None and url.port != (443 if https else 80):
            host += f":{url.port}"
        head = [f"POST {target} HTTP/1.1", f"Host: {host}", "Accept-Encoding: identity",
                "Content-Type: application/json"]
        if self._proxy is not None and not https:  # a tunnel carries them in its CONNECT
            head += [f"{name}: {value}" for name, value in self._proxy_headers.items()]
        credential = os.environ.get(credential_env, "") if credential_env else ""
        self._head = ("".join(line + "\r\n" for line in head).encode("ascii")
                      + _bearer_line(credential_env, credential))

    def _connect(self) -> http.client.HTTPConnection:
        """This thread's connection; its socket opens at the first request."""
        host, port = self._proxy or (self._host, self._port)
        if self._tls is None:
            connection = http.client.HTTPConnection(host, port, timeout=self.timeout_s)
        else:
            connection = http.client.HTTPSConnection(
                host, port, timeout=self.timeout_s, context=self._tls
            )
            if self._proxy is not None:
                connection.set_tunnel(self._host, self._port, headers=self._proxy_headers)
        self._connections.append(connection)
        self._local.connection = connection
        return connection

    def _post(self, body: bytes) -> tuple[int, dict[bytes, list[bytes]], bytes]:
        """POST body over this thread's connection, in one write; the status,
        header fields and body of the reply, all within timeout_s."""
        deadline = time.monotonic() + self.timeout_s
        connection = getattr(self._local, "connection", None) or self._connect()
        if connection.sock is not None and _closed_by_peer(connection.sock):
            connection.close()
        if connection.sock is None:
            connection.connect()
        sock = connection.sock
        sock.settimeout(_time_left(deadline))
        sock.sendall(b"%sContent-Length: %d\r\n\r\n%s" % (self._head, len(body), body))
        status, headers, data, reusable = _read_reply(sock, deadline)
        if not reusable:
            connection.close()
        return status, headers, data

    def _payload(self, request: ChatRequest) -> dict:
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": request.text}],
            "temperature": request.sampling.temperature,
            "max_tokens": request.sampling.max_generated_tokens,
        }
        if request.seed is not None:
            payload["seed"] = request.seed
        return payload

    def complete(self, request: ChatRequest) -> ChatResponse:
        body = json.dumps(self._payload(request), allow_nan=False).encode()
        last_error: Optional[Exception] = None
        wait = None  # the wait a 408 or 429 reply asked for before the next attempt
        started = time.monotonic()
        for attempt in range(1 + self.max_retries):
            if attempt:
                backoff = self.backoff_s * 2 ** (attempt - 1) if wait is None else wait
                time.sleep(min(self.backoff_cap_s, backoff))
                wait = None
            with self._attempts_lock:
                self.attempts_logged += 1
            try:
                status, headers, data = self._post(body)
            except (OSError, ValueError, http.client.HTTPException) as exc:
                connection = getattr(self._local, "connection", None)
                if connection is not None:
                    connection.close()
                last_error = TransportError(f"request failed: {exc}")
                logger.warning("chat call attempt %d failed: %s", attempt + 1, exc)
                continue
            if status >= 500 or status in (408, 429):
                last_error = TransportError(f"HTTP {status}")
                wait = _retry_after(headers)
                logger.warning("chat call attempt %d got HTTP %d", attempt + 1, status)
                continue
            if status >= 300:
                detail = data.decode("utf-8", "replace")
                if status == 400 and any(m in detail for m in _CONTEXT_OVERFLOW_MARKERS):
                    raise ContextOverflowError(status, detail[:500])
                raise RejectedError(status, detail[:500])
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
        raise last_error
