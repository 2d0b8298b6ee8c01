"""Scripted backend semantics and HTTP client behavior against a local
mock server."""

import json
import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import example, given, settings, strategies as st

from hybridmas.backends import (
    ChatMessage,
    ChatRequest,
    HttpChatBackend,
    NoMatchingEntryError,
    RejectedError,
    ScriptedBackend,
    ScriptEntry,
    ScriptExhaustedError,
    TransportError,
    UsageMissingError,
    user_request,
    whitespace_token_count,
)


class TestScriptedBackend:
    def test_pass_through_with_synthesized_usage(self):
        backend = ScriptedBackend(["CONTINUE"])
        response = backend.complete(user_request("please verify this state"))
        assert response.text == "CONTINUE"
        assert response.usage.prompt_tokens == 4
        assert response.usage.cached_tokens == 0
        assert response.usage.generated_tokens == 1
        assert response.wall_time_ms == 0

    def test_fifo_order_for_unmatched_entries(self):
        backend = ScriptedBackend(["first", "second"])
        assert backend.complete(user_request("a")).text == "first"
        assert backend.complete(user_request("b")).text == "second"

    def test_match_dispatch(self):
        backend = ScriptedBackend(
            [
                ScriptEntry("CONTINUE", match="verification-only"),
                ScriptEntry("search[x]"),
            ]
        )
        response = backend.complete(
            user_request("You are a verification-only supervisor. ...")
        )
        assert response.text == "CONTINUE"
        assert backend.complete(user_request("anything")).text == "search[x]"

    def test_exhausted(self):
        backend = ScriptedBackend(["only"])
        backend.complete(user_request("x"))
        with pytest.raises(ScriptExhaustedError):
            backend.complete(user_request("y"))

    def test_no_matching_entry(self):
        backend = ScriptedBackend([ScriptEntry("a", match="will-not-appear")])
        with pytest.raises(NoMatchingEntryError):
            backend.complete(user_request("unrelated text"))

    def test_deterministic_sequences(self):
        requests = ["one two", "three", "four five six"]
        outputs = []
        for _ in range(2):
            backend = ScriptedBackend(["r1", "r2", "r3"])
            outputs.append(
                [
                    (r.text, r.usage)
                    for r in (backend.complete(user_request(q)) for q in requests)
                ]
            )
        assert outputs[0] == outputs[1]

    def test_empty_script_rejected(self):
        with pytest.raises(ValueError):
            ScriptedBackend([])

    def test_count_tokens_matches_usage_synthesis(self):
        backend = ScriptedBackend(["x"])
        text = "alpha beta  gamma\ndelta"
        assert backend.count_tokens((text,)) == whitespace_token_count(text) == 4


# --- scripted backend against reference implementations -------------------

# Tokens with inner dots and non-ASCII letters; gaps with the non-ASCII
# whitespace that split() honours; separators that make, surround or
# extend the "\n\n" that prompts put between their blocks.
_TOKENS = ["alpha", "beta", "U.S.A", "3.5", "caf\u00e9", "it\u2019s", "\u2013", "ab", "xy"]
_GAPS = st.sampled_from([" ", "  ", "\t", "\n", "\x1c", "\x85", "\xa0", "\u3000"])
_SEPARATORS = st.sampled_from(["\n", "\n\n", "\n\n\n", "\n\n\n\n", " \n\n", "\n\n ", " \n\n\t"])


@st.composite
def _paragraphs(draw):
    paragraph = draw(st.sampled_from(["", " ", "\u3000"]))
    for token in draw(st.lists(st.sampled_from(_TOKENS), max_size=4)):
        paragraph += token + draw(_GAPS)
    return paragraph


@st.composite
def _call_texts(draw):
    """Texts drawn from one small pool of paragraphs, so that paragraphs
    recur across calls, alone or glued to different neighbours."""
    pool = draw(st.lists(_paragraphs(), min_size=1, max_size=6))
    texts = []
    for _ in range(draw(st.integers(1, 8))):
        picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5))
        text = picks[0]
        for paragraph in picks[1:]:
            text += draw(_SEPARATORS) + paragraph
        texts.append(text)
    return texts


@settings(max_examples=300, deadline=None)
@given(_call_texts())
@example(["alpha beta", "xy\nalpha beta", "alpha beta\n\nxy"])
@example(["ab xy", "alpha", "ab xy\n\nalpha"])
@example(["ab", "xy", "U.S.A\n\n\n\xa0caf\u00e9\x85\n\n", "\n\n", ""])
def test_scripted_usage_equals_whitespace_split(texts):
    backend = ScriptedBackend(["r"] * len(texts))
    for text in texts:
        assert backend.count_tokens((text,)) == len(text.split())
        assert backend.complete(user_request(text)).usage.prompt_tokens == len(text.split())
    assert backend.requests == texts


# Request parts: empty, whitespace-only, halves of one token, and the
# non-ASCII whitespace split() honours at part edges.
_PART_EDGES = ["", " ", "\n\n", "ab", "c", "x", "y", "\x1c", "\x85", "\xa0", "\u3000"]
_PART_CHARS = ["a", "b", "\u00e9", " ", "\n", "\x1c", "\x85", "\xa0", "\u3000"]
_PART_TEXT = st.text(st.sampled_from(_PART_CHARS), max_size=6)


@st.composite
def _part_calls(draw):
    """Requests as parts drawn from one shared pool, so that the same part
    objects recur across calls next to different neighbours."""
    pool = draw(st.lists(st.one_of(st.sampled_from(_PART_EDGES), _PART_TEXT), min_size=1,
                         max_size=8))
    return draw(st.lists(st.lists(st.sampled_from(pool), max_size=8).map(tuple), min_size=1,
                         max_size=8))


@settings(max_examples=300, deadline=None)
@given(_part_calls())
@example([("ab", "c"), ("x", "", "y"), ("c", "ab", "c")])
@example([("x", "", "", "y"), ("", "x"), ("x", ""), ("",), ()])
@example([(" ", "ab", " "), ("ab", "\n\n", "ab"), ("\xa0", "ab", "\u3000")])
@example([("a\x1c", "b"), ("a", "\x85b"), ("a\u3000", "b\xa0"), ("\x85", "\x85")])
def test_scripted_usage_over_part_boundaries(calls):
    backend = ScriptedBackend(["r"] * len(calls))
    for parts in calls:
        tokens = len("".join(parts).split())
        assert backend.count_tokens(parts) == tokens
        assert backend.complete(user_request(parts)).usage.prompt_tokens == tokens
    # requests keeps parts and reads as the joined texts
    texts = ["".join(parts) for parts in calls]
    assert [backend.requests[i] for i in range(len(calls))] == texts
    assert backend.requests == texts
    assert list(backend.requests) == texts
    assert backend.requests[-1] == texts[-1]
    assert backend.requests[1::2] == texts[1::2]


class ReferenceScript:
    """The all() check plus the scan from entry 0 that the cursor replaced."""

    def __init__(self, entries):
        self.entries = entries
        self.consumed = [False] * len(entries)

    def complete(self, text):
        if all(self.consumed):
            raise ScriptExhaustedError("script exhausted")
        for i, entry in enumerate(self.entries):
            if self.consumed[i]:
                continue
            if entry.match is None or entry.match in text:
                self.consumed[i] = True
                return entry.response
        raise NoMatchingEntryError("no unconsumed entry matches the request")

    @property
    def remaining(self):
        return self.consumed.count(False)


def _outcome(complete, text):
    try:
        return complete(text)
    except (ScriptExhaustedError, NoMatchingEntryError) as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from([None, "a", "b", "c"]), min_size=1, max_size=10),
    st.lists(st.sets(st.sampled_from("abc")).map("".join), max_size=14),
)
@example(["a", None, "a"], ["x", "a", "a", "a"])
@example([None, "b"], ["a", "b", "b"])
def test_scripted_consumption_matches_linear_scan(matches, texts):
    entries = [ScriptEntry(f"r{i}", match) for i, match in enumerate(matches)]
    backend, reference = ScriptedBackend(entries), ReferenceScript(entries)
    for text in texts:
        got = _outcome(lambda t: backend.complete(user_request(t)).text, text)
        assert got == _outcome(reference.complete, text)
        assert backend.remaining == reference.remaining


class TestChatRequest:
    def test_needs_messages(self):
        with pytest.raises(ValueError):
            ChatRequest([])

    def test_role_validation(self):
        with pytest.raises(ValueError):
            ChatMessage("tool", "x")

    def test_usage_identity(self):
        backend = ScriptedBackend(["some answer here"])
        request = user_request("a b c")
        response = backend.complete(request)
        assert response.usage.prompt_tokens + response.usage.generated_tokens == 3 + 3


# --- HTTP client against a scripted local server ---------------------------


class _PlannedHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        self.server.bodies.append(json.loads(self.rfile.read(length)))
        plan = self.server.plan
        index = min(self.server.hits, len(plan) - 1)
        status, body = plan[index]
        self.server.hits += 1
        # bytes go out as they are, so a test can send a body that is not JSON
        payload = body if isinstance(body, bytes) else json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


class _KeepAliveHandler(_PlannedHandler):
    """HTTP/1.1 variant that keeps connections open, counts the ones it
    accepts, records each request's path and headers, and closes a
    connection left idle for server.idle_timeout seconds (None: never)."""

    protocol_version = "HTTP/1.1"
    # Buffered writes: an unbuffered keep-alive response goes out as
    # several small segments and stalls on delayed ACKs.
    wbufsize = -1

    def setup(self):
        self.timeout = self.server.idle_timeout
        super().setup()
        with self.server.lock:
            self.server.connections += 1

    def do_POST(self):
        with self.server.lock:
            self.server.requests.append((self.path, dict(self.headers)))
        super().do_POST()


class _TestServer(ThreadingHTTPServer):
    # The default listen backlog of 5 resets connections when 16 client
    # threads connect at once, and each reset costs a retried attempt.
    request_queue_size = 128


def _serve(handler):
    server = _TestServer(("127.0.0.1", 0), handler)
    server.plan = []
    server.hits = 0
    server.bodies = []
    # A short poll keeps shutdown() from waiting out the default 0.5 s.
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    return server


@pytest.fixture
def mock_server():
    server = _serve(_PlannedHandler)
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


@pytest.fixture
def keepalive_server():
    server = _serve(_KeepAliveHandler)
    server.lock = threading.Lock()
    server.connections = 0
    server.requests = []
    server.idle_timeout = None
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


def _ok_body(content="hello", prompt=12, generated=3, cached=None):
    usage = {"prompt_tokens": prompt, "completion_tokens": generated}
    if cached is not None:
        usage["prompt_tokens_details"] = {"cached_tokens": cached}
    return {"choices": [{"message": {"content": content}}], "usage": usage}


def _backend(server, **kwargs):
    url = f"http://127.0.0.1:{server.server_address[1]}"
    defaults = dict(max_retries=3, backoff_s=0.001, backoff_cap_s=0.002, timeout_s=5)
    defaults.update(kwargs)
    return HttpChatBackend(url, "test-model", **defaults)


class TestHttpBackend:
    def test_retries_transport_then_succeeds(self, mock_server):
        mock_server.plan = [(503, {}), (503, {}), (200, _ok_body())]
        backend = _backend(mock_server)
        response = backend.complete(user_request("hi"))
        assert response.text == "hello"
        assert mock_server.hits == 3
        assert backend.attempts_logged == 3
        assert response.usage.prompt_tokens == 12
        assert response.usage.generated_tokens == 3

    def test_transport_exhausts_retries(self, mock_server):
        mock_server.plan = [(503, {})]
        backend = _backend(mock_server, max_retries=2)
        with pytest.raises(TransportError):
            backend.complete(user_request("hi"))
        assert mock_server.hits == 3  # initial attempt + 2 retries

    def test_rejected_is_not_retried(self, mock_server):
        mock_server.plan = [(404, {"error": "nope"})]
        backend = _backend(mock_server)
        with pytest.raises(RejectedError) as exc_info:
            backend.complete(user_request("hi"))
        assert exc_info.value.status == 404
        assert mock_server.hits == 1

    def test_missing_usage(self, mock_server):
        mock_server.plan = [(200, {"choices": [{"message": {"content": "x"}}]})]
        backend = _backend(mock_server)
        with pytest.raises(UsageMissingError):
            backend.complete(user_request("hi"))

    def test_cached_tokens_read_from_details(self, mock_server):
        mock_server.plan = [(200, _ok_body(prompt=100, generated=5, cached=40))]
        backend = _backend(mock_server)
        response = backend.complete(user_request("hi"))
        assert response.usage.cached_tokens == 40

    def test_wire_format(self, mock_server):
        mock_server.plan = [(200, _ok_body())]
        backend = _backend(mock_server)
        backend.complete(
            ChatRequest(
                [ChatMessage("system", "be brief"), ChatMessage("user", "hi")],
                temperature=0.25,
                max_generated_tokens=64,
                seed=7,
            )
        )
        body = mock_server.bodies[0]
        assert body["model"] == "test-model"
        assert body["temperature"] == 0.25
        assert body["max_tokens"] == 64
        assert body["seed"] == 7
        assert body["messages"][0] == {"role": "system", "content": "be brief"}

    def test_non_json_body_is_retried_as_transport_error(self, mock_server):
        mock_server.plan = [(200, b"<html>upstream busy</html>"), (200, _ok_body())]
        backend = _backend(mock_server)
        response = backend.complete(user_request("hi"))
        assert response.text == "hello"
        assert mock_server.hits == 2
        assert backend.attempts_logged == 2

    def test_non_json_body_exhausts_retries(self, mock_server):
        mock_server.plan = [(200, b"not json")]
        backend = _backend(mock_server, max_retries=2)
        with pytest.raises(TransportError):
            backend.complete(user_request("hi"))
        assert mock_server.hits == 3

    def test_body_without_choices_is_retried_as_transport_error(self, mock_server):
        mock_server.plan = [(200, {"error": "overloaded"}), (200, _ok_body())]
        backend = _backend(mock_server)
        response = backend.complete(user_request("hi"))
        assert response.text == "hello"
        assert mock_server.hits == 2
        assert backend.attempts_logged == 2

    def test_body_without_choices_exhausts_retries(self, mock_server):
        mock_server.plan = [(200, {"error": "overloaded"})]
        backend = _backend(mock_server, max_retries=2)
        with pytest.raises(TransportError):
            backend.complete(user_request("hi"))
        assert mock_server.hits == 3

    @pytest.mark.parametrize("content", [5, ["a"], {"type": "text"}])
    def test_non_string_content_is_retried_as_transport_error(self, mock_server, content):
        mock_server.plan = [(200, _ok_body(content=content)), (200, _ok_body())]
        backend = _backend(mock_server)
        response = backend.complete(user_request("hi"))
        assert response.text == "hello"
        assert mock_server.hits == 2
        assert backend.attempts_logged == 2

    @pytest.mark.parametrize("content", [5, ["a"], {"type": "text"}])
    def test_non_string_content_exhausts_retries(self, mock_server, content):
        mock_server.plan = [(200, _ok_body(content=content))]
        backend = _backend(mock_server, max_retries=2)
        with pytest.raises(TransportError):
            backend.complete(user_request("hi"))
        assert mock_server.hits == 3

    def test_null_content_is_empty_text(self, mock_server):
        mock_server.plan = [(200, _ok_body(content=None))]
        backend = _backend(mock_server)
        assert backend.complete(user_request("hi")).text == ""
        assert backend.attempts_logged == 1

    @pytest.mark.parametrize(
        "usage",
        [
            [1],
            "12 tokens",
            {"prompt_tokens": None, "completion_tokens": 3},
            {"completion_tokens": 5},
            {"prompt_tokens": 12},
            {"prompt_tokens": 12, "completion_tokens": -1},
            {"prompt_tokens": 12.5, "completion_tokens": 3},
            {"prompt_tokens": True, "completion_tokens": 3},
            {"prompt_tokens": 12, "completion_tokens": 3, "prompt_tokens_details": [1]},
            {"prompt_tokens": 12, "completion_tokens": 3,
             "prompt_tokens_details": {"cached_tokens": "4"}},
        ],
    )
    def test_malformed_usage_is_not_retried(self, mock_server, usage):
        mock_server.plan = [(200, {"choices": [{"message": {"content": "x"}}], "usage": usage})]
        backend = _backend(mock_server)
        with pytest.raises(UsageMissingError):
            backend.complete(user_request("hi"))
        assert mock_server.hits == 1

    def test_concurrent_calls_count_every_attempt(self, mock_server):
        mock_server.plan = [(200, _ok_body())]
        backend = _backend(mock_server)
        calls = 64
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=16) as pool:
                futures = [pool.submit(backend.complete, user_request("hi")) for _ in range(calls)]
                texts = [future.result(timeout=30).text for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert texts == ["hello"] * calls
        assert backend.attempts_logged == calls

    def test_count_tokens_unknown(self, mock_server):
        backend = _backend(mock_server)
        assert backend.count_tokens(("anything",)) is None


def _closed_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestHttpConnectionReuse:
    def test_sequential_calls_share_one_connection(self, keepalive_server):
        keepalive_server.plan = [(200, _ok_body())]
        backend = _backend(keepalive_server)
        for _ in range(20):
            assert backend.complete(user_request("hi")).text == "hello"
        assert keepalive_server.connections == 1
        assert backend.attempts_logged == 20

    def test_threads_use_at_most_one_connection_each(self, keepalive_server):
        keepalive_server.plan = [(200, _ok_body())]
        backend = _backend(keepalive_server)
        calls, workers = 64, 16
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(backend.complete, user_request("hi")) for _ in range(calls)]
            texts = [future.result(timeout=30).text for future in futures]
        assert texts == ["hello"] * calls
        assert keepalive_server.connections <= workers
        assert backend.attempts_logged == calls

    def test_idle_connection_closed_by_the_server_costs_no_retry(self, keepalive_server):
        keepalive_server.plan = [(200, _ok_body())]
        keepalive_server.idle_timeout = 0.05
        backend = _backend(keepalive_server)
        calls = 10
        for i in range(calls):
            if i:
                time.sleep(0.1)
            assert backend.complete(user_request("hi")).text == "hello"
        assert backend.attempts_logged == calls
        # the server did drop the idle connections the client then replaced
        assert keepalive_server.connections > 1

    def test_proxy_from_the_environment_is_used(self, keepalive_server, monkeypatch):
        for name in ("http_proxy", "NO_PROXY", "no_proxy"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("HTTP_PROXY", f"http://127.0.0.1:{keepalive_server.server_address[1]}")
        keepalive_server.plan = [(200, _ok_body())]
        url = f"http://127.0.0.1:{_closed_port()}"
        backend = HttpChatBackend(url, "test-model", max_retries=0, timeout_s=5)
        assert backend.complete(user_request("hi")).text == "hello"
        path, _headers = keepalive_server.requests[0]
        assert path == url + "/v1/chat/completions"

    def test_netrc_does_not_replace_the_credential(self, keepalive_server, monkeypatch, tmp_path):
        netrc = tmp_path / "netrc"
        netrc.write_text("machine 127.0.0.1 login u password p\n", encoding="utf-8")
        monkeypatch.setenv("NETRC", str(netrc))
        monkeypatch.setenv("HYBRIDMAS_TEST_CREDENTIAL", "secret-token")
        keepalive_server.plan = [(200, _ok_body())]
        backend = _backend(keepalive_server, credential_env="HYBRIDMAS_TEST_CREDENTIAL")
        backend.complete(user_request("hi"))
        _path, headers = keepalive_server.requests[0]
        assert headers["Authorization"] == "Bearer secret-token"
