"""Loopback HTTP servers for tests that drive the real chat client: a
handler that replies from a per-server plan, a keep-alive variant that
counts connections, one that enforces a context window, the server they
run on, and a completion body to plan."""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class _PlannedHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length)
        self.server.raw_bodies.append(raw)
        self.server.bodies.append(json.loads(raw))
        plan = self.server.plan
        index = min(self.server.hits, len(plan) - 1)
        # (status, body) or (status, body, {extra header: value})
        status, body, *headers = plan[index]
        self.server.hits += 1
        self._send(status, body, headers[0] if headers else {})

    def _send(self, status, body, headers):
        # bytes go out as they are, so a test can send a body that is not JSON
        payload = body if isinstance(body, bytes) else json.dumps(body).encode("utf-8")
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
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


class _WindowHandler(_PlannedHandler):
    """A server with a context window of server.window tokens: a prompt
    whose whitespace-token count is over it gets vLLM's overflow 400, and
    any other the next of server.replies, with that count as its prompt
    usage. Every request counts as a hit."""

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        self.server.bodies.append(body)
        self.server.hits += 1
        prompt = len(body["messages"][0]["content"].split())
        if prompt > self.server.window:
            message = (f"This model's maximum context length is {self.server.window} tokens. "
                       f"However, you requested {prompt} tokens.")
            self._send(400, {"object": "error", "message": message}, {})
        else:
            reply = self.server.replies.pop(0)
            self._send(200, _ok_body(reply, prompt, len(reply.split())), {})


class _TestServer(ThreadingHTTPServer):
    # The default listen backlog of 5 resets connections when 16 client
    # threads connect at once, and each reset costs a retried attempt.
    request_queue_size = 128


def _serve(handler, tls=None):
    """Serve handler on a loopback port, over TLS with the given server-side
    SSLContext when tls is set."""
    server = _TestServer(("127.0.0.1", 0), handler)
    if tls is not None:
        server.socket = tls.wrap_socket(server.socket, server_side=True)
    server.plan = []
    server.hits = 0
    server.bodies = []
    server.raw_bodies = []
    # A short poll keeps shutdown() from waiting out the default 0.5 s.
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    return server


def _ok_body(content="hello", prompt=12, generated=3, cached=None):
    usage = {"prompt_tokens": prompt, "completion_tokens": generated}
    if cached is not None:
        usage["prompt_tokens_details"] = {"cached_tokens": cached}
    return {"choices": [{"message": {"content": content}}], "usage": usage}
