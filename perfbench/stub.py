"""Loopback chat-completions endpoint for the benchmark.

Run as its own process so its CPU does not compete with the program for
the interpreter lock:

    python3 perfbench/stub.py --manifest WORKDIR/manifest.json --latency-ms 10

It prints ``PORT <n>`` once it listens on 127.0.0.1, and exits when its
stdin closes. Each POST to
/v1/chat/completions sleeps the injected latency and answers from the
manifest's script: the model name selects the condition, the first
``<<T:id>>`` marker in the prompt the task, and a per-(model, task)
counter the call index, so how workers interleave changes no trajectory.
Usage is reported as whitespace-token counts, a quarter of the prompt
marked cached.

POST /reset returns the request log since the previous reset as JSON and
clears the log and the counters. One log row per request: model, task id,
call index, arrival (time.monotonic, shared by all processes on the
host), service seconds including the injected latency, prompt, cached and
completion tokens, and HTTP status.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

MARKER_RE = re.compile(r"<<T:([A-Za-z0-9_-]+)>>")


class StubState:
    def __init__(self, script: dict, latency_s: float):
        self.script = script
        self.latency_s = latency_s
        self.lock = threading.Lock()
        self.counters: dict[tuple[str, str], int] = {}
        self.log: list[list] = []

    def next_index(self, model: str, task_id: str) -> int:
        with self.lock:
            k = self.counters.get((model, task_id), 0)
            self.counters[(model, task_id)] = k + 1
            return k

    def reset(self) -> list[list]:
        with self.lock:
            log, self.log = self.log, []
            self.counters = {}
            return log


def make_handler(state: StubState):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # Buffered writes: an unbuffered keep-alive response goes out as
        # several small segments and stalls on delayed ACKs.
        wbufsize = -1

        def log_message(self, format, *args):  # noqa: A002 - stdlib signature
            pass

        def _send(self, status: int, body: bytes) -> None:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            self.wfile.flush()

        def do_POST(self):
            arrival = time.monotonic()
            length = int(self.headers.get("Content-Length", 0))
            raw = self.rfile.read(length)
            if self.path == "/reset":
                self._send(200, json.dumps(state.reset()).encode())
                return
            body = json.loads(raw)
            model = body.get("model", "")
            prompt = "".join(m.get("content", "") for m in body.get("messages", []))
            match = MARKER_RE.search(prompt)
            task_id = match.group(1) if match else ""
            k = state.next_index(model, task_id)
            responses = state.script.get(model, {}).get(task_id, [])
            time.sleep(state.latency_s)
            if k >= len(responses):
                status, usage = 400, (0, 0, 0)
                payload = {"error": f"no scripted call {k} for {model}/{task_id}"}
            else:
                text = responses[k]
                prompt_tokens = len(prompt.split())
                usage = (prompt_tokens, prompt_tokens // 4, len(text.split()))
                status = 200
                payload = {
                    "choices": [{"index": 0, "message": {"role": "assistant", "content": text}}],
                    "usage": {
                        "prompt_tokens": usage[0],
                        "completion_tokens": usage[2],
                        "prompt_tokens_details": {"cached_tokens": usage[1]},
                    },
                }
            self._send(status, json.dumps(payload).encode())
            service = time.monotonic() - arrival
            with state.lock:
                state.log.append([model, task_id, k, arrival, service, *usage, status])

    return Handler


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--latency-ms", type=float, required=True)
    args = parser.parse_args(argv)
    with open(args.manifest, encoding="utf-8") as fh:
        script = json.load(fh)["script"]
    state = StubState(script, args.latency_ms / 1000.0)
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(state))
    server.daemon_threads = True
    # Stop with the parent: it holds the write end of stdin.
    threading.Thread(target=lambda: (sys.stdin.read(), server.shutdown()), daemon=True).start()
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
