"""Runs against a fault-injecting loopback endpoint: a batch killed with
SIGKILL keeps every record it wrote and resumes to one record per task,
and a task that escapes with an exception keeps the records before it.

The endpoint answers each task by the number in its question ("Q7 ...")
and counts the requests of each task, so every fault is tied to a task and
repeats identically after a resume. No assertion bounds a time.

Kill points: a finished scripted log cut at any byte offset (where a kill
could leave it) resumes to the fresh run's log, byte for byte.
"""

import contextlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from decimal import Decimal
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from hybridmas import cli
from hybridmas.accounting import api_cost_usd
from hybridmas.cli import main
from hybridmas.config import parse_model_profile
from hybridmas.core import TERMINATIONS, read_trajectories, record_from_dict

from loopback import _KeepAliveHandler, _serve

SRC = Path(__file__).resolve().parents[1] / "src"
CLOUD_MODEL = {
    "placement": "cloud",
    "pricing": {"prefill": 2.5, "cached": 1.25, "generated": 10},
    "context_cap": 128000,
}
LATENCY_S = 0.05
TIMEOUT_S = 0.25

# Task i meets fault i modulo the number of faults; each maps to the
# termination the task must end in.
FAULTS = {
    "ok": "finished",
    "5xx_burst": "finished",  # two 503s, then an answer
    "timeout": "finished",  # first answer held past the client's timeout
    "non_json": "finished",  # a 200 whose body is HTML, then an answer
    "cached_over_prompt": "finished",  # usage reports more cached than prompt tokens
    "missing_usage": "backend_error",  # every answer lacks its usage block
    "context_limit": "out_of_context",  # every request rejected with a 400 overflow
    "429_retry_after": "finished",  # two 429s with Retry-After: 0, then an answer
}
FAULT_CYCLE = tuple(FAULTS)


def _answer(task: int, prompt_tokens: int, cached: int | None = None) -> dict:
    usage = {"prompt_tokens": prompt_tokens, "completion_tokens": 5}
    if cached is not None:
        usage["prompt_tokens_details"] = {"cached_tokens": cached}
    return {"choices": [{"message": {"content": f"Tool call: finish[a{task}]"}}], "usage": usage}


def _reply(fault: str, task: int, nth: int, prompt_tokens: int):
    if fault == "5xx_burst" and nth <= 2:
        return 503, {"error": "overloaded"}
    if fault == "429_retry_after" and nth <= 2:
        return 429, {"error": "rate limited"}
    if fault == "non_json" and nth == 1:
        return 200, b"<html>upstream busy</html>"
    if fault == "cached_over_prompt":
        return 200, _answer(task, prompt_tokens, cached=prompt_tokens + 50)
    if fault == "missing_usage":
        return 200, {"choices": [{"message": {"content": f"Tool call: finish[a{task}]"}}]}
    if fault == "context_limit":
        return 400, {"error": {"message": "maximum context length exceeded",
                               "code": "context_length_exceeded"}}
    return 200, _answer(task, prompt_tokens)


class _FaultHandler(_KeepAliveHandler):
    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        prompt = "\n".join(message["content"] for message in body["messages"])
        task = int(re.search(r"\bQ(\d+) ", prompt).group(1))
        server = self.server
        with server.lock:
            nth = server.task_requests[task] = server.task_requests.get(task, 0) + 1
        fault = server.faults[task % len(server.faults)]
        status, reply = _reply(fault, task, nth, len(prompt.split()))
        time.sleep(2 * TIMEOUT_S if fault == "timeout" and nth == 1 else LATENCY_S)
        payload = reply if isinstance(reply, bytes) else json.dumps(reply).encode("utf-8")
        try:
            self.send_response(status)
            if status == 429:
                self.send_header("Retry-After", "0")
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
            self.wfile.flush()
        except OSError:  # the client gave up on this request or was killed
            self.close_connection = True
            return
        with server.lock:
            server.served += 1


@pytest.fixture
def fault_server():
    server = _serve(_FaultHandler)
    server.lock = threading.Lock()
    server.connections = 0  # counted by _KeepAliveHandler.setup
    server.idle_timeout = None
    server.task_requests = {}
    server.served = 0
    server.faults = FAULT_CYCLE
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


def _write_config(tmp_path, server, n_tasks: int) -> Path:
    tasks = [
        {"id": f"t{i:02d}", "question": f"Q{i} what is item {i}?", "answers": [f"a{i}"]}
        for i in range(n_tasks)
    ]
    (tmp_path / "tasks.jsonl").write_text(
        "".join(json.dumps(task) + "\n" for task in tasks), encoding="utf-8"
    )
    config = {
        "run": {
            "architecture": "monolithic",
            "max_turns": 3,
            "executor": {"model": "cloud", "backend": "endpoint"},
        },
        "models": {"cloud": CLOUD_MODEL},
        "backends": {
            "endpoint": {
                "type": "http",
                "base_url": f"http://127.0.0.1:{server.server_address[1]}",
                "model": "fault-model",
                "max_retries": 3,
                "backoff_s": 0.01,
                "backoff_cap_s": 0.02,
                "timeout_s": TIMEOUT_S,
            }
        },
        "dataset": "tasks.jsonl",
        "environment": {"type": "scripted", "default": "nothing here"},
        "output": "out",
        "parallelism": 2,
    }
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    return path


def _complete_lines(log: Path) -> list[bytes]:
    try:
        data = log.read_bytes()
    except FileNotFoundError:
        return []
    return data[: data.rfind(b"\n") + 1].splitlines()


def test_killed_batch_keeps_its_records_and_resumes(tmp_path, fault_server):
    n_tasks, kill_after = 42, 10
    config = _write_config(tmp_path, fault_server, n_tasks)
    log = tmp_path / "out" / "monolithic-tv1" / "trajectories.jsonl"
    argv = [sys.executable, "-m", "hybridmas.cli", "run", "--config", str(config),
            "--parallelism", "2"]
    env = dict(os.environ, PYTHONPATH=str(SRC))

    child = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    give_up = time.monotonic() + 300  # a hung child, not a speed bound
    try:
        while child.poll() is None and time.monotonic() < give_up and not (
            fault_server.served >= kill_after and _complete_lines(log)
        ):
            time.sleep(0.002)
        killed_mid_batch = child.poll() is None
        child.send_signal(signal.SIGKILL)
    finally:
        child.wait()
    assert killed_mid_batch, "the batch ended without leaving a record before its end"

    # What the kill left: complete records of a prefix of the tasks, in
    # task order (a torn final line, if any, is not a record yet).
    kept = [record_from_dict(json.loads(line)) for line in _complete_lines(log)]
    assert 1 <= len(kept) < n_tasks
    assert [r.task_id for r in kept] == [f"t{i:02d}" for i in range(len(kept))]

    resumed = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert resumed.returncode == 0, resumed.stderr

    records = read_trajectories(log)
    assert [r.task_id for r in records] == [f"t{i:02d}" for i in range(n_tasks)]
    profile = parse_model_profile("cloud", CLOUD_MODEL)
    for i, record in enumerate(records):
        fault = FAULT_CYCLE[i % len(FAULT_CYCLE)]
        assert record.termination in TERMINATIONS
        assert record.termination == FAULTS[fault], (record.task_id, fault)
        assert record.final_answer == (f"a{i}" if FAULTS[fault] == "finished" else None)
        billed = [turn.usage for turn in record.turns]
        assert record.totals.cost_usd == sum(
            (api_cost_usd(profile, usage) for usage in billed), Decimal(0)
        )
        if fault == "cached_over_prompt":
            assert billed[0].cached_tokens == billed[0].prompt_tokens
    total = re.search(r"total_cost_usd=(\S+)", resumed.stdout).group(1)
    assert Decimal(total) == sum((r.totals.cost_usd for r in records), Decimal(0)) > 0


def test_escaped_exception_at_parallelism_2(tmp_path, fault_server, monkeypatch, capsys):
    fault_server.faults = ("ok",)
    n_tasks, failing = 20, 4
    config = _write_config(tmp_path, fault_server, n_tasks)
    ids = [f"t{i:02d}" for i in range(n_tasks)]
    started = []
    previous_done, cancelled = threading.Event(), threading.Event()
    real = cli.run_trajectory

    class Pool(cli.ThreadPoolExecutor):
        def map(self, *args, **kwargs):
            results = super().map(*args, **kwargs)

            def watched():
                # The pool's result generator cancels the tasks not yet
                # started as it ends.
                try:
                    yield from results
                finally:
                    cancelled.set()

            return watched()

    def run_or_raise(task, *args):
        started.append(task.id)
        if task.id == ids[failing]:
            # Raise once every earlier task has ended, so that the pool has
            # had the chance to run ahead.
            previous_done.wait(timeout=60)
            raise RuntimeError("not a backend error")
        if task.id > ids[failing]:
            # Hold a task taken up past the failing one until the rest are
            # cancelled, however slowly the main thread gets there.
            cancelled.wait(timeout=60)
        record = real(task, *args)
        if task.id == ids[failing - 1]:
            previous_done.set()
        return record

    monkeypatch.setattr(cli, "run_trajectory", run_or_raise)
    monkeypatch.setattr(cli, "ThreadPoolExecutor", Pool)
    assert main(["run", "--config", str(config)]) == 2
    assert "runtime error: not a backend error" in capsys.readouterr().err
    log = tmp_path / "out" / "monolithic-tv1" / "trajectories.jsonl"
    assert [r.task_id for r in read_trajectories(log)] == ids[:failing]
    # Two workers: besides the failing task, at most the two tasks its
    # workers took up next had started when the rest were cancelled.
    assert set(started) <= set(ids[: failing + 3])


# --- kill points -------------------------------------------------------------

KILL_POINT_TASKS = 5
EDGE_MODEL = {
    "placement": "edge",
    "param_count": 4.0e9,
    "layers": 36,
    "kv_heads": 8,
    "head_dim": 128,
    "bytes_per_activation": 2,
    "efficiency": 1.5e12,
    "context_cap": 32768,
}


def _kill_point_config(tmp_path) -> Path:
    """An eva run over scripted backends whose every entry matches its
    task's marker ("Q3:"), so a resumed run serves each rerun task its own
    replies whichever tasks it skips. Each task searches, is verified (an
    INTERVENE for odd tasks) and finishes."""
    tasks, executor, supervisor = [], [], []
    for i in range(KILL_POINT_TASKS):
        marker = f"Q{i}:"
        tasks.append({"id": f"t{i}", "question": f"{marker} what is item {i}?",
                      "answers": [f"a{i}"]})
        executor += [{"match": marker, "response": f"Looking.\nTool call: search[item {i}]"},
                     {"match": marker, "response": f"Tool call: finish[a{i}]"}]
        supervisor.append({"match": marker, "response": (
            f"INTERVENE\n<SUMMARY>item {i} searched</SUMMARY>\n<ADVICE>answer a{i}</ADVICE>"
            if i % 2 else "CONTINUE")})
    (tmp_path / "tasks.jsonl").write_text(
        "".join(json.dumps(task) + "\n" for task in tasks), encoding="utf-8"
    )
    config = {
        "run": {
            "architecture": "eva",
            "max_turns": 4,
            "verify_interval": 1,
            "executor": {"model": "edge", "backend": "executor"},
            "supervisor": {"model": "cloud", "backend": "supervisor"},
        },
        "models": {"edge": EDGE_MODEL, "cloud": CLOUD_MODEL},
        "backends": {"executor": {"type": "script", "script": executor},
                     "supervisor": {"type": "script", "script": supervisor}},
        "dataset": "tasks.jsonl",
        "environment": {"type": "scripted", "default": "item found"},
        "output": "out",
    }
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    return path


def _run(config: Path, out: Path) -> tuple[bytes, Decimal]:
    """Run config into out; return its log and the run's printed total cost."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    total = re.search(r"total_cost_usd=(\S+)", stdout.getvalue()).group(1)
    return (out / "eva-tv1" / "trajectories.jsonl").read_bytes(), Decimal(total)


@pytest.fixture(scope="module")
def fresh_run(tmp_path_factory):
    """The kill-point config and what one uninterrupted run of it wrote."""
    root = tmp_path_factory.mktemp("kill_points")
    config = _kill_point_config(root)
    log, total = _run(config, root / "fresh")
    records = [record_from_dict(json.loads(line)) for line in log.splitlines()]
    assert [r.task_id for r in records] == [f"t{i}" for i in range(KILL_POINT_TASKS)]
    assert sum(r.applied_interventions() for r in records) == KILL_POINT_TASKS // 2
    assert total == sum((r.totals.cost_usd for r in records), Decimal(0)) > 0
    return root, config, log, total


def _resume_from_cut(fresh_run, offset: int) -> None:
    """Resume a copy of the fresh log cut at offset: every task is in the
    log once, the log is the fresh run's byte for byte, and the resumed
    run's total cost is the fresh run's exact Decimal sum."""
    root, config, fresh_log, fresh_total = fresh_run
    with tempfile.TemporaryDirectory(dir=root) as out:
        log = Path(out) / "eva-tv1" / "trajectories.jsonl"
        log.parent.mkdir()
        log.write_bytes(fresh_log[:offset])
        resumed_log, resumed_total = _run(config, Path(out))
    assert [r.task_id for r in map(record_from_dict, map(json.loads, resumed_log.splitlines()))
            ] == [f"t{i}" for i in range(KILL_POINT_TASKS)]
    assert resumed_log == fresh_log
    assert resumed_total == fresh_total


@pytest.mark.parametrize("cut", ["empty", "mid-first-line", "whole-log"])
def test_a_log_cut_at_a_named_point_resumes_to_the_fresh_log(fresh_run, cut):
    log = fresh_run[2]
    first_line = log.index(b"\n") + 1
    offset = {"empty": 0, "mid-first-line": first_line // 2, "whole-log": len(log)}[cut]
    _resume_from_cut(fresh_run, offset)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_a_log_cut_at_any_byte_resumes_to_the_fresh_log(fresh_run, data):
    _resume_from_cut(fresh_run, data.draw(st.integers(0, len(fresh_run[2])), label="offset"))
