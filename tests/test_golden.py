"""Golden scripted logs: every architecture run through ``hybridmas run``
on the scenario in tests/data/golden/, pinned in the current log format
(logs/) and in the earlier format that stored each intervention's
tool-call memory (logs_with_memory/), plus the run summaries and report
CSVs computed from them."""

import copy
import importlib.util
import json
import re
from decimal import Decimal
from pathlib import Path

import pytest
import yaml

from hybridmas.backends import ChatRequest
from hybridmas import cli
from hybridmas.cli import main
from hybridmas.config import load_config
from hybridmas.environments import load_tasks
from hybridmas.core import read_trajectories, record_from_dict, record_to_json_line
from hybridmas.prompting import format_memory
from loopback import _PlannedHandler, _ok_body, _serve
from replay import replay_lines

GOLDEN = Path(__file__).parent / "data" / "golden"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
ARCHITECTURES = ("monolithic", "pevr", "eva", "eva_nosummary", "pevr_audit", "eva_audit")
LOG_FORMS = ("logs", "logs_with_memory")


def _perfbench(name: str):
    """The benchmark's module perfbench/<name>.py, loaded by its path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_run_writes_the_golden_log(architecture, tmp_path, capsys):
    config = GOLDEN / f"{architecture}.yaml"
    assert main(["run", "--config", str(config), "--out", str(tmp_path)]) == 0
    written = tmp_path / f"{architecture}-tv2" / "trajectories.jsonl"
    assert written.read_bytes() == (GOLDEN / "logs" / f"{architecture}.jsonl").read_bytes()
    summary = capsys.readouterr().out.strip().rsplit(" out=", 1)[0]
    assert summary in (GOLDEN / "reports" / "run.txt").read_text(encoding="utf-8").splitlines()


class _ScriptedHandler(_PlannedHandler):
    """Answers each request from server.backends[model], a ScriptedBackend,
    with the backend's reply and synthesized usage, 0 tokens cached, and
    appends (model, message content) to server.contents.

    Neither side has a context window yet. Once the scripted backend
    refuses a prompt over its window, this handler must refuse the same
    prompts with the overflow 400, as loopback's _WindowHandler does, or
    the two logs part."""

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        content = body["messages"][0]["content"]
        self.server.contents.append((body["model"], content))
        request = ChatRequest(content)
        response = self.server.backends[body["model"]].complete(request)
        usage = response.usage
        self._send(200, _ok_body(response.text, usage.prompt_tokens, usage.generated_tokens, 0),
                   {})


def _scripted_requests(config_path, out, monkeypatch) -> dict:
    """Each backend name's request texts, in order, from an in-process
    scripted run of the config."""
    built = []

    def build_backend(spec):
        built.append(spec())
        return built[-1]

    monkeypatch.setattr(cli, "build_backend", build_backend)
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    monkeypatch.undo()
    config = load_config(config_path)
    names = [config.executor_backend_name, config.supervisor_backend_name]
    return {name: list(backend.requests) for name, backend in zip(names, built)}


@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_http_run_served_the_golden_script_writes_the_golden_log(
    architecture, tmp_path, monkeypatch
):
    """The same replies give the same log over HTTP as from the scripted
    backend, but for each executor turn's wall_time_ms, and the server
    receives each request's text as the scripted backend reads it."""
    golden_config = GOLDEN / f"{architecture}.yaml"
    specs = load_config(golden_config).backend_specs
    server = _serve(_ScriptedHandler)
    server.backends = {name: build() for name, build in specs.items()}
    server.contents = []
    try:
        data = yaml.safe_load(golden_config.read_text(encoding="utf-8"))
        data["dataset"] = str(GOLDEN / "tasks.jsonl")
        data["backends"] = {
            name: {"type": "http", "base_url": f"http://127.0.0.1:{server.server_address[1]}",
                   "model": name, "max_retries": 0}
            for name in specs
        }
        config = tmp_path / f"{architecture}.yaml"
        config.write_text(yaml.safe_dump(data), encoding="utf-8")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out"),
                     "--parallelism", "1"]) == 0
    finally:
        server.shutdown()
        server.server_close()
    written = (tmp_path / "out" / f"{architecture}-tv2" / "trajectories.jsonl").read_bytes()
    zeroed = re.sub(rb'"wall_time_ms":\d+', b'"wall_time_ms":0', written)
    assert zeroed == (GOLDEN / "logs" / f"{architecture}.jsonl").read_bytes()
    scripted = _scripted_requests(golden_config, tmp_path / "scripted", monkeypatch)
    assert {name: [content for model, content in server.contents if model == name]
            for name in scripted} == scripted
    assert len(server.contents) == sum(map(len, scripted.values()))


def test_a_run_resumes_into_a_log_of_the_earlier_format(tmp_path, capsys):
    """A run into a log whose first line is in the earlier format keeps that
    line, runs the other two tasks and reports over all three."""
    first = (GOLDEN / "logs_with_memory" / "pevr.jsonl").read_bytes().splitlines(keepends=True)[0]
    log = tmp_path / "pevr-tv2" / "trajectories.jsonl"
    log.parent.mkdir()
    log.write_bytes(first)
    assert main(["run", "--config", str(GOLDEN / "pevr.yaml"), "--out", str(tmp_path)]) == 0
    written = log.read_bytes().splitlines(keepends=True)
    current = (GOLDEN / "logs" / "pevr.jsonl").read_bytes().splitlines(keepends=True)
    assert first != current[0]  # the earlier format is kept as it was
    assert written == [first, *current[1:]]
    summary = capsys.readouterr().out.strip().rsplit(" out=", 1)[0]
    assert summary.startswith("run architecture=pevr ")
    assert summary in (GOLDEN / "reports" / "run.txt").read_text(encoding="utf-8").splitlines()


@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_stored_memory_log_reencodes_to_the_current_log(architecture):
    records = read_trajectories(GOLDEN / "logs_with_memory" / f"{architecture}.jsonl")
    encoded = "".join(record_to_json_line(record) + "\n" for record in records)
    current = (GOLDEN / "logs" / f"{architecture}.jsonl").read_text(encoding="utf-8")
    assert encoded == current


def test_stored_memory_equals_the_memory_derived_from_turns():
    checked = 0
    for architecture in ARCHITECTURES:
        path = GOLDEN / "logs_with_memory" / f"{architecture}.jsonl"
        for line in path.read_text(encoding="utf-8").splitlines():
            data = json.loads(line)
            record = record_from_dict(data)
            for call in data["supervisor_calls"]:
                memory = (call["decision"]["payload"] or {}).get("memory")
                if memory:
                    derived = "".join(
                        format_memory([t for t in record.turns if t.t <= call["at_turn"]])
                    )
                    assert memory == derived
                    checked += 1
    assert checked == 4  # pevr and eva_nosummary: louvre's and iceland's interventions


def _key_paths(value, path=()):
    """Every key path of a JSON value; list items are followed through their first element."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield path + (key,)
            yield from _key_paths(item, path + (key,))
    elif isinstance(value, list) and value:
        yield from _key_paths(value[0], path + (0,))


def _golden_line(architecture: str, task_id: str) -> dict:
    path = GOLDEN / "logs" / f"{architecture}.jsonl"
    for line in path.read_text(encoding="utf-8").splitlines():
        data = json.loads(line)
        if data["task_id"] == task_id:
            return data
    raise LookupError(task_id)


# Lines with an applied intervention, under each way of handing one over.
@pytest.mark.parametrize("architecture", ["pevr", "eva", "eva_nosummary"])
def test_every_missing_key_is_a_malformed_line(architecture, tmp_path):
    data = _golden_line(architecture, "louvre")
    good = json.dumps(data)
    paths = list(_key_paths(data))
    assert ("supervisor_calls", 0, "decision", "verdict") in paths
    assert ("supervisor_calls", 0, "decision", "raw_text") in paths
    for path in paths:
        broken = copy.deepcopy(data)
        parent = broken
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
        log = tmp_path / "trajectories.jsonl"
        log.write_text(good + "\n" + json.dumps(broken) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2: malformed trajectory record"):
            read_trajectories(log)


def test_unknown_keys_are_ignored(tmp_path):
    """Undeclared keys are ignored, the payload that earlier logs stored
    included, whatever its kind."""
    data = _golden_line("pevr", "louvre")
    data["schema"] = 2
    lines = []
    for payload in ({"kind": "replan", "replan": {"text": "R"}, "memory": "Tool call: x[y]"},
                    {"kind": "no such kind"}):
        data["supervisor_calls"][0]["decision"]["payload"] = payload
        lines.append(json.dumps(data) + "\n")
    log = tmp_path / "trajectories.jsonl"
    log.write_text("".join(lines), encoding="utf-8")
    assert read_trajectories(log) == read_trajectories(GOLDEN / "logs" / "pevr.jsonl")[:1] * 2


@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_with_memory_rewrites_the_log_into_the_stored_earlier_form(architecture):
    from regenerate_golden import with_memory  # it imports this module

    lines = (GOLDEN / "logs" / f"{architecture}.jsonl").read_text(encoding="utf-8").split("\n")
    rewritten = "".join(with_memory(line) + "\n" for line in lines[:-1]).encode("utf-8")
    assert rewritten == (GOLDEN / "logs_with_memory" / f"{architecture}.jsonl").read_bytes()


REPORTS = [
    (["--frontier", "--histogram", "--kv-growth"], ARCHITECTURES,
     {"frontier.csv": "frontier.csv", "histogram.csv": "histogram.csv",
      "kv_growth.csv": "kv_growth.csv"}),
    # Without pevr_audit nothing dominates pevr, so pevr joins the frontier.
    (["--frontier"], ("monolithic", "pevr", "eva"), {"frontier.csv": "frontier_families.csv"}),
    (["--confusion"], ("pevr_audit", "eva_audit"), {"confusion.csv": "confusion.csv"}),
    (["--overlap"], ("monolithic", "pevr", "eva"), {"overlap.csv": "overlap.csv"}),
]


def _replay_golden(architecture, lines):
    cfg = load_config(GOLDEN / f"{architecture}.yaml")
    return replay_lines(cfg, {task.id: task for task in load_tasks(cfg.dataset)}, lines)


@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_every_golden_record_replays_to_its_own_line(architecture):
    """Each record, re-run through run_trajectory on the replies and
    observations that it holds, writes its own line, byte for byte."""
    lines = (GOLDEN / "logs" / f"{architecture}.jsonl").read_bytes().decode("utf-8").split("\n")
    assert lines.pop() == ""
    assert _replay_golden(architecture, lines) == lines


def test_a_golden_record_with_an_edited_cost_does_not_replay():
    line = (GOLDEN / "logs" / "pevr.jsonl").read_text(encoding="utf-8").splitlines()[0]
    record = record_from_dict(json.loads(line))
    record.totals.cost_usd += Decimal("0.000001")
    edited = record_to_json_line(record)
    assert edited != line
    assert _replay_golden("pevr", [edited]) == [line]


def test_a_tiny_long_horizon_run_replays_to_itself(tmp_path):
    """Every record of a scripted run of the benchmark's tiny long-horizon
    inputs, generated here, replays to its own line."""
    manifest = _perfbench("gen").generate("long-horizon-scripted", 7, tmp_path / "inputs",
                                          size="tiny")
    for condition in manifest["conditions"]:
        config = tmp_path / "inputs" / condition["config"]
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        log = tmp_path / "out" / condition["label"] / "trajectories.jsonl"
        lines = log.read_text(encoding="utf-8").split("\n")
        assert lines.pop() == ""
        assert len(lines) == len(manifest["expected"][condition["label"]])
        cfg = load_config(config)
        tasks = {task.id: task for task in load_tasks(cfg.dataset)}
        assert replay_lines(cfg, tasks, lines) == lines


def test_qa_http_logs_do_not_depend_on_the_parallelism(tmp_path):
    """The benchmark's full-size qa-http inputs, generated here, served by
    its stub endpoint at 0 ms with fresh counters for each run: every
    condition writes the same log at parallelism 1, 4 and 16, once
    wall_time_ms is zeroed, and each task ends as the inputs script it."""
    inputs = tmp_path / "inputs"
    manifest = _perfbench("gen").generate("qa-http", 7, inputs)
    stub = _perfbench("stub")
    for condition in manifest["conditions"]:
        label = condition["label"]
        text = (inputs / condition["config"]).read_text(encoding="utf-8")
        logs = set()
        for parallelism in (1, 4, 16):
            server = _serve(stub.make_handler(stub.StubState(manifest["script"], 0.0)))
            url = f"http://127.0.0.1:{server.server_port}"
            try:
                config = inputs / f"{label}-p{parallelism}.yaml"
                config.write_text(text.replace("STUB_URL", url), encoding="utf-8")
                out = tmp_path / f"p{parallelism}"
                assert main(["run", "--config", str(config), "--out", str(out),
                             "--parallelism", str(parallelism)]) == 0
            finally:
                server.shutdown()
                server.server_close()
            log = out / label / "trajectories.jsonl"
            logs.add(re.sub(rb'"wall_time_ms":\d+', b'"wall_time_ms":0', log.read_bytes()))
        assert len(logs) == 1
        expected = manifest["expected"][label]
        assert [(r.task_id, r.termination, r.resets, r.final_answer)
                for r in read_trajectories(log)] == [
            (task_id, e["termination"], e["resets"], e["final_answer"])
            for task_id, e in expected.items()]


def golden_reports() -> set[str]:
    """The files of reports/: the run summaries and each REPORTS output."""
    return {"run.txt", *(golden for _, _, outputs in REPORTS for golden in outputs.values())}


def test_reports_holds_exactly_the_written_files():
    """A report dropped from REPORTS leaves no stale golden file behind."""
    assert {path.name for path in (GOLDEN / "reports").iterdir()} == golden_reports()


@pytest.mark.parametrize("form", LOG_FORMS)
@pytest.mark.parametrize("flags,architectures,outputs", REPORTS)
def test_report_csvs_match_the_golden_reports(form, flags, architectures, outputs, tmp_path):
    logs = [str(GOLDEN / form / f"{architecture}.jsonl") for architecture in architectures]
    assert main(["report", *logs, *flags, "--out", str(tmp_path)]) == 0
    for written, golden in outputs.items():
        assert (tmp_path / written).read_bytes() == (GOLDEN / "reports" / golden).read_bytes()
