"""End-to-end CLI behavior over temp directories and scripted configs."""

import csv
import json

import pytest
import yaml

from hybridmas import cli
from hybridmas.analysis import condition_stats
from hybridmas.cli import main
from hybridmas.core import read_trajectories

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
CLOUD_MODEL = {
    "placement": "cloud",
    "pricing": {"prefill": 2.5, "cached": 1.25, "generated": 10},
    "context_cap": 128000,
}

TASKS = [
    {"id": "A", "question": "Q1 what is alpha?", "answers": ["a1"]},
    {"id": "B", "question": "Q2 what is beta?", "answers": ["a2"]},
    {"id": "C", "question": "Q3 what is gamma?", "answers": ["a3"]},
]


def write_tasks(path, tasks=TASKS):
    path.write_text("\n".join(json.dumps(t) for t in tasks) + "\n", encoding="utf-8")


def finish_script():
    # Keyed to each task's query so completion order is content-addressed.
    return [
        {"match": "Q1", "response": "Tool call: finish[a1]"},
        {"match": "Q2", "response": "Tool call: finish[a2]"},
        {"match": "Q3", "response": "Tool call: finish[a3]"},
    ]


def write_config(tmp_path, **overrides):
    config = {
        "run": {
            "architecture": "monolithic",
            "max_turns": 4,
            "verify_interval": 1,
            "executor": {"model": "edge", "backend": "executor"},
            "seed": 0,
        },
        "models": {"edge": EDGE_MODEL, "cloud": CLOUD_MODEL},
        "backends": {"executor": {"type": "script", "script": finish_script()}},
        "dataset": "tasks.jsonl",
        "environment": {"type": "scripted", "default": "nothing yet"},
        "output": "out",
        "parallelism": 1,
    }
    config.update(overrides)
    write_tasks(tmp_path / "tasks.jsonl")
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    return path


class TestCmdRun:
    def test_happy_path(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config)]) == 0
        log = tmp_path / "out" / "monolithic-tv1" / "trajectories.jsonl"
        records = read_trajectories(log)
        assert [r.task_id for r in records] == ["A", "B", "C"]
        assert all(r.termination == "finished" for r in records)
        assert all(r.success for r in records)
        assert all(r.score == 1.0 for r in records)
        out = capsys.readouterr().out
        assert "mean_score=1.0000" in out
        assert "success_rate=1.0000" in out

    def test_deterministic_bytes(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o1")]) == 0
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o2")]) == 0
        first = (tmp_path / "o1" / "monolithic-tv1" / "trajectories.jsonl").read_bytes()
        second = (tmp_path / "o2" / "monolithic-tv1" / "trajectories.jsonl").read_bytes()
        assert first == second

    def test_missing_corpus_exits_1_without_partial_output(self, tmp_path):
        config = write_config(
            tmp_path,
            environment={"type": "wiki"},
            corpus="missing_corpus.jsonl",
        )
        assert main(["run", "--config", str(config)]) == 1
        assert not (tmp_path / "out").exists()

    def test_missing_config_exits_1(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.yaml")]) == 1

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_missing_script_file_exits_1_without_output(self, tmp_path, capsys, command):
        config = write_config(
            tmp_path,
            backends={"executor": {"type": "script", "script_file": "gone.yaml"}},
            sweep=[1],
        )
        assert main([command, "--config", str(config)]) == 1
        assert not (tmp_path / "out").exists()
        assert "config error: script file not found" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, text, error",
        [
            ("script.yaml", "- [unclosed\n", "invalid YAML"),
            ("script.json", '[{"response"', "invalid JSON"),
        ],
        ids=["yaml", "json"],
    )
    def test_malformed_script_file_exits_1_without_output(
        self, tmp_path, capsys, name, text, error
    ):
        (tmp_path / name).write_text(text, encoding="utf-8")
        config = write_config(
            tmp_path, backends={"executor": {"type": "script", "script_file": name}}
        )
        assert main(["run", "--config", str(config)]) == 1
        assert not (tmp_path / "out").exists()
        assert f"config error: {error} in" in capsys.readouterr().err

    def test_script_exhausted_marks_only_that_task(self, tmp_path):
        config = write_config(
            tmp_path,
            backends={
                "executor": {
                    "type": "script",
                    "script": [
                        {"match": "Q1", "response": "Tool call: finish[a1]"},
                        {"match": "Q2", "response": "Tool call: finish[a2]"},
                    ],
                }
            },
        )
        assert main(["run", "--config", str(config)]) == 0
        records = read_trajectories(tmp_path / "out" / "monolithic-tv1" / "trajectories.jsonl")
        by_id = {r.task_id: r for r in records}
        assert by_id["A"].termination == "finished"
        assert by_id["B"].termination == "finished"
        assert by_id["C"].termination == "backend_error"
        assert by_id["C"].success is False

    def test_resume_skips_completed_ids(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config)]) == 0
        log = tmp_path / "out" / "monolithic-tv1" / "trajectories.jsonl"
        before = log.read_bytes()
        # Re-running has nothing pending; the log must not change.
        assert main(["run", "--config", str(config)]) == 0
        assert log.read_bytes() == before

    def test_resume_runs_only_missing_tasks(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config)]) == 0
        log = tmp_path / "out" / "monolithic-tv1" / "trajectories.jsonl"
        lines = log.read_text(encoding="utf-8").splitlines()
        log.write_text("\n".join(lines[:2]) + "\n", encoding="utf-8")
        assert main(["run", "--config", str(config)]) == 0
        records = read_trajectories(log)
        assert [r.task_id for r in records] == ["A", "B", "C"]

    def test_resume_drops_a_torn_final_line(self, tmp_path, caplog):
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config)]) == 0
        log = tmp_path / "out" / "monolithic-tv1" / "trajectories.jsonl"
        lines = log.read_text(encoding="utf-8").splitlines(keepends=True)
        torn = lines[2][: len(lines[2]) // 2]
        log.write_text(lines[0] + lines[1] + torn, encoding="utf-8")
        assert main(["run", "--config", str(config)]) == 0
        assert [r.task_id for r in read_trajectories(log)] == ["A", "B", "C"]
        assert f"dropped {len(torn.encode())} bytes" in caplog.text

    def test_resume_still_rejects_a_malformed_complete_line(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config)]) == 0
        log = tmp_path / "out" / "monolithic-tv1" / "trajectories.jsonl"
        lines = log.read_text(encoding="utf-8").splitlines(keepends=True)
        log.write_text(lines[0] + lines[1][: len(lines[1]) // 2] + "\n", encoding="utf-8")
        assert main(["run", "--config", str(config)]) == 2
        assert log.read_text(encoding="utf-8").count("\n") == 2

    def test_resume_refuses_a_log_of_another_config(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config)]) == 0
        log = tmp_path / "out" / "monolithic-tv1" / "trajectories.jsonl"
        lines = log.read_text(encoding="utf-8").splitlines(keepends=True)
        log.write_text(lines[0], encoding="utf-8")
        before = log.read_bytes()
        other = tmp_path / "other"
        assert main(["run", "--config", str(config), "--seed", "1", "--out", str(other)]) == 0
        written = read_trajectories(log)[0].config_digest
        wanted = read_trajectories(other / "monolithic-tv1" / "trajectories.jsonl")[0].config_digest
        assert written != wanted
        capsys.readouterr()
        # A changed seed is another condition: resuming would mix the two.
        assert main(["run", "--config", str(config), "--seed", "1"]) == 2
        assert log.read_bytes() == before
        err = capsys.readouterr().err
        assert str(log) in err and written in err and wanted in err


HTTP_EXECUTOR = {"type": "http", "base_url": "http://127.0.0.1:9", "model": "m"}
SCRIPTED_ENV = {"type": "scripted", "default": "nothing yet"}


MALFORMED_VALUES = {
    "parallelism-str": ({"parallelism": "two"}, "parallelism"),
    "parallelism-list": ({"parallelism": [2]}, "parallelism"),
    "sweep-entry": ({"sweep": [1, "one"]}, "sweep"),
    "temperature-str": ({"run.sampling": {"temperature": "hot"}}, "run.sampling.temperature"),
    "temperature-negative": ({"run.sampling": {"temperature": -1}}, "temperature must be >= 0"),
    "max_generated_tokens": (
        {"run.sampling": {"max_generated_tokens": "many"}}, "run.sampling.max_generated_tokens"
    ),
    "observation_limit-str": (
        {"environment": {**SCRIPTED_ENV, "observation_limit": "lots"}},
        "environment.observation_limit",
    ),
    "observation_limit-mapping": (
        {"environment": {**SCRIPTED_ENV, "observation_limit": {}}},
        "environment.observation_limit",
    ),
    "table-missing-text": (
        {"environment": {**SCRIPTED_ENV, "table": [{"tool": "search"}]}}, "environment.table"
    ),
    "table-not-mapping": (
        {"environment": {**SCRIPTED_ENV, "table": ["search"]}}, "environment.table"
    ),
    "max_retries": (
        {"backends": {"executor": {**HTTP_EXECUTOR, "max_retries": "few"}}},
        "http backend max_retries",
    ),
    "backoff_s": (
        {"backends": {"executor": {**HTTP_EXECUTOR, "backoff_s": "soon"}}},
        "http backend backoff_s",
    ),
    "backoff_cap_s": (
        {"backends": {"executor": {**HTTP_EXECUTOR, "backoff_cap_s": None}}},
        "http backend backoff_cap_s",
    ),
    "timeout_s": (
        {"backends": {"executor": {**HTTP_EXECUTOR, "timeout_s": [1]}}},
        "http backend timeout_s",
    ),
    "max_retries-negative": (
        {"backends": {"executor": {**HTTP_EXECUTOR, "max_retries": -2}}},
        "http backend: max_retries must be >= 0",
    ),
    "backoff_s-negative": (
        {"backends": {"executor": {**HTTP_EXECUTOR, "backoff_s": -1}}},
        "http backend: backoff_s must be >= 0",
    ),
    "backoff_cap_s-negative": (
        {"backends": {"executor": {**HTTP_EXECUTOR, "backoff_cap_s": -0.5}}},
        "http backend: backoff_cap_s must be >= 0",
    ),
    "timeout_s-zero": (
        {"backends": {"executor": {**HTTP_EXECUTOR, "timeout_s": 0}}},
        "http backend: timeout_s must be > 0",
    ),
    "timeout_s-negative": (
        {"backends": {"executor": {**HTTP_EXECUTOR, "timeout_s": -1}}},
        "http backend: timeout_s must be > 0",
    ),
    "backend-not-mapping": ({"backends": {"executor": "typewriter"}}, "backend spec"),
    "environment-not-mapping": ({"environment": "scripted"}, "environment must be a mapping"),
    "models-not-mapping": ({"models": ["edge"]}, "models must be a mapping"),
    "model-not-mapping": ({"models": {"edge": "placement"}}, "models.edge must be a mapping"),
    "sampling-not-mapping": ({"run.sampling": "greedy"}, "run.sampling must be a mapping"),
    # Values int() or bool() would silently change, and 0 where only null means unset.
    "parallelism-float": ({"parallelism": 2.7}, "parallelism: 2.7 is not an integer"),
    "parallelism-bool": ({"parallelism": True}, "parallelism: True is not an integer"),
    "sweep-float": ({"sweep": [1.9]}, "sweep: 1.9 is not an integer"),
    "verify_interval-float": ({"run.verify_interval": 1.5}, "run.verify_interval"),
    "max_turns-float": ({"run.max_turns": 4.5}, "run.max_turns"),
    "max_turns-bool": ({"run.max_turns": True}, "run.max_turns"),
    "max_turns-zero": ({"run.max_turns": 0}, "max_turns must be >= 1"),
    "layers-zero": (
        {"models": {"edge": {**EDGE_MODEL, "layers": 0}, "cloud": CLOUD_MODEL}},
        "layers must be > 0 when set",
    ),
    "seed-bool": ({"run.seed": False}, "run.seed"),
    "max_generated_tokens-float": (
        {"run.sampling": {"max_generated_tokens": 10.5}}, "run.sampling.max_generated_tokens"
    ),
    "max_retries-float": (
        {"backends": {"executor": {**HTTP_EXECUTOR, "max_retries": 2.5}}},
        "http backend max_retries",
    ),
    "observation_limit-bool": (
        {"environment": {**SCRIPTED_ENV, "observation_limit": True}},
        "environment.observation_limit",
    ),
    "context_cap-float": (
        {"models": {"edge": {**EDGE_MODEL, "context_cap": 32768.5}, "cloud": CLOUD_MODEL}},
        "models.edge.context_cap",
    ),
    # NaN passes every bound check (nan < 0 is False); an infinity is no setting.
    "temperature-nan": (
        {"run.sampling": {"temperature": float("nan")}}, "run.sampling.temperature"
    ),
    "temperature-inf-str": ({"run.sampling": {"temperature": "inf"}}, "run.sampling.temperature"),
    "pricing-nan-str": (
        {"models": {"edge": EDGE_MODEL, "cloud": {**CLOUD_MODEL, "pricing": {
            **CLOUD_MODEL["pricing"], "prefill": "NaN"}}}},
        "models.cloud.pricing.prefill: 'NaN' is not a finite number",
    ),
    "pricing-infinity-str": (
        {"models": {"edge": EDGE_MODEL, "cloud": {**CLOUD_MODEL, "pricing": {
            **CLOUD_MODEL["pricing"], "generated": "Infinity"}}}},
        "models.cloud.pricing.generated",
    ),
    "pricing-nan": (
        {"models": {"edge": EDGE_MODEL, "cloud": {**CLOUD_MODEL, "pricing": {
            **CLOUD_MODEL["pricing"], "cached": float("nan")}}}},
        "models.cloud.pricing.cached",
    ),
    "pricing-negative": (
        {"models": {"edge": EDGE_MODEL, "cloud": {**CLOUD_MODEL, "pricing": {
            **CLOUD_MODEL["pricing"], "cached": -1}}}},
        "pricing rates must be >= 0",
    ),
    "param_count-nan": (
        {"models": {"edge": {**EDGE_MODEL, "param_count": float("nan")}, "cloud": CLOUD_MODEL}},
        "models.edge.param_count",
    ),
    "efficiency-inf": (
        {"models": {"edge": {**EDGE_MODEL, "efficiency": float("inf")}, "cloud": CLOUD_MODEL}},
        "models.edge.efficiency",
    ),
    "timeout_s-inf": (
        {"backends": {"executor": {**HTTP_EXECUTOR, "timeout_s": float("inf")}}},
        "http backend timeout_s",
    ),
    "backoff_s-nan": (
        {"backends": {"executor": {**HTTP_EXECUTOR, "backoff_s": "nan"}}},
        "http backend backoff_s",
    ),
    "base_url-no-scheme": (
        {"backends": {"executor": {**HTTP_EXECUTOR, "base_url": "127.0.0.1:9"}}},
        "http backend: base_url must be an http or https URL",
    ),
    # Scripted-environment values that were taken as given: a str of tools
    # became one tool per letter, a number of text failed mid-batch, and a
    # number of argument matched no call.
    "tools-str": ({"environment": {**SCRIPTED_ENV, "tools": "search"}}, "environment.tools"),
    "tools-entry": (
        {"environment": {**SCRIPTED_ENV, "tools": ["search", 5]}}, "environment.tools"
    ),
    "default-int": ({"environment": {**SCRIPTED_ENV, "default": 5}}, "environment.default"),
    "table-text-int": (
        {"environment": {**SCRIPTED_ENV, "table": [{"tool": "search", "text": 5}]}},
        "tool, argument, text and final_answer must be strings",
    ),
    "table-final_answer-int": (
        {"environment": {**SCRIPTED_ENV, "table": [
            {"tool": "finish", "text": "done", "terminal": True, "final_answer": 42}
        ]}},
        "tool, argument, text and final_answer must be strings",
    ),
    "table-argument-int": (
        {"environment": {**SCRIPTED_ENV, "table": [
            {"tool": "search", "argument": 5, "text": "x"}
        ]}},
        "tool, argument, text and final_answer must be strings",
    ),
    "observation_limit-negative": (
        {"environment": {**SCRIPTED_ENV, "observation_limit": -5}},
        "environment.observation_limit must be >= 1",
    ),
    "observation_limit-zero": (
        {"environment": {**SCRIPTED_ENV, "observation_limit": 0}},
        "environment.observation_limit must be >= 1",
    ),
    "table-terminal-str": (
        {"environment": {**SCRIPTED_ENV, "table": [
            {"tool": "search", "text": "x", "terminal": "no"}
        ]}},
        "terminal must be true or false",
    ),
}


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize(
    "overrides, where", list(MALFORMED_VALUES.values()), ids=list(MALFORMED_VALUES)
)
def test_malformed_config_value_exits_1(tmp_path, capsys, overrides, where, command):
    overrides = dict(overrides)
    run = {key[4:]: overrides.pop(key) for key in list(overrides) if key.startswith("run.")}
    overrides.setdefault("sweep", [1])
    config = write_config(tmp_path, **overrides)
    if run:
        data = yaml.safe_load(config.read_text(encoding="utf-8"))
        data["run"].update(run)
        config.write_text(yaml.safe_dump(data), encoding="utf-8")
    assert main([command, "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and where in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_integral_numbers_load_as_integers(tmp_path):
    cfg = cli.load_config(write_config(tmp_path, parallelism=2.0, sweep=[1.0, 3]))
    assert (cfg.parallelism, cfg.sweep) == (2, [1, 3])
    assert all(type(value) is int for value in (cfg.parallelism, *cfg.sweep))


MALFORMED_LINES = {
    "duplicate-task-id": (TASKS[0], None, "line 2: duplicate task id 'A'"),
    "page-without-sentence": (
        TASKS[1], ['{"title": "Alpha", "text": "A page."}', '{"title": "Beta", "text": " "}'],
        "line 2: page 'Beta' needs at least one sentence",
    ),
    # A question that is no string failed mid-batch or was spliced into the
    # prompt; an id that is none of the two became its str(), "None" for null.
    "question-int": ({**TASKS[1], "question": 5}, None, "line 2: question must be a string"),
    "question-list": (
        {**TASKS[1], "question": ["Q2", "what is beta?"]}, None,
        "line 2: question must be a string",
    ),
    "id-null": ({**TASKS[1], "id": None}, None, "line 2: id must be a string or an integer"),
    "id-bool": ({**TASKS[1], "id": True}, None, "line 2: id must be a string or an integer"),
    "id-float": ({**TASKS[1], "id": 2.5}, None, "line 2: id must be a string or an integer"),
}


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize(
    "second_task, lines, message", list(MALFORMED_LINES.values()), ids=list(MALFORMED_LINES)
)
def test_malformed_input_line_exits_1(tmp_path, capsys, command, second_task, lines, message):
    environment = {"type": "scripted"} if lines is None else {"type": "wiki"}
    config = write_config(tmp_path, environment=environment, corpus="corpus.jsonl", sweep=[1])
    write_tasks(tmp_path / "tasks.jsonl", [TASKS[0], second_task])
    lines = lines or ['{"title": "Alpha", "text": "A page."}']
    (tmp_path / "corpus.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main([command, "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_task_with_empty_question_exits_1(tmp_path, capsys, command):
    config = write_config(tmp_path, sweep=[1])
    write_tasks(tmp_path / "tasks.jsonl", [TASKS[0], {**TASKS[1], "question": ""}])
    assert main([command, "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: line 2: ") and "query must be non-empty" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_wiki_environment_without_corpus_exits_1(tmp_path, capsys, command):
    config = write_config(tmp_path, environment={"type": "wiki"}, sweep=[1])
    assert main([command, "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "requires a corpus path" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "variable, value, backend, message",
    [
        ("REQUESTS_CA_BUNDLE", "missing.pem", {"base_url": "https://127.0.0.1:9"}, "CA bundle"),
        ("HTTP_PROXY", "http://:3128", {}, "names no host"),
        ("HYBRIDMAS_TEST_CREDENTIAL", "a\r\nb", {"credential_env": "HYBRIDMAS_TEST_CREDENTIAL"},
         "holds a CR, LF or NUL"),
    ],
    ids=["missing-ca-bundle", "proxy-without-host", "credential-with-newline"],
)
def test_local_http_fault_exits_1_before_any_task(
    tmp_path, capsys, monkeypatch, variable, value, backend, message
):
    for name in ("NO_PROXY", "no_proxy", "http_proxy", "CURL_CA_BUNDLE"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv(variable, value)
    config = write_config(tmp_path, backends={"executor": {**HTTP_EXECUTOR, **backend}})
    assert main(["run", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: http backend: ") and message in err
    assert not (tmp_path / "out").exists()


class TestRunLoop:
    def test_escaped_exception_keeps_earlier_records(self, tmp_path, monkeypatch, capsys):
        started = []
        real = cli.run_trajectory

        def failing(task, *args):
            started.append(task.id)
            if task.id == "B":
                raise RuntimeError("not a backend error")
            return real(task, *args)

        monkeypatch.setattr(cli, "run_trajectory", failing)
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config)]) == 2
        assert "runtime error: not a backend error" in capsys.readouterr().err
        log = tmp_path / "out" / "monolithic-tv1" / "trajectories.jsonl"
        assert [r.task_id for r in read_trajectories(log)] == ["A"]
        assert started == ["A", "B"]

        # The resume reruns only the tasks that were not written.
        monkeypatch.setattr(cli, "run_trajectory", real)
        assert main(["run", "--config", str(config)]) == 0
        assert [r.task_id for r in read_trajectories(log)] == ["A", "B", "C"]

    def test_log_is_written_record_by_record(self, tmp_path, monkeypatch):
        config = write_config(tmp_path)
        log = tmp_path / "out" / "monolithic-tv1" / "trajectories.jsonl"
        seen = []
        real = cli.run_trajectory

        def watching(task, *args):
            seen.append(log.read_text(encoding="utf-8").count("\n"))
            return real(task, *args)

        monkeypatch.setattr(cli, "run_trajectory", watching)
        assert main(["run", "--config", str(config)]) == 0
        assert seen == [0, 1, 2]

    def test_no_pending_task_still_leaves_the_log(self, tmp_path):
        config = write_config(tmp_path)
        (tmp_path / "tasks.jsonl").write_text("", encoding="utf-8")
        assert main(["run", "--config", str(config)]) == 0
        assert (tmp_path / "out" / "monolithic-tv1" / "trajectories.jsonl").read_bytes() == b""


def eva_sweep_config(tmp_path):
    executor_script = []
    for i, q in enumerate(("Q1", "Q2", "Q3"), start=1):
        executor_script.append({"match": q, "response": "Thinking.\nTool call: search[x]"})
        executor_script.append({"match": q, "response": f"Tool call: finish[a{i}]"})
    return write_config(
        tmp_path,
        run={
            "architecture": "eva",
            "max_turns": 4,
            "verify_interval": 1,
            "executor": {"model": "edge", "backend": "executor"},
            "supervisor": {"model": "cloud", "backend": "supervisor"},
            "seed": 0,
        },
        backends={
            "executor": {"type": "script", "script": executor_script},
            "supervisor": {"type": "script", "script": [{"response": "CONTINUE"}] * 3},
        },
        sweep=[1, 2],
    )


class TestCmdSweep:
    def test_sweep_runs_each_interval(self, tmp_path):
        config = eva_sweep_config(tmp_path)
        assert main(["sweep", "--config", str(config)]) == 0
        for tv in (1, 2):
            log = tmp_path / "out" / f"eva-tv{tv}" / "trajectories.jsonl"
            assert len(read_trajectories(log)) == 3
        with open(tmp_path / "out" / "sweep_points.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["label"] for row in rows] == ["eva-tv1", "eva-tv2"]
        assert all(row["architecture"] == "eva" for row in rows)

    def test_sweep_performance_is_the_frontier_statistic(self, tmp_path):
        # B has no gold answers: unscored, it counts 0 in performance and
        # nothing in mean_score.
        config = write_config(tmp_path, sweep=[1])
        tasks = [dict(task) for task in TASKS]
        tasks[1]["answers"] = []
        write_tasks(tmp_path / "tasks.jsonl", tasks)
        assert main(["sweep", "--config", str(config)]) == 0
        records = read_trajectories(tmp_path / "out" / "monolithic-tv1" / "trajectories.jsonl")
        stats = condition_stats(records)
        assert (stats.mean_score, stats.performance) == (1.0, pytest.approx(2 / 3))
        with open(tmp_path / "out" / "sweep_points.csv", encoding="utf-8") as fh:
            [row] = csv.DictReader(fh)
        assert float(row["performance"]) == stats.performance

    def test_sweep_prepares_tasks_and_environment_once(self, tmp_path, monkeypatch):
        config = eva_sweep_config(tmp_path)
        data = yaml.safe_load(config.read_text(encoding="utf-8"))
        data["sweep"] = [1, 2, 3]
        config.write_text(yaml.safe_dump(data), encoding="utf-8")
        calls = []

        def counted(name):
            real = getattr(cli, name)

            def wrapper(*args):
                calls.append((name, args[0]) if name == "build_backend" else name)
                return real(*args)

            monkeypatch.setattr(cli, name, wrapper)

        for name in ("load_tasks", "build_environment_factory", "build_backend"):
            counted(name)
        assert main(["sweep", "--config", str(config)]) == 0
        # Backends are built per interval: a scripted one is consumed by its run.
        per_interval = [("build_backend", data["backends"][role])
                        for role in ("executor", "supervisor")]
        assert calls == ["load_tasks", "build_environment_factory", *per_interval * 3]
        for tv in (1, 2, 3):
            log = tmp_path / "out" / f"eva-tv{tv}" / "trajectories.jsonl"
            assert [r.termination for r in read_trajectories(log)] == ["finished"] * 3

    def test_sweep_without_list_is_config_error(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["sweep", "--config", str(config)]) == 1

    def test_empty_sweep_is_config_error(self, tmp_path):
        config = write_config(tmp_path, sweep=[])
        assert main(["sweep", "--config", str(config)]) == 1

    def test_singleton_sweep_matches_run(self, tmp_path):
        config = eva_sweep_config(tmp_path)
        data = yaml.safe_load(config.read_text(encoding="utf-8"))
        data["sweep"] = [2]
        config.write_text(yaml.safe_dump(data), encoding="utf-8")
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "s")]) == 0
        sweep_log = tmp_path / "s" / "eva-tv2" / "trajectories.jsonl"

        data["run"]["verify_interval"] = 2
        config.write_text(yaml.safe_dump(data), encoding="utf-8")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "r")]) == 0
        run_log = tmp_path / "r" / "eva-tv2" / "trajectories.jsonl"
        assert sweep_log.read_bytes() == run_log.read_bytes()


def audit_config(tmp_path):
    # Two tasks: one intervened-and-successful (FP), one continued-and-failed (FN).
    tasks = [
        {"id": "A", "question": "Q1 alpha?", "answers": ["a1"]},
        {"id": "B", "question": "Q2 beta?", "answers": ["a2"]},
    ]
    executor_script = [
        {"match": "Q1", "response": "Thinking.\nTool call: search[x]"},
        {"match": "Q1", "response": "Tool call: finish[a1]"},
        {"match": "Q2", "response": "Thinking.\nTool call: search[x]"},
        {"match": "Q2", "response": "Tool call: finish[wrong]"},
    ]
    supervisor_script = [
        {"response": "INTERVENE\n<SUMMARY>s</SUMMARY>\n<ADVICE>a</ADVICE>"},
        {"response": "CONTINUE"},
    ]
    config = {
        "run": {
            "architecture": "eva_audit",
            "max_turns": 4,
            "verify_interval": 1,
            "executor": {"model": "edge", "backend": "executor"},
            "supervisor": {"model": "cloud", "backend": "supervisor"},
            "seed": 0,
        },
        "models": {"edge": EDGE_MODEL, "cloud": CLOUD_MODEL},
        "backends": {
            "executor": {"type": "script", "script": executor_script},
            "supervisor": {"type": "script", "script": supervisor_script},
        },
        "dataset": "tasks.jsonl",
        "environment": {"type": "scripted", "default": "obs"},
        "output": "audit_out",
        "parallelism": 1,
    }
    (tmp_path / "tasks.jsonl").write_text(
        "\n".join(json.dumps(t) for t in tasks) + "\n", encoding="utf-8"
    )
    path = tmp_path / "audit_config.yaml"
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    return path


class TestCmdReport:
    @pytest.fixture
    def run_logs(self, tmp_path):
        config = eva_sweep_config(tmp_path)
        assert main(["sweep", "--config", str(config)]) == 0
        return [
            str(tmp_path / "out" / f"eva-tv{tv}" / "trajectories.jsonl") for tv in (1, 2)
        ]

    def test_frontier(self, run_logs, tmp_path):
        out = tmp_path / "reports"
        assert main(["report", *run_logs, "--frontier", "--out", str(out)]) == 0
        with open(out / "frontier.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        costs = [float(r["cost"]) for r in rows]
        assert costs == sorted(costs)

    def test_energy_axis(self, run_logs, tmp_path):
        out = tmp_path / "reports_energy"
        assert main(
            ["report", *run_logs, "--frontier", "--axis", "energy", "--out", str(out)]
        ) == 0
        with open(out / "frontier.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["axis"] == "energy" for r in rows)

    def test_histogram(self, run_logs, tmp_path):
        out = tmp_path / "reports"
        assert main(["report", *run_logs, "--histogram", "--out", str(out)]) == 0
        with open(out / "histogram.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["intervention_count"] == "0"
        assert sum(int(r["frequency"]) for r in rows) == 6

    def test_confusion_requires_audit_records(self, run_logs, tmp_path):
        assert (
            main(["report", *run_logs, "--confusion", "--out", str(tmp_path / "x")]) == 2
        )

    def test_confusion_on_audit_runs(self, tmp_path):
        config = audit_config(tmp_path)
        assert main(["run", "--config", str(config)]) == 0
        log = tmp_path / "audit_out" / "eva_audit-tv1" / "trajectories.jsonl"
        out = tmp_path / "reports"
        assert main(["report", str(log), "--confusion", "--out", str(out)]) == 0
        with open(out / "confusion.csv", encoding="utf-8") as fh:
            row = next(csv.DictReader(fh))
        assert row["fp"] == "1"
        assert row["fn"] == "1"
        assert row["tp"] == "0"
        assert row["tn"] == "0"

    def test_overlap_over_three_runs(self, run_logs, tmp_path):
        third_dir = tmp_path / "out" / "eva-tv3"
        third_dir.mkdir(parents=True)
        source = tmp_path / "out" / "eva-tv1" / "trajectories.jsonl"
        (third_dir / "trajectories.jsonl").write_bytes(source.read_bytes())
        out = tmp_path / "reports"
        assert (
            main(
                [
                    "report",
                    *run_logs,
                    str(third_dir / "trajectories.jsonl"),
                    "--overlap",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        with open(out / "overlap.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 7
        assert sum(int(r["count"]) for r in rows) == 3  # three solved task ids total

    def test_kv_growth(self, run_logs, tmp_path):
        out = tmp_path / "reports"
        assert main(["report", *run_logs, "--kv-growth", "--out", str(out)]) == 0
        with open(out / "kv_growth.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["label"] for r in rows] == ["eva-tv1", "eva-tv2"]
        assert all(float(r["mean_max_kv_bytes"]) > 0 for r in rows)

    def test_no_flags_is_config_error(self, run_logs, tmp_path):
        assert main(["report", *run_logs, "--out", str(tmp_path / "r")]) == 1

    def test_missing_file_is_config_error(self, tmp_path):
        assert main(["report", str(tmp_path / "nope.jsonl"), "--frontier"]) == 1
