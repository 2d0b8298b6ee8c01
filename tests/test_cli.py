"""End-to-end CLI behavior over temp directories and scripted configs."""

import csv
import gc
import json
import weakref
from pathlib import Path

import pytest
import yaml

from hybridmas import cli
from hybridmas import config as config_module
from hybridmas.analysis import condition_stats
from hybridmas.backends import ScriptEntry
from hybridmas.cli import main
from hybridmas.core import read_trajectories, record_to_json_line
from hybridmas.environments import WikiCorpus

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

GOLDEN_LOGS = Path(__file__).parent / "data" / "golden" / "logs"
ALL_REPORT_FLAGS = ["--frontier", "--histogram", "--confusion", "--overlap", "--kv-growth"]

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

    def test_parallelism_override_below_1_exits_1_without_output(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config), "--parallelism", "0"]) == 1
        assert not (tmp_path / "out").exists()
        assert "config error: parallelism must be >= 1" in capsys.readouterr().err

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

    def test_script_file_resolves_against_the_config_directory(self, tmp_path, monkeypatch):
        (tmp_path / "data").mkdir()
        (tmp_path / "edge.json").write_text(json.dumps(finish_script()), encoding="utf-8")
        write_config(
            tmp_path,
            dataset="data/tasks.jsonl",
            backends={"executor": {"type": "script", "script_file": "edge.json"}},
        )
        write_tasks(tmp_path / "data" / "tasks.jsonl")
        # A config path relative to the working directory, as a shell gives it.
        monkeypatch.chdir(tmp_path.parent)
        config = f"{tmp_path.name}/config.yaml"
        assert main(["run", "--config", config]) == 0
        records = read_trajectories(tmp_path / "out" / "monolithic-tv1" / "trajectories.jsonl")
        assert [r.termination for r in records] == ["finished"] * 3
        built = cli.build_backend(cli.load_config(config).backend_specs["executor"])
        assert built._entries == [ScriptEntry(e["response"], e["match"]) for e in finish_script()]

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
    # The limit is no key, whatever its value.
    **{f"observation_limit-{kind}": (
        {"environment": {**SCRIPTED_ENV, "observation_limit": value}},
        "config error: unknown key 'observation_limit' in environment",
    ) for kind, value in (("str", "lots"), ("mapping", {}), ("bool", True), ("negative", -5),
                          ("zero", 0))},
    "table-missing-text": (
        {"environment": {**SCRIPTED_ENV, "table": [{"tool": "search"}]}}, "environment.table"
    ),
    "sweep-duplicate": ({"sweep": [2, 1, 2]}, "config error: sweep: duplicate interval 2"),
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
    "script-response-int": (
        {"backends": {"executor": {"type": "script", "script": [{"response": 5}]}}},
        "bad script entry: ",
    ),
    "environment-not-mapping": ({"environment": "scripted"}, "environment must be a mapping"),
    # A type that is no string: a list was unhashable (exit 2).
    "environment-type-list": (
        {"environment": {"type": ["scripted"]}},
        "config error: environment.type must be a string, not ['scripted']",
    ),
    "environment-type-mapping": (
        {"environment": {"type": {"scripted": None}}}, "environment.type must be a string"
    ),
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
    # A scripted environment has the wiki environment's tools; tools is no key.
    "tools-str": (
        {"environment": {**SCRIPTED_ENV, "tools": "search"}}, "unknown key 'tools' in environment"
    ),
    "tools-entry": (
        {"environment": {**SCRIPTED_ENV, "tools": ["search", 5]}},
        "unknown key 'tools' in environment",
    ),
    # Scripted-environment values that were taken as given: a number of text
    # failed mid-batch, and a number of argument matched no call.
    "default-int": ({"environment": {**SCRIPTED_ENV, "default": 5}}, "environment.default"),
    "table-text-int": (
        {"environment": {**SCRIPTED_ENV, "table": [{"tool": "search", "text": 5}]}},
        "environment.table[0].text must be a string",
    ),
    "table-final_answer-int": (
        {"environment": {**SCRIPTED_ENV, "table": [
            {"tool": "finish", "text": "done", "terminal": True, "final_answer": 42}
        ]}},
        "environment.table[0].final_answer must be a string",
    ),
    "table-argument-int": (
        {"environment": {**SCRIPTED_ENV, "table": [
            {"tool": "search", "text": "x"}, {"tool": "search", "argument": 5, "text": "x"}
        ]}},
        "environment.table[1].argument must be a string",
    ),
    # A repeated call, whose later text silently replaced the earlier one.
    "table-duplicate-call": (
        {"environment": {**SCRIPTED_ENV, "table": [
            {"tool": "search", "argument": "x", "text": "first"},
            {"tool": "search", "argument": "x", "text": "second"},
        ]}},
        "environment.table[1]: duplicate call search[x]",
    ),
    "table-final_answer-not-terminal": (
        {"environment": {**SCRIPTED_ENV, "table": [
            {"tool": "search", "text": "x", "final_answer": "a"}
        ]}},
        "environment.table[0]: final_answer requires a terminal observation",
    ),
    "table-empty-tool": (
        {"environment": {**SCRIPTED_ENV, "table": [{"tool": "", "text": "x"}]}},
        "environment.table[0]: tool name must be non-empty",
    ),
    "table-mapping": (
        {"environment": {**SCRIPTED_ENV, "table": {"tool": "search", "text": "x"}}},
        "environment.table must be a list of entries",
    ),
    "sweep-zero": ({"sweep": [1, 0]}, "sweep: verify_interval must be >= 1"),
    "table-terminal-str": (
        {"environment": {**SCRIPTED_ENV, "table": [
            {"tool": "search", "text": "x", "terminal": "no"}
        ]}},
        "terminal must be true or false",
    ),
    # Values that must be strings: a list was unhashable or a number could
    # not be joined to a path (exit 2), and an http model list was sent as is.
    "architecture-list": ({"run.architecture": ["eva"]}, "run.architecture must be a string"),
    "executor-model-list": (
        {"run.executor": {"model": ["edge"], "backend": "executor"}},
        "run.executor.model must be a string",
    ),
    "executor-backend-list": (
        {"run.executor": {"model": "edge", "backend": ["executor"]}},
        "run.executor.backend must be a string",
    ),
    "dataset-int": ({"dataset": 5}, "dataset must be a string"),
    "output-int": ({"output": 7}, "output must be a string"),
    "corpus-list": ({"corpus": [1]}, "corpus must be a string"),
    "script_file-int": (
        {"backends": {"executor": {"type": "script", "script_file": 5}}},
        "backends.executor.script_file must be a string",
    ),
    "base_url-int": (
        {"backends": {"executor": {**HTTP_EXECUTOR, "base_url": 5}}},
        "http backend base_url must be a string",
    ),
    "http-model-list": (
        {"backends": {"executor": {**HTTP_EXECUTOR, "model": ["m"]}}},
        "http backend model must be a string",
    ),
    "credential_env-list": (
        {"backends": {"executor": {**HTTP_EXECUTOR, "credential_env": ["X"]}}},
        "http backend credential_env must be a string",
    ),
    # A misspelled key, which ran the defaults' condition in its place.
    "verify_interval-misspelled": (
        {"run.verify_intreval": 7}, "unknown key 'verify_intreval' in run"
    ),
    "temperature-misspelled": ({"run.temprature": 0.5}, "unknown key 'temprature' in run"),
    "parallelism-misspelled": ({"paralelism": 2}, "unknown key 'paralelism' in config"),
    "executor-misspelled": (
        {"run.executor": {"model": "edge", "backend": "executor", "bakend": "other"}},
        "unknown key 'bakend' in run.executor",
    ),
    "efficiency-misspelled": (
        {"models": {"edge": {**EDGE_MODEL, "efficency": 1.5e12}, "cloud": CLOUD_MODEL}},
        "unknown key 'efficency' in models.edge",
    ),
    "pricing-misspelled": (
        {"models": {"edge": EDGE_MODEL, "cloud": {**CLOUD_MODEL, "pricing": {
            **CLOUD_MODEL["pricing"], "prefil": 2.5}}}},
        "unknown key 'prefil' in models.cloud.pricing",
    ),
    "sampling-misspelled": (
        {"run.sampling": {"temprature": 0.5}}, "unknown key 'temprature' in run.sampling"
    ),
    "http-misspelled": (
        {"backends": {"executor": {**HTTP_EXECUTOR, "max_retry": 5}}},
        "unknown key 'max_retry' in http backend",
    ),
    "script-misspelled": (
        {"backends": {"executor": {"type": "script", "script": finish_script(),
                                   "scirpt_file": "more.json"}}},
        "unknown key 'scirpt_file' in script backend",
    ),
    "environment-misspelled": (
        {"environment": {**SCRIPTED_ENV, "observation_limt": 10}},
        "unknown key 'observation_limt' in environment",
    ),
    "table-entry-misspelled": (
        {"environment": {**SCRIPTED_ENV, "table": [
            {"tool": "search", "text": "x", "terminl": True}
        ]}},
        "unknown key 'terminl' in environment.table[0]",
    ),
    # Declared fields that are set from other keys, or not by config at all.
    "environment_id": ({"run.environment_id": "scripted"}, "unknown key 'environment_id' in run"),
    "model-name": (
        {"models": {"edge": {**EDGE_MODEL, "name": "other"}, "cloud": CLOUD_MODEL}},
        "unknown key 'name' in models.edge",
    ),
    "tool_prompt": (
        {"environment": {**SCRIPTED_ENV, "tool_prompt": "Tools: search."}},
        "unknown key 'tool_prompt' in environment",
    ),
    # Scripted-only keys, which a wiki environment ignored.
    "wiki-table": (
        {"environment": {"type": "wiki", "table": []}, "corpus": "tasks.jsonl"},
        "unknown key 'table' in environment",
    ),
    "wiki-default": (
        {"environment": {"type": "wiki", "default": "x"}, "corpus": "tasks.jsonl"},
        "unknown key 'default' in environment",
    ),
    # Values that read as absent: only an absent or null key means its default.
    **{
        f"{key}-{name}": ({key: value}, where)
        for key, where in (("output", "output must be"), ("run.sampling", "run.sampling must be"),
                           ("environment", "environment must be"), ("corpus", "corpus must be"))
        for name, value in (("zero", 0), ("false", False), ("empty-str", ""), ("empty-list", []))
    },
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
    # Refused by the one reader of the file, before anything is built.
    with pytest.raises(cli.ConfigError):
        cli.load_config(config)


def test_integral_numbers_load_as_integers(tmp_path):
    cfg = cli.load_config(write_config(tmp_path, parallelism=2.0, sweep=[1.0, 3]))
    assert (cfg.parallelism, cfg.sweep) == (2, [1, 3])
    assert all(type(value) is int for value in (cfg.parallelism, *cfg.sweep))


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_value_the_wiki_environment_refuses_exits_1(tmp_path, capsys, monkeypatch, command):
    (tmp_path / "corpus.jsonl").write_text('{"title": "A", "text": "A page."}\n',
                                           encoding="utf-8")
    config = write_config(tmp_path, environment={"type": "wiki", "observation_limit": 0},
                          corpus="corpus.jsonl", sweep=[1])
    loads = []
    monkeypatch.setattr(WikiCorpus, "load", classmethod(lambda cls, path: loads.append(path)))
    assert main([command, "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err == "config error: unknown key 'observation_limit' in environment\n"
    assert not (tmp_path / "out").exists()
    # The key is refused before the corpus is read.
    assert loads == []


def test_null_table_runs_as_no_table(tmp_path):
    for name, environment in (("none", SCRIPTED_ENV), ("null", {**SCRIPTED_ENV, "table": None})):
        config = write_config(tmp_path, environment=environment)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / name)]) == 0
    none, null = (tmp_path / name / "monolithic-tv1" / "trajectories.jsonl"
                  for name in ("none", "null"))
    assert null.read_bytes() == none.read_bytes()


UNCHECKED_SPECS = {
    # A spec that no role references was never built, so never checked.
    "unreferenced-http": (
        {"executor": {"type": "script", "script": finish_script()},
         "spare": {**HTTP_EXECUTOR, "max_retry": 5}},
        "unknown key 'max_retry' in http backend",
    ),
    "unreferenced-script-file": (
        {"executor": {"type": "script", "script": finish_script()},
         "spare": {"type": "script", "script_file": "missing.json"}},
        "script file not found: ",
    ),
    "unreferenced-type": (
        {"executor": {"type": "script", "script": finish_script()}, "spare": {"type": "grpc"}},
        "unknown backend type 'grpc'",
    ),
    # A value that only the constructor checks, of a spec no role references.
    "unreferenced-max_retries": (
        {"executor": {"type": "script", "script": finish_script()},
         "spare": {**HTTP_EXECUTOR, "max_retries": -1}},
        "http backend: max_retries must be >= 0",
    ),
    "unreferenced-base_url": (
        {"executor": {"type": "script", "script": finish_script()},
         "spare": {**HTTP_EXECUTOR, "base_url": "ftp://x"}},
        "http backend: base_url must be an http or https URL",
    ),
    "unreferenced-timeout_s": (
        {"executor": {"type": "script", "script": finish_script()},
         "spare": {**HTTP_EXECUTOR, "timeout_s": 0}},
        "http backend: timeout_s must be > 0",
    ),
    # A referenced spec was checked only once the tasks and the corpus were read.
    "referenced-http": (
        {"executor": {**HTTP_EXECUTOR, "max_retry": 5}},
        "unknown key 'max_retry' in http backend",
    ),
    "referenced-timeout_s": (
        {"executor": {**HTTP_EXECUTOR, "timeout_s": 0}},
        "http backend: timeout_s must be > 0",
    ),
}


@pytest.mark.parametrize("backends, message", list(UNCHECKED_SPECS.values()),
                         ids=list(UNCHECKED_SPECS))
def test_every_backend_spec_is_checked_before_any_input_is_read(
    tmp_path, capsys, monkeypatch, backends, message
):
    loads = []
    monkeypatch.setattr(cli, "load_tasks", lambda path: loads.append(path))
    monkeypatch.setattr(WikiCorpus, "load", classmethod(lambda cls, path: loads.append(path)))
    (tmp_path / "corpus.jsonl").write_text('{"title": "A", "text": "A page."}\n',
                                           encoding="utf-8")
    config = write_config(tmp_path, backends=backends, environment={"type": "wiki"},
                          corpus="corpus.jsonl")
    assert main(["run", "--config", str(config)]) == 1
    assert message in capsys.readouterr().err
    assert loads == []
    assert not (tmp_path / "out").exists()


def _golden_config_with_spare(tmp_path, spare):
    """The golden eva.yaml in tmp_path, with the backend spec spare beside
    its two, referenced by no role."""
    golden = GOLDEN_LOGS.parent
    data = yaml.safe_load((golden / "eva.yaml").read_text(encoding="utf-8"))
    data["dataset"] = str(golden / "tasks.jsonl")
    data["backends"]["edge"]["script_file"] = str(golden / "executor.yaml")
    data["backends"]["spare"] = spare
    config = tmp_path / "eva.yaml"
    config.write_text(yaml.safe_dump(data), encoding="utf-8")
    return config


def test_unreferenced_spec_beside_the_golden_config_exits_1(tmp_path, capsys):
    config = _golden_config_with_spare(tmp_path, {**HTTP_EXECUTOR, "max_retry": 5})
    assert main(["run", "--config", str(config)]) == 1
    assert "unknown key 'max_retry' in http backend" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("script, message", [
    ({"script": 5}, "backend script must be a non-empty list"),
    ({"script": [{"response": 5}]}, "bad script entry: {'response': 5}"),
    ({"script_file": "empty.json"}, "backend script must be a non-empty list"),
], ids=["not-a-list", "bad-entry", "file-not-a-list"])
def test_unreferenced_script_beside_the_golden_config_exits_1(tmp_path, capsys, script,
                                                              message):
    (tmp_path / "empty.json").write_text("{}", encoding="utf-8")
    config = _golden_config_with_spare(tmp_path, {"type": "script", **script})
    assert main(["run", "--config", str(config)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_each_task_is_scored_once(tmp_path, monkeypatch):
    scored = []
    score = cli.analysis.trajectory_score
    monkeypatch.setattr(cli.analysis, "trajectory_score",
                        lambda tag, record, golds: scored.append(record.task_id)
                        or score(tag, record, golds))
    assert main(["run", "--config", str(write_config(tmp_path))]) == 0
    assert scored == ["A", "B", "C"]
    records = read_trajectories(tmp_path / "out" / "monolithic-tv1" / "trajectories.jsonl")
    assert [(r.score, r.success) for r in records] == [(1.0, True)] * 3


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

    def test_text_that_needs_escaping_is_written_as_json_dumps_writes_it(self, tmp_path):
        odd = 'é 漢\u2028\x7f\t"q" \\n'
        config = write_config(
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
                "executor": {"type": "script", "script": [
                    {"response": f"First {odd}\nthen search.\nTool call: search[{odd}]"},
                    {"response": f"Tool call: finish[{odd}]"},
                ]},
                "supervisor": {"type": "script", "script": [
                    {"response": f"INTERVENE\n<SUMMARY>{odd}</SUMMARY>\n<ADVICE>{odd}</ADVICE>"},
                ]},
            },
            environment={
                "type": "scripted",
                "default": f"default {odd}",
                "table": [{"tool": "search", "argument": odd, "text": f"found {odd}"}],
            },
        )
        write_tasks(tmp_path / "tasks.jsonl", TASKS[:1])
        assert main(["run", "--config", str(config)]) == 0
        log = tmp_path / "out" / "eva-tv1" / "trajectories.jsonl"
        # Lines end at "\n" only: str.splitlines would also split at U+2028.
        *lines, last = log.read_text(encoding="utf-8").split("\n")
        assert len(lines) == 1 and last == ""
        for line in lines:
            assert line == json.dumps(json.loads(line), ensure_ascii=False, separators=(",", ":"))
        [record] = read_trajectories(log)
        assert record_to_json_line(record) == lines[0]
        assert record.turns[0].reasoning == f"First {odd}\nthen search."
        assert record.turns[0].observation == f"found {odd}"
        assert record.supervisor_calls[0].decision.payload.advice == odd
        assert record.final_answer == odd
        # A resume reads the log back and finds nothing pending.
        before = log.read_bytes()
        assert main(["run", "--config", str(config)]) == 0
        assert log.read_bytes() == before

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
        calls, loaded = [], []

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args):
                calls.append((name, args[0]) if name == "build_backend" else name)
                result = real(*args)
                if name == "load_config":
                    loaded.append(result)
                return result

            monkeypatch.setattr(module, name, wrapper)

        for name in ("load_config", "load_tasks", "build_environment_factory", "build_backend"):
            counted(cli, name)
        counted(config_module, "_load_script")
        assert main(["sweep", "--config", str(config)]) == 0
        # Each script is read once, at load. Each role's backend is built per
        # interval: a scripted one is consumed by its run.
        roles = {spec: role for role, spec in loaded[0].backend_specs.items()}
        calls = [(call[0], roles[call[1]]) if isinstance(call, tuple) else call
                 for call in calls]
        per_interval = [("build_backend", "executor"), ("build_backend", "supervisor")]
        assert calls == ["load_config", "_load_script", "_load_script", "load_tasks",
                         "build_environment_factory", *per_interval * 3]
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

    @pytest.mark.parametrize(
        "logs, code",
        [(["pevr_audit", "eva_audit"], 0), (["eva", "pevr_audit", "eva_audit"], 2)],
        ids=["audit", "non-audit-first"],
    )
    def test_holds_one_log_at_a_time(self, tmp_path, monkeypatch, logs, code):
        paths = [GOLDEN_LOGS / f"{name}.jsonl" for name in logs]
        read, alive_at_read = [], []
        earlier: list = []

        def tracked(path):
            gc.collect()
            alive_at_read.append(sum(ref() is not None for ref in earlier))
            read.append(path)
            records = read_trajectories(path)
            earlier.extend(weakref.ref(record) for record in records)
            return records

        monkeypatch.setattr(cli, "read_trajectories", tracked)
        assert main(["report", *map(str, paths), *ALL_REPORT_FLAGS,
                     "--out", str(tmp_path)]) == code
        assert read == paths
        assert alive_at_read == [0] * len(paths)

    @pytest.mark.parametrize(
        "logs, error",
        [
            (["eva", "unlabeled"], "record radium has no success label"),
            (["unlabeled", "eva"], "record radium has no success label"),
            (["pevr_audit", "eva", "eva_nosummary"], "record louvre is eva, not an audit run"),
        ],
    )
    def test_confusion_error_precedence(self, tmp_path, capsys, logs, error):
        lines = (GOLDEN_LOGS / "pevr_audit.jsonl").read_text(encoding="utf-8").splitlines()
        radium = json.loads(lines[1])
        radium["success"] = None
        lines[1] = json.dumps(radium)
        (tmp_path / "unlabeled.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths = [tmp_path / "unlabeled.jsonl" if name == "unlabeled"
                 else GOLDEN_LOGS / f"{name}.jsonl" for name in logs]
        out = tmp_path / "reports"
        assert main(["report", *map(str, paths), "--confusion", "--out", str(out)]) == 2
        assert f"runtime error: {error}" in capsys.readouterr().err
        assert not (out / "confusion.csv").exists()

    def test_repeated_label_is_config_error(self, tmp_path, capsys):
        paths = []
        for run, name in (("a", "eva"), ("b", "pevr")):
            path = tmp_path / run / "eva-tv1" / "trajectories.jsonl"
            path.parent.mkdir(parents=True)
            path.write_bytes((GOLDEN_LOGS / f"{name}.jsonl").read_bytes())
            paths.append(str(path))
        out = tmp_path / "reports"
        assert main(["report", *paths, "--histogram", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "eva-tv1" in err and paths[0] in err and paths[1] in err
        assert not out.exists()

    @pytest.mark.parametrize("logs", [["eva"], ["eva", "pevr", "eva_audit", "pevr_audit"]],
                             ids=["1", "4"])
    def test_overlap_arity_is_config_error_before_reading(self, tmp_path, capsys, monkeypatch,
                                                           logs):
        def unread(path):
            raise AssertionError(f"{path} was read")

        monkeypatch.setattr(cli, "read_trajectories", unread)
        paths = [str(GOLDEN_LOGS / f"{name}.jsonl") for name in logs]
        out = tmp_path / "reports"
        assert main(["report", *paths, "--frontier", "--overlap", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: --overlap needs 2 or 3 logs, got {len(logs)}\n"
        assert not out.exists()
