"""End-to-end CLI behavior over temp directories and scripted configs."""

import csv
import json

import pytest
import yaml

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
