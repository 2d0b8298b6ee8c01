"""Rewrite every golden artifact under tests/data/golden/ from the
program: logs/ and the run summaries in reports/run.txt by `hybridmas run`
on each architecture's config, logs_with_memory/ from logs/ by adding each
replan and no-summary intervention's tool-call memory (derived from the
turns up to its at_turn; empty in an audit run, which hands nothing over),
and the report CSVs that tests/test_golden.py checks by `hybridmas report`
over logs_with_memory/.

Run from the repository root after a deliberate change of the golden runs:

    PYTHONPATH=src python tests/regenerate_golden.py
"""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

from hybridmas.cli import main
from hybridmas.core import AUDIT_ARCHITECTURES, record_from_dict
from hybridmas.prompting import format_memory
from test_golden import ARCHITECTURES, GOLDEN, REPORTS


def with_memory(line: str) -> str:
    """A logs/ line in the earlier format: each replan payload holds the
    memory after its replan, each advice_memory payload before its advice."""
    data = json.loads(line)
    record = record_from_dict(data)
    for call in data["supervisor_calls"]:
        payload = call["decision"]["payload"]
        if payload is None or payload["kind"] not in ("replan", "advice_memory"):
            continue
        memory = "" if record.architecture in AUDIT_ARCHITECTURES else "".join(
            format_memory([t for t in record.turns if t.t <= call["at_turn"]])
        )
        if payload["kind"] == "replan":
            payload["memory"] = memory
        else:
            call["decision"]["payload"] = {"kind": "advice_memory", "memory": memory,
                                           "advice": payload["advice"]}
    return json.dumps(data, separators=(",", ":"))


def main_regenerate() -> None:
    summaries = []
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for architecture in ARCHITECTURES:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main(["run", "--config", str(GOLDEN / f"{architecture}.yaml"),
                             "--out", str(out)])
            if code != 0:
                raise SystemExit(f"hybridmas run failed on {architecture}.yaml")
            summaries.append(stdout.getvalue().strip().rsplit(" out=", 1)[0])
            log = GOLDEN / "logs" / f"{architecture}.jsonl"
            shutil.copyfile(out / f"{architecture}-tv2" / "trajectories.jsonl", log)
            lines = log.read_text(encoding="utf-8").splitlines()
            (GOLDEN / "logs_with_memory" / f"{architecture}.jsonl").write_text(
                "".join(with_memory(line) + "\n" for line in lines), encoding="utf-8"
            )
        for flags, architectures, outputs in REPORTS:
            logs = [str(GOLDEN / "logs_with_memory" / f"{a}.jsonl") for a in architectures]
            with contextlib.redirect_stdout(io.StringIO()):
                if main(["report", *logs, *flags, "--out", str(out)]) != 0:
                    raise SystemExit(f"hybridmas report {' '.join(flags)} failed")
            for written, golden in outputs.items():
                shutil.copyfile(out / written, GOLDEN / "reports" / golden)
    (GOLDEN / "reports" / "run.txt").write_text("\n".join(summaries) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main_regenerate()
