"""Rewrite every golden artifact under tests/data/golden/ from the
program: logs/ and the run summaries in reports/run.txt by `hybridmas run`
on each architecture's config, logs_with_memory/ from logs/ by putting back
what the earlier format stored (see with_memory), and the report CSVs that
tests/test_golden.py checks by `hybridmas report` over logs_with_memory/.
Deletes any other file under reports/. Prints each file whose bytes
changed or that was deleted, or that none did.

Run from the repository root after a deliberate change of the golden runs:

    PYTHONPATH=src python tests/regenerate_golden.py
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hybridmas.cli import main
from hybridmas.core import ARCHITECTURES as FAMILIES
from hybridmas.core import AUDIT_ARCHITECTURES, INTERVENE, record_from_dict
from hybridmas.prompting import format_memory, parse_eva_verdict, parse_pevr_verdict
from test_golden import ARCHITECTURES, GOLDEN, REPORTS, golden_reports


def with_memory(line: str) -> str:
    """A logs/ line in the earlier format, which stored what is now derived:
    each supervisor call's applied (its at_turn is in resets), its
    decision's payload before its raw_text (null for CONTINUE, else the
    family parser's handoff of raw_text after its "kind"), each replan's
    origin ("replan") and replan_turn (its at_turn when applied, else null),
    totals.max_context_tokens before max_kv_bytes, and each replan and
    no-summary intervention's tool-call memory (derived from the turns up to
    its at_turn; empty in an audit run, which hands nothing over), after its
    replan or in place of its summary."""
    data = json.loads(line)
    record = record_from_dict(data)
    for call in data["supervisor_calls"]:
        applied = call["applied"] = call["at_turn"] in record.resets
        verdict, raw_text = call["decision"]["verdict"], call["decision"]["raw_text"]
        payload = None
        if verdict == INTERVENE:
            memory = "" if record.architecture in AUDIT_ARCHITECTURES else "".join(
                format_memory([t for t in record.turns if t.t <= call["at_turn"]])
            )
            if FAMILIES[record.architecture] == "pevr":
                replan = parse_pevr_verdict(raw_text)[1]["plan"]
                payload = {"kind": "replan",
                           "replan": {"text": replan, "origin": "replan",
                                      "replan_turn": call["at_turn"] if applied else None},
                           "memory": memory}
            else:
                handoff = parse_eva_verdict(raw_text)[1]
                summary, advice = handoff["summary"], handoff["advice"]
                payload = ({"kind": "advice_memory", "memory": memory, "advice": advice}
                           if record.architecture == "eva_nosummary"
                           else {"kind": "advice", "summary": summary, "advice": advice})
        call["decision"] = {"verdict": verdict, "payload": payload, "raw_text": raw_text}
    kv_bytes = data["totals"].pop("max_kv_bytes")
    data["totals"].update(max_context_tokens=record.max_context_tokens, max_kv_bytes=kv_bytes)
    return json.dumps(data, separators=(",", ":"))


def write_golden(path: Path, data: bytes, changed: list) -> None:
    """Write data to path, noting path in changed when its bytes differ."""
    if not path.is_file() or path.read_bytes() != data:
        path.write_bytes(data)
        changed.append(path)


def main_regenerate() -> None:
    summaries, changed = [], []
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
            log = (out / f"{architecture}-tv2" / "trajectories.jsonl").read_bytes()
            write_golden(GOLDEN / "logs" / f"{architecture}.jsonl", log, changed)
            lines = log.decode("utf-8").splitlines()
            write_golden(GOLDEN / "logs_with_memory" / f"{architecture}.jsonl",
                         "".join(with_memory(line) + "\n" for line in lines).encode("utf-8"),
                         changed)
        for flags, architectures, outputs in REPORTS:
            logs = [str(GOLDEN / "logs_with_memory" / f"{a}.jsonl") for a in architectures]
            with contextlib.redirect_stdout(io.StringIO()):
                if main(["report", *logs, *flags, "--out", str(out)]) != 0:
                    raise SystemExit(f"hybridmas report {' '.join(flags)} failed")
            for written, golden in outputs.items():
                write_golden(GOLDEN / "reports" / golden, (out / written).read_bytes(), changed)
    write_golden(GOLDEN / "reports" / "run.txt",
                 ("\n".join(summaries) + "\n").encode("utf-8"), changed)
    for path in sorted((GOLDEN / "reports").iterdir()):
        if path.name not in golden_reports():
            path.unlink()
            changed.append(path)
    for path in changed:
        print(f"{'changed' if path.exists() else 'deleted'} {path.relative_to(GOLDEN)}")
    if not changed:
        print("no golden file changed")


if __name__ == "__main__":
    main_regenerate()
