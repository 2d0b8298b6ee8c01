"""Tiny-size self-test of the benchmark; no timing bound.

    python3 perfbench/selftest.py

Runs every workload at the tiny size with --trace 0 and --trace 1 and
checks that each run exits 0, that its last line is a schema-valid result
naming exactly the metrics BENCHMARK.json lists, with their units, and
that every output check passed. It also checks that the benchmark fails,
without a result line, in a directory that holds only BENCHMARK.json and
perfbench/.
"""

from __future__ import annotations

import json
import numbers
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_result(line: str, expected: dict) -> list[str]:
    result = json.loads(line)
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append("output checks failed")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(expected))}")
    for name, unit in expected.items():
        entry = metrics.get(name, {})
        if set(entry) != {"value", "unit"} or entry.get("unit") != unit:
            problems.append(f"{name}: {entry}")
        elif not isinstance(entry["value"], numbers.Real) or isinstance(entry["value"], bool):
            problems.append(f"{name}: value {entry['value']!r} is not a number")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run(ROOT, workload, trace)
            lines = proc.stdout.strip().splitlines()
            problems = [f"exit code {proc.returncode}"] if proc.returncode else []
            problems += check_result(lines[-1], expected[trace]) if lines else ["no output"]
            failures += bool(problems)
            print(f"{'PASS' if not problems else 'FAIL'} {workload} --trace {trace}"
                  + "".join(f"\n  {p}" for p in problems))
            if problems:
                print(proc.stderr[-2000:])

    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
        bare_ok = proc.returncode != 0 and '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    failures += not bare_ok
    print(f"{'PASS' if bare_ok else 'FAIL'} fails without the program's sources")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
