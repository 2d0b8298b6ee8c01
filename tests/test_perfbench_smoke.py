"""Smoke test of the benchmark at its tiny size: one traced scripted
workload through the real ``hybridmas run`` / ``report`` path, with
interventions, the benchmark's output checks and every layer span it
patches into the program. No timing bound."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tiny_traced_long_horizon_run_passes_its_checks():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "long-horizon-scripted",
         "--seed", "7", "--seconds", "1", "--trace", "1", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
