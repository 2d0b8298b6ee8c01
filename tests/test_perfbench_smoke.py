"""Smoke tests of the benchmark at its tiny size, through the real
``hybridmas run`` / ``report`` path and the benchmark's output checks: a
traced scripted workload with interventions and every layer span it
patches into the program, the HTTP workload untraced and traced (the span
around ``HttpChatBackend.complete`` and the stub-log child spans), whose
calls go through ``HttpChatBackend`` to the benchmark's loopback stub, and
the wiki-miss workload over the same client, untraced and traced (the spans
around ``WikiCorpus.load`` and ``WikiCorpus.similar_titles``). No timing
bound."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_tiny(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", trace, "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    return result


def test_tiny_traced_long_horizon_run_passes_its_checks():
    metrics = _run_tiny("long-horizon-scripted", "1")["metrics"]
    # A span that no longer wraps the code the program calls reads 0.
    for name in ("core.read_ms_per_mb", "analysis.report_ms",
                 "orchestrator.render_turn_log_ms.p50", "prompting.format_memory_ms.p50",
                 "backends.scripted_call_ms.p50", "accounting.aggregate_us_per_call",
                 "prompting.render_ms.p50", "prompting.parse_tool_call_us.p50",
                 "environments.step_us.p50", "analysis.score_us",
                 "orchestrator.resets_per_task", "core.encode_ms_per_mb", "core.write_s"):
        assert metrics[name]["value"] > 0, name


def test_tiny_http_run_passes_its_checks():
    _run_tiny("qa-http", "0")


def test_tiny_traced_http_run_passes_its_checks():
    _run_tiny("qa-http", "1")


def test_tiny_wiki_miss_run_passes_its_checks():
    _run_tiny("wiki-200k-miss", "0")


def test_tiny_traced_wiki_miss_run_times_the_corpus():
    metrics = _run_tiny("wiki-200k-miss", "1")["metrics"]
    # A span that no longer wraps the code the program calls reads 0.
    assert metrics["environments.corpus_load_s"]["value"] > 0
    assert metrics["environments.search_miss_ms.p50"]["value"] > 0
