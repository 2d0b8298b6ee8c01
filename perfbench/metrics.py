"""Metric definitions and their computation from one worker's results.

End-to-end metrics come from untraced rounds, per-layer metrics from the
spans of traced rounds; the cli.* metrics come from the stub log of
untraced rounds. A layer a workload bypasses reports 0.

Where the worker took speed probes (the one-worker workloads), the
program's own share of each end-to-end time is scaled to the probe's
reference speed: multiplied by PROBE_REF_S over the median of the probes
nearest to it. The endpoint's share, its service time from the stub log,
is not scaled. The host's CPU speed drifts by tens of percent over seconds
to minutes, so unscaled, CPU time on one thread spreads more between runs
than a change worth catching.
"""

from __future__ import annotations

import bisect
import statistics

from spans import self_times

# name -> unit; BENCHMARK.json lists the same names in the same order.
END_TO_END = {
    "tasks_per_s": "tasks/s",
    "task_p50_ms": "ms",
    "task_p90_ms": "ms",
    "harness_ms_per_call": "ms",
    "setup_s": "s",
    "report_s": "s",
    "log_bytes_per_task": "bytes",
    "peak_rss_mb": "MB",
}
# task_fail_rate is printed with the metrics above, and reaches the
# result line as its attempted and failed counts: a metric that is 0 on
# every correct run has no median to compare against.
FAIL_RATE = ("task_fail_rate", "fraction")

PER_LAYER = {
    "backends.http_call_ms.p50": "ms",
    "backends.http_call_ms.p99": "ms",
    "backends.http_client_ms.p50": "ms",
    "backends.http_client_ms.p99": "ms",
    "backends.attempts_per_call": "attempts/call",
    "backends.scripted_call_ms.p50": "ms",
    "backends.scripted_call_ms.p99": "ms",
    "environments.corpus_load_s": "s",
    "environments.search_miss_ms.p50": "ms",
    "environments.search_miss_ms.p99": "ms",
    "environments.step_us.p50": "us",
    "environments.step_us.p99": "us",
    "environments.miss_ratio": "fraction",
    "environments.load_tasks_ms": "ms",
    "config.load_config_ms": "ms",
    "prompting.render_ms.p50": "ms",
    "prompting.render_ms.p99": "ms",
    "prompting.parse_tool_call_us.p50": "us",
    "prompting.parse_tool_call_us.p99": "us",
    "prompting.format_memory_ms.p50": "ms",
    "prompting.format_memory_ms.p99": "ms",
    "prompting.format_memory_calls": "calls/task",
    "orchestrator.render_turn_log_ms.p50": "ms",
    "orchestrator.render_turn_log_ms.p99": "ms",
    "orchestrator.self_ms_per_call": "ms",
    "orchestrator.calls_per_task": "calls/task",
    "orchestrator.resets_per_task": "resets/task",
    "accounting.aggregate_us_per_call": "us",
    "core.encode_ms_per_mb": "ms/MB",
    "core.write_s": "s",
    "core.read_ms_per_mb": "ms/MB",
    "analysis.score_us": "us",
    "analysis.report_ms": "ms",
    "cli.call_gap_ms.p50": "ms",
    "cli.call_gap_ms.p99": "ms",
    "cli.endpoint_busy_frac": "fraction",
    "trace.overhead_frac": "fraction",
}

# The speed probe's time at the reference speed, and how many probes on
# each side of a moment give the speed there.
PROBE_REF_S = 0.003
PROBE_NEIGHBOURS = 4

REPORT_FUNCTIONS = ("analysis.pareto_frontier", "analysis.intervention_histogram",
                    "analysis.verifier_confusion", "analysis.solve_overlap")


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (q in [0, 100]); 0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


class HostSpeed:
    """Scale factors from the worker's speed probes; 1 when there are none."""

    def __init__(self, probes):
        self.ends = [end for end, _ in probes]
        self.seconds = [seconds for _, seconds in probes]

    def at(self, t: float) -> float:
        """Factor for a time measured up to t: the probes nearest to t."""
        if not self.ends:
            return 1.0
        i = bisect.bisect(self.ends, t)
        near = self.seconds[max(0, i - PROBE_NEIGHBOURS):i + PROBE_NEIGHBOURS]
        return PROBE_REF_S / statistics.median(near)

    def scale(self, seconds: float, t: float, held: float = 0.0) -> float:
        """seconds measured up to t, of which held waited on the endpoint."""
        return held + (seconds - held) * self.at(t)

    def over(self, t0: float, t1: float) -> float:
        """Factor for the span t0..t1: the probes taken within it."""
        lo, hi = bisect.bisect(self.ends, t0), bisect.bisect(self.ends, t1)
        if hi <= lo:
            return self.at(t1)
        return PROBE_REF_S / statistics.median(self.seconds[lo:hi])


def batch_wall(round_result: dict, speed: HostSpeed | None = None) -> float:
    """Seconds from the end of set-up to the last record written, summed
    over the round's conditions, less what ran between tasks; the program's
    share scaled by speed when it has probes."""
    if not (speed and speed.ends):
        return sum(run["write_end"] - run["setup_end"] - run["paused_s"]
                   for run in round_result["runs"])
    service = _service_by_task(round_result)
    total = 0.0
    for run in round_result["runs"]:
        held = sum(service.get(task, 0.0) for task, _t0, _t1 in run["tasks"])
        own = run["write_end"] - run["setup_end"] - run["paused_s"] - held
        total += held + own * speed.over(run["setup_end"], run["write_end"])
    return total


def _service_by_task(round_result: dict) -> dict[str, float]:
    """Endpoint service seconds per task id. Only the wiki workload has both
    a stub and speed probes, and its one condition keeps task ids unique."""
    service: dict[str, float] = {}
    for row in round_result["stub_log"]:
        service[row[1]] = service.get(row[1], 0.0) + row[4]
    return service


def _service(round_result: dict) -> float:
    return sum(row[4] for row in round_result["stub_log"])


def _tasks(round_result: dict) -> int:
    return sum(len(run["tasks"]) for run in round_result["runs"])


def end_to_end(results: dict, manifest: dict, checked: list[dict]) -> dict:
    untraced = [(r, c) for r, c in zip(results["rounds"], checked) if not r["traced"]]
    parallelism = manifest["parallelism"]
    calls_per_round = sum(len(exp["roles"]) for tasks in manifest["expected"].values()
                          for exp in tasks.values())
    speed = HostSpeed(results["probes"])
    passes = [(end, s) for r, _ in untraced for end, s in r["report_passes"]]
    task_ms = []
    for r, _ in untraced:
        service = _service_by_task(r) if speed.ends else {}
        task_ms += [speed.scale(t1 - t0, t1, service.get(task, 0.0)) * 1000.0
                    for run in r["runs"] for task, t0, t1 in run["tasks"]]
    return {
        # Every round repeats the same work: throughput and harness time are
        # the fastest round's, the one the host disturbed least.
        "tasks_per_s": max(_tasks(r) / batch_wall(r, speed) for r, _ in untraced),
        "task_p50_ms": percentile(task_ms, 50),
        "task_p90_ms": percentile(task_ms, 90),
        "harness_ms_per_call": min(
            (parallelism * batch_wall(r, speed) - _service(r)) * 1000.0 / calls_per_round
            for r, _ in untraced
        ),
        "setup_s": _median([speed.scale(s, end) for end, s in results["setups"]]),
        # The fastest pass; once scaled, the median pass, as the fastest
        # scaled pass would be one whose neighbouring probes ran slow.
        "report_s": (_median([speed.scale(s, end) for end, s in passes]) if speed.ends
                     else min(s for _, s in passes)),
        "log_bytes_per_task": _median([c["log_bytes"] / c["attempted"] for _, c in untraced]),
        "peak_rss_mb": results["peak_rss_kb"] / 1024.0,
    }


def _call_gaps_ms(stub_log) -> list[float]:
    calls: dict[tuple[str, str], list] = {}
    for row in stub_log:
        calls.setdefault((row[0], row[1]), []).append(row)
    gaps = []
    for rows in calls.values():
        rows.sort(key=lambda row: row[2])
        for prev, nxt in zip(rows, rows[1:]):
            gaps.append((nxt[3] - (prev[3] + prev[4])) * 1000.0)
    return gaps


def _endpoint_spans(round_result: dict) -> list[tuple]:
    """The stub's service time as a child span closing each HTTP call, so
    that the client's self time excludes the time the endpoint held it."""
    service = {(row[0], row[1], row[2]): row[4] for row in round_result["stub_log"]}
    calls: dict[tuple[str, str], list] = {}
    for span in round_result["spans"]:
        if span[1] == "backends.HttpChatBackend.complete":
            calls.setdefault((span[6], span[5]), []).append(span)
    out = []
    for (model, task), rows in calls.items():
        rows.sort(key=lambda span: span[2])
        for k, span in enumerate(rows):
            held = service.get((model, task, k))
            if held is not None:
                out.append((f"endpoint-{span[0]}", "endpoint.service", span[3] - held, span[3],
                            span[0], task, None))
    return out


def per_layer(results: dict, manifest: dict, checked: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics and self seconds per span name (traced rounds)."""
    traced = [(r, c) for r, c in zip(results["rounds"], checked) if r["traced"]]
    untraced = [r for r in results["rounds"] if not r["traced"]]
    spans = [span for r, _ in traced for span in r["spans"] + _endpoint_spans(r)]
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span[1], []).append(span)

    def durations(*names, scale=1.0):
        return [(s[3] - s[2]) * scale for name in names for s in by_name.get(name, ())]

    def total(*names, scale=1.0):
        return sum(durations(*names, scale=scale))

    def extra_sum(name):
        return sum(s[6] for s in by_name.get(name, ()))

    http = "backends.HttpChatBackend.complete"
    scripted = "backends.ScriptedBackend.complete"
    steps = ("environments.WikiEnvironment.step", "environments.ScriptedEnvironment.step")
    n_rounds = max(len(traced), 1)
    tasks = sum(_tasks(r) for r, _ in traced)
    calls = len(by_name.get(http, ())) + len(by_name.get(scripted, ()))
    searches = sum(1 for name in steps for s in by_name.get(name, ()) if s[6] == "search")
    self_s = self_times(spans)
    http_spans = {span[0]: span for span in by_name.get(http, ())}
    client = [((http_spans[e[4]][3] - http_spans[e[4]][2]) - (e[3] - e[2])) * 1e3
              for e in by_name.get("endpoint.service", ())]
    gaps = [ms for r in untraced for ms in _call_gaps_ms(r["stub_log"])]
    encoded_mb = extra_sum("core.record_to_json_line") / 1e6
    read_mb = extra_sum("core.read_trajectories") / 1e6
    scored = len(by_name.get("analysis.task_success", ()))
    traced_wall = _median([batch_wall(r) for r, _ in traced])
    untraced_wall = _median([batch_wall(r) for r in untraced])

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {
        "backends.http_call_ms.p50": percentile(durations(http, scale=1e3), 50),
        "backends.http_call_ms.p99": percentile(durations(http, scale=1e3), 99),
        "backends.http_client_ms.p50": percentile(client, 50),
        "backends.http_client_ms.p99": percentile(client, 99),
        "backends.attempts_per_call": ratio(
            sum(run["attempts"] for r, _ in traced for run in r["runs"]),
            len(by_name.get(http, ()))),
        "backends.scripted_call_ms.p50": percentile(durations(scripted, scale=1e3), 50),
        "backends.scripted_call_ms.p99": percentile(durations(scripted, scale=1e3), 99),
        "environments.corpus_load_s": _median(durations("environments.WikiCorpus.load")),
        "environments.search_miss_ms.p50": percentile(
            durations("environments.WikiCorpus.similar_titles", scale=1e3), 50),
        "environments.search_miss_ms.p99": percentile(
            durations("environments.WikiCorpus.similar_titles", scale=1e3), 99),
        "environments.step_us.p50": percentile(durations(*steps, scale=1e6), 50),
        "environments.step_us.p99": percentile(durations(*steps, scale=1e6), 99),
        "environments.miss_ratio": ratio(
            len(by_name.get("environments.WikiCorpus.similar_titles", ())), searches),
        "environments.load_tasks_ms": _median(
            durations("environments.load_tasks", scale=1e3)),
        "config.load_config_ms": _median(durations("config.load_config", scale=1e3)),
        "prompting.render_ms.p50": percentile(durations("prompting.render", scale=1e3), 50),
        "prompting.render_ms.p99": percentile(durations("prompting.render", scale=1e3), 99),
        "prompting.parse_tool_call_us.p50": percentile(
            durations("prompting.parse_tool_call", scale=1e6), 50),
        "prompting.parse_tool_call_us.p99": percentile(
            durations("prompting.parse_tool_call", scale=1e6), 99),
        "prompting.format_memory_ms.p50": percentile(
            durations("prompting.format_memory", scale=1e3), 50),
        "prompting.format_memory_ms.p99": percentile(
            durations("prompting.format_memory", scale=1e3), 99),
        "prompting.format_memory_calls": ratio(
            len(by_name.get("prompting.format_memory", ())), tasks),
        "orchestrator.render_turn_log_ms.p50": percentile(
            durations("orchestrator.render_turn_log", scale=1e3), 50),
        "orchestrator.render_turn_log_ms.p99": percentile(
            durations("orchestrator.render_turn_log", scale=1e3), 99),
        "orchestrator.self_ms_per_call": ratio(
            self_s.get("orchestrator.run_trajectory", 0.0) * 1e3, calls),
        "orchestrator.calls_per_task": ratio(calls, tasks),
        "orchestrator.resets_per_task": ratio(sum(c["resets"] for _, c in traced), tasks),
        "accounting.aggregate_us_per_call": ratio(total("accounting.aggregate", scale=1e6),
                                                  calls),
        "core.encode_ms_per_mb": ratio(total("core.record_to_json_line", scale=1e3),
                                       encoded_mb),
        "core.write_s": total("core.write_trajectories") / n_rounds,
        "core.read_ms_per_mb": ratio(total("core.read_trajectories", scale=1e3), read_mb),
        "analysis.score_us": ratio(
            total("analysis.task_success", "analysis.trajectory_score", scale=1e6), scored),
        "analysis.report_ms": total(*REPORT_FUNCTIONS, scale=1e3) / max(
            sum(len(r["report_passes"]) for r, _ in traced), 1),
        "cli.call_gap_ms.p50": percentile(gaps, 50),
        "cli.call_gap_ms.p99": percentile(gaps, 99),
        "cli.endpoint_busy_frac": _median([
            _service(r) / (manifest["parallelism"] * batch_wall(r))
            for r in untraced if r["stub_log"]
        ]),
        "trace.overhead_frac": ratio(traced_wall - untraced_wall, untraced_wall),
    }
    return metrics, self_s
