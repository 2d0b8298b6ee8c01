"""Benchmark worker: runs one generated workload through the real
``hybridmas run`` / ``hybridmas report`` path, in rounds, in a fresh
process so that its peak RSS is the workload's own.

    python3 perfbench/worker.py --workdir DIR --seconds S --trace 0|1

Rounds repeat every condition and then the report; their number is S
divided by the workload's nominal round time, rounded. With --trace 1 the
odd rounds are traced and the even ones are not, so both sides see the
same process state. Untraced runs of the one-worker workloads also run
the manifest's between_tasks jobs (see run_round) and record speed probes.
Raw timings, spans, probes and stub logs go to
DIR/results.json, written once at the end; perfbench/run.py turns them
into metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import sys
import time
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hybridmas import cli  # noqa: E402

from spans import Tracer, install_layer_spans  # noqa: E402

# Two rounds at least when they are compared: scripted logs must be
# byte-identical across runs of one seed, and a traced run needs an
# untraced round beside its traced one.
MIN_ROUNDS_COMPARED = 2
MIN_SETUPS = 3
# A report pass over small logs takes milliseconds, and the host's CPU
# speed drifts by tens of percent within seconds: repeat the pass for a
# second or more and keep the fastest, the one least disturbed (as timeit
# does).
MIN_REPORT_PASSES = 5
MIN_REPORT_S = 1.0
MAX_REPORT_PASSES = 1000
SETUP_FUNCTIONS = ("load_config", "load_tasks", "build_environment_factory", "build_backend")
# The speed probe's input: fixed text, whitespace-split as the scripted
# backend counts tokens.
PROBE_TEXT = " ".join(f"w{i % 97}" for i in range(30_000))


class RunTimer:
    """Clock reads around the calls the cli makes: set-up, each
    run_trajectory, and the trajectory write that ends the batch."""

    def __init__(self):
        self.current: dict | None = None
        self.backends: list = []
        # Called after each task, outside its clock reads; the time it
        # takes is left out of the batch wall.
        self.between_tasks = None
        clock = time.perf_counter

        def timed_setup(fn):
            def wrapper(*args, **kwargs):
                t0 = clock()
                result = fn(*args, **kwargs)
                t1 = clock()
                self.current["setup_s"] += t1 - t0
                self.current["setup_end"] = t1
                if fn.__name__ == "build_backend":
                    self.backends.append(result)
                return result
            return wrapper

        for name in SETUP_FUNCTIONS:
            setattr(cli, name, timed_setup(getattr(cli, name)))

        run_trajectory = cli.run_trajectory

        def timed_task(task, *args, **kwargs):
            t0 = clock()
            record = run_trajectory(task, *args, **kwargs)
            t1 = clock()
            self.current["tasks"].append((task.id, t0, t1))
            if self.between_tasks is not None:
                self.between_tasks()
                self.current["paused_s"] += clock() - t1
            return record

        cli.run_trajectory = timed_task
        write_trajectories = cli.write_trajectories

        def timed_write(*args, **kwargs):
            write_trajectories(*args, **kwargs)
            self.current["write_end"] = clock()

        cli.write_trajectories = timed_write

    def start(self, label: str) -> dict:
        self.backends = []
        self.current = {"label": label, "setup_s": 0.0, "setup_end": None, "write_end": None,
                        "paused_s": 0.0, "tasks": []}
        return self.current


def _prompt_tokens(backend) -> list[int]:
    # The scripted backend keeps every request text; recount them here so
    # the checker can re-bill each call independently of the program.
    return [len(text.split()) for text in backend.requests]


def _stub_reset(stub_url: str | None) -> list:
    if not stub_url:
        return []
    request = urllib.request.Request(stub_url + "/reset", data=b"{}", method="POST")
    with urllib.request.urlopen(request, timeout=60) as response:
        return json.loads(response.read())


def _cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def speed_probe(probes: list) -> None:
    """Time a few milliseconds of fixed pure-Python work (token counting, a
    loop, JSON encoding) and append (end, seconds) to probes. metrics.py
    scales the program's share of each time by the probes nearest to it."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    words = len(PROBE_TEXT.split())
    total = 0
    for i in range(20_000):
        total += i * i
    json.dumps({"words": [words] * 2000, "text": PROBE_TEXT[:20_000]})
    t1 = time.perf_counter()
    if enabled:
        gc.enable()
    probes.append((t1, t1 - t0))


def run_round(workdir: Path, manifest: dict, timer: RunTimer, index: int, traced: bool,
              stub_url: str | None, between: list[str], previous_logs: dict | None,
              probes: list) -> dict:
    """One pass over every condition, then the report. between lists what
    runs between tasks: "report", a pass over the previous round's logs (so
    that report_s samples the whole run, not only the seconds after each
    round), and "probe", a speed_probe."""
    out = workdir / f"round{index}"
    runs, usage = [], {}
    passes: list = []

    def between_tasks():
        if "report" in between and previous_logs:
            passes.append(report_pass(manifest, previous_logs, out / "report"))
        if "probe" in between:
            speed_probe(probes)

    timer.between_tasks = between_tasks if between else None
    try:
        for cond in manifest["conditions"]:
            run = timer.start(cond["label"])
            code = _cli(["run", "--config", str(workdir / cond["config"]),
                         "--out", str(out / cond["label"])])
            if code != 0:
                raise RuntimeError(f"hybridmas run {cond['label']} exited {code}")
            if index == 0 and not manifest["http"]:
                executor, supervisor = timer.backends
                usage[cond["label"]] = {"e": _prompt_tokens(executor),
                                        "s": _prompt_tokens(supervisor)}
            run["attempts"] = sum(getattr(b, "attempts_logged", 0) for b in set(timer.backends))
            timer.backends = []
            runs.append(run)
    finally:
        timer.between_tasks = None
    logs = {run["label"]: str(out / run["label"] / run["label"] / "trajectories.jsonl")
            for run in runs}
    # A traced round reports once, as a user would, so that its self-time
    # ranking is not weighted towards the report.
    window: list = []
    while not window or not traced and (len(window) < MIN_REPORT_PASSES or (
            sum(s for _, s in window) < MIN_REPORT_S and len(window) < MAX_REPORT_PASSES)):
        window.append(report_pass(manifest, logs, out / "report"))
        if "probe" in between:
            speed_probe(probes)
    return {"index": index, "traced": traced, "runs": runs, "logs": logs,
            "report_passes": window + passes, "stub_log": _stub_reset(stub_url), "usage": usage}


def report_pass(manifest: dict, logs: dict, out: Path) -> tuple[float, float]:
    """(end, seconds) of every ``hybridmas report`` call the workload makes."""
    elapsed = 0.0
    for report in manifest["reports"]:
        argv = ["report", *(logs[label] for label in report["labels"]), *report["flags"],
                "--out", str(out)]
        t0 = time.perf_counter()
        code = _cli(argv)
        elapsed += time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"hybridmas report {report['flags']} exited {code}")
    return time.perf_counter(), elapsed


def extra_setup(workdir: Path, cond: dict, timer: RunTimer) -> tuple[float, float]:
    """One more set-up exactly as execute_condition does it, for the
    set-up median; its corpus is dropped before the next one is loaded."""
    run = timer.start(cond["label"])
    cfg = cli.load_config(workdir / cond["config"])
    cli.load_tasks(cfg.dataset)
    cli.build_environment_factory(cfg)
    cli.build_backend(cfg.backend_specs[cfg.executor_backend_name], cfg.dataset.parent)
    if cfg.supervisor_backend_name is not None:
        cli.build_backend(cfg.backend_specs[cfg.supervisor_backend_name], cfg.dataset.parent)
    timer.backends = []
    return run["setup_end"], run["setup_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--stub-url")
    args = parser.parse_args(argv)
    workdir = Path(args.workdir)
    manifest = json.loads((workdir / "manifest.json").read_text(encoding="utf-8"))
    del manifest["script"]

    timer = RunTimer()
    tracer = Tracer()
    _stub_reset(args.stub_url)
    rounds, probes = [], []
    # Between tasks of untraced runs: see run_round.
    between = [] if args.trace else manifest["between_tasks"]
    min_rounds = MIN_ROUNDS_COMPARED if args.trace or not manifest["http"] else 1
    # A fixed round count per workload keeps the work of every run alike;
    # round_s is the nominal length of one round on the full size.
    n_rounds = max(min_rounds, int(args.seconds / manifest["round_s"] + 0.5))
    while len(rounds) < n_rounds:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        if traced:
            install_layer_spans(tracer)
        try:
            result = run_round(workdir, manifest, timer, len(rounds), traced, args.stub_url,
                               between, rounds[-1]["logs"] if rounds else None, probes)
        finally:
            tracer.unpatch()
        if traced:
            result["spans"], tracer.spans[:] = list(tracer.spans), []
        rounds.append(result)

    setups = [(run["setup_end"], run["setup_s"]) for r in rounds if not r["traced"]
              for run in r["runs"]]
    while not args.trace and len(setups) < MIN_SETUPS:
        setups.append(extra_setup(workdir, manifest["conditions"][0], timer))
        if "probe" in between:
            speed_probe(probes)

    results = {
        "rounds": rounds,
        "setups": setups,
        "probes": probes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    (workdir / "results.json").write_text(json.dumps(results), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
