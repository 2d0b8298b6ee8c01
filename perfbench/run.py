"""hybridmas benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload qa-http --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each was chosen):
    qa-http                 monolithic, pevr and eva over a loopback endpoint
    wiki-200k-miss          eva over a 200k-page corpus where some searches miss
    long-horizon-scripted   40/80-turn scripted runs, then report --confusion

The run generates its inputs from --seed under .perfbench_work/ in the
checkout, starts the loopback stub (HTTP workloads) and a worker process,
checks every trajectory against its script, prints each metric with its
unit, and ends with one JSON line: end-to-end metrics with --trace 0,
per-layer metrics with --trace 1. It exits non-zero when the program
cannot be found, a run fails, or an output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import checks
import metrics
from gen import WORKLOADS, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIME_LIMIT_S = 170.0
TOP_SELF_TIME = 8


def start_stub(workdir: Path, latency_ms: float) -> tuple[subprocess.Popen, str]:
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "stub.py"), "--manifest", str(workdir / "manifest.json"),
         "--latency-ms", str(latency_ms)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    if not line.startswith("PORT "):
        raise RuntimeError(f"stub did not start: {line!r}")
    return proc, f"http://127.0.0.1:{int(line.split()[1])}"


def stop(proc: subprocess.Popen | None) -> None:
    if proc is None:
        return
    if proc.stdin:
        proc.stdin.close()
    if proc.poll() is not None:
        return
    proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def run_worker(workdir: Path, args, stub_url: str | None, deadline: float) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workdir", str(workdir),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if stub_url:
        argv += ["--stub-url", stub_url]
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise RuntimeError("worker exceeded the time limit")
    finally:
        stop(proc)
    if code != 0:
        raise RuntimeError(f"worker exited {code}")
    return json.loads((workdir / "results.json").read_text(encoding="utf-8"))


def check_all(results: dict, manifest: dict, workdir: Path) -> tuple[list[dict], list[str]]:
    usages = ({} if manifest["http"] else
              checks.scripted_usages(manifest, results["rounds"][0]["usage"], workdir))
    checked, problems = [], []
    for round_result in results["rounds"]:
        if manifest["http"]:
            usages, stub_problems = checks.http_usages(round_result["stub_log"])
            problems += stub_problems
        result = checks.check_round(round_result, manifest, usages)
        problems += result["problems"]
        checked.append(result)
    if not manifest["http"]:
        digests = {c["digest"] for c in checked}
        print(f"scripted log digest: {checked[0]['digest']} "
              f"({len(checked)} runs, {'identical' if len(digests) == 1 else 'DIFFERENT'})")
        if len(digests) != 1:
            problems.append("scripted logs differ between runs of one seed")
    return checked, problems


def print_self_times(workload: str, self_s: dict) -> None:
    total = sum(self_s.values()) or 1.0
    layers: dict[str, float] = {}
    for name, seconds in self_s.items():
        layers[name.split(".")[0]] = layers.get(name.split(".")[0], 0.0) + seconds
    print(f"self time by layer ({workload}, traced rounds):")
    for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<14} {seconds * 1e3:10.1f} ms  {100 * seconds / total:5.1f}%")
    print("self time by span:")
    for name, seconds in sorted(self_s.items(), key=lambda kv: -kv[1])[:TOP_SELF_TIME]:
        print(f"  {name:<42} {seconds * 1e3:10.1f} ms  {100 * seconds / total:5.1f}%")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hybridmas benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is the self-test size")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that the finally blocks stop the stub
    # and the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (ROOT / "src" / "hybridmas" / "cli.py").is_file():
        print(f"error: no hybridmas sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    stub = None
    try:
        manifest = generate(args.workload, args.seed, workdir, args.size)
        stub_url = None
        if manifest["http"]:
            stub, stub_url = start_stub(workdir, manifest["latency_ms"])
            for cond in manifest["conditions"]:
                path = workdir / cond["config"]
                path.write_text(path.read_text().replace("STUB_URL", stub_url))
        results = run_worker(workdir, args, stub_url, deadline)
        checked, problems = check_all(results, manifest, workdir)
        for problem in problems[:20]:
            print(f"check failed: {problem}")
        attempted = sum(c["attempted"] for c in checked)
        failed = sum(c["failed"] for c in checked)
        rounds = results["rounds"]
        print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds "
              f"({sum(r['traced'] for r in rounds)} traced), {attempted} tasks checked, "
              f"{failed} failed")
        if args.trace:
            values, self_s = metrics.per_layer(results, manifest, checked)
            units = metrics.PER_LAYER
            print_self_times(args.workload, self_s)
        else:
            values, units = metrics.end_to_end(results, manifest, checked), metrics.END_TO_END
        for name, unit in units.items():
            print(f"{name} = {values[name]:.6g} {unit}")
        if not args.trace:
            name, unit = metrics.FAIL_RATE
            print(f"{name} = {failed / attempted:.6g} {unit}")
        result = {
            "correct": failed == 0 and not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()},
        }
    finally:
        stop(stub)
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
