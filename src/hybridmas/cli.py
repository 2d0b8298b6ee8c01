"""Command-line surface: run experiments, sweep verification intervals,
and turn trajectory logs into analysis CSVs.

Commands
    run     execute every task under the configured architecture
    sweep   one run per verification interval, plus a frontier-input CSV
    report  read trajectory JSONL files and emit analysis CSVs

Exit codes: 0 success, 1 configuration error, 2 runtime error.

Output layout: <output>/<architecture>-tv<interval>/trajectories.jsonl.
Re-running a condition skips task ids already present in its log, so
interrupted batches are resumable; a torn final line (a kill mid-write) is
dropped with a warning and its task reruns. A log holding a record written
under another run configuration (its config_digest differs) is refused with
exit 2 and nothing is appended to it (a torn final line is still dropped),
so one log never mixes two conditions.

Report CSVs (stable column names):
    frontier.csv    label,axis,cost,performance        (Pareto-filtered)
    histogram.csv   intervention_count,frequency
    confusion.csv   tp,fp,tn,fn,fn_rate,fp_rate,fn_rate_conditional,fp_rate_conditional
    overlap.csv     region,count                       (exclusive Venn regions)
    kv_growth.csv   label,architecture,records,success_rate,
                    mean_max_context_tokens,mean_max_kv_bytes,max_max_kv_bytes
"""

from __future__ import annotations

import argparse
import csv
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, replace
from pathlib import Path
from typing import Optional, Sequence

from . import analysis
from .backends import ScriptedBackend
from .config import ConfigError, ExperimentConfig, build_backend, build_environment_factory, load_config
from .core import TrajectoryRecord, read_trajectories, write_trajectories
from .environments import load_tasks
from .orchestrator import run_config_digest, run_trajectory

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


def _condition_dir(cfg: ExperimentConfig, verify_interval: int) -> Path:
    return cfg.output / f"{cfg.run.architecture}-tv{verify_interval}"


def _drop_torn_tail(path: Path) -> None:
    """Truncate a log whose final line was cut short (the process was killed
    mid-write) back to its last complete line, so that the task reruns."""
    with open(path, "rb+") as fh:
        size = fh.seek(0, os.SEEK_END)
        if size == 0:
            return
        fh.seek(size - 1)
        if fh.read(1) == b"\n":
            return
        fh.seek(0)
        keep = fh.read().rfind(b"\n") + 1
        fh.truncate(keep)
    logger.warning("%s: dropped %d bytes of a torn final line", path, size - keep)


def execute_condition(cfg: ExperimentConfig, verify_interval: int) -> dict:
    """Run every pending task for one (architecture, interval) condition
    and append the trajectories to its log. Returns summary stats over the
    complete log."""
    run_config = cfg.with_verify_interval(verify_interval)
    tasks = load_tasks(cfg.dataset)
    env_factory = build_environment_factory(cfg)

    base_dir = cfg.dataset.parent
    executor = build_backend(cfg.backend_specs[cfg.executor_backend_name], base_dir)
    supervisor = None
    if cfg.supervisor_backend_name is not None:
        if cfg.supervisor_backend_name == cfg.executor_backend_name:
            supervisor = executor
        else:
            supervisor = build_backend(
                cfg.backend_specs[cfg.supervisor_backend_name], base_dir
            )

    out_dir = _condition_dir(cfg, verify_interval)
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "trajectories.jsonl"
    existing = []
    if log_path.exists():
        _drop_torn_tail(log_path)
        existing = read_trajectories(log_path)
    digest = run_config_digest(run_config)
    foreign = sorted({record.config_digest for record in existing} - {digest})
    if foreign:
        raise ValueError(
            f"{log_path} holds records of config digest {', '.join(foreign)}, "
            f"not this run's {digest}; refusing to resume into it"
        )
    done_ids = {record.task_id for record in existing}
    pending = [task for task in tasks if task.id not in done_ids]

    # Scripted backends consume entries in call order, so their runs are
    # forced sequential to keep logs byte-reproducible.
    parallelism = cfg.parallelism
    if isinstance(executor, ScriptedBackend) or isinstance(supervisor, ScriptedBackend):
        parallelism = 1

    def run_one(task) -> TrajectoryRecord:
        record = run_trajectory(task, run_config, executor, supervisor, env_factory())
        if task.gold_answers:
            record.success = analysis.task_success(task.benchmark_tag, record, task.gold_answers)
            record.score = analysis.trajectory_score(task.benchmark_tag, record, task.gold_answers)
        return record

    results: dict[str, TrajectoryRecord] = {}
    if parallelism <= 1 or len(pending) <= 1:
        for task in pending:
            results[task.id] = run_one(task)
    else:
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            futures = {pool.submit(run_one, task): task for task in pending}
            for future, task in futures.items():
                results[task.id] = future.result()

    new_records = [results[task.id] for task in pending]
    write_trajectories(log_path, new_records, append=bool(existing))

    return dict(
        asdict(analysis.condition_stats(existing + new_records)),
        architecture=cfg.run.architecture,
        verify_interval=verify_interval,
        log_path=str(log_path),
        new_tasks=len(new_records),
    )


def _print_summary(summary: dict) -> None:
    print(
        "run architecture={architecture} verify_interval={verify_interval} "
        "tasks={records} mean_score={mean_score:.4f} success_rate={success_rate:.4f} "
        "total_cost_usd={cost_usd} total_energy_joules={energy_joules:.6g} "
        "mean_max_kv_bytes={mean_max_kv_bytes:.6g} out={log_path}".format(**summary)
    )


def cmd_run(args) -> int:
    try:
        cfg = _load_with_overrides(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        summary = execute_condition(cfg, cfg.run.verify_interval)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - runtime boundary for exit code 2
        logger.exception("run failed")
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    _print_summary(summary)
    return EXIT_OK


def cmd_sweep(args) -> int:
    try:
        cfg = _load_with_overrides(args)
        if not cfg.sweep:
            raise ConfigError("sweep requires a non-empty sweep list in the config")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    rows = []
    try:
        for interval in cfg.sweep:
            summary = execute_condition(cfg, interval)
            _print_summary(summary)
            rows.append(summary)
        points_path = cfg.output / "sweep_points.csv"
        with open(points_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                [
                    "label",
                    "architecture",
                    "verify_interval",
                    "performance",
                    "cost_usd",
                    "energy_joules",
                ]
            )
            for row in rows:
                writer.writerow(
                    [
                        f"{row['architecture']}-tv{row['verify_interval']}",
                        row["architecture"],
                        row["verify_interval"],
                        row["mean_score"],
                        row["cost_usd"],
                        row["energy_joules"],
                    ]
                )
        print(f"sweep points written to {points_path}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001
        logger.exception("sweep failed")
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def _report_label(path: Path) -> str:
    return path.parent.name if path.name == "trajectories.jsonl" else path.stem


def cmd_report(args) -> int:
    paths = [Path(p) for p in args.paths]
    for path in paths:
        if not path.is_file():
            print(f"config error: no such trajectory file: {path}", file=sys.stderr)
            return EXIT_CONFIG
    if not any((args.frontier, args.histogram, args.confusion, args.overlap, args.kv_growth)):
        print("config error: select at least one analysis flag", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        labeled = {_report_label(p): read_trajectories(p) for p in paths}
        if args.frontier:
            _write_frontier(labeled, args.axis, out_dir / "frontier.csv")
        if args.histogram:
            _write_histogram(labeled, out_dir / "histogram.csv")
        if args.confusion:
            _write_confusion(labeled, out_dir / "confusion.csv")
        if args.overlap:
            _write_overlap(labeled, out_dir / "overlap.csv")
        if args.kv_growth:
            _write_kv_growth(labeled, out_dir / "kv_growth.csv")
    except Exception as exc:  # noqa: BLE001
        logger.exception("report failed")
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def _write_frontier(labeled: dict, axis: str, path: Path) -> None:
    points = []
    for label, records in labeled.items():
        if not records:
            continue
        stats = analysis.condition_stats(records)
        cost = float(stats.cost_usd) if axis == "cost" else stats.energy_joules
        points.append(analysis.ConfigPoint(label, cost, stats.performance))
    frontier = analysis.pareto_frontier(points)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "axis", "cost", "performance"])
        for point in frontier:
            writer.writerow([point.label, axis, point.cost, point.performance])
    print(f"frontier written to {path} ({len(frontier)} of {len(points)} points)")


def _write_histogram(labeled: dict, path: Path) -> None:
    records = [r for records in labeled.values() for r in records]
    histogram = analysis.intervention_histogram(records)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["intervention_count", "frequency"])
        for count, frequency in histogram.counts.items():
            writer.writerow([count, frequency])
    quartiles = histogram.quartiles
    print(
        f"histogram written to {path}"
        + (f" (quartiles: {quartiles[0]}, {quartiles[1]}, {quartiles[2]})" if quartiles else "")
    )


def _write_confusion(labeled: dict, path: Path) -> None:
    audited = []
    for records in labeled.values():
        for record in records:
            if record.success is None:
                raise ValueError(
                    f"record {record.task_id} has no success label; "
                    "run against a dataset with gold answers first"
                )
            audited.append((record, record.success))
    report = analysis.verifier_confusion(audited)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "tp",
                "fp",
                "tn",
                "fn",
                "fn_rate",
                "fp_rate",
                "fn_rate_conditional",
                "fp_rate_conditional",
            ]
        )
        writer.writerow(
            [
                report.tp,
                report.fp,
                report.tn,
                report.fn,
                report.fn_rate,
                report.fp_rate,
                report.fn_rate_conditional,
                report.fp_rate_conditional,
            ]
        )
    print(f"confusion written to {path} (total {report.total})")


def _write_overlap(labeled: dict, path: Path) -> None:
    solve_sets = {
        label: {r.task_id for r in records if r.success}
        for label, records in labeled.items()
    }
    regions = analysis.solve_overlap(solve_sets)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["region", "count"])
        for region, count in regions.items():
            writer.writerow([region, count])
    print(f"overlap written to {path}")


def _write_kv_growth(labeled: dict, path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "label",
                "architecture",
                "records",
                "success_rate",
                "mean_max_context_tokens",
                "mean_max_kv_bytes",
                "max_max_kv_bytes",
            ]
        )
        for label, records in labeled.items():
            if not records:
                continue
            stats = analysis.condition_stats(records)
            writer.writerow(
                [
                    label,
                    records[0].architecture,
                    stats.records,
                    stats.success_rate,
                    stats.mean_max_context_tokens,
                    stats.mean_max_kv_bytes,
                    stats.max_max_kv_bytes,
                ]
            )
    print(f"kv growth written to {path}")


def _load_with_overrides(args) -> ExperimentConfig:
    cfg = load_config(args.config)
    if args.out:
        cfg.output = Path(args.out)
    if args.parallelism is not None:
        if args.parallelism < 1:
            raise ConfigError("parallelism must be >= 1")
        cfg.parallelism = args.parallelism
    if args.seed is not None:
        cfg.run = replace(cfg.run, seed=args.seed)
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridmas",
        description="Hybrid cloud-edge multi-agent experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p):
        p.add_argument("--config", required=True, help="experiment config YAML")
        p.add_argument("--out", help="override the output directory")
        p.add_argument("--parallelism", type=int, help="override worker count")
        p.add_argument("--seed", type=int, help="override the run seed")

    run_p = sub.add_parser("run", help="run one experiment condition")
    add_run_flags(run_p)
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="run once per verification interval")
    add_run_flags(sweep_p)
    sweep_p.set_defaults(func=cmd_sweep)

    report_p = sub.add_parser("report", help="emit analysis CSVs from trajectory logs")
    report_p.add_argument("paths", nargs="+", help="trajectories.jsonl files")
    report_p.add_argument("--frontier", action="store_true", help="Pareto frontier CSV")
    report_p.add_argument("--histogram", action="store_true", help="intervention histogram CSV")
    report_p.add_argument("--confusion", action="store_true", help="verifier confusion CSV (audit runs)")
    report_p.add_argument("--overlap", action="store_true", help="solve-set overlap CSV (2-3 runs)")
    report_p.add_argument("--kv-growth", dest="kv_growth", action="store_true", help="KV-cache growth CSV")
    report_p.add_argument("--axis", choices=("cost", "energy"), default="cost",
                          help="cost axis for the frontier")
    report_p.add_argument("--out", default=".", help="directory for report CSVs")
    report_p.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
