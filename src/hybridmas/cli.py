"""Command-line surface: run experiments, sweep verification intervals,
and turn trajectory logs into analysis CSVs.

Commands
    run     execute every task under the configured architecture
    sweep   one run per verification interval, plus sweep_points.csv:
            label,cost_usd,energy_joules,performance,architecture,
            verify_interval
    report  read trajectory JSONL files and emit analysis CSVs

Exit codes: 0 success, 1 configuration error (including a missing or
malformed dataset or corpus line and a backend that cannot be built),
2 runtime error, and also a command line that argparse refuses (an unknown
flag, a missing --config), with its usage on stderr. main alone maps a
command's outcome to its exit code: a command returns nothing, and raises
ConfigError for exit 1 and any other exception for exit 2.

Output layout: <output>/<architecture>-tv<interval>/trajectories.jsonl.
Records are appended as each task ends, in task order: a record that ends
before a slower earlier task waits for it. A kill or an exception escaping
a task (exit 2) loses only the tasks not yet written. Re-running a
condition skips task ids already present in its log, so those tasks rerun
on resume; a torn final line (a kill mid-write) is dropped with a warning
and its task reruns. A log holding a record written under another run
configuration (its config_digest differs) is refused with exit 2 and
nothing is appended to it (a torn final line is still dropped), so one log
never mixes two conditions.

Report CSVs (stable column names):
    frontier.csv    label,cost_usd,energy_joules,performance,on_frontier
                    (one row per non-empty log, in argument order)
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
from dataclasses import asdict, astuple, replace
from pathlib import Path
from typing import Callable, Iterable, Mapping, Optional, Sequence

from . import analysis
from .backends import ScriptedBackend
from .config import (ConfigError, ExperimentConfig, build_backend, build_environment_factory,
                     load_config, parse_parallelism)
from .core import TaskInstance, TrajectoryRecord, read_trajectories, write_trajectories
from .environments import SchemaViolationError, load_tasks
from .orchestrator import run_config_digest, run_trajectory

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2

# The size of the blocks a log's torn tail is looked for in, from its end.
_TAIL_BLOCK = 1 << 16


def _condition_dir(cfg: ExperimentConfig, verify_interval: int) -> Path:
    return cfg.output / f"{cfg.run.architecture}-tv{verify_interval}"


def _drop_torn_tail(path: Path) -> None:
    """Truncate a log whose final line was cut short (the process was killed
    mid-write) back to its last complete line, so that the task reruns. Only
    the torn line is read, a block at a time from the end."""
    with open(path, "rb+") as fh:
        size = keep = fh.seek(0, os.SEEK_END)
        while keep > 0:
            start = max(keep - _TAIL_BLOCK, 0)
            fh.seek(start)
            newline = fh.read(keep - start).rfind(b"\n")
            if newline >= 0:
                keep = start + newline + 1
                break
            keep = start
        if keep == size:
            return
        fh.truncate(keep)
    logger.warning("%s: dropped %d bytes of a torn final line", path, size - keep)


def execute_condition(
    cfg: ExperimentConfig,
    verify_interval: int,
    tasks: Sequence[TaskInstance],
    env_factory: Callable[[], object],
) -> dict:
    """Run every pending task of tasks for one (architecture, interval)
    condition, each in a fresh environment from env_factory, appending each
    scored record to its log once it and every earlier task have ended.
    Backends are built here, for this condition alone: a scripted one is
    consumed by its run. Returns summary stats over the complete log."""
    run_config = replace(cfg.run, verify_interval=verify_interval)
    executor = build_backend(cfg.backend_specs[cfg.executor_backend_name])
    supervisor = None
    if cfg.supervisor_backend_name is not None:
        if cfg.supervisor_backend_name == cfg.executor_backend_name:
            supervisor = executor
        else:
            supervisor = build_backend(cfg.backend_specs[cfg.supervisor_backend_name])

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
        return run_trajectory(task, run_config, executor, supervisor, env_factory())

    # Both maps yield in task order, so the log's order does not depend on
    # the parallelism. The built-in map runs each task on this thread; the
    # pool's map runs ahead on its workers and, when a task raises, cancels
    # the tasks not yet started as the exception leaves the loop.
    log_path.touch()  # the log exists even when no task is pending
    records = list(existing)
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        for record in (pool.map if parallelism > 1 else map)(run_one, pending):
            write_trajectories(log_path, [record], append=True)
            records.append(record)

    return dict(
        asdict(analysis.condition_stats(records)),
        architecture=cfg.run.architecture,
        verify_interval=verify_interval,
        log_path=str(log_path),
    )


def _print_summary(summary: dict) -> None:
    print(
        "run architecture={architecture} verify_interval={verify_interval} "
        "tasks={records} mean_score={mean_score:.4f} success_rate={success_rate:.4f} "
        "total_cost_usd={cost_usd} total_energy_joules={energy_joules:.6g} "
        "mean_max_kv_bytes={mean_max_kv_bytes:.6g} out={log_path}".format(**summary)
    )


def cmd_run(args) -> None:
    """run: one condition at the configured verification interval. sweep:
    one condition per interval of the config's sweep list, then
    sweep_points.csv over them. The tasks and the environment factory (and
    so a wiki corpus) are loaded once and shared by every condition."""
    sweep = args.command == "sweep"
    cfg = _load_with_overrides(args)
    if sweep and not cfg.sweep:
        raise ConfigError("sweep requires a non-empty sweep list in the config")
    try:
        tasks = load_tasks(cfg.dataset)
        env_factory = build_environment_factory(cfg)
    except SchemaViolationError as exc:  # a bad input line; a bad log line is exit 2
        raise ConfigError(str(exc)) from None
    points = []  # (label, summary); a label is the name report gives the condition's log
    for interval in cfg.sweep if sweep else [cfg.run.verify_interval]:
        summary = execute_condition(cfg, interval, tasks, env_factory)
        _print_summary(summary)
        points.append((_condition_dir(cfg, interval).name, summary))
    if sweep:
        points_path = cfg.output / "sweep_points.csv"
        _write_points(points_path, points, ("architecture", "verify_interval"))
        print(f"sweep points written to {points_path}")


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# The per-condition values of frontier.csv and sweep_points.csv, after the label.
_POINT_COLUMNS = ("cost_usd", "energy_joules", "performance")


def _write_points(path: Path, rows: Sequence[tuple[str, Mapping]], extra: Sequence[str]) -> None:
    """Write one row per (label, values): the label, then the values of
    _POINT_COLUMNS and of the extra columns. Both files that hold
    per-condition points are written here, so their values read alike."""
    columns = (*_POINT_COLUMNS, *extra)
    _write_csv(path, ("label", *columns),
               [(label, *(values[c] for c in columns)) for label, values in rows])


def _report_label(path: Path) -> str:
    return path.parent.name if path.name == "trajectories.jsonl" else path.stem


def cmd_report(args) -> None:
    """Read the logs one at a time, in argument order, and reduce each to
    the small values the requested CSVs need before reading the next. Make
    the output directory and write the CSVs once every log has been read
    and confusion.csv has not been refused (for the first record without a
    success label, else for the first record of a non-audit run), so a
    refused report leaves no output. Two logs with one label are refused,
    and so is --overlap over other than 2 or 3 logs, before any log is
    read."""
    paths = [Path(p) for p in args.paths]
    for path in paths:
        if not path.is_file():
            raise ConfigError(f"no such trajectory file: {path}")
    if not any((args.frontier, args.histogram, args.confusion, args.overlap, args.kv_growth)):
        raise ConfigError("select at least one analysis flag")
    labeled: dict[str, Path] = {}
    for path in paths:
        label = _report_label(path)
        if label in labeled:
            raise ConfigError(f"{labeled[label]} and {path} both have the report label {label}")
        labeled[label] = path
    if args.overlap and len(labeled) not in analysis.OVERLAP_SET_COUNTS:
        raise ConfigError(f"--overlap needs 2 or 3 logs, got {len(labeled)}")
    stats: dict[str, analysis.ConditionStats] = {}  # non-empty logs only
    architectures: dict[str, str] = {}  # each non-empty log's first record's
    interventions: list[int] = []
    solve_sets: dict[str, set[str]] = {}
    confusion = analysis.ConfusionReport(0, 0, 0, 0)
    unlabeled: Optional[str] = None
    non_audit: Optional[analysis.NonAuditRecordError] = None
    for label, path in labeled.items():
        records = read_trajectories(path)
        if records and (args.frontier or args.kv_growth):
            stats[label] = analysis.condition_stats(records)
            architectures[label] = records[0].architecture
        if args.histogram:
            interventions.extend(r.applied_interventions() for r in records)
        if args.overlap:
            solve_sets[label] = {r.task_id for r in records if r.success}
        if args.confusion and unlabeled is None:
            unlabeled = next((r.task_id for r in records if r.success is None), None)
            if unlabeled is None and non_audit is None:
                try:
                    report = analysis.verifier_confusion([(r, r.success) for r in records])
                    confusion = analysis.ConfusionReport(
                        *map(sum, zip(astuple(confusion), astuple(report))))
                except analysis.NonAuditRecordError as exc:
                    # Its traceback would keep this log's records alive.
                    non_audit = exc.with_traceback(None)
        del records
    if unlabeled is not None:
        raise ValueError(f"record {unlabeled} has no success label; "
                         "run against a dataset with gold answers first")
    if non_audit is not None:
        raise non_audit
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.frontier:
        _write_frontier(stats, out_dir / "frontier.csv")
    if args.histogram:
        _write_histogram(interventions, out_dir / "histogram.csv")
    if args.confusion:
        _write_confusion(confusion, out_dir / "confusion.csv")
    if args.overlap:
        _write_overlap(solve_sets, out_dir / "overlap.csv")
    if args.kv_growth:
        _write_kv_growth(stats, architectures, out_dir / "kv_growth.csv")


def _write_frontier(stats: dict, path: Path) -> None:
    on_frontier = analysis.pareto_frontier(
        [(s.cost_usd, s.energy_joules, s.performance) for s in stats.values()])
    _write_points(path, [(label, dict(asdict(s), on_frontier=on))
                         for (label, s), on in zip(stats.items(), on_frontier)], ("on_frontier",))
    print(f"frontier written to {path} ({sum(on_frontier)} of {len(stats)} points)")


def _write_histogram(interventions: Sequence[int], path: Path) -> None:
    histogram = analysis.intervention_histogram(interventions)
    _write_csv(path, ("intervention_count", "frequency"), histogram.counts.items())
    quartiles = histogram.quartiles
    print(
        f"histogram written to {path}"
        + (f" (quartiles: {quartiles[0]}, {quartiles[1]}, {quartiles[2]})" if quartiles else "")
    )


# ConfusionReport counts and rates, the columns of confusion.csv.
_CONFUSION_COLUMNS = ("tp", "fp", "tn", "fn", "fn_rate", "fp_rate", "fn_rate_conditional",
                      "fp_rate_conditional")


def _write_confusion(report: analysis.ConfusionReport, path: Path) -> None:
    _write_csv(path, _CONFUSION_COLUMNS, [[getattr(report, n) for n in _CONFUSION_COLUMNS]])
    print(f"confusion written to {path} (total {report.total})")


def _write_overlap(solve_sets: dict, path: Path) -> None:
    _write_csv(path, ("region", "count"), analysis.solve_overlap(solve_sets).items())
    print(f"overlap written to {path}")


# ConditionStats fields written to kv_growth.csv after label and architecture.
_KV_GROWTH_STATS = (
    "records",
    "success_rate",
    "mean_max_context_tokens",
    "mean_max_kv_bytes",
    "max_max_kv_bytes",
)


def _write_kv_growth(stats: dict, architectures: dict, path: Path) -> None:
    rows = [
        [label, architectures[label], *(getattr(s, n) for n in _KV_GROWTH_STATS)]
        for label, s in stats.items()
    ]
    _write_csv(path, ("label", "architecture", *_KV_GROWTH_STATS), rows)
    print(f"kv growth written to {path}")


def _load_with_overrides(args) -> ExperimentConfig:
    cfg = load_config(args.config)
    if args.out:
        cfg.output = Path(args.out)
    if args.parallelism is not None:
        cfg.parallelism = parse_parallelism(args.parallelism, "--parallelism")
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
    sweep_p.set_defaults(func=cmd_run)

    report_p = sub.add_parser("report", help="emit analysis CSVs from trajectory logs")
    report_p.add_argument("paths", nargs="+", help="trajectories.jsonl files")
    report_p.add_argument("--frontier", action="store_true", help="Pareto frontier CSV")
    report_p.add_argument("--histogram", action="store_true", help="intervention histogram CSV")
    report_p.add_argument("--confusion", action="store_true", help="verifier confusion CSV (audit runs)")
    report_p.add_argument("--overlap", action="store_true", help="solve-set overlap CSV (2-3 runs)")
    report_p.add_argument("--kv-growth", dest="kv_growth", action="store_true", help="KV-cache growth CSV")
    report_p.add_argument("--out", default=".", help="directory for report CSVs")
    report_p.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - the one runtime boundary, exit code 2
        logger.exception("%s failed", args.command)
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
