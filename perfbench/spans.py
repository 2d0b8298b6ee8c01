"""In-memory span recorder for the traced benchmark run.

Spans wrap public functions of each hybridmas module where their caller
looks them up (``hybridmas.orchestrator.render``, ``hybridmas.cli.run_trajectory``
and so on), so the program itself is not edited. A span is
``(id, name, start, end, parent id, task id, extra)``: the parent is the
innermost open span of the same thread, the task id is that of the
enclosing ``run_trajectory`` call, and ``extra`` carries what a layer
metric divides by (bytes encoded, the tool called, the model name).
"""

from __future__ import annotations

import itertools
import os
import threading
import time


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple] = []

    def _wrap(self, name, fn, extra, sets_task):
        spans, ids, local, clock = self.spans, self._ids, self._local, time.perf_counter

        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else -1
            outer_task = local.__dict__.get("task")
            task = args[0].id if sets_task else outer_task
            sid = next(ids)
            stack.append(sid)
            local.task = task
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                local.task = outer_task
                spans.append((sid, name, t0, t1, parent, task,
                              extra(args, result) if extra else None))

        return wrapper

    def patch(self, owner, attr, name, extra=None, sets_task=False):
        """Replace owner.attr by a span-recording wrapper until unpatch()."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            wrapped = classmethod(self._wrap(name, original.__func__, extra, sets_task))
        else:
            wrapped = self._wrap(name, original, extra, sets_task)
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def unpatch(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def install_layer_spans(tracer: Tracer) -> None:
    """Patch every layer boundary the per-layer metrics are read from."""
    from hybridmas import accounting, analysis, backends, cli, core, environments, orchestrator

    def tool(args, _result):
        return args[1].tool

    points = [
        (cli, "run_trajectory", "orchestrator.run_trajectory", None, True),
        (cli, "load_config", "config.load_config", None, False),
        (cli, "load_tasks", "environments.load_tasks", None, False),
        (cli, "build_environment_factory", "config.build_environment_factory", None, False),
        (cli, "build_backend", "config.build_backend", None, False),
        (cli, "write_trajectories", "core.write_trajectories", None, False),
        (cli, "read_trajectories", "core.read_trajectories",
         lambda args, _r: os.path.getsize(args[0]), False),
        (cli, "cmd_report", "cli.cmd_report", None, False),
        (backends.HttpChatBackend, "complete", "backends.HttpChatBackend.complete",
         lambda args, _r: args[0].model, False),
        (backends.ScriptedBackend, "complete", "backends.ScriptedBackend.complete", None, False),
        (environments.WikiCorpus, "load", "environments.WikiCorpus.load", None, False),
        (environments.WikiCorpus, "similar_titles", "environments.WikiCorpus.similar_titles",
         None, False),
        (environments.WikiEnvironment, "step", "environments.WikiEnvironment.step", tool, False),
        (environments.ScriptedEnvironment, "step", "environments.ScriptedEnvironment.step", tool,
         False),
        (orchestrator, "render", "prompting.render", None, False),
        (orchestrator, "parse_tool_call", "prompting.parse_tool_call", None, False),
        (orchestrator, "format_memory", "prompting.format_memory", None, False),
        (orchestrator, "render_turn_log", "orchestrator.render_turn_log", None, False),
        (accounting, "aggregate", "accounting.aggregate", None, False),
        (core, "record_to_json_line", "core.record_to_json_line",
         lambda _args, result: len(result), False),
        (analysis, "task_success", "analysis.task_success", None, False),
        (analysis, "trajectory_score", "analysis.trajectory_score", None, False),
        (analysis, "pareto_frontier", "analysis.pareto_frontier", None, False),
        (analysis, "intervention_histogram", "analysis.intervention_histogram", None, False),
        (analysis, "verifier_confusion", "analysis.verifier_confusion", None, False),
        (analysis, "solve_overlap", "analysis.solve_overlap", None, False),
    ]
    for owner, attr, name, extra, sets_task in points:
        tracer.patch(owner, attr, name, extra, sets_task)


def self_times(spans) -> dict[str, float]:
    """Seconds of self time per span name: a span's duration minus the
    part of its interval that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        children.setdefault(span[4], []).append((span[2], span[3]))
    totals: dict[str, float] = {}
    for sid, name, t0, t1, *_ in spans:
        covered, cursor = 0.0, t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, cursor), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        totals[name] = totals.get(name, 0.0) + (t1 - t0) - covered
    return totals
