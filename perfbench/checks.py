"""Output checks: every task of every condition must appear exactly once
in its trajectory log, end the way the generator scripted it, and carry
totals equal to the benchmark's own re-bill of the usage the endpoint
reported. The re-bill follows the formulas in the README (exact decimal
dollars for cloud calls, joules for edge calls) without calling the
program's accounting code.
"""

from __future__ import annotations

import hashlib
import json
import math
from decimal import Decimal
from pathlib import Path

LEGAL_TERMINATIONS = ("finished", "turn_budget_exhausted", "out_of_context", "backend_error")
ENERGY_REL_TOL = 1e-9
MILLION = Decimal(1_000_000)


def rebill(roles: str, usages, profiles: dict) -> tuple[Decimal, float]:
    """Dollars and joules for one task. usages holds (prompt, cached,
    generated) per call, in call order; executor calls (role e) run on the
    edge profile, plan and verify calls on the cloud profile."""
    edge, pricing = profiles["edge"], profiles["cloud"]["pricing"]
    prefill, cached_rate, generated = (Decimal(pricing[k]) for k in ("prefill", "cached",
                                                                     "generated"))
    cost, joules = Decimal(0), []
    for role, (prompt, cached, gen) in zip(roles, usages):
        if role == "e":
            joules.append(2.0 * edge["param_count"] * (prompt + gen) / edge["efficiency"])
        else:
            cost += (Decimal(prompt - cached) * prefill + Decimal(cached) * cached_rate
                     + Decimal(gen) * generated) / MILLION
    return cost, math.fsum(joules)


def _calls(record: dict) -> int:
    return len(record["turns"]) + (record["initial_plan"] is not None) + len(
        record["supervisor_calls"])


def check_task(record: dict, expected: dict, usages, profiles: dict) -> list[str]:
    """Every way one trajectory differs from its script; empty if none."""
    problems = []
    if record["termination"] not in LEGAL_TERMINATIONS:
        problems.append(f"illegal termination {record['termination']!r}")
    for key in ("termination", "final_answer", "resets"):
        if record[key] != expected[key]:
            problems.append(f"{key} {record[key]!r} != scripted {expected[key]!r}")
    if _calls(record) != len(expected["roles"]):
        problems.append(f"{_calls(record)} calls != scripted {len(expected['roles'])}")
    if len(usages) != len(expected["roles"]):
        problems.append(f"endpoint served {len(usages)} calls, scripted {len(expected['roles'])}")
        return problems
    cost, joules = rebill(expected["roles"], usages, profiles)
    if Decimal(record["totals"]["cost_usd"]) != cost:
        problems.append(f"cost {record['totals']['cost_usd']} != re-bill {cost}")
    logged = record["totals"]["energy_joules"]
    if abs(logged - joules) > ENERGY_REL_TOL * max(abs(joules), abs(logged)):
        problems.append(f"energy {logged!r} != re-bill {joules!r}")
    return problems


def http_usages(stub_log) -> tuple[dict, list[str]]:
    """Per (model, task) usage lists in call order from the stub log, and
    the requests the stub could not serve."""
    by_task: dict[tuple[str, str], dict[int, tuple]] = {}
    problems = []
    for model, task, k, _arrival, _service, prompt, cached, gen, status in stub_log:
        if status != 200:
            problems.append(f"stub answered {status} to {model}/{task} call {k}")
        by_task.setdefault((model, task), {})[k] = (prompt, cached, gen)
    return {key: [calls[k] for k in sorted(calls)] for key, calls in by_task.items()}, problems


def scripted_usages(manifest: dict, prompt_tokens: dict, workdir: Path) -> dict:
    """Per (label, task) usage of a scripted run: prompt tokens as the
    worker recounted them from the requests, generated tokens counted from
    the script files, split into tasks in task order (the run is
    sequential and consumes each script in order)."""
    out = {}
    for cond in manifest["conditions"]:
        label = cond["label"]
        streams = {}
        for role, backend in (("e", "edge"), ("s", "cloud")):
            script = json.loads((workdir / f"{label}-{backend}.json").read_text())
            streams[role] = iter(zip(prompt_tokens[label][role],
                                     (len(text.split()) for text in script)))
        for task_id, exp in manifest["expected"][label].items():
            out[(label, task_id)] = [
                (prompt, 0, gen)
                for prompt, gen in (next(streams["e" if r == "e" else "s"], (0, 0))
                                    for r in exp["roles"])
            ]
    return out


def check_round(round_result: dict, manifest: dict, usages: dict) -> dict:
    """Checks one round's logs. Returns attempted and failed task counts,
    problems, resets, log bytes and the digest of the logs."""
    digest = hashlib.sha256()
    attempted = failed = resets = log_bytes = 0
    problems = []
    for label, tasks in manifest["expected"].items():
        path = Path(round_result["logs"][label])
        data = path.read_bytes() if path.is_file() else b""
        digest.update(label.encode() + b"\0" + data)
        log_bytes += len(data)
        seen: dict[str, list[dict]] = {}
        for line in data.splitlines():
            record = json.loads(line)
            seen.setdefault(record["task_id"], []).append(record)
        for task_id in seen.keys() - tasks.keys():
            problems.append(f"{label}/{task_id}: not a task of this workload")
            failed += len(seen[task_id])
        for task_id, exp in tasks.items():
            attempted += 1
            records = seen.get(task_id, [])
            if len(records) != 1:
                task_problems = [f"appears {len(records)} times"]
            else:
                resets += len(records[0]["resets"])
                task_problems = check_task(records[0], exp, usages.get((label, task_id), []),
                                           manifest["profiles"])
                if records[0]["termination"] == "backend_error":
                    task_problems.append("backend_error")
            if task_problems:
                failed += 1
                problems.extend(f"{label}/{task_id}: {p}" for p in task_problems)
    return {"attempted": attempted, "failed": failed, "problems": problems, "resets": resets,
            "log_bytes": log_bytes, "digest": digest.hexdigest()}
