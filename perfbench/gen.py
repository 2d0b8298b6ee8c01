"""Seeded workload generator.

``generate(workload, seed, workdir, size)`` writes every input the program
sees (corpus, task files, one config per condition, script files) plus
``manifest.json``, which holds what only the benchmark may know: the stub
script, and for every condition and task the termination, final answer,
resets and model-call roles the scripted trajectory must produce.

Roles are one letter per model call, in call order: ``p`` plan, ``e``
executor turn, ``v`` verification. Executor calls bill to the edge profile
(joules), plan and verify calls to the cloud profile (dollars).

The task id is embedded in every question, plan and replan as
``<<T:id>>`` so that the loopback stub can tell whose call it serves from
the prompt alone: verify_replan prompts carry the plan but no user query.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import yaml

WORKLOADS = ("qa-http", "wiki-200k-miss", "long-horizon-scripted")

EDGE = {
    "placement": "edge",
    "param_count": 4.0e9,
    "layers": 36,
    "kv_heads": 8,
    "head_dim": 128,
    "bytes_per_activation": 2,
    "efficiency": 1.5e12,
    "context_cap": 4_000_000,
}
CLOUD = {
    "placement": "cloud",
    "pricing": {"prefill": "2.5", "cached": "1.25", "generated": "10"},
    "context_cap": 4_000_000,
}

# Sizes per workload. "full" is what the benchmark measures; "tiny" is the
# self-test. qa tasks are per condition; wiki has one condition.
SIZES = {
    "full": {
        "qa_pages": 10_000,
        "qa_tasks": 36,
        "qa_miss_tasks": 4,
        "wiki_pages": 200_000,
        "wiki_tasks": 100,
        "wiki_miss_tasks": 15,
        "lh_tasks_40": 26,
        "lh_tasks_80": 8,
    },
    "tiny": {
        "qa_pages": 300,
        "qa_tasks": 4,
        "qa_miss_tasks": 1,
        "wiki_pages": 2_000,
        "wiki_tasks": 6,
        "wiki_miss_tasks": 2,
        "lh_tasks_40": 2,
        "lh_tasks_80": 1,
    },
}

QA_TURN_BUDGET = 10
QA_TURNS = (3, 8)
WIKI_TURNS = (3, 5)
QA_MALFORMED = 0.08
QA_EXHAUST = 0.15
INTERVENE_QA = 0.25
# (turn budget, size key, verify interval) of the long-horizon task sets.
LH_BUDGETS = ((40, "lh_tasks_40", 1), (80, "lh_tasks_80", 2))
LH_FINISHED = 0.75
INTERVENE_LH = 0.4
OBSERVATION_CHARS = 4000
LH_TOPICS = 8

_WORDS = (
    "amber basalt cedar delta ember fjord garnet harbor indigo juniper kestrel "
    "lagoon marble nectar onyx pepper quartz raven saffron timber umber velvet "
    "willow xenon yarrow zephyr alder birch canyon dune estuary falcon glacier "
    "heron island jasper kelp lantern meadow nimbus orchid prairie quill ridge "
    "summit tundra upland valley walnut yew beacon citadel dynasty empire forge "
    "gallery hamlet inlet jetty keep lighthouse manor novel observatory palace "
    "quarry rampart sanctum temple university viaduct wharf academy bridge "
    "chapel district engine festival garden hospital institute journal kingdom "
    "library museum navy opera parliament railway society theatre union village "
    "archive bureau colony council crown court fleet guild league mission order "
    "press radio senate station studio tower treaty tribune vessel ward"
).split()
_MISS_WORD = "annex"  # not in _WORDS, so a title holding it never exists
_ADJS = "northern ancient coastal royal minor central early modern eastern upper".split()
_NOUNS = "river town dynasty novel railway festival ship treaty school painter".split()


def _marker(task_id: str) -> str:
    return f"<<T:{task_id}>>"


# --- corpus ------------------------------------------------------------------


def _titles(rng: random.Random, count: int) -> list[str]:
    n = len(_WORDS)
    picks = rng.sample(range(n ** 3), count)
    return [
        f"{_WORDS[i // (n * n)].title()} {_WORDS[(i // n) % n].title()} {_WORDS[i % n].title()}"
        for i in picks
    ]


def _sentence_pool(rng: random.Random, count: int) -> list[str]:
    pool = []
    for i in range(count):
        words = rng.sample(_WORDS, 3)
        pool.append(
            f"It is a {rng.choice(_ADJS)} {rng.choice(_NOUNS)} near the "
            f"{words[0]} {words[1]} of {words[2]}, recorded in {1500 + i % 500}."
        )
    return pool


def _write_corpus(rng: random.Random, path: Path, pages: int) -> list[str]:
    titles = _titles(rng, pages)
    pool = _sentence_pool(rng, 4096)
    lines = []
    for title in titles:
        body = " ".join(rng.choices(pool, k=2))
        text = f"{title} is a {rng.choice(_ADJS)} {rng.choice(_NOUNS)}. {body}"
        lines.append(json.dumps({"title": title, "text": text}))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return titles


# --- trajectories --------------------------------------------------------------


def _spread(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """n integers spread evenly over [lo, hi], in random order: seeds change
    which task gets which length, not the total work."""
    values = [lo + round(i * (hi - lo) / max(n - 1, 1)) for i in range(n)]
    rng.shuffle(values)
    return values


def _flags(rng: random.Random, n: int, share: float) -> list[bool]:
    """Exactly round(n * share) of n flags set, at random positions."""
    flags = [i < round(n * share) for i in range(n)]
    rng.shuffle(flags)
    return flags


def _family(architecture: str) -> str:
    if architecture.startswith("pevr"):
        return "pevr"
    if architecture.startswith("eva"):
        return "eva"
    return "monolithic"


def _verdict_text(family: str, task_id: str, t: int, intervene: bool) -> str:
    if not intervene:
        return "CONTINUE"
    if family == "pevr":
        return (
            f"INTERVENE\n<REPLAN>\nReplan for {_marker(task_id)} at turn {t}: search the "
            "remaining entity, look up the key fact, then finish.\n</REPLAN>"
        )
    return (
        f"INTERVENE\n<SUMMARY>Turns 1-{t} searched and looked up pages.</SUMMARY>\n"
        "<ADVICE>Search the remaining entity, then finish with the answer.</ADVICE>"
    )


def _plan_text(task_id: str) -> str:
    return (
        f"<PLAN>\nPlan for {_marker(task_id)}: 1. search each entity in the question. "
        "2. look up the key fact. 3. finish with the answer.\n</PLAN>"
    )


def _script_condition(architecture, interval, task, intervene_share, rng):
    """Responses in call order plus the expected outcome of one task. The
    schedule mirrors the orchestrator: verification after every turn
    divisible by the interval while the episode is live."""
    family = _family(architecture)
    actions, finished = task["_actions"], task["_finished"]
    n_turns = len(actions)
    verify_turns = [] if family == "monolithic" else [
        t for t in range(interval, n_turns + 1, interval) if not (finished and t == n_turns)
    ]
    intervene = {t for t, flag in zip(verify_turns, _flags(rng, len(verify_turns),
                                                           intervene_share)) if flag}
    roles, responses = [], []
    if family == "pevr":
        roles.append("p")
        responses.append(_plan_text(task["id"]))
    for t in range(1, n_turns + 1):
        roles.append("e")
        responses.append(actions[t - 1])
        if t in verify_turns:
            roles.append("v")
            responses.append(_verdict_text(family, task["id"], t, t in intervene))
    audit = architecture.endswith("_audit")
    expected = {
        "roles": "".join(roles),
        "resets": [] if audit else sorted(intervene),
        "termination": "finished" if finished else "turn_budget_exhausted",
        "final_answer": task["_answer"] if finished else None,
    }
    return responses, expected


# --- configs -------------------------------------------------------------------


def _config(architecture, interval, dataset, backends, environment, corpus=None,
            parallelism=1, max_turns=None):
    run = {
        "architecture": architecture,
        "verify_interval": interval,
        "executor": {"model": "edge-4b", "backend": "edge"},
        "seed": 0,
    }
    if architecture != "monolithic":
        run["supervisor"] = {"model": "cloud-frontier", "backend": "cloud"}
    if max_turns is not None:
        run["max_turns"] = max_turns
    cfg = {
        "run": run,
        "models": {"edge-4b": EDGE, "cloud-frontier": CLOUD},
        "backends": backends,
        "dataset": dataset,
        "environment": environment,
        "output": "out",
        "parallelism": parallelism,
    }
    if corpus:
        cfg["corpus"] = corpus
    return cfg


def _write_yaml(path: Path, data) -> None:
    path.write_text(yaml.safe_dump(data, sort_keys=False, width=1_000_000), encoding="utf-8")


def _write_tasks(path: Path, tasks) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for task in tasks:
            fh.write(json.dumps({k: v for k, v in task.items() if not k.startswith("_")}) + "\n")


# --- wiki workloads --------------------------------------------------------------


def _search(target: str) -> str:
    return f"Thought: I need the page on {target}.\nTool call: search[{target}]"


def _qa_tasks(rng, titles, count, miss_tasks, turns):
    """hotpotqa tasks with scripted executor actions: searches and lookups
    in turn, some malformed calls, and exactly miss_tasks tasks whose first
    search names a page that does not exist. A share QA_EXHAUST of the tasks
    never finishes; the others finish after a number of turns spread over
    the turns range."""
    # Missing pages go to evenly spaced tasks: with two workers, where the
    # misses fall decides how often two run at once, and that should not
    # change with the seed.
    missing = [False] * count
    for j in range(miss_tasks):
        missing[(2 * j + 1) * count // (2 * miss_tasks)] = True
    exhausted = _flags(rng, count, QA_EXHAUST)
    lengths = iter(_spread(rng, count - sum(exhausted), *turns))
    tasks = []
    for i in range(count):
        task_id = f"q{i:05d}"
        a, b = rng.sample(titles, 2)
        answer = f"{rng.choice(_ADJS)} {rng.choice(_WORDS)}"
        gold = answer if rng.random() < 0.7 else f"{rng.choice(_NOUNS)} {rng.choice(_WORDS)}"
        n_turns = QA_TURN_BUDGET if exhausted[i] else next(lengths)
        n_acts = n_turns - (0 if exhausted[i] else 1)
        # the first action stays a search, so a missing page can take its place
        malformed = [False] + _flags(rng, n_acts - 1, QA_MALFORMED)
        actions = []
        for t in range(n_acts):
            if malformed[t]:
                actions.append("I am not sure which page holds the fact, let me think again.")
            elif t % 2 == 0:
                actions.append(_search(a if t % 4 == 0 else b))
            else:
                keyword = rng.choice(_NOUNS + _ADJS)
                actions.append(f"Thought: find the {keyword} detail.\nTool call: lookup[{keyword}]")
        if missing[i]:
            words = rng.sample(_WORDS, 2)
            actions[0] = _search(f"{words[0].title()} {words[1].title()} {_MISS_WORD.title()}")
        if not exhausted[i]:
            actions.append(f"Thought: I have the answer.\nTool call: finish[{answer}]")
        tasks.append({
            "id": task_id,
            "question": f"{_marker(task_id)} What links {a} and {b}?",
            "answers": [gold],
            "benchmark": "hotpotqa",
            "_answer": answer,
            "_actions": actions,
            "_finished": not exhausted[i],
        })
    return tasks


def _http_workload(name, rng, workdir, pages, count, miss_tasks, turns, conditions, reports,
                   round_s, parallelism):
    titles = _write_corpus(rng, workdir / "corpus.jsonl", pages)
    tasks = _qa_tasks(rng, titles, count, miss_tasks, turns)
    _write_tasks(workdir / "tasks.jsonl", tasks)
    script, expected, conds = {}, {}, []
    for architecture, interval in conditions:
        label = f"{architecture}-tv{interval}"
        backend = {"type": "http", "base_url": "STUB_URL", "model": label, "max_retries": 3,
                   "backoff_s": 0.05, "timeout_s": 60}
        backends = {"edge": dict(backend)}
        if architecture != "monolithic":
            backends["cloud"] = dict(backend)
        cfg = _config(architecture, interval, "tasks.jsonl", backends, {"type": "wiki"},
                      corpus="corpus.jsonl", parallelism=parallelism)
        _write_yaml(workdir / f"{label}.yaml", cfg)
        script[label], expected[label] = {}, {}
        for task in tasks:
            responses, exp = _script_condition(architecture, interval, task, INTERVENE_QA, rng)
            script[label][task["id"]] = responses
            expected[label][task["id"]] = exp
        conds.append({"label": label, "config": f"{label}.yaml"})
    return {
        "workload": name,
        "http": True,
        "round_s": round_s,
        "parallelism": parallelism,
        "latency_ms": 10,
        "conditions": conds,
        "reports": reports,
        "expected": expected,
        "script": script,
    }


# --- scripted long-horizon workload ---------------------------------------------


def _observation_text(rng: random.Random, topic: int) -> str:
    words = []
    size = 0
    while size < OBSERVATION_CHARS - 40:
        word = rng.choice(_WORDS)
        words.append(word)
        size += len(word) + 1
    text = f"Topic {topic} record: " + " ".join(words)
    return text[:OBSERVATION_CHARS - 1] + "."


def _long_horizon(rng, workdir, sizes):
    table = [
        {"tool": "search", "argument": f"topic-{k}", "text": _observation_text(rng, k)}
        for k in range(LH_TOPICS)
    ]
    environment = {"type": "scripted", "default": _observation_text(rng, LH_TOPICS),
                   "table": table}
    conds, expected = [], {}
    for budget, count, interval in LH_BUDGETS:
        count = sizes[count]
        finished = _flags(rng, count, LH_FINISHED)
        lengths = iter(_spread(rng, sum(finished), budget * 3 // 4, budget))
        tasks = []
        for i in range(count):
            task_id = f"g{budget}-{i:03d}"
            answer = f"{rng.choice(_WORDS)} {rng.choice(_WORDS)}"
            n_turns = next(lengths) if finished[i] else budget
            actions = [
                # topic LH_TOPICS is not in the table and gets the default
                f"Thought: step {t} continues the survey.\n"
                f"Tool call: search[topic-{(i + t) % (LH_TOPICS + 1)}]"
                for t in range(1, n_turns + (0 if finished[i] else 1))
            ]
            if finished[i]:
                actions.append(f"Thought: the survey is complete.\nTool call: finish[{answer}]")
            tasks.append({
                "id": task_id,
                "question": f"{_marker(task_id)} Survey the topics and name the result.",
                "answers": [answer if rng.random() < 0.6 else rng.choice(_WORDS)],
                "benchmark": "generic",
                "_answer": answer,
                "_actions": actions,
                "_finished": finished[i],
            })
        dataset = f"tasks-{budget}.jsonl"
        _write_tasks(workdir / dataset, tasks)
        for architecture in ("pevr", "eva_nosummary", "eva_audit"):
            label = f"{architecture}-tv{interval}"
            scripts = {"e": [], "s": []}
            expected[label] = {}
            for task in tasks:
                responses, exp = _script_condition(architecture, interval, task, INTERVENE_LH,
                                                   rng)
                for role, text in zip(exp["roles"], responses):
                    scripts["e" if role == "e" else "s"].append(text)
                expected[label][task["id"]] = exp
            (workdir / f"{label}-edge.json").write_text(json.dumps(scripts["e"]))
            (workdir / f"{label}-cloud.json").write_text(json.dumps(scripts["s"]))
            backends = {
                "edge": {"type": "script", "script_file": f"{label}-edge.json"},
                "cloud": {"type": "script", "script_file": f"{label}-cloud.json"},
            }
            cfg = _config(architecture, interval, dataset, backends, environment,
                          max_turns=budget)
            _write_yaml(workdir / f"{label}.yaml", cfg)
            conds.append({"label": label, "config": f"{label}.yaml"})
    labels = [c["label"] for c in conds]
    return {
        "workload": "long-horizon-scripted",
        "http": False,
        "round_s": 15.0,
        "parallelism": 1,
        "latency_ms": 0,
        "conditions": conds,
        "reports": [
            {"labels": labels, "flags": ["--frontier", "--histogram", "--kv-growth"]},
            {"labels": [label for label in labels if label.startswith("eva_audit")],
             "flags": ["--confusion"]},
        ],
        "expected": expected,
        "script": None,
    }


def generate(workload: str, seed: int, workdir: Path, size: str = "full") -> dict:
    """Write the workload's inputs under workdir and return its manifest."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    sizes = SIZES[size]
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "qa-http":
        conditions = (("monolithic", 1), ("pevr", 2), ("eva", 2))
        labels = [f"{a}-tv{i}" for a, i in conditions]
        manifest = _http_workload(
            workload, rng, workdir, sizes["qa_pages"], sizes["qa_tasks"],
            sizes["qa_miss_tasks"], QA_TURNS, conditions,
            [{"labels": labels,
              "flags": ["--frontier", "--histogram", "--overlap", "--kv-growth"]}],
            round_s=10.0, parallelism=2,
        )
    elif workload == "wiki-200k-miss":
        manifest = _http_workload(
            workload, rng, workdir, sizes["wiki_pages"], sizes["wiki_tasks"],
            sizes["wiki_miss_tasks"], WIKI_TURNS, (("eva", 2),),
            [{"labels": ["eva-tv2"], "flags": ["--frontier", "--histogram", "--kv-growth"]}],
            # One worker: a miss holds the interpreter lock for most of a
            # second, and with two workers the other one's wait on it would
            # swamp what this workload is for, the corpus layer.
            round_s=20.0, parallelism=1,
        )
    else:
        manifest = _long_horizon(rng, workdir, sizes)
    # What runs between tasks (worker.run_round) on the one-worker
    # workloads. A wiki report pass takes milliseconds beside a 20 s round,
    # so its passes are spread over the run. Speed probes scale the
    # program's own share of each time (metrics.HostSpeed).
    manifest["between_tasks"] = {"wiki-200k-miss": ["report", "probe"],
                                 "long-horizon-scripted": ["probe"]}.get(workload, [])
    manifest["profiles"] = {"edge": EDGE, "cloud": CLOUD}
    (workdir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return manifest
