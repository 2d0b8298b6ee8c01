"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with `pytest -s tests/test_acceptance.py` to see them inline).

The headline benchmark numbers need frontier-model endpoints and full
datasets, so acceptance combines exact formula oracles, protocol property
suites, and deterministic scripted end-to-end checks. The only live-model
check (criterion 14) is credential-gated and skipped by default.
"""

import json
import os
import random
from contextlib import contextmanager
from dataclasses import replace
from decimal import Decimal

import numpy as np
import pytest
import yaml

from hybridmas import analysis
from hybridmas.accounting import api_cost_usd, energy_joules, kv_cache_bytes
from hybridmas.analysis import pareto_frontier, verifier_confusion
from hybridmas.backends import HttpChatBackend, ScriptedBackend, whitespace_token_count
from hybridmas.cli import main
from hybridmas.core import RunConfig, TaskInstance, TokenUsage, ToolCall
from hybridmas.environments import NO_MORE_RESULTS, ScriptedEnvironment, WikiEnvironment
from hybridmas.orchestrator import run_trajectory
from hybridmas.prompting import (
    MalformedVerdictError,
    parse_eva_verdict,
    parse_pevr_verdict,
    parse_plan,
    parse_tool_call,
    render,
)
from conftest import (CLOUD_PROFILE, EDGE_PROFILE, FEYNMAN_SENTENCES, corpus_snapshot, make_corpus,
                      unconsumed)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS: {description}")


TASK = TaskInstance("acc-task", "Did Richard Feynman win a Nobel Prize?", ("yes",), "hotpotqa")
BIG_CAP_PROFILE = replace(EDGE_PROFILE, context_cap=10**7)


def scripted_run(architecture, executor_script, supervisor_script=None, env=None, **overrides):
    defaults = dict(
        architecture=architecture,
        executor_profile=BIG_CAP_PROFILE,
        supervisor_profile=None if architecture == "monolithic" else CLOUD_PROFILE,
        max_turns=6,
        verify_interval=2,
        seed=0,
    )
    defaults.update(overrides)
    config = RunConfig(**defaults)
    executor = ScriptedBackend(executor_script)
    supervisor = ScriptedBackend(supervisor_script) if supervisor_script else None
    env = env or ScriptedEnvironment(default="obs")
    return run_trajectory(TASK, config, executor, supervisor, env), executor, supervisor


def test_acceptance_01_energy_oracle():
    with criterion(1, "edge energy formula: 1000+200 tokens on a 4B model costs 6.4 J"):
        value = energy_joules(EDGE_PROFILE, TokenUsage(1000, 0, 200))
        assert abs(value - 6.4) / 6.4 <= 1e-12
        assert energy_joules(EDGE_PROFILE, TokenUsage(0, 0, 0)) == 0.0


def test_acceptance_02_cost_oracle():
    with criterion(2, "three-rate pricing: $2.50 and $0.875 oracles plus exact additivity"):
        assert api_cost_usd(CLOUD_PROFILE, TokenUsage(1_000_000, 0, 0)) == Decimal("2.5")
        assert api_cost_usd(
            CLOUD_PROFILE, TokenUsage(200_000, 100_000, 50_000)
        ) == Decimal("0.875")
        rng = random.Random(2024)
        for _ in range(1000):
            parts = []
            for _ in range(rng.randint(1, 8)):
                prompt = rng.randrange(0, 10**6)
                parts.append(
                    TokenUsage(prompt, rng.randrange(0, prompt + 1), rng.randrange(0, 10**6))
                )
            total = TokenUsage(
                sum(p.prompt_tokens for p in parts),
                sum(p.cached_tokens for p in parts),
                sum(p.generated_tokens for p in parts),
            )
            split_sum = sum((api_cost_usd(CLOUD_PROFILE, p) for p in parts), Decimal(0))
            assert api_cost_usd(CLOUD_PROFILE, total) == split_sum


def test_acceptance_03_kv_oracle():
    with criterion(3, "KV-cache formula: 4,831,838,208 bytes at 32768 tokens, linear in C"):
        bytes_at_cap = kv_cache_bytes(EDGE_PROFILE, 32768)
        assert bytes_at_cap == 4_831_838_208
        assert abs(bytes_at_cap / 2**30 - 4.5) / 4.5 <= 0.05
        rng = random.Random(3)
        for _ in range(200):
            c1, c2, k = rng.randrange(0, 10**6), rng.randrange(0, 10**6), rng.randrange(0, 50)
            assert kv_cache_bytes(EDGE_PROFILE, c1 + c2) == kv_cache_bytes(
                EDGE_PROFILE, c1
            ) + kv_cache_bytes(EDGE_PROFILE, c2)
            assert kv_cache_bytes(EDGE_PROFILE, k * c1) == k * kv_cache_bytes(EDGE_PROFILE, c1)


def test_acceptance_04_schedule_property():
    with criterion(4, "supervisor calls = floor(T/T_v) over the full (T, T_v) grid"):
        for max_turns in range(1, 65):
            executor_script = ["Go on.\nTool call: search[next]"] * max_turns
            for interval in range(1, 17):
                expected = max_turns // interval
                supervisor_script = ["CONTINUE"] * max(expected, 1)
                record, _, supervisor = scripted_run(
                    "eva",
                    list(executor_script),
                    supervisor_script,
                    max_turns=max_turns,
                    verify_interval=interval,
                )
                assert record.termination == "turn_budget_exhausted"
                assert len(record.supervisor_calls) == expected
                assert [c.at_turn for c in record.supervisor_calls] == [
                    t for t in range(1, max_turns + 1) if t % interval == 0
                ]
                if expected:
                    assert unconsumed(supervisor) == []


def test_acceptance_05_reset_semantics():
    with criterion(5, "interventions reset and re-seed the executor (PEVR and EVA)"):
        env = ScriptedEnvironment(default="obs")
        turns = [f"Thinking {i}.\nTool call: search[q{i}]" for i in range(1, 7)]

        record, executor, _ = scripted_run(
            "pevr",
            list(turns),
            [
                "<PLAN>find it and finish</PLAN>",
                "CONTINUE",
                "INTERVENE\n<REPLAN>search the remaining topics</REPLAN>",
                "CONTINUE",
            ],
            env=env,
        )
        assert record.resets == [4]
        memory = "\n\n".join(f"Tool call: search[q{i}]\nOutput: obs" for i in range(1, 5))
        seed = "".join(render(
            "replan_resume",
            {
                "user_query": TASK.query,
                "plan": "search the remaining topics",
                "memory": memory,
                "available_tools": env.tool_prompt,
            },
        ))
        turn5_request = executor.requests[4]
        assert turn5_request == seed
        assert "<REPLAN>\nsearch the remaining topics\n</REPLAN>" in turn5_request
        memory_block = turn5_request.split("<MEMORY>")[1].split("</MEMORY>")[0]
        assert memory_block.count("Tool call:") == 4
        assert record.turns[4].usage.prompt_tokens == whitespace_token_count(seed)

        record, executor, _ = scripted_run(
            "eva",
            list(turns),
            [
                "CONTINUE",
                "INTERVENE\n<SUMMARY>looked up q1..q4</SUMMARY>\n<ADVICE>go finish</ADVICE>",
                "CONTINUE",
            ],
            env=env,
        )
        assert record.resets == [4]
        seed = "".join(render(
            "advice_resume",
            {
                "user_query": TASK.query,
                "summary": "looked up q1..q4",
                "advice": "go finish",
                "available_tools": env.tool_prompt,
            },
        ))
        assert executor.requests[4] == seed
        assert "<SUMMARY>\nlooked up q1..q4\n</SUMMARY>" in executor.requests[4]
        assert "<ADVICE>\ngo finish\n</ADVICE>" in executor.requests[4]
        assert record.turns[4].usage.prompt_tokens == whitespace_token_count(seed)


def test_acceptance_06_eva_degeneracy():
    with criterion(6, "EVA with an always-CONTINUE supervisor acts exactly like monolithic"):
        script = [f"Step {i}.\nTool call: search[q{i}]" for i in range(1, 5)] + [
            "Tool call: finish[yes]"
        ]
        mono, _, _ = scripted_run("monolithic", list(script), max_turns=8)
        eva, _, _ = scripted_run(
            "eva", list(script), ["CONTINUE", "CONTINUE"], max_turns=8, verify_interval=2
        )
        assert [(t.action.tool, t.action.argument) for t in mono.turns] == [
            (t.action.tool, t.action.argument) for t in eva.turns
        ]
        assert mono.final_answer == eva.final_answer == "yes"
        assert mono.termination == eva.termination == "finished"


PAYLOAD_ALPHABET = (
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    " .,:;!?()[]{}#-_'\"\n\t/=+*&%$@^~`|\\–é"
)
ARGUMENT_ALPHABET = PAYLOAD_ALPHABET.replace("[", "").replace("]", "")


def _random_text(rng, alphabet, min_len=1, max_len=60):
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(min_len, max_len)))


def test_acceptance_07_parser_grammar_suite():
    with criterion(7, "parser round-trip and cross-rejection over >=10^4 cases each"):
        rng = random.Random(7)
        cases = 10_000

        # A handoff block that is blank once stripped is a malformed verdict.
        for _ in range(cases):
            body = _random_text(rng, PAYLOAD_ALPHABET)
            text = f"INTERVENE\n<REPLAN>{body}</REPLAN>"
            if body.strip():
                assert parse_pevr_verdict(text)[1] == {"plan": body}
            else:
                with pytest.raises(MalformedVerdictError):
                    parse_pevr_verdict(text)

        for _ in range(cases):
            summary = _random_text(rng, PAYLOAD_ALPHABET)
            advice = _random_text(rng, PAYLOAD_ALPHABET)
            text = f"INTERVENE\n<SUMMARY>{summary}</SUMMARY>\n<ADVICE>{advice}</ADVICE>"
            if summary.strip() and advice.strip():
                assert parse_eva_verdict(text)[1] == {"summary": summary, "advice": advice}
            else:
                with pytest.raises(MalformedVerdictError):
                    parse_eva_verdict(text)
            with pytest.raises(MalformedVerdictError):
                parse_pevr_verdict(
                    f"INTERVENE\n<SUMMARY>{summary}</SUMMARY>\n<ADVICE>{advice}</ADVICE>"
                )
            with pytest.raises(MalformedVerdictError):
                parse_eva_verdict(f"INTERVENE\n<REPLAN>{summary}</REPLAN>")

        for _ in range(cases):
            body = _random_text(rng, PAYLOAD_ALPHABET)
            expected = body.strip()
            if expected:
                assert parse_plan(f"<PLAN>{body}</PLAN>") == expected

        tools = ("search", "lookup", "finish")
        for _ in range(cases):
            name = rng.choice(tools)
            argument = _random_text(rng, ARGUMENT_ALPHABET, 0, 40)
            reasoning = _random_text(rng, ARGUMENT_ALPHABET, 0, 60)
            call, parsed_reasoning = parse_tool_call(
                f"{reasoning}\nTool call: {name}[{argument}]", tools
            )
            assert call == ToolCall(name, argument)
        assert parse_tool_call("lookup[prize [Nobel]]", tools)[0] == ToolCall(
            "lookup", "prize [Nobel]"
        )


def test_acceptance_08_wikienv_oracle():
    with criterion(8, "wiki search/lookup semantics and read-only corpus"):
        corpus = make_corpus()
        env = WikiEnvironment(corpus)
        obs = env.step(ToolCall("search", "Richard Feynman"))
        assert obs == " ".join(FEYNMAN_SENTENCES[:5])

        matches = [s for s in FEYNMAN_SENTENCES if "nobel prize" in s.lower()]
        for i, sentence in enumerate(matches, start=1):
            obs = env.step(ToolCall("lookup", "Nobel Prize"))
            assert obs == f"(Result {i} / {len(matches)}) {sentence}"
        assert env.step(ToolCall("lookup", "Nobel Prize")) == NO_MORE_RESULTS

        snapshot = corpus_snapshot(corpus)
        rng = random.Random(8)
        titles = corpus.titles()
        for _ in range(100):
            episode_env = WikiEnvironment(corpus)
            for _ in range(rng.randint(1, 12)):
                tool = rng.choice(["search", "lookup", "unknown"])
                argument = rng.choice(titles + ["Nobel Prize", "physics", "algorithm", "zzz"])
                episode_env.step(ToolCall(tool, argument))
        assert corpus_snapshot(corpus) == snapshot


def _numpy_frontier(cost, energy, perf):
    """Whether each point is undominated, by brute force over all pairs."""
    no_worse = ((cost[None, :] <= cost[:, None]) & (energy[None, :] <= energy[:, None])
                & (perf[None, :] >= perf[:, None]))
    better = ((cost[None, :] < cost[:, None]) | (energy[None, :] < energy[:, None])
              | (perf[None, :] > perf[:, None]))
    return (~(no_worse & better).any(axis=1)).tolist()


def test_acceptance_09_pareto_equivalence():
    with criterion(9, "frontier equals brute-force dominance filtering on 1000 random sets"):
        rng = np.random.default_rng(9)
        for i in range(1000):
            n = int(rng.integers(500, 1001)) if i % 50 == 0 else int(rng.integers(0, 301))
            cents = rng.integers(0, 25, n)
            energies = rng.integers(0, 25, n) / 4
            perfs = rng.integers(0, 21, n) / 20
            # Dollars as exact Decimals; the oracle compares the whole cents,
            # which order the same.
            points = [(Decimal(int(c)).scaleb(-2), float(e), float(p))
                      for c, e, p in zip(cents, energies, perfs)]
            assert pareto_frontier(points) == _numpy_frontier(cents, energies, perfs)


def test_acceptance_10_metric_checks():
    with criterion(10, "ROUGE-1 reference value, EM=>F1 implication, strict 0.5 threshold"):
        assert analysis.rouge1_f1("the cat sat", ["cat sat down"]) == 0.8

        rng = random.Random(10)
        vocab = ["paris", "tower", "cat", "dog", "yes", "no", "42", "blue"]
        for _ in range(1000):
            tokens = rng.choices(vocab, k=rng.randint(1, 5))
            pred = " ".join(tokens)
            gold = "The " + " ".join(t.upper() for t in tokens) + "."
            assert analysis.exact_match(pred, [gold]) == 1
            assert analysis.rouge1_f1(pred, [gold]) == 1.0

        from hybridmas.core import TrajectoryRecord

        record = TrajectoryRecord("t", "eva", "d")
        record.termination = "finished"
        record.final_answer = "alpha beta"
        golds = ["alpha gamma"]
        assert analysis.rouge1_f1(record.final_answer, golds) == 0.5
        assert analysis.task_success("fanoutqa", analysis.trajectory_score("fanoutqa", record, golds)) is False
        record.final_answer = "alpha beta gamma"
        golds = ["alpha beta delta"]
        assert analysis.task_success(
            "fanoutqa", analysis.trajectory_score("fanoutqa", record, golds)) is True


def _audit_run(intervene: bool, correct: bool):
    supervisor_script = [
        "INTERVENE\n<SUMMARY>s</SUMMARY>\n<ADVICE>a</ADVICE>" if intervene else "CONTINUE"
    ]
    answer = "yes" if correct else "wrong"
    record, _, _ = scripted_run(
        "eva_audit",
        ["Working.\nTool call: search[q]", f"Tool call: finish[{answer}]"],
        supervisor_script,
        max_turns=4,
        verify_interval=1,
    )
    assert record.resets == []  # audit never restarts
    score = analysis.trajectory_score("generic", record, list(TASK.gold_answers))
    success = analysis.task_success("generic", score)
    return record, success


def test_acceptance_11_audit_classification():
    with criterion(11, "audit-mode runs classify into FP/FN/TP/TN and partition the batch"):
        audited = [
            _audit_run(intervene=False, correct=False),  # all CONTINUE + failure -> FN
            _audit_run(intervene=True, correct=True),  # INTERVENE + success -> FP
            _audit_run(intervene=True, correct=False),  # INTERVENE + failure -> TP
            _audit_run(intervene=False, correct=True),  # all CONTINUE + success -> TN
        ]
        report = verifier_confusion(audited)
        assert (report.fn, report.fp, report.tp, report.tn) == (1, 1, 1, 1)
        assert report.total == len(audited)
        assert report.fn_rate == report.fp_rate == 0.25


def test_acceptance_12_context_bounding():
    with criterion(12, "interventions strictly bound max context; none leaves it unchanged"):
        stream = [f"Step {i} reasoning.\nTool call: search[topic {i}]" for i in range(1, 81)]
        plan = "<PLAN>explore all eighty topics in order</PLAN>"
        intervene = "INTERVENE\n<REPLAN>continue with the remaining topics</REPLAN>"

        mono, _, _ = scripted_run("monolithic", list(stream), max_turns=80)
        pevr_reset, _, _ = scripted_run(
            "pevr",
            list(stream),
            [plan] + [intervene] * 5,
            max_turns=80,
            verify_interval=16,
        )
        assert pevr_reset.resets == [16, 32, 48, 64, 80]
        assert pevr_reset.max_context_tokens < mono.max_context_tokens

        # Same architecture, supervision disabled: resets are the only thing
        # that can shrink the maximum.
        pevr_continue, _, _ = scripted_run(
            "pevr",
            list(stream),
            [plan] + ["CONTINUE"] * 5,
            max_turns=80,
            verify_interval=16,
        )
        assert pevr_reset.max_context_tokens < pevr_continue.max_context_tokens

        # With no interventions the supervised run's context maximum equals
        # the monolithic one (EVA shares the monolithic seed exactly).
        eva_continue, _, _ = scripted_run(
            "eva",
            list(stream),
            ["CONTINUE"] * 5,
            max_turns=80,
            verify_interval=16,
        )
        assert eva_continue.resets == []
        assert eva_continue.max_context_tokens == mono.max_context_tokens


def test_acceptance_13_determinism(tmp_path):
    with criterion(13, "cmd_run with a fixed config and scripted backends is byte-identical"):
        tasks = [
            {"id": "A", "question": "Q1 alpha?", "answers": ["a1"]},
            {"id": "B", "question": "Q2 beta?", "answers": ["a2"]},
            {"id": "C", "question": "Q3 gamma?", "answers": ["a3"]},
        ]
        (tmp_path / "tasks.jsonl").write_text(
            "\n".join(json.dumps(t) for t in tasks) + "\n", encoding="utf-8"
        )
        config = {
            "run": {
                "architecture": "eva",
                "max_turns": 4,
                "verify_interval": 1,
                "executor": {"model": "edge", "backend": "executor"},
                "supervisor": {"model": "cloud", "backend": "supervisor"},
                "seed": 7,
            },
            "models": {
                "edge": {
                    "placement": "edge",
                    "param_count": 4.0e9,
                    "layers": 36,
                    "kv_heads": 8,
                    "head_dim": 128,
                    "bytes_per_activation": 2,
                    "efficiency": 1.5e12,
                    "context_cap": 32768,
                },
                "cloud": {
                    "placement": "cloud",
                    "pricing": {"prefill": 2.5, "cached": 1.25, "generated": 10},
                    "context_cap": 128000,
                },
            },
            "backends": {
                "executor": {
                    "type": "script",
                    "script": [
                        {"match": q, "response": r}
                        for q, r in [
                            ("Q1", "Looking.\nTool call: search[x]"),
                            ("Q1", "Tool call: finish[a1]"),
                            ("Q2", "Looking.\nTool call: search[y]"),
                            ("Q2", "Tool call: finish[a2]"),
                            ("Q3", "Looking.\nTool call: search[z]"),
                            ("Q3", "Tool call: finish[wrong]"),
                        ]
                    ],
                },
                "supervisor": {"type": "script", "script": [{"response": "CONTINUE"}] * 3},
            },
            "dataset": "tasks.jsonl",
            "environment": {"type": "scripted", "default": "an observation"},
            "parallelism": 4,
        }
        config_path = tmp_path / "config.yaml"
        config_path.write_text(yaml.safe_dump(config), encoding="utf-8")
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "r1")]) == 0
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "r2")]) == 0
        first = (tmp_path / "r1" / "eva-tv1" / "trajectories.jsonl").read_bytes()
        second = (tmp_path / "r2" / "eva-tv1" / "trajectories.jsonl").read_bytes()
        assert first == second
        assert len(first.splitlines()) == 3


LIVE_URL_VAR = "HYBRIDMAS_SMOKE_BASE_URL"


@pytest.mark.skipif(
    not os.environ.get(LIVE_URL_VAR),
    reason=f"live smoke test runs only when {LIVE_URL_VAR} (and credentials) are set",
)
def test_acceptance_14_live_smoke():
    with criterion(14, "live chat endpoint completes monolithic, PEVR, and EVA trajectories"):
        backend = HttpChatBackend(
            os.environ[LIVE_URL_VAR],
            os.environ.get("HYBRIDMAS_SMOKE_MODEL", "gpt-4o-mini"),
            credential_env=os.environ.get("HYBRIDMAS_SMOKE_CREDENTIAL_ENV", "OPENAI_API_KEY"),
        )
        corpus = make_corpus()
        for architecture in ("monolithic", "pevr", "eva"):
            config = RunConfig(
                architecture=architecture,
                executor_profile=CLOUD_PROFILE,
                supervisor_profile=None if architecture == "monolithic" else CLOUD_PROFILE,
                max_turns=6,
                verify_interval=2,
            )
            record = run_trajectory(
                TASK,
                config,
                backend,
                None if architecture == "monolithic" else backend,
                WikiEnvironment(corpus),
            )
            assert record.termination in ("finished", "turn_budget_exhausted")
            assert record.totals.cost_usd > 0 or record.totals.energy_joules > 0
