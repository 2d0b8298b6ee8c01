"""State-machine behavior: scheduling, interventions, resets, audits, and
termination semantics, all under scripted backends and environments."""

import logging
from dataclasses import replace
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from hybridmas import orchestrator
from hybridmas.analysis import verifier_confusion
from hybridmas.backends import (
    BackendError,
    ChatResponse,
    ContextOverflowError,
    HttpChatBackend,
    RejectedError,
    ScriptedBackend,
    whitespace_token_count,
)
from hybridmas.core import (
    ARCHITECTURES,
    AUDIT_ARCHITECTURES,
    CONTINUE,
    INTERVENE,
    InitialPlanRecord,
    TaskInstance,
    TokenUsage,
    TurnRecord,
    VerifierDecision,
    record_to_json_line,
)
from hybridmas.core import ToolCall
from hybridmas.environments import ScriptedEnvironment
from hybridmas.orchestrator import (
    DEFAULT_MAX_TURNS,
    INVALID_TOOL_CALL_OBSERVATION,
    effective_max_turns,
    render_turn_log,
    run_trajectory,
)
from hybridmas.prompting import (
    MalformedVerdictError,
    format_memory,
    parse_eva_verdict,
    parse_pevr_verdict,
    render,
)
from conftest import EDGE_PROFILE, make_run_config, unconsumed
from loopback import _PlannedHandler, _WindowHandler, _ok_body, _serve
from replay import replay

TASK = TaskInstance("task-1", "Did Richard Feynman win a Nobel Prize?", ("yes",), "hotpotqa")

PLAN_RESPONSE = "<PLAN>1. Search the topic.\n2. Finish with the answer.</PLAN>"
PLAN_TEXT = "1. Search the topic.\n2. Finish with the answer."


def search_turns(n):
    return [f"Thinking {i}.\nTool call: search[q{i}]" for i in range(1, n + 1)]


def run_scripted(architecture, executor_script, supervisor_script=None, env=None, **overrides):
    config = make_run_config(architecture, **overrides)
    executor = ScriptedBackend(executor_script)
    supervisor = ScriptedBackend(supervisor_script) if supervisor_script else None
    env = env or ScriptedEnvironment(default="obs")
    record = run_trajectory(TASK, config, executor, supervisor, env)
    return record, executor, supervisor


class _FailingBackend:
    def __init__(self, exc: BackendError):
        self.exc = exc

    def complete(self, request):
        raise self.exc


class TestMonolithic:
    def test_immediate_finish(self):
        record, _, _ = run_scripted("monolithic", ["Tool call: finish[42]"])
        assert record.termination == "finished"
        assert record.final_answer == "42"
        assert len(record.turns) == 1

    def test_turn_budget(self):
        record, _, _ = run_scripted("monolithic", search_turns(5), max_turns=5)
        assert record.termination == "turn_budget_exhausted"
        assert len(record.turns) == 5
        assert [t.t for t in record.turns] == [1, 2, 3, 4, 5]

    def test_out_of_context_at_turn_3(self):
        # Derive per-turn context lengths with an unbounded run, then pin the
        # cap strictly between turn 2's and turn 3's lengths.
        heavy = [("word " * 40) + f"\nTool call: search[q{i}]" for i in range(1, 6)]
        probe, _, _ = run_scripted("monolithic", list(heavy), max_turns=5)
        lens = [t.usage.total_tokens for t in probe.turns]
        assert lens[1] < lens[2]
        profile = replace(EDGE_PROFILE, context_cap=lens[2] - 1)
        record, _, _ = run_scripted(
            "monolithic", list(heavy), max_turns=5, executor_profile=profile
        )
        assert record.termination == "out_of_context"
        assert len(record.turns) == 3
        assert record.turns[-1].t == 3
        # The fatal call still bills: its usage dominates the context maximum.
        assert record.max_context_tokens == lens[2]

    def test_no_tool_call_consumes_turn(self):
        record, executor, _ = run_scripted(
            "monolithic", ["I cannot decide what to do.", "Tool call: finish[ok]"]
        )
        assert len(record.turns) == 2
        first = record.turns[0]
        assert first.action is None
        assert first.observation == INVALID_TOOL_CALL_OBSERVATION
        assert first.reasoning == "I cannot decide what to do."
        # The injected observation is visible to the model on the next turn.
        assert INVALID_TOOL_CALL_OBSERVATION in executor.requests[1]
        assert record.termination == "finished"

    def test_rejected_becomes_backend_error(self):
        config = make_run_config("monolithic")
        record = run_trajectory(
            TASK, config, _FailingBackend(RejectedError(401, "no")), None, ScriptedEnvironment()
        )
        assert record.termination == "backend_error"
        assert record.turns == []

    def test_seed_is_direct_execution_prompt(self):
        _, executor, _ = run_scripted("monolithic", ["Tool call: finish[x]"])
        env = ScriptedEnvironment()
        expected = "".join(render(
            "direct_exec",
            {"user_query": TASK.query, "available_tools": env.tool_prompt},
        ))
        assert executor.requests[0] == expected


class TestScoring:
    """run_trajectory returns the task's log line: scored against the gold
    answers where the task has them, and unscored otherwise."""

    @pytest.mark.parametrize("replies, scored", [
        (["Tool call: finish[yes]"], (1.0, True)),
        (["Tool call: finish[no]"], (0.0, False)),
        (search_turns(2), (0.0, False)),
    ], ids=["right", "wrong", "unfinished"])
    def test_a_task_with_gold_answers_is_scored(self, replies, scored):
        record, _, _ = run_scripted("monolithic", replies, max_turns=2)
        assert (record.score, record.success) == scored

    def test_a_task_without_gold_answers_is_left_unscored(self):
        record = run_trajectory(replace(TASK, gold_answers=()), make_run_config("monolithic"),
                                ScriptedBackend(["Tool call: finish[yes]"]), None,
                                ScriptedEnvironment(default="obs"))
        assert record.termination == "finished"
        assert (record.score, record.success) == (None, None)


class TestPevr:
    def test_verification_schedule(self):
        record, _, supervisor = run_scripted(
            "pevr",
            search_turns(6),
            [PLAN_RESPONSE, "CONTINUE", "CONTINUE", "CONTINUE"],
            max_turns=6,
            verify_interval=2,
        )
        assert [c.at_turn for c in record.supervisor_calls] == [2, 4, 6]
        assert all(c.decision.verdict == "continue" for c in record.supervisor_calls)
        assert record.resets == []
        assert record.initial_plan.text == PLAN_TEXT
        # Never-replaced plan: every verification request carries the
        # original plan text.
        for request in supervisor.requests[1:]:
            assert PLAN_TEXT in request
        assert unconsumed(supervisor) == []

    def test_finish_before_first_boundary(self):
        record, _, _ = run_scripted(
            "pevr",
            ["Tool call: finish[yes]"],
            [PLAN_RESPONSE],
            max_turns=6,
            verify_interval=5,
        )
        assert record.supervisor_calls == []
        assert record.termination == "finished"

    def test_finish_on_boundary_short_circuits_verification(self):
        record, _, supervisor = run_scripted(
            "pevr",
            ["Thinking.\nTool call: search[q]", "Tool call: finish[yes]"],
            [PLAN_RESPONSE, "CONTINUE"],
            max_turns=6,
            verify_interval=2,
        )
        assert record.termination == "finished"
        assert record.supervisor_calls == []
        assert unconsumed(supervisor) == ["CONTINUE"]

    def test_intervention_resets_and_reseeds(self):
        env = ScriptedEnvironment(default="obs")
        record, executor, supervisor = run_scripted(
            "pevr",
            search_turns(6),
            [PLAN_RESPONSE, "CONTINUE", "INTERVENE\n<REPLAN>New plan R</REPLAN>", "CONTINUE"],
            env=env,
            max_turns=6,
            verify_interval=2,
        )
        assert record.resets == [4]
        call = record.supervisor_calls[1]
        assert call.at_turn == 4
        assert call.decision == VerifierDecision(
            INTERVENE, "INTERVENE\n<REPLAN>New plan R</REPLAN>"
        )

        expected_memory = "\n\n".join(
            f"Tool call: search[q{i}]\nOutput: obs" for i in range(1, 5)
        )
        expected_seed = "".join(render(
            "replan_resume",
            {
                "user_query": TASK.query,
                "plan": "New plan R",
                "memory": expected_memory,
                "available_tools": env.tool_prompt,
            },
        ))
        # Turn 5's executor request is exactly the resume seed.
        assert executor.requests[4] == expected_seed
        assert "<REPLAN>\nNew plan R\n</REPLAN>" in executor.requests[4]
        assert executor.requests[4].count("Tool call: search[") == 4
        # Context token length equals the resume-seed length at the reset:
        # the old turns are gone from the context. (With only 4 tiny turns
        # the seed itself can outweigh the discarded context; the long-run
        # bounding effect is exercised by the 80-turn acceptance check.)
        assert record.turns[4].usage.prompt_tokens == whitespace_token_count(expected_seed)
        assert record.turns[4].usage.prompt_tokens < whitespace_token_count(
            expected_seed
        ) + sum(t.usage.generated_tokens for t in record.turns[:4])
        # The replan is the active plan for the next verification.
        assert "New plan R" in supervisor.requests[3]
        assert PLAN_TEXT not in supervisor.requests[3]
        # Outside audit, every intervene is applied: counts match.
        intervenes = sum(c.decision.verdict == INTERVENE for c in record.supervisor_calls)
        assert len(record.resets) == intervenes

    def test_plan_retry_then_success(self):
        record, _, _ = run_scripted(
            "pevr",
            ["Tool call: finish[yes]"],
            ["no tags in sight", PLAN_RESPONSE],
            max_turns=3,
            verify_interval=3,
        )
        assert record.initial_plan.text == PLAN_TEXT
        # Usage sums both planning attempts.
        assert record.initial_plan.usage.generated_tokens == whitespace_token_count(
            "no tags in sight"
        ) + whitespace_token_count(PLAN_RESPONSE)
        assert record.termination == "finished"

    def test_plan_malformed_twice_is_backend_error(self):
        record, _, _ = run_scripted(
            "pevr",
            ["Tool call: finish[yes]"],
            ["nope", "still nope"],
            max_turns=3,
        )
        assert record.termination == "backend_error"
        assert record.turns == []
        assert record.initial_plan.text == ""
        assert record.initial_plan.usage.generated_tokens == 3

    def test_malformed_verdict_retried_then_continue(self):
        record, _, _ = run_scripted(
            "pevr",
            search_turns(2),
            [PLAN_RESPONSE, "look at me", "CONTINUE"],
            max_turns=2,
            verify_interval=2,
        )
        call = record.supervisor_calls[0]
        assert call.decision.verdict == "continue"
        assert call.usage.generated_tokens == 4  # both attempts billed

    def test_malformed_verdict_twice_treated_as_continue(self):
        record, _, _ = run_scripted(
            "pevr",
            search_turns(2),
            [PLAN_RESPONSE, "garbage one", "garbage two"],
            max_turns=2,
            verify_interval=2,
        )
        call = record.supervisor_calls[0]
        assert call.decision.verdict == "continue"
        assert call.decision.raw_text == "garbage two"
        assert record.resets == []
        assert record.termination == "turn_budget_exhausted"

    def test_supervisor_exhaustion_mid_run(self):
        record, _, _ = run_scripted(
            "pevr",
            search_turns(4),
            [PLAN_RESPONSE],
            max_turns=4,
            verify_interval=2,
        )
        assert record.termination == "backend_error"
        assert len(record.turns) == 2


def _scripted_usage(request, response):
    """The usage ScriptedBackend bills for one answer to one request."""
    return TokenUsage(whitespace_token_count(request), 0, whitespace_token_count(response))


class TestModelCallFailures:
    """What a failed plan, execute or verify call leaves in the record."""

    def test_plan_retry_failure_bills_the_first_attempt(self):
        record, _, supervisor = run_scripted("pevr", ["Tool call: finish[yes]"], ["nope"])
        assert record.termination == "backend_error"
        assert record.turns == []
        assert len(supervisor.requests) == 2  # the retry was sent, and failed
        assert record.initial_plan == InitialPlanRecord(
            "", _scripted_usage(supervisor.requests[0], "nope")
        )

    def test_rejected_first_plan_call_leaves_no_plan(self):
        record = run_trajectory(
            TASK,
            make_run_config("pevr"),
            ScriptedBackend(["Tool call: finish[yes]"]),
            _FailingBackend(RejectedError(400, "prompt too long")),
            ScriptedEnvironment(),
        )
        assert record.termination == "backend_error"
        assert record.initial_plan is None
        assert record.turns == []

    @pytest.mark.parametrize("architecture", ["pevr", "eva"])
    def test_verdict_retry_failure_records_one_unapplied_continue(self, architecture):
        plan = [PLAN_RESPONSE] if architecture == "pevr" else []
        record, _, supervisor = run_scripted(
            architecture, search_turns(4), plan + ["garbage verdict"], max_turns=4
        )
        assert record.termination == "backend_error"
        assert len(record.turns) == 2
        assert supervisor.requests[-1] == supervisor.requests[-2]  # the retry
        [call] = record.supervisor_calls
        assert call.at_turn == 2
        assert call.decision == VerifierDecision(CONTINUE, "garbage verdict")
        assert call.usage == _scripted_usage(supervisor.requests[-2], "garbage verdict")
        assert record.resets == []

    @pytest.mark.parametrize(
        "architecture, executor, supervisor, role, detail",
        [
            ("monolithic", RejectedError(401, "bad key"), None, "execute", "bad key"),
            ("pevr", ["x"], RejectedError(400, "prompt too long"), "plan", "prompt too long"),
            ("pevr", ["x"], ["nope"], "plan", "script exhausted"),
            ("pevr", search_turns(2), [PLAN_RESPONSE], "verify", "script exhausted"),
            ("pevr", search_turns(2), [PLAN_RESPONSE, "garbage"], "verify", "script exhausted"),
            ("eva", search_turns(2), ["garbage"], "verify", "script exhausted"),
        ],
        ids=["execute", "plan", "plan-retry", "verify", "pevr-verify-retry", "eva-verify-retry"],
    )
    def test_a_backend_error_that_ends_the_task_is_logged_once(
        self, architecture, executor, supervisor, role, detail, caplog
    ):
        def backend(spec):
            if isinstance(spec, BackendError):
                return _FailingBackend(spec)
            return ScriptedBackend(spec) if spec else None

        config = make_run_config(architecture, max_turns=2, verify_interval=2)
        with caplog.at_level(logging.WARNING, logger="hybridmas.orchestrator"):
            record = run_trajectory(
                TASK, config, backend(executor), backend(supervisor), ScriptedEnvironment()
            )
        assert record.termination == "backend_error"
        [warning] = [r for r in caplog.records if r.name == "hybridmas.orchestrator"]
        assert warning.levelno == logging.WARNING
        message = warning.getMessage()
        assert TASK.id in message
        assert role in message
        assert detail in message


class _OverflowAfter:
    """Answers from a script, then rejects every call as a context
    overflow."""

    def __init__(self, script):
        self.backend = ScriptedBackend(script or ["unused"])
        self.left = len(script)

    def complete(self, request):
        if not self.left:
            raise ContextOverflowError(400, "maximum context length exceeded")
        self.left -= 1
        return self.backend.complete(request)


class TestContextOverflow:
    """A call the endpoint rejects as a context overflow ends the task as
    out_of_context, whatever its role, also when it is the retry of a
    malformed answer."""

    @pytest.mark.parametrize(
        "architecture, executor, supervisor, turns",
        [
            ("monolithic", [], None, 0),
            ("monolithic", search_turns(1), None, 1),
            ("pevr", ["x"], [], 0),
            ("eva", search_turns(2), [], 2),
        ],
        ids=["execute", "execute-turn-2", "plan", "verify"],
    )
    def test_overflow_ends_the_task_as_out_of_context(
        self, architecture, executor, supervisor, turns
    ):
        config = make_run_config(architecture, max_turns=2, verify_interval=2)
        executor = _OverflowAfter(executor) if supervisor is None else ScriptedBackend(executor)
        supervisor = None if supervisor is None else _OverflowAfter(supervisor)
        record = run_trajectory(TASK, config, executor, supervisor, ScriptedEnvironment())
        assert record.termination == "out_of_context"
        assert len(record.turns) == turns

    def test_plan_retry_overflow_bills_the_first_attempt(self):
        supervisor = _OverflowAfter(["no plan"])
        record = run_trajectory(
            TASK, make_run_config("pevr"), ScriptedBackend(["x"]), supervisor,
            ScriptedEnvironment(),
        )
        assert record.termination == "out_of_context"
        request = supervisor.backend.requests[0]
        assert record.initial_plan == InitialPlanRecord("", _scripted_usage(request, "no plan"))

    def test_verify_retry_overflow_records_the_first_verdict(self):
        supervisor = _OverflowAfter(["garbage verdict"])
        record = run_trajectory(
            TASK, make_run_config("eva", max_turns=4, verify_interval=2),
            ScriptedBackend(search_turns(4)), supervisor, ScriptedEnvironment(),
        )
        assert record.termination == "out_of_context"
        [call] = record.supervisor_calls
        assert call.decision == VerifierDecision(CONTINUE, "garbage verdict")
        assert record.resets == []


class _BilledBackend:
    """Answers every call with a search, billing the given (prompt,
    generated) tokens in turn."""

    def __init__(self, usages):
        self.usages = iter(usages)

    def complete(self, request):
        prompt, generated = next(self.usages)
        return ChatResponse("Tool call: search[q]", TokenUsage(prompt, 0, generated))


def _window_server(window, replies):
    server = _serve(_WindowHandler)
    server.window, server.replies = window, replies
    return server


def _resume_script(architecture):
    """A supervisor script whose intervention at turn 2 hands over 2000
    words, so the resume seed alone exceeds a 1000-token cap."""
    long = " ".join(["word"] * 2000)
    if architecture == "pevr":
        return [PLAN_RESPONSE, f"INTERVENE\n<REPLAN>{long}</REPLAN>"]
    return [f"INTERVENE\n<SUMMARY>{long}</SUMMARY>\n<ADVICE>a</ADVICE>"]


def _cloud_cost(usage):
    """CLOUD_PROFILE's bill for one call, at 2.5 and 10 dollars per 1e6
    prompt and generated tokens."""
    return (Decimal(usage.prompt_tokens) * Decimal("2.5") + Decimal(usage.generated_tokens) * 10
            ) / 1_000_000


class TestContextCap:
    """A seed is sent like any prompt. The executor's context cap is
    checked after each executor call, on that call's total; a server that
    refuses a prompt over its window answers with the overflow 400. Either
    ends the task as out_of_context, so an applied intervention always
    resets. A prompt shorter than the previous executor call's with no
    reset between was truncated by the server, and also ends the task."""

    @pytest.mark.parametrize("architecture", ["monolithic", "pevr"])
    def test_a_first_seed_over_the_window_is_refused_by_the_server(self, architecture):
        env = ScriptedEnvironment()
        plan = {"plan": PLAN_TEXT} if architecture == "pevr" else {}
        seed = render(
            "plan_exec" if plan else "direct_exec",
            {"user_query": TASK.query, **plan, "available_tools": env.tool_prompt},
        )
        tokens = whitespace_token_count("".join(seed))
        # At the cap the seed is taken, and the first turn's total is over it.
        for cap, turns in ((tokens - 1, 0), (tokens, 1)):
            server = _window_server(cap, ["Tool call: finish[yes]"])
            supervisor = ScriptedBackend([PLAN_RESPONSE]) if plan else None
            try:
                executor = HttpChatBackend(
                    f"http://127.0.0.1:{server.server_address[1]}", "test-model"
                )
                record = run_trajectory(
                    TASK,
                    make_run_config(
                        architecture, executor_profile=replace(EDGE_PROFILE, context_cap=cap)
                    ),
                    executor, supervisor, env,
                )
            finally:
                server.shutdown()
                server.server_close()
            assert record.termination == "out_of_context"
            assert len(record.turns) == turns
            # The refused call is sent once: an overflow is never retried.
            assert executor.attempts_logged == server.hits == 1
            if plan:
                assert record.initial_plan.text == PLAN_TEXT
                assert len(supervisor.requests) == 1
                assert record.totals.cost_usd == _cloud_cost(record.initial_plan.usage)

    @pytest.mark.parametrize("architecture", ["pevr", "eva"])
    def test_a_resume_seed_over_the_window_is_applied_then_refused(self, architecture):
        server = _window_server(1000, search_turns(4))
        supervisor = ScriptedBackend(_resume_script(architecture))
        try:
            executor = HttpChatBackend(
                f"http://127.0.0.1:{server.server_address[1]}", "test-model"
            )
            record = run_trajectory(
                TASK,
                make_run_config(
                    architecture, max_turns=4, verify_interval=2,
                    executor_profile=replace(EDGE_PROFILE, context_cap=1000),
                ),
                executor, supervisor, ScriptedEnvironment(),
            )
        finally:
            server.shutdown()
            server.server_close()
        assert record.termination == "out_of_context"
        assert len(record.turns) == 2
        assert executor.attempts_logged == server.hits == 3
        assert "word word" in server.bodies[2]["messages"][0]["content"]
        [call] = record.supervisor_calls
        assert (call.at_turn, call.decision.verdict) == (2, INTERVENE)
        assert record.resets == [2]
        assert call.usage == _scripted_usage(supervisor.requests[-1], _resume_script(
            architecture)[-1])
        plan = record.initial_plan.usage if architecture == "pevr" else TokenUsage(0, 0, 0)
        assert record.totals.cost_usd == _cloud_cost(plan) + _cloud_cost(call.usage)

    @pytest.mark.parametrize("architecture", ["pevr", "eva"])
    def test_a_resume_seed_over_the_cap_is_sent(self, architecture):
        record, executor, _ = run_scripted(
            architecture, search_turns(4), _resume_script(architecture), max_turns=4,
            verify_interval=2, executor_profile=replace(EDGE_PROFILE, context_cap=1000),
        )
        assert record.termination == "out_of_context"
        assert record.resets == [2]
        assert [call.at_turn for call in record.supervisor_calls] == [2]
        assert len(record.turns) == len(executor.requests) == 3
        assert max(t.usage.total_tokens for t in record.turns[:2]) <= 1000
        assert record.turns[2].usage.total_tokens > 1000
        assert "word word" in executor.requests[2]

    def test_each_calls_own_total_is_checked_against_the_cap(self):
        config = make_run_config(
            "monolithic", max_turns=4, executor_profile=replace(EDGE_PROFILE, context_cap=1000)
        )
        # Totals 900, 1000 (at the cap) and 1001: the third call ends it.
        executor = _BilledBackend([(900, 0), (950, 50), (960, 41), (970, 0)])
        record = run_trajectory(TASK, config, executor, None, ScriptedEnvironment())
        assert record.termination == "out_of_context"
        assert [t.usage.total_tokens for t in record.turns] == [900, 1000, 1001]

    def test_a_shorter_prompt_after_a_reset_is_not_truncation(self):
        config = make_run_config("eva", max_turns=4, verify_interval=2)
        executor = _BilledBackend([(300, 9), (400, 9), (100, 9), (200, 9)])
        supervisor = ScriptedBackend(
            ["INTERVENE\n<SUMMARY>s</SUMMARY>\n<ADVICE>a</ADVICE>", "CONTINUE"]
        )
        record = run_trajectory(TASK, config, executor, supervisor, ScriptedEnvironment())
        assert record.termination == "turn_budget_exhausted"
        assert record.resets == [2]
        assert len(record.turns) == 4

    def test_a_prompt_that_falls_within_one_context_ends_out_of_context(self, caplog):
        server = _serve(_PlannedHandler)
        server.plan = [
            (200, _ok_body("Tool call: search[q]", prompt)) for prompt in (500, 300, 600)
        ]
        try:
            executor = HttpChatBackend(
                f"http://127.0.0.1:{server.server_address[1]}", "test-model", max_retries=0
            )
            with caplog.at_level(logging.WARNING, logger="hybridmas.orchestrator"):
                record = run_trajectory(
                    TASK, make_run_config("monolithic", max_turns=3), executor, None,
                    ScriptedEnvironment(),
                )
        finally:
            server.shutdown()
            server.server_close()
        assert record.termination == "out_of_context"
        assert [t.usage.prompt_tokens for t in record.turns] == [500, 300]
        assert server.hits == 2
        [message] = [r.getMessage() for r in caplog.records if "truncated" in r.getMessage()]
        assert "turn 2" in message and "500" in message and "300" in message


class TestEva:
    def test_degenerates_to_monolithic_when_never_intervening(self):
        script = search_turns(3) + ["Tool call: finish[yes]"]
        mono, _, _ = run_scripted("monolithic", list(script), max_turns=6)
        eva, _, _ = run_scripted(
            "eva", list(script), ["CONTINUE", "CONTINUE"], max_turns=6, verify_interval=2
        )
        mono_actions = [(t.action.tool, t.action.argument) for t in mono.turns]
        eva_actions = [(t.action.tool, t.action.argument) for t in eva.turns]
        assert mono_actions == eva_actions
        assert mono.final_answer == eva.final_answer

    def test_seed_is_direct_execution_prompt(self):
        _, executor, _ = run_scripted(
            "eva", search_turns(2), ["CONTINUE"], max_turns=2, verify_interval=2
        )
        env = ScriptedEnvironment()
        assert executor.requests[0] == "".join(render(
            "direct_exec",
            {"user_query": TASK.query, "available_tools": env.tool_prompt},
        ))

    def test_intervention_resets_with_summary_and_advice(self):
        env = ScriptedEnvironment(default="obs")
        record, executor, _ = run_scripted(
            "eva",
            search_turns(4),
            ["INTERVENE\n<SUMMARY>did q1 and q2</SUMMARY>\n<ADVICE>try q3 next</ADVICE>", "CONTINUE"],
            env=env,
            max_turns=4,
            verify_interval=2,
        )
        assert record.resets == [2]
        expected_seed = "".join(render(
            "advice_resume",
            {
                "user_query": TASK.query,
                "summary": "did q1 and q2",
                "advice": "try q3 next",
                "available_tools": env.tool_prompt,
            },
        ))
        assert executor.requests[2] == expected_seed
        assert "<SUMMARY>\ndid q1 and q2\n</SUMMARY>" in executor.requests[2]
        assert "<ADVICE>\ntry q3 next\n</ADVICE>" in executor.requests[2]
        assert record.turns[2].usage.prompt_tokens == whitespace_token_count(expected_seed)

    def test_nosummary_substitutes_memory_for_summary(self):
        env = ScriptedEnvironment(default="obs")
        record, executor, _ = run_scripted(
            "eva_nosummary",
            search_turns(4),
            ["INTERVENE\n<SUMMARY>ignored</SUMMARY>\n<ADVICE>try q3</ADVICE>", "CONTINUE"],
            env=env,
            max_turns=4,
            verify_interval=2,
        )
        expected_memory = "\n\n".join(
            f"Tool call: search[q{i}]\nOutput: obs" for i in range(1, 3)
        )
        expected_seed = "".join(render(
            "advice_resume",
            {
                "user_query": TASK.query,
                "summary": expected_memory,
                "advice": "try q3",
                "available_tools": env.tool_prompt,
            },
        ))
        assert executor.requests[2] == expected_seed
        assert "ignored" not in executor.requests[2]
        # The stored reply is the supervisor's, summary and all.
        assert record.supervisor_calls[0].decision == VerifierDecision(
            INTERVENE, "INTERVENE\n<SUMMARY>ignored</SUMMARY>\n<ADVICE>try q3</ADVICE>"
        )

    def test_verifier_sees_turn_log_and_memory(self):
        _, _, supervisor = run_scripted(
            "eva", search_turns(2), ["CONTINUE"], max_turns=2, verify_interval=2
        )
        request = supervisor.requests[0]
        assert "Tool call: search[q1]" in request
        assert "Thinking 1." in request  # executor context includes reasoning
        assert TASK.query in request


class TestAudit:
    @pytest.mark.parametrize("architecture", ["pevr_audit", "eva_audit"])
    def test_interventions_recorded_but_never_applied(self, architecture):
        intervene = (
            "INTERVENE\n<REPLAN>redo it</REPLAN>"
            if architecture == "pevr_audit"
            else "INTERVENE\n<SUMMARY>s</SUMMARY>\n<ADVICE>a</ADVICE>"
        )
        supervisor_script = ([PLAN_RESPONSE] if architecture == "pevr_audit" else []) + [
            intervene
        ] * 3
        record, executor, _ = run_scripted(
            architecture,
            search_turns(6),
            supervisor_script,
            max_turns=6,
            verify_interval=2,
        )
        assert record.resets == []
        assert len(record.supervisor_calls) == 3
        assert all(c.decision.verdict == "intervene" for c in record.supervisor_calls)
        # Executor context keeps growing: no reset ever happened.
        prompts = [t.usage.prompt_tokens for t in record.turns]
        assert prompts == sorted(prompts)
        assert "redo it" not in executor.requests[-1]
        assert record.termination == "turn_budget_exhausted"

    def test_all_continue_failure_is_fn_candidate(self):
        record, _, _ = run_scripted(
            "eva_audit",
            search_turns(4),
            ["CONTINUE", "CONTINUE"],
            max_turns=4,
            verify_interval=2,
        )
        assert record.termination == "turn_budget_exhausted"
        assert sum(c.decision.verdict == INTERVENE for c in record.supervisor_calls) == 0


class TestSchedule:
    @pytest.mark.parametrize("max_turns", [1, 2, 3, 5, 8, 12])
    @pytest.mark.parametrize("interval", [1, 2, 3, 4])
    def test_supervisor_calls_follow_floor_rule(self, max_turns, interval):
        expected = max_turns // interval
        supervisor_script = ["CONTINUE"] * expected if expected else ["unused"]
        record, _, supervisor = run_scripted(
            "eva",
            search_turns(max_turns),
            supervisor_script,
            max_turns=max_turns,
            verify_interval=interval,
        )
        assert len(record.supervisor_calls) == expected
        assert [c.at_turn for c in record.supervisor_calls] == [
            t for t in range(1, max_turns + 1) if t % interval == 0
        ]
        if expected:
            assert unconsumed(supervisor) == []


class TestDeterminism:
    def test_identical_runs_identical_records(self):
        lines = []
        for _ in range(2):
            record, _, _ = run_scripted(
                "pevr",
                search_turns(4),
                [PLAN_RESPONSE, "CONTINUE", "INTERVENE\n<REPLAN>R</REPLAN>"],
                max_turns=4,
                verify_interval=2,
            )
            lines.append(record_to_json_line(record))
        assert lines[0] == lines[1]


def _text(template_id, **bindings):
    return "".join(render(template_id, bindings))


def _expected_requests(record, architecture, env, retried):
    """Every executor and supervisor request text, rebuilt from the record
    with str bindings: an executor request is its seed, then a blank line
    and the turn log since the last applied reset; the verification at each
    turn in retried sent its request twice (a malformed verdict's retry)."""
    pevr = ARCHITECTURES[architecture] == "pevr"
    turns, query, tools = record.turns, TASK.query, env.tool_prompt
    plans = {0: record.initial_plan.text} if pevr else {}
    if pevr:
        seeds = {0: _text("plan_exec", user_query=query, plan=plans[0], available_tools=tools)}
    else:
        seeds = {0: _text("direct_exec", user_query=query, available_tools=tools)}
    supervisor = [_text("plan", user_query=query, available_tools=tools)] if pevr else []
    for call in record.supervisor_calls:
        t = call.at_turn
        reset = max(r for r in seeds if r < t)
        log = "".join(render_turn_log([turn for turn in turns if reset < turn.t <= t]))
        memory = "".join(format_memory([turn for turn in turns if turn.t <= t]))
        if pevr:
            plan = plans[max(r for r in plans if r < t)]
            request = _text("verify_replan", plan=plan, executor_context=log, memory=memory)
        else:
            request = _text("verify_advice", user_query=query, executor_context=log, memory=memory)
        supervisor += [request] * (2 if t in retried else 1)
        if t not in record.resets:
            continue
        if pevr:
            plans[t] = parse_pevr_verdict(call.decision.raw_text)[1]["plan"]
            seeds[t] = _text("replan_resume", user_query=query, plan=plans[t], memory=memory,
                             available_tools=tools)
        else:
            handoff = parse_eva_verdict(call.decision.raw_text)[1]
            summary, advice = handoff["summary"], handoff["advice"]
            if architecture == "eva_nosummary":
                summary = memory
            seeds[t] = _text("advice_resume", user_query=query, summary=summary, advice=advice,
                             available_tools=tools)
    executor = []
    for t in range(1, len(turns) + 1):
        reset = max(r for r in seeds if r < t)
        context = [turn for turn in turns if reset < turn.t < t]
        log = "".join(render_turn_log(context))
        executor.append(seeds[reset] + ("\n\n" + log if context else ""))
    return executor, supervisor


class TestRequestText:
    """The text of every request, end to end: a separator lost or doubled
    where the orchestrator joins its parts would change no usage count
    that one token fewer elsewhere could not hide."""

    @pytest.mark.parametrize("architecture", list(ARCHITECTURES))
    def test_every_request_is_its_rebuilt_text(self, architecture):
        family = ARCHITECTURES[architecture]
        if family == "pevr":
            intervene = ["INTERVENE\n<REPLAN>R1</REPLAN>", "INTERVENE\n<REPLAN>R2</REPLAN>"]
            supervisor_script = [PLAN_RESPONSE]
        else:
            intervene = [
                f"INTERVENE\n<SUMMARY>did {n}</SUMMARY>\n<ADVICE>try {n}</ADVICE>"
                for n in ("q1", "q2")
            ]
            supervisor_script = []
        # t=2 malformed, then retried; t=4 and t=8 intervene (applied unless
        # audited); t=6 continue.
        supervisor_script += ["not a verdict", "CONTINUE", intervene[0], "CONTINUE", intervene[1]]
        if family == "monolithic":
            supervisor_script = None
        executor_script = search_turns(9)
        executor_script[2] = "I cannot decide."  # a turn without a memory block
        env = ScriptedEnvironment(
            {ToolCall("search", f"q{i}"): f"result {i}" for i in range(1, 10)}
        )
        record, executor, supervisor = run_scripted(
            architecture, executor_script, supervisor_script, env=env,
            max_turns=9, verify_interval=2,
        )
        applies = family != "monolithic" and architecture not in AUDIT_ARCHITECTURES
        assert record.resets == ([4, 8] if applies else [])
        if supervisor is not None:
            assert record.supervisor_calls[0].usage.generated_tokens == 4  # both attempts
        expected_executor, expected_supervisor = _expected_requests(
            record, architecture, env, retried={2}
        )
        assert list(executor.requests) == expected_executor
        assert list(supervisor.requests if supervisor else []) == expected_supervisor
        assert [t.usage.prompt_tokens for t in record.turns] == [
            len(text.split()) for text in expected_executor
        ]


class _FreshObservations(ScriptedEnvironment):
    """Answers each search with a new str object built at run time, and
    keeps every observation it returned."""

    def __init__(self):
        super().__init__()
        self.returned = []

    def step(self, call):
        observation = super().step(call)
        if call.tool == "search":
            observation = "".join(["fresh observation ", f"for {call.argument} ~zq~"])
        self.returned.append(observation)
        return observation


class TestTurnParts:
    """Each turn enters the turn log and the memory as a head part plus the
    observation the environment returned, as its own part."""

    TURNS = [
        TurnRecord(1, "I cannot decide.", None, INVALID_TOOL_CALL_OBSERVATION, TokenUsage()),
        TurnRecord(2, "", ToolCall("search", "x"), "obs x", TokenUsage()),
        TurnRecord(3, "Think.", ToolCall("lookup", "y"), "", TokenUsage()),
        TurnRecord(4, "Done.", ToolCall("finish", "z"), "Episode finished.", TokenUsage()),
    ]

    def test_render_turn_log_joins_to_the_turn_log_text(self):
        assert "".join(render_turn_log(self.TURNS)) == (
            f"I cannot decide.\nObservation: {INVALID_TOOL_CALL_OBSERVATION}\n\n"
            "Tool call: search[x]\nObservation: obs x\n\n"
            "Think.\nTool call: lookup[y]\nObservation: \n\n"
            "Done.\nTool call: finish[z]\nObservation: Episode finished."
        )
        assert render_turn_log([]) == ()

    def test_each_observation_is_one_part_of_the_context_and_the_memory(self):
        env = _FreshObservations()
        config = make_run_config("eva", max_turns=4, verify_interval=5)
        episode = orchestrator._Episode(
            TASK, config, ScriptedBackend(search_turns(4)), ScriptedBackend(["unused"]), env
        )
        record = episode.run()
        assert record.termination == "turn_budget_exhausted"
        assert len(env.returned) == 4
        for observation in env.returned:
            assert sum(part is observation for part in episode._log) == 1
            assert sum(part is observation for part in episode._memory) == 1

    @pytest.mark.parametrize("architecture", ["pevr", "eva", "eva_nosummary"])
    def test_no_other_counted_part_holds_an_observation(self, architecture):
        plan = [PLAN_RESPONSE] if architecture == "pevr" else []
        intervene = (
            "INTERVENE\n<REPLAN>R</REPLAN>" if architecture == "pevr"
            else "INTERVENE\n<SUMMARY>s</SUMMARY>\n<ADVICE>a</ADVICE>"
        )
        env = _FreshObservations()
        record, executor, supervisor = run_scripted(
            architecture, search_turns(6), plan + ["CONTINUE", intervene, "CONTINUE"], env=env,
            max_turns=6, verify_interval=2,
        )
        assert record.resets == [4]
        keys = [*executor._part_tokens, *supervisor._part_tokens]
        for observation in env.returned:
            assert any(key is observation for key in keys)
            assert not [key for key in keys if key is not observation and observation in key]


class _ContractEnvironment:
    """An environment with nothing but the contract: tools, tool_prompt and step."""

    tools = ("search",)
    tool_prompt = "search[entity] and finish[answer]."

    def step(self, call):
        return f"seen {call.argument}"


class TestEnvironmentContract:
    @pytest.mark.parametrize("architecture, supervisor_script", [
        ("monolithic", None),
        ("eva", ["INTERVENE\n<SUMMARY>s</SUMMARY>\n<ADVICE>a</ADVICE>"]),
    ], ids=["monolithic", "eva"])
    def test_tools_tool_prompt_and_step_are_enough(self, architecture, supervisor_script):
        record, executor, _ = run_scripted(
            architecture, search_turns(2) + ["Tool call: finish[yes]"], supervisor_script,
            env=_ContractEnvironment(), max_turns=4, verify_interval=2,
        )
        assert (record.termination, record.final_answer) == ("finished", "yes")
        assert [turn.observation for turn in record.turns] == [
            "seen q1", "seen q2", "Episode finished."
        ]
        assert record.resets == ([2] if supervisor_script else [])
        assert all(_ContractEnvironment.tool_prompt in request for request in executor.requests)


class _RecordingEnvironment(ScriptedEnvironment):
    """The scripted environment, keeping every call it is stepped with."""

    def __init__(self):
        super().__init__(default="obs")
        self.calls = []

    def step(self, call):
        self.calls.append(call)
        return super().step(call)


# Arguments spell no tool name, so a finish reply parses back to its own call.
_ARGUMENTS = st.text(alphabet="abxyz 0[]?.", max_size=12)
_REPLIES = st.one_of(
    _ARGUMENTS.map(lambda x: f"Look.\nTool call: search[{x}]"),
    _ARGUMENTS.map(lambda x: f"Read.\nTool call: lookup[{x}]"),
    _ARGUMENTS.map(lambda x: f"Done.\nTool call: finish[{x}]"),
    st.just("I cannot decide."),
)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["monolithic", "pevr", "eva"]),
    st.lists(_REPLIES, min_size=5, max_size=5),
    st.integers(1, 3),
)
def test_the_loop_owns_finish(architecture, replies, interval):
    """An episode ends finished at its first finish call, which no
    environment steps and no verification follows; with none it runs out
    of turns."""
    max_turns = len(replies)
    supervisor_script = None if architecture == "monolithic" else ["CONTINUE"] * max_turns
    if architecture == "pevr":
        supervisor_script = [PLAN_RESPONSE, *supervisor_script]
    env = _RecordingEnvironment()
    record, _, supervisor = run_scripted(
        architecture, replies, supervisor_script, env=env,
        max_turns=max_turns, verify_interval=interval,
    )
    finishes = [t for t, reply in enumerate(replies, 1) if "finish[" in reply]
    if finishes:
        last = finishes[0]
        answer = replies[last - 1].split("finish[", 1)[1][:-1]
        assert (record.termination, record.final_answer) == ("finished", answer)
        assert record.turns[-1].action == ToolCall("finish", answer)
        assert record.turns[-1].observation == "Episode finished."
    else:
        last = max_turns
        assert (record.termination, record.final_answer) == ("turn_budget_exhausted", None)
        assert record.turns[-1].observation != "Episode finished."
    assert len(record.turns) == last
    verified = [t for t in range(1, last + 1) if t % interval == 0 and t not in finishes]
    assert [call.at_turn for call in record.supervisor_calls] == (
        [] if supervisor is None else verified
    )
    if supervisor is not None:
        assert len(supervisor.requests) == len(verified) + (architecture == "pevr")
    assert all(call.tool != "finish" for call in env.calls)
    assert env.calls == [turn.action for turn in record.turns
                         if turn.action is not None and turn.action.tool != "finish"]


# One plan or verify call's replies: a good CONTINUE ("C") or INTERVENE ("I"),
# a malformed reply then a good one, two malformed replies, a malformed reply
# then a failed retry, or a failed first attempt, where "E" is a BackendError
# and "O" a ContextOverflowError. Neither family's parser nor the plan parser
# takes any of the malformed replies, and a plan call reads "C" and "I" as a
# good plan.
_GOOD = st.sampled_from(["C", "I"])
_MALFORMED = st.sampled_from(
    ["maybe", "continue", "INTERVENE", "INTERVENE\n<REPLAN> </REPLAN>\n<SUMMARY>s</SUMMARY>"]
)
_ERROR = st.sampled_from(["E", "O"])
_CALL_REPLIES = st.one_of(
    _GOOD.map(lambda good: [good]),
    st.tuples(_MALFORMED, _GOOD).map(list),
    st.tuples(_MALFORMED, _MALFORMED).map(list),
    st.tuples(_MALFORMED, _ERROR).map(list),
    _ERROR.map(lambda error: [error]),
)


class _ErringBackend:
    """Answers from a script whose "E" and "O" entries fail the call, as a
    BackendError and as a ContextOverflowError."""

    def __init__(self, script):
        self.script = list(script)
        self.backend = ScriptedBackend([entry for entry in script if entry not in ("E", "O")]
                                       or ["unused"])
        self.errors = {
            "E": _FailingBackend(RejectedError(401, "bad key")),
            "O": _FailingBackend(ContextOverflowError(400, "maximum context length exceeded")),
        }

    def complete(self, request):
        entry = self.script.pop(0)
        return self.errors.get(entry, self.backend).complete(request)


def _verify_reply(family, reply, t):
    """The supervisor's text for a drawn reply at turn t (0: the plan call);
    a good INTERVENE hands over a replan, or a summary and advice, that name
    t."""
    if t == 0 and reply in ("C", "I"):
        return PLAN_RESPONSE
    if reply == "C":
        return "CONTINUE"
    if reply != "I":
        return reply
    if family == "pevr":
        return f"INTERVENE\n<REPLAN>replan {t}</REPLAN>"
    return f"INTERVENE\n<SUMMARY>summary {t}</SUMMARY>\n<ADVICE>advice {t}</ADVICE>"


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["pevr", "eva", "eva_nosummary", "pevr_audit", "eva_audit"]),
    st.integers(1, 2),
    _CALL_REPLIES,
    st.lists(_CALL_REPLIES, min_size=4, max_size=4),
)
def test_a_stored_decision_is_the_parse_of_its_reply(architecture, interval, plan, drawn):
    """Each stored decision is the verdict its family parser reads from its
    reply (CONTINUE where the parser refuses it), a reset follows each
    well-formed INTERVENE outside audit, and the executor is re-seeded with
    the handoff parsed from that reply. A plan or verify call that got a
    reply is recorded once, with its last reply and the usage of every
    reply, also when its retry failed; the task ends at the first call that
    failed, and a call whose first attempt failed leaves no record. Every
    verify request and resume seed is its text rebuilt from the record: a
    pevr verify request carries the replan of the latest reset before its
    turn, else the initial plan. The record replays to itself."""
    family, audit = ARCHITECTURES[architecture], architecture in AUDIT_ARCHITECTURES
    max_turns = 4
    verified = list(range(interval, max_turns + 1, interval))
    calls = [(0, plan)] if family == "pevr" else []
    calls += zip(verified, drawn)
    for i, (t, draw) in enumerate(calls):
        if draw[-1] in ("E", "O") or (t == 0 and draw[-1] not in ("C", "I")):
            calls = calls[:i + 1]
            termination = "out_of_context" if draw[-1] == "O" else "backend_error"
            break
    else:
        termination = "turn_budget_exhausted"
    replies = [(t, [_verify_reply(family, reply, t) for reply in draw]) for t, draw in calls]
    supervisor = _ErringBackend(sum((texts for _, texts in replies), []))
    executor = ScriptedBackend(search_turns(max_turns))
    config = make_run_config(architecture, max_turns=max_turns, verify_interval=interval)
    env = ScriptedEnvironment(default="obs")
    record = run_trajectory(TASK, config, executor, supervisor, env)
    assert supervisor.script == []
    assert record.termination == termination
    assert record_to_json_line(replay(record, config, TASK, ScriptedEnvironment)) == (
        record_to_json_line(record))
    assert len(record.turns) == (calls[-1][0] if termination != "turn_budget_exhausted"
                                 else max_turns)

    answered = iter(supervisor.backend.requests)
    recorded = []  # (turn, last reply, usage of every reply) of each call that got one
    verify_requests = []  # (turn, request) of each verify request that got a reply
    for t, texts in replies:
        texts = [text for text in texts if text not in ("E", "O")]
        if texts:
            requests = [next(answered) for _ in texts]
            usages = [_scripted_usage(request, text) for request, text in zip(requests, texts)]
            recorded.append((t, texts[-1], sum(usages[1:], usages[0])))
            verify_requests += [(t, request) for request in requests if t]
    if family == "pevr":
        expected = None
        if recorded and recorded[0][0] == 0:
            _, text, usage = recorded.pop(0)
            expected = InitialPlanRecord(PLAN_TEXT if text == PLAN_RESPONSE else "", usage)
        assert record.initial_plan == expected
    assert [(call.at_turn, call.decision.raw_text, call.usage)
            for call in record.supervisor_calls] == recorded
    costs = [_cloud_cost(call.usage) for call in record.supervisor_calls]
    if record.initial_plan is not None:
        costs.append(_cloud_cost(record.initial_plan.usage))
    assert record.totals.cost_usd == sum(costs, Decimal(0))

    parse = parse_pevr_verdict if family == "pevr" else parse_eva_verdict
    for call in record.supervisor_calls:
        try:
            verdict = parse(call.decision.raw_text)[0].verdict
        except MalformedVerdictError:
            verdict = CONTINUE
        assert call.decision.verdict == verdict
    intervened = [t for t, draw in calls if t and draw[-1] == "I"]
    assert record.resets == ([] if audit else intervened)

    def memory_through(t):
        return "".join(format_memory([turn for turn in record.turns if turn.t <= t]))

    # A verify request at turn t carries the turn log since the latest reset
    # before t and, for pevr, that reset's replan, or the initial plan when no
    # reset came before t (always in pevr_audit, which has no resets).
    for t, request in verify_requests:
        reset = max((r for r in record.resets if r < t), default=0)
        log = "".join(render_turn_log([turn for turn in record.turns if reset < turn.t <= t]))
        if family == "pevr":
            plan = f"replan {reset}" if reset else PLAN_TEXT
            assert request == _text("verify_replan", plan=plan, executor_context=log,
                                    memory=memory_through(t))
        else:
            assert request == _text("verify_advice", user_query=TASK.query, executor_context=log,
                                    memory=memory_through(t))
    # The first executor request after a reset is the resume seed, rendered
    # from the handoff parsed from the reply and the memory through turn t.
    for t in record.resets:
        if t == max_turns:
            continue
        [call] = [call for call in record.supervisor_calls if call.at_turn == t]
        handoff = parse(call.decision.raw_text)[1]
        if family == "pevr":
            seed = _text("replan_resume", user_query=TASK.query, memory=memory_through(t),
                         available_tools=env.tool_prompt, **handoff)
        else:
            if architecture == "eva_nosummary":
                handoff["summary"] = memory_through(t)
            seed = _text("advice_resume", user_query=TASK.query, available_tools=env.tool_prompt,
                         **handoff)
        assert executor.requests[t] == seed
    if audit:
        confusion = verifier_confusion([(record, False)])
        assert (confusion.tp, confusion.fn) == ((1, 0) if intervened else (0, 1))


class TestConfigResolution:
    def test_default_max_turns_by_benchmark(self):
        config = make_run_config("monolithic", max_turns=None)
        assert effective_max_turns(config, TASK) == DEFAULT_MAX_TURNS["hotpotqa"]
        generic = TaskInstance("g", "q", benchmark_tag="generic")
        assert effective_max_turns(config, generic) == DEFAULT_MAX_TURNS["generic"]

    def test_supervised_architecture_requires_supervisor_backend(self):
        with pytest.raises(ValueError):
            run_trajectory(
                TASK, make_run_config("eva"), ScriptedBackend(["x"]), None, ScriptedEnvironment()
            )

    def test_config_digest_differs_across_conditions(self):
        a, _, _ = run_scripted("eva", ["Tool call: finish[x]"], ["unused"], verify_interval=2)
        b, _, _ = run_scripted("eva", ["Tool call: finish[x]"], ["unused"], verify_interval=3)
        assert a.config_digest != b.config_digest
