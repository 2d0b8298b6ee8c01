"""State-machine behavior: scheduling, interventions, resets, audits, and
termination semantics, all under scripted backends and environments."""

import logging
from dataclasses import replace

import pytest

from hybridmas import orchestrator
from hybridmas.backends import (
    BackendError,
    ChatResponse,
    ContextOverflowError,
    RejectedError,
    ScriptedBackend,
    whitespace_token_count,
)
from hybridmas.core import (
    CONTINUE,
    INTERVENE,
    AdviceMemoryHandoff,
    InitialPlanRecord,
    ReplanHandoff,
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
from hybridmas.prompting import format_memory, render
from conftest import EDGE_PROFILE, make_run_config

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

    def count_tokens(self, parts):
        return whitespace_token_count("".join(parts))


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
        assert record.totals.max_context_tokens == lens[2]

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
        assert supervisor.remaining == 0
        assert record.initial_plan.text == PLAN_TEXT
        # Never-replaced plan: every verification request carries the
        # original plan text.
        for request in supervisor.requests[1:]:
            assert PLAN_TEXT in request

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
        assert supervisor.remaining == 1

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
        assert call.applied
        assert isinstance(call.decision.payload, ReplanHandoff)
        assert call.decision.payload.replan.text == "New plan R"
        assert call.decision.payload.replan.replan_turn == 4

        expected_memory = "\n\n".join(
            f"Tool call: search[q{i}]\nOutput: obs" for i in range(1, 5)
        )
        expected_seed = "".join(render(
            "replan_resume",
            {
                "user_query": TASK.query,
                "replan": "New plan R",
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
        assert len(record.resets) == record.intervene_count()

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
        assert call.decision == VerifierDecision(CONTINUE, None, "garbage verdict")
        assert call.usage == _scripted_usage(supervisor.requests[-2], "garbage verdict")
        assert not call.applied
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

    def count_tokens(self, parts):
        return self.backend.count_tokens(parts)


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
        assert call.decision == VerifierDecision(CONTINUE, None, "garbage verdict")
        assert not call.applied


class _BilledBackend:
    """Answers every call with a search, billing the given total tokens in
    turn; it cannot count tokens."""

    def __init__(self, totals):
        self.totals = iter(totals)

    def complete(self, request):
        return ChatResponse("Tool call: search[q]", TokenUsage(next(self.totals), 0, 0))

    def count_tokens(self, parts):
        return None


class TestContextCap:
    """The executor's context cap is checked when a seed is set, on the
    seed alone, and after each executor call, on the largest total since
    the last reset."""

    @pytest.mark.parametrize("architecture", ["monolithic", "pevr"])
    def test_a_first_seed_over_the_cap_sends_no_executor_request(self, architecture):
        env = ScriptedEnvironment()
        plan = {"plan": PLAN_TEXT} if architecture == "pevr" else {}
        seed = render(
            "plan_exec" if plan else "direct_exec",
            {"user_query": TASK.query, **plan, "available_tools": env.tool_prompt},
        )
        tokens = whitespace_token_count("".join(seed))
        # At the cap the seed is taken, and the first turn's total is over it.
        for cap, turns in ((tokens - 1, 0), (tokens, 1)):
            record, executor, supervisor = run_scripted(
                architecture, ["Tool call: finish[yes]"], [PLAN_RESPONSE] if plan else None,
                env=env, executor_profile=replace(EDGE_PROFILE, context_cap=cap),
            )
            assert record.termination == "out_of_context"
            assert len(record.turns) == len(executor.requests) == turns
            if plan:
                assert record.initial_plan.text == PLAN_TEXT
                assert len(supervisor.requests) == 1

    @pytest.mark.parametrize("architecture", ["pevr", "eva"])
    def test_a_resume_seed_over_the_cap_is_not_applied(self, architecture):
        long = " ".join(["word"] * 2000)
        if architecture == "pevr":
            script = [PLAN_RESPONSE, f"INTERVENE\n<REPLAN>{long}</REPLAN>"]
        else:
            script = [f"INTERVENE\n<SUMMARY>{long}</SUMMARY>\n<ADVICE>a</ADVICE>"]
        record, executor, _ = run_scripted(
            architecture, search_turns(4), script, max_turns=4, verify_interval=2,
            executor_profile=replace(EDGE_PROFILE, context_cap=1000),
        )
        assert record.termination == "out_of_context"
        assert max(t.usage.total_tokens for t in record.turns) <= 1000
        assert len(record.turns) == len(executor.requests) == 2
        [call] = record.supervisor_calls
        assert call.at_turn == 2
        assert call.decision.verdict == INTERVENE
        assert not call.applied
        assert record.resets == []

    def test_a_lower_total_does_not_lower_the_context_length(self):
        config = make_run_config("monolithic", max_turns=3)
        episode = orchestrator._Episode(
            TASK, config, _BilledBackend([300, 100, 200]), None, ScriptedEnvironment()
        )
        lengths = []
        turn = episode._turn

        def traced(t):
            alive = turn(t)
            lengths.append(episode._context_tokens)
            return alive

        episode._turn = traced
        assert episode.run().termination == "turn_budget_exhausted"
        assert lengths == [300, 300, 300]


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
        payload = record.supervisor_calls[0].decision.payload
        assert isinstance(payload, AdviceMemoryHandoff)
        assert payload.advice == "try q3"

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
        assert all(not c.applied for c in record.supervisor_calls)
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
        assert record.intervene_count() == 0


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
            assert supervisor.remaining == 0


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
    pevr = architecture == "pevr"
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
        if not call.applied:
            continue
        payload = call.decision.payload
        if pevr:
            plans[t] = payload.replan.text
            seeds[t] = _text("replan_resume", user_query=query, replan=plans[t], memory=memory,
                             available_tools=tools)
        else:
            summary = memory if architecture == "eva_nosummary" else payload.summary
            seeds[t] = _text("advice_resume", user_query=query, summary=summary,
                             advice=payload.advice, available_tools=tools)
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

    @pytest.mark.parametrize("architecture", ["pevr", "eva", "eva_nosummary"])
    def test_every_request_is_its_rebuilt_text(self, architecture):
        if architecture == "pevr":
            intervene = ["INTERVENE\n<REPLAN>R1</REPLAN>", "INTERVENE\n<REPLAN>R2</REPLAN>"]
            supervisor_script = [PLAN_RESPONSE]
        else:
            intervene = [
                f"INTERVENE\n<SUMMARY>did {n}</SUMMARY>\n<ADVICE>try {n}</ADVICE>"
                for n in ("q1", "q2")
            ]
            supervisor_script = []
        # t=2 malformed, then retried; t=4 and t=8 applied; t=6 continue.
        supervisor_script += ["not a verdict", "CONTINUE", intervene[0], "CONTINUE", intervene[1]]
        executor_script = search_turns(9)
        executor_script[2] = "I cannot decide."  # a turn without a memory block
        env = ScriptedEnvironment(
            {ToolCall("search", f"q{i}"): f"result {i}" for i in range(1, 10)}
        )
        record, executor, supervisor = run_scripted(
            architecture, executor_script, supervisor_script, env=env,
            max_turns=9, verify_interval=2,
        )
        assert record.resets == [4, 8]
        assert record.supervisor_calls[0].usage.generated_tokens == 4  # both attempts
        expected_executor, expected_supervisor = _expected_requests(
            record, architecture, env, retried={2}
        )
        assert list(executor.requests) == expected_executor
        assert list(supervisor.requests) == expected_supervisor
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
            text = "".join(["fresh observation ", f"for {call.argument} ~zq~"])
            observation = replace(observation, text=text)
        self.returned.append(observation.text)
        return observation


class TestTurnParts:
    """Each turn enters the turn log and the memory as a head part plus the
    observation the environment returned, as its own part."""

    TURNS = [
        TurnRecord(1, "I cannot decide.", None, INVALID_TOOL_CALL_OBSERVATION, TokenUsage()),
        TurnRecord(2, "", ToolCall("search", "x"), "obs x", TokenUsage()),
        TurnRecord(3, "Think.", ToolCall("lookup", "y"), None, TokenUsage()),
        TurnRecord(4, "Done.", ToolCall("finish", "z"), "Episode finished.", TokenUsage()),
    ]

    def test_render_turn_log_joins_to_the_turn_log_text(self):
        assert "".join(render_turn_log(self.TURNS)) == (
            f"I cannot decide.\nObservation: {INVALID_TOOL_CALL_OBSERVATION}\n\n"
            "Tool call: search[x]\nObservation: obs x\n\n"
            "Think.\nTool call: lookup[y]\nObservation: None\n\n"
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

    def test_env_required(self):
        with pytest.raises(ValueError):
            run_trajectory(TASK, make_run_config("monolithic"), ScriptedBackend(["x"]))

    def test_config_digest_differs_across_conditions(self):
        a, _, _ = run_scripted("eva", ["Tool call: finish[x]"], ["unused"], verify_interval=2)
        b, _, _ = run_scripted("eva", ["Tool call: finish[x]"], ["unused"], verify_interval=3)
        assert a.config_digest != b.config_digest
