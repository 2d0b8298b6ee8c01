"""Context container semantics and trajectory record serialization."""

import json

import pytest
from hypothesis import given, strategies as st

from hybridmas.core import (
    AdviceHandoff,
    AdviceMemoryHandoff,
    ExecutorContext,
    InitialPlanRecord,
    OutOfContextError,
    Plan,
    ReplanHandoff,
    SupervisorCallRecord,
    TaskInstance,
    TokenUsage,
    ToolCall,
    TrajectoryRecord,
    TrajectoryTotals,
    TurnRecord,
    VerifierDecision,
    read_trajectories,
    record_from_dict,
    record_to_dict,
    record_to_json_line,
    write_trajectories,
)
from decimal import Decimal


def make_turn(t: int, tool: str = "search", arg: str = "x", prompt: int = 10) -> TurnRecord:
    return TurnRecord(
        t=t,
        reasoning=f"thinking at {t}",
        action=ToolCall(tool, arg),
        observation=f"observation {t}",
        usage=TokenUsage(prompt, 0, 5),
    )


class TestAppendTurn:
    def test_first_append(self):
        ctx = ExecutorContext("seed", cap=32768, token_len=100)
        ctx.append_turn("turn 1", 350)
        assert ctx.log == ["turn 1"]
        assert ctx.token_len == 350

    def test_overflow_is_terminal_and_does_not_mutate(self):
        ctx = ExecutorContext("seed", cap=32768, token_len=32000)
        with pytest.raises(OutOfContextError) as exc_info:
            ctx.append_turn("turn 1", 33100)
        assert exc_info.value.token_len == 33100
        assert ctx.token_len == 32000
        assert ctx.log == []

    def test_appends_keep_order(self):
        ctx = ExecutorContext("seed", cap=1000, token_len=10)
        for t in range(1, 4):
            ctx.append_turn(f"turn {t}", 10 + t)
        assert ctx.log == ["turn 1", "\n\n", "turn 2", "\n\n", "turn 3"]

    def test_token_len_cannot_shrink(self):
        ctx = ExecutorContext("seed", cap=1000, token_len=100)
        with pytest.raises(ValueError):
            ctx.append_turn("turn 1", 99)


class TestResetContext:
    def test_reset_clears_turns(self):
        ctx = ExecutorContext("seed", cap=1000, token_len=100)
        for t in range(1, 6):
            ctx.append_turn(f"turn {t}", 100 + t)
        ctx.reset("new seed", 400)
        assert ctx.log == []
        assert ctx.token_len == 400
        assert ctx.seed_prompt == "new seed"

    def test_reset_with_oversized_seed(self):
        ctx = ExecutorContext("seed", cap=1000, token_len=100)
        with pytest.raises(OutOfContextError):
            ctx.reset("giant seed", 1001)

    def test_reset_twice_equals_last_reset(self):
        a = ExecutorContext("seed", cap=1000, token_len=100)
        a.reset("first", 50)
        a.reset("second", 70)
        b = ExecutorContext("seed", cap=1000, token_len=100)
        b.reset("second", 70)
        assert a == b


@given(
    st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=20),
    st.integers(min_value=0, max_value=100),
)
def test_token_len_non_decreasing_between_resets(increments, start):
    ctx = ExecutorContext("seed", cap=10**6, token_len=start)
    observed = [ctx.token_len]
    t = 1
    for inc in increments:
        ctx.append_turn(f"turn {t}", ctx.token_len + inc)
        observed.append(ctx.token_len)
        t += 1
    assert observed == sorted(observed)
    ctx.reset("fresh", 3)
    assert ctx.token_len == 3


class TestTypeInvariants:
    def test_usage_validation(self):
        with pytest.raises(ValueError):
            TokenUsage(-1, 0, 0)
        with pytest.raises(ValueError):
            TokenUsage(5, 6, 0)

    def test_verifier_decision_requires_payload_iff_intervene(self):
        with pytest.raises(ValueError):
            VerifierDecision("intervene", None, "raw")
        with pytest.raises(ValueError):
            VerifierDecision("continue", AdviceHandoff("s", "a"), "raw")

    def test_task_requires_nonempty_fields(self):
        with pytest.raises(ValueError):
            TaskInstance("", "q")
        with pytest.raises(ValueError):
            TaskInstance("id", "")

    def test_applied_requires_intervene(self):
        with pytest.raises(ValueError):
            SupervisorCallRecord(
                2, VerifierDecision("continue", None, "CONTINUE"), TokenUsage(), True
            )

    def test_plan_text_nonempty(self):
        with pytest.raises(ValueError):
            Plan("")


def make_full_record() -> TrajectoryRecord:
    plan = Plan("1. search\n2. finish", origin="replan", replan_turn=2)
    return TrajectoryRecord(
        task_id="task-9",
        architecture="pevr",
        config_digest="abc123",
        turns=[
            make_turn(1),
            TurnRecord(2, "no call emitted", None, "Invalid tool call format.", TokenUsage(30, 0, 4), 0),
            make_turn(3, "finish", "done", prompt=60),
        ],
        supervisor_calls=[
            SupervisorCallRecord(
                2,
                VerifierDecision("intervene", ReplanHandoff(plan), "raw"),
                TokenUsage(40, 10, 8),
                True,
            ),
            SupervisorCallRecord(
                3, VerifierDecision("continue", None, "CONTINUE"), TokenUsage(9, 0, 1), False
            ),
        ],
        initial_plan=InitialPlanRecord("1. search\n2. finish", TokenUsage(25, 0, 12)),
        resets=[2],
        final_answer="done",
        termination="finished",
        success=True,
        score=1.0,
        totals=TrajectoryTotals(Decimal("0.000875"), 12.5, 300, 1234),
    )


class TestSerialization:
    def test_round_trip_dict(self):
        record = make_full_record()
        assert record_from_dict(record_to_dict(record)) == record

    def test_round_trip_json_line(self):
        record = make_full_record()
        assert record_from_dict(json.loads(record_to_json_line(record))) == record

    def test_round_trip_file(self, tmp_path):
        records = [make_full_record(), make_full_record()]
        records[1].task_id = "task-10"
        records[1].supervisor_calls = [
            SupervisorCallRecord(
                2,
                VerifierDecision("intervene", AdviceHandoff("sum", "adv"), "raw"),
                TokenUsage(5, 0, 5),
                False,
            ),
            SupervisorCallRecord(
                4,
                VerifierDecision("intervene", AdviceMemoryHandoff("adv"), "raw"),
                TokenUsage(5, 0, 5),
                False,
            ),
        ]
        records[1].architecture = "eva_audit"
        records[1].resets = []
        path = tmp_path / "trajectories.jsonl"
        write_trajectories(path, records)
        assert read_trajectories(path) == records

    def test_snake_case_keys(self):
        d = record_to_dict(make_full_record())
        for key in (
            "task_id",
            "config_digest",
            "turns",
            "supervisor_calls",
            "resets",
            "final_answer",
            "termination",
            "success",
            "totals",
        ):
            assert key in d
        assert all(key == key.lower() for key in d)

    def test_resets_subset_of_intervene_turns(self):
        record = make_full_record()
        intervene_turns = {
            call.at_turn
            for call in record.supervisor_calls
            if call.decision.verdict == "intervene"
        }
        assert set(record.resets) <= intervene_turns
