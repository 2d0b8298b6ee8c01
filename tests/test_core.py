"""Domain type invariants and trajectory record serialization."""

import json

import pytest

from hybridmas.core import (
    AdviceHandoff,
    AdviceMemoryHandoff,
    InitialPlanRecord,
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

    def test_null_usage_is_a_malformed_record(self, tmp_path):
        broken = record_to_dict(make_full_record())
        broken["turns"][1]["usage"] = None
        path = tmp_path / "trajectories.jsonl"
        path.write_text(
            record_to_json_line(make_full_record()) + "\n" + json.dumps(broken) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match=r"line 2: malformed trajectory record"):
            read_trajectories(path)

    def test_resets_subset_of_intervene_turns(self):
        record = make_full_record()
        intervene_turns = {
            call.at_turn
            for call in record.supervisor_calls
            if call.decision.verdict == "intervene"
        }
        assert set(record.resets) <= intervene_turns
