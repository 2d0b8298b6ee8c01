"""Domain type invariants and trajectory record serialization."""

import json
import math
import re
from dataclasses import fields, is_dataclass, replace
from typing import Union, get_args, get_origin, get_type_hints

import pytest
from hypothesis import given, settings, strategies as st

from hybridmas.core import (
    _LONG_STR,
    ARCHITECTURES,
    AUDIT_ARCHITECTURES,
    TERMINATIONS,
    InitialPlanRecord,
    SchemaViolationError,
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
    record_to_json_line,
    write_trajectories,
)
from hybridmas.environments import WikiCorpus, load_tasks
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

    def test_task_requires_nonempty_fields(self):
        with pytest.raises(ValueError):
            TaskInstance("", "q")
        with pytest.raises(ValueError):
            TaskInstance("id", "")


def _set(data, path, value):
    """Set the item at path, a sequence of keys and indices, in data."""
    for key in path[:-1]:
        data = data[key]
    data[path[-1]] = value


def make_full_record() -> TrajectoryRecord:
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
                VerifierDecision("intervene", "INTERVENE\n<REPLAN>1. finish</REPLAN>"),
                TokenUsage(40, 10, 8),
            ),
            SupervisorCallRecord(
                3, VerifierDecision("continue", "CONTINUE"), TokenUsage(9, 0, 1)
            ),
        ],
        initial_plan=InitialPlanRecord("1. search\n2. finish", TokenUsage(25, 0, 12)),
        resets=[2],
        final_answer="done",
        termination="finished",
        success=True,
        score=1.0,
        totals=TrajectoryTotals(Decimal("0.000875"), 12.5, 1234),
    )


class TestSerialization:
    def test_round_trip_json_line(self):
        record = make_full_record()
        assert record_from_dict(json.loads(record_to_json_line(record))) == record

    def test_round_trip_file(self, tmp_path):
        records = [make_full_record(), make_full_record()]
        records[1].task_id = "task-10"
        records[1].supervisor_calls = [
            SupervisorCallRecord(
                2,
                VerifierDecision("intervene", "INTERVENE\n<SUMMARY>s</SUMMARY><ADVICE>a</ADVICE>"),
                TokenUsage(5, 0, 5),
            ),
            SupervisorCallRecord(
                4,
                VerifierDecision("continue", "garbage"),
                TokenUsage(5, 0, 5),
            ),
        ]
        records[1].architecture = "eva_audit"
        records[1].resets = []
        path = tmp_path / "trajectories.jsonl"
        write_trajectories(path, records)
        assert read_trajectories(path) == records

    def test_snake_case_keys(self):
        d = json.loads(record_to_json_line(make_full_record()))
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
        broken = json.loads(record_to_json_line(make_full_record()))
        broken["turns"][1]["usage"] = None
        path = tmp_path / "trajectories.jsonl"
        path.write_text(
            record_to_json_line(make_full_record()) + "\n" + json.dumps(broken) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match=r"line 2: malformed trajectory record"):
            read_trajectories(path)

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("termination",), "bogus", "bogus"),
            (("architecture",), "nonsense", "nonsense"),
            (("supervisor_calls", 1, "decision", "verdict"), "maybe", "unknown verdict 'maybe'"),
            (("turns", 0, "t"), 0, "turn index is 1-based"),
        ],
        ids=["termination-bogus", "architecture-nonsense", "verdict", "turn-t"],
    )
    def test_illegal_termination_or_architecture_is_a_malformed_record(
        self, tmp_path, path, value, message
    ):
        broken = json.loads(record_to_json_line(make_full_record()))
        _set(broken, path, value)
        log = tmp_path / "trajectories.jsonl"
        log.write_text(
            record_to_json_line(make_full_record()) + "\n" + json.dumps(broken) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match=rf"line 2: malformed trajectory record: .*{message}"):
            read_trajectories(log)

    # A JSON number would carry binary rounding error into the exact sums.
    @pytest.mark.parametrize("value", [0.1, 1, "abc"], ids=["float", "int", "non-numeric"])
    def test_cost_that_is_no_decimal_string_is_a_malformed_record(self, tmp_path, value):
        broken = json.loads(record_to_json_line(make_full_record()))
        broken["totals"]["cost_usd"] = value
        path = tmp_path / "trajectories.jsonl"
        path.write_text(
            record_to_json_line(make_full_record()) + "\n" + json.dumps(broken) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line 2: malformed "
                                             rf"trajectory record: .*{re.escape(repr(value))}"):
            read_trajectories(path)

    # Each case would miscount the interventions that were applied: outside
    # audit every INTERVENE is applied, and in audit none is.
    @pytest.mark.parametrize(
        "changes",
        [
            {"resets": [3]},
            {"resets": [5]},
            {"resets": [2, 2]},
            {"architecture": "pevr_audit"},
            {"resets": []},
        ],
        ids=["continue-turn", "no-call-turn", "repeated", "audit", "intervene-without-reset"],
    )
    def test_resets_that_no_intervention_explains_are_a_malformed_record(self, tmp_path, changes):
        broken = {**json.loads(record_to_json_line(make_full_record())), **changes}
        path = tmp_path / "trajectories.jsonl"
        path.write_text(
            record_to_json_line(make_full_record()) + "\n" + json.dumps(broken) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line 2: malformed "
                                             r"trajectory record: resets .* are not .*, the "
                                             r"turns of the INTERVENE calls that"):
            read_trajectories(path)

    # A list reads only from a JSON list and a dataclass only from a JSON
    # object: lost turns must not read as a task with no turns.
    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("resets", "", "a list of int must be a JSON list, not ''"),
            ("turns", {}, "a list of TurnRecord must be a JSON list, not {}"),
            ("supervisor_calls", "", "a list of SupervisorCallRecord must be a JSON list, not ''"),
            ("totals", [], "a TrajectoryTotals must be a JSON object, not []"),
        ],
        ids=["resets-empty-string", "turns-object", "supervisor-calls-empty-string",
             "totals-list"],
    )
    def test_container_of_another_json_type_is_a_malformed_record(
        self, tmp_path, key, value, message
    ):
        broken = {**json.loads(record_to_json_line(make_full_record())), key: value}
        path = tmp_path / "trajectories.jsonl"
        path.write_text(
            record_to_json_line(make_full_record()) + "\n" + json.dumps(broken) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError) as exc_info:
            read_trajectories(path)
        assert str(exc_info.value) == f"{path}: line 2: malformed trajectory record: {message}"

    # A leaf reads only from a value of its declared type's JSON class: the
    # reader took each of these, and wrote resets [2.0] back as [2.0].
    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("final_answer",), 5, "final_answer must be a str or null, not 5"),
            (("task_id",), 5, "task_id must be a str, not 5"),
            (("config_digest",), 5, "config_digest must be a str, not 5"),
            (("success",), "true", "success must be a bool or null, not 'true'"),
            (("score",), "1.0", "score must be a float or null, not '1.0'"),
            (("totals", "energy_joules"), "12.5", "energy_joules must be a float, not '12.5'"),
            (("turns", 0, "reasoning"), ["x"], "reasoning must be a str, not ['x']"),
            (("turns", 0, "wall_time_ms"), 1.5, "wall_time_ms must be an int, not 1.5"),
            (("turns", 0, "observation"), None, "observation must be a str, not None"),
            (("turns", 0, "t"), True, "t must be an int, not True"),
            (("resets",), [2.0], "resets must be a list of int, not [2.0]"),
        ],
        ids=["final-answer-int", "task-id-int", "config-digest-int", "success-str", "score-str",
             "energy-str", "reasoning-list", "wall-time-float", "observation-null", "t-true",
             "resets-float"],
    )
    def test_leaf_of_another_json_type_is_a_malformed_record(self, tmp_path, path, value,
                                                             message):
        broken = json.loads(record_to_json_line(make_full_record()))
        _set(broken, path, value)
        log = tmp_path / "trajectories.jsonl"
        log.write_text(
            record_to_json_line(make_full_record()) + "\n" + json.dumps(broken) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError) as exc_info:
            read_trajectories(log)
        assert str(exc_info.value) == f"{log}: line 2: malformed trajectory record: {message}"

    def test_resets_subset_of_intervene_turns(self):
        record = make_full_record()
        intervene_turns = {
            call.at_turn
            for call in record.supervisor_calls
            if call.decision.verdict == "intervene"
        }
        assert set(record.resets) <= intervene_turns


# --- the one JSON-lines line rule, through each reader --------------------

# Each reader: its loader, a valid line i, the names of what it read, and the
# words before json.loads' own in a refusal.
_READERS = {
    "dataset": (
        load_tasks,
        lambda i: json.dumps({"id": f"t{i}", "question": "Q?", "answers": []}),
        lambda tasks: [task.id for task in tasks],
        "invalid JSON",
    ),
    "corpus": (
        WikiCorpus.load,
        lambda i: json.dumps({"title": f"t{i}", "text": "A."}),
        WikiCorpus.titles,
        "invalid JSON",
    ),
    "log": (
        read_trajectories,
        lambda i: record_to_json_line(replace(make_full_record(), task_id=f"t{i}")),
        lambda records: [record.task_id for record in records],
        "malformed trajectory record",
    ),
}


@pytest.mark.parametrize("reader", list(_READERS))
def test_every_reader_keeps_the_one_line_rule(tmp_path, reader):
    load, line, names, malformed = _READERS[reader]
    path = tmp_path / "data.jsonl"
    # Blank and whitespace-only lines are skipped; CRLF reads like LF.
    path.write_bytes(f"\n \t\r\n{line(1)}\r\n\r\n{line(2)}\n\n".encode())
    assert names(load(path)) == ["t1", "t2"]
    two_values, trailing_garbage, truncated = line(3) + line(4), line(3) + " x", line(3)[:-1]
    for bad in (two_values, trailing_garbage, truncated):
        with pytest.raises(json.JSONDecodeError) as expected:
            json.loads(bad)
        # The skipped lines still count: the bad line is line 4.
        path.write_bytes(f"{line(1)}\r\n \r\n\n{bad}\r\n{line(2)}\n".encode())
        with pytest.raises(SchemaViolationError) as exc_info:
            load(path)
        assert exc_info.value.line_no == 4
        assert str(exc_info.value) == f"{path}: line 4: {malformed}: {expected.value}"
    # A line that is not UTF-8 text is refused with its number, though the
    # file is decoded a block of lines at a time, in the codec's words for
    # the line with its newline. A lone CR ends a line too.
    valid = line(3).encode()
    for bad in (valid[:6] + b"\xff\xfe" + valid[6:], valid + b"\xc3"):
        with pytest.raises(UnicodeDecodeError) as expected:
            (bad + b"\n").decode("utf-8")
        path.write_bytes(f"{line(1)}\r \r\n\n".encode() + bad + f"\r\n{line(2)}\n".encode())
        with pytest.raises(SchemaViolationError) as exc_info:
            names(load(path))
        assert exc_info.value.line_no == 4
        assert str(exc_info.value) == f"{path}: line 4: not UTF-8 text: {expected.value}"


# --- the JSONL writer against json.dumps -----------------------------------


def reference_dict(value):
    """The dict form the writer's text is checked against: a dataclass as
    its fields in declaration order, a Decimal as its str, a list item by
    item, any other value as it is."""
    if is_dataclass(value):
        return {f.name: reference_dict(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, Decimal):
        return str(value)
    if isinstance(value, list):
        return [reference_dict(item) for item in value]
    return value


# Characters the writer must escape or must pass through unescaped, beside
# printable ASCII and anything else, lone surrogates included.
_SPECIAL_CHARS = ["é", "漢", "\u2028", "\u2029", "\x7f", '"', "\\", "\ud800", "\udfff"]
_texts = st.text(
    alphabet=st.one_of(
        st.sampled_from(_SPECIAL_CHARS + [chr(c) for c in range(0x20)]),
        st.characters(min_codepoint=0x20, max_codepoint=0x7E),
        st.characters(),
    ),
    max_size=12,
)
_big_ints = st.integers(min_value=0, max_value=2**100)
_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 1e300, -1e300, math.nan, math.inf, -math.inf]),
    st.floats(),
)


@st.composite
def _usages(draw):
    prompt = draw(_big_ints)
    return TokenUsage(prompt, draw(st.integers(0, prompt)), draw(_big_ints))


_tool_calls = st.builds(ToolCall, _texts.filter(bool), _texts)
_turns = st.builds(
    TurnRecord,
    st.integers(min_value=1, max_value=2**100),
    _texts,
    st.none() | _tool_calls,
    _texts,
    _usages(),
    _big_ints,
)
_decisions = st.builds(VerifierDecision, st.sampled_from(["continue", "intervene"]), _texts)
_supervisor_calls = st.builds(SupervisorCallRecord, _big_ints, _decisions, _usages())


@st.composite
def _records(draw):
    """A record whose resets are its own INTERVENE calls' turns, in order,
    and empty in audit."""
    architecture = draw(st.sampled_from(tuple(ARCHITECTURES)))
    calls = draw(st.lists(_supervisor_calls, max_size=3))
    intervened = [] if architecture in AUDIT_ARCHITECTURES else [
        c.at_turn for c in calls if c.decision.verdict == "intervene"]
    return draw(st.builds(
        TrajectoryRecord,
        task_id=_texts,
        architecture=st.just(architecture),
        config_digest=_texts,
        turns=st.lists(_turns, max_size=3),
        supervisor_calls=st.just(calls),
        initial_plan=st.none() | st.builds(InitialPlanRecord, _texts, _usages()),
        resets=st.just(intervened),
        final_answer=st.none() | _texts,
        termination=st.sampled_from(TERMINATIONS),
        success=st.none() | st.booleans(),
        score=st.none() | _floats,
        totals=st.builds(
            TrajectoryTotals,
            st.decimals(allow_nan=False, allow_infinity=False),
            _floats,
            _big_ints,
        ),
    ))


@settings(max_examples=300, deadline=None)
@given(_records())
def test_json_line_is_json_dumps_of_the_reference_dict(record):
    line = record_to_json_line(record)
    assert line == json.dumps(reference_dict(record), ensure_ascii=False, separators=(",", ":"))
    if not any(map(math.isnan, (record.totals.energy_joules, record.score or 0.0))):
        assert record_from_dict(json.loads(line)) == record


# Strs over the writer's cache threshold: a drawn unit repeated, either
# printable ASCII with nothing to escape or _texts' mix of quotes,
# backslashes, control characters and non-ASCII text.
_plain_units = st.text(
    st.characters(min_codepoint=0x20, max_codepoint=0x7E, blacklist_characters='"\\'),
    min_size=1,
    max_size=8,
)


@st.composite
def _long_texts(draw):
    unit = draw(_plain_units | _texts.filter(bool))
    size = draw(st.integers(_LONG_STR, _LONG_STR + 64) | st.just(4000))
    return (unit * (size // len(unit) + 1))[:size]


@settings(max_examples=100, deadline=None)
@given(st.lists(_long_texts(), min_size=1, max_size=3), st.data())
def test_long_strs_are_written_as_json_dumps_writes_them(pool, data):
    """Records that repeat a few long strs, as the same object or as equal
    strs that are distinct objects, in observations, reasoning and final
    answers: each line is json.dumps of the reference dict and reads back
    as its record."""

    def text():
        chosen = data.draw(st.sampled_from(pool))
        return "".join(list(chosen)) if data.draw(st.booleans()) else chosen

    for _ in range(data.draw(st.integers(1, 4))):
        record = make_full_record()
        record.turns = [replace(turn, reasoning=text(), observation=text())
                        for turn in record.turns]
        record.final_answer = text()
        line = record_to_json_line(record)
        assert line == json.dumps(reference_dict(record), ensure_ascii=False, separators=(",", ":"))
        assert record_from_dict(json.loads(line)) == record


# --- every leaf reads only from its own JSON class --------------------------

# The JSON classes a leaf of each declared type reads from: a float may be
# written as an int, a bool is no int, and a Decimal is a string.
_READS_FROM = {str: {str}, int: {int}, bool: {bool}, float: {int, float}, Decimal: {str}}
# One value of each JSON class.
_JSON_VALUES = [None, True, 0, 0.5, "s", [], {}]


def _leaves(value, tp, path=()):
    """(path, the classes its JSON value may have) of each leaf of value,
    declared as tp, in its JSON form: a list's items and a set Optional
    dataclass are walked into."""
    if get_origin(tp) is Union:  # Optional[X]
        (tp,) = (arg for arg in get_args(tp) if arg is not type(None))
        if tp in _READS_FROM:
            yield path, _READS_FROM[tp] | {type(None)}
            return
        if value is None:
            return
    if tp in _READS_FROM:
        yield path, _READS_FROM[tp]
    elif get_origin(tp) is list:
        for i, item in enumerate(value):
            yield from _leaves(item, get_args(tp)[0], path + (i,))
    else:
        hints = get_type_hints(tp)
        for f in fields(tp):
            yield from _leaves(getattr(value, f.name), hints[f.name], path + (f.name,))


@settings(max_examples=100, deadline=None)
@given(_records().filter(lambda r: not any(map(math.isnan, (r.totals.energy_joules,
                                                             r.score or 0.0)))),
       st.data())
def test_a_record_round_trips_and_a_leaf_of_another_json_type_is_refused(record, data):
    line = record_to_json_line(record)
    read = record_from_dict(json.loads(line))
    assert read == record and record_to_json_line(read) == line
    path, classes = data.draw(st.sampled_from(list(_leaves(record, TrajectoryRecord))))
    broken = json.loads(line)
    _set(broken, path, data.draw(st.sampled_from(
        [value for value in _JSON_VALUES if value.__class__ not in classes])))
    with pytest.raises((TypeError, ValueError)):
        record_from_dict(broken)
