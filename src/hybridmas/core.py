"""Domain types shared across the engine, the JSONL form of a trajectory
record, and the one reader of JSON-lines files.

Every JSON-lines input (the task dataset, the wiki corpus and trajectory
logs) is read by read_jsonl under one rule: lines are split by universal
newlines and numbered from 1, a line that is blank once stripped is skipped
but counted, and any other line must be exactly one JSON value once
stripped, else it is refused with its number in json.loads' own words.

A trajectory record stores only what cannot be derived from it: an
intervention was applied exactly when its turn is in resets, its handoff
is parsed again from the supervisor's reply, and the largest executor
context is computed from the turns. A record's resets must be the turns of
its INTERVENE calls, all of them and in order, and empty in audit: outside
audit every parsed INTERVENE is applied at once.

Token lengths everywhere are backend-reported counts, never produced by a
local tokenizer. Out-of-context is a terminal trajectory state, never a
silently clamped one; the orchestrator checks the executor's context cap.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, is_dataclass
from decimal import Decimal, InvalidOperation
from functools import lru_cache
from json.encoder import encode_basestring
from typing import (
    Callable,
    Iterable,
    Iterator,
    Optional,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

# Each architecture's family: monolithic runs the executor alone, pevr
# supervises it with a plan and replans, eva with queries and advice.
ARCHITECTURES = {
    "monolithic": "monolithic",
    "pevr": "pevr",
    "eva": "eva",
    "eva_nosummary": "eva",
    "pevr_audit": "pevr",
    "eva_audit": "eva",
}
AUDIT_ARCHITECTURES = ("pevr_audit", "eva_audit")
BENCHMARK_TAGS = ("hotpotqa", "fanoutqa", "generic")
TERMINATIONS = (
    "finished",
    "turn_budget_exhausted",
    "out_of_context",
    "backend_error",
)

CONTINUE = "continue"
INTERVENE = "intervene"

# The ReAct loop's own tool: finish[answer] ends the episode with answer.
FINISH_TOOL = "finish"


@dataclass(frozen=True)
class ToolCall:
    """A single tool invocation, at most one per turn."""

    tool: str
    argument: str = ""

    def __post_init__(self):
        if not self.tool:
            raise ValueError("tool name must be non-empty")

    def render(self) -> str:
        return f"{self.tool}[{self.argument}]"


@dataclass(frozen=True)
class TokenUsage:
    """Backend-reported token counts for one completion call.

    prompt_tokens is the full prompt including any cached prefix;
    cached_tokens is the subset served from a prompt cache.
    """

    prompt_tokens: int = 0
    cached_tokens: int = 0
    generated_tokens: int = 0

    def __post_init__(self):
        if min(self.prompt_tokens, self.cached_tokens, self.generated_tokens) < 0:
            raise ValueError("token counts must be >= 0")
        if self.cached_tokens > self.prompt_tokens:
            raise ValueError("cached_tokens cannot exceed prompt_tokens")

    def __add__(self, other: "TokenUsage") -> "TokenUsage":
        return TokenUsage(
            self.prompt_tokens + other.prompt_tokens,
            self.cached_tokens + other.cached_tokens,
            self.generated_tokens + other.generated_tokens,
        )

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.generated_tokens


@dataclass(frozen=True)
class TaskInstance:
    """One benchmark task: a user query plus optional gold answers."""

    id: str
    query: str
    gold_answers: tuple[str, ...] = ()
    benchmark_tag: str = "generic"

    def __post_init__(self):
        if not self.id:
            raise ValueError("task id must be non-empty")
        if not self.query:
            raise ValueError("task query must be non-empty")
        if self.benchmark_tag not in BENCHMARK_TAGS:
            raise ValueError(f"unknown benchmark tag {self.benchmark_tag!r}")


@dataclass
class TurnRecord:
    """One ReAct turn: reasoning, action, observation, and call usage.

    action is None only for protocol-violation turns (the executor emitted
    no parseable tool call); those turns carry the injected error text as
    their observation and still consume the turn budget.
    """

    t: int
    reasoning: str
    action: Optional[ToolCall]
    observation: str
    usage: TokenUsage
    wall_time_ms: int = 0

    def __post_init__(self):
        if self.t < 1:
            raise ValueError("turn index is 1-based")


@dataclass(frozen=True)
class VerifierDecision:
    """Supervisor verdict for one verification call, and the reply it was
    parsed from. An intervention's handoff is not stored: it is the family
    parser's parse of raw_text."""

    verdict: str
    raw_text: str

    def __post_init__(self):
        if self.verdict not in (CONTINUE, INTERVENE):
            raise ValueError(f"unknown verdict {self.verdict!r}")


@dataclass(frozen=True)
class Pricing:
    """Dollars per 1e6 tokens, split by prefill / cached / generated."""

    prefill: Decimal
    cached: Decimal
    generated: Decimal

    def __post_init__(self):
        rates = (self.prefill, self.cached, self.generated)
        if not all(map(math.isfinite, rates)):
            raise ValueError("pricing rates must be finite")
        if min(rates) < 0:
            raise ValueError("pricing rates must be >= 0")


@dataclass(frozen=True)
class ModelProfile:
    """Everything the accounting formulas need to know about a model.

    Edge profiles must set param_count and efficiency (ops per joule);
    cloud profiles must set pricing. The KV geometry fields (layers,
    kv_heads, head_dim, bytes_per_activation) are required wherever a
    KV-cache estimate is requested.
    """

    name: str
    placement: str
    context_cap: int
    param_count: Optional[float] = None
    layers: Optional[int] = None
    kv_heads: Optional[int] = None
    head_dim: Optional[int] = None
    bytes_per_activation: Optional[int] = None
    efficiency: Optional[float] = None
    pricing: Optional[Pricing] = None

    def __post_init__(self):
        if self.placement not in ("edge", "cloud"):
            raise ValueError(f"unknown placement {self.placement!r}")
        if self.context_cap <= 0:
            raise ValueError("context_cap must be > 0")
        for name in ("param_count", "efficiency"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite when set")
        if self.placement == "edge":
            if not self.param_count or self.param_count <= 0:
                raise ValueError("edge profiles require param_count > 0")
            if not self.efficiency or self.efficiency <= 0:
                raise ValueError("edge profiles require efficiency > 0")
        if self.placement == "cloud" and self.pricing is None:
            raise ValueError("cloud profiles require pricing")
        for name in ("layers", "kv_heads", "head_dim", "bytes_per_activation"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be > 0 when set")

    @property
    def has_kv_geometry(self) -> bool:
        return None not in (
            self.layers,
            self.kv_heads,
            self.head_dim,
            self.bytes_per_activation,
        )


@dataclass(frozen=True)
class SamplingParams:
    temperature: float = 0.0
    max_generated_tokens: int = 1024

    def __post_init__(self):
        if not math.isfinite(self.temperature):
            raise ValueError("temperature must be finite")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_generated_tokens <= 0:
            raise ValueError("max_generated_tokens must be > 0")


@dataclass(frozen=True)
class RunConfig:
    """One experiment condition: architecture, budgets, and model bindings.

    max_turns=None defers to the per-benchmark default at run time.
    """

    architecture: str
    executor_profile: ModelProfile
    supervisor_profile: Optional[ModelProfile] = None
    max_turns: Optional[int] = None
    verify_interval: int = 1
    environment_id: str = "wiki"
    seed: int = 0
    sampling: SamplingParams = SamplingParams()

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.architecture!r}")
        if self.max_turns is not None and self.max_turns < 1:
            raise ValueError("max_turns must be >= 1")
        if self.verify_interval < 1:
            raise ValueError("verify_interval must be >= 1")
        if self.family != "monolithic" and self.supervisor_profile is None:
            raise ValueError(f"{self.architecture} requires a supervisor profile")

    @property
    def family(self) -> str:
        return ARCHITECTURES[self.architecture]

    @property
    def is_audit(self) -> bool:
        return self.architecture in AUDIT_ARCHITECTURES


@dataclass(frozen=True)
class SupervisorCallRecord:
    """One supervisor verification call. Its decision was applied exactly
    when its at_turn is in the trajectory's resets."""

    at_turn: int
    decision: VerifierDecision
    usage: TokenUsage


@dataclass(frozen=True)
class InitialPlanRecord:
    """The PEVR planning call: parsed plan text (empty if it never parsed)
    and the usage billed to it."""

    text: str
    usage: TokenUsage


@dataclass
class TrajectoryTotals:
    """Per-trajectory accounting: dollar/joule sums and the KV maximum."""

    cost_usd: Decimal = Decimal(0)
    energy_joules: float = 0.0
    max_kv_bytes: int = 0


@dataclass
class TrajectoryRecord:
    """The complete audited log of one task execution."""

    task_id: str
    architecture: str
    config_digest: str
    turns: list[TurnRecord] = field(default_factory=list)
    supervisor_calls: list[SupervisorCallRecord] = field(default_factory=list)
    initial_plan: Optional[InitialPlanRecord] = None
    resets: list[int] = field(default_factory=list)
    final_answer: Optional[str] = None
    termination: str = "turn_budget_exhausted"
    success: Optional[bool] = None
    score: Optional[float] = None
    totals: TrajectoryTotals = field(default_factory=TrajectoryTotals)

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.architecture!r}")
        if self.termination not in TERMINATIONS:
            raise ValueError(f"unknown termination {self.termination!r}")
        applied = [] if self.architecture in AUDIT_ARCHITECTURES else [
            c.at_turn for c in self.supervisor_calls if c.decision.verdict == INTERVENE]
        if self.resets != applied:
            raise ValueError(f"resets {self.resets} are not {applied}, the turns of the "
                             f"INTERVENE calls that {self.architecture} applies")

    def applied_interventions(self) -> int:
        return len(self.resets)

    @property
    def max_context_tokens(self) -> int:
        """The largest executor usage.total_tokens, or 0 with no turns."""
        return max((turn.usage.total_tokens for turn in self.turns), default=0)


# --- JSONL serialization -------------------------------------------------
#
# One compact JSON object per line, non-ASCII written as UTF-8, lowercase
# snake-case keys, append-only files. The dataclass declarations above are
# the format: every field is written under its own name in declaration
# order, and a Decimal as a string (so cost_usd re-sums exactly). The
# writer emits each line's text directly, byte for byte what
# json.dumps(..., ensure_ascii=False, separators=(",", ":")) makes of the
# same fields as a dict. A str longer than _LONG_STR chars (an observation
# that many turns return, say) gets its JSON text from a small cache of the
# last _LONG_STRS such strs, so that a log escapes it once. Reading
# requires every declared key, ignores unknown ones, reads each leaf (a
# str, int, bool or float) only from its own JSON class and constructs
# each dataclass, so its __post_init__ validation runs.

# The bytes a JSON string must escape, besides any non-ASCII character.
_ESCAPED = bytes(range(0x20)) + b'"\\'
_LONG_STR = 1024
_LONG_STRS = 32
_dumps = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode
_raw_decode = json.JSONDecoder().raw_decode


def _json_str(v: str) -> str:
    """The JSON text of a str. An ASCII string with nothing to escape is
    quoted as it is, which is several times cheaper than escaping it."""
    if v.isascii() and len(v.encode("ascii").translate(None, _ESCAPED)) == len(v):
        return '"' + v + '"'
    return encode_basestring(v)


_json_long_str = lru_cache(maxsize=_LONG_STRS)(_json_str)


def _json_value(v) -> str:
    """The JSON text of a value that is not a dataclass, as json.dumps
    writes it. Strs, ints, bools and finite floats are written here, and
    anything else by json.dumps."""
    cls = v.__class__
    if cls is str:
        return _json_str(v) if len(v) <= _LONG_STR else _json_long_str(v)
    if cls is int:
        return int.__repr__(v)
    if cls is bool:
        return "true" if v else "false"
    if cls is float and math.isfinite(v):
        return float.__repr__(v)
    return _dumps(v)


def _decode_decimal(v) -> Decimal:
    """A Decimal from its JSON string. A JSON number would bring its binary
    rounding error into the exact sums, and a non-numeric string is no
    amount; both make the line malformed."""
    if v.__class__ is not str:
        raise TypeError(f"a decimal must be a JSON string, not {v!r}")
    try:
        return Decimal(v)
    except InvalidOperation:
        raise ValueError(f"{v!r} is not a decimal")


@lru_cache(maxsize=None)
def _codec(tp) -> tuple[Callable, Optional[Callable]]:
    """(encode, decode) for values declared as tp: encode returns a value's
    JSON text, decode builds the value from its parsed JSON and is None
    where that is the value itself. A list decodes only from a JSON list
    and a dataclass only from a JSON object; any other value is refused."""
    if tp is Decimal:
        return (lambda v: _json_value(str(v))), _decode_decimal
    args = get_args(tp)
    if get_origin(tp) is list:
        enc, dec = _codec(args[0])
        what = f"a list of {args[0].__name__}"

        def decode_list(v):
            if v.__class__ is not list:
                raise TypeError(f"{what} must be a JSON list, not {v!r}")
            return list(v) if dec is None else [dec(x) for x in v]

        return (lambda v: "[" + ",".join(map(enc, v)) + "]"), decode_list
    if get_origin(tp) is Union:  # Optional[X]
        enc, dec = _codec(next(a for a in args if a is not type(None)))
        return (
            lambda v: "null" if v is None else enc(v),
            None if dec is None else (lambda v: None if v is None else dec(v)),
        )
    if is_dataclass(tp):
        return _dataclass_codec(tp)
    return _json_value, None


# The JSON classes a leaf of each type reads from, and the type's name: a
# float may be written as an int, and a bool is no int.
_LEAVES = {str: ((str,), "a str"), bool: ((bool,), "a bool"), int: ((int,), "an int"),
           float: ((float, int), "a float")}


def _dataclass_codec(cls) -> tuple[Callable, Callable]:
    """Encode and decode functions generated from the field list, shaped
    like hand-written ones: one f-string, and class checks of the object
    and of each leaf field before one constructor call."""
    hints = get_type_hints(cls)
    namespace = {"cls": cls}
    items, checks, args = [], [], []
    for f in fields(cls):
        tp = hints[f.name]
        encode, decode = _codec(tp)
        namespace[f"encode_{f.name}"] = encode
        items.append(f"{_json_value(f.name)}:{{encode_{f.name}(obj.{f.name})}}")
        value = f"data[{f.name!r}]"
        if decode is not None:
            namespace[f"decode_{f.name}"] = decode
            value = f"decode_{f.name}({value})"
        # A leaf, an Optional leaf (null too) or a list of leaves (each item,
        # once decode has read a JSON list) is checked by its class.
        leaf = next((arg for arg in get_args(tp) if arg is not type(None)), tp)
        if leaf in _LEAVES:
            namespace[f"leaf_{f.name}"], name = _LEAVES[leaf]
            v = f"v_{f.name}"
            test = f"{v}.__class__ not in leaf_{f.name}"
            if get_origin(tp) is list:
                test = f"any(x.__class__ not in leaf_{f.name} for x in {v})"
                name = f"a list of {leaf.__name__}"
            elif leaf is not tp:
                test, name = f"{v} is not None and {test}", f"{name} or null"
            checks.append(f"    {v} = {value}\n    if {test}:\n"
                          f"        raise TypeError(f'{f.name} must be {name}, not {{{v}!r}}')\n")
            value = v
        args.append(value)
    text = "{{" + ",".join(items) + "}}"
    exec(
        f"def encode(obj): return f{text!r}\n"
        f"def decode(data):\n"
        f"    if data.__class__ is not dict:\n"
        f"        raise TypeError(f'a {cls.__name__} must be a JSON object, not {{data!r}}')\n"
        f"{''.join(checks)}"
        f"    return cls({', '.join(args)})",
        namespace,
    )
    return namespace["encode"], namespace["decode"]


def record_from_dict(d: dict) -> TrajectoryRecord:
    return _codec(TrajectoryRecord)[1](d)


def record_to_json_line(record: TrajectoryRecord) -> str:
    return _codec(TrajectoryRecord)[0](record)


def write_trajectories(path, records: Iterable[TrajectoryRecord], append: bool = False) -> None:
    mode = "a" if append else "w"
    with open(path, mode, encoding="utf-8") as fh:
        for record in records:
            fh.write(record_to_json_line(record))
            fh.write("\n")


class SchemaViolationError(ValueError):
    """A refused line of a JSON-lines file (or page given in memory, with no
    path): its number from 1, and why."""

    def __init__(self, line_no: int, message: str, path=None):
        where = f"line {line_no}" if path is None else f"{path}: line {line_no}"
        super().__init__(f"{where}: {message}")
        self.line_no = line_no
        self.message = message


def read_jsonl(path, malformed: str = "invalid JSON") -> Iterator[tuple[int, object]]:
    """Yield (line number, value) for each non-blank line of the JSON-lines
    file at path, one line at a time. A line that is not one JSON value is
    refused as "<malformed>: " and json.loads' words for it, and a line
    that is not UTF-8 text as "not UTF-8 text: " and the codec's."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                # raw_decode skips json.loads' wrapper on a line that is one
                # whole value; any other line goes to json.loads for its words.
                try:
                    value, end = _raw_decode(line)
                except json.JSONDecodeError:
                    end = None
                if end != len(line):
                    try:
                        value = json.loads(line)
                    except json.JSONDecodeError as exc:
                        raise SchemaViolationError(line_no, f"{malformed}: {exc}", path)
                yield line_no, value
        except UnicodeDecodeError:
            # The file is decoded a block at a time, so find the line by
            # reading it again as latin-1, which decodes any bytes, split the
            # same way: no byte of a UTF-8 sequence is a newline.
            with open(path, "r", encoding="latin-1") as raw:
                for line_no, line in enumerate(raw, start=1):
                    try:
                        line.encode("latin-1").decode("utf-8")
                    except UnicodeDecodeError as exc:
                        raise SchemaViolationError(line_no, f"not UTF-8 text: {exc}", path)
            raise


def read_trajectories(path) -> list[TrajectoryRecord]:
    malformed = "malformed trajectory record"
    records = []
    for line_no, value in read_jsonl(path, malformed):
        try:
            records.append(record_from_dict(value))
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaViolationError(line_no, f"{malformed}: {exc}", path)
    return records
