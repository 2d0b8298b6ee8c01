"""Domain types shared across the engine, and the JSONL form of a
trajectory record.

Token lengths everywhere are backend-reported counts, never produced by a
local tokenizer. Out-of-context is a terminal trajectory state, never a
silently clamped one; the orchestrator checks the executor's context cap.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, is_dataclass
from decimal import Decimal
from functools import lru_cache
from typing import (
    Callable,
    ClassVar,
    Iterable,
    Optional,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

ARCHITECTURES = (
    "monolithic",
    "pevr",
    "eva",
    "eva_nosummary",
    "pevr_audit",
    "eva_audit",
)
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


@dataclass(frozen=True)
class ToolCall:
    """A single tool invocation, at most one per turn."""

    tool: str
    argument: str

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
    observation: Optional[str]
    usage: TokenUsage
    wall_time_ms: int = 0

    def __post_init__(self):
        if self.t < 1:
            raise ValueError("turn index is 1-based")


@dataclass(frozen=True)
class Plan:
    """A natural-language execution plan, initial or issued as a replan."""

    text: str
    origin: str = "initial"
    replan_turn: Optional[int] = None

    def __post_init__(self):
        if not self.text:
            raise ValueError("plan text must be non-empty")
        if self.origin not in ("initial", "replan"):
            raise ValueError(f"unknown plan origin {self.origin!r}")


@dataclass(frozen=True)
class ReplanHandoff:
    """Intervention payload for plan-based supervision: the replacement
    plan. The executor is re-seeded with it and with the tool-call memory,
    which is derived from the trajectory's turns and not stored here."""

    kind: ClassVar[str] = "replan"
    replan: Plan


@dataclass(frozen=True)
class AdviceHandoff:
    """Intervention payload for query-based supervision: summary of
    completed work plus advisory guidance."""

    kind: ClassVar[str] = "advice"
    summary: str
    advice: str


@dataclass(frozen=True)
class AdviceMemoryHandoff:
    """Summary-free intervention payload (no-summary ablation only): the
    advice. The verbatim tool-call memory stands in for the summary when
    the executor is re-seeded; it is derived from the trajectory's turns
    and not stored here."""

    kind: ClassVar[str] = "advice_memory"
    advice: str


Handoff = Union[ReplanHandoff, AdviceHandoff, AdviceMemoryHandoff]


@dataclass(frozen=True)
class VerifierDecision:
    """Supervisor verdict for one verification call."""

    verdict: str
    payload: Optional[Handoff] = None
    raw_text: str = ""

    def __post_init__(self):
        if self.verdict not in (CONTINUE, INTERVENE):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict == INTERVENE and self.payload is None:
            raise ValueError("intervene decisions require a payload")
        if self.verdict == CONTINUE and self.payload is not None:
            raise ValueError("continue decisions carry no payload")


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
        if self.architecture != "monolithic" and self.supervisor_profile is None:
            raise ValueError(f"{self.architecture} requires a supervisor profile")

    @property
    def is_audit(self) -> bool:
        return self.architecture in AUDIT_ARCHITECTURES


@dataclass(frozen=True)
class SupervisorCallRecord:
    """One supervisor verification call; applied=False in audit modes."""

    at_turn: int
    decision: VerifierDecision
    usage: TokenUsage
    applied: bool

    def __post_init__(self):
        if self.applied and self.decision.verdict != INTERVENE:
            raise ValueError("only intervene decisions can be applied")


@dataclass(frozen=True)
class InitialPlanRecord:
    """The PEVR planning call: parsed plan text (empty if it never parsed)
    and the usage billed to it."""

    text: str
    usage: TokenUsage


@dataclass
class TrajectoryTotals:
    """Per-trajectory accounting: dollar/joule sums and context/KV maxima."""

    cost_usd: Decimal = Decimal(0)
    energy_joules: float = 0.0
    max_context_tokens: int = 0
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

    def applied_interventions(self) -> int:
        return sum(1 for call in self.supervisor_calls if call.applied)

    def intervene_count(self) -> int:
        return sum(
            1 for call in self.supervisor_calls if call.decision.verdict == INTERVENE
        )


# --- JSONL serialization -------------------------------------------------
#
# One JSON object per line, lowercase snake-case keys, append-only files.
# The dataclass declarations above are the format: every field is written
# under its own name in declaration order, a Decimal as a string (so
# cost_usd re-sums exactly), and a handoff payload starts with its "kind".
# Reading requires every declared key, ignores unknown ones and constructs
# each dataclass, so its __post_init__ validation runs.


@lru_cache(maxsize=None)
def _codec(tp) -> Optional[tuple[Callable, Callable]]:
    """(encode, decode) for values declared as tp; None where the JSON
    value is the value itself."""
    if tp is Decimal:
        return str, Decimal
    args = get_args(tp)
    if get_origin(tp) is list:
        item = _codec(args[0])
        if item is None:
            return list, list
        enc, dec = item
        return (lambda v: [enc(x) for x in v]), (lambda v: [dec(x) for x in v])
    if get_origin(tp) is Union:
        members = [a for a in args if a is not type(None)]
        if len(members) == 1:
            inner = _codec(members[0])
        else:
            by_type = {m: _codec(m) for m in members}
            by_kind = {m.kind: codec for m, codec in by_type.items()}
            inner = (
                lambda v: by_type[type(v)][0](v),
                lambda v: by_kind[v["kind"]][1](v),
            )
        if inner is None:
            return None
        enc, dec = inner
        return (
            lambda v: None if v is None else enc(v),
            lambda v: None if v is None else dec(v),
        )
    if is_dataclass(tp):
        return _dataclass_codec(tp)
    return None


def _dataclass_codec(cls) -> tuple[Callable, Callable]:
    """Encode and decode functions generated from the field list, shaped
    like hand-written ones: one dict display and one constructor call, so
    a record costs no more to convert than with field-by-field code."""
    hints = get_type_hints(cls)
    namespace = {"cls": cls}
    items = [f'"kind": {cls.kind!r}'] if hasattr(cls, "kind") else []
    args = []
    for f in fields(cls):
        codec = _codec(hints[f.name])
        if codec is None:
            items.append(f"{f.name!r}: obj.{f.name}")
            args.append(f"data[{f.name!r}]")
        else:
            namespace[f"encode_{f.name}"], namespace[f"decode_{f.name}"] = codec
            items.append(f"{f.name!r}: encode_{f.name}(obj.{f.name})")
            args.append(f"decode_{f.name}(data[{f.name!r}])")
    exec(
        f"def encode(obj): return {{{', '.join(items)}}}\n"
        f"def decode(data): return cls({', '.join(args)})",
        namespace,
    )
    return namespace["encode"], namespace["decode"]


def record_to_dict(record: TrajectoryRecord) -> dict:
    return _codec(TrajectoryRecord)[0](record)


def record_from_dict(d: dict) -> TrajectoryRecord:
    return _codec(TrajectoryRecord)[1](d)


def record_to_json_line(record: TrajectoryRecord) -> str:
    return json.dumps(record_to_dict(record), ensure_ascii=False, separators=(",", ":"))


def write_trajectories(path, records: Iterable[TrajectoryRecord], append: bool = False) -> None:
    mode = "a" if append else "w"
    with open(path, mode, encoding="utf-8") as fh:
        for record in records:
            fh.write(record_to_json_line(record))
            fh.write("\n")


def read_trajectories(path) -> list[TrajectoryRecord]:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(record_from_dict(json.loads(line)))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}: line {line_no}: malformed trajectory record: {exc}")
    return records
