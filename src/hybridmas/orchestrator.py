"""Execution state machines: the monolithic ReAct baseline, the
plan-supervised and advice-supervised hybrid architectures, and their
no-restart audit variants.

Turn indices are 1-based. Verification runs after the environment step of
every turn divisible by the verification interval, while the episode is
still live; a finish short-circuits any verification scheduled for the
same turn. An applied intervention resets the executor context and
re-seeds it from the handoff.

Prompts are sent as tuples of text parts. Each turn is rendered once, as it
lands, into a turn-log block and a memory block, each a small head part
followed by the observation that the environment returned, the same str
object, as its own part; every later prompt reuses those same str objects.
The executor context is the seed's parts, then a blank line and the turn
log since the last reset; verification prompts splice in the turn log and
the memory. A seed over the executor's context cap, or an executor call
whose largest usage.total_tokens since the reset is over it, ends the task
as out_of_context.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import asdict
from typing import Optional

from . import accounting
from .backends import BackendError, ChatRequest, ContextOverflowError
from .core import (
    CONTINUE,
    INTERVENE,
    AdviceMemoryHandoff,
    InitialPlanRecord,
    Plan,
    ReplanHandoff,
    RunConfig,
    SupervisorCallRecord,
    TaskInstance,
    TokenUsage,
    TrajectoryRecord,
    TurnRecord,
    VerifierDecision,
)
from .prompting import (
    MalformedPlanError,
    MalformedVerdictError,
    NoToolCallError,
    format_memory,
    parse_eva_verdict,
    parse_pevr_verdict,
    parse_plan,
    parse_tool_call,
    render,
)

logger = logging.getLogger(__name__)

DEFAULT_MAX_TURNS = {"hotpotqa": 10, "fanoutqa": 20, "generic": 40}

INVALID_TOOL_CALL_OBSERVATION = (
    "Invalid tool call format. Emit exactly one call as tool[argument]."
)

_PEVR_FAMILY = ("pevr", "pevr_audit")
_EVA_FAMILY = ("eva", "eva_nosummary", "eva_audit")
_MALFORMED = (MalformedPlanError, MalformedVerdictError)


def effective_max_turns(config: RunConfig, task: TaskInstance) -> int:
    if config.max_turns is not None:
        return config.max_turns
    return DEFAULT_MAX_TURNS[task.benchmark_tag]


def run_config_digest(config: RunConfig) -> str:
    payload = {
        "architecture": config.architecture,
        "max_turns": config.max_turns,
        "verify_interval": config.verify_interval,
        "environment_id": config.environment_id,
        "seed": config.seed,
        "sampling": asdict(config.sampling),
        "executor": asdict(config.executor_profile),
        "supervisor": (
            asdict(config.supervisor_profile)
            if config.supervisor_profile is not None
            else None
        ),
    }
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


class _Terminate(Exception):
    """Internal control flow: ends the episode with the given reason."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def render_turn_log(turns) -> tuple[str, ...]:
    """The serialized turn log as text parts, exactly as the executor
    context renders it and verifiers receive it as the executor-context
    binding: one block per turn, "\n\n" parts between blocks. A block is a
    head part (the reasoning if any, the tool call if any, then
    "Observation: ") and then the turn's observation, the same str object,
    as its own part; a None observation is rendered as "None" in the
    head."""
    parts: list[str] = []
    for turn in turns:
        if parts:
            parts.append("\n\n")
        head = f"{turn.reasoning}\n" if turn.reasoning else ""
        if turn.action is not None:
            head += f"Tool call: {turn.action.render()}\n"
        if turn.observation is None:
            parts.append(head + "Observation: None")
        else:
            parts += (head + "Observation: ", turn.observation)
    return tuple(parts)


class _Episode:
    def __init__(self, task, config, executor_backend, supervisor_backend, env):
        self.task = task
        self.config = config
        self.executor = executor_backend
        self.supervisor = supervisor_backend
        self.env = env
        self.family = (
            "pevr"
            if config.architecture in _PEVR_FAMILY
            else "eva"
            if config.architecture in _EVA_FAMILY
            else "monolithic"
        )
        if self.family != "monolithic" and supervisor_backend is None:
            raise ValueError(f"{config.architecture} requires a supervisor backend")
        self.audit = config.is_audit
        self.nosummary = config.architecture == "eva_nosummary"
        self.plan: Optional[Plan] = None
        # The executor context: the seed's parts, the turn log's parts since
        # the last reset and the largest context length since the reset.
        self._seed: tuple[str, ...] = ()
        self._log: list[str] = []
        self._context_tokens = 0
        # The whole trajectory's memory, one block per turn with a tool call.
        self._memory: list[str] = []
        self.record = TrajectoryRecord(
            task_id=task.id,
            architecture=config.architecture,
            config_digest=run_config_digest(config),
        )

    # -- helpers ----------------------------------------------------------

    @staticmethod
    def _extend(parts: list[str], block: tuple[str, ...]) -> None:
        """Append a block's parts, after a "\n\n" part when parts already
        holds a block; an empty block appends nothing."""
        if parts and block:
            parts.append("\n\n")
        parts += block

    def _reseed(self, seed: tuple[str, ...]) -> bool:
        """Start a fresh executor context from seed; False, changing nothing,
        when the seed alone (0 tokens if uncountable) exceeds the cap."""
        tokens = self.executor.count_tokens(seed) or 0
        if tokens > self.config.executor_profile.context_cap:
            return False
        self._seed, self._log, self._context_tokens = seed, [], tokens
        return True

    def _call(self, role, backend, prompt, t=0, parse=None, rejected=None):
        """Send prompt to backend for one model call in the given role
        (plan, execute or verify) at turn t (0 before the first turn), and
        return (response, parsed output, usage).

        Output that parse rejects is asked for once more, and usage sums
        both attempts. Output rejected twice is passed to rejected(text,
        usage) and parses as None. A BackendError is logged once and ends
        the task, as out_of_context for a ContextOverflowError and as
        backend_error otherwise; if the retry raised it, the first attempt
        is passed to rejected before the task ends.
        """
        request = ChatRequest(prompt, self.config.sampling, self.config.seed)
        first = None
        try:
            response = backend.complete(request)
            if parse is None:
                return response, None, response.usage
            try:
                return response, parse(response.text), response.usage
            except _MALFORMED:
                first = response
                response = backend.complete(request)
        except BackendError as exc:
            logger.warning(
                "task %s turn %d: %s call failed, ending the task: %s", self.task.id, t, role, exc
            )
            if first is not None:
                rejected(first.text, first.usage)
            if isinstance(exc, ContextOverflowError):
                raise _Terminate("out_of_context")
            raise _Terminate("backend_error")
        usage = first.usage + response.usage
        try:
            return response, parse(response.text), usage
        except _MALFORMED:
            logger.warning("task %s turn %d: %s output malformed twice", self.task.id, t, role)
            rejected(response.text, usage)
            return response, None, usage

    # -- phases -----------------------------------------------------------

    def _initial_plan(self) -> Plan:
        def rejected(text, usage):
            self.record.initial_plan = InitialPlanRecord("", usage)

        prompt = render(
            "plan",
            {"user_query": self.task.query, "available_tools": self.env.tool_prompt},
        )
        _, plan, usage = self._call(
            "plan", self.supervisor, prompt, parse=parse_plan, rejected=rejected
        )
        if plan is None:
            raise _Terminate("backend_error")
        self.record.initial_plan = InitialPlanRecord(plan.text, usage)
        return plan

    def _seed_context(self) -> None:
        if self.family == "pevr":
            self.plan = self._initial_plan()
            seed = render(
                "plan_exec",
                {
                    "user_query": self.task.query,
                    "plan": self.plan.text,
                    "available_tools": self.env.tool_prompt,
                },
            )
        else:
            seed = render(
                "direct_exec",
                {"user_query": self.task.query, "available_tools": self.env.tool_prompt},
            )
        if not self._reseed(seed):
            raise _Terminate("out_of_context")

    def _turn(self, t: int) -> bool:
        """Run one executor turn; returns False once the episode is over."""
        prompt = (*self._seed, "\n\n", *self._log) if self._log else self._seed
        response, _, usage = self._call("execute", self.executor, prompt, t)

        observation = None
        try:
            call, reasoning = parse_tool_call(response.text, self.env.tools)
        except NoToolCallError:
            turn = TurnRecord(
                t, response.text, None, INVALID_TOOL_CALL_OBSERVATION, usage,
                response.wall_time_ms,
            )
        else:
            observation = self.env.step(call)
            turn = TurnRecord(
                t, reasoning, call, observation.text, usage, response.wall_time_ms
            )

        self.record.turns.append(turn)
        self._context_tokens = max(self._context_tokens, usage.total_tokens)
        if self._context_tokens > self.config.executor_profile.context_cap:
            raise _Terminate("out_of_context")
        self._extend(self._log, render_turn_log([turn]))
        self._extend(self._memory, format_memory([turn]))

        if observation is not None and observation.terminal:
            self.record.final_answer = observation.final_answer
            self.record.termination = "finished"
            return False

        if self.family != "monolithic" and t % self.config.verify_interval == 0:
            self._verify(t)
        return True

    def _verify(self, t: int) -> None:
        def rejected(text, usage):
            self.record.supervisor_calls.append(
                SupervisorCallRecord(t, VerifierDecision(CONTINUE, None, text), usage, False)
            )

        if self.family == "pevr":
            template, parser = "verify_replan", parse_pevr_verdict
            bindings = {
                "plan": self.plan.text,
                "executor_context": self._log,
                "memory": self._memory,
            }
        else:
            template, parser = "verify_advice", parse_eva_verdict
            bindings = {
                "user_query": self.task.query,
                "executor_context": self._log,
                "memory": self._memory,
            }
        _, decision, usage = self._call(
            "verify", self.supervisor, render(template, bindings), t, parser, rejected
        )
        if decision is None:
            return
        if decision.verdict != INTERVENE or self.audit:
            self.record.supervisor_calls.append(
                SupervisorCallRecord(t, decision, usage, applied=False)
            )
            return
        self._apply_intervention(t, decision, usage)

    def _apply_intervention(self, t: int, decision: VerifierDecision, usage: TokenUsage) -> None:
        if self.family == "pevr":
            new_plan = Plan(decision.payload.replan.text, origin="replan", replan_turn=t)
            recorded = VerifierDecision(INTERVENE, ReplanHandoff(new_plan), decision.raw_text)
            seed = render(
                "replan_resume",
                {
                    "user_query": self.task.query,
                    "replan": new_plan.text,
                    "memory": self._memory,
                    "available_tools": self.env.tool_prompt,
                },
            )
        else:
            advice = decision.payload.advice
            if self.nosummary:
                summary_binding = self._memory
                payload = AdviceMemoryHandoff(advice)
                recorded = VerifierDecision(INTERVENE, payload, decision.raw_text)
            else:
                summary_binding = decision.payload.summary
                recorded = decision
            seed = render(
                "advice_resume",
                {
                    "user_query": self.task.query,
                    "summary": summary_binding,
                    "advice": advice,
                    "available_tools": self.env.tool_prompt,
                },
            )
        # A resume seed that alone exceeds the cap is not applied.
        applied = self._reseed(seed)
        self.record.supervisor_calls.append(SupervisorCallRecord(t, recorded, usage, applied))
        if not applied:
            raise _Terminate("out_of_context")
        self.record.resets.append(t)
        if self.family == "pevr":
            self.plan = recorded.payload.replan

    # -- entry point --------------------------------------------------------

    def run(self) -> TrajectoryRecord:
        max_turns = effective_max_turns(self.config, self.task)
        self.env.reset(self.task)
        try:
            self._seed_context()
            for t in range(1, max_turns + 1):
                if not self._turn(t):
                    break
        except _Terminate as term:
            self.record.termination = term.reason
        return self._finalize()

    def _finalize(self) -> TrajectoryRecord:
        profiles = {"executor": self.config.executor_profile}
        if self.config.supervisor_profile is not None:
            profiles["supervisor"] = self.config.supervisor_profile
        self.record.totals = accounting.aggregate(self.record, profiles)
        return self.record


def run_trajectory(
    task: TaskInstance,
    config: RunConfig,
    executor_backend,
    supervisor_backend=None,
    env=None,
) -> TrajectoryRecord:
    """Execute one task under the configured architecture."""
    if env is None:
        raise ValueError("an environment is required")
    return _Episode(task, config, executor_backend, supervisor_backend, env).run()
