"""Execution state machines: the monolithic ReAct baseline, the
plan-supervised and advice-supervised hybrid architectures, and their
no-restart audit variants.

Turn indices are 1-based. Verification runs after the environment step of
every turn divisible by the verification interval, while the episode is
still live; a finish short-circuits any verification scheduled for the
same turn. An applied intervention resets the executor context and
re-seeds it from the handoff.

Prompts are sent as tuples of text parts. Each turn is rendered once, as it
lands, into a turn-log block and a memory block, and every later prompt
reuses those same str objects: the executor context is the seed's parts,
then a blank line and the turn log; verification prompts splice in the
turn log and the memory.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import asdict
from functools import partial
from typing import Optional

from . import accounting
from .backends import BackendError, user_request
from .core import (
    CONTINUE,
    INTERVENE,
    AdviceMemoryHandoff,
    ExecutorContext,
    InitialPlanRecord,
    OutOfContextError,
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


def _turn_block(turn: TurnRecord) -> str:
    lines = []
    if turn.reasoning:
        lines.append(turn.reasoning)
    if turn.action is not None:
        lines.append(f"Tool call: {turn.action.render()}")
    lines.append(f"Observation: {turn.observation}")
    return "\n".join(lines)


def render_turn_log(turns) -> str:
    """The serialized turn log, exactly as the executor context renders it
    and verifiers receive it as the executor-context binding: one block per
    turn, separated by blank lines."""
    return "\n\n".join(_turn_block(turn) for turn in turns)


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
        self._request = partial(
            user_request,
            temperature=config.sampling.temperature,
            max_generated_tokens=config.sampling.max_generated_tokens,
            seed=config.seed,
        )
        self.audit = config.is_audit
        self.nosummary = config.architecture == "eva_nosummary"
        self.plan: Optional[Plan] = None
        self.ctx: Optional[ExecutorContext] = None
        # Parts of the memory of the whole trajectory: one block per turn
        # with a tool call, "\n\n" parts between blocks.
        self._memory: list[str] = []
        self.record = TrajectoryRecord(
            task_id=task.id,
            architecture=config.architecture,
            config_digest=run_config_digest(config),
        )

    # -- helpers ----------------------------------------------------------

    def _count_tokens(self, parts: tuple[str, ...]) -> int:
        return self.executor.count_tokens(parts) or 0

    def _call(self, role, backend, prompt, t=0, parse=None, rejected=None):
        """Send prompt to backend for one model call in the given role
        (plan, execute or verify) at turn t (0 before the first turn), and
        return (response, parsed output, usage).

        Output that parse rejects is asked for once more, and usage sums
        both attempts. Output rejected twice is passed to rejected(text,
        usage) and parses as None. A BackendError is logged once and ends
        the task as backend_error; if the retry raised it, the first
        attempt is passed to rejected before the task ends.
        """
        request = self._request(prompt)
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
            raise _Terminate("backend_error")

        prompt = render(
            "plan",
            {"user_query": self.task.query, "available_tools": self.env.tool_prompt},
        )
        _, plan, usage = self._call(
            "plan", self.supervisor, prompt, parse=parse_plan, rejected=rejected
        )
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
        cap = self.config.executor_profile.context_cap
        try:
            self.ctx = ExecutorContext(seed, cap, token_len=self._count_tokens(seed))
        except OutOfContextError:
            raise _Terminate("out_of_context")

    def _turn(self, t: int) -> bool:
        """Run one executor turn; returns False once the episode is over."""
        response, _, usage = self._call("execute", self.executor, self.ctx.parts(), t)
        new_token_len = max(self.ctx.token_len, usage.total_tokens)

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
        try:
            self.ctx.append_turn(render_turn_log([turn]), new_token_len)
        except OutOfContextError:
            raise _Terminate("out_of_context")
        memory = format_memory([turn])
        if memory:
            if self._memory:
                self._memory.append("\n\n")
            self._memory.append(memory)

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
                "executor_context": self.ctx.log,
                "memory": self._memory,
            }
        else:
            template, parser = "verify_advice", parse_eva_verdict
            bindings = {
                "user_query": self.task.query,
                "executor_context": self.ctx.log,
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
        try:
            self.ctx.reset(seed, self._count_tokens(seed))
        except OutOfContextError:
            # The resume seed alone exceeds the cap: nothing was applied.
            self.record.supervisor_calls.append(
                SupervisorCallRecord(t, recorded, usage, applied=False)
            )
            raise _Terminate("out_of_context")
        self.record.supervisor_calls.append(
            SupervisorCallRecord(t, recorded, usage, applied=True)
        )
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
