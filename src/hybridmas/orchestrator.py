"""Execution state machines: the monolithic ReAct baseline, the
plan-supervised and advice-supervised hybrid architectures, and their
no-restart audit variants. run_trajectory returns a task's log line,
billed and, where the task has gold answers, scored.

Turn indices are 1-based. The loop owns finish[answer]: each reply is
parsed against the environment's tools plus FINISH_TOOL, and a finish call
is never stepped; its turn observes "Episode finished." and the task ends
finished with the call's argument as the final answer, once the turn has
passed the context checks. Verification runs after the environment step of
every turn divisible by the verification interval, while the episode is
still live; a finish short-circuits any verification scheduled for the
same turn. A plan or verify call that got a reply is recorded once, as the
initial plan or as one supervisor call, with its last reply and the usage
of every reply, also when its retry then failed. An applied intervention
resets the executor context, re-seeds it from its family's resume template
and appends its turn to the record's resets, the one record of which
interventions were applied.

Prompts are sent as tuples of parts, a part being a str or a group (a
tuple of str). Each turn is rendered once, as it lands, into a turn-log
block and a memory block, each a small head part followed by the
observation that the environment returned, the same str object, as its own
part; every later prompt reuses those same str objects. The executor
context is the seed's parts, then a blank line and the turn log since the
last reset as one group; verification prompts bind the turn log and the
memory as one group each. A group grows from one prompt to the next, so a
backend that counts tokens counts it on from its last count (see
ScriptedBackend). A seed is sent like any prompt. An executor call whose
usage.total_tokens is over the executor's context cap, or one whose
usage.prompt_tokens is below the previous executor call's since the reset
(the server truncated the prompt without saying so), ends the task as
out_of_context.

What the supervisor hands over is a set of prompt bindings, named by the
family parser that reads its reply: the plan call's plan, then each applied
intervention's replan as the plan (pevr), or its summary and advice (eva;
eva_nosummary binds the memory as the summary). A prompt binds its
template's placeholders by name: each takes the value that the supervisor
last handed over, or else the episode's own (the task's query, the tools,
the turn log since the last reset, the memory).
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import asdict
from typing import Optional

from . import accounting, analysis
from .backends import BackendError, ChatRequest, ContextOverflowError
from .core import (
    CONTINUE,
    FINISH_TOOL,
    INTERVENE,
    InitialPlanRecord,
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
FINISHED_OBSERVATION = "Episode finished."

_MALFORMED = (MalformedPlanError, MalformedVerdictError)

# Each family's executor seed, and each supervised family's verification
# template, verdict parser and resume template.
_SEED_TEMPLATES = {"monolithic": "direct_exec", "eva": "direct_exec", "pevr": "plan_exec"}
_VERIFIERS = {
    "pevr": ("verify_replan", parse_pevr_verdict, "replan_resume"),
    "eva": ("verify_advice", parse_eva_verdict, "advice_resume"),
}


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
    as its own part."""
    parts: list[str] = []
    for turn in turns:
        if parts:
            parts.append("\n\n")
        head = f"{turn.reasoning}\n" if turn.reasoning else ""
        if turn.action is not None:
            head += f"Tool call: {turn.action.render()}\n"
        parts += (head + "Observation: ", turn.observation)
    return tuple(parts)


class _Episode:
    def __init__(self, task, config, executor_backend, supervisor_backend, env):
        self.task = task
        self.config = config
        self.executor = executor_backend
        self.supervisor = supervisor_backend
        self.env = env
        self._tools = (*env.tools, FINISH_TOOL)
        if config.family != "monolithic" and supervisor_backend is None:
            raise ValueError(f"{config.architecture} requires a supervisor backend")
        # The bindings that the supervisor last handed over.
        self._handoff: dict = {}
        # The executor context: the seed's parts, the turn log's parts since
        # the last reset and the usage of the last executor call since it.
        self._seed: tuple = ()
        self._log: list[str] = []
        self._last_usage: Optional[TokenUsage] = None
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

    def _render(self, template: str) -> tuple:
        """Render template, each placeholder taking the value of its name
        that the supervisor last handed over, or else the episode's; render
        reads only the values that the template names."""
        return render(template, {
            "user_query": self.task.query,
            "available_tools": self.env.tool_prompt,
            "executor_context": self._log,
            "memory": self._memory,
            **self._handoff,
        })

    def _call(self, role, backend, prompt, t=0, parse=None, record=None):
        """Send prompt to backend for one model call in the given role
        (plan, execute or verify) at turn t (0 before the first turn).
        Without parse, return the response.

        With parse, output that parse rejects is asked for once more, and
        the call returns the parsed output, or None when both were
        rejected. Whenever a reply arrived, record(text, parsed, usage) is
        called once, with the last reply's text, the parsed output or None
        and the usage summed over every reply, also when the retry raised.
        A BackendError is logged once and ends the task, as out_of_context
        for a ContextOverflowError and as backend_error otherwise.
        """
        request = ChatRequest(prompt, self.config.sampling, self.config.seed)
        response = parsed = None
        try:
            response = backend.complete(request)
            if parse is None:
                return response
            usage = response.usage
            try:
                parsed = parse(response.text)
            except _MALFORMED:
                response = backend.complete(request)
                usage += response.usage
                try:
                    parsed = parse(response.text)
                except _MALFORMED:
                    logger.warning(
                        "task %s turn %d: %s output malformed twice", self.task.id, t, role
                    )
            return parsed
        except BackendError as exc:
            logger.warning(
                "task %s turn %d: %s call failed, ending the task: %s", self.task.id, t, role, exc
            )
            if isinstance(exc, ContextOverflowError):
                raise _Terminate("out_of_context")
            raise _Terminate("backend_error")
        finally:
            if parse is not None and response is not None:
                record(response.text, parsed, usage)

    # -- phases -----------------------------------------------------------

    def _seed_context(self) -> None:
        if self.config.family == "pevr":
            def record(text, plan, usage):
                self.record.initial_plan = InitialPlanRecord(plan or "", usage)

            plan = self._call("plan", self.supervisor, self._render("plan"), 0, parse_plan, record)
            if plan is None:
                raise _Terminate("backend_error")
            self._handoff = {"plan": plan}
        self._seed = self._render(_SEED_TEMPLATES[self.config.family])

    def _turn(self, t: int) -> None:
        """Run one executor turn."""
        prompt = (*self._seed, "\n\n", tuple(self._log)) if self._log else self._seed
        response = self._call("execute", self.executor, prompt, t)
        usage = response.usage

        finished = False
        try:
            call, reasoning = parse_tool_call(response.text, self._tools)
        except NoToolCallError:
            call, reasoning, observation = None, response.text, INVALID_TOOL_CALL_OBSERVATION
        else:
            finished = call.tool == FINISH_TOOL
            observation = FINISHED_OBSERVATION if finished else self.env.step(call)
        turn = TurnRecord(t, reasoning, call, observation, usage, response.wall_time_ms)

        self.record.turns.append(turn)
        last, self._last_usage = self._last_usage, usage
        if usage.total_tokens > self.config.executor_profile.context_cap:
            raise _Terminate("out_of_context")
        # Within one context the prompt only grows.
        if last is not None and usage.prompt_tokens < last.prompt_tokens:
            logger.warning(
                "task %s turn %d: the executor prompt fell from %d to %d tokens "
                "with no reset: the server truncated it, ending the task",
                self.task.id, t, last.prompt_tokens, usage.prompt_tokens,
            )
            raise _Terminate("out_of_context")
        self._extend(self._log, render_turn_log([turn]))
        self._extend(self._memory, format_memory([turn]))

        if finished:
            self.record.final_answer = call.argument
            raise _Terminate("finished")

        if self.config.family != "monolithic" and t % self.config.verify_interval == 0:
            self._verify(t)

    def _verify(self, t: int) -> None:
        """Verify the episode at turn t, and apply an INTERVENE outside
        audit: reset the executor context onto the resume seed rendered
        from the intervention's handoff, where eva_nosummary hands over the
        memory in place of the summary."""
        def record(text, parsed, usage):
            decision = VerifierDecision(CONTINUE, text) if parsed is None else parsed[0]
            self.record.supervisor_calls.append(SupervisorCallRecord(t, decision, usage))

        template, parser, resume = _VERIFIERS[self.config.family]
        parsed = self._call("verify", self.supervisor, self._render(template), t, parser, record)
        if parsed is None or parsed[0].verdict != INTERVENE or self.config.is_audit:
            return
        self._handoff = parsed[1]
        if self.config.architecture == "eva_nosummary":
            self._handoff["summary"] = self._memory
        self._seed, self._log, self._last_usage = self._render(resume), [], None
        self.record.resets.append(t)

    # -- entry point --------------------------------------------------------

    def run(self) -> TrajectoryRecord:
        max_turns = effective_max_turns(self.config, self.task)
        try:
            self._seed_context()
            for t in range(1, max_turns + 1):
                self._turn(t)
        except _Terminate as term:
            self.record.termination = term.reason
        self.record.totals = accounting.aggregate(
            self.record, self.config.executor_profile, self.config.supervisor_profile
        )
        return self.record


def run_trajectory(
    task: TaskInstance,
    config: RunConfig,
    executor_backend,
    supervisor_backend,
    env,
) -> TrajectoryRecord:
    """Execute one task under the configured architecture: its log line,
    scored where the task has gold answers and unscored otherwise. Each
    trajectory needs a fresh env: an environment keeps its state from step
    to step."""
    record = _Episode(task, config, executor_backend, supervisor_backend, env).run()
    if task.gold_answers:
        record.score = analysis.trajectory_score(task.benchmark_tag, record, task.gold_answers)
        record.success = analysis.task_success(task.benchmark_tag, record.score)
    return record
