"""Replay a trajectory record: rebuild, from the line alone, the replies
its calls got and the observations its environment returned, and run them
through run_trajectory, which scores the result as a run does. A line
replays to itself when it is byte for byte what this code makes of the
replies it stores: its totals are the bill of its usage under the config's
profiles, its resets and termination follow from its verdicts, and no state
outside the line steered the episode.

What a record holds, as replies:
- each executor turn answers its reasoning, then "\\nTool call: " and its
  action (the explicit label keeps a reasoning that itself ends in "Tool
  call:" intact), or its reasoning alone when it has no action, with the
  turn's usage and wall_time_ms;
- the plan call answers "<PLAN>text</PLAN>", or an empty reply when the
  text is empty, with its usage;
- each verify call answers its raw_text with its usage and, when the
  family parser refuses that text (malformed twice), once more with zero
  usage, unless the episode ended there on an error;
- once a role's replies have run out, its backend raises
  ContextOverflowError when the record ended out_of_context, and
  BackendError otherwise.

Where two failure paths leave the same record (a malformed verify reply
then a failed retry, or malformed twice then a failed executor call),
either replay gives that record. Replay counts no tokens and reads no
corpus: the environment's tools and tool prompt are class attributes.
"""

import json

from hybridmas.backends import BackendError, ChatResponse, ContextOverflowError
from hybridmas.core import (ARCHITECTURES, FINISH_TOOL, TokenUsage, record_from_dict,
                            record_to_json_line)
from hybridmas.orchestrator import run_trajectory
from hybridmas.prompting import MalformedVerdictError, parse_eva_verdict, parse_pevr_verdict

_PARSERS = {"pevr": parse_pevr_verdict, "eva": parse_eva_verdict}


class _Replies:
    """A backend that answers each call with its next reply."""

    def __init__(self, replies, termination):
        self.replies = list(replies)
        self._termination = termination

    def complete(self, request):
        if self.replies:
            return self.replies.pop(0)
        if self._termination == "out_of_context":
            raise ContextOverflowError(400, "no reply left to replay")
        raise BackendError("no reply left to replay")


class _Observations:
    """An environment of env_class's tools that returns the given
    observations in order."""

    def __init__(self, env_class, observations):
        self.tools = env_class.tools
        self.tool_prompt = env_class.tool_prompt
        self.observations = list(observations)

    def step(self, call):
        return self.observations.pop(0)


def _supervisor_replies(record):
    replies = []
    plan = record.initial_plan
    if plan is not None:
        replies.append(ChatResponse(f"<PLAN>{plan.text}</PLAN>" if plan.text else "", plan.usage))
    last_turn = record.turns[-1].t if record.turns else 0
    for call in record.supervisor_calls:
        replies.append(ChatResponse(call.decision.raw_text, call.usage))
        try:
            _PARSERS[ARCHITECTURES[record.architecture]](call.decision.raw_text)
        except MalformedVerdictError:
            ended_here = (call is record.supervisor_calls[-1] and call.at_turn == last_turn
                          and record.termination in ("backend_error", "out_of_context"))
            if not ended_here:
                replies.append(ChatResponse(call.decision.raw_text, TokenUsage()))
    return replies


def replay(record, run_config, task, env_class):
    """The record that run_trajectory makes of the replies and observations
    that record holds, under run_config for task. Every reply and
    observation must be consumed."""
    executor = _Replies(
        [ChatResponse(t.reasoning + (f"\nTool call: {t.action.render()}" if t.action else ""),
                      t.usage, t.wall_time_ms) for t in record.turns],
        record.termination)
    supervisor = _Replies(_supervisor_replies(record), record.termination)
    env = _Observations(env_class, [t.observation for t in record.turns
                                    if t.action is not None and t.action.tool != FINISH_TOOL])
    replayed = run_trajectory(task, run_config, executor,
                              supervisor if run_config.family != "monolithic" else None, env)
    assert executor.replies == supervisor.replies == env.observations == [], "unconsumed"
    return replayed


def replay_lines(cfg, tasks, lines):
    """Each log line replayed under the loaded config cfg, whose
    environment builder is a partial of its environment class, over the
    tasks by id, as a log line."""
    return [
        record_to_json_line(replay(record, cfg.run, tasks[record.task_id], cfg.environment.func))
        for record in (record_from_dict(json.loads(line)) for line in lines)
    ]
