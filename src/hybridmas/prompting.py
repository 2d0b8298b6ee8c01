"""Prompt template rendering and parsing of structured model outputs.

Templates are packaged verbatim as text assets, one file per prompt, using
``{{ name }}`` placeholder syntax. Rendering substitutes placeholder spans
and touches nothing else, so prompt bytes stay auditable; a rendered prompt
is a tuple of parts whose join is the prompt, a part being a str or a group
(a tuple of str, joined in its place).

All parsers are pure functions. Verdict tokens (CONTINUE / INTERVENE) are
matched case-sensitively: a lax grammar would corrupt audit statistics.
"""

from __future__ import annotations

import re
from functools import lru_cache
from importlib import resources
from typing import Mapping, Sequence

from .core import CONTINUE, INTERVENE, ToolCall, TurnRecord, VerifierDecision

TEMPLATE_IDS = (
    "plan",
    "direct_exec",
    "plan_exec",
    "advice_resume",
    "replan_resume",
    "verify_replan",
    "verify_advice",
)

_PLACEHOLDER_RE = re.compile(r"\{\{\s*([a-z_]+)\s*\}\}")


class PromptError(Exception):
    pass


class UnknownTemplateError(PromptError):
    pass


class MalformedPlanError(PromptError):
    pass


class MalformedVerdictError(PromptError):
    pass


class NoToolCallError(PromptError):
    pass


@lru_cache(maxsize=None)
def load_asset(name: str) -> str:
    """Return a packaged text asset byte-for-byte."""
    path = resources.files(__package__).joinpath("templates", f"{name}.txt")
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise UnknownTemplateError(f"no template asset named {name!r}")


def template_text(template_id: str) -> str:
    if template_id not in TEMPLATE_IDS:
        raise UnknownTemplateError(f"unknown template {template_id!r}")
    return load_asset(template_id)


@lru_cache(maxsize=None)
def _template_pieces(template_id: str) -> tuple[tuple[str, str | None], ...]:
    """The template as (literal, placeholder name) pairs in order; the last
    pair's name is None."""
    split = _PLACEHOLDER_RE.split(template_text(template_id))
    names = split[1::2] + [None]
    return tuple(zip(split[::2], names))


def render(
    template_id: str, bindings: Mapping[str, str | Sequence[str]]
) -> tuple[str | tuple[str, ...], ...]:
    """Substitute ``{{ name }}`` spans with bindings, leaving all other
    template bytes untouched.

    The prompt comes back as its parts, to be joined as they are
    (backends.join_parts): the template's literal spans (the same str
    objects on every call) with each binding in its place as one part, a
    str as itself and a sequence of str as a group, the tuple of its strs.
    Each placeholder is looked up in bindings, so a placeholder without a
    binding is a KeyError that names it, and a binding that names no
    placeholder is not read.
    """
    parts: list[str | tuple[str, ...]] = []
    for literal, name in _template_pieces(template_id):
        if literal:
            parts.append(literal)
        if name is not None:
            value = bindings[name]
            parts.append(value if isinstance(value, str) else tuple(value))
    return tuple(parts)


def _extract_block(text: str, tag: str) -> str | None:
    """Content between the first <tag> and the matching </tag>, or None."""
    opening, closing = f"<{tag}>", f"</{tag}>"
    start = text.find(opening)
    if start < 0:
        return None
    end = text.find(closing, start + len(opening))
    if end < 0:
        return None
    return text[start + len(opening):end]


def parse_plan(text: str) -> str:
    """Extract the plan between <PLAN> tags, trimmed of surrounding
    whitespace."""
    block = _extract_block(text, "PLAN")
    if block is None:
        raise MalformedPlanError("no <PLAN> block found")
    body = block.strip()
    if not body:
        raise MalformedPlanError("empty <PLAN> block")
    return body


def _first_token(text: str) -> str | None:
    tokens = text.split()
    return tokens[0] if tokens else None


def _parse_verdict(
    text: str, tags: Mapping[str, str]
) -> tuple[VerifierDecision, dict[str, str] | None]:
    """Parse a verification output: CONTINUE, or INTERVENE with a block per
    key of tags. Returns the decision and its handoff (None for CONTINUE):
    each block's content, byte-exact, bound to the name that tags gives it.
    A block that is missing, or blank once stripped, makes the verdict
    malformed: a handoff hands over nothing without it."""
    token = _first_token(text)
    if token == "CONTINUE":
        return VerifierDecision(CONTINUE, text), None
    if token != "INTERVENE":
        raise MalformedVerdictError(f"first token is neither CONTINUE nor INTERVENE: {token!r}")
    handoff = {}
    for tag, name in tags.items():
        block = _extract_block(text, tag)
        if not block or block.isspace():
            raise MalformedVerdictError(f"INTERVENE without a non-blank <{tag}> block")
        handoff[name] = block
    return VerifierDecision(INTERVENE, text), handoff


def parse_pevr_verdict(text: str) -> tuple[VerifierDecision, dict[str, str] | None]:
    """Parse a plan-based verification output: an INTERVENE hands over its
    <REPLAN> block as the resume prompt's plan."""
    return _parse_verdict(text, {"REPLAN": "plan"})


def parse_eva_verdict(text: str) -> tuple[VerifierDecision, dict[str, str] | None]:
    """Parse a query-based verification output: an INTERVENE hands over its
    <SUMMARY> and <ADVICE> blocks as the resume prompt's summary and
    advice."""
    return _parse_verdict(text, {"SUMMARY": "summary", "ADVICE": "advice"})


_TOOL_CALL_LABEL_RE = re.compile(r"tool\s*call\s*:?\s*$", re.IGNORECASE)


@lru_cache(maxsize=64)
def _tool_call_pattern(tool_names: tuple[str, ...]) -> re.Pattern:
    """A tool name, longest first so that no name shadows a longer one that
    it begins, then an opening bracket."""
    names = sorted(tool_names, key=len, reverse=True)
    return re.compile(r"\b(" + "|".join(re.escape(n) for n in names) + r")\[")


def parse_tool_call(text: str, tool_names: Sequence[str]) -> tuple[ToolCall, str]:
    """Extract the last ``name[argument]`` call for a declared tool.

    The argument runs from the opening bracket to the final ``]`` in the
    text, so inner brackets are allowed. Returns (call, reasoning) where
    reasoning is the text preceding the call with any trailing
    "Tool call:" label removed.
    """
    if not tool_names:
        raise NoToolCallError("no declared tools")
    pattern = _tool_call_pattern(tuple(tool_names))
    last_close = text.rfind("]")
    chosen = None
    for match in pattern.finditer(text):
        if last_close >= match.end():
            chosen = match
    if chosen is None:
        raise NoToolCallError("no declared tool name followed by brackets")
    argument = text[chosen.end():last_close]
    reasoning = _TOOL_CALL_LABEL_RE.sub("", text[: chosen.start()].rstrip()).strip()
    return ToolCall(chosen.group(1), argument), reasoning


def format_memory(turns: Sequence[TurnRecord]) -> tuple[str, ...]:
    """Render the tool-call log as text parts: one block per acted turn, in
    order, with the call and its observed output, "\n\n" parts between
    blocks. A block is a head part ending in "Output: " and then the
    turn's observation, the same str object, as its own part. Reasoning
    traces are excluded."""
    parts: list[str] = []
    for turn in turns:
        if turn.action is None:
            continue
        if parts:
            parts.append("\n\n")
        parts += (f"Tool call: {turn.action.render()}\nOutput: ", turn.observation)
    return tuple(parts)
