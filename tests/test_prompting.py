"""Template rendering and output-grammar parsing."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from hybridmas.backends import join_parts
from hybridmas.core import TokenUsage, ToolCall, TurnRecord
from hybridmas.prompting import (
    TEMPLATE_IDS,
    MalformedPlanError,
    MalformedVerdictError,
    NoToolCallError,
    UnknownTemplateError,
    format_memory,
    parse_eva_verdict,
    parse_pevr_verdict,
    parse_plan,
    parse_tool_call,
    render,
    template_text,
)

PLACEHOLDER_RE = re.compile(r"\{\{\s*([a-z_]+)\s*\}\}")

WIKI_TOOLS = ("search", "lookup", "finish")


def full_bindings(template_id: str) -> dict:
    return {name: f"<<{name}>>" for name in PLACEHOLDER_RE.findall(template_text(template_id))}


class TestRender:
    def test_plan_substitutes_query(self):
        text = "".join(render("plan", {"user_query": "Q", "available_tools": "T"}))
        assert "- User query:\nQ" in text
        assert "<TOOLS>\nT\n</TOOLS>" in text
        assert "{{" not in text

    def test_missing_binding(self):
        """A placeholder without a binding is a KeyError that names it."""
        with pytest.raises(KeyError) as exc_info:
            render("plan", {"user_query": "Q"})
        assert exc_info.value.args == ("available_tools",)

    def test_unexpected_binding(self):
        """A binding that names no placeholder is not read."""
        class Bindings(dict):
            def __getitem__(self, name):
                read.append(name)
                return super().__getitem__(name)

        read = []
        bindings = Bindings(user_query="Q", available_tools="T", bogus="B")
        assert render("plan", bindings) == render("plan", {"user_query": "Q",
                                                          "available_tools": "T"})
        assert "bogus" not in read and set(read) == {"user_query", "available_tools"}

    def test_unknown_template(self):
        with pytest.raises(UnknownTemplateError):
            render("nonexistent", {})

    def test_verify_advice_contains_intervene_line(self):
        text = "".join(render("verify_advice", full_bindings("verify_advice")))
        assert "INTERVENE" in text.splitlines()

    def test_sequence_binding_is_one_group_part(self):
        memory = ["Tool call: search[a]", "\n\n", "Tool call: search[b]"]
        bindings = {**full_bindings("verify_advice"), "memory": memory}
        parts = render("verify_advice", bindings)
        joined = render("verify_advice", {**bindings, "memory": "".join(memory)})
        # The sequence is one part, the tuple of its strs, in the place of
        # the str binding; the joined text is the same.
        groups = [part for part in parts if not isinstance(part, str)]
        assert groups == [tuple(memory)]
        assert [part if isinstance(part, str) else "".join(part) for part in parts] == list(joined)
        assert join_parts(parts) == "".join(joined)
        # Template spans and bindings come back as the same str objects on
        # every call.
        again = render("verify_advice", bindings)
        assert len(again) == len(parts)
        assert all(a is b for a, b in zip(parts, again) if isinstance(a, str))
        assert all(a is b for a, b in zip(groups[0], memory))

    @pytest.mark.parametrize("template_id", TEMPLATE_IDS)
    def test_render_preserves_bytes_outside_placeholders(self, template_id):
        # Oracle: interleave the template's static spans with binding values.
        template = template_text(template_id)
        bindings = full_bindings(template_id)
        expected_parts = []
        cursor = 0
        for match in PLACEHOLDER_RE.finditer(template):
            expected_parts.append(template[cursor:match.start()])
            expected_parts.append(bindings[match.group(1)])
            cursor = match.end()
        expected_parts.append(template[cursor:])
        assert "".join(render(template_id, bindings)) == "".join(expected_parts)


class TestParsePlan:
    def test_basic(self):
        assert parse_plan("<PLAN>\n1. search X\n</PLAN>") == "1. search X"

    def test_missing_tags(self):
        with pytest.raises(MalformedPlanError):
            parse_plan("no tags here")

    def test_surrounding_noise_ignored(self):
        assert parse_plan("preamble <PLAN>a</PLAN> trailing") == "a"

    def test_empty_body(self):
        with pytest.raises(MalformedPlanError):
            parse_plan("<PLAN>   </PLAN>")


class TestParsePevrVerdict:
    def test_continue(self):
        decision, replan = parse_pevr_verdict("CONTINUE")
        assert decision.verdict == "continue"
        assert replan is None

    def test_intervene_with_replan(self):
        decision, replan = parse_pevr_verdict("INTERVENE\n<REPLAN>do steps 3–5</REPLAN>")
        assert decision.verdict == "intervene"
        assert replan == {"plan": "do steps 3–5"}

    def test_intervene_without_payload(self):
        with pytest.raises(MalformedVerdictError):
            parse_pevr_verdict("INTERVENE")

    def test_lowercase_is_malformed(self):
        with pytest.raises(MalformedVerdictError):
            parse_pevr_verdict("continue")

    def test_rejects_advice_shape(self):
        with pytest.raises(MalformedVerdictError):
            parse_pevr_verdict("INTERVENE\n<SUMMARY>s</SUMMARY>\n<ADVICE>a</ADVICE>")

    @pytest.mark.parametrize("block", ["", "  \n ", "\t"])
    def test_blank_replan_is_malformed(self, block):
        with pytest.raises(MalformedVerdictError):
            parse_pevr_verdict(f"INTERVENE\n<REPLAN>{block}</REPLAN>")


class TestParseEvaVerdict:
    def test_continue(self):
        decision, handoff = parse_eva_verdict("CONTINUE")
        assert decision.verdict == "continue"
        assert handoff is None

    def test_intervene_with_summary_and_advice(self):
        decision, handoff = parse_eva_verdict("INTERVENE\n<SUMMARY>s</SUMMARY>\n<ADVICE>a</ADVICE>")
        assert decision.verdict == "intervene"
        assert handoff == {"summary": "s", "advice": "a"}

    def test_missing_summary(self):
        with pytest.raises(MalformedVerdictError):
            parse_eva_verdict("INTERVENE\n<ADVICE>a</ADVICE>")

    def test_rejects_replan_shape(self):
        with pytest.raises(MalformedVerdictError):
            parse_eva_verdict("INTERVENE\n<REPLAN>p</REPLAN>")

    @pytest.mark.parametrize("summary, advice", [("", "a"), ("s", ""), (" \n", "a"),
                                                 ("s", "\t "), (" ", " ")])
    def test_blank_summary_or_advice_is_malformed(self, summary, advice):
        with pytest.raises(MalformedVerdictError):
            parse_eva_verdict(
                f"INTERVENE\n<SUMMARY>{summary}</SUMMARY>\n<ADVICE>{advice}</ADVICE>"
            )


class TestParseToolCall:
    def test_reasoning_and_call(self):
        call, reasoning = parse_tool_call(
            "I should look him up.\nTool call: search[Richard Feynman]", WIKI_TOOLS
        )
        assert call == ToolCall("search", "Richard Feynman")
        assert reasoning == "I should look him up."

    def test_bare_finish(self):
        call, reasoning = parse_tool_call("finish[yes]", WIKI_TOOLS)
        assert call == ToolCall("finish", "yes")
        assert reasoning == ""

    def test_nested_brackets(self):
        call, _ = parse_tool_call("lookup[prize [Nobel]]", WIKI_TOOLS)
        assert call == ToolCall("lookup", "prize [Nobel]")

    def test_last_call_wins(self):
        call, _ = parse_tool_call(
            "Earlier I ran search[A], so now:\nTool call: lookup[B]", WIKI_TOOLS
        )
        assert call == ToolCall("lookup", "B")

    def test_no_call(self):
        with pytest.raises(NoToolCallError):
            parse_tool_call("I am not sure what to do.", WIKI_TOOLS)

    def test_undeclared_tool(self):
        with pytest.raises(NoToolCallError):
            parse_tool_call("teleport[x]", WIKI_TOOLS)

    def test_tool_name_inside_word_not_matched(self):
        with pytest.raises(NoToolCallError):
            parse_tool_call("research[x] is not a tool call", ("search",))


class TestFormatMemory:
    def test_empty(self):
        assert format_memory([]) == ()

    def test_single_turn(self):
        turns = [TurnRecord(1, "hmm", ToolCall("search", "X"), "X is a thing.", TokenUsage())]
        memory = "".join(format_memory(turns))
        assert "search[X]" in memory
        assert "X is a thing." in memory
        assert "hmm" not in memory

    def test_ordering(self):
        turns = [
            TurnRecord(1, "", ToolCall("search", "first"), "one", TokenUsage()),
            TurnRecord(2, "", ToolCall("lookup", "second"), "two", TokenUsage()),
        ]
        memory = "".join(format_memory(turns))
        assert memory.index("search[first]") < memory.index("lookup[second]")

    def test_actionless_turns_excluded(self):
        turns = [
            TurnRecord(1, "garbled output", None, "Invalid tool call format.", TokenUsage()),
            TurnRecord(2, "", ToolCall("search", "x"), "obs", TokenUsage()),
        ]
        memory = "".join(format_memory(turns))
        assert "garbled" not in memory
        assert memory.count("Tool call:") == 1

    def test_joined_text(self):
        turns = [
            TurnRecord(1, "garbled output", None, "Invalid tool call format.", TokenUsage()),
            TurnRecord(2, "", ToolCall("search", "x"), "obs x", TokenUsage()),
            TurnRecord(3, "think", ToolCall("lookup", "y"), "", TokenUsage()),
            TurnRecord(4, "think", ToolCall("finish", "z"), "done", TokenUsage()),
        ]
        assert "".join(format_memory(turns)) == (
            "Tool call: search[x]\nOutput: obs x\n\n"
            "Tool call: lookup[y]\nOutput: \n\n"
            "Tool call: finish[z]\nOutput: done"
        )

    def test_observation_is_its_own_part(self):
        observation = "".join(["an observation ", "built at run time"])
        turn = TurnRecord(1, "r", ToolCall("search", "x"), observation, TokenUsage())
        parts = format_memory([turn])
        assert parts == ("Tool call: search[x]\nOutput: ", observation)
        assert parts[1] is observation


# --- property suites -------------------------------------------------------

tag_free_text = st.text(
    alphabet=st.characters(blacklist_characters="<>", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=80,
)


@settings(max_examples=300)
@given(tag_free_text, tag_free_text)
def test_eva_round_trip_is_exact(summary, advice):
    text = "INTERVENE\n<SUMMARY>" + summary + "</SUMMARY>\n<ADVICE>" + advice + "</ADVICE>"
    if not (summary.strip() and advice.strip()):
        with pytest.raises(MalformedVerdictError):
            parse_eva_verdict(text)
    else:
        assert parse_eva_verdict(text)[1] == {"summary": summary, "advice": advice}


@settings(max_examples=300)
@given(tag_free_text)
def test_pevr_round_trip_is_exact(replan):
    text = "INTERVENE\n<REPLAN>" + replan + "</REPLAN>"
    if not replan.strip():
        with pytest.raises(MalformedVerdictError):
            parse_pevr_verdict(text)
    else:
        assert parse_pevr_verdict(text)[1] == {"plan": replan}


@settings(max_examples=300)
@given(tag_free_text)
def test_plan_round_trip_trims(body):
    trimmed = body.strip()
    if not trimmed:
        with pytest.raises(MalformedPlanError):
            parse_plan("<PLAN>" + body + "</PLAN>")
    else:
        assert parse_plan("<PLAN>" + body + "</PLAN>") == trimmed


@settings(max_examples=300)
@given(tag_free_text, tag_free_text)
def test_cross_rejection(summary, advice):
    eva_body = "INTERVENE\n<SUMMARY>" + summary + "</SUMMARY>\n<ADVICE>" + advice + "</ADVICE>"
    pevr_body = "INTERVENE\n<REPLAN>" + summary + "</REPLAN>"
    with pytest.raises(MalformedVerdictError):
        parse_pevr_verdict(eva_body)
    with pytest.raises(MalformedVerdictError):
        parse_eva_verdict(pevr_body)


argument_text = st.text(
    alphabet=st.characters(blacklist_characters="[]<>", blacklist_categories=("Cs",)),
    max_size=40,
)
reasoning_text = st.text(
    alphabet=st.characters(blacklist_characters="[]", blacklist_categories=("Cs",)),
    max_size=60,
).filter(lambda s: not re.search(r"tool\s*call\s*:?\s*$", s.rstrip(), re.IGNORECASE))


@settings(max_examples=300)
@given(reasoning_text, st.sampled_from(WIKI_TOOLS), argument_text)
def test_tool_call_round_trip(reasoning, name, argument):
    text = f"{reasoning}\nTool call: {name}[{argument}]"
    call, parsed_reasoning = parse_tool_call(text, WIKI_TOOLS)
    assert call == ToolCall(name, argument)
    assert parsed_reasoning == reasoning.strip()


@settings(max_examples=200)
@given(st.text(max_size=120))
def test_parsers_are_pure(text):
    for parser in (parse_plan, parse_pevr_verdict, parse_eva_verdict):
        try:
            first = parser(text)
        except (MalformedPlanError, MalformedVerdictError) as exc:
            first = type(exc)
        try:
            second = parser(text)
        except (MalformedPlanError, MalformedVerdictError) as exc:
            second = type(exc)
        assert first == second
