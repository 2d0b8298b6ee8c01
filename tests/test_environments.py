"""Wiki environment semantics, the scripted environment, and task loading."""

import hashlib
import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from hybridmas import environments
from hybridmas.core import ToolCall
from hybridmas.environments import (
    NO_MORE_RESULTS,
    OBSERVATION_LIMIT,
    TRUNCATION_MARKER,
    SchemaViolationError,
    ScriptedEnvironment,
    WikiCorpus,
    WikiEnvironment,
    load_tasks,
    normalize_title,
    split_sentences,
    truncate_observation,
)
from conftest import CURIE_SENTENCES, FEYNMAN_SENTENCES, corpus_snapshot, make_corpus


class TestSentenceSegmentation:
    def test_splits_on_terminators_followed_by_space(self):
        assert split_sentences("A. B! C?") == ["A.", "B!", "C?"]

    def test_keeps_inner_periods(self):
        text = "The cache occupies approximately 4.5 GB. Weights take 2 GB."
        assert split_sentences(text) == [
            "The cache occupies approximately 4.5 GB.",
            "Weights take 2 GB.",
        ]

    def test_initials_not_split(self):
        assert split_sentences("She signed as A.A.L. Her work endured.") == [
            "She signed as A.A.L.",
            "Her work endured.",
        ]


class TestWikiSearch:
    def test_returns_first_five_sentences(self, corpus):
        env = WikiEnvironment(corpus)
        obs = env.step(ToolCall("search", "Richard Feynman"))
        assert obs == " ".join(FEYNMAN_SENTENCES[:5])

    def test_short_page_returns_all(self, corpus):
        env = WikiEnvironment(corpus)
        obs = env.step(ToolCall("search", "Marie Curie"))
        assert obs == " ".join(CURIE_SENTENCES)

    def test_title_normalization(self, corpus):
        env = WikiEnvironment(corpus)
        obs = env.step(ToolCall("search", "  richard   FEYNMAN "))
        assert obs.startswith("Richard Feynman was")

    def test_miss_lists_similar_titles(self, corpus):
        env = WikiEnvironment(corpus)
        obs = env.step(ToolCall("search", "Fynman"))
        assert obs.startswith("Could not find Fynman.")
        assert "Richard Feynman" in obs

    def test_miss_ranking_prefers_token_overlap(self, corpus):
        ranked = corpus.similar_titles("Marie the chemist")
        assert ranked[0] == "Marie Curie"

    def test_miss_keeps_current_page(self, corpus):
        env = WikiEnvironment(corpus)
        env.step(ToolCall("search", "Marie Curie"))
        env.step(ToolCall("search", "No Such Page"))
        obs = env.step(ToolCall("lookup", "radioactivity"))
        assert "(Result 1 / 1)" in obs


def reference_similar_titles(titles, query, k=5):
    """The full sort over every title that the inverted index replaced."""
    query_tokens = set(normalize_title(query).split())
    ranked = sorted(
        titles,
        key=lambda title: (
            -len(query_tokens & set(normalize_title(title).split())),
            normalize_title(title),
        ),
    )
    return ranked[:k]


# Case variants of a few tokens so that titles share tokens after
# normalization; "zircon" and "quartz" never occur in a title.
_TITLE_TOKENS = ["amber", "Amber", "AMBER", "basalt", "Basalt", "cedar", "delta", "Ember"]
_GAPS = st.sampled_from([" ", "  ", "\t", " \n ", "\u3000"])


@st.composite
def _titles(draw):
    tokens = draw(st.lists(st.sampled_from(_TITLE_TOKENS), max_size=4))
    title = draw(st.sampled_from(["", " "]))
    for token in tokens:
        title += token + draw(_GAPS)
    return title + draw(st.sampled_from(["", "  "]))


_queries = st.one_of(
    st.just(""),
    st.lists(st.sampled_from(_TITLE_TOKENS + ["zircon", "Quartz"]), max_size=5).map(" ".join),
    _titles(),
)


@settings(max_examples=300, deadline=None)
@given(
    # A title with no word is refused at load.
    st.lists(_titles().filter(str.split), min_size=1, max_size=25, unique_by=normalize_title),
    _queries,
    st.integers(0, 30),
)
@example(["Amber Amber Basalt", "amber  cedar", "Basalt"], "amber AMBER basalt", 2)
@example(["Amber Amber Basalt", "Cedar\tDelta", "ember"], "zircon quartz", 5)
@example(["Delta", "cedar", "Amber"], "", 10)
def test_similar_titles_matches_full_sort(titles, query, k):
    corpus = WikiCorpus((title, "A sentence.") for title in titles)
    assert corpus.similar_titles(query, k) == reference_similar_titles(titles, query, k)


class TestWikiLookup:
    def test_requires_page(self, corpus):
        env = WikiEnvironment(corpus)
        obs = env.step(ToolCall("lookup", "Nobel Prize"))
        assert "search" in obs.lower()

    def test_enumerates_matches_in_order(self, corpus):
        env = WikiEnvironment(corpus)
        env.step(ToolCall("search", "Richard Feynman"))
        matching = [s for s in FEYNMAN_SENTENCES if "nobel prize" in s.lower()]
        n = len(matching)
        assert n == 3
        for i, sentence in enumerate(matching, start=1):
            obs = env.step(ToolCall("lookup", "Nobel Prize"))
            assert obs == f"(Result {i} / {n}) {sentence}"
        assert env.step(ToolCall("lookup", "Nobel Prize")) == NO_MORE_RESULTS
        assert env.step(ToolCall("lookup", "Nobel Prize")) == NO_MORE_RESULTS

    def test_lookup_is_case_insensitive(self, corpus):
        env = WikiEnvironment(corpus)
        env.step(ToolCall("search", "Richard Feynman"))
        obs = env.step(ToolCall("lookup", "nobel prize"))
        assert obs.startswith("(Result 1 / 3)")

    def test_new_query_resets_cursor(self, corpus):
        env = WikiEnvironment(corpus)
        env.step(ToolCall("search", "Richard Feynman"))
        env.step(ToolCall("lookup", "Nobel Prize"))
        env.step(ToolCall("lookup", "Nobel Prize"))
        obs = env.step(ToolCall("lookup", "physics"))
        assert obs.startswith("(Result 1 /")
        obs = env.step(ToolCall("lookup", "Nobel Prize"))
        assert obs.startswith("(Result 1 / 3)")

    def test_search_resets_lookup_state(self, corpus):
        env = WikiEnvironment(corpus)
        env.step(ToolCall("search", "Richard Feynman"))
        env.step(ToolCall("lookup", "Nobel Prize"))
        env.step(ToolCall("search", "Richard Feynman"))
        obs = env.step(ToolCall("lookup", "Nobel Prize"))
        assert obs.startswith("(Result 1 / 3)")

    def test_zero_matches(self, corpus):
        env = WikiEnvironment(corpus)
        env.step(ToolCall("search", "Richard Feynman"))
        assert env.step(ToolCall("lookup", "zebra")) == NO_MORE_RESULTS


class TestEnvStep:
    def test_unknown_tool(self, corpus):
        env = WikiEnvironment(corpus)
        obs = env.step(ToolCall("teleport", "x"))
        assert obs.startswith("Invalid tool.")
        assert "search[entity]" in obs

    def test_corpus_read_only_under_random_episodes(self, corpus):
        snapshot = corpus_snapshot(corpus)
        rng = random.Random(0)
        titles = corpus.titles()
        for _ in range(100):
            env = WikiEnvironment(corpus)
            for _ in range(rng.randint(1, 10)):
                tool = rng.choice(["search", "lookup", "bogus"])
                arg = rng.choice(titles + ["Nobel Prize", "physics", "zzz"])
                env.step(ToolCall(tool, arg))
        assert corpus_snapshot(corpus) == snapshot

    def test_deterministic_given_state(self, corpus):
        outputs = []
        for _ in range(2):
            env = WikiEnvironment(corpus)
            outputs.append(
                [
                    env.step(ToolCall("search", "Richard Feynman")),
                    env.step(ToolCall("lookup", "Nobel Prize")),
                ]
            )
        assert outputs[0] == outputs[1]

    def test_observation_truncation(self):
        page = "x" * OBSERVATION_LIMIT + "."
        env = WikiEnvironment(WikiCorpus([("Long", page)]))
        obs = env.step(ToolCall("search", "Long"))
        assert obs == page[:OBSERVATION_LIMIT] + TRUNCATION_MARKER


class TestObservation:
    def test_truncate_noop_below_limit(self):
        assert truncate_observation("short") == "short"
        assert truncate_observation("a" * OBSERVATION_LIMIT) == "a" * OBSERVATION_LIMIT


class TestScriptedEnvironment:
    def test_table_lookup(self):
        env = ScriptedEnvironment({ToolCall("search", "A"): "obs"})
        assert env.step(ToolCall("search", "A")) == "obs"

    def test_default_for_unscripted(self):
        env = ScriptedEnvironment(default="fallback")
        assert env.step(ToolCall("search", "missing")) == "fallback"

    def test_texts_over_the_limit_are_truncated(self):
        over = OBSERVATION_LIMIT + 1
        env = ScriptedEnvironment(
            {
                ToolCall("search", "A"): "a" * over,
                ToolCall("lookup", "B"): "b" * over,
            },
            default="d" * over,
        )
        limit = OBSERVATION_LIMIT
        assert env.step(ToolCall("search", "A")) == "a" * limit + TRUNCATION_MARKER
        assert env.step(ToolCall("lookup", "B")) == "b" * limit + TRUNCATION_MARKER
        assert env.step(ToolCall("search", "C")) == "d" * limit + TRUNCATION_MARKER

    def test_texts_within_the_limit_are_unchanged(self):
        limit = OBSERVATION_LIMIT
        env = ScriptedEnvironment(
            {ToolCall("search", "A"): "a" * limit}, default="d" * limit
        )
        assert env.step(ToolCall("search", "A")) == "a" * limit
        assert env.step(ToolCall("search", "C")) == "d" * limit

    def test_unknown_tool_observation(self):
        obs = ScriptedEnvironment().step(ToolCall("calculate", "x"))
        assert obs == "Invalid tool. Available tools: search[...], lookup[...], finish[...]."


class TestLoadTasks:
    def write(self, tmp_path, lines):
        path = tmp_path / "tasks.jsonl"
        path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
        return path

    def test_happy_path(self, tmp_path):
        path = self.write(
            tmp_path,
            [
                json.dumps({"id": "a", "question": "Q1?", "answers": ["x"]}),
                json.dumps(
                    {"id": "b", "question": "Q2?", "answers": ["y", "z"], "benchmark": "fanoutqa"}
                ),
            ],
        )
        tasks = load_tasks(path)
        assert [t.id for t in tasks] == ["a", "b"]
        assert tasks[0].benchmark_tag == "generic"
        assert tasks[1].benchmark_tag == "fanoutqa"
        assert tasks[1].gold_answers == ("y", "z")

    def test_missing_question(self, tmp_path):
        path = self.write(tmp_path, [json.dumps({"id": "a", "answers": []})])
        with pytest.raises(SchemaViolationError) as exc_info:
            load_tasks(path)
        assert exc_info.value.line_no == 1

    def test_empty_file(self, tmp_path):
        assert load_tasks(self.write(tmp_path, [])) == []

    def test_duplicate_id(self, tmp_path):
        row = json.dumps({"id": "a", "question": "Q?", "answers": []})
        path = self.write(tmp_path, [row, row])
        with pytest.raises(SchemaViolationError) as exc_info:
            load_tasks(path)
        assert exc_info.value.line_no == 2

    def test_bad_json_line_number(self, tmp_path):
        path = self.write(
            tmp_path,
            [json.dumps({"id": "a", "question": "Q?", "answers": []}), "{not json"],
        )
        with pytest.raises(SchemaViolationError) as exc_info:
            load_tasks(path)
        assert exc_info.value.line_no == 2

    def test_unknown_benchmark_tag(self, tmp_path):
        path = self.write(
            tmp_path,
            [json.dumps({"id": "a", "question": "Q?", "answers": [], "benchmark": "weird"})],
        )
        with pytest.raises(SchemaViolationError):
            load_tasks(path)


class TestCorpusLoading:
    def test_load_and_digest_stability(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        rows = [
            {"title": "Richard Feynman", "text": " ".join(FEYNMAN_SENTENCES)},
            {"title": "Marie Curie", "text": " ".join(CURIE_SENTENCES)},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
        corpus = WikiCorpus.load(path)
        assert len(corpus) == 2
        assert corpus.sentences("richard feynman") == FEYNMAN_SENTENCES
        assert corpus_snapshot(corpus) == corpus_snapshot(WikiCorpus.load(path))

    def test_segmentation_applied_at_load(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps({"title": "T", "text": "One. Two! Three?"}), encoding="utf-8")
        assert WikiCorpus.load(path).sentences("t") == ["One.", "Two!", "Three?"]

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps({"title": "T"}), encoding="utf-8")
        with pytest.raises(SchemaViolationError):
            WikiCorpus.load(path)

    def test_malformed_line_after_valid_ones_reports_its_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        rows = [
            json.dumps({"title": "Richard Feynman", "text": " ".join(FEYNMAN_SENTENCES)}),
            "",
            json.dumps({"title": "Marie Curie", "text": " ".join(CURIE_SENTENCES)}),
            '{"title": "Ada Lovelace", "text": ',
        ]
        path.write_text("\n".join(rows), encoding="utf-8")
        with pytest.raises(SchemaViolationError) as exc_info:
            WikiCorpus.load(path)
        assert exc_info.value.line_no == 4
        assert "invalid JSON" in str(exc_info.value)

    @pytest.mark.parametrize(
        "row, message",
        [
            ({"title": " marie  CURIE", "text": "B."}, "duplicate normalized title 'marie curie'"),
            ({"title": "Ada Lovelace", "text": ""}, "page 'Ada Lovelace' needs at least"),
            ({"title": "Ada Lovelace", "text": " \u3000\n"}, "page 'Ada Lovelace' needs at least"),
            ({"title": 7, "text": "A."}, "title and text must be strings"),
            ({"title": None, "text": "A."}, "title and text must be strings"),
            ({"title": "Ada Lovelace", "text": ["A."]}, "title and text must be strings"),
            ({"title": "Ada Lovelace", "text": {"a": "A."}}, "title and text must be strings"),
            ({"title": "Ada Lovelace", "text": 0}, "title and text must be strings"),
            (["Ada Lovelace", "A."], "corpus lines need title and text"),
            ({"title": "", "text": "A."}, "page title '' has no word"),
            ({"title": " \t", "text": "A."}, "page title ' \\t' has no word"),
        ],
    )
    def test_bad_page_reports_its_line(self, tmp_path, row, message):
        path = tmp_path / "corpus.jsonl"
        rows = [json.dumps({"title": "Marie Curie", "text": "A."}), "", json.dumps(row)]
        path.write_text("\n".join(rows), encoding="utf-8")
        with pytest.raises(SchemaViolationError) as exc_info:
            WikiCorpus.load(path)
        assert exc_info.value.line_no == 3
        assert str(exc_info.value).startswith(f"{path}: line 3: {message}")

    def test_pages_in_memory_report_their_position(self):
        with pytest.raises(SchemaViolationError) as exc_info:
            WikiCorpus([("Marie Curie", "A."), ("Ada Lovelace", "B."), ("marie curie", "C.")])
        assert exc_info.value.line_no == 3

    def test_environment_binds_full_corpus_fixture(self):
        corpus = make_corpus()
        env = WikiEnvironment(corpus)
        assert "search[entity]" in env.tool_prompt
        assert "finish[answer]" in env.tool_prompt
        assert env.tools == ("search", "lookup")


# Pieces of page text: sentence ends, abbreviations, inner periods, Unicode
# whitespace (no-break, em and ideographic spaces, line and file separators,
# NEL) and a zero-width space, which is not whitespace.
_TEXT_PIECES = [
    "word", "Ünïcode", "A.A.L.", "Dr.", "4.5", ".", "!", "?", "...",
    " ", "\t", "\n", "\r\n", "\u00a0", "\u2003", "\u3000", "\u2028", "\x1c", "\x85", "\u200b",
]
_page_texts = st.one_of(
    st.lists(st.sampled_from(_TEXT_PIECES), max_size=12).map("".join),
    st.text(max_size=40),
)

# The SHA-256 of make_corpus()'s pages, each as its normalized title, title
# and sentences: when a page is split must not change it.
MAKE_CORPUS_DIGEST = "794b6ef35a7eb4f8439a2ef1119f88299718cedc8de5a08496bbbef9fced8942"


class TestLazyPages:
    @settings(max_examples=300, deadline=None)
    @given(_page_texts)
    @example("")
    @example(" \u3000\u2028\x85 ")
    @example("\u200b")
    @example("She signed as A.A.L. Her work endured.")
    def test_read_page_matches_split_text(self, tmp_path_factory, text):
        sentences = split_sentences(text)
        path = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
        path.write_text(json.dumps({"title": "T", "text": text}) + "\n", encoding="utf-8")
        if not sentences:
            with pytest.raises(ValueError):
                WikiCorpus.load(path)
            return
        assert WikiCorpus.load(path).sentences("t") == sentences

    def test_digest_is_unchanged(self):
        corpus = make_corpus()
        pages = sorted((normalize_title(t), t, corpus.sentences(t)) for t in corpus.titles())
        canonical = json.dumps(pages, ensure_ascii=False).encode("utf-8")
        assert hashlib.sha256(canonical).hexdigest() == MAKE_CORPUS_DIGEST

    def test_load_splits_no_page(self, tmp_path, monkeypatch):
        calls = []

        def counting(text):
            calls.append(text)
            return split_sentences(text)

        monkeypatch.setattr(environments, "split_sentences", counting)
        path = tmp_path / "corpus.jsonl"
        rows = [
            {"title": "Richard Feynman", "text": " ".join(FEYNMAN_SENTENCES)},
            {"title": "Marie Curie", "text": " ".join(CURIE_SENTENCES)},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
        corpus = WikiCorpus.load(path)
        assert calls == []
        assert corpus.sentences("Marie Curie") == CURIE_SENTENCES
        assert calls == [" ".join(CURIE_SENTENCES)]

    def test_duplicate_normalized_title_rejected_at_load(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        rows = [{"title": "Marie Curie", "text": "A."}, {"title": " marie  CURIE", "text": "B."}]
        path.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
        with pytest.raises(ValueError, match="duplicate normalized title"):
            WikiCorpus.load(path)


@pytest.mark.parametrize(
    "line", ["{", '{"a": 1} x', '\ufeff{"a": 1}', '{"a": 1}{"b": 2}', "[1,]", "nul", '"x" 5']
)
def test_invalid_json_reads_as_json_loads_words_it(tmp_path, line):
    with pytest.raises(json.JSONDecodeError) as expected:
        json.loads(line)
    path = tmp_path / "data.jsonl"
    path.write_text("\n" + line + "\n", encoding="utf-8")
    for load in (WikiCorpus.load, load_tasks):
        with pytest.raises(SchemaViolationError) as exc_info:
            load(path)
        assert str(exc_info.value) == f"{path}: line 2: invalid JSON: {expected.value}"
