"""Tool environments and dataset loading.

Provides the generic environment contract (reset/step over ToolCalls), a
self-contained read-only Wikipedia environment with search/lookup/finish
tools, a table-driven scripted environment for tests, and the JSONL task
loader. Tool failures never raise: the agent must see them, so every
failure becomes an observation.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import json
import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .core import TaskInstance, ToolCall
from .prompting import load_asset

DEFAULT_OBSERVATION_LIMIT = 4000
TRUNCATION_MARKER = "\n[observation truncated]"

FINISH_TOOL = "finish"
NO_MORE_RESULTS = "No more results."


class SchemaViolationError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.message = message


@dataclass(frozen=True)
class Observation:
    """What the agent sees after a tool call. final_answer is present only
    when the episode terminated via finish."""

    text: str
    terminal: bool = False
    final_answer: Optional[str] = None

    def __post_init__(self):
        if self.final_answer is not None and not self.terminal:
            raise ValueError("final_answer requires a terminal observation")


def truncate_observation(text: str, limit: int = DEFAULT_OBSERVATION_LIMIT) -> str:
    if len(text) <= limit:
        return text
    return text[:limit] + TRUNCATION_MARKER


# --- sentence segmentation -------------------------------------------------
#
# Split on '.', '!', '?' followed by whitespace or end-of-text, keeping the
# delimiter. The corpus keeps each page's raw text and splits it when the page
# is read; the split is a pure function of the text, so episodes stay
# reproducible. A text yields no sentence exactly when it is empty or all
# whitespace, which is what the corpus checks at load.

_SENTENCE_BOUNDARY_RE = re.compile(r"(?<=[.!?])(?=\s|$)")


def split_sentences(text: str) -> list[str]:
    return [part.strip() for part in _SENTENCE_BOUNDARY_RE.split(text) if part.strip()]


def normalize_title(title: str) -> str:
    return " ".join(title.lower().split())


@dataclass(frozen=True)
class WikiPage:
    title: str
    sentences: tuple[str, ...]

    def __post_init__(self):
        if not self.sentences:
            raise ValueError("a page needs at least one sentence")


class WikiCorpus:
    """Immutable page store keyed by normalized title, with an inverted
    index from each title token to the keys containing it; shareable
    across concurrent episodes. Each page is kept as its raw text and
    split into sentences only when it is read."""

    def __init__(self, pages: Iterable[tuple[str, str]]):
        """pages as (title, text) pairs. A title or text that is not a
        string, a text with no sentence or a normalized title already taken
        raises SchemaViolationError numbering the page from 1."""
        self._pages: dict[str, tuple[str, str]] = {}
        postings: defaultdict[str, list[str]] = defaultdict(list)
        for page in pages:
            title, text = page
            try:
                blank = text.isspace() or not text
                tokens = title.lower().split()
            except AttributeError:
                raise self._violation("title and text must be strings") from None
            if blank:
                raise self._violation(f"page {title!r} needs at least one sentence")
            key = " ".join(tokens)  # normalize_title(title), keeping its tokens
            if key in self._pages:
                raise self._violation(f"duplicate normalized title {key!r}")
            self._pages[key] = page
            for token in set(tokens):
                postings[token].append(key)
        self._postings: dict[str, list[str]] = dict(postings)

    def _violation(self, message: str) -> SchemaViolationError:
        # Every earlier page holds one key.
        return SchemaViolationError(len(self._pages) + 1, message)

    @classmethod
    def from_records(cls, records: Iterable[Mapping[str, str]]) -> "WikiCorpus":
        return cls([(rec["title"], rec["text"]) for rec in records])

    @classmethod
    def load(cls, path) -> "WikiCorpus":
        pages = []
        for line_no, rec in _read_jsonl(path):
            if not isinstance(rec, dict) or "title" not in rec or "text" not in rec:
                raise SchemaViolationError(line_no, "corpus lines need title and text")
            pages.append((rec["title"], rec["text"]))
        try:
            return cls(pages)
        except SchemaViolationError as exc:
            # Page n is the file's n-th non-blank line. Finding it only on
            # this path keeps a load from carrying every page's line number.
            with open(path, "r", encoding="utf-8") as fh:
                line_nos = (line_no for line_no, line in enumerate(fh, start=1) if line.strip())
                line_no = next(itertools.islice(line_nos, exc.line_no - 1, None))
            raise SchemaViolationError(line_no, exc.message) from None

    def get(self, title: str) -> Optional[WikiPage]:
        page = self._pages.get(normalize_title(title))
        if page is None:
            return None
        return WikiPage(page[0], tuple(split_sentences(page[1])))

    def titles(self) -> list[str]:
        return [title for title, _ in self._pages.values()]

    def __len__(self) -> int:
        return len(self._pages)

    def digest(self) -> str:
        canonical = json.dumps(
            sorted(
                (key, title, split_sentences(text))
                for key, (title, text) in self._pages.items()
            ),
            ensure_ascii=False,
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def similar_titles(self, query: str, k: int = 5) -> list[str]:
        """Titles ranked by shared normalized-token count with the query,
        ties broken lexicographically by normalized title."""
        shared: Counter[str] = Counter()
        for token in set(normalize_title(query).split()):
            shared.update(self._postings.get(token, ()))
        ranked = heapq.nsmallest(k, shared, key=lambda key: (-shared[key], key))
        if len(ranked) < k:
            # Fewer than k pages share a token: the rest are the smallest
            # keys sharing none. Of the k smallest keys overall at most
            # len(shared) share a token, so enough of them remain.
            ranked += [key for key in heapq.nsmallest(k, self._pages) if key not in shared]
        return [self._pages[key][0] for key in ranked[:k]]


_raw_decode = json.JSONDecoder().raw_decode


def _parse_line(line: str) -> object:
    """json.loads(line) for a stripped line. A line that is one whole JSON
    value is decoded without json.loads' wrapper; any other line goes to
    json.loads itself, so every error reads as json.loads words it."""
    try:
        value, end = _raw_decode(line)
        if end == len(line):
            return value
    except json.JSONDecodeError:
        pass
    return json.loads(line)


def _read_jsonl(path) -> Iterator[tuple[int, object]]:
    """Yield (line number, parsed value) for each non-blank line of a JSONL
    file, rejecting a line that is not JSON with its line number."""
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                value = _parse_line(line)
            except json.JSONDecodeError as exc:
                raise SchemaViolationError(line_no, f"invalid JSON: {exc}")
            yield line_no, value


@dataclass
class WikiSession:
    """Per-trajectory lookup state: the currently referenced page and the
    lookup cursor. The cursor resets when the query or page changes."""

    current_page: Optional[WikiPage] = None
    lookup_query: Optional[str] = None
    lookup_matches: list[str] = field(default_factory=list)
    lookup_cursor: int = 0


class WikiEnvironment:
    """Read-only Wikipedia over a local corpus with exactly three tools:
    search[entity], lookup[string], finish[answer]."""

    tools = ("search", "lookup", FINISH_TOOL)

    def __init__(self, corpus: WikiCorpus, observation_limit: int = DEFAULT_OBSERVATION_LIMIT):
        self.corpus = corpus
        self.observation_limit = observation_limit
        self.session = WikiSession()

    @property
    def tool_prompt(self) -> str:
        return load_asset("wikienv_tools")

    def reset(self, task: Optional[TaskInstance] = None) -> None:
        self.session = WikiSession()

    def step(self, call: ToolCall) -> Observation:
        if call.tool == FINISH_TOOL:
            return Observation("Episode finished.", terminal=True, final_answer=call.argument)
        if call.tool == "search":
            return self._search(call.argument)
        if call.tool == "lookup":
            return self._lookup(call.argument)
        return Observation(
            "Invalid tool. Available tools: search[entity], lookup[string], finish[answer]."
        )

    def _observe(self, text: str) -> Observation:
        return Observation(truncate_observation(text, self.observation_limit))

    def _search(self, entity: str) -> Observation:
        page = self.corpus.get(entity)
        if page is None:
            similar = self.corpus.similar_titles(entity)
            return self._observe(f"Could not find {entity}. Similar: {similar}.")
        self.session.current_page = page
        self.session.lookup_query = None
        self.session.lookup_matches = []
        self.session.lookup_cursor = 0
        return self._observe(" ".join(page.sentences[:5]))

    def _lookup(self, query: str) -> Observation:
        session = self.session
        if session.current_page is None:
            return self._observe("No page is currently selected. Use search[entity] first.")
        if query != session.lookup_query:
            needle = query.lower()
            session.lookup_query = query
            session.lookup_matches = [
                sentence
                for sentence in session.current_page.sentences
                if needle in sentence.lower()
            ]
            session.lookup_cursor = 0
        if session.lookup_cursor >= len(session.lookup_matches):
            return self._observe(NO_MORE_RESULTS)
        index = session.lookup_cursor
        session.lookup_cursor += 1
        total = len(session.lookup_matches)
        return self._observe(f"(Result {index + 1} / {total}) {session.lookup_matches[index]}")


DEFAULT_SCRIPTED_TOOL_PROMPT = """### `search[entity]`
Returns information about the entity.

### `lookup[string]`
Returns the next matching detail from the current source.

### `finish[answer]`
Terminates the episode and returns the final answer.
"""


class ScriptedEnvironment:
    """Lookup-table environment for deterministic tests. finish is always
    terminal; unscripted calls yield the default observation."""

    def __init__(
        self,
        table: Optional[Mapping[ToolCall, Observation | str]] = None,
        default: Observation | str = "Nothing happens.",
        tools: Sequence[str] = ("search", "lookup", FINISH_TOOL),
        tool_prompt: str = DEFAULT_SCRIPTED_TOOL_PROMPT,
        observation_limit: int = DEFAULT_OBSERVATION_LIMIT,
    ):
        self.table = {k: self._coerce(v) for k, v in (table or {}).items()}
        self.default = self._coerce(default)
        self.tools = tuple(tools)
        if FINISH_TOOL not in self.tools:
            self.tools = self.tools + (FINISH_TOOL,)
        self.tool_prompt = tool_prompt
        self.observation_limit = observation_limit

    @staticmethod
    def _coerce(value: Observation | str) -> Observation:
        return value if isinstance(value, Observation) else Observation(value)

    def reset(self, task: Optional[TaskInstance] = None) -> None:
        pass

    def step(self, call: ToolCall) -> Observation:
        if call.tool == FINISH_TOOL:
            return Observation("Episode finished.", terminal=True, final_answer=call.argument)
        if call.tool not in self.tools:
            available = ", ".join(f"{t}[...]" for t in self.tools)
            return Observation(f"Invalid tool. Available tools: {available}.")
        observation = self.table.get(call, self.default)
        return Observation(
            truncate_observation(observation.text, self.observation_limit),
            observation.terminal,
            observation.final_answer,
        )


def load_tasks(path) -> list[TaskInstance]:
    """Read QA tasks from JSONL: one object per line with keys id (a
    string or an integer), question (a string), answers (list), optional
    benchmark. Malformed lines are rejected with their line number; ids
    must be unique."""
    tasks: list[TaskInstance] = []
    seen_ids: set[str] = set()
    for line_no, rec in _read_jsonl(path):
        if not isinstance(rec, dict):
            raise SchemaViolationError(line_no, "each line must be a JSON object")
        for key in ("id", "question", "answers"):
            if key not in rec:
                raise SchemaViolationError(line_no, f"missing key {key!r}")
        if not isinstance(rec["answers"], list) or not all(
            isinstance(a, str) for a in rec["answers"]
        ):
            raise SchemaViolationError(line_no, "answers must be a list of strings")
        task_id, question = rec["id"], rec["question"]
        if isinstance(task_id, bool) or not isinstance(task_id, (str, int)):
            raise SchemaViolationError(
                line_no, f"id must be a string or an integer, not {task_id!r}"
            )
        if not isinstance(question, str):
            raise SchemaViolationError(line_no, f"question must be a string, not {question!r}")
        task_id = str(task_id)
        if task_id in seen_ids:
            raise SchemaViolationError(line_no, f"duplicate task id {task_id!r}")
        seen_ids.add(task_id)
        benchmark = rec.get("benchmark", "generic")
        try:
            tasks.append(
                TaskInstance(
                    id=task_id,
                    query=question,
                    gold_answers=tuple(rec["answers"]),
                    benchmark_tag=benchmark,
                )
            )
        except ValueError as exc:
            raise SchemaViolationError(line_no, str(exc))
    return tasks
