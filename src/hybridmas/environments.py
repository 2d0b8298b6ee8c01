"""Tool environments and dataset loading.

An environment is its tools (their names), tool_prompt (their description
for the executor, finish included) and step (a ToolCall of one of its tools
to the observation text); each trajectory gets a fresh one. finish[answer]
is not an environment's tool: the orchestrator's ReAct loop answers it and
ends the episode, without a step. Provides a self-contained read-only
Wikipedia environment with search and lookup, a table-driven scripted
environment for tests, and the JSONL task loader. Tool failures never
raise: the agent must see them, so every failure becomes an observation.
"""

from __future__ import annotations

import heapq
import re
from array import array
from collections import Counter, defaultdict
from typing import Iterable, Mapping, Optional

from .core import SchemaViolationError, TaskInstance, ToolCall, read_jsonl
from .prompting import load_asset

OBSERVATION_LIMIT = 4000
TRUNCATION_MARKER = "\n[observation truncated]"

NO_MORE_RESULTS = "No more results."


def truncate_observation(text: str) -> str:
    if len(text) <= OBSERVATION_LIMIT:
        return text
    return text[:OBSERVATION_LIMIT] + TRUNCATION_MARKER


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


class WikiCorpus:
    """Immutable page store keyed by normalized title, with an inverted
    index from each title token to the keys containing it; shareable
    across concurrent episodes. Each page is kept as its raw text and
    split into sentences only when it is read."""

    def __init__(self, pages: Iterable[tuple[str, str]]):
        """pages as (title, text) pairs. A title or text that is not a
        string, a text with no sentence, a title with no word or a
        normalized title already taken raises SchemaViolationError numbering
        the page from 1."""
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
            if not tokens:
                raise self._violation(f"page title {title!r} has no word")
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
    def load(cls, path) -> "WikiCorpus":
        # Every page is parsed before any is indexed: indexing each page as
        # it was read made set-up about 12% slower over 200k pages.
        pages, line_nos = [], array("I")
        for line_no, rec in read_jsonl(path):
            if not isinstance(rec, dict) or "title" not in rec or "text" not in rec:
                raise SchemaViolationError(line_no, "corpus lines need title and text", path)
            pages.append((rec["title"], rec["text"]))
            line_nos.append(line_no)
        try:
            return cls(pages)
        except SchemaViolationError as exc:
            # __init__ numbers the refused page from 1.
            raise SchemaViolationError(line_nos[exc.line_no - 1], exc.message, path) from None

    def sentences(self, title: str) -> Optional[list[str]]:
        """The sentences of the page titled title, or None for no page."""
        page = self._pages.get(normalize_title(title))
        return None if page is None else split_sentences(page[1])

    def titles(self) -> list[str]:
        return [title for title, _ in self._pages.values()]

    def __len__(self) -> int:
        return len(self._pages)

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


class WikiEnvironment:
    """Read-only Wikipedia over a local corpus with two tools,
    search[entity] and lookup[string]. A hit replaces the
    searched page's sentences and starts its lookup afresh; a lookup
    query other than the last one restarts the cursor over its matches."""

    tools = ("search", "lookup")

    def __init__(self, corpus: WikiCorpus):
        self.corpus = corpus
        self.page: Optional[list[str]] = None
        self.lookup_query: Optional[str] = None
        self.lookup_matches: list[str] = []
        self.lookup_cursor = 0

    @property
    def tool_prompt(self) -> str:
        return load_asset("wikienv_tools")

    def step(self, call: ToolCall) -> str:
        if call.tool == "search":
            return truncate_observation(self._search(call.argument))
        if call.tool == "lookup":
            return truncate_observation(self._lookup(call.argument))
        return "Invalid tool. Available tools: search[entity], lookup[string], finish[answer]."

    def _search(self, entity: str) -> str:
        sentences = self.corpus.sentences(entity)
        if sentences is None:
            similar = self.corpus.similar_titles(entity)
            return f"Could not find {entity}. Similar: {similar}."
        self.page, self.lookup_query, self.lookup_matches, self.lookup_cursor = (
            sentences, None, [], 0)
        return " ".join(sentences[:5])

    def _lookup(self, query: str) -> str:
        if self.page is None:
            return "No page is currently selected. Use search[entity] first."
        if query != self.lookup_query:
            needle = query.lower()
            self.lookup_query = query
            self.lookup_matches = [sentence for sentence in self.page
                                   if needle in sentence.lower()]
            self.lookup_cursor = 0
        if self.lookup_cursor >= len(self.lookup_matches):
            return NO_MORE_RESULTS
        index = self.lookup_cursor
        self.lookup_cursor += 1
        total = len(self.lookup_matches)
        return f"(Result {index + 1} / {total}) {self.lookup_matches[index]}"


class ScriptedEnvironment:
    """Lookup-table environment for deterministic tests, with the wiki
    environment's tools: table maps each scripted call to its observation
    text, and any other search or lookup yields the default text. Each text
    is truncated to OBSERVATION_LIMIT once, when the environment is built."""

    tools = WikiEnvironment.tools
    tool_prompt = """### `search[entity]`
Returns information about the entity.

### `lookup[string]`
Returns the next matching detail from the current source.

### `finish[answer]`
Terminates the episode and returns the final answer.
"""

    def __init__(
        self,
        table: Optional[Mapping[ToolCall, str]] = None,
        default: str = "Nothing happens.",
    ):
        self.table = {call: truncate_observation(text) for call, text in (table or {}).items()}
        self.default = truncate_observation(default)

    def step(self, call: ToolCall) -> str:
        if call.tool not in self.tools:
            return "Invalid tool. Available tools: search[...], lookup[...], finish[...]."
        return self.table.get(call, self.default)


def load_tasks(path) -> list[TaskInstance]:
    """Read QA tasks from JSONL: one object per line with keys id (a
    string or an integer), question (a string), answers (list), optional
    benchmark. Malformed lines are rejected with their line number; ids
    must be unique."""
    tasks: list[TaskInstance] = []
    seen_ids: set[str] = set()
    for line_no, rec in read_jsonl(path):
        if not isinstance(rec, dict):
            raise SchemaViolationError(line_no, "each line must be a JSON object", path)
        for key in ("id", "question", "answers"):
            if key not in rec:
                raise SchemaViolationError(line_no, f"missing key {key!r}", path)
        if not isinstance(rec["answers"], list) or not all(
            isinstance(a, str) for a in rec["answers"]
        ):
            raise SchemaViolationError(line_no, "answers must be a list of strings", path)
        task_id, question = rec["id"], rec["question"]
        if isinstance(task_id, bool) or not isinstance(task_id, (str, int)):
            raise SchemaViolationError(
                line_no, f"id must be a string or an integer, not {task_id!r}", path
            )
        if not isinstance(question, str):
            raise SchemaViolationError(
                line_no, f"question must be a string, not {question!r}", path)
        task_id = str(task_id)
        if task_id in seen_ids:
            raise SchemaViolationError(line_no, f"duplicate task id {task_id!r}", path)
        seen_ids.add(task_id)
        tag = {"benchmark_tag": rec["benchmark"]} if "benchmark" in rec else {}
        try:
            tasks.append(TaskInstance(task_id, question, tuple(rec["answers"]), **tag))
        except ValueError as exc:
            raise SchemaViolationError(line_no, str(exc), path)
    return tasks
