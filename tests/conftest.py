"""Shared fixtures: model profiles, a small wiki corpus, and scripted-run
helpers used across the suite."""

from decimal import Decimal

import pytest

from hybridmas.backends import ChatRequest, ScriptExhaustedError
from hybridmas.core import ModelProfile, Pricing, RunConfig, TaskInstance
from hybridmas.environments import WikiCorpus

# Edge profile mirroring a 4B-parameter model with grouped-query attention
# (36 layers, 8 KV heads, 128-dim heads, 2-byte activations).
EDGE_PROFILE = ModelProfile(
    name="edge-4b",
    placement="edge",
    context_cap=32768,
    param_count=4e9,
    layers=36,
    kv_heads=8,
    head_dim=128,
    bytes_per_activation=2,
    efficiency=1.5e12,
)

CLOUD_PROFILE = ModelProfile(
    name="cloud-frontier",
    placement="cloud",
    context_cap=128000,
    pricing=Pricing(Decimal("2.5"), Decimal("1.25"), Decimal("10")),
)


FEYNMAN_SENTENCES = [
    "Richard Feynman was an American theoretical physicist.",
    "He shared the 1965 Nobel Prize in Physics for work on quantum electrodynamics.",
    "Feynman introduced a pictorial notation for particle interactions.",
    "He taught at the California Institute of Technology for decades.",
    "His lectures on physics remain widely read.",
    "The Nobel Prize committee cited his deep influence on the field.",
    "He served on the panel investigating the Challenger disaster.",
    "Beyond the Nobel Prize, he was known for his bongo playing.",
]

CURIE_SENTENCES = [
    "Marie Curie was a pioneering physicist and chemist.",
    "She won two Nobel Prizes in different sciences.",
    "Her research on radioactivity opened a new field.",
]

LOVELACE_SENTENCES = [
    "Ada Lovelace was an English mathematician.",
    "She wrote the first published algorithm intended for a machine.",
    "Her notes on the Analytical Engine anticipated general-purpose computing.",
    "Lovelace collaborated closely with Charles Babbage.",
    "She signed her work with the initials A.A.L.",
    "Her centenary revived interest in her writings.",
]


def unconsumed(backend) -> list[str]:
    """The responses a scripted backend has left, in script order, read by
    sending it empty prompts until its script is exhausted; they join its
    requests. For scripts whose entries have no match."""
    left = []
    while True:
        try:
            left.append(backend.complete(ChatRequest("")).text)
        except ScriptExhaustedError:
            return left


def make_corpus() -> WikiCorpus:
    return WikiCorpus(
        [
            ("Richard Feynman", " ".join(FEYNMAN_SENTENCES)),
            ("Marie Curie", " ".join(CURIE_SENTENCES)),
            ("Ada Lovelace", " ".join(LOVELACE_SENTENCES)),
        ]
    )


def corpus_snapshot(corpus: WikiCorpus) -> tuple[list, list]:
    """What a corpus serves: each title with its sentences, in load order,
    and the similar titles of a few fixed queries. Equal snapshots mean the
    same pages, read and searched the same way."""
    pages = [(title, corpus.sentences(title)) for title in corpus.titles()]
    searches = [corpus.similar_titles(query)
                for query in ("Richard Feynman", "marie", "Nobel Prize", "zzz")]
    return pages, searches


@pytest.fixture
def edge_profile() -> ModelProfile:
    return EDGE_PROFILE


@pytest.fixture
def cloud_profile() -> ModelProfile:
    return CLOUD_PROFILE


@pytest.fixture
def corpus() -> WikiCorpus:
    return make_corpus()


@pytest.fixture
def task() -> TaskInstance:
    return TaskInstance("task-1", "Did Richard Feynman win a Nobel Prize?", ("yes",), "hotpotqa")


def make_run_config(architecture: str, **overrides) -> RunConfig:
    defaults = dict(
        architecture=architecture,
        executor_profile=EDGE_PROFILE,
        supervisor_profile=None if architecture == "monolithic" else CLOUD_PROFILE,
        max_turns=6,
        verify_interval=2,
        seed=0,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)
