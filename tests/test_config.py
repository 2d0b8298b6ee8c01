"""Config file parsing."""

import inspect
import json
from decimal import Decimal
from pathlib import Path

import pytest
import yaml

from hybridmas import config
from hybridmas.backends import (ChatRequest, HttpChatBackend, NoMatchingEntryError,
                                ScriptedBackend, ScriptEntry, ScriptExhaustedError)
from hybridmas.core import ModelProfile, Pricing, RunConfig, SamplingParams
from hybridmas.environments import ScriptedEnvironment, WikiEnvironment

YAML_FILES = sorted((Path(__file__).parent / "data").rglob("*.y*ml"))


@pytest.mark.parametrize("path", YAML_FILES, ids=lambda path: path.name)
def test_yaml_loader_builds_what_the_pure_python_loader_builds(path):
    text = path.read_text(encoding="utf-8")
    assert yaml.load(text, Loader=config._YAML_LOADER) == yaml.load(text, Loader=yaml.SafeLoader)


NAN, INF = float("nan"), float("inf")
RATE = Decimal("2.5")


@pytest.mark.parametrize(
    "make",
    [
        lambda: SamplingParams(temperature=NAN),
        lambda: SamplingParams(temperature=INF),
        lambda: Pricing(Decimal("NaN"), RATE, RATE),
        lambda: Pricing(RATE, Decimal("Infinity"), RATE),
        lambda: Pricing(RATE, RATE, Decimal("-Infinity")),
        lambda: ModelProfile("e", "edge", 100, param_count=NAN, efficiency=1.0),
        lambda: ModelProfile("e", "edge", 100, param_count=1.0, efficiency=INF),
        lambda: ModelProfile("c", "cloud", 100, param_count=INF,
                             pricing=Pricing(RATE, RATE, RATE)),
    ],
    ids=["temperature-nan", "temperature-inf", "prefill-nan", "cached-inf", "generated-minus-inf",
         "param_count-nan", "efficiency-inf", "cloud-param_count-inf"],
)
def test_non_finite_numbers_are_rejected(make):
    with pytest.raises(ValueError, match="finite"):
        make()


def write_minimal_config(tmp_path, **extra) -> Path:
    """A config that sets every required key and no optional one."""
    (tmp_path / "tasks.jsonl").write_text('{"id": "A", "question": "Q?"}\n', encoding="utf-8")
    profile = {"placement": "edge", "param_count": 1e9, "efficiency": 1e12, "context_cap": 1000}
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump({
        "models": {"edge": profile},
        "backends": {"executor": {"type": "http", "base_url": "http://127.0.0.1:9", "model": "m"}},
        "run": {"architecture": "monolithic", "executor": {"model": "edge", "backend": "executor"}},
        "dataset": "tasks.jsonl",
        **extra,
    }), encoding="utf-8")
    return path


def test_unset_keys_take_the_constructors_defaults(tmp_path):
    (tmp_path / "corpus.jsonl").write_text('{"title": "A", "text": "A page."}\n', encoding="utf-8")
    cfg = config.load_config(write_minimal_config(tmp_path, corpus="corpus.jsonl"))
    assert cfg.run == RunConfig("monolithic", cfg.run.executor_profile)
    assert cfg.run.sampling == SamplingParams()
    assert (cfg.output, cfg.sweep, cfg.parallelism) == (tmp_path / "out", None, 1)
    # A null type is unset, like any null key: the default wiki environment.
    null_type = config.load_config(write_minimal_config(
        tmp_path, corpus="corpus.jsonl", environment={"type": None}))
    assert null_type.run == cfg.run
    backend = config.build_backend(cfg.backend_specs["executor"])
    parameters = inspect.signature(HttpChatBackend).parameters
    for name in ("max_retries", "backoff_s", "backoff_cap_s", "timeout_s"):
        assert getattr(backend, name) == parameters[name].default

    cfg = config.load_config(write_minimal_config(tmp_path, environment={"type": "scripted"}))
    env, reference = config.build_environment_factory(cfg)(), ScriptedEnvironment()
    assert (env.default, env.tools) == (reference.default, reference.tools)


@pytest.mark.parametrize("env_type, build", [("wiki", WikiEnvironment),
                                             ("scripted", ScriptedEnvironment)])
def test_environment_keys_are_type_and_the_constructors_parameters(tmp_path, env_type, build):
    """Every parameter of either environment is tried as a key; corpus is
    the program's to give, not a key."""
    (tmp_path / "corpus.jsonl").write_text('{"title": "A", "text": "A page."}\n', encoding="utf-8")
    values = {"table": [], "default": "x", "tools": ["search"]}
    candidates = {"type", *inspect.signature(WikiEnvironment).parameters,
                  *inspect.signature(ScriptedEnvironment).parameters}
    accepted = set()
    for key in sorted(candidates):
        environment = {"type": env_type}
        environment.setdefault(key, values.get(key, "x"))
        try:
            config.load_config(write_minimal_config(
                tmp_path, corpus="corpus.jsonl", environment=environment))
        except config.ConfigError as exc:
            assert str(exc) == f"unknown key {key!r} in environment"
            continue
        accepted.add(key)
    assert accepted == {"type", *inspect.signature(build).parameters} - {"corpus"}


# Plain strings and mappings mixed, with the mapping form of a match-free entry too.
MIXED_SCRIPT = [
    "alpha beta",
    {"match": "Q2", "response": "Tool call: finish[b]"},
    {"response": "gamma"},
    "delta  epsilon zeta",
    "",
    {"match": "Q1", "response": "Tool call: finish[a]"},
]


def _replay(backend, prompts):
    """Each request's reply text and usage, or the error it raised, and
    the requests the backend kept."""
    outcomes = []
    for prompt in prompts:
        try:
            response = backend.complete(ChatRequest(prompt))
            outcomes.append((response.text, response.usage))
        except (ScriptExhaustedError, NoMatchingEntryError) as exc:
            outcomes.append(type(exc))
    return outcomes, list(backend.requests)


def _script_backend(tmp_path, **spec) -> ScriptedBackend:
    """The backend of the script spec spec, loaded as load_config loads it."""
    return config.build_backend(config._backend("executor", {"type": "script", **spec}, tmp_path))


def test_script_file_of_both_forms_replays_as_its_entry_script(tmp_path):
    (tmp_path / "script.json").write_text(json.dumps(MIXED_SCRIPT), encoding="utf-8")
    built = _script_backend(tmp_path, script_file="script.json")
    assert [type(entry) for entry in built._entries] == [
        str, ScriptEntry, ScriptEntry, str, str, ScriptEntry
    ]
    entries = [ScriptEntry(item) if isinstance(item, str)
               else ScriptEntry(item["response"], item.get("match")) for item in MIXED_SCRIPT]
    head = "question: Q1 and then "
    prompts = [(head, "x y"), (head, "x y", "z"), "Q2 here", "anything", "more", "no match",
               ("Q", "1 again"), "after the end"]
    replayed = _replay(built, prompts)
    assert replayed == _replay(ScriptedBackend(entries), prompts)
    assert [o if isinstance(o, type) else o[0] for o in replayed[0]] == [
        "alpha beta", "gamma", "Tool call: finish[b]", "delta  epsilon zeta", "",
        NoMatchingEntryError, "Tool call: finish[a]", ScriptExhaustedError,
    ]


def test_null_match_is_a_match_free_entry(tmp_path):
    built = _script_backend(tmp_path, script=[{"match": None, "response": "x"}])
    assert built._entries == [ScriptEntry("x")]


BAD_SCRIPT_ENTRIES = {
    "int": (5, "backends.executor.script[1] must be a mapping, not 5"),
    "mapping-without-response": (
        {"match": "Q1"}, "missing key 'response' in backends.executor.script[1]"),
    "null": (None, "backends.executor.script[1] must be a mapping, not None"),
    "list": (["a"], "backends.executor.script[1] must be a mapping, not ['a']"),
    "response-int": (
        {"response": 5}, "backends.executor.script[1].response must be a string, not 5"),
    "match-int": ({"match": 5, "response": "x"},
                  "backends.executor.script[1].match must be a string, not 5"),
    "misspelled-match": ({"response": "x", "matc": "Q1"},
                         "unknown key 'matc' in backends.executor.script[1]"),
}


@pytest.mark.parametrize(
    "entry, message", list(BAD_SCRIPT_ENTRIES.values()), ids=list(BAD_SCRIPT_ENTRIES)
)
@pytest.mark.parametrize("source", ["script", "script_file"])
def test_bad_script_entry_is_config_error(tmp_path, entry, message, source):
    """An entry that is no plain string is read through ScriptEntry's
    declaration and refused with its location, from either source."""
    script = ["fine", entry]
    spec = {"script": script}
    if source == "script_file":
        (tmp_path / "script.json").write_text(json.dumps(script), encoding="utf-8")
        spec = {"script_file": "script.json"}
    with pytest.raises(config.ConfigError) as refused:
        _script_backend(tmp_path, **spec)
    assert str(refused.value) == message


def test_the_readme_config_example_loads(tmp_path):
    """The README's config example, its keys read through the declarations."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    example = readme.split("### Config file\n\n```yaml\n", 1)[1].split("```", 1)[0]
    (tmp_path / "config.yaml").write_text(example, encoding="utf-8")
    for name in ("tasks.jsonl", "corpus.jsonl"):
        (tmp_path / name).write_text("", encoding="utf-8")
    cfg = config.load_config(tmp_path / "config.yaml")
    assert (cfg.run.architecture, cfg.sweep) == ("eva", [1, 2, 3, 5])
    assert isinstance(config.build_environment_factory(cfg)(), WikiEnvironment)
