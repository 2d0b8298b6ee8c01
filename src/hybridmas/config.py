"""Experiment configuration: a single YAML file naming the run condition,
model profiles, backend bindings, the environment, dataset/corpus paths,
and sweep values.

Each section's keys are the parameters of what it builds (RunConfig,
SamplingParams, ModelProfile, Pricing, HttpChatBackend, WikiEnvironment or
ScriptedEnvironment, and ToolCall and Observation for a table entry), each
converted by its declared type; any other key is a ConfigError, and so is a
value the constructor refuses. 0, false, "" and [] are values, checked as
such, never a stand-in for a default.
load_config is the one reader of the file: every backend spec is checked
at load, whether or not a role references it, and every script is read
there, once. A backend and the environment are kept as builders that
construct objects only. A sweep lists each interval once.
Credentials are never stored in config, only the names of environment
variables holding them. Relative paths resolve against the config file's
directory.
"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import dataclass, replace
from decimal import Decimal, InvalidOperation
from functools import lru_cache, partial
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, get_args, get_type_hints

import yaml

from .backends import HttpChatBackend, ScriptedBackend, ScriptEntry
from .core import ModelProfile, Pricing, RunConfig, SamplingParams, ToolCall
from .environments import Observation, ScriptedEnvironment, WikiCorpus, WikiEnvironment


class ConfigError(Exception):
    pass


# libyaml's loader when PyYAML was built with it; it builds the same objects
# as the pure-Python SafeLoader, an order of magnitude faster.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _load_yaml(path: Path) -> Any:
    try:
        return yaml.load(path.read_text(encoding="utf-8"), Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}")


@dataclass
class ExperimentConfig:
    """A config file as load_config reads it, its paths resolved against
    the file's directory; output defaults to "out" there. Each backend is
    a zero-argument builder, and the environment a builder that takes a
    wiki environment's corpus."""

    run: RunConfig
    executor_backend_name: str
    supervisor_backend_name: Optional[str]
    backend_specs: dict[str, Callable[[], object]]
    dataset: Path
    corpus: Optional[Path]
    environment: Callable[..., object]
    output: Path
    sweep: Optional[list[int]]
    parallelism: int = 1


def _mapping(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a mapping, not {value!r}")
    return value


def _require(mapping: dict, key: str, where: str) -> Any:
    if key not in _mapping(mapping, where):
        raise ConfigError(f"missing key {key!r} in {where}")
    return mapping[key]


def _given(mapping: dict, key: str, default: Any) -> Any:
    """mapping[key], or default where the key is absent or null."""
    value = mapping.get(key)
    return default if value is None else value


def _number(convert: Callable[[Any], Any], value: Any, where: str) -> Any:
    """convert(value), reporting a malformed value as a ConfigError."""
    try:
        return convert(value)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}")


def _float(value: Any, where: str) -> float:
    """value as a float. NaN and the infinities are ConfigErrors: no
    bound check rejects NaN, and an infinite rate or time is no setting."""
    number = _number(float, value, where)
    if not math.isfinite(number):
        raise ConfigError(f"{where}: {value!r} is not a finite number")
    return number


def _integer(value: Any, where: str) -> int:
    """value as an int. A bool or a non-integral number is a ConfigError:
    int() would read true as 1 and 2.7 as 2."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{where}: {value!r} is not an integer")
    return _number(int, value, where)


def _string(value: Any, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string, not {value!r}")
    return value


def _path(value: Any, where: str) -> str:
    if not _string(value, where):
        raise ConfigError(f"{where} must be a non-empty path")
    return value


def _boolean(value: Any, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{where} must be true or false, not {value!r}")
    return value


def parse_parallelism(value: Any, where: str) -> int:
    parallelism = _integer(value, where)
    if parallelism < 1:
        raise ConfigError("parallelism must be >= 1")
    return parallelism


def _decimal(value: Any, where: str) -> Decimal:
    try:
        number = Decimal(str(value))
    except InvalidOperation:
        raise ConfigError(f"{where}: {value!r} is not a valid decimal")
    if not number.is_finite():
        raise ConfigError(f"{where}: {value!r} is not a finite number")
    return number


def _table(value: Any, where: str) -> dict[ToolCall, Observation]:
    """A scripted environment's table: a list of entries, each read through
    ToolCall and Observation, so that an entry's keys are their parameters.
    A call that an earlier entry made is a ConfigError."""
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list of entries, not {value!r}")
    call_keys, observation_keys = (tuple(inspect.signature(build).parameters)
                                   for build in (ToolCall, Observation))
    table = {}
    for i, entry in enumerate(value):
        call = _construct(ToolCall, entry, f"{where}[{i}].", observation_keys)
        if call in table:
            raise ConfigError(f"{where}[{i}]: duplicate call {call.render()}")
        table[call] = _construct(Observation, entry, f"{where}[{i}].", call_keys)
    return table


# The converter of each type a config key may be declared with.
_CONVERTERS = {int: _integer, float: _float, str: _string, Decimal: _decimal, bool: _boolean,
               Mapping[ToolCall, Observation]: _table}


def _known(raw: Any, keys: tuple, section: str) -> dict:
    """raw, once it is a mapping whose every key is one of keys."""
    for key in _mapping(raw, section):
        if key not in keys:
            raise ConfigError(f"unknown key {key!r} in {section}")
    return raw


@lru_cache(maxsize=None)
def _declaration(build, given: frozenset) -> tuple[dict, tuple]:
    """({key: converter}, required keys) for the parameters of build that
    given does not name. A key's converter follows its declared type; where
    that type is Optional, it takes null as well."""
    hints = get_type_hints(build.__init__)
    converters, required = {}, []
    for name, param in inspect.signature(build).parameters.items():
        if name in given:
            continue
        declared = hints[name]
        if type(None) in get_args(declared):
            convert = _CONVERTERS[get_args(declared)[0]]
            converters[name] = lambda value, where, convert=convert: (
                None if value is None else convert(value, where))
        else:
            converters[name] = _CONVERTERS[declared]
        if param.default is param.empty:
            required.append(name)
    return converters, tuple(required)


def _keywords(build, raw: Any, where: str, config_only=(), given=()) -> dict:
    """The keys of raw that build declares and given does not name, each
    converted by its declared type and located as where + key (where ends
    in the separator after the section). A key that raw leaves out is left
    out here too, so that build applies its own default. Any other key of
    raw is a ConfigError unless config_only names it."""
    section = where[:-1]
    converters, required = _declaration(build, frozenset(given))
    _known(raw, (*converters, *config_only), section)
    for key in required:
        _require(raw, key, section)
    return {key: convert(raw[key], where + key)
            for key, convert in converters.items() if key in raw}


def _build(build, section: str, keywords: dict):
    """build(**keywords), reporting a value it refuses as a ConfigError."""
    try:
        return build(**keywords)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{section}: {exc}")


def _construct(build, raw: Any, where: str, config_only=(), **given):
    return _build(build, where[:-1], {**given, **_keywords(build, raw, where, config_only, given)})


def parse_model_profile(name: str, raw: dict) -> ModelProfile:
    where = f"models.{name}."
    pricing = _mapping(raw, where[:-1]).get("pricing")
    if pricing is not None:
        pricing = _construct(Pricing, pricing, where + "pricing.")
    return _construct(ModelProfile, raw, where, ("pricing",), name=name, pricing=pricing)


def _load_script(name: str, spec: dict, base_dir: Path) -> list[str | ScriptEntry]:
    """The script of backends.<name>, each entry checked: a plain string is
    kept as it is, and only a {match, response} mapping, whose response is a
    string and whose match is a string or null, becomes a ScriptEntry. A
    mapping with any other key is a bad entry: a misspelled match would
    answer any request. A script_file resolves against base_dir."""
    if "script" in spec:
        raw_entries = spec["script"]
    else:
        path = base_dir.absolute() / _path(spec["script_file"], f"backends.{name}.script_file")
        if not path.is_file():
            raise ConfigError(f"script file not found: {path}")
        if path.suffix in (".yaml", ".yml"):
            raw_entries = _load_yaml(path)
        else:
            try:
                raw_entries = json.loads(path.read_text(encoding="utf-8"))
            except json.JSONDecodeError as exc:
                raise ConfigError(f"invalid JSON in {path}: {exc}")
    if not isinstance(raw_entries, list) or not raw_entries:
        raise ConfigError("backend script must be a non-empty list")
    entries = []
    for item in raw_entries:
        if (isinstance(item, dict) and item.keys() <= {"match", "response"}
                and isinstance(item.get("response"), str)
                and isinstance(item.get("match", ""), (str, type(None)))):
            item = ScriptEntry(item["response"], item.get("match"))
        elif not isinstance(item, str):
            raise ConfigError(f"bad script entry: {item!r}")
        entries.append(item)
    return entries


def _backend(name: str, spec: Any, base_dir: Path) -> Callable[[], object]:
    """A zero-argument builder of the backend that backends.<name> describes,
    its every key and value checked: a script spec's script is read here,
    once (every build shares the list, which ScriptedBackend never
    mutates), and an http spec is built once to check its values."""
    kind = _require(spec, "type", "backend spec")
    if kind == "script":
        spec = _known(spec, ("type", "script", "script_file"), "script backend")
        if "script" not in spec and "script_file" not in spec:
            raise ConfigError("scripted backends need a script or script_file key")
        return partial(ScriptedBackend, _load_script(name, spec, base_dir))
    if kind == "http":
        keywords = _keywords(HttpChatBackend, spec, "http backend ", ("type",))
        _build(HttpChatBackend, "http backend", keywords)
        return partial(HttpChatBackend, **keywords)
    raise ConfigError(f"unknown backend type {kind!r}")


def build_backend(spec: Callable[[], object], base_dir: Optional[Path] = None):
    """A new backend from a builder of load_config's backend_specs, whose
    values load_config has checked. Scripted backends hold per-run
    consumption state, so call this once per run. base_dir is not read;
    perfbench's worker still passes it."""
    return spec()


def build_environment_factory(cfg: ExperimentConfig) -> Callable[[], object]:
    """Return a zero-argument factory producing a fresh environment per
    trajectory: cfg.environment, given the loaded wiki corpus where the
    environment is a wiki one. Corpora are shared; lookup state is not."""
    if cfg.run.environment_id == "wiki":
        return partial(cfg.environment, corpus=WikiCorpus.load(cfg.corpus))
    return cfg.environment


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    raw = _known(_load_yaml(path), ("run", "models", "backends", "dataset", "corpus",
                                    "environment", "output", "sweep", "parallelism"), "config")
    base_dir = path.parent

    models_raw = _mapping(_require(raw, "models", "config"), "models")
    models = {name: parse_model_profile(name, spec) for name, spec in models_raw.items()}

    backend_specs = _require(raw, "backends", "config")
    if not isinstance(backend_specs, dict) or not backend_specs:
        raise ConfigError("backends section must be a non-empty mapping")
    # Every spec is checked here, referenced by a role or not.
    backend_specs = {name: _backend(name, spec, base_dir) for name, spec in backend_specs.items()}

    run_raw = _mapping(_require(raw, "run", "config"), "run")

    def resolve_role(role: str, required: bool):
        if run_raw.get(role) is None:
            if required:
                raise ConfigError(f"run.{role} is required")
            return None, None
        binding = _known(run_raw[role], ("model", "backend"), f"run.{role}")
        model_name = _string(_require(binding, "model", f"run.{role}"), f"run.{role}.model")
        backend_name = _string(_require(binding, "backend", f"run.{role}"),
                               f"run.{role}.backend")
        if model_name not in models:
            raise ConfigError(f"run.{role}.model references unknown model {model_name!r}")
        if backend_name not in backend_specs:
            raise ConfigError(
                f"run.{role}.backend references unknown backend {backend_name!r}"
            )
        return models[model_name], backend_name

    # RunConfig requires a supervisor of every architecture but monolithic.
    executor_profile, executor_backend_name = resolve_role("executor", required=True)
    supervisor_profile, supervisor_backend_name = resolve_role("supervisor", required=False)

    environment = _mapping(_given(raw, "environment", {}), "environment")
    environment_id = _string(_given(environment, "type", RunConfig.environment_id),
                             "environment.type")
    build = {"wiki": WikiEnvironment, "scripted": ScriptedEnvironment}.get(environment_id)
    if build is None:
        raise ConfigError(f"unknown environment type {environment_id!r}")
    # A wiki corpus is given, not a key.
    environment = partial(build, **_keywords(build, environment, "environment.", ("type",),
                                             ("corpus",)))
    run_config = _construct(
        RunConfig, run_raw, "run.", ("executor", "supervisor", "sampling"),
        executor_profile=executor_profile,
        supervisor_profile=supervisor_profile,
        sampling=_construct(SamplingParams, _given(run_raw, "sampling", {}), "run.sampling."),
        environment_id=environment_id,
    )

    dataset = base_dir / _path(_require(raw, "dataset", "config"), "dataset")
    if not dataset.is_file():
        raise ConfigError(f"dataset file not found: {dataset}")
    corpus = raw.get("corpus")
    if corpus is not None:
        corpus = base_dir / _path(corpus, "corpus")
        if not corpus.is_file():
            raise ConfigError(f"corpus file not found: {corpus}")
    if run_config.environment_id == "wiki" and corpus is None:
        raise ConfigError("wiki environment requires a corpus path")

    sweep = raw.get("sweep")
    if sweep is not None:
        if not isinstance(sweep, list) or not sweep:
            raise ConfigError("sweep must be a non-empty list of intervals")
        sweep = [_integer(v, "sweep") for v in sweep]
        for i, interval in enumerate(sweep):
            if interval in sweep[:i]:
                raise ConfigError(f"sweep: duplicate interval {interval}")
            _build(partial(replace, run_config), "sweep", {"verify_interval": interval})

    # An absolute output path replaces base_dir.
    output = base_dir / _path(_given(raw, "output", "out"), "output")

    return ExperimentConfig(
        run=run_config,
        executor_backend_name=executor_backend_name,
        supervisor_backend_name=supervisor_backend_name,
        backend_specs=backend_specs,
        dataset=dataset,
        corpus=corpus,
        environment=environment,
        output=output,
        sweep=sweep,
        parallelism=parse_parallelism(raw.get("parallelism", ExperimentConfig.parallelism),
                                      "parallelism"),
    )
