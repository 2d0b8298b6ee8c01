"""Experiment configuration: a single YAML file naming the run condition,
model profiles, backend bindings, dataset/corpus paths, and sweep values.

Credentials are never stored in config, only the names of environment
variables holding them. Relative paths resolve against the config file's
directory.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from pathlib import Path
from typing import Any, Callable, Optional

import yaml

from .backends import HttpChatBackend, ScriptedBackend, ScriptEntry
from .core import (
    ARCHITECTURES,
    ModelProfile,
    Pricing,
    RunConfig,
    SamplingParams,
    ToolCall,
)
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
    the file's directory; output defaults to "out" there."""

    run: RunConfig
    executor_backend_name: str
    supervisor_backend_name: Optional[str]
    backend_specs: dict[str, dict]
    dataset: Path
    corpus: Optional[Path]
    environment: dict
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


def _strings(value: Any, where: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        raise ConfigError(f"{where} must be a list of strings, not {value!r}")
    return value


def _observation_limit(value: Any, where: str) -> int:
    limit = _integer(value, where)
    if limit < 1:
        raise ConfigError(f"{where} must be >= 1, not {limit}")
    return limit


def parse_parallelism(value: Any, where: str) -> int:
    parallelism = _integer(value, where)
    if parallelism < 1:
        raise ConfigError("parallelism must be >= 1")
    return parallelism


def _set_keys(raw: dict, converters: dict[str, Callable[[Any, str], Any]], where: str) -> dict:
    """converters[key](raw[key], where + key) for each key that raw sets. A
    key that raw leaves out is left out here too, so that the constructor
    it is passed to applies its own default."""
    return {key: convert(raw[key], where + key) for key, convert in converters.items()
            if key in raw}


def _optional_integer(raw: dict, key: str, where: str) -> Optional[int]:
    """raw[key] as an int, or None when it is missing or null."""
    value = raw.get(key)
    return None if value is None else _integer(value, f"{where}.{key}")


def _decimal(value: Any, where: str) -> Decimal:
    try:
        number = Decimal(str(value))
    except InvalidOperation:
        raise ConfigError(f"{where}: {value!r} is not a valid decimal")
    if not number.is_finite():
        raise ConfigError(f"{where}: {value!r} is not a finite number")
    return number


def parse_model_profile(name: str, raw: dict) -> ModelProfile:
    where = f"models.{name}"
    placement = _require(raw, "placement", where)
    rates = None
    if raw.get("pricing") is not None:
        rates = {
            rate: _decimal(_require(raw["pricing"], rate, f"{where}.pricing"),
                           f"{where}.pricing.{rate}")
            for rate in ("prefill", "cached", "generated")
        }
    try:
        return ModelProfile(
            name=name,
            placement=placement,
            context_cap=_integer(_require(raw, "context_cap", where), f"{where}.context_cap"),
            param_count=_float(raw["param_count"], f"{where}.param_count")
            if raw.get("param_count") else None,
            layers=_optional_integer(raw, "layers", where),
            kv_heads=_optional_integer(raw, "kv_heads", where),
            head_dim=_optional_integer(raw, "head_dim", where),
            bytes_per_activation=_optional_integer(raw, "bytes_per_activation", where),
            efficiency=_float(raw["efficiency"], f"{where}.efficiency")
            if raw.get("efficiency") else None,
            pricing=None if rates is None else Pricing(**rates),
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}")


def _load_script(spec: dict, base_dir: Path) -> list[str | ScriptEntry]:
    """The spec's script with each entry checked: a plain string is kept as
    it is, and only a {match, response} mapping, whose response is a string
    and whose match is a string or null, becomes a ScriptEntry."""
    if "script" in spec:
        raw_entries = spec["script"]
    elif "script_file" in spec:
        path = base_dir / spec["script_file"]
        if not path.is_file():
            raise ConfigError(f"script file not found: {path}")
        if path.suffix in (".yaml", ".yml"):
            raw_entries = _load_yaml(path)
        else:
            try:
                raw_entries = json.loads(path.read_text(encoding="utf-8"))
            except json.JSONDecodeError as exc:
                raise ConfigError(f"invalid JSON in {path}: {exc}")
    else:
        raise ConfigError("scripted backends need a script or script_file key")
    if not isinstance(raw_entries, list) or not raw_entries:
        raise ConfigError("backend script must be a non-empty list")
    entries = []
    for item in raw_entries:
        if (isinstance(item, dict) and isinstance(item.get("response"), str)
                and isinstance(item.get("match", ""), (str, type(None)))):
            item = ScriptEntry(item["response"], item.get("match"))
        elif not isinstance(item, str):
            raise ConfigError(f"bad script entry: {item!r}")
        entries.append(item)
    return entries


def build_backend(spec: dict, base_dir: Path):
    """Instantiate a backend from its config spec. Scripted backends hold
    per-run consumption state, so call this once per run. A relative
    script_file resolves against base_dir; load_config makes a config's
    absolute, against the config's directory."""
    kind = _require(spec, "type", "backend spec")
    if kind == "script":
        return ScriptedBackend(_load_script(spec, base_dir))
    if kind == "http":
        try:
            credential_env = spec.get("credential_env")
            if credential_env is not None:
                _string(credential_env, "http backend credential_env")
            return HttpChatBackend(
                base_url=_string(_require(spec, "base_url", "http backend"),
                                 "http backend base_url"),
                model=_string(_require(spec, "model", "http backend"), "http backend model"),
                credential_env=credential_env,
                **_set_keys(spec, {"max_retries": _integer, "backoff_s": _float,
                                   "backoff_cap_s": _float, "timeout_s": _float}, "http backend "),
            )
        except ValueError as exc:  # a base_url that is not an http(s) URL
            raise ConfigError(f"http backend: {exc}")
    raise ConfigError(f"unknown backend type {kind!r}")


def build_environment_factory(cfg: ExperimentConfig) -> Callable[[], object]:
    """Return a zero-argument factory producing a fresh environment per
    trajectory. Corpora are shared; sessions are not."""
    env_type = cfg.run.environment_id
    limit = _set_keys(cfg.environment, {"observation_limit": _observation_limit}, "environment.")
    if env_type == "wiki":
        corpus = WikiCorpus.load(cfg.corpus)
        return lambda: WikiEnvironment(corpus, **limit)
    if env_type == "scripted":
        table = {}
        for entry in cfg.environment.get("table", []):
            try:
                call = ToolCall(entry["tool"], entry.get("argument", ""))
                terminal = entry.get("terminal", False)
                if not isinstance(terminal, bool):
                    raise TypeError(f"terminal must be true or false, not {terminal!r}")
                text, answer = entry["text"], entry.get("final_answer")
                strings = (call.tool, call.argument, text, "" if answer is None else answer)
                if not all(isinstance(value, str) for value in strings):
                    raise TypeError("tool, argument, text and final_answer must be strings")
                table[call] = Observation(text, terminal, answer)
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"environment.table: bad entry {entry!r}: {exc!r}")
        options = _set_keys(cfg.environment, {"default": _string, "tools": _strings},
                            "environment.")
        return lambda: ScriptedEnvironment(table, **options, **limit)
    raise ConfigError(f"unknown environment type {env_type!r}")


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    raw = _load_yaml(path)
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    base_dir = path.parent

    models_raw = _mapping(_require(raw, "models", "config"), "models")
    models = {name: parse_model_profile(name, spec) for name, spec in models_raw.items()}

    backend_specs = _require(raw, "backends", "config")
    if not isinstance(backend_specs, dict) or not backend_specs:
        raise ConfigError("backends section must be a non-empty mapping")
    for name, spec in backend_specs.items():
        if isinstance(spec, dict) and "script_file" in spec:
            script_file = _string(spec["script_file"], f"backends.{name}.script_file")
            backend_specs[name] = {**spec, "script_file": base_dir.absolute() / script_file}

    run_raw = _require(raw, "run", "config")
    architecture = _string(_require(run_raw, "architecture", "run"), "run.architecture")
    if architecture not in ARCHITECTURES:
        raise ConfigError(f"unknown architecture {architecture!r}")

    def resolve_role(role: str, required: bool):
        if role not in run_raw or run_raw[role] is None:
            if required:
                raise ConfigError(f"run.{role} is required for {architecture}")
            return None, None
        binding = run_raw[role]
        if not isinstance(binding, dict):
            raise ConfigError(f"run.{role} must be a mapping with model and backend keys")
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

    executor_profile, executor_backend_name = resolve_role("executor", required=True)
    supervisor_profile, supervisor_backend_name = resolve_role(
        "supervisor", required=ARCHITECTURES[architecture] != "monolithic"
    )

    sampling_raw = _mapping(run_raw.get("sampling") or {}, "run.sampling")
    environment = _mapping(raw.get("environment") or {}, "environment")

    try:
        sampling = SamplingParams(**_set_keys(
            sampling_raw, {"temperature": _float, "max_generated_tokens": _integer},
            "run.sampling.",
        ))
        settings = _set_keys(run_raw, {"verify_interval": _integer, "seed": _integer}, "run.")
        if "type" in environment:
            settings["environment_id"] = environment["type"]
        run_config = RunConfig(
            architecture=architecture,
            executor_profile=executor_profile,
            supervisor_profile=supervisor_profile,
            max_turns=_optional_integer(run_raw, "max_turns", "run"),
            sampling=sampling,
            **settings,
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc))

    dataset = base_dir / _string(_require(raw, "dataset", "config"), "dataset")
    if not dataset.is_file():
        raise ConfigError(f"dataset file not found: {dataset}")
    corpus = None
    if raw.get("corpus"):
        corpus = base_dir / _string(raw["corpus"], "corpus")
        if not corpus.is_file():
            raise ConfigError(f"corpus file not found: {corpus}")
    if run_config.environment_id == "wiki" and corpus is None:
        raise ConfigError("wiki environment requires a corpus path")

    sweep = raw.get("sweep")
    if sweep is not None:
        if not isinstance(sweep, list) or not sweep:
            raise ConfigError("sweep must be a non-empty list of intervals")
        sweep = [_integer(v, "sweep") for v in sweep]
        if any(v < 1 for v in sweep):
            raise ConfigError("sweep values must be >= 1")

    # An absolute output path replaces base_dir.
    output = base_dir / _string(raw.get("output") or "out", "output")

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
        **_set_keys(raw, {"parallelism": parse_parallelism}, ""),
    )
