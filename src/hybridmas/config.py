"""Experiment configuration: a single YAML file naming the run condition,
model profiles, backend bindings, dataset/corpus paths, and sweep values.

Credentials are never stored in config, only the names of environment
variables holding them. Relative paths resolve against the config file's
directory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
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
from .environments import (
    DEFAULT_OBSERVATION_LIMIT,
    Observation,
    ScriptedEnvironment,
    WikiCorpus,
    WikiEnvironment,
)


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
    run: RunConfig
    executor_backend_name: str
    supervisor_backend_name: Optional[str]
    models: dict[str, ModelProfile]
    backend_specs: dict[str, dict]
    dataset: Path
    corpus: Optional[Path]
    environment: dict = field(default_factory=lambda: {"type": "wiki"})
    output: Path = Path("out")
    sweep: Optional[list[int]] = None
    parallelism: int = 1

    def with_verify_interval(self, verify_interval: int) -> RunConfig:
        return replace(self.run, verify_interval=verify_interval)


def _require(mapping: dict, key: str, where: str) -> Any:
    if key not in mapping:
        raise ConfigError(f"missing key {key!r} in {where}")
    return mapping[key]


def _decimal(value: Any, where: str) -> Decimal:
    try:
        return Decimal(str(value))
    except InvalidOperation:
        raise ConfigError(f"{where}: {value!r} is not a valid decimal")


def parse_model_profile(name: str, raw: dict) -> ModelProfile:
    where = f"models.{name}"
    placement = _require(raw, "placement", where)
    pricing = None
    if "pricing" in raw and raw["pricing"] is not None:
        p = raw["pricing"]
        pricing = Pricing(
            prefill=_decimal(_require(p, "prefill", f"{where}.pricing"), where),
            cached=_decimal(_require(p, "cached", f"{where}.pricing"), where),
            generated=_decimal(_require(p, "generated", f"{where}.pricing"), where),
        )
    try:
        return ModelProfile(
            name=name,
            placement=placement,
            context_cap=int(_require(raw, "context_cap", where)),
            param_count=float(raw["param_count"]) if raw.get("param_count") else None,
            layers=int(raw["layers"]) if raw.get("layers") else None,
            kv_heads=int(raw["kv_heads"]) if raw.get("kv_heads") else None,
            head_dim=int(raw["head_dim"]) if raw.get("head_dim") else None,
            bytes_per_activation=(
                int(raw["bytes_per_activation"]) if raw.get("bytes_per_activation") else None
            ),
            efficiency=float(raw["efficiency"]) if raw.get("efficiency") else None,
            pricing=pricing,
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}")


def _load_script(spec: dict, base_dir: Path) -> list[ScriptEntry]:
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
        if isinstance(item, str):
            entries.append(ScriptEntry(item))
        elif isinstance(item, dict) and "response" in item:
            entries.append(ScriptEntry(item["response"], item.get("match")))
        else:
            raise ConfigError(f"bad script entry: {item!r}")
    return entries


def build_backend(spec: dict, base_dir: Path):
    """Instantiate a backend from its config spec. Scripted backends hold
    per-run consumption state, so call this once per run."""
    kind = _require(spec, "type", "backend spec")
    if kind == "script":
        return ScriptedBackend(_load_script(spec, base_dir))
    if kind == "http":
        return HttpChatBackend(
            base_url=_require(spec, "base_url", "http backend"),
            model=_require(spec, "model", "http backend"),
            credential_env=spec.get("credential_env"),
            max_retries=int(spec.get("max_retries", 3)),
            backoff_s=float(spec.get("backoff_s", 0.5)),
            backoff_cap_s=float(spec.get("backoff_cap_s", 8.0)),
            timeout_s=float(spec.get("timeout_s", 120.0)),
        )
    raise ConfigError(f"unknown backend type {kind!r}")


def build_environment_factory(cfg: ExperimentConfig) -> Callable[[], object]:
    """Return a zero-argument factory producing a fresh environment per
    trajectory. Corpora are shared; sessions are not."""
    env_type = cfg.environment.get("type", "wiki")
    limit = int(cfg.environment.get("observation_limit", DEFAULT_OBSERVATION_LIMIT))
    if env_type == "wiki":
        if cfg.corpus is None:
            raise ConfigError("wiki environment requires a corpus path")
        corpus = WikiCorpus.load(cfg.corpus)
        return lambda: WikiEnvironment(corpus, observation_limit=limit)
    if env_type == "scripted":
        table = {}
        for entry in cfg.environment.get("table", []):
            call = ToolCall(entry["tool"], entry.get("argument", ""))
            table[call] = Observation(
                entry["text"],
                bool(entry.get("terminal", False)),
                entry.get("final_answer"),
            )
        default = cfg.environment.get("default", "Nothing happens.")
        tools = tuple(cfg.environment.get("tools", ("search", "lookup", "finish")))
        return lambda: ScriptedEnvironment(
            table, default, tools=tools, observation_limit=limit
        )
    raise ConfigError(f"unknown environment type {env_type!r}")


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    raw = _load_yaml(path)
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    base_dir = path.parent

    models_raw = _require(raw, "models", "config")
    models = {name: parse_model_profile(name, spec) for name, spec in models_raw.items()}

    backend_specs = _require(raw, "backends", "config")
    if not isinstance(backend_specs, dict) or not backend_specs:
        raise ConfigError("backends section must be a non-empty mapping")

    run_raw = _require(raw, "run", "config")
    architecture = _require(run_raw, "architecture", "run")
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
        model_name = _require(binding, "model", f"run.{role}")
        backend_name = _require(binding, "backend", f"run.{role}")
        if model_name not in models:
            raise ConfigError(f"run.{role}.model references unknown model {model_name!r}")
        if backend_name not in backend_specs:
            raise ConfigError(
                f"run.{role}.backend references unknown backend {backend_name!r}"
            )
        return models[model_name], backend_name

    executor_profile, executor_backend_name = resolve_role("executor", required=True)
    supervisor_profile, supervisor_backend_name = resolve_role(
        "supervisor", required=architecture != "monolithic"
    )

    sampling_raw = run_raw.get("sampling") or {}
    sampling = SamplingParams(
        temperature=float(sampling_raw.get("temperature", 0.0)),
        max_generated_tokens=int(sampling_raw.get("max_generated_tokens", 1024)),
    )

    environment = raw.get("environment") or {"type": "wiki"}

    try:
        run_config = RunConfig(
            architecture=architecture,
            executor_profile=executor_profile,
            supervisor_profile=supervisor_profile,
            max_turns=int(run_raw["max_turns"]) if run_raw.get("max_turns") else None,
            verify_interval=int(run_raw.get("verify_interval", 1)),
            environment_id=environment.get("type", "wiki"),
            seed=int(run_raw.get("seed", 0)),
            sampling=sampling,
        )
    except ValueError as exc:
        raise ConfigError(str(exc))

    dataset = base_dir / _require(raw, "dataset", "config")
    if not dataset.is_file():
        raise ConfigError(f"dataset file not found: {dataset}")
    corpus = None
    if raw.get("corpus"):
        corpus = base_dir / raw["corpus"]
        if not corpus.is_file():
            raise ConfigError(f"corpus file not found: {corpus}")
    if environment.get("type", "wiki") == "wiki" and corpus is None:
        raise ConfigError("wiki environment requires a corpus path")

    sweep = raw.get("sweep")
    if sweep is not None:
        if not isinstance(sweep, list) or not sweep:
            raise ConfigError("sweep must be a non-empty list of intervals")
        sweep = [int(v) for v in sweep]
        if any(v < 1 for v in sweep):
            raise ConfigError("sweep values must be >= 1")

    output = Path(raw["output"]) if raw.get("output") else Path("out")
    if not output.is_absolute():
        output = base_dir / output

    parallelism = int(raw.get("parallelism", 1))
    if parallelism < 1:
        raise ConfigError("parallelism must be >= 1")

    return ExperimentConfig(
        run=run_config,
        executor_backend_name=executor_backend_name,
        supervisor_backend_name=supervisor_backend_name,
        models=models,
        backend_specs=backend_specs,
        dataset=dataset,
        corpus=corpus,
        environment=environment,
        output=output,
        sweep=sweep,
        parallelism=parallelism,
    )
