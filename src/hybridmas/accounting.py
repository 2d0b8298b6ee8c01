"""Cost models: edge inference energy, cloud API dollars, and KV-cache
footprint, plus their aggregation over trajectories.

Dollar arithmetic is exact decimal fixed-point so sums are
order-independent. Energy sums use math.fsum for the same reason.

Note on caching: cached prompt tokens reduce the *dollar* cost (billed at
the cached rate) but do NOT reduce edge *energy* — the analytic energy model
has no cache term and counts every prompt token as processed, so it
reads as a lower bound.
"""

from __future__ import annotations

import math
from decimal import Decimal
from typing import Mapping

from .core import (
    ModelProfile,
    TokenUsage,
    TrajectoryRecord,
    TrajectoryTotals,
)

TOKENS_PER_PRICE_UNIT = Decimal(1_000_000)


class WrongPlacementError(Exception):
    pass


class MissingKvGeometryError(Exception):
    pass


def energy_joules(profile: ModelProfile, usage: TokenUsage) -> float:
    """Edge inference energy for one call: 2 * params * (prompt + generated
    tokens) / efficiency. Cached tokens are not discounted."""
    if profile.placement != "edge":
        raise WrongPlacementError(f"{profile.name} is not an edge profile")
    tokens = usage.prompt_tokens + usage.generated_tokens
    return 2.0 * profile.param_count * tokens / profile.efficiency


def api_cost_usd(profile: ModelProfile, usage: TokenUsage) -> Decimal:
    """Cloud API dollars for one call. The prefill rate applies to
    non-cached prompt tokens only; cached tokens bill at the cached rate."""
    if profile.placement != "cloud":
        raise WrongPlacementError(f"{profile.name} is not a cloud profile")
    pricing = profile.pricing
    uncached = usage.prompt_tokens - usage.cached_tokens
    return (
        Decimal(uncached) * pricing.prefill
        + Decimal(usage.cached_tokens) * pricing.cached
        + Decimal(usage.generated_tokens) * pricing.generated
    ) / TOKENS_PER_PRICE_UNIT


def kv_cache_bytes(profile: ModelProfile, context_tokens: int) -> int:
    """KV-cache bytes at a given context length: 2 (keys and values) *
    layers * kv_heads * head_dim * bytes_per_activation * tokens."""
    if context_tokens < 0:
        raise ValueError("context_tokens must be >= 0")
    if not profile.has_kv_geometry:
        raise MissingKvGeometryError(
            f"{profile.name} lacks layers/kv_heads/head_dim/bytes_per_activation"
        )
    return (
        2
        * profile.layers
        * profile.kv_heads
        * profile.head_dim
        * profile.bytes_per_activation
        * context_tokens
    )


def aggregate(
    record: TrajectoryRecord, profiles: Mapping[str, ModelProfile]
) -> TrajectoryTotals:
    """Totals over one trajectory: dollar and joule sums by each call's
    profile placement, plus the context/KV maxima over executor calls.

    profiles maps roles to profiles: "executor" required, "supervisor"
    required when the record holds supervisor calls.
    """
    executor = profiles["executor"]
    plan = () if record.initial_plan is None else (record.initial_plan,)
    calls = [(executor, turn.usage) for turn in record.turns]
    for call in (*plan, *record.supervisor_calls):
        if "supervisor" not in profiles:
            raise ValueError("record has supervisor calls but no supervisor profile")
        calls.append((profiles["supervisor"], call.usage))
    max_context = max((turn.usage.total_tokens for turn in record.turns), default=0)
    return TrajectoryTotals(
        sum((api_cost_usd(p, u) for p, u in calls if p.placement == "cloud"), Decimal(0)),
        math.fsum(energy_joules(p, u) for p, u in calls if p.placement == "edge"),
        max_context,
        kv_cache_bytes(executor, max_context) if executor.has_kv_geometry else 0,
    )
