"""Frozen oracles for the three cost models and aggregation."""

import math
import random
from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

from hybridmas.accounting import (
    WrongPlacementError,
    aggregate,
    api_cost_usd,
    energy_joules,
    kv_cache_bytes,
)
from hybridmas.core import (
    ModelProfile,
    SupervisorCallRecord,
    TokenUsage,
    ToolCall,
    TrajectoryRecord,
    TurnRecord,
    VerifierDecision,
)
from conftest import CLOUD_PROFILE, EDGE_PROFILE


def usage(prompt=0, cached=0, generated=0) -> TokenUsage:
    return TokenUsage(prompt, cached, generated)


class TestEnergy:
    def test_reference_value(self):
        # 2 * 4e9 * (1000 + 200) / 1.5e12 = 6.4 J
        value = energy_joules(EDGE_PROFILE, usage(1000, 0, 200))
        assert value == pytest.approx(6.4, rel=1e-12)

    def test_zero_tokens(self):
        assert energy_joules(EDGE_PROFILE, usage()) == 0.0

    def test_hand_evaluation(self):
        profile = ModelProfile(
            "edge-8b", "edge", context_cap=32768, param_count=8e9, efficiency=1e12
        )
        assert energy_joules(profile, usage(500, 0, 500)) == pytest.approx(16.0, rel=1e-12)

    def test_cached_tokens_not_discounted(self):
        assert energy_joules(EDGE_PROFILE, usage(1000, 999, 200)) == energy_joules(
            EDGE_PROFILE, usage(1000, 0, 200)
        )

    def test_wrong_placement(self):
        with pytest.raises(WrongPlacementError):
            energy_joules(CLOUD_PROFILE, usage(1, 0, 1))

    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_doubling_tokens_doubles_energy(self, prompt, generated):
        single = energy_joules(EDGE_PROFILE, usage(prompt, 0, generated))
        double = energy_joules(EDGE_PROFILE, usage(2 * prompt, 0, 2 * generated))
        assert double == pytest.approx(2 * single, rel=1e-12)


class TestApiCost:
    def test_one_million_uncached_prefill(self):
        assert api_cost_usd(CLOUD_PROFILE, usage(1_000_000, 0, 0)) == Decimal("2.5")

    def test_zero_usage(self):
        assert api_cost_usd(CLOUD_PROFILE, usage()) == Decimal(0)

    def test_mixed_rates(self):
        # 100k uncached * 2.5 + 100k cached * 1.25 + 50k generated * 10, per 1e6
        value = api_cost_usd(CLOUD_PROFILE, usage(200_000, 100_000, 50_000))
        assert value == Decimal("0.875")

    def test_wrong_placement(self):
        with pytest.raises(WrongPlacementError):
            api_cost_usd(EDGE_PROFILE, usage(1, 0, 1))

    def test_additive_over_random_splits(self):
        rng = random.Random(42)
        for _ in range(200):
            parts = [
                usage(
                    prompt=rng.randrange(0, 10**6),
                    cached=0,
                    generated=rng.randrange(0, 10**6),
                )
                for _ in range(rng.randrange(1, 6))
            ]
            parts = [
                TokenUsage(p.prompt_tokens, rng.randrange(0, p.prompt_tokens + 1), p.generated_tokens)
                for p in parts
            ]
            total = TokenUsage(
                sum(p.prompt_tokens for p in parts),
                sum(p.cached_tokens for p in parts),
                sum(p.generated_tokens for p in parts),
            )
            assert api_cost_usd(CLOUD_PROFILE, total) == sum(
                (api_cost_usd(CLOUD_PROFILE, p) for p in parts), Decimal(0)
            )

    @given(
        st.integers(min_value=0, max_value=10**7),
        st.integers(min_value=0, max_value=10**7),
        st.integers(min_value=0, max_value=10**7),
    )
    def test_monotone_in_every_field(self, prompt, cached, generated):
        cached = min(cached, prompt)
        base = api_cost_usd(CLOUD_PROFILE, usage(prompt, cached, generated))
        assert api_cost_usd(CLOUD_PROFILE, usage(prompt + 1, cached, generated)) >= base
        assert api_cost_usd(CLOUD_PROFILE, usage(prompt, cached, generated + 1)) >= base


class TestKvCache:
    def test_reference_value(self):
        # 2 * 36 * 8 * 128 * 2 * 32768
        assert kv_cache_bytes(EDGE_PROFILE, 32768) == 4_831_838_208

    def test_zero_context(self):
        assert kv_cache_bytes(EDGE_PROFILE, 0) == 0

    def test_unit_product(self):
        profile = ModelProfile(
            "tiny",
            "edge",
            context_cap=100,
            param_count=1e6,
            efficiency=1e12,
            layers=1,
            kv_heads=1,
            head_dim=1,
            bytes_per_activation=2,
        )
        assert kv_cache_bytes(profile, 10) == 40

    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=10**6))
    def test_linear_in_context(self, c1, c2):
        assert kv_cache_bytes(EDGE_PROFILE, c1) + kv_cache_bytes(EDGE_PROFILE, c2) == kv_cache_bytes(
            EDGE_PROFILE, c1 + c2
        )


def edge_turn(t, prompt, generated):
    return TurnRecord(t, "r", ToolCall("search", "x"), "obs", usage(prompt, 0, generated))


class TestAggregate:
    def test_three_edge_calls(self):
        record = TrajectoryRecord("t", "monolithic", "d")
        record.turns = [edge_turn(i, 1000, 200) for i in range(1, 4)]
        totals = aggregate(record, EDGE_PROFILE)
        per_call = energy_joules(EDGE_PROFILE, usage(1000, 0, 200))
        assert totals.energy_joules == 3 * per_call
        assert totals.cost_usd == Decimal(0)
        assert record.max_context_tokens == 1200

    def test_cloud_supervisor_plus_edge_executor(self):
        record = TrajectoryRecord("t", "eva", "d")
        record.turns = [edge_turn(1, 1000, 200)]
        record.supervisor_calls = [
            SupervisorCallRecord(
                1,
                VerifierDecision("continue", "CONTINUE"),
                usage(200_000, 100_000, 50_000),
            )
        ]
        totals = aggregate(record, EDGE_PROFILE, CLOUD_PROFILE)
        assert totals.cost_usd == Decimal("0.875")
        assert totals.energy_joules == energy_joules(EDGE_PROFILE, usage(1000, 0, 200))

    def test_empty_trajectory(self):
        record = TrajectoryRecord("t", "monolithic", "d")
        totals = aggregate(record, EDGE_PROFILE)
        assert totals.cost_usd == Decimal(0)
        assert totals.energy_joules == 0.0
        assert record.max_context_tokens == 0
        assert totals.max_kv_bytes == 0

    def test_order_invariance(self):
        record = TrajectoryRecord("t", "monolithic", "d")
        record.turns = [edge_turn(i, 100 * i, 7 * i) for i in range(1, 8)]
        forward = aggregate(record, EDGE_PROFILE)
        record.turns = list(reversed(record.turns))
        backward = aggregate(record, EDGE_PROFILE)
        assert forward == backward

    def test_max_kv_from_max_context(self):
        record = TrajectoryRecord("t", "monolithic", "d")
        record.turns = [edge_turn(1, 100, 10), edge_turn(2, 300, 10), edge_turn(3, 200, 10)]
        totals = aggregate(record, EDGE_PROFILE)
        assert record.max_context_tokens == 310
        assert totals.max_kv_bytes == kv_cache_bytes(EDGE_PROFILE, 310)

    def test_reversed_placement_executor_without_geometry(self):
        # Cloud executor (no KV geometry): dollars accrue, max_kv reported 0.
        record = TrajectoryRecord("t", "eva", "d")
        record.turns = [edge_turn(1, 1_000_000, 0)]
        totals = aggregate(record, CLOUD_PROFILE, EDGE_PROFILE)
        assert totals.cost_usd == Decimal("2.5")
        assert totals.max_kv_bytes == 0

    def test_energy_uses_exact_summation(self):
        record = TrajectoryRecord("t", "monolithic", "d")
        record.turns = [edge_turn(i, 1, 0) for i in range(1, 1001)]
        totals = aggregate(record, EDGE_PROFILE)
        exact = math.fsum(
            energy_joules(EDGE_PROFILE, usage(1, 0, 0)) for _ in range(1000)
        )
        assert totals.energy_joules == exact
