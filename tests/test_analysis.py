"""Scoring, Pareto filtering, and the audit statistics."""

import math
import random
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hybridmas.analysis import (
    ArityUnsupportedError,
    NoGoldError,
    NonAuditRecordError,
    condition_stats,
    exact_match,
    intervention_histogram,
    normalize_answer,
    pareto_frontier,
    rouge1_f1,
    solve_overlap,
    task_success,
    trajectory_score,
    verifier_confusion,
)
from hybridmas.core import (
    SupervisorCallRecord,
    TokenUsage,
    TrajectoryRecord,
    TrajectoryTotals,
    TurnRecord,
    VerifierDecision,
)


class TestNormalize:
    def test_article_and_punctuation(self):
        assert normalize_answer("The Eiffel Tower.") == "eiffel tower"

    def test_empty(self):
        assert normalize_answer("") == ""

    def test_case_folding(self):
        assert normalize_answer("YES") == "yes"

    def test_whitespace_collapse(self):
        assert normalize_answer("a   cat\t sat ") == "cat sat"


class TestExactMatch:
    def test_normalization_identity(self):
        assert exact_match("yes", ["Yes"]) == 1

    def test_mismatch(self):
        assert exact_match("yes", ["no"]) == 0

    def test_article_removal(self):
        assert exact_match("the cat", ["cat"]) == 1

    def test_no_gold(self):
        with pytest.raises(NoGoldError):
            exact_match("x", [])


class TestRouge1F1:
    def test_identical(self):
        assert rouge1_f1("same answer", ["same answer"]) == 1.0

    def test_disjoint(self):
        assert rouge1_f1("alpha beta", ["gamma delta"]) == 0.0

    def test_worked_example_exact(self):
        # pred "the cat sat" -> [cat, sat]; gold "cat sat down" -> [cat, sat, down]
        # P = 2/2, R = 2/3, F1 = 0.8 exactly.
        assert rouge1_f1("the cat sat", ["cat sat down"]) == 0.8

    def test_max_over_golds(self):
        assert rouge1_f1("cat", ["dog", "cat"]) == 1.0

    def test_multiset_clipping(self):
        # pred has "cat" twice, gold once: overlap clipped to 1.
        # P = 1/2, R = 1/1, F1 = 2*(1/2)/(3/2) = 2/3.
        assert rouge1_f1("cat cat", ["cat"]) == pytest.approx(2 / 3, abs=1e-15)

    def test_bounds_and_equality_condition(self):
        rng = random.Random(7)
        vocab = ["red", "blue", "green", "cat", "dog", "sun"]
        for _ in range(300):
            pred = " ".join(rng.choices(vocab, k=rng.randint(0, 5)))
            gold = " ".join(rng.choices(vocab, k=rng.randint(1, 5)))
            value = rouge1_f1(pred, [gold])
            assert 0.0 <= value <= 1.0
            pred_tokens = sorted(normalize_answer(pred).split())
            gold_tokens = sorted(normalize_answer(gold).split())
            assert (value == 1.0) == (pred_tokens == gold_tokens and pred_tokens != [])

    def test_em_implies_f1_one(self):
        rng = random.Random(11)
        vocab = ["paris", "tower", "cat", "yes", "42", "науки"]
        for _ in range(200):
            tokens = rng.choices(vocab, k=rng.randint(1, 4))
            pred = " ".join(tokens)
            gold = "The " + " ".join(tokens).upper() + "!"
            assert exact_match(pred, [gold]) == 1
            assert rouge1_f1(pred, [gold]) == 1.0


def finished_record(answer, architecture="monolithic"):
    record = TrajectoryRecord("t", architecture, "d")
    record.termination = "finished"
    record.final_answer = answer
    return record


def labeled(benchmark_tag, record, golds):
    """The success label the cli gives record: its score against golds."""
    return task_success(benchmark_tag, trajectory_score(benchmark_tag, record, golds))


class TestTaskSuccess:
    def test_fanout_above_threshold(self):
        # F1 = 0.6 > 0.5: pred and gold share 3 of 4/ something constructed:
        record = finished_record("alpha beta gamma")
        golds = ["alpha beta delta"]  # P=2/3, R=2/3 -> F1 = 2/3 > 0.5
        assert rouge1_f1(record.final_answer, golds) == pytest.approx(2 / 3)
        assert labeled("fanoutqa", record, golds)

    def test_threshold_is_strict(self):
        # P = R = 0.5 -> F1 = 0.5 exactly: labeled failure.
        record = finished_record("alpha beta")
        golds = ["alpha gamma"]
        assert rouge1_f1(record.final_answer, golds) == 0.5
        assert not labeled("fanoutqa", record, golds)

    def test_abnormal_termination_fails(self):
        record = TrajectoryRecord("t", "monolithic", "d")
        record.termination = "out_of_context"
        record.final_answer = None
        assert not labeled("fanoutqa", record, ["anything"])

    def test_generic_uses_exact_match(self):
        assert labeled("generic", finished_record("The Answer"), ["answer"])
        assert not labeled("generic", finished_record("answer is close"), ["answer"])

    def test_hotpot_same_rule_as_fanout(self):
        record = finished_record("alpha beta gamma")
        assert labeled("hotpotqa", record, ["alpha beta delta"])

    def test_score_helper(self):
        assert trajectory_score("fanoutqa", finished_record("the cat sat"), ["cat sat down"]) == 0.8
        bad = TrajectoryRecord("t", "monolithic", "d")
        bad.termination = "backend_error"
        assert trajectory_score("fanoutqa", bad, ["x"]) == 0.0


def stats_record(success, score, cost, context, kv):
    return TrajectoryRecord(
        "t", "eva", "d", success=success, score=score,
        turns=[TurnRecord(1, "r", None, "obs", TokenUsage(context, 0, 0))],
        totals=TrajectoryTotals(Decimal(cost), 0.5, kv),
    )


class TestConditionStats:
    def test_mean_score_and_performance_differ_on_unscored_records(self):
        records = [
            stats_record(True, 0.6, "0.10", 100, 1000),
            stats_record(False, None, "0.05", 300, 3000),
            stats_record(None, None, "0.01", 200, 2000),
        ]
        stats = condition_stats(records)
        assert stats.records == 3
        assert stats.mean_score == 0.6  # scored records only
        assert stats.performance == pytest.approx((0.6 + 0.0 + 0.0) / 3)  # every record
        assert stats.success_rate == 0.5  # labeled records only
        assert stats.cost_usd == Decimal("0.16")
        assert stats.energy_joules == 1.5
        assert stats.mean_max_context_tokens == 200.0
        assert stats.mean_max_kv_bytes == 2000.0
        assert stats.max_max_kv_bytes == 3000

    def test_success_counts_when_no_score(self):
        stats = condition_stats([stats_record(True, None, "0", 0, 0)])
        assert stats.performance == 1.0
        assert stats.mean_score == 0.0

    def test_energy_sum_is_exact_in_any_order(self):
        energies = (1e16, 1.0, 1.0)
        records = [
            TrajectoryRecord("t", "eva", "d", totals=TrajectoryTotals(Decimal(0), joules, 0))
            for joules in energies
        ]
        forward = condition_stats(records).energy_joules
        backward = condition_stats(records[::-1]).energy_joules
        assert forward == backward == math.fsum(energies)

    def test_empty(self):
        stats = condition_stats([])
        assert stats.records == 0
        assert stats.mean_score == stats.success_rate == stats.performance == 0.0
        assert stats.cost_usd == Decimal(0)
        assert stats.max_max_kv_bytes == 0


def brute_force_frontier(points):
    """Whether each (cost, energy, performance) point is undominated: no
    other point is no worse in all three and better in one."""
    return [
        not any(
            q[0] <= p[0] and q[1] <= p[1] and q[2] >= p[2] and q != p for q in points
        )
        for p in points
    ]


def numpy_frontier(points):
    if not points:
        return []
    cost, energy, perf = (np.array(column) for column in zip(*points))
    no_worse = ((cost[None, :] <= cost[:, None]) & (energy[None, :] <= energy[:, None])
                & (perf[None, :] >= perf[:, None]))
    better = ((cost[None, :] < cost[:, None]) | (energy[None, :] < energy[:, None])
              | (perf[None, :] > perf[:, None]))
    return (~(no_worse & better).any(axis=1)).tolist()


def random_points(rng, n, costs=12, energies=12, perfs=10):
    """n points on a small grid, so ties and exact duplicates are common;
    costs are Decimals, as condition_stats sums them."""
    return [
        (Decimal(rng.randint(0, costs)).scaleb(-2), rng.randint(0, energies) / 4,
         rng.randint(0, perfs) / perfs)
        for _ in range(n)
    ]


class TestParetoFrontier:
    """The frontier over (cost, energy, performance). The cases with one
    energy throughout are the two-axis cost/performance frontier."""

    def test_basic(self):
        points = [(1, 0.0, 0.5), (2, 0.0, 0.7), (3, 0.0, 0.6)]
        assert pareto_frontier(points) == [True, True, False]

    def test_single_point(self):
        assert pareto_frontier([(1.0, 2.0, 0.3)]) == [True]

    def test_empty(self):
        assert pareto_frontier([]) == []

    def test_duplicates_retained(self):
        points = [(1, 2.0, 0.5), (1, 2.0, 0.5)]
        assert pareto_frontier(points) == [True, True]

    def test_equal_performance_higher_cost_dominated(self):
        points = [(1, 0.0, 0.5), (2, 0.0, 0.5)]
        assert pareto_frontier(points) == [True, False]

    def test_equal_cost_and_performance_higher_energy_dominated(self):
        # The golden pevr and pevr_audit conditions: one price, one
        # performance, and pevr spends more joules.
        points = [(Decimal("0.0114525"), 25.424, 2 / 3), (Decimal("0.0114525"), 24.94, 2 / 3)]
        assert pareto_frontier(points) == [False, True]

    def test_each_objective_alone_keeps_a_point(self):
        points = [(0, 9.0, 0.1), (9, 0.0, 0.1), (9, 9.0, 1.0), (9, 9.0, 0.1)]
        assert pareto_frontier(points) == [True, True, True, False]

    def test_cost_is_compared_as_an_exact_decimal(self):
        # Equal as floats, so only the Decimal comparison tells them apart.
        cheap, dear = Decimal("0.3"), Decimal("0.30000000000000001")
        assert float(cheap) == float(dear)
        assert pareto_frontier([(dear, 1.0, 0.5), (cheap, 1.0, 0.5)]) == [False, True]

    def test_sorted_by_cost(self):
        """The points in cost order or in any other order get the same
        flags, each at its own point's index."""
        rng = random.Random(2)
        points = sorted(random_points(rng, 40))
        flags = dict(zip(points, pareto_frontier(points)))
        for _ in range(20):
            rng.shuffle(points)
            assert pareto_frontier(points) == [flags[p] for p in points]

    def test_matches_brute_force_on_random_sets(self):
        rng = random.Random(0)
        for _ in range(150):
            points = random_points(rng, rng.randint(0, 60))
            assert pareto_frontier(points) == brute_force_frontier(points)

    def test_matches_numpy_oracle_on_large_set(self):
        rng = random.Random(1)
        points = random_points(rng, 1000, costs=40, energies=40, perfs=20)
        assert pareto_frontier(points) == numpy_frontier(points)


def audit_record(task_id, verdicts, architecture="eva_audit"):
    record = TrajectoryRecord(task_id, architecture, "d")
    record.supervisor_calls = [
        SupervisorCallRecord(
            i + 1,
            (
                VerifierDecision("intervene", "raw")
                if verdict == "I"
                else VerifierDecision("continue", "CONTINUE")
            ),
            TokenUsage(1, 0, 1),
        )
        for i, verdict in enumerate(verdicts)
    ]
    return record


class TestVerifierConfusion:
    def test_fn_all_continue_failure(self):
        report = verifier_confusion([(audit_record("a", "CCC"), False)])
        assert (report.fn, report.tp, report.fp, report.tn) == (1, 0, 0, 0)

    def test_fp_intervene_success(self):
        report = verifier_confusion([(audit_record("a", "CIC"), True)])
        assert (report.fp, report.tn) == (1, 0)

    def test_empty(self):
        report = verifier_confusion([])
        assert report.total == 0
        assert report.fn_rate == 0.0

    def test_partition_and_rates(self):
        audited = [
            (audit_record("a", "CC"), False),  # FN
            (audit_record("b", "CI"), True),  # FP
            (audit_record("c", "IC"), False),  # TP
            (audit_record("d", "CC"), True),  # TN
            (audit_record("e", "II"), False),  # TP
        ]
        report = verifier_confusion(audited)
        assert report.total == len(audited)
        assert (report.tp, report.fp, report.tn, report.fn) == (2, 1, 1, 1)
        assert report.fn_rate == 1 / 5
        assert report.fp_rate == 1 / 5
        assert report.fn_rate_conditional == 1 / 3
        assert report.fp_rate_conditional == 1 / 2

    def test_rejects_non_audit_records(self):
        with pytest.raises(NonAuditRecordError):
            verifier_confusion([(audit_record("a", "CC", architecture="eva"), True)])


def record_with_interventions(task_id, applied_count):
    record = TrajectoryRecord(task_id, "pevr", "d")
    record.supervisor_calls = [
        SupervisorCallRecord(
            i + 1,
            VerifierDecision("intervene", "raw"),
            TokenUsage(1, 0, 1),
        )
        for i in range(applied_count)
    ]
    record.resets = list(range(1, applied_count + 1))
    return record


class TestInterventionHistogram:
    def test_hand_tally(self):
        records = [record_with_interventions(f"t{i}", n) for i, n in enumerate([0, 0, 1, 2])]
        histogram = intervention_histogram(r.applied_interventions() for r in records)
        assert histogram.counts == {0: 2, 1: 1, 2: 1}
        assert histogram.quartiles[1] == 0.5

    def test_all_zero(self):
        records = [record_with_interventions(f"t{i}", 0) for i in range(5)]
        assert intervention_histogram(r.applied_interventions() for r in records).counts == {0: 5}

    def test_single_record(self):
        histogram = intervention_histogram([record_with_interventions("t", 3).applied_interventions()])
        assert histogram.counts == {3: 1}
        assert histogram.quartiles == (3.0, 3.0, 3.0)

    def test_empty(self):
        histogram = intervention_histogram([])
        assert histogram.counts == {}
        assert histogram.quartiles is None


class TestSolveOverlap:
    def test_three_sets_enumeration(self):
        regions = solve_overlap({"A": {1, 2}, "B": {2, 3}, "C": {3}})
        assert regions["A"] == 1
        assert regions["B"] == 0
        assert regions["C"] == 0
        assert regions["A&B"] == 1
        assert regions["B&C"] == 1
        assert regions["A&C"] == 0
        assert regions["A&B&C"] == 0

    def test_identical_sets(self):
        regions = solve_overlap({"A": {1, 2}, "B": {1, 2}, "C": {1, 2}})
        assert regions["A&B&C"] == 2
        assert sum(v for k, v in regions.items() if k != "A&B&C") == 0

    def test_disjoint_sets(self):
        regions = solve_overlap({"A": {1}, "B": {2}, "C": {3}})
        assert (regions["A"], regions["B"], regions["C"]) == (1, 1, 1)
        assert regions["A&B"] == regions["A&B&C"] == 0

    def test_two_sets(self):
        regions = solve_overlap({"edge": {1, 2}, "cloud": {2, 3, 4}})
        assert regions == {"edge": 1, "cloud": 2, "edge&cloud": 1}

    def test_regions_sum_to_union(self):
        rng = random.Random(3)
        for _ in range(50):
            sets = {
                name: {rng.randint(0, 20) for _ in range(rng.randint(0, 10))}
                for name in ("A", "B", "C")
            }
            regions = solve_overlap(sets)
            assert sum(regions.values()) == len(sets["A"] | sets["B"] | sets["C"])

    def test_arity(self):
        with pytest.raises(ArityUnsupportedError):
            solve_overlap({"A": set(), "B": set(), "C": set(), "D": set()})
        with pytest.raises(ArityUnsupportedError):
            solve_overlap({"A": set()})


@given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8)),
                max_size=40).flatmap(
    lambda drawn: st.permutations(drawn + drawn[: len(drawn) // 3])))
def test_pareto_property_no_dominated_survivor(drawn):
    """Small grids draw ties in every objective; the repeated third of the
    draw adds exact duplicates."""
    points = [(Decimal(c).scaleb(-2), e / 4, p / 8) for c, e, p in drawn]
    assert pareto_frontier(points) == numpy_frontier(points) == brute_force_frontier(points)
