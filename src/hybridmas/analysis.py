"""Answer scoring, success labeling, per-condition statistics, the Pareto
frontier over dollars, joules and performance, and the study statistics:
intervention distributions, verifier confusion rates on audit runs, and
solve-set overlaps.

All functions here are pure over immutable inputs.
"""

from __future__ import annotations

import math
import re
import statistics
import string
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .core import AUDIT_ARCHITECTURES, INTERVENE, TrajectoryRecord

SUCCESS_F1_THRESHOLD = 0.5
_QA_BENCHMARKS = ("hotpotqa", "fanoutqa")


class NoGoldError(Exception):
    pass


class NonAuditRecordError(Exception):
    pass


class ArityUnsupportedError(Exception):
    pass


_PUNCT_TABLE = str.maketrans("", "", string.punctuation)
_ARTICLE_RE = re.compile(r"\b(a|an|the)\b")


def normalize_answer(text: str) -> str:
    """Standard QA normalization: lowercase, strip punctuation, drop the
    articles a/an/the as whole tokens, collapse whitespace."""
    text = text.lower().translate(_PUNCT_TABLE)
    text = _ARTICLE_RE.sub(" ", text)
    return " ".join(text.split())


def exact_match(pred: str, golds: Sequence[str]) -> int:
    if not golds:
        raise NoGoldError("exact_match needs at least one gold answer")
    normalized = normalize_answer(pred)
    return int(any(normalized == normalize_answer(g) for g in golds))


def _f1(pred_tokens: list[str], gold_tokens: list[str]) -> Fraction:
    if not pred_tokens or not gold_tokens:
        return Fraction(0)
    overlap = sum((Counter(pred_tokens) & Counter(gold_tokens)).values())
    if overlap == 0:
        return Fraction(0)
    precision = Fraction(overlap, len(pred_tokens))
    recall = Fraction(overlap, len(gold_tokens))
    return 2 * precision * recall / (precision + recall)


def rouge1_f1(pred: str, golds: Sequence[str]) -> float:
    """Unigram multiset-overlap F1 over normalized tokens, max over golds.

    Computed in exact rational arithmetic and converted to float at the
    end, so reference values like 0.8 come out exactly."""
    if not golds:
        raise NoGoldError("rouge1_f1 needs at least one gold answer")
    pred_tokens = normalize_answer(pred).split()
    best = max(_f1(pred_tokens, normalize_answer(g).split()) for g in golds)
    return float(best)


def trajectory_score(benchmark_tag: str, record: TrajectoryRecord, golds: Sequence[str]) -> float:
    """Raw score reported alongside the success label: F1 for QA
    benchmarks, exact match for generic tasks, 0 for abnormal runs."""
    if record.termination != "finished" or record.final_answer is None:
        return 0.0
    if not golds:
        raise NoGoldError("trajectory_score needs gold answers for finished runs")
    if benchmark_tag in _QA_BENCHMARKS:
        return rouge1_f1(record.final_answer, golds)
    return float(exact_match(record.final_answer, golds))


def task_success(benchmark_tag: str, score: float) -> bool:
    """Success label, from the trajectory score: QA benchmarks require F1
    strictly above 0.5, generic tasks exact match, so abnormal termination
    (score 0) is always a failure."""
    if benchmark_tag in _QA_BENCHMARKS:
        return score > SUCCESS_F1_THRESHOLD
    return score == 1.0


@dataclass(frozen=True)
class ConditionStats:
    """Statistics over one condition's records. mean_score averages the
    scored records only; performance averages every record, counting its
    score, else its success label, else 0. success_rate averages the
    labeled records."""

    records: int
    mean_score: float
    success_rate: float
    performance: float
    cost_usd: Decimal
    energy_joules: float
    mean_max_context_tokens: float
    mean_max_kv_bytes: float
    max_max_kv_bytes: int


def _mean(values: Sequence) -> float:
    return sum(values) / len(values) if values else 0.0


def _performance(record: TrajectoryRecord) -> float:
    if record.score is not None:
        return record.score
    if record.success is not None:
        return 1.0 if record.success else 0.0
    return 0.0


def condition_stats(records: Sequence[TrajectoryRecord]) -> ConditionStats:
    """The one place each per-condition statistic is computed."""
    return ConditionStats(
        records=len(records),
        mean_score=_mean([r.score for r in records if r.score is not None]),
        success_rate=_mean([r.success for r in records if r.success is not None]),
        performance=_mean([_performance(r) for r in records]),
        cost_usd=sum((r.totals.cost_usd for r in records), Decimal(0)),
        energy_joules=math.fsum(r.totals.energy_joules for r in records),
        mean_max_context_tokens=_mean([r.max_context_tokens for r in records]),
        mean_max_kv_bytes=_mean([r.totals.max_kv_bytes for r in records]),
        max_max_kv_bytes=max((r.totals.max_kv_bytes for r in records), default=0),
    )


def pareto_frontier(points: Sequence[tuple[Decimal | float, float, float]]) -> list[bool]:
    """For each (cost_usd, energy_joules, performance) point, in order,
    whether it is on the frontier: no other point has cost and energy no
    higher and performance no lower, with at least one of the three
    strictly better. Exact duplicates both stay on the frontier.

    A point's dominator sorts before it by (cost, energy, -performance),
    and dominance is transitive, so each point in that order is kept
    unless a point kept before it dominates it.
    """
    kept: list[tuple] = []
    on_frontier = [False] * len(points)
    for i in sorted(range(len(points)), key=lambda i: (*points[i][:2], -points[i][2])):
        cost, energy, performance = point = points[i]
        if not any(q[0] <= cost and q[1] <= energy and q[2] >= performance and q != point
                   for q in kept):
            kept.append(point)
            on_frontier[i] = True
    return on_frontier


@dataclass(frozen=True)
class ConfusionReport:
    """Verifier audit counts. Rates are normalized by the audited total;
    the conditional variants normalize FN by failures and FP by successes
    (both are reported because either convention is defensible)."""

    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def fn_rate(self) -> float:
        return self.fn / self.total if self.total else 0.0

    @property
    def fp_rate(self) -> float:
        return self.fp / self.total if self.total else 0.0

    @property
    def fn_rate_conditional(self) -> float:
        failures = self.tp + self.fn
        return self.fn / failures if failures else 0.0

    @property
    def fp_rate_conditional(self) -> float:
        successes = self.fp + self.tn
        return self.fp / successes if successes else 0.0


def verifier_confusion(
    audited: Sequence[tuple[TrajectoryRecord, bool]]
) -> ConfusionReport:
    """Classify audit-mode trajectories against ground-truth outcomes.

    Positive = the verifier intervened at least once; the condition being
    detected is failure. So: FN = failure with all-CONTINUE calls, FP =
    success with at least one INTERVENE.
    """
    tp = fp = tn = fn = 0
    for record, success in audited:
        if record.architecture not in AUDIT_ARCHITECTURES:
            raise NonAuditRecordError(
                f"record {record.task_id} is {record.architecture}, not an audit run"
            )
        intervened = any(
            call.decision.verdict == INTERVENE for call in record.supervisor_calls
        )
        if success and intervened:
            fp += 1
        elif success:
            tn += 1
        elif intervened:
            tp += 1
        else:
            fn += 1
    return ConfusionReport(tp, fp, tn, fn)


@dataclass(frozen=True)
class InterventionHistogram:
    """Empirical distribution of applied interventions per trajectory."""

    counts: Mapping[int, int]
    quartiles: tuple[float, float, float] | None


def intervention_histogram(interventions: Iterable[int]) -> InterventionHistogram:
    """The distribution of interventions, each one trajectory's
    TrajectoryRecord.applied_interventions()."""
    data = sorted(interventions)
    counts = dict(sorted(Counter(data).items()))
    if not data:
        quartiles = None
    elif len(data) == 1:
        value = float(data[0])
        quartiles = (value, value, value)
    else:
        q1, q2, q3 = statistics.quantiles(data, n=4, method="inclusive")
        quartiles = (q1, q2, q3)
    return InterventionHistogram(counts, quartiles)


# How many solve sets solve_overlap decomposes.
OVERLAP_SET_COUNTS = (2, 3)


def solve_overlap(named_solve_sets: Mapping[str, set]) -> dict[str, int]:
    """Counts for every exclusive region of the 2- or 3-set Venn
    decomposition. Region keys join the member names with '&' in input
    order."""
    names = list(named_solve_sets)
    if len(names) not in OVERLAP_SET_COUNTS:
        raise ArityUnsupportedError(f"solve_overlap supports 2 or 3 sets, got {len(names)}")
    sets = {name: set(named_solve_sets[name]) for name in names}
    universe = set().union(*sets.values())
    regions: dict[str, int] = {}
    # All non-empty membership patterns, smallest first so keys are stable.
    for size in range(1, len(names) + 1):
        for member_names in combinations(names, size):
            members = set(member_names)
            count = sum(
                1
                for task_id in universe
                if {n for n in names if task_id in sets[n]} == members
            )
            regions["&".join(member_names)] = count
    return regions
