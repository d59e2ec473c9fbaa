"""Fairness and efficiency measurement.

Fairness of an allocation against the optimal one is the clamped min-ratio
q = min(max(f, t)/max(f*, t), max(f*, t)/max(f, t)) per demand, aggregated by
geometric mean (robust to outliers and to numerically tiny rates).
Efficiency is the plain total-rate ratio against a baseline allocator.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Mapping

from .model import Problem

__all__ = [
    "MetricsReport",
    "q_fairness",
    "efficiency",
    "default_vartheta",
    "compare_rates",
]


@dataclass(frozen=True)
class MetricsReport:
    per_demand_q: dict[str, float]
    fairness_geomean: float
    efficiency_ratio: float
    total_rate: float
    baseline_total: float
    vartheta: float

    def to_dict(self) -> dict:
        return asdict(self)


def q_fairness(
    f: Mapping[str, float], f_star: Mapping[str, float], vartheta: float
) -> tuple[dict[str, float], float]:
    """Per-demand clamped ratio against the reference rates plus its
    geometric mean.  Both rate maps must cover the same demands."""
    if set(f) != set(f_star):
        raise ValueError("rate maps cover different demand sets")
    if not vartheta > 0:
        raise ValueError("vartheta must be > 0")
    per: dict[str, float] = {}
    for k in f:
        a = max(f[k], vartheta)
        b = max(f_star[k], vartheta)
        per[k] = min(a / b, b / a)
    geomean = math.exp(sum(math.log(q) for q in per.values()) / len(per)) if per else 1.0
    return per, geomean


def efficiency(f: Mapping[str, float], baseline: Mapping[str, float]) -> float:
    """Total rate relative to the baseline's total.  Both zero counts as 1."""
    total = sum(f.values())
    base = sum(baseline.values())
    if base == 0.0:
        if total == 0.0:
            return 1.0
        raise ValueError("baseline total is zero but allocation is not")
    return total / base


def default_vartheta(problem: Problem) -> float:
    """0.01% of the largest resource capacity (the metric must not vanish on
    the largest-scale rates), or 1e-4 when every capacity is 0."""
    return 1e-4 * problem.max_capacity() or 1e-4


def compare_rates(
    problem: Problem,
    f: Mapping[str, float],
    baseline: Mapping[str, float],
    vartheta: float | None = None,
) -> MetricsReport:
    if vartheta is None:
        vartheta = default_vartheta(problem)
    per, geo = q_fairness(f, baseline, vartheta)
    eff = efficiency(f, baseline)
    return MetricsReport(
        per_demand_q=per,
        fairness_geomean=geo,
        efficiency_ratio=eff,
        total_rate=sum(f.values()),
        baseline_total=sum(baseline.values()),
        vartheta=vartheta,
    )
