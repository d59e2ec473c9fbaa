"""Scenario orchestration: named allocators behind a registry, problem and
allocation (de)serialization, POP-style partitioning, and the benchmark
runner that scores every scenario against the exact oracle.
"""

from __future__ import annotations

import csv
import inspect
import io
import json
import time
from dataclasses import dataclass, field
from numbers import Integral
from pathlib import Path as FsPath
from typing import Callable

import numpy as np

from .lp import SolveSession
from .metrics import compare_rates
from .model import (
    Allocation,
    Demand,
    FeasibilityCheck,
    Problem,
    Resource,
    check_feasible,
    problem_from_json,
    problem_to_json,
    total_allocation,
)
from .optimizers import (
    equi_depth_elastic,
    equi_depth_multibin,
    exact_sequential_max_min,
    geo_binner,
    one_shot_exact,
    swan_sequence,
)
from .optimizers import suggest_bin_config  # noqa: F401  (unused; a perfbench/trace.py target)
from .report import AllocatorReport, _jsonable
from .waterfill import (
    adaptive_waterfill,
    approx_waterfill,
    build_subdemands,
    single_path_waterfill,
)

__all__ = [
    "Scenario",
    "BenchmarkRow",
    "ALLOCATOR_IDS",
    "run_allocator",
    "run_benchmark",
    "benchmark_csv",
    "BENCH_CSV_HEADER",
    "BENCH_CSV_VERSION",
    "pop_partition",
    "merge_partition_allocations",
    "load_problem",
    "save_problem",
    "save_allocation",
    "load_allocation",
]


# -- problem / allocation files -------------------------------------------------


def load_problem(path: str | FsPath) -> Problem:
    text = FsPath(path).read_text()
    try:
        return problem_from_json(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def save_problem(path: str | FsPath, problem: Problem) -> None:
    FsPath(path).write_text(problem_to_json(problem) + "\n")


def save_allocation(path: str | FsPath, alloc: Allocation) -> None:
    nested = _jsonable(dict(sorted(alloc.rates.items())))
    FsPath(path).write_text(json.dumps({"rates": nested}, indent=2) + "\n")


def load_allocation(path: str | FsPath) -> Allocation:
    data = json.loads(FsPath(path).read_text())
    rates = {
        (k, p): float(r)
        for k, per_path in data["rates"].items()
        for p, r in per_path.items()
    }
    return Allocation(rates)


# -- named allocators -------------------------------------------------------------


def _run_waterfill(problem: Problem, exact: bool) -> AllocatorReport:
    if exact:
        multi = [d.id for d in problem.demands if len(d.paths) > 1]
        if multi:
            raise ValueError(
                f"waterfill handles single-path demands only; {multi[:3]} have "
                "several paths (use approx-waterfill or adaptive-waterfill)"
            )
    fill = single_path_waterfill if exact else approx_waterfill
    matrix, caps = build_subdemands(problem)
    rates = fill(matrix, caps)
    alloc = Allocation({c: float(r) for c, r in zip(matrix.columns, rates)})
    name = "waterfill" if exact else "approx-waterfill"
    notes = {"allocator": name, "converged": True}
    if exact and any(q != 1.0 for d in problem.demands for q in d.utility.values()):
        notes["exact"] = False
        notes["inexact_reason"] = (
            "utility != 1: waterfilling equalises weighted path rates f_k/w_k, "
            "not utility-weighted totals F_k/w_k"
        )
    return AllocatorReport(alloc, 0, 1, notes)


def _run_gb(problem, session, alpha=2.0, u=None, epsilon=None, bins=None):
    return geo_binner(problem, u, float(alpha), bins, epsilon, session)


def _run_eb_elastic(problem, session, bins=None, epsilon=0.25, slack=None, iterations=10):
    return equi_depth_elastic(problem, bins, float(epsilon), slack, iterations, session)


def _run_eb_multibin(problem, session, bins=None, epsilon=0.25, iterations=10):
    return equi_depth_multibin(problem, bins, float(epsilon), iterations, session)


# allocator id -> runner(problem, session, **config); a runner's keyword
# parameters after (problem, session) are the config keys it accepts, with
# their defaults.  A runner calls one public function by its name in this
# module, looked up at call time, so a wrapper bound to that name sees every
# call.  Values may come from JSON, hence the float() casts, and the count
# keys are checked in run_allocator.
_RUNNERS: dict[str, Callable[..., AllocatorReport]] = {
    "exact": lambda problem, session: exact_sequential_max_min(problem, session),
    "oneshot": lambda problem, session, epsilon=0.01: one_shot_exact(
        problem, float(epsilon), session
    ),
    "swan": lambda problem, session, alpha=2.0, u=None, bins=None: swan_sequence(
        problem, u, float(alpha), bins, session
    ),
    "gb": _run_gb,
    "eb-elastic": _run_eb_elastic,
    "eb-multibin": _run_eb_multibin,
    "waterfill": lambda problem, session: _run_waterfill(problem, exact=True),
    "approx-waterfill": lambda problem, session: _run_waterfill(problem, exact=False),
    "adaptive-waterfill": lambda problem, session, iterations=10, inner="approx": (
        adaptive_waterfill(problem, iterations, inner)
    ),
}

# Read once here, not per call: run_allocator is on the benchmark's timed path.
_CONFIG_KEYS = {
    allocator: tuple(inspect.signature(runner).parameters)[2:]
    for allocator, runner in _RUNNERS.items()
}
ALLOCATOR_IDS = tuple(_RUNNERS)
_COUNT_KEYS = ("bins", "iterations")


def _count(key: str, value) -> int:
    """A count from a config: an integer (a Python or numpy one), or a float
    without a fraction (JSON may write 2 as 2.0)."""
    if isinstance(value, Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{key} must be an integer, got {value!r}")


def run_allocator(
    problem: Problem,
    allocator: str,
    config: dict | None = None,
    session: SolveSession | None = None,
) -> AllocatorReport:
    """Run a registered allocator; its LPs go through ``session`` (a fresh
    built-in-simplex session by default).  A config key the allocator does
    not read is an error, so no key is reported as applied when it was not;
    so is a ``bins`` or ``iterations`` value that is not a whole number."""
    if allocator not in _RUNNERS:
        raise ValueError(
            f"unknown allocator {allocator!r}; choose from {', '.join(ALLOCATOR_IDS)}"
        )
    keys = _CONFIG_KEYS[allocator]
    config = config or {}
    unused = sorted(set(config) - set(keys))
    if unused:
        raise ValueError(
            f"{allocator} does not read config keys {unused}; it accepts "
            f"{list(keys) or 'none'}"
        )
    config = {k: _count(k, v) if k in _COUNT_KEYS else v for k, v in config.items()}
    return _RUNNERS[allocator](problem, session or SolveSession(), **config)


# -- POP-style partitioning -------------------------------------------------------


def pop_partition(
    problem: Problem,
    k: int,
    client_split_threshold: float = 0.75,
    seed: int = 0,
) -> list[Problem]:
    """Split the problem into k subproblems, each holding an equal 1/k share
    of every resource capacity.

    Demands land in one uniformly random partition, except those with volume
    above client_split_threshold * mean volume, which are divided evenly
    across all partitions (volume/k each); unbounded demands are never split.
    The union of partition volumes reconstructs the original volumes.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = np.random.default_rng(seed)
    resources = [Resource(r.id, r.capacity / k) for r in problem.resources]

    bounded = [d.volume for d in problem.demands if d.bounded]
    mean_volume = sum(bounded) / len(bounded) if bounded else 0.0
    cutoff = client_split_threshold * mean_volume

    buckets: list[list[Demand]] = [[] for _ in range(k)]
    for d in problem.demands:
        if d.bounded and bounded and d.volume > cutoff:
            for b in buckets:
                b.append(
                    Demand(d.id, d.paths, d.volume / k, d.weight, d.utility, d.consumption)
                )
        else:
            buckets[int(rng.integers(0, k))].append(d)
    return [Problem(resources, problem.paths, bucket) for bucket in buckets]


def merge_partition_allocations(
    problem: Problem, allocations: list[Allocation]
) -> Allocation:
    """Sum per-(demand, path) rates across partitions; feasible in the
    original problem because partition capacities sum back to c_e."""
    merged: dict[tuple[str, str], float] = {}
    for alloc in allocations:
        for key, rate in alloc.rates.items():
            merged[key] = merged.get(key, 0.0) + rate
    valid = {(d.id, pid) for d in problem.demands for pid in d.paths}
    unknown = set(merged) - valid
    if unknown:
        raise ValueError(f"partition allocations carry unknown keys: {sorted(unknown)[:3]}")
    return Allocation(merged)


# -- benchmark ----------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    label: str
    problem: Problem
    allocator: str
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.allocator not in _RUNNERS:
            raise ValueError(f"scenario {self.label!r}: unknown allocator {self.allocator!r}")


@dataclass
class BenchmarkRow:
    scenario: str
    allocator: str
    fairness_geomean: float | None
    efficiency: float | None
    lp_solves: int | None
    iterations: int | None
    converged: bool | None
    wall_ms: float | None
    error: str | None = None


BENCH_CSV_VERSION = 1
BENCH_CSV_HEADER = (
    "scenario,allocator,fairness_geomean,efficiency,lp_solves,iterations,converged,wall_ms"
)


def _infeasibility(check: FeasibilityCheck) -> str:
    if check.negative_rates:
        k, p, rate = check.negative_rates[0]
        return f"rate {rate:.6g} of ({k}, {p}) is negative"
    slacks = [(s, f"volume of {k}") for k, s in check.volume_slack.items()]
    slacks += [(s, f"capacity of {r}") for r, s in check.capacity_slack.items()]
    slack, what = min(slacks)
    return f"{what} exceeded by {-slack:.6g}"


def run_benchmark(scenarios: list[Scenario]) -> list[BenchmarkRow]:
    """Score scenarios against max-min fair reference rates from the
    sequential LP oracle, solved once per distinct problem.

    Allocator and oracle failures (an invalid problem, say) and allocations
    that fail ``check_feasible`` become row-level errors; the run continues.
    """
    golden_cache: dict[int, dict[str, float]] = {}
    rows: list[BenchmarkRow] = []
    for sc in scenarios:
        try:
            key = id(sc.problem)
            if key not in golden_cache:
                golden_cache[key] = total_allocation(
                    sc.problem, exact_sequential_max_min(sc.problem).allocation
                )
            golden = golden_cache[key]
            t0 = time.perf_counter()
            report = run_allocator(sc.problem, sc.allocator, sc.config)
            wall_ms = (time.perf_counter() - t0) * 1e3
            check = check_feasible(sc.problem, report.allocation)
            if not check.feasible:
                raise ValueError(f"infeasible allocation: {_infeasibility(check)}")
            totals = total_allocation(sc.problem, report.allocation)
            metrics = compare_rates(sc.problem, totals, golden)
            rows.append(
                BenchmarkRow(
                    sc.label,
                    sc.allocator,
                    metrics.fairness_geomean,
                    metrics.efficiency_ratio,
                    report.lp_solves,
                    report.iterations,
                    report.converged,
                    wall_ms,
                )
            )
        except Exception as exc:  # row-level failure, keep going
            rows.append(
                BenchmarkRow(
                    sc.label, sc.allocator, None, None, None, None, None, None,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
    return rows


def benchmark_csv(rows: list[BenchmarkRow]) -> str:
    """Fixed, versioned column order (BENCH_CSV_VERSION)."""
    buf = io.StringIO()
    buf.write(BENCH_CSV_HEADER + "\n")
    out = csv.writer(buf, lineterminator="\n")  # quotes labels holding "," or '"'
    for r in rows:
        cells = [
            r.scenario,
            r.allocator,
            "" if r.fairness_geomean is None else repr(r.fairness_geomean),
            "" if r.efficiency is None else repr(r.efficiency),
            "" if r.lp_solves is None else str(r.lp_solves),
            "" if r.iterations is None else str(r.iterations),
            "" if r.converged is None else str(r.converged).lower(),
            "" if r.wall_ms is None else f"{r.wall_ms:.3f}",
        ]
        out.writerow(cells)
    return buf.getvalue()
