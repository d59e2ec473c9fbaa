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
from numbers import Integral, Real
from pathlib import Path as FsPath
from typing import Callable, Mapping

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
    """Read a ``save_allocation`` file; other content is a ValueError naming it."""
    try:
        data = json.loads(FsPath(path).read_text())
        rates = {
            (k, p): float(r)
            for k, per_path in data["rates"].items()
            for p, r in per_path.items()
        }
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"{path}: not an allocation file ({type(exc).__name__}: {exc})") from exc
    return Allocation(rates)


# -- named allocators -------------------------------------------------------------


def _fill(problem: Problem, fill: Callable, name: str) -> AllocatorReport:
    matrix, caps = build_subdemands(problem)
    rates = fill(matrix, caps)
    alloc = Allocation({c: float(r) for c, r in zip(matrix.columns, rates)})
    return AllocatorReport(alloc, 0, 1, {"allocator": name, "converged": True})


def _run_waterfill(problem: Problem) -> AllocatorReport:
    multi = [d.id for d in problem.demands if len(d.paths) > 1]
    if multi:
        raise ValueError(
            f"waterfill handles single-path demands only; {multi[:3]} have "
            "several paths (use approx-waterfill or adaptive-waterfill)"
        )
    report = _fill(problem, single_path_waterfill, "waterfill")
    if any(q != 1.0 for d in problem.demands for q in d.utility.values()):
        report.notes["exact"] = False
        report.notes["inexact_reason"] = (
            "utility != 1: waterfilling equalises weighted path rates f_k/w_k, "
            "not utility-weighted totals F_k/w_k"
        )
    return report


def _run_approx_waterfill(problem: Problem) -> AllocatorReport:
    return _fill(problem, approx_waterfill, "approx-waterfill")


# allocator id -> the name of its function in this module, looked up per call,
# so a wrapper bound to that name (as a tracer installs one) sees every call.
# The function's parameters other than problem, session and theta_tol (a test
# knob of adaptive_waterfill) are the config keys, with their defaults.
_ALLOCATORS = {
    "exact": "exact_sequential_max_min",
    "oneshot": "one_shot_exact",
    "swan": "swan_sequence",
    "gb": "geo_binner",
    "eb-elastic": "equi_depth_elastic",
    "eb-multibin": "equi_depth_multibin",
    "waterfill": "_run_waterfill",
    "approx-waterfill": "_run_approx_waterfill",
    "adaptive-waterfill": "adaptive_waterfill",
}
ALLOCATOR_IDS = tuple(_ALLOCATORS)
# Read once here, not per call: run_allocator is on the benchmark's timed path.
_PARAMETERS = {
    a: tuple(inspect.signature(globals()[f]).parameters) for a, f in _ALLOCATORS.items()
}
_CONFIG_KEYS = {
    a: tuple(p for p in ps if p not in ("problem", "session", "theta_tol"))
    for a, ps in _PARAMETERS.items()
}
_COUNT_KEYS = ("bins", "iterations")
_REAL_KEYS = ("alpha", "u", "slack")


def _count(key: str, value) -> int:
    """A count from a config: an integer (a Python or numpy one), or a float
    without a fraction (JSON may write 2 as 2.0)."""
    if isinstance(value, Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{key} must be an integer, got {value!r}")


def _real(key: str, value) -> float:
    """A real number from a config (a Python or numpy one); not a string, a
    bool or None."""
    if isinstance(value, Real) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"{key} must be a number, got {value!r}")


def run_allocator(
    problem: Problem,
    allocator: str,
    config: Mapping | None = None,
    session: SolveSession | None = None,
) -> AllocatorReport:
    """Run a registered allocator; its LPs go through ``session`` (a fresh
    built-in-simplex session by default), and the report's ``lp_solves``
    counts the LPs of this run only.  A config that is not a mapping
    is an error, and so is a key the allocator does not read, so no key is
    reported as applied when it was not; so is a ``bins`` or ``iterations``
    value that is not a whole number, and an ``alpha``, ``u`` or ``slack``
    value that is not a real number."""
    if allocator not in _ALLOCATORS:
        raise ValueError(
            f"unknown allocator {allocator!r}; choose from {', '.join(ALLOCATOR_IDS)}"
        )
    config = {} if config is None else config
    if not isinstance(config, Mapping):
        raise ValueError(f"{allocator} config must be a mapping, got {config!r}")
    keys = _CONFIG_KEYS[allocator]
    unused = sorted(set(config) - set(keys))
    if unused:
        raise ValueError(
            f"{allocator} does not read config keys {unused}; it accepts "
            f"{list(keys) or 'none'}"
        )
    kwargs = {
        k: _count(k, v) if k in _COUNT_KEYS else _real(k, v) if k in _REAL_KEYS else v
        for k, v in config.items()
    }
    if "session" in _PARAMETERS[allocator]:
        kwargs["session"] = session
    return globals()[_ALLOCATORS[allocator]](problem, **kwargs)


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
        if self.allocator not in _ALLOCATORS:
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
