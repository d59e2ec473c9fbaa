"""Set-up, timed passes, output checks and metrics of the benchmark.

A closed loop with one client: every allocator call starts after the
previous one returned, in this process, with no extra threads.  The timed
boundary is ``fairalloc.bench.run_allocator``; the benchmark never picks an
LP backend, so it always measures the library default.

Each call is checked outside the timed region.  A call fails when it raises,
returns an allocation that fails ``check_feasible``, or, for an exact
allocator, misses the reference totals by more than 1e-5 (relative to
max(1, |reference|)), or when its problem has no reference because the
oracle raised.  An exact allocator that its group lists as ``scored`` is
scored for fairness instead (see inputs.WORKLOADS).  A failure is counted
and never aborts the run.  The library's ``run_benchmark`` is not used: it
computes its oracle outside the per-row ``try`` and never checks
feasibility.

Reference totals are benchmark data, stored in ``refs/`` by make_refs.py and
keyed by problem fingerprint.  A problem without a stored reference gets one
computed at set-up by the code under test; an allocator's output is then not
compared with a reference it computed itself in this run (such a call is
counted as unchecked, not as verified).
"""

from __future__ import annotations

import gc
import json
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from fairalloc.bench import run_allocator
from fairalloc.metrics import compare_rates
from fairalloc.model import Problem, check_feasible, total_allocation, validate_problem

from .inputs import (
    ALLOCATORS,
    EXACT_ALLOCATORS,
    LP_ALLOCATORS,
    SCORED_ALLOCATORS,
    Instance,
    build_instances,
)
from .trace import LAYERS, ROOT, Tracer

EXACT_TOL = 1e-5
SETUP_MIN_S = 1.5  # set up at least 3 times and for at least this long
# Timings are scaled to a machine on which probe() takes this long.  On a
# shared machine the speed drifts by 20-50% within and between runs; probes
# interleaved with the calls track that drift, and scaling each call by the
# median of the probes nearest to it in time keeps runs of the same code
# comparable.  The unscaled medians are printed alongside.
PROBE_REFERENCE_S = 2e-3
PROBE_SHARE = 0.02  # probe time per sweep, as a share of its call time
NEAREST_PROBES = 15  # probes whose median scales one call

HERE = Path(__file__).resolve().parent
REFS_DIR = HERE / "refs"  # reference totals, written by make_refs.py

Run = Callable[[Problem, str], object]  # run_allocator with the default config


# -- set-up -------------------------------------------------------------------


def load_refs(workload: str) -> dict[str, dict[str, float]]:
    path = REFS_DIR / f"{workload}.json"
    return json.loads(path.read_text()) if path.exists() else {}


def reference_totals(problem: Problem, oracle: str, run: Run = run_allocator) -> dict[str, float]:
    return total_allocation(problem, run(problem, oracle).allocation)


@dataclass(frozen=True)
class Reference:
    """Max-min fair totals of one problem, from the allocator ``oracle``."""

    oracle: str
    totals: dict[str, float] | None  # None when the oracle raised
    stored: bool  # read from refs/ rather than computed in this run
    error: str | None = None


@dataclass
class Setup:
    instances: list[Instance]
    references: dict[str, Reference | None]  # fingerprint -> reference
    computed: int  # references computed in this run (not stored)
    computed_s: float


def set_up(
    workload: str,
    seed: int,
    computed: dict[str, Reference] | None = None,
    run: Run = run_allocator,
) -> Setup:
    """Build, validate and fingerprint the workload's problems, then look up
    their reference totals.  A reference missing from refs/ is computed with
    ``run`` (once per fingerprint and ``computed`` memo); an oracle that
    raises leaves a failed reference, which fails that problem's calls."""
    instances = build_instances(workload, seed)
    for x in instances:
        violations = validate_problem(x.problem)
        if violations:
            raise ValueError(f"{x.group.name}[{x.index}] is invalid: {violations[0]}")
    stored = load_refs(workload)
    computed = {} if computed is None else computed
    references: dict[str, Reference | None] = {}
    misses, t0 = 0, time.perf_counter()
    for x in instances:
        oracle, fp = x.group.reference, x.fingerprint
        if oracle is None:
            references[fp] = None
        elif fp in stored:
            references[fp] = Reference(oracle, stored[fp], stored=True)
        else:
            if fp not in computed:
                misses += 1
                try:
                    computed[fp] = Reference(oracle, reference_totals(x.problem, oracle, run), False)
                except Exception as exc:  # counted as failed calls on this problem
                    computed[fp] = Reference(oracle, None, False, f"{type(exc).__name__}: {exc}")
            references[fp] = computed[fp]
    return Setup(instances, references, misses, time.perf_counter() - t0 if misses else 0.0)


@dataclass
class SetupTiming:
    scaled: list[float]
    raw: list[float]
    computed: int  # references computed on a miss (first set-up only)
    computed_s: float


def time_setup(workload: str, seed: int) -> tuple[Setup, SetupTiming]:
    """Set up at least three times and for at least SETUP_MIN_S; each sample
    is one set-up's time scaled by the speed factor of 20 probes after it.
    References missing from refs/ are computed in the first set-up only.
    Returns the last set-up and the timings."""
    timing = SetupTiming([], [], 0, 0.0)
    computed: dict[str, Reference] = {}
    t_start = time.perf_counter()
    while len(timing.raw) < 3 or time.perf_counter() - t_start < SETUP_MIN_S:
        t0 = time.perf_counter()
        setup = set_up(workload, seed, computed)
        timing.raw.append(time.perf_counter() - t0)
        timing.scaled.append(timing.raw[-1] * speed_factor([probe() for _ in range(20)]))
        timing.computed += setup.computed
        timing.computed_s += setup.computed_s
    return setup, timing


# -- calls and checks -----------------------------------------------------------


@dataclass
class Outcome:
    allocator: str
    instance: Instance
    wall_s: float
    error: str | None = None
    fairness: float | None = None
    unchecked: bool = False  # exact output not compared: its reference is its own
    speed: float = 1.0  # machine speed factor around the call, set by sweep()


def check(
    x: Instance, allocator: str, report, reference: Reference | None
) -> tuple[str | None, float | None, bool]:
    """Return (failure reason or None, fairness against the reference,
    unchecked).  An exact allocator's output is compared with the reference
    unless that reference is its own output from this run, or its group
    scores it."""
    feasible = check_feasible(x.problem, report.allocation)
    if not feasible.feasible:
        return "infeasible allocation", None, False
    if reference is None:
        return None, None, False
    if reference.totals is None:
        return f"no reference: {reference.oracle} raised {reference.error}", None, False
    totals = total_allocation(x.problem, report.allocation)
    if allocator in EXACT_ALLOCATORS and allocator not in x.group.scored:
        if allocator == reference.oracle and not reference.stored:
            return None, None, True
        worst = max(
            abs(totals[k] - ref) / max(1.0, abs(ref)) for k, ref in reference.totals.items()
        )
        if worst > EXACT_TOL:
            return f"misses the reference totals by {worst:.3g}", None, False
        return None, None, False
    return None, compare_rates(x.problem, totals, reference.totals).fairness_geomean, False


def schedule(setup: Setup) -> list[tuple[Instance, str]]:
    """One sweep: every (problem, allocator) pairing once.  The groups are
    interleaved, so each allocator's calls spread over the whole sweep and
    its pass time averages the machine's speed over the sweep rather than
    over one contiguous burst."""
    groups: dict[str, list[Instance]] = {}
    for x in setup.instances:
        groups.setdefault(x.group.name, []).append(x)
    plan = []
    for i in range(max(len(xs) for xs in groups.values())):
        for xs in groups.values():
            if i < len(xs):
                x = xs[i]
                plan += [(x, a) for a in x.group.allocators]
    return plan


def call(x: Instance, allocator: str, setup: Setup, run: Run) -> Outcome:
    """Time one call, then check its output; only the call itself is timed."""
    error = report = None
    t0 = time.perf_counter()
    try:
        report = run(x.problem, allocator)
    except Exception as exc:  # a failed call is a counted row
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    fairness, unchecked = None, False
    if error is None:
        try:
            error, fairness, unchecked = check(
                x, allocator, report, setup.references[x.fingerprint]
            )
        except Exception as exc:  # malformed output, e.g. unknown keys
            error = f"check raised {type(exc).__name__}: {exc}"
    return Outcome(allocator, x, wall, error, fairness, unchecked)


_STREAM = None  # the probe's 8 MB array, allocated on first use


def probe() -> float:
    """Time a fixed piece of work shaped like the allocators' own: building
    and reading a dict keyed by strings, eliminating rows of a small dense
    tableau (both cache-resident, like the LP allocators), and one pass over
    an 8 MB array, larger than a core's L2 cache, like the dense subdemand
    matrices of the large waterfill problems.  The collector is paused so
    that the program's heap cannot change the probe's cost."""
    global _STREAM
    if _STREAM is None:
        _STREAM = np.ones(2**20)
    gc.disable()
    try:
        t0 = time.perf_counter()
        coeffs = {f"f:d{i % 90}:p{i}": i * 0.5 for i in range(1000)}
        total = sum(coeffs[f"f:d{i % 90}:p{i}"] for i in range(0, 1000, 3))
        tableau = np.full((120, 300), total)
        for r in range(15):
            tableau -= 1e-3 * tableau[r]
        np.multiply(_STREAM, 1.0, out=_STREAM)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def speed_factor(probes: list[float]) -> float:
    """Reference probe time over the measured one (median): below 1 when
    the machine runs slower than the reference."""
    return PROBE_REFERENCE_S / statistics.median(probes)


@dataclass
class Sweep:
    outcomes: list[Outcome]
    speed: float  # median speed factor of all the sweep's probes


def sweep(setup: Setup, run: Run) -> Sweep:
    """Every pairing once.  After each call the machine is probed while
    the sweep's probe time is below PROBE_SHARE of its call time, so the
    probes spread over the sweep.  Each call is then scaled by the median of
    the NEAREST_PROBES probes closest to it in time, which follows the
    machine's drift within the sweep while one preempted probe barely
    moves it."""
    outcomes, mids, at, took = [], [], [], []
    called = probed = 0.0
    for x, a in schedule(setup):
        t0 = time.perf_counter()
        outcomes.append(call(x, a, setup, run))
        mids.append(t0 + outcomes[-1].wall_s / 2)
        called += outcomes[-1].wall_s
        while not took or probed < PROBE_SHARE * called:
            t0 = time.perf_counter()
            took.append(probe())
            at.append(t0 + took[-1] / 2)
            probed += took[-1]
    at_arr, took_arr = np.array(at), np.array(took)
    for o, mid in zip(outcomes, mids):
        nearest = np.argsort(np.abs(at_arr - mid), kind="stable")[:NEAREST_PROBES]
        o.speed = speed_factor(took_arr[nearest])
    return Sweep(outcomes, speed_factor(took))


def pass_times(s: Sweep, scaled: bool = True) -> dict[str, float]:
    """An allocator's pass time: the sum of its call times in one sweep,
    each scaled by its speed factor unless ``scaled`` is false."""
    totals = dict.fromkeys(ALLOCATORS, 0.0)
    for o in s.outcomes:
        totals[o.allocator] += o.wall_s * (o.speed if scaled else 1.0)
    return totals


# -- measurement ---------------------------------------------------------------


@dataclass
class Result:
    samples: dict[str, list[float]] = field(default_factory=lambda: {a: [] for a in ALLOCATORS})
    raw: dict[str, list[float]] = field(default_factory=lambda: {a: [] for a in ALLOCATORS})
    speed: list[float] = field(default_factory=list)
    outcomes: list[Outcome] = field(default_factory=list)
    first_sweep: list[Outcome] = field(default_factory=list)
    sweeps: int = 0
    cpu_s: float = 0.0
    wall_s: float = 0.0

    @property
    def failed(self) -> list[Outcome]:
        return [o for o in self.outcomes if o.error is not None]


def measure(setup: Setup, seconds: float, run: Run = run_allocator) -> Result:
    """Repeat sweeps while the next one still fits in ``seconds`` (at least
    one).  Each sweep gives one sample per allocator: its scaled pass time."""
    result = Result()
    t_start, c_start = time.perf_counter(), time.process_time()
    last = 0.0
    while not result.sweeps or time.perf_counter() - t_start + last <= seconds:
        t0 = time.perf_counter()
        s = sweep(setup, run)
        last = time.perf_counter() - t0
        result.speed.append(s.speed)
        for a, wall in pass_times(s).items():
            result.samples[a].append(wall)
        for a, wall in pass_times(s, scaled=False).items():
            result.raw[a].append(wall)
        if not result.sweeps:
            result.first_sweep = s.outcomes
        result.outcomes += s.outcomes
        result.sweeps += 1
    result.wall_s = time.perf_counter() - t_start
    result.cpu_s = time.process_time() - c_start
    return result


def scores(outcomes: list[Outcome], allocator: str | None = None) -> list[float]:
    return [
        o.fairness
        for o in outcomes
        if o.fairness is not None and allocator in (None, o.allocator)
    ]


def geomean(values: list[float]) -> float:
    """Geometric mean; 0 when nothing was scored (every call failed)."""
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(setup_samples: list[float], result: Result) -> dict[str, tuple[float, str]]:
    """Fairness comes from the first sweep (outputs are deterministic):
    the geometric mean over every scored call, and the geometric mean of the
    least fair scored allocator."""
    metrics = {"setup_s": (statistics.median(setup_samples), "s")}
    for a in ALLOCATORS:
        metrics[f"solve_s.{a}"] = (statistics.median(result.samples[a]), "s")
    first = result.first_sweep
    metrics["fairness_geomean"] = (geomean(scores(first)), "ratio")
    worst = min(
        (geomean(scores(first, a)) for a in SCORED_ALLOCATORS if scores(first, a)), default=0.0
    )
    metrics["fairness_min"] = (worst, "ratio")
    ok = len(result.outcomes) - len(result.failed)
    metrics["ok_share"] = (ok / len(result.outcomes), "ratio")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return metrics


# -- traced run ----------------------------------------------------------------


@dataclass
class TracedResult:
    tracer: Tracer  # spans of the first traced sweep
    untraced_s: list[float]  # scaled sweep times (sum of scaled call times)
    traced_s: list[float]
    outcomes: list[Outcome]


def measure_traced(setup: Setup, seconds: float) -> TracedResult:
    """Alternate one untraced and one traced sweep while the next pair still
    fits in ``seconds`` (at least one pair).  Only the first traced sweep's
    spans are kept; later pairs add overhead samples."""
    first = Tracer()
    untraced, traced, outcomes = [], [], []
    t_start, last = time.perf_counter(), 0.0
    while not traced or time.perf_counter() - t_start + last <= seconds:
        t0 = time.perf_counter()
        s = sweep(setup, run_allocator)
        untraced.append(sum(pass_times(s).values()))
        outcomes += s.outcomes
        tracer = first if not traced else Tracer()
        tracer.install()
        try:
            s = sweep(setup, tracer.wrap(run_allocator, ROOT))
        finally:
            tracer.uninstall()
        traced.append(sum(pass_times(s).values()))
        outcomes += s.outcomes
        last = time.perf_counter() - t0
    return TracedResult(first, untraced, traced, outcomes)


def layer_split(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per allocator: self time by layer, plus 'wall' (root span time)."""
    own = tracer.self_times()
    root_of: dict[int, str] = {}
    split: dict[str, dict[str, float]] = {}
    for s in tracer.spans:  # parents precede children
        if s.parent is None:
            allocator = s.info["allocator"]
            root_of[s.id] = allocator
            row = split.setdefault(allocator, {"wall": 0.0, **{layer: 0.0 for layer in LAYERS}})
            row["wall"] += s.duration
        else:
            root_of[s.id] = root_of[s.parent]
        split[root_of[s.id]][s.layer] += own[s.id]
    return split


def _named(tracer: Tracer, name: str):
    return [s for s in tracer.spans if s.name == name]


def per_layer(traced: TracedResult) -> dict[str, tuple[float, str]]:
    t = traced.tracer
    solves = _named(t, "lp.SolveSession.solve")
    builds = _named(t, "lp.build_feasible_alloc")
    subdemands = _named(t, "waterfill.build_subdemands")
    aw = [s for s in _named(t, "waterfill.adaptive_waterfill") if s.info]
    split = layer_split(t)

    def dur(spans):
        return sum(s.duration for s in spans)

    def biggest(spans, key):
        return max((s.info[key] for s in spans if s.info), default=0)

    m: dict[str, tuple[float, str]] = {
        "lp.solves": (len(solves), "count"),
        "lp.solve_s": (dur(solves), "s"),
        "lp.rows_max": (biggest(solves, "rows"), "count"),
        "lp.cols_max": (biggest(solves, "cols"), "count"),
        "lp.nnz_max": (biggest(solves, "nnz"), "count"),
        "lp.build_s": (dur(builds), "s"),
        "lp.builds": (len(builds), "count"),
        "model.validate_s": (dur(_named(t, "model.validate_problem")), "s"),
    }
    for a in LP_ALLOCATORS:
        m[f"optimizers.self_s.{a}"] = (split.get(a, {}).get("optimizers", 0.0), "s")
    m["optimizers.suggest_bin_config_s"] = (dur(_named(t, "optimizers.suggest_bin_config")), "s")
    m["waterfill.build_subdemands_s"] = (dur(subdemands), "s")
    m["waterfill.build_subdemands_calls"] = (len(subdemands), "count")
    m["waterfill.approx_s"] = (dur(_named(t, "waterfill.approx_waterfill")), "s")
    m["waterfill.exact_s"] = (dur(_named(t, "waterfill.single_path_waterfill")), "s")
    m["waterfill.matrix_mb"] = (biggest(subdemands, "bytes") / 2**20, "MB")
    m["waterfill.aw_iterations"] = (sum(s.info["iterations"] for s in aw), "count")
    m["waterfill.aw_converged"] = (sum(s.info["converged"] for s in aw), "count")
    m["sortnet.comparators"] = (
        sum(s.info["comparators"] for s in _named(t, "sortnet.build_sorting_network") if s.info),
        "count",
    )
    for a in SCORED_ALLOCATORS:
        m[f"fairness.{a}"] = (geomean(scores(traced.outcomes, a)), "ratio")
    m["trace.overhead_s"] = (
        statistics.median(b - a for a, b in zip(traced.untraced_s, traced.traced_s)),
        "s",
    )
    return m
