"""Optimization-based max-min fair allocators.

All of them operate on weighted ratios rho_k = F_k / w_k (F_k sums the
utility-weighted path rates) and build every LP on one fragment,
`build_feasible_alloc`: a column per path rate, with volume and capacity
rows cut from the subdemand incidence that the waterfillers read
(`build_subdemands`), so a problem becomes rows, and is validated, in that
one place.  The fragment has no ratio column: it returns each rho_k as a
linear form over k's rate columns ({f_k^p: q_k^p / w_k}); a ratio is read
back as form . x.  Each allocator is one function that takes its own
parameters; the capped sequence and the binners, which also run a waterfill
estimate, compile the problem once for both.  Each adds only its own columns
and rows, written over the forms:

* exact sequential: one LP a round maximizes the smallest unfrozen ratio;
  the demands its optimal duals certify as bottlenecked freeze there,
  repeat;
* one-shot exact: a single LP that sorts the ratios with a comparator
  network (a min column per comparator, its max output a form) and
  maximizes a geometrically weighted sum of the sorted outputs;
* capped sequence (SWAN-style): one LP per rung of the geometric boundary
  ladder that ``suggest_bin_config`` builds;
* binned LP: per-bin rate variables with geometrically decaying objective
  weights, solved once over a boundary ladder; the geometric binner bins by
  the capped sequence's ladder, the equi-depth multi-bin variant by
  boundaries from an adaptive-waterfill estimate;
* equi-depth elastic binner: boundaries taken from that estimate and
  solved as LP variables.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from .lp import Constraint, LinearProgram, SolveSession
from .model import Allocation, Problem, raise_if_invalid, total_allocation, validate_problem
from .report import AllocatorReport
from .sortnet import SortingNetwork, build_sorting_network
from .waterfill import SubdemandMatrix, _adaptive, build_subdemands

# Unused here (the estimates run `_adaptive`); perfbench/trace.py wraps it by this name.
from .waterfill import adaptive_waterfill  # noqa: F401

__all__ = [
    "AllocationError",
    "build_feasible_alloc",
    "exact_sequential_max_min",
    "one_shot_exact",
    "swan_sequence",
    "geo_binner",
    "compute_equi_boundaries",
    "merge_boundaries",
    "equi_depth_elastic",
    "equi_depth_multibin",
    "achievable_ratio_bound",
    "suggest_bin_config",
    "default_epsilon",
]

EPSILON_GUARD = 1e-12  # smallest representable objective level we trust
# The most objective levels the guard admits at the largest default epsilon, 0.5.
MAX_DEFAULT_LEVELS = 1 + int(math.log(EPSILON_GUARD) / math.log(0.5))
FREEZE_TOL = 1e-7
DUAL_TOL = 1e-9  # a floor dual above this certifies that the demand is bottlenecked
TIE_REL_TOL = 1e-9  # estimates or boundaries this close (relative) count as equal


class AllocationError(RuntimeError):
    """An allocator could not produce a solution (infeasible or numeric)."""


def _check_levels(
    epsilon: float, levels: int, advice: str = "use fewer bins or a larger epsilon"
) -> None:
    """An objective weighting levels by epsilon^0 .. epsilon^(levels-1) needs
    epsilon in (0, 1) and a smallest weight above the double-precision guard."""
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must be in (0, 1)")
    if epsilon ** (levels - 1) < EPSILON_GUARD:
        raise ValueError(
            f"epsilon^{levels - 1} = {epsilon ** (levels - 1):.3g} underflows the "
            f"double-precision guard {EPSILON_GUARD:g}; {advice}"
        )


def default_epsilon(levels: int) -> float:
    """1e-6, lifted (up to 0.5) until epsilon^(levels-1) clears the guard."""
    if levels <= 1:
        return 1e-6
    return min(0.5, max(1e-6, (EPSILON_GUARD * 1.01) ** (1.0 / (levels - 1))))


def _solved(session: SolveSession, lp: LinearProgram):
    sol = session.solve(lp)
    if sol.status != "optimal":
        raise AllocationError(f"LP {lp.name!r} is {sol.status}")
    return sol


# -- the shared feasible-allocation fragment -------------------------------------


# build_subdemands' result: the incidence and the row capacities.
Compiled = tuple[SubdemandMatrix, np.ndarray]
Form = dict[int, float]  # a linear form over LP columns: column -> coefficient


def build_feasible_alloc(
    problem: Problem, name: str = "feasible-alloc"
) -> tuple[LinearProgram, list[Form]]:
    """Variables and constraints of a feasible allocation, no objective, and
    each demand's weighted ratio as a linear form over them.

    Columns: one rate f_k^p per (demand, path) in problem order.  Rows: a
    volume row per bounded demand (`sum_p f_k^p <= d_k`), then a capacity
    row per used resource (`sum r_k^e f_k^p <= c_e`): the virtual-edge and
    resource rows of `build_subdemands`'s incidence, whose columns are the
    rate columns; building it validates the problem.  Demand k's form is
    `{f_k^p: q_k^p / w_k}`, so its ratio rho_k = F_k / w_k is form . x; the
    allocators write their rows and objectives over the forms.
    """
    return _fragment(problem, build_subdemands(problem), name)


def _fragment(
    problem: Problem, compiled: Compiled, name: str
) -> tuple[LinearProgram, list[Form]]:
    """`build_feasible_alloc` on the problem's `build_subdemands` result.  It
    reads only the incidence's pattern and consumption, never ``gamma``, which
    an estimate on the same matrix overwrites."""
    matrix, caps = compiled
    ptr, cols = matrix.indptr.tolist(), matrix.indices.tolist()
    cons, caps = matrix.consumption.tolist(), caps.tolist()
    lp = LinearProgram(name, [None] * len(matrix.columns))
    labels = [f"cap:{r.id}" for r in problem.resources]
    labels += [f"volume:{d.id}" for d in problem.demands if d.bounded]
    n = len(problem.resources)
    for e in [*range(n, len(labels)), *range(n)]:  # virtual edges, then resources
        s, t = ptr[e], ptr[e + 1]
        if s < t:
            lp.add_constraint(dict(zip(cols[s:t], cons[s:t])), "<=", caps[e], name=labels[e])

    forms = []
    first = 0  # the demand's first rate column
    for d in problem.demands:
        forms.append({first + i: d.utility_on(pid) / d.weight for i, pid in enumerate(d.paths)})
        first += len(d.paths)
    return lp, forms


def _value(form: Form, values: Sequence[float]) -> float:
    """form . x for a solution's values."""
    return sum(a * values[j] for j, a in form.items())


def _minus(form: Form) -> Form:
    return {j: -a for j, a in form.items()}


def _allocation_from(problem: Problem, values: Sequence[float]) -> Allocation:
    """The rates of `build_feasible_alloc`'s leading (demand, path) columns."""
    keys = [(d.id, pid) for d in problem.demands for pid in d.paths]
    return Allocation({key: max(0.0, x) for key, x in zip(keys, values)})


# -- exact allocators ----------------------------------------------------------


def exact_sequential_max_min(
    problem: Problem, session: SolveSession | None = None
) -> AllocatorReport:
    """Weighted max-min fairness by the classic LP sequence, one LP a round.

    Round i maximizes a common floor t_i over the unfrozen ratios: maximize
    t subject to rho_k - t >= 0 for each unfrozen k (rho_k is k's form over
    the rate columns), the frozen ratios held fixed.  Its optimal duals say
    which demands are bottlenecked (the dual saturation test of Danna,
    Mandal & Singh, INFOCOM 2012).  Write y_k >= 0 for the dual of k's floor
    row.  By complementary slackness, y_k > 0 means rho_k = t_i in every
    optimum, so k freezes at t_i.  Dual feasibility on t's column gives
    sum_k y_k >= 1, so every round freezes at least one demand, and
    lp_solves = rounds <= len(demands).  A demand that is bottlenecked but
    whose dual happens to be 0 (degeneracy) stays unfrozen and freezes at
    the same t in a later round.
    """
    session = session or SolveSession()
    start = session.count
    demands = [d.id for d in problem.demands]
    base, forms = build_feasible_alloc(problem, "max-min")
    t = base.add_variable()
    floor_row = len(base.constraints)  # demand i's floor or freeze row: floor_row + i
    frozen: dict[str, float] = {}
    rounds = 0
    last_values: list[float] = []

    while len(frozen) < len(demands):
        rounds += 1
        lp = LinearProgram(
            f"max-min-round-{rounds}",
            base.variables,
            base.constraints
            + [
                Constraint(form, "==", frozen[k], name=f"freeze:{k}")
                if k in frozen
                else Constraint({**form, t: -1.0}, ">=", 0.0)
                for k, form in zip(demands, forms)
            ],
            {t: 1.0},
        )
        sol = _solved(session, lp)
        last_values = sol.values
        y = {k: -sol.duals[floor_row + i] for i, k in enumerate(demands) if k not in frozen}
        if sum(y.values()) < 1.0 - 1e-6:  # dual feasibility on t's column fails
            raise AllocationError(
                f"LP {lp.name!r}: floor duals sum to {sum(y.values()):.6g} < 1"
            )
        t_i = sol.values[t]
        for k, y_k in y.items():
            if y_k > DUAL_TOL:
                frozen[k] = t_i

    return AllocatorReport(
        _allocation_from(problem, last_values),
        lp_solves=session.count - start,
        iterations=rounds,
        notes={
            "allocator": "exact-sequential",
            "frozen_ratios": dict(frozen),
            "converged": True,
        },
    )


def one_shot_exact(
    problem: Problem, epsilon: float, session: SolveSession | None = None
) -> AllocatorReport:
    """Single-LP exact max-min fairness.

    A comparator network sorts the ratios inside the LP.  Every wire is a
    linear form, a demand's form to start with.  A comparator on wires x and
    y adds one column lo with the rows lo <= x and lo <= y; its min output is
    lo and its max output the form x + y - lo (where a comparator's min and
    max outputs meet again, its lo cancels and is dropped).  So the LP has
    only "<=" rows with a zero or positive right-hand side, and its
    all-slack start is feasible.  The objective sum_i epsilon^(i-1) t_i puts
    strictly more weight on smaller sorted outputs, which both drives every
    lo to min(x, y) at the optimum and makes the sorted vector
    lexicographically maximal.
    """
    n = len(problem.demands)
    _check_levels(epsilon, n, f"for n={n} demands, use the geometric binner instead")
    session = session or SolveSession()
    start = session.count

    lp, forms = build_feasible_alloc(problem, "one-shot-exact")
    wires = list(forms)
    net: SortingNetwork = build_sorting_network(n)
    for i, j in net.comparators:
        x, y = wires[i], wires[j]
        lo = lp.add_variable()
        lp.add_constraint({lo: 1.0, **_minus(x)}, "<=", 0.0)
        lp.add_constraint({lo: 1.0, **_minus(y)}, "<=", 0.0)
        hi = dict(x)
        for col, a in y.items():
            hi[col] = hi.get(col, 0.0) + a
            if hi[col] == 0.0:
                del hi[col]
        hi[lo] = -1.0
        wires[i], wires[j] = {lo: 1.0}, hi

    objective: dict[int, float] = {}
    for pos, wire in enumerate(wires):
        for col, a in wire.items():
            objective[col] = objective.get(col, 0.0) + epsilon**pos * a
    lp.objective = objective
    sol = _solved(session, lp)

    sorted_out = [_value(w, sol.values) for w in wires]
    ratios = sorted(_value(form, sol.values) for form in forms)
    scale = max(1.0, max(ratios, default=0.0))
    for a, b in zip(sorted_out, sorted_out[1:]):
        if a > b + 1e-6 * scale:
            raise AllocationError("comparator relaxation left outputs unsorted")
    for a, b in zip(sorted_out, ratios):
        if abs(a - b) > 1e-6 * scale:
            raise AllocationError("sorted outputs diverge from ratio multiset")

    return AllocatorReport(
        _allocation_from(problem, sol.values),
        lp_solves=session.count - start,
        iterations=1,
        notes={
            "allocator": "one-shot-exact",
            "epsilon": epsilon,
            "sorted_ratios": sorted_out,
            "comparators": len(net.comparators),
            "converged": True,
        },
    )


# -- capped sequences and binners ----------------------------------------------


def achievable_ratio_bound(problem: Problem) -> float:
    """Cheap upper bound on any weighted ratio F_k / w_k: the largest over
    demands k of min(d_k * max_p q_k^p, sum_p q_k^p * min_(e on p) c_e / r_k^e)
    / w_k, since no path of k carries more than its tightest resource allows."""
    resources, paths = problem.resource_map(), problem.path_map()
    bound = 0.0
    for d in problem.demands:
        volume_side = math.inf
        if d.bounded:
            volume_side = d.volume * max(d.utility_on(p) for p in d.paths)
        capacity_side = sum(
            d.utility_on(p)
            * min(resources[e].capacity / d.consumption_on(e) for e in paths[p].resources)
            for p in d.paths
        )
        bound = max(bound, min(volume_side, capacity_side) / d.weight)
    return bound


def _estimate_ratios(
    problem: Problem, compiled: Compiled, iterations: int
) -> tuple[dict[str, float], int]:
    """Weighted ratios F_k / w_k of an approximate adaptive-waterfill run on
    the problem's `build_subdemands` result (F_k sums utility-weighted path
    rates), and its iteration count."""
    aw = _adaptive(problem, compiled, iterations)
    totals = total_allocation(problem, aw.allocation)
    return {d.id: totals[d.id] / d.weight for d in problem.demands}, aw.iterations


def _default_u(problem: Problem, compiled: Compiled) -> float:
    """Just under the smallest positive ratio of a one-pass waterfill
    estimate (1e-3 of the largest capacity if no ratio is positive, 1.0 if
    every capacity is 0)."""
    ratios, _ = _estimate_ratios(problem, compiled, 1)
    positive = [r for r in ratios.values() if r > 1e-12]
    return 0.9 * min(positive) if positive else (1e-3 * problem.max_capacity() or 1.0)


def suggest_bin_config(
    problem: Problem,
    alpha: float = 2.0,
    u: float | None = None,
    num_bins: int | None = None,
) -> list[float]:
    """The geometric boundary ladder u * alpha^b for b < num_bins: the caps of
    ``swan_sequence`` and the bins of ``geo_binner``.

    u defaults to just under the smallest positive ratio of a one-pass
    waterfill estimate (1e-3 of the largest capacity if no ratio is
    positive, 1.0 if every capacity is 0); num_bins to enough rungs to cover
    ``achievable_ratio_bound`` from u.
    """
    if u is None:  # compiling for the estimate validates the problem
        u = _default_u(problem, build_subdemands(problem))
    else:  # the bound below would divide by a zero weight
        raise_if_invalid(validate_problem(problem))
    return _geo_ladder(problem, u, alpha, num_bins)


def _geo_ladder(problem: Problem, u: float, alpha: float, num_bins: int | None) -> list[float]:
    """`suggest_bin_config` for a given u, on a validated problem.  Every
    rung, the top one u * alpha^(num_bins-1) included, must be finite."""
    if not u > 0:
        raise ValueError("u must be > 0")
    if not alpha > 1:
        raise ValueError("alpha must be > 1")
    for key, value in (("u", u), ("alpha", alpha)):
        if not math.isfinite(value):
            raise ValueError(f"{key} must be finite, got {value}")
    if num_bins is None:
        bound = achievable_ratio_bound(problem)
        num_bins = 1 if bound <= u else max(1, math.ceil(math.log(bound / u, alpha))) + 1
    if num_bins < 1:
        raise ValueError("bins must be >= 1")
    try:
        ladder = [u * alpha**b for b in range(num_bins)]
    except OverflowError:  # alpha^b itself overflows
        ladder = [math.inf]
    if not math.isfinite(ladder[-1]):
        raise ValueError(
            f"u * alpha^{num_bins - 1} overflows (u={u:g}, alpha={alpha:g}); "
            "the top rung must be finite, so lower u, alpha or bins"
        )
    return ladder


def swan_sequence(
    problem: Problem,
    u: float | None = None,
    alpha: float = 2.0,
    max_bins: int | None = None,
    session: SolveSession | None = None,
) -> AllocatorReport:
    """Iterative approximate max-min fairness with geometrically growing
    per-demand rate caps.

    Iteration b maximizes the ratio sum subject to rho_k <= u * alpha^(b-1),
    the b-th boundary of ``suggest_bin_config(problem, alpha, u, max_bins)``;
    a demand that ends an iteration strictly below its cap is frozen there
    for all later iterations.  Runs until every demand is frozen or the
    ladder is exhausted.  One LP per iteration.  Converged only if every
    demand froze; otherwise the top cap truncated some.
    """
    compiled = build_subdemands(problem)
    u = _default_u(problem, compiled) if u is None else u
    caps = _geo_ladder(problem, u, alpha, max_bins)
    session = session or SolveSession()
    start = session.count
    base, forms = _fragment(problem, compiled, "capped-seq")
    objective = {j: a for form in forms for j, a in form.items()}
    frozen: dict[str, float] = {}
    prev: dict[str, float] = {}
    iterations = 0
    last_values: list[float] = []

    for b, cap in enumerate(caps, start=1):
        iterations = b
        rows: list[Constraint] = []
        for d, form in zip(problem.demands, forms):
            k = d.id
            if k in frozen:
                rows.append(Constraint(form, "==", frozen[k], name=f"freeze:{k}"))
            else:
                rows.append(Constraint(form, "<=", cap))
                if b > 1:
                    rows.append(Constraint(form, ">=", prev[k]))
        lp = LinearProgram(
            f"capped-seq-{b}", base.variables, base.constraints + rows, objective
        )
        sol = _solved(session, lp)
        last_values = sol.values

        for d, form in zip(problem.demands, forms):
            k = d.id
            if k in frozen:
                continue
            r = _value(form, sol.values)
            prev[k] = r
            if r < cap - FREEZE_TOL * max(1.0, cap):
                frozen[k] = r
        if len(frozen) == len(problem.demands):
            break

    return AllocatorReport(
        _allocation_from(problem, last_values),
        lp_solves=session.count - start,
        iterations=iterations,
        notes={
            "allocator": "swan-sequence",
            "u": caps[0],
            "alpha": alpha,
            "ladder": len(caps),
            "converged": len(frozen) == len(problem.demands),
        },
    )


def _binned(
    problem: Problem,
    compiled: Compiled,
    boundaries: Sequence[float],
    epsilon: float,
    session: SolveSession | None,
    allocator: str,
) -> AllocatorReport:
    """The one-shot binned LP over a boundary ladder l_1 < ... < l_B.

    Bin b holds y_kb in [0, l_b - l_(b-1)] (l_0 = 0), the bins sum to rho_k
    (a row `sum_b y_kb - form_k = 0`), and the objective is
    sum_k sum_b epsilon^(b-1) y_kb.  One LP, named ``allocator``.  LP optima
    are unique in objective value but not in the individual bins, so each
    demand's total is restacked into its lowest bins first (``bins`` note);
    that keeps the total, hence feasibility and objective value.  A demand
    that fills the whole ladder may have been truncated by its top boundary:
    the report then says ``converged=False`` and carries a ``coverage``
    note.
    """
    if not boundaries:
        raise ValueError("need at least one boundary")
    if boundaries[0] <= 0 or any(b2 <= b1 for b1, b2 in zip(boundaries, boundaries[1:])):
        raise ValueError("boundaries must be strictly increasing and positive")
    _check_levels(epsilon, len(boundaries))
    session = session or SolveSession()
    start = session.count
    caps = [boundaries[0]] + [b2 - b1 for b1, b2 in zip(boundaries, boundaries[1:])]

    lp, forms = _fragment(problem, compiled, allocator)
    objective: dict[int, float] = {}
    bin_cols: list[list[int]] = []  # per demand, its y_kb columns
    for d, form in zip(problem.demands, forms):
        cols = [lp.add_variable(upper=cap) for cap in caps]
        bin_cols.append(cols)
        objective.update({y: epsilon**b for b, y in enumerate(cols)})
        coeffs = {**_minus(form), **dict.fromkeys(cols, 1.0)}
        lp.add_constraint(coeffs, "==", 0.0, name=f"bins:{d.id}")
    lp.objective = objective
    sol = _solved(session, lp)

    top = boundaries[-1]
    bins: dict[str, list[float]] = {}
    truncated = False
    for d, cols in zip(problem.demands, bin_cols):
        left = max(0.0, sum(sol.values[y] for y in cols))
        truncated |= left >= top - FREEZE_TOL * max(1.0, top)
        stack = []
        for cap in caps:
            take = min(left, cap)
            stack.append(take)
            left -= take
        stack[-1] += left  # beyond the ladder: spill into the top bin
        bins[d.id] = stack

    notes = {
        "allocator": allocator,
        "epsilon": epsilon,
        "boundaries": list(boundaries),
        "bin_caps": caps,
        "bins": bins,
        "converged": not truncated,
    }
    if truncated:
        notes["coverage"] = (
            "a demand fills the whole bin ladder; its allocation may be truncated"
        )
    return AllocatorReport(
        _allocation_from(problem, sol.values),
        lp_solves=session.count - start,
        iterations=1,
        notes=notes,
    )


def geo_binner(
    problem: Problem,
    u: float | None = None,
    alpha: float = 2.0,
    max_bins: int | None = None,
    epsilon: float | None = None,
    session: SolveSession | None = None,
) -> AllocatorReport:
    """One-shot geometric binner: the binned LP over the capped sequence's
    ladder, ``suggest_bin_config(problem, alpha, u, max_bins)``, with the
    problem compiled once for the estimate of u and the LP.

    The decaying weights make every optimum fill a demand's lower bins before
    the higher ones.  Over the same ladder this reproduces ``swan_sequence``'s
    allocation without iterating, provided epsilon is small enough that no
    trade of lower-bin rate for higher-bin rate pays (the delta rule); at a
    larger epsilon the two can differ.  Like the sequence, it reports
    ``converged=False`` (and a ``coverage`` note) when some demand fills the
    whole ladder, since the top boundary may have truncated it.

    epsilon defaults to ``default_epsilon`` of the ladder's length.  A default
    ladder (``max_bins`` None) longer than the guard admits even at epsilon
    0.5 keeps its lowest ``MAX_DEFAULT_LEVELS`` rungs; a demand that reaches
    the top of those is flagged as above.  An asked-for ladder is weighed
    whole, and an epsilon that breaks the guard raises.
    """
    compiled = build_subdemands(problem)
    u = _default_u(problem, compiled) if u is None else u
    boundaries = _geo_ladder(problem, u, alpha, max_bins)
    if epsilon is None:
        if max_bins is None:
            boundaries = boundaries[:MAX_DEFAULT_LEVELS]
        epsilon = default_epsilon(len(boundaries))
    return _binned(problem, compiled, boundaries, epsilon, session, "geo-binner")


# -- equi-depth binners ---------------------------------------------------------


def compute_equi_boundaries(
    aw_rates: Mapping[str, float], num_bins: int
) -> tuple[list[float], list[list[str]]]:
    """Split demands into contiguous equal-size groups by ascending estimated
    rate; boundary b is the largest rate in group b.

    Consecutive estimates within ``TIE_REL_TOL`` (relative) of each other are
    ties and are ordered by demand id, so rounding noise in the estimate does
    not decide the grouping."""
    if not aw_rates:
        raise ValueError("empty rates map")
    if num_bins < 1:
        raise ValueError("bins must be >= 1")
    if num_bins > len(aw_rates):
        raise ValueError(
            f"num_bins={num_bins} exceeds the {len(aw_rates)} demands"
        )
    ranked = sorted(aw_rates.items(), key=lambda kv: (kv[1], kv[0]))
    order: list[tuple[str, float]] = []
    tied: list[tuple[str, float]] = []
    for kv in ranked:
        if tied and kv[1] - tied[-1][1] > TIE_REL_TOL * abs(tied[-1][1]):
            order += sorted(tied)
            tied = []
        tied.append(kv)
    order += sorted(tied)
    size = math.ceil(len(order) / num_bins)
    groups: list[list[str]] = []
    boundaries: list[float] = []
    for start in range(0, len(order), size):
        chunk = order[start : start + size]
        groups.append([k for k, _ in chunk])
        boundaries.append(max(v for _, v in chunk))
    return boundaries, groups


def merge_boundaries(boundaries: Sequence[float]) -> list[float]:
    """Collapse non-positive boundaries and those within ``TIE_REL_TOL``
    (relative) of the previous one, so the result is strictly increasing
    (the degenerate-merge rule for the multi-bin variant)."""
    out: list[float] = []
    for b in boundaries:
        if b <= 0:
            continue
        if out and b <= out[-1] * (1 + TIE_REL_TOL):
            continue
        out.append(b)
    return out


def _equi_depth_bins(problem: Problem, num_bins: int | None) -> int:
    """The equi-depth binners' bin count: ``num_bins``, else half the demands
    clamped to 2..8."""
    return max(2, min(8, len(problem.demands) // 2)) if num_bins is None else num_bins


def equi_depth_elastic(
    problem: Problem,
    num_bins: int | None = None,
    epsilon: float = 0.25,
    slack: float | None = None,
    aw_iterations: int = 10,
    session: SolveSession | None = None,
) -> AllocatorReport:
    """Equi-depth binner with elastic boundaries.

    An adaptive-waterfill run of ``aw_iterations`` rounds orders the
    demands; each of ``num_bins`` equal-size groups is assigned to one bin
    whose boundary is an LP variable, with the group's ratios constrained to
    l_(b-1) <= rho_k <= l_b + s_b.  The slack absorbs estimate inaccuracies.
    One LP regardless of bin count.

    By design the slack can tilt a tied split: s_b (``slack``, by default
    5% of the group's estimate span) is at least 1e-6 of the largest
    estimate, and a lower group may end up to s_b above the next group.  Two
    identical demands on one link of capacity 10 get 5 + s/2 and 5 - s/2
    (5.0000025 and 4.9999975, with s = 5e-6).
    """
    num_bins = _equi_depth_bins(problem, num_bins)
    if slack is not None and not math.isfinite(slack):
        raise ValueError(f"slack must be finite, got {slack}")
    if slack is not None and slack < 0:
        raise ValueError("slack must be nonnegative")
    session = session or SolveSession()
    start = session.count

    compiled = build_subdemands(problem)
    est_ratio, rounds = _estimate_ratios(problem, compiled, aw_iterations)
    est_bounds, groups = compute_equi_boundaries(
        est_ratio, min(num_bins, len(problem.demands))
    )
    n_groups = len(groups)
    _check_levels(epsilon, n_groups)  # one level per group built, not per bin asked for

    max_ratio = max(est_ratio.values(), default=0.0)
    slacks: list[float] = []
    for bound, group in zip(est_bounds, groups):
        if slack is not None:
            slacks.append(float(slack))
        else:
            span = bound - min(est_ratio[k] for k in group)
            slacks.append(max(0.05 * span, 1e-6 * max(max_ratio, 1e-9)))

    lp, forms = _fragment(problem, compiled, "equi-depth-elastic")
    bounds = [lp.add_variable() for _ in groups]  # l_b, the top of group b
    index_of = {d.id: i for i, d in enumerate(problem.demands)}
    objective: dict[int, float] = {}
    for b, group in enumerate(groups):
        for k in group:
            form = forms[index_of[k]]
            if b > 0:
                lp.add_constraint({**form, bounds[b - 1]: -1.0}, ">=", 0.0)
            if b < n_groups - 1:
                lp.add_constraint({**form, bounds[b]: -1.0}, "<=", slacks[b])
            objective.update({j: epsilon**b * a for j, a in form.items()})
    lp.objective = objective
    sol = _solved(session, lp)

    return AllocatorReport(
        _allocation_from(problem, sol.values),
        lp_solves=session.count - start,
        iterations=1,
        notes={
            "allocator": "equi-depth-elastic",
            "epsilon": epsilon,
            "groups": groups,
            "estimate_boundaries": est_bounds,
            "solved_boundaries": [sol.values[j] for j in bounds],
            "slack": slacks,
            "aw_iterations": rounds,
            "converged": True,
        },
    )


def equi_depth_multibin(
    problem: Problem,
    num_bins: int | None = None,
    epsilon: float = 0.25,
    aw_iterations: int = 10,
    session: SolveSession | None = None,
) -> AllocatorReport:
    """Equi-depth multi-bin binner: the binned LP over a ladder from an
    adaptive-waterfill estimate of ``aw_iterations`` rounds, with the problem
    compiled once for the estimate and the LP.

    The ladder is the equi-depth boundaries of the estimated ratios (the
    ``num_bins`` groups of ``equi_depth_elastic``), merged to be strictly
    increasing; it is one bin at the largest estimate, or 1.0, if no estimate
    is positive.  A demand is capped at the top boundary, the largest
    estimate, and a demand that reaches it is flagged like a truncated
    geometric binner.
    """
    compiled = build_subdemands(problem)
    num_bins = _equi_depth_bins(problem, num_bins)
    est, _ = _estimate_ratios(problem, compiled, aw_iterations)
    bounds, _ = compute_equi_boundaries(est, min(num_bins, len(est)))
    boundaries = merge_boundaries(bounds) or [max(est.values(), default=1.0) or 1.0]
    return _binned(problem, compiled, boundaries, epsilon, session, "equi-depth-multibin")
