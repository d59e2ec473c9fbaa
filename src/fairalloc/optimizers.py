"""Optimization-based max-min fair allocators.

All of them operate on weighted ratios rho_k = F_k / w_k (F_k sums the
utility-weighted path rates) and build every LP on one fragment,
`build_feasible_alloc`: the path rates and one rho_k column per demand, tied
to its rates by a ratio row.  Its volume and capacity rows are cut from the
subdemand incidence that the waterfillers read (`build_subdemands`), so a
problem becomes rows, and is validated, in that one place.  Each allocator
adds only its own columns and rows:

* exact sequential: one LP a round maximizes the smallest unfrozen ratio;
  the demands its optimal duals certify as bottlenecked freeze there,
  repeat;
* one-shot exact: a single LP that sorts the ratios with a comparator
  network and maximizes a geometrically weighted sum of the sorted outputs;
* capped sequence (SWAN-style): one LP per rung of the geometric boundary
  ladder that ``suggest_bin_config`` builds;
* binned LP: per-bin rate variables with geometrically decaying objective
  weights, solved once over a boundary ladder; the geometric binner bins by
  the capped sequence's ladder, the equi-depth multi-bin variant by
  boundaries from an adaptive-waterfill estimate;
* equi-depth elastic binner: boundaries taken from that estimate and
  solved as LP variables.

Ratio objectives carry a deterministic per-demand tie-break factor
(1 + eta * 2^-i, demand order) so that degenerate optima are resolved the
same way across allocators; eta is far below every bin-weight gap, so the
returned point is always an optimum of the unperturbed objective.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from .lp import Constraint, LinearProgram, SolveSession
from .model import Allocation, Problem, raise_if_invalid, total_allocation, validate_problem
from .report import AllocatorReport
from .sortnet import SortingNetwork, build_sorting_network
from .waterfill import adaptive_waterfill, build_subdemands

__all__ = [
    "AllocationError",
    "build_feasible_alloc",
    "ratio_columns",
    "exact_sequential_max_min",
    "one_shot_exact",
    "swan_sequence",
    "geo_binner",
    "compute_equi_boundaries",
    "merge_boundaries",
    "estimate_equi_boundaries",
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
TIE_BREAK = 1e-4
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


def _tie(index: int) -> float:
    # Deterministic preference for earlier demands among otherwise-equal
    # optima; inert (rounds to 1.0) beyond ~50 demands.
    return 1.0 + TIE_BREAK * 2.0 ** (-index)


def _solved(session: SolveSession, lp: LinearProgram):
    sol = session.solve(lp)
    if sol.status != "optimal":
        raise AllocationError(f"LP {lp.name!r} is {sol.status}")
    return sol


# -- the shared feasible-allocation fragment -------------------------------------


def ratio_columns(problem: Problem) -> range:
    """Columns of rho_k in `build_feasible_alloc`, in demand order."""
    start = sum(len(d.paths) for d in problem.demands)
    return range(start, start + len(problem.demands))


def build_feasible_alloc(problem: Problem, name: str = "feasible-alloc") -> LinearProgram:
    """Variables and constraints of a feasible allocation, no objective.

    Columns: one rate f_k^p per (demand, path) in problem order, then one
    weighted ratio rho_k per demand (`ratio_columns`).  Rows: a volume row
    per bounded demand (`sum_p f_k^p <= d_k`), a capacity row per used
    resource (`sum r_k^e f_k^p <= c_e`), then a ratio row per demand
    (`sum_p q_k^p f_k^p - w_k rho_k == 0`).  The volume and capacity rows
    are the virtual-edge and resource rows of `build_subdemands`'s
    incidence, whose columns are the rate columns; building it validates
    the problem.
    """
    matrix, caps = build_subdemands(problem)
    ptr, cols = matrix.indptr.tolist(), matrix.indices.tolist()
    cons, caps = matrix.consumption.tolist(), caps.tolist()
    rho = ratio_columns(problem)
    lp = LinearProgram(name, [None] * rho.stop)
    labels = [f"cap:{r.id}" for r in problem.resources]
    labels += [f"volume:{d.id}" for d in problem.demands if d.bounded]
    n = len(problem.resources)
    for e in [*range(n, len(labels)), *range(n)]:  # virtual edges, then resources
        s, t = ptr[e], ptr[e + 1]
        if s < t:
            lp.add_constraint(dict(zip(cols[s:t], cons[s:t])), "<=", caps[e], name=labels[e])

    first = 0  # the demand's first rate column
    for d, j in zip(problem.demands, rho):
        coeffs = {first + i: d.utility_on(pid) for i, pid in enumerate(d.paths)}
        coeffs[j] = -d.weight
        lp.add_constraint(coeffs, "==", 0.0, name=f"ratio:{d.id}")
        first += len(d.paths)
    return lp


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
    t subject to rho_k - t >= 0 for each unfrozen k, the frozen ratios held
    fixed.  Its optimal duals say which demands are bottlenecked (the dual
    saturation test of Danna, Mandal & Singh, INFOCOM 2012).  Write y_k >= 0
    for the dual of k's floor row.  By complementary slackness, y_k > 0
    means rho_k = t_i in every optimum, so k freezes at t_i.  Dual
    feasibility on t's column gives sum_k y_k >= 1, so every round freezes
    at least one demand, and lp_solves = rounds <= len(demands).  A demand
    that is bottlenecked but whose dual happens to be 0 (degeneracy) stays
    unfrozen and freezes at the same t in a later round.
    """
    session = session or SolveSession()
    start = session.count
    demands = [d.id for d in problem.demands]
    base = build_feasible_alloc(problem, "max-min")
    rho = ratio_columns(problem)
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
                Constraint({rho[i]: 1.0}, "==", frozen[k], name=f"freeze:{k}")
                if k in frozen
                else Constraint({rho[i]: 1.0, t: -1.0}, ">=", 0.0)
                for i, k in enumerate(demands)
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

    A comparator network sorts the ratio variables inside the LP (each
    comparator contributes lo <= x, lo <= y, hi = x + y - lo); the objective
    sum_i epsilon^(i-1) t_i puts strictly more weight on smaller sorted
    outputs, which both drives every lo to min(x, y) at the optimum and makes
    the sorted vector lexicographically maximal.
    """
    n = len(problem.demands)
    _check_levels(epsilon, n, f"for n={n} demands, use the geometric binner instead")
    session = session or SolveSession()
    start = session.count

    lp = build_feasible_alloc(problem, "one-shot-exact")
    wires = list(ratio_columns(problem))
    net: SortingNetwork = build_sorting_network(n)
    for i, j in net.comparators:
        lo, hi = lp.add_variable(), lp.add_variable()
        lp.add_constraint({lo: 1.0, wires[i]: -1.0}, "<=", 0.0)
        lp.add_constraint({lo: 1.0, wires[j]: -1.0}, "<=", 0.0)
        lp.add_constraint(
            {hi: 1.0, lo: 1.0, wires[i]: -1.0, wires[j]: -1.0}, "==", 0.0
        )
        wires[i], wires[j] = lo, hi

    objective: dict[int, float] = {}
    for pos, wire in enumerate(wires):
        objective[wire] = objective.get(wire, 0.0) + epsilon**pos
    lp.objective = objective
    sol = _solved(session, lp)

    sorted_out = [sol.values[w] for w in wires]
    ratios = sorted(sol.values[j] for j in ratio_columns(problem))
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


def _estimate_ratios(problem: Problem, iterations: int) -> tuple[dict[str, float], int]:
    """Weighted ratios F_k / w_k of an approximate adaptive-waterfill run
    (F_k sums utility-weighted path rates), and its iteration count.  The
    run validates the problem before it estimates."""
    aw = adaptive_waterfill(problem, max_iterations=iterations, inner="approx")
    totals = total_allocation(problem, aw.allocation)
    return {d.id: totals[d.id] / d.weight for d in problem.demands}, aw.iterations


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
    if u is None:  # the estimate validates the problem
        ratios, _ = _estimate_ratios(problem, 1)
        positive = [r for r in ratios.values() if r > 1e-12]
        u = 0.9 * min(positive) if positive else (1e-3 * problem.max_capacity() or 1.0)
    else:  # the bound below would divide by a zero weight
        raise_if_invalid(validate_problem(problem))
    if not u > 0:
        raise ValueError("u must be > 0")
    if not alpha > 1:
        raise ValueError("alpha must be > 1")
    if num_bins is None:
        bound = achievable_ratio_bound(problem)
        num_bins = 1 if bound <= u else max(1, math.ceil(math.log(bound / u, alpha))) + 1
    if num_bins < 1:
        raise ValueError("bins must be >= 1")
    return [u * alpha**b for b in range(num_bins)]


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
    caps = suggest_bin_config(problem, alpha, u, max_bins)
    session = session or SolveSession()
    start = session.count
    base = build_feasible_alloc(problem, "capped-seq")
    rho = ratio_columns(problem)
    objective = {j: _tie(i) for i, j in enumerate(rho)}
    frozen: dict[str, float] = {}
    prev: dict[str, float] = {}
    iterations = 0
    last_values: list[float] = []

    for b, cap in enumerate(caps, start=1):
        iterations = b
        rows: list[Constraint] = []
        for d, j in zip(problem.demands, rho):
            k = d.id
            if k in frozen:
                rows.append(Constraint({j: 1.0}, "==", frozen[k], name=f"freeze:{k}"))
            else:
                rows.append(Constraint({j: 1.0}, "<=", cap))
                if b > 1:
                    rows.append(Constraint({j: 1.0}, ">=", prev[k]))
        lp = LinearProgram(
            f"capped-seq-{b}", base.variables, base.constraints + rows, objective
        )
        sol = _solved(session, lp)
        last_values = sol.values

        for d, j in zip(problem.demands, rho):
            k = d.id
            if k in frozen:
                continue
            r = sol.values[j]
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
    boundaries: Sequence[float],
    epsilon: float,
    session: SolveSession | None,
    allocator: str,
) -> AllocatorReport:
    """The one-shot binned LP over a boundary ladder l_1 < ... < l_B.

    Bin b holds y_kb in [0, l_b - l_(b-1)] (l_0 = 0), the bins sum to rho_k,
    and the objective is sum_k sum_b epsilon^(b-1) y_kb.  One LP, named
    ``allocator``.  LP optima are unique in objective value but not
    in the individual bins, so each demand's total is restacked into its
    lowest bins first (``bins`` note); that keeps the total, hence
    feasibility and objective value.  A demand that fills the whole ladder
    may have been truncated by its top boundary: the report then says
    ``converged=False`` and carries a ``coverage`` note.
    """
    if not boundaries:
        raise ValueError("need at least one boundary")
    if boundaries[0] <= 0 or any(b2 <= b1 for b1, b2 in zip(boundaries, boundaries[1:])):
        raise ValueError("boundaries must be strictly increasing and positive")
    _check_levels(epsilon, len(boundaries))
    session = session or SolveSession()
    start = session.count
    caps = [boundaries[0]] + [b2 - b1 for b1, b2 in zip(boundaries, boundaries[1:])]

    lp = build_feasible_alloc(problem, allocator)
    objective: dict[int, float] = {}
    bin_cols: list[list[int]] = []  # per demand, its y_kb columns
    for i, (d, rho) in enumerate(zip(problem.demands, ratio_columns(problem))):
        cols = [lp.add_variable(upper=cap) for cap in caps]
        bin_cols.append(cols)
        objective.update({y: epsilon**b * _tie(i) for b, y in enumerate(cols)})
        coeffs = {rho: -1.0, **dict.fromkeys(cols, 1.0)}
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
    boundaries: Sequence[float],
    epsilon: float | None = None,
    session: SolveSession | None = None,
) -> AllocatorReport:
    """One-shot geometric binner: the binned LP over a geometric ladder, as
    ``suggest_bin_config`` builds it.

    The decaying weights make every optimum fill a demand's lower bins before
    the higher ones.  Over the capped sequence's ladder this reproduces
    ``swan_sequence``'s allocation without iterating, provided epsilon is
    small enough that no trade of lower-bin rate for higher-bin rate pays
    (the delta rule); at a larger epsilon the two can differ.  Like the
    sequence, it reports ``converged=False`` (and a ``coverage`` note) when
    some demand fills the whole ladder, since the top boundary may have
    truncated it.

    epsilon defaults to ``default_epsilon`` of the ladder's length.  A ladder
    longer than the guard admits even at epsilon 0.5 keeps its lowest
    ``MAX_DEFAULT_LEVELS`` rungs; a demand that reaches the top of those is
    flagged as above.  An explicit epsilon that breaks the guard raises.
    """
    if epsilon is None:
        boundaries = boundaries[:MAX_DEFAULT_LEVELS]
        epsilon = default_epsilon(len(boundaries))
    return _binned(problem, boundaries, epsilon, session, "geo-binner")


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
    return max(2, min(8, len(problem.demands) // 2)) if num_bins is None else int(num_bins)


def estimate_equi_boundaries(
    problem: Problem, num_bins: int | None = None, aw_iterations: int = 10
) -> list[float]:
    """Multi-bin boundary ladder from an adaptive-waterfill estimate: the
    equi-depth boundaries of the estimated ratios, merged to be strictly
    increasing (one bin at the largest estimate, or 1.0, if none is
    positive)."""
    num_bins = _equi_depth_bins(problem, num_bins)
    est, _ = _estimate_ratios(problem, aw_iterations)
    bounds, _ = compute_equi_boundaries(est, min(num_bins, len(est)))
    return merge_boundaries(bounds) or [max(est.values(), default=1.0) or 1.0]


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
    _check_levels(epsilon, num_bins)
    if slack is not None and slack < 0:
        raise ValueError("slack must be nonnegative")
    session = session or SolveSession()
    start = session.count

    est_ratio, rounds = _estimate_ratios(problem, aw_iterations)
    est_bounds, groups = compute_equi_boundaries(
        est_ratio, min(num_bins, len(problem.demands))
    )
    n_groups = len(groups)

    max_ratio = max(est_ratio.values(), default=0.0)
    slacks: list[float] = []
    for bound, group in zip(est_bounds, groups):
        if slack is not None:
            slacks.append(float(slack))
        else:
            span = bound - min(est_ratio[k] for k in group)
            slacks.append(max(0.05 * span, 1e-6 * max(max_ratio, 1e-9)))

    lp = build_feasible_alloc(problem, "equi-depth-elastic")
    bounds = [lp.add_variable() for _ in groups]  # l_b, the top of group b
    rho = ratio_columns(problem)
    index_of = {d.id: i for i, d in enumerate(problem.demands)}
    objective: dict[int, float] = {}
    for b, group in enumerate(groups):
        for k in group:
            i = index_of[k]
            if b > 0:
                lp.add_constraint({rho[i]: 1.0, bounds[b - 1]: -1.0}, ">=", 0.0)
            if b < n_groups - 1:
                lp.add_constraint({rho[i]: 1.0, bounds[b]: -1.0}, "<=", slacks[b])
            objective[rho[i]] = epsilon**b * _tie(i)
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
    boundaries: Sequence[float],
    epsilon: float,
    session: SolveSession | None = None,
) -> AllocatorReport:
    """The binned LP over the supplied boundary ladder instead of a geometric
    one.  A demand is capped at the top boundary (with ``boundaries`` from
    ``estimate_equi_boundaries``, the largest estimate), and a demand that
    reaches it is flagged like a truncated geometric binner."""
    return _binned(problem, boundaries, epsilon, session, "equi-depth-multibin")
