"""Combinatorial allocators: exact and single-pass approximate waterfilling
over single-path subdemands, plus the adaptive multi-path waterfiller that
re-weights subdemands toward less congested paths each round.

Multi-path demands are expanded into one subdemand per (demand, path); the
subdemands of a bounded demand share a virtual edge whose capacity is the
demand volume, so no demand can exceed what it asked for.  ``Problem``
refuses repeated ids when it is built, so each (demand, path) pair is one
column and each resource one row.

The expansion is compiled once per validated problem into a sparse
incidence (``SubdemandMatrix``, CSR over rows); theta, rates and the trace
are arrays indexed by its columns.  The waterfillers compute link loads
with ``np.bincount``, which sums each row in column order; no dense rows x
columns array is formed.  The adaptive waterfiller builds the incidence once
and only rescales its weights between rounds.  The bottleneck check and
the LP allocators' fragment (``optimizers.build_feasible_alloc``) read the
same rows, so a problem becomes rows, and is validated, in this one place.

The single pass keeps one water level per column (its rate over its
weight) and settles each row with at most one sort of its members by level.
Most rows are short: a virtual edge holds one column per path (4 on the
K = 4 WAN ladder, where virtual edges are 870 of the 920 rows at 870
demands), against 136-616 (median 269) on each of the 50 link rows.  A row
of fewer than ``_NUMPY_ROW`` members is settled as Python scalars, a longer
one with numpy; both add the same terms in the same order, so they agree to
the bit.  The crossover is where the two cost the same on the rows the
benchmark inputs send to them (about 35 us a row at 48-63 members).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .model import Allocation, Problem, raise_if_invalid, total_allocation, validate_problem
from .report import AllocatorReport

__all__ = [
    "SubdemandMatrix",
    "BottleneckCheck",
    "build_subdemands",
    "single_path_waterfill",
    "approx_waterfill",
    "adaptive_waterfill",
    "is_bandwidth_bottlenecked",
    "theta_trace_csv",
]

THETA_CONVERGENCE = 1e-6


@dataclass(frozen=True)
class SubdemandMatrix:
    """Subdemand incidence in CSR form: resource rows first, then one
    virtual-edge row per bounded demand; one column per (demand, path).
    ``rows`` are labels only (a virtual edge reads ``{demand}::vol``, which
    may repeat a resource id): everything derived from the matrix is keyed
    by row and column index.

    Row ``e`` owns the nonzeros ``indptr[e]:indptr[e + 1]``.  For each,
    ``indices`` holds the column (increasing within a row), ``row_of`` the
    row (``indptr`` expanded, for ``np.bincount``), ``gamma`` the
    column's waterfilling weight w_k * theta_k^p, and ``consumption`` r_k^e
    (1 on virtual edges), so capacity deductions stay correct when
    consumption factors differ from 1.  ``weight`` (w_k) and ``owner`` (the
    demand's index in ``problem.demands``) are per column.

    The pattern depends only on the problem.  A new theta rescales ``gamma``
    in place (w_k * theta_k^p gathered by column), so one matrix serves
    every round of the adaptive waterfiller.  The problem is valid, so every
    column has positive consumption on some row.
    """

    rows: tuple[str, ...]
    columns: tuple[tuple[str, str], ...]
    indptr: np.ndarray
    indices: np.ndarray
    row_of: np.ndarray
    gamma: np.ndarray
    consumption: np.ndarray
    weight: np.ndarray
    owner: np.ndarray

    def rescale(self, theta: np.ndarray) -> None:
        """Set gamma to w_k * theta_k^p for a per-column theta, in place."""
        np.take(self.weight * theta, self.indices, out=self.gamma)


def _even_split(owner: np.ndarray) -> np.ndarray:
    """theta_k^p = 1 / |P_k| per column: every demand split evenly over its paths."""
    return 1.0 / np.bincount(owner)[owner]


def build_subdemands(problem: Problem) -> tuple[SubdemandMatrix, np.ndarray]:
    """Expand demands into single-path subdemand columns and capacities:
    the CSR incidence, built in one pass over the demands, with each demand
    split evenly over its paths (gamma = w_k / |P_k|; ``rescale`` sets
    others).  Unbounded demands get no virtual edge.  An invalid problem
    raises the allocators' "invalid problem (...)" ValueError.
    """
    raise_if_invalid(validate_problem(problem))
    rows = [r.id for r in problem.resources]
    row_idx = {rid: i for i, rid in enumerate(rows)}
    path_rows = {p.id: list(map(row_idx.__getitem__, p.resources)) for p in problem.paths}
    path_map = problem.path_map()

    caps = [r.capacity for r in problem.resources]
    columns: list[tuple[str, str]] = []
    nz_per_col: list[int] = []
    nz_row: list[int] = []
    cons_at: list[int] = []  # entries of demands with consumption entries
    cons_val: list[float] = []
    for d in problem.demands:
        bounded = d.bounded
        if bounded:
            vrow = len(rows)
            rows.append(f"{d.id}::vol")
            caps.append(float(d.volume))
        first = len(nz_row)
        for pid in d.paths:
            on_path = path_rows[pid]
            nz_row += on_path
            if bounded:
                nz_row.append(vrow)
            nz_per_col.append(len(on_path) + bounded)
            columns.append((d.id, pid))
        cons = d.consumption
        if cons:  # the demand's entries, in the order just appended
            cons_at += range(first, len(nz_row))
            for pid in d.paths:
                cons_val += [cons.get(rid, 1.0) for rid in path_map[pid].resources]
                if bounded:
                    cons_val.append(1.0)

    # Entries were appended in column order, so a stable sort by row leaves
    # every row's columns increasing.
    nz_row_arr = np.array(nz_row, dtype=np.intp)
    order = np.argsort(nz_row_arr, kind="stable")
    indptr = np.zeros(len(rows) + 1, dtype=np.intp)
    np.cumsum(np.bincount(nz_row_arr, minlength=len(rows)), out=indptr[1:])
    nz_cons = np.ones(len(nz_row))
    nz_cons[cons_at] = cons_val
    paths_per_demand = [len(d.paths) for d in problem.demands]
    weight = np.array([d.weight for d in problem.demands], dtype=float)
    matrix = SubdemandMatrix(
        rows=tuple(rows),
        columns=tuple(columns),
        indptr=indptr,
        indices=np.repeat(np.arange(len(columns)), nz_per_col)[order],
        row_of=nz_row_arr[order],
        gamma=np.empty(len(order)),
        consumption=nz_cons[order],
        weight=np.repeat(weight, paths_per_demand),
        owner=np.repeat(np.arange(len(problem.demands)), paths_per_demand),
    )
    matrix.rescale(_even_split(matrix.owner))
    return matrix, np.array(caps, dtype=float)


def _active_columns(matrix: SubdemandMatrix) -> np.ndarray:
    """Columns with positive weight; zero-weight columns (theta = 0) are
    legal and simply receive rate 0."""
    n_cols = len(matrix.columns)
    return np.bincount(matrix.indices, weights=matrix.gamma, minlength=n_cols) > 0.0


def single_path_waterfill(
    matrix: SubdemandMatrix, capacities: np.ndarray
) -> np.ndarray:
    """Exact weighted max-min rates for single-path subdemands.

    Each round finds the link with the smallest fair share
    zeta = capacity / total consumption-scaled weight, fixes its subdemands at
    zeta * weight, deducts their usage everywhere, and removes the link.
    Terminates in at most one round per link.
    """
    active = _active_columns(matrix)
    indptr, cols, gamma, cons = matrix.indptr, matrix.indices, matrix.gamma, matrix.consumption
    n_rows = len(matrix.rows)
    row_of = matrix.row_of
    weighted = gamma * cons
    capacity = np.asarray(capacities, dtype=float)
    left = capacity
    live = np.ones(n_rows, dtype=bool)
    rates = np.zeros(len(matrix.columns))

    while active.any():
        load = np.bincount(row_of, weighted * active[cols], minlength=n_rows)
        eligible = live & (load > 0.0)
        if not eligible.any():
            break
        share = np.full(n_rows, np.inf)
        share[eligible] = np.maximum(left[eligible], 0.0) / load[eligible]
        e = int(np.argmin(share))  # ties: lowest row index (resource order)
        zeta = share[e]
        on_e, g_e = cols[indptr[e] : indptr[e + 1]], gamma[indptr[e] : indptr[e + 1]]
        pick = active[on_e] & (g_e > 0.0)
        fixed = on_e[pick]
        rates[fixed] = zeta * g_e[pick]
        # Unfixed subdemands have rate 0, so this deducts all fixed so far.
        left = capacity - np.bincount(row_of, cons * rates[cols], minlength=n_rows)
        live[e] = False
        active[fixed] = False
    return rates


# Rows with at least this many members take the numpy evaluator of the
# water level, shorter rows the scalar one; the two give identical results.
_NUMPY_ROW = 48


def approx_waterfill(matrix: SubdemandMatrix, capacities: np.ndarray) -> np.ndarray:
    """Single pass in the initial fair-share order of the links.

    Column j keeps a level z_j, inf until a row fixes it, and its rate is
    z_j * g_j (g_j = w_k * theta_k^p).  A row fixes every member at the
    row's share when every member's level is at least that share, and does
    nothing when every level is below it.  Otherwise the members that
    earlier rows fixed lower drop out, their usage deducted, and the rest are
    fixed at the level the remaining capacity gives them (`_water_level`).
    Approximate even for single-path inputs, but never exceeds any capacity.
    """
    cols, gamma = matrix.indices, matrix.gamma
    n_rows = len(matrix.rows)
    caps = np.array(capacities, dtype=float)
    g = np.zeros(len(matrix.columns))
    g[cols] = gamma
    a = gamma * matrix.consumption

    load = np.bincount(matrix.row_of, a, minlength=n_rows)
    share = np.full(n_rows, np.inf)
    share[load > 0.0] = caps[load > 0.0] / load[load > 0.0]
    order = np.argsort(share, kind="stable")  # ties: lowest resource index
    order = order[: np.count_nonzero(np.isfinite(share))]  # inf and nan sort last

    # Row e's members are the slices ptr[e]:ptr[e + 1].  A zero-weight
    # column sits at level 0 with a = 0: it takes no capacity and keeps rate 0.
    ptr, col_l = matrix.indptr.tolist(), cols.tolist()
    caps_l, share_l = caps.tolist(), share.tolist()
    level = np.where(g > 0.0, np.inf, 0.0).tolist()
    for e in order.tolist():
        s, t = ptr[e], ptr[e + 1]
        zeta = share_l[e]
        members = col_l[s:t]
        if t - s < _NUMPY_ROW:
            z = [level[j] for j in members]
            if min(z) < zeta:
                if max(z) < zeta:
                    continue
                fixed, zeta = _water_level(z, a[s:t].tolist(), caps_l[e])
                members = [members[i] for i in fixed]
        else:
            z = np.fromiter(map(level.__getitem__, members), float, t - s)
            if z.min() < zeta:
                if z.max() < zeta:
                    continue
                fixed, zeta = _water_level_np(z, a[s:t], caps_l[e])
                members = cols[s:t][fixed].tolist()
        for j in members:
            level[j] = zeta

    z = np.array(level)
    z[np.isinf(z)] = 0.0
    return z * g


def _water_level(z: list[float], a: list[float], cap: float) -> tuple[list[int], float]:
    """The members a row fixes (indices into ``z``) and their level.

    With the members in level order (a stable sort), the first position i
    where z_(i) >= max(cap - below_i, 0) / above_i fixes itself and every
    later member at that level; below_i = sum_{<i} a z is the usage of the
    members that drop out, above_i = sum_{>=i} a, and a_j = g_j * q_j.
    below adds up the order and above down it, one term at a time, so
    `_water_level_np` gets the same bits.  None are fixed when no position
    qualifies or above_i reaches 0 first.
    """
    rank = sorted(range(len(z)), key=z.__getitem__)
    above = list(accumulate(a[r] for r in reversed(rank)))[::-1]
    below = 0.0
    for i, r in enumerate(rank):
        if above[i] <= 0.0:
            break
        zeta = max(cap - below, 0.0) / above[i]
        if z[r] >= zeta:
            return rank[i:], zeta
        below += a[r] * z[r]
    return [], 0.0


def _water_level_np(z: np.ndarray, a: np.ndarray, cap: float) -> tuple[np.ndarray, float]:
    """`_water_level` in numpy, for long rows (``np.cumsum`` adds one term
    at a time, in order)."""
    rank = np.argsort(z, kind="stable")
    z, a = z[rank], a[rank]
    above = np.cumsum(a[::-1])[::-1]
    # The first unfixed member (level inf) is the last that can qualify;
    # above only decreases along the order.
    n = min(int(np.searchsorted(z, np.inf)) + 1, len(z))
    if not above[n - 1] > 0.0:
        n = int(np.count_nonzero(above[:n] > 0.0))
        if not n:
            return rank[:0], 0.0
    zeta = np.empty(n)
    zeta[0] = cap
    np.subtract(cap, np.cumsum(a[: n - 1] * z[: n - 1]), out=zeta[1:])
    np.maximum(zeta, 0.0, out=zeta)
    zeta /= above[:n]
    stop = z[:n] >= zeta
    i = int(np.argmax(stop))
    if not stop[i]:
        return rank[:0], 0.0
    return rank[i:], float(zeta[i])


def adaptive_waterfill(
    problem: Problem,
    iterations: int = 10,
    inner: str = "approx",
    theta_tol: float = THETA_CONVERGENCE,
) -> AllocatorReport:
    """Iterate waterfilling with path weights theta_k^p updated to last
    round's rate proportions: theta(t+1) = f_k^p(t) / sum_p f_k^p(t).

    Stops when the largest theta change drops to theta_tol (default 1e-6) or
    after ``iterations`` rounds; non-convergence is flagged in the report,
    not an error.  Demands with zero total rate keep their previous theta (the
    update is undefined there).  The subdemand incidence is built once; each
    round rescales its weights in place.

    ``notes["theta_trace"]`` is ``{"columns": matrix.columns, "theta": T,
    "rates": R}``, where row t - 1 of the 2-D arrays holds iteration t.
    """
    return _adaptive(problem, build_subdemands(problem), iterations, inner, theta_tol)


def _adaptive(
    problem: Problem,
    compiled: tuple[SubdemandMatrix, np.ndarray],
    iterations: int,
    inner: str,
    theta_tol: float,
) -> AllocatorReport:
    """`adaptive_waterfill` on the problem's `build_subdemands` result,
    whose ``gamma`` it overwrites."""
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if inner not in ("exact", "approx"):
        raise ValueError(f"unknown inner waterfiller {inner!r}")
    fill = single_path_waterfill if inner == "exact" else approx_waterfill

    matrix, caps = compiled
    theta = _even_split(matrix.owner)
    thetas, flows = [], []
    for _ in range(iterations):
        matrix.rescale(theta)
        flow = fill(matrix, caps)
        thetas.append(theta)
        flows.append(flow)

        # Each demand's total, summed in column order, gathered back by column.
        totals = np.bincount(matrix.owner, flow, minlength=len(problem.demands))[matrix.owner]
        new_theta = theta.copy()
        np.divide(flow, totals, out=new_theta, where=totals > 0.0)
        delta = float(np.max(np.abs(new_theta - theta)))
        theta = new_theta
        if delta <= theta_tol:
            break

    columns = matrix.columns
    return AllocatorReport(
        Allocation(dict(zip(columns, flow.tolist()))),
        lp_solves=0,
        iterations=len(flows),
        notes={
            "allocator": f"adaptive-waterfill/{inner}",
            "converged": delta <= theta_tol,
            "theta_trace": dict(columns=columns, theta=np.array(thetas), rates=np.array(flows)),
            "final_theta": dict(zip(columns, theta.tolist())),
        },
    )


def theta_trace_csv(report: AllocatorReport) -> str:
    """Render the adaptive waterfiller's trace as iteration x subdemand CSV,
    sorted by (demand id, path id) within an iteration; values are reprs."""
    trace = report.notes.get("theta_trace")
    if trace is None:
        raise ValueError("report has no theta trace")
    buf = io.StringIO()
    out = csv.writer(buf, lineterminator="\n")  # quotes ids holding "," or '"'
    out.writerow(["iteration", "demand", "path", "theta", "rate"])
    columns = trace["columns"]
    order = sorted(range(len(columns)), key=columns.__getitem__)
    for t, (theta, rates) in enumerate(zip(trace["theta"].tolist(), trace["rates"].tolist()), 1):
        for j in order:
            out.writerow([t, *columns[j], repr(theta[j]), repr(rates[j])])
    return buf.getvalue()


@dataclass(frozen=True)
class BottleneckCheck:
    bottlenecked: bool
    witness: tuple[str, str, str | None, str | None] | None = None


def is_bandwidth_bottlenecked(
    problem: Problem, alloc: Allocation, tol: float = 1e-6
) -> BottleneckCheck:
    """Check the fixed-point condition of the adaptive waterfiller.

    True iff every nonzero subdemand f_k^p has a saturated link l on its path
    (volume edges count as links; saturation within a 1e-6 relative margin)
    where k's weighted ratio is at least every sharer's ratio minus ``tol``;
    a demand with no rate at all must be blocked so on every path.  The
    links are the rows of the subdemand incidence (its pattern only).

    The witness of a failure is (demand, path, link, sharer) for the first
    failing subdemand in (demand, path) order: its lowest-index saturated
    row (resources in problem order, then the volume edge) and there the
    demand of the highest-ratio live sharer (ties: earliest column); link
    and sharer are None when no link on the path is saturated.
    """
    matrix, caps = build_subdemands(problem)
    rows, cols = matrix.row_of, matrix.indices
    rate_eps = 1e-9 * max(1.0, problem.max_capacity())
    totals = np.array(list(total_allocation(problem, alloc).values()))
    ratio = totals[matrix.owner] / matrix.weight
    rate = np.array([alloc.rate(k, p) for k, p in matrix.columns], dtype=float)
    live = rate > rate_eps
    starved = np.bincount(matrix.owner, rate, minlength=len(problem.demands)) <= rate_eps
    checked = live | starved[matrix.owner]

    usage = np.bincount(rows, matrix.consumption * rate[cols], minlength=len(caps))
    saturated = (usage >= caps - 1e-6 * np.maximum(caps, 1e-12))[rows]
    worst = np.zeros(len(caps))  # 0 on a row with no live sharer
    np.maximum.at(worst, rows[live[cols]], ratio[cols[live[cols]]])
    ok = saturated & (ratio[cols] >= worst[rows] - tol)
    failing = np.flatnonzero(checked & (np.bincount(cols, ok, minlength=len(rate)) == 0))
    if not failing.size:
        return BottleneckCheck(True, None)

    j = int(failing[0])
    k, p = matrix.columns[j]
    blocked = rows[(cols == j) & saturated]
    if not blocked.size:
        return BottleneckCheck(False, (k, p, None, None))
    e = int(blocked[0])
    sharers = cols[matrix.indptr[e] : matrix.indptr[e + 1]]
    sharers = sharers[live[sharers]]
    top = int(sharers[np.argmax(ratio[sharers])])
    return BottleneckCheck(False, (k, p, matrix.rows[e], matrix.columns[top][0]))
