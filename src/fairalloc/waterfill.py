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

The single pass walks each row's members as Python scalars, cut as list
slices from one filtered pass over the nonzeros.  Most rows are short: a
virtual edge holds one column per path (4 on the K = 4 WAN ladder, where
virtual edges are 870 of the 920 rows at 870 demands), against about 250
columns on each of the 50 link rows.  On such rows the dozen numpy calls per
row of a vectorised walk cost several times the arithmetic they replace.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import compress

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
    path_map = problem.path_map()
    rows = [r.id for r in problem.resources]
    row_idx = {rid: i for i, rid in enumerate(rows)}

    caps = [r.capacity for r in problem.resources]
    columns: list[tuple[str, str]] = []
    nz_col: list[int] = []
    nz_row: list[int] = []
    nz_cons: list[float] = []
    for d in problem.demands:
        if d.bounded:
            vrow = len(rows)
            rows.append(f"{d.id}::vol")
            caps.append(float(d.volume))
        for pid in d.paths:
            on_path = path_map[pid].resources
            nz_col += [len(columns)] * (len(on_path) + d.bounded)
            columns.append((d.id, pid))
            nz_row += [row_idx[rid] for rid in on_path]
            nz_cons += [d.consumption_on(rid) for rid in on_path]
            if d.bounded:
                nz_row.append(vrow)
                nz_cons.append(1.0)

    # Entries were appended in column order, so a stable sort by row leaves
    # every row's columns increasing.
    nz_row_arr = np.array(nz_row, dtype=np.intp)
    order = np.argsort(nz_row_arr, kind="stable")
    indptr = np.zeros(len(rows) + 1, dtype=np.intp)
    np.cumsum(np.bincount(nz_row_arr, minlength=len(rows)), out=indptr[1:])
    indices = np.array(nz_col, dtype=np.intp)[order]
    paths_per_demand = [len(d.paths) for d in problem.demands]
    weight = np.array([d.weight for d in problem.demands], dtype=float)
    matrix = SubdemandMatrix(
        rows=tuple(rows),
        columns=tuple(columns),
        indptr=indptr,
        indices=indices,
        row_of=nz_row_arr[order],
        gamma=np.empty(len(indices)),
        consumption=np.array(nz_cons, dtype=float)[order],
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


def approx_waterfill(matrix: SubdemandMatrix, capacities: np.ndarray) -> np.ndarray:
    """Single pass in the initial fair-share order of the links.

    Per link, an inner fixed point drops subdemands already bottlenecked at a
    smaller rate elsewhere (deducting their usage), then fixes the remaining
    ones at the link's weighted share.  Approximate even for single-path
    inputs, but never exceeds any capacity.

    Numpy does the O(nnz) set-up: loads, shares, the order, and one pass
    that keeps the nonzeros of live columns.  The row loop then walks each
    row's members as Python scalars, because most rows hold 3-5 members (a
    virtual edge has one per path): there, per-row numpy calls (mask, three
    gathers, dot, compare, scatter) took about 15-20 us a row, several times
    the scalar walk.
    """
    active = _active_columns(matrix)
    cols, gamma, cons = matrix.indices, matrix.gamma, matrix.consumption
    n_rows = len(matrix.rows)
    caps = np.array(capacities, dtype=float)

    load = np.bincount(matrix.row_of, gamma * cons * active[cols], minlength=n_rows)
    share = np.full(n_rows, np.inf)
    share[load > 0.0] = caps[load > 0.0] / load[load > 0.0]
    order = np.argsort(share, kind="stable")  # ties: lowest resource index
    order = order[: np.count_nonzero(np.isfinite(share))]  # inf and nan sort last

    # The nonzeros a row can fix, still grouped by row; row e's members are
    # the list slices ptr[e]:ptr[e + 1].
    keep = active[cols] & (gamma > 0.0)
    ptr = np.zeros(n_rows + 1, dtype=np.intp)
    np.cumsum(np.bincount(matrix.row_of[keep], minlength=n_rows), out=ptr[1:])
    ptr = ptr.tolist()
    g_kept, q_kept = gamma[keep], cons[keep]
    col_l, g_l, q_l = cols[keep].tolist(), g_kept.tolist(), q_kept.tolist()
    gq_l = (g_kept * q_kept).tolist()
    caps_l = caps.tolist()
    rates = np.where(active, np.inf, 0.0).tolist()

    for e in order.tolist():
        s, t = ptr[e], ptr[e + 1]
        members, g, q, gq = col_l[s:t], g_l[s:t], q_l[s:t], gq_l[s:t]
        cap = caps_l[e]
        while members:
            denom = sum(gq)
            if denom <= 0.0:
                break
            zeta = max(cap, 0.0) / denom
            low = [rates[j] < zeta * gj for j, gj in zip(members, g)]
            if not any(low):
                for j, gj in zip(members, g):
                    rates[j] = zeta * gj
                break
            if all(low):  # every member is fixed lower elsewhere
                break
            cap -= sum([qi * rates[j] for j, qi, lo in zip(members, q, low) if lo])
            stay = [not lo for lo in low]
            members = list(compress(members, stay))
            g = list(compress(g, stay))
            q = list(compress(q, stay))
            gq = list(compress(gq, stay))
    out = np.array(rates)
    out[np.isinf(out)] = 0.0
    return out


def adaptive_waterfill(
    problem: Problem,
    max_iterations: int = 10,
    inner: str = "approx",
    theta_tol: float = THETA_CONVERGENCE,
) -> AllocatorReport:
    """Iterate waterfilling with path weights theta_k^p updated to last
    round's rate proportions: theta(t+1) = f_k^p(t) / sum_p f_k^p(t).

    Stops when the largest theta change drops to theta_tol (default 1e-6) or
    at max_iterations; non-convergence is flagged in the report, not an
    error.  Demands with zero total rate keep their previous theta (the
    update is undefined there).  The subdemand incidence is built once; each
    round rescales its weights in place.

    ``notes["theta_trace"]`` is ``{"columns": matrix.columns, "theta": T,
    "rates": R}``, where row t - 1 of the 2-D arrays holds iteration t.
    """
    return _adaptive(problem, build_subdemands(problem), max_iterations, inner, theta_tol)


def _adaptive(
    problem: Problem,
    compiled: tuple[SubdemandMatrix, np.ndarray],
    max_iterations: int,
    inner: str = "approx",
    theta_tol: float = THETA_CONVERGENCE,
) -> AllocatorReport:
    """`adaptive_waterfill` on the problem's `build_subdemands` result,
    whose ``gamma`` it overwrites."""
    if max_iterations < 1:
        raise ValueError("iterations must be >= 1")
    if inner not in ("exact", "approx"):
        raise ValueError(f"unknown inner waterfiller {inner!r}")
    fill = single_path_waterfill if inner == "exact" else approx_waterfill

    matrix, caps = compiled
    theta = _even_split(matrix.owner)
    thetas, flows = [], []
    for _ in range(max_iterations):
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
