"""Backend-neutral linear programs, a deterministic dense simplex solver and
a pluggable backend seam.  The module knows nothing of the allocation
model: the allocators (``optimizers``) turn a problem into LP rows.

Every LP has one shape: nonnegative columns, each with an optional upper
bound, linear rows, and an objective that is maximised.  A column is its
index: `add_variable` returns it, and rows, the objective and a solution's
values are keyed or ordered by it.  Every solve goes through one standard
form: `_standard_form` validates a `LinearProgram` once (column keys, upper
bounds, and finite coefficients, right-hand sides and objective) and lays
it out as dense arrays (`A`, relations, `b`, `c`, upper bounds) in column
and constraint order.  The built-in simplex, the scipy HiGHS backend and
the solution check all work on those arrays.  Both backends return optimal
row duals in one sign convention.

The built-in solver is a dense two-phase primal simplex on one tableau
whose last column is b, so a pivot or a bound flip is one operation on
whole rows: upper bounds stay column bounds (bounded-variable simplex), a
crash start covers zero-rhs rows without artificials, and the largest
reduced cost enters, with Bland's rule as the anti-cycling fallback after a
run of degenerate pivots.  It is deterministic: solving the same program
twice yields bit-identical values.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Protocol

import numpy as np

__all__ = [
    "Constraint",
    "LinearProgram",
    "LpSolution",
    "SimplexError",
    "SimplexBackend",
    "ScipyBackend",
    "SolveSession",
]

PIVOT_TOL = 1e-9
OPT_TOL = 1e-12  # a reduced cost <= OPT_TOL * max(1, max|z|) counts as zero


@dataclass(frozen=True)
class Constraint:
    """A row: column index -> coefficient, a relation and a right-hand side.
    The name only labels the row in error messages."""

    coeffs: Mapping[int, float]
    relation: str  # "<=", "==" or ">="
    rhs: float
    name: str = ""

    def __post_init__(self):
        if self.relation not in ("<=", "==", ">="):
            raise ValueError(f"bad relation {self.relation!r}")
        object.__setattr__(self, "coeffs", dict(self.coeffs))


@dataclass
class LinearProgram:
    """A named LP: nonnegative columns, linear constraints, and a linear
    objective (column index -> coefficient) to maximise.  ``variables`` holds
    each column's upper bound (None: unbounded above).  Treated as immutable
    once handed to a solver."""

    name: str = "lp"
    variables: list[float | None] = field(default_factory=list)
    constraints: list[Constraint] = field(default_factory=list)
    objective: dict[int, float] = field(default_factory=dict)

    def add_variable(self, *, upper: float | None = None) -> int:
        """Append a column x >= 0 (x <= upper unless that is None); returns
        its index."""
        self.variables.append(upper)
        return len(self.variables) - 1

    def add_constraint(
        self,
        coeffs: Mapping[int, float],
        relation: str,
        rhs: float,
        name: str = "",
    ) -> None:
        self.constraints.append(Constraint(coeffs, relation, rhs, name))

    def validate(self) -> None:
        """Reject an upper bound that is negative or NaN, any key that is not
        a column, an int in [0, n) (numpy would wrap -1 to the last column),
        and a coefficient, right-hand side or objective entry that is not
        finite (a NaN fails every comparison the simplex makes, so it would
        come back as a wrong status, not an error)."""
        for j, upper in enumerate(self.variables):
            if upper is not None and not upper >= 0:
                what = "a negative" if upper < 0 else "a NaN"
                raise ValueError(f"{self.name}: column {j} has {what} upper bound")
        n = len(self.variables)
        total = 0.0  # finite when every entry is, unless it overflows
        for c in self.constraints:
            for j in c.coeffs:
                if type(j) is not int or not 0 <= j < n:
                    raise ValueError(f"{self.name}: constraint uses unknown column {j!r}")
            total += c.rhs + sum(c.coeffs.values())
        for j in self.objective:
            if type(j) is not int or not 0 <= j < n:
                raise ValueError(f"{self.name}: objective uses unknown column {j!r}")
        total += sum(self.objective.values())
        if not math.isfinite(total):
            for i, c in enumerate(self.constraints):
                if not all(map(math.isfinite, [c.rhs, *c.coeffs.values()])):
                    raise ValueError(
                        f"{self.name}: constraint {c.name or i} has a non-finite "
                        f"coefficient or right-hand side"
                    )
            if not all(map(math.isfinite, self.objective.values())):
                raise ValueError(f"{self.name}: objective has a non-finite coefficient")


@dataclass(frozen=True)
class LpSolution:
    """When optimal, ``values`` holds x per column, in column order (empty
    otherwise), and ``duals`` an optimal dual per constraint, in order:
    d objective / d rhs (so >= 0 on a "<=" row, <= 0 on a ">=" row, and 0 on
    a slack row).  ``iterations`` is the backend's work count: simplex pivots
    plus bound flips for the built-in solver, HiGHS's iteration count for the
    scipy backend."""

    status: str  # "optimal", "infeasible" or "unbounded"
    values: list[float]
    objective: float
    duals: tuple[float, ...] = ()
    iterations: int = 0

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


class SimplexError(RuntimeError):
    """Numeric failure inside the built-in solver (names the offending LP)."""


# -- standard form --------------------------------------------------------------

_RELATION_SIGN = {"<=": 1, "==": 0, ">=": -1}


class _StandardForm(NamedTuple):
    """Dense arrays of a validated LP, rows in constraint order and columns
    in column order: `A x (relations) b`, `0 <= x <= upper`, maximize
    `c x`."""

    A: np.ndarray
    relations: np.ndarray  # per row: 1 for "<=", 0 for "==", -1 for ">="
    b: np.ndarray
    c: np.ndarray
    upper: np.ndarray  # +inf where unbounded above


def _standard_form(lp: LinearProgram) -> _StandardForm:
    """Validate `lp` and translate it to arrays."""
    lp.validate()
    cons = lp.constraints
    A = np.zeros((len(cons), len(lp.variables)))
    rows = np.repeat(np.arange(len(cons)), [len(con.coeffs) for con in cons])
    A[rows, [j for con in cons for j in con.coeffs]] = [
        a for con in cons for a in con.coeffs.values()
    ]
    c = np.zeros(len(lp.variables))
    c[list(lp.objective)] = list(lp.objective.values())
    return _StandardForm(
        A,
        np.array([_RELATION_SIGN[con.relation] for con in cons], dtype=int),
        np.array([con.rhs for con in cons], dtype=float),
        c,
        np.array([np.inf if u is None else u for u in lp.variables]),
    )


def _optimal(
    lp: LinearProgram, x: np.ndarray, duals: np.ndarray, iterations: int
) -> LpSolution:
    values = x.tolist()
    obj = sum(a * values[j] for j, a in lp.objective.items())
    return LpSolution("optimal", values, float(obj), tuple(duals.tolist()), iterations)


# -- built-in solver ----------------------------------------------------------

DEGENERATE_RUN = 50  # consecutive degenerate pivots before Bland's rule takes over


def _pivot(T: np.ndarray, r: int, j: int) -> None:
    """Make T[r, j] a unit pivot and eliminate column j from the other rows
    (only the rows with a nonzero there change).  The right-hand side is T's
    last column, so it is eliminated along with the rest of each row."""
    T[r] /= T[r, j]
    rows = T[:, j].nonzero()[0]
    rows = rows[rows != r]
    T[rows] -= T[rows, j][:, None] * T[r]


def _crash(T: np.ndarray, basis: np.ndarray, rows: np.ndarray, ncols: int) -> None:
    """Give `rows` (rows with b = 0) structural basic columns by block
    pivots.  Each pass picks, for each remaining row, its largest entry among
    the columns that are nonzero in no other remaining row: that block is
    diagonal, so one elimination pivots it, and b, zero on those rows, does
    not change (`T` holds the tableau without b).  Rows that find no such
    column keep their artificials."""
    left = rows
    while left.size:
        sub = T[left, :ncols]
        nz = sub != 0.0
        single = nz.sum(axis=0) == 1
        mag = np.where(nz & single, np.abs(sub), 0.0)
        best = np.argmax(mag, axis=1)
        got = mag[np.arange(left.size), best] > PIVOT_TOL
        if not got.any():
            return
        P, J = left[got], best[got]
        T[P] /= T[P, J][:, None]
        hit = np.flatnonzero(np.any(T[:, J] != 0.0, axis=1))
        hit = hit[~np.isin(hit, P)]
        T[hit] -= T[hit][:, J] @ T[P]
        T[np.ix_(hit, J)] = 0.0
        basis[P] = J
        left = left[~got]


def _simplex_core(
    sf: _StandardForm, name: str
) -> tuple[str, np.ndarray | None, np.ndarray | None, int]:
    """Two-phase dense tableau simplex over `A x (rel) b, 0 <= x <= u`.

    The tableau's last column is b, so a pivot or a bound flip is one
    operation on whole rows.

    A finite upper bound stays a column bound (bounded-variable simplex): a
    nonbasic column sits at 0 or at its bound, kept as the complement u - x,
    so the ratio test also stops a basic column at its bound, and an entering
    column that reaches its own bound first flips there without a pivot.
    Each row's basic upper bound is kept in an array that follows the basis.

    Crash start: a row with b < 0 is negated, and so is a ">=" row with
    b = 0, which then starts on its slack; "==" rows with b = 0 take
    structural columns by `_crash`.  Rows are negated in the tableau and in
    new arrays, never in `sf`, which the solution check reads afterwards.
    Only the rows left over start on artificials, and phase 1 maximises minus
    their sum.  The phase-2 objective row rides along in phase 1, so no
    pricing-out pass is needed.

    Pricing is Dantzig's: the largest reduced cost enters.  After
    DEGENERATE_RUN consecutive degenerate steps Bland's rule (lowest index
    enters) takes over until a step makes progress.  Ties in the ratio test
    always go to the lowest basic index, so every choice is deterministic.

    Returns the status, x in column order and the duals y of `sf`'s rows
    when optimal, and the number of pivots plus bound flips.  The duals are
    read from the phase-2 reduced costs z = c - y^T A: a row's artificial (or
    a "<=" row's slack) column is e_i with cost 0 and is never complemented,
    so z there is -y_i.  Negated rows' duals change sign back."""
    ncols = len(sf.c)
    flip = (sf.b < 0.0) | ((sf.b == 0.0) & (sf.relations == -1))
    rel = np.where(flip, -sf.relations, sf.relations)

    m = len(sf.b)
    slack_rows = np.nonzero(rel != 0)[0]
    art_rows = np.nonzero(rel != 1)[0]
    n_slack = len(slack_rows)
    slack_cols = ncols + np.arange(n_slack)
    art_cols = ncols + n_slack + np.arange(len(art_rows))
    lim = ncols + n_slack  # columns that may enter: artificials never do
    width = lim + len(art_rows)
    ub = np.full(width, np.inf)
    ub[:ncols] = sf.upper
    has_ub = bool(np.isfinite(ub).any())
    flipped = np.zeros(width, dtype=bool)  # column holds u - x

    # rows 0..m-1: constraints; m: phase-2 reduced costs; m+1: phase-1
    # reduced costs, dropped after phase 1.  Columns 0..width-1: structural,
    # slack and artificial columns; the last: b (-objective in row m).
    T = np.zeros((m + 2, width + 1))
    T[:m, :ncols] = sf.A
    T[:m, width] = sf.b
    T[:m][flip] *= -1.0
    T[slack_rows, slack_cols] = rel[slack_rows]
    T[art_rows, art_cols] = 1.0
    T[m, :ncols] = sf.c
    b = T[:, width]
    basis = np.empty(m, dtype=int)
    basis[slack_rows] = slack_cols
    basis[art_rows] = art_cols  # a ">=" row starts on its artificial
    _crash(T[:, :width], basis, art_rows[(rel[art_rows] == 0) & (b[art_rows] == 0.0)], ncols)
    # phase 1 maximises minus the leftover artificials, priced out on the basis
    left = np.nonzero(basis >= lim)[0]
    T[m + 1, :width] = T[left, :width].sum(axis=0)
    T[m + 1, basis[left]] = 0.0
    b[m + 1] = b[left].sum()
    ub_basic = ub[basis]
    max_iter = max(5000, 200 * (m + width))
    steps = 0
    # ratio-test buffers, one entry per row
    down, up = np.empty(m, dtype=bool), np.empty(m, dtype=bool)
    room, mag, ratio = np.empty(m), np.empty(m), np.empty(m)

    @np.errstate(over="ignore")  # an inf ratio: no limit; _check_solution catches a bad pivot
    def run(T: np.ndarray) -> bool:
        """Pivot on the tableau whose last row holds the reduced costs until
        it is optimal (True) or unbounded (False); raises on the iteration
        cap."""
        nonlocal steps
        z = T[-1, :lim]
        bm = T[:m, width]
        # Scales with the largest reduced cost, well above float noise, but is
        # not below every level an allocator sets: `gb`'s default epsilon puts
        # its last bin at 1.01e-12, which counts as zero once max|z| >= 1.01.
        tol_opt = OPT_TOL * max(1.0, float(np.max(np.abs(z), initial=0.0)))
        degenerate = 0
        for _ in range(max_iter):
            if degenerate < DEGENERATE_RUN:
                j = int(z.argmax())
                if z[j] <= tol_opt:
                    return True
            else:
                cand = np.flatnonzero(z > tol_opt)
                if cand.size == 0:
                    return True
                j = int(cand[0])
            # A row that cannot limit the step keeps ratio inf: a row with
            # col <= PIVOT_TOL and no finite bound to reach.
            col = T[:m, j]
            ratio.fill(np.inf)
            np.greater(col, PIVOT_TOL, out=down)
            if has_ub:
                np.less(col, -PIVOT_TOL, out=up)
                np.subtract(ub_basic, bm, out=room)  # col < 0: room up to the bound
                np.copyto(room, bm, where=down)  # col > 0: room down to 0
                np.maximum(room, 0.0, out=room)
                np.abs(col, out=mag)
                np.logical_or(down, up, out=up)
                np.divide(room, mag, out=ratio, where=up)
            else:
                np.divide(bm, col, out=ratio, where=down)
            step = float(ratio.min(initial=np.inf))
            if ub[j] <= step and ub[j] < np.inf:  # the entering column reaches its bound
                step = ub[j]
                T[:, width] -= step * T[:, j]
                T[:, j] *= -1.0
                flipped[j] = not flipped[j]
            elif step == np.inf:
                return False
            else:
                near = (ratio <= step + 1e-12 * max(1.0, abs(step))).nonzero()[0]
                r = int(near[basis[near].argmin()])
                if col[r] < 0.0:  # the basic column leaves at its bound
                    k = basis[r]
                    T[r] *= -1.0
                    T[r, k] = 1.0
                    T[r, width] += ub[k]  # b[r] = u_k - b[r]
                    flipped[k] = not flipped[k]
                _pivot(T, r, j)
                basis[r] = j
                ub_basic[r] = ub[j]
            steps += 1
            bm[(bm < 0.0) & (bm > -1e-11)] = 0.0
            degenerate = 0 if step > 1e-12 else degenerate + 1
        raise SimplexError(
            f"simplex iteration cap exceeded on LP {name!r} ({m} rows, {width} cols)"
        )

    if left.size:
        run(T)
        if b[m + 1] > 1e-7 * max(1.0, float(np.max(b[:m]))):
            return "infeasible", None, None, steps
        # Drive leftover artificials out of the basis where possible.  Any
        # non-artificial column works (slack columns included: a row whose
        # structural part was eliminated can still constrain the slack
        # space); a row with no such column is genuinely redundant.
        for i in np.nonzero(basis >= lim)[0]:
            nz = np.where(np.abs(T[i, :lim]) > PIVOT_TOL)[0]
            if nz.size:
                _pivot(T, i, int(nz[0]))
                basis[i] = nz[0]
                ub_basic[i] = ub[nz[0]]
                steps += 1
    T = T[: m + 1]
    if not run(T):
        return "unbounded", None, None, steps

    x = np.zeros(width)
    x[basis] = b[:m]
    x[flipped] = ub[flipped] - x[flipped]
    unit = np.empty(m, dtype=int)  # per row, a column equal to e_i at the start
    unit[slack_rows] = slack_cols
    unit[art_rows] = art_cols
    z2 = T[m, :width]
    duals = np.where(flip, z2[unit], -z2[unit])
    return "optimal", x[:ncols], duals, steps


def _check_solution(lp: LinearProgram, sf: _StandardForm, x: np.ndarray) -> None:
    """Guard against silent numeric corruption: an 'optimal' answer must
    actually satisfy the bounds and the constraints."""
    scale = max(1.0, np.max(np.abs(sf.b), initial=0), np.max(np.abs(sf.A), initial=0))
    tol = 1e-6 * scale
    out = np.nonzero((x < -tol) | (x > sf.upper + tol))[0]
    if out.size:
        j = out[0]
        side = "below bound 0.0" if x[j] < 0 else f"above bound {lp.variables[j]}"
        raise SimplexError(f"{lp.name}: column {j} = {x[j]} {side}")
    lhs = sf.A @ x
    gap = lhs - sf.b
    ok = np.where(sf.relations == 0, np.abs(gap), sf.relations * gap) <= tol
    if not ok.all():
        i = int(np.argmin(ok))
        c = lp.constraints[i]
        raise SimplexError(
            f"{lp.name}: constraint {c.name or c.relation} violated ({lhs[i]} vs {c.rhs})"
        )


class LpBackend(Protocol):  # pragma: no cover - typing seam
    def solve(self, lp: LinearProgram) -> LpSolution: ...


class SimplexBackend:
    """The built-in deterministic solver."""

    def solve(self, lp: LinearProgram) -> LpSolution:
        sf = _standard_form(lp)
        status, x, duals, iterations = _simplex_core(sf, lp.name)
        if status != "optimal":
            return LpSolution(status, [], float("nan"), iterations=iterations)
        _check_solution(lp, sf, x)
        return _optimal(lp, x, duals, iterations)


class ScipyBackend:
    """Optional external backend (scipy HiGHS) behind the same seam.

    The acceptance suite never needs it; it exists for cross-checking and as
    the plug-in example for a high-performance solver.
    """

    def solve(self, lp: LinearProgram) -> LpSolution:
        from scipy.optimize import linprog

        sf = _standard_form(lp)
        ub = sf.relations != 0  # ">=" rows enter negated
        eq = ~ub
        res = linprog(
            -sf.c,  # linprog minimizes
            A_ub=sf.A[ub] * sf.relations[ub, None] if ub.any() else None,
            b_ub=sf.b[ub] * sf.relations[ub] if ub.any() else None,
            A_eq=sf.A[eq] if eq.any() else None,
            b_eq=sf.b[eq] if eq.any() else None,
            bounds=np.column_stack((np.zeros_like(sf.upper), sf.upper)),
            method="highs",
        )
        iterations = int(res.nit)
        if res.status == 2:
            return LpSolution("infeasible", [], float("nan"), iterations=iterations)
        if res.status == 3:
            return LpSolution("unbounded", [], float("nan"), iterations=iterations)
        if not res.success:
            raise SimplexError(f"scipy backend failed on {lp.name!r}: {res.message}")
        _check_solution(lp, sf, res.x)
        # marginals are d(min -c x)/d(rhs) of linprog's rows; ">=" rows went
        # in negated
        duals = np.empty(len(sf.b))
        duals[ub] = -sf.relations[ub] * res.ineqlin.marginals
        duals[eq] = -res.eqlin.marginals
        return _optimal(lp, res.x, duals, iterations)


class SolveSession:
    """Counts LP solves; the count is the hardware-independent cost metric
    the benchmark reports.

    Thread-safe: concurrent allocator runs may share a session (each
    report's lp_solves then also counts the solves of runs it overlapped).
    """

    def __init__(self, backend: LpBackend | None = None):
        self._backend = backend or SimplexBackend()
        self._count = 0
        self._lock = threading.Lock()

    def solve(self, lp: LinearProgram) -> LpSolution:
        with self._lock:
            self._count += 1
        return self._backend.solve(lp)

    @property
    def count(self) -> int:
        return self._count
