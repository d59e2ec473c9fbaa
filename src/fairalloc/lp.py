"""Backend-neutral linear programs, a deterministic dense simplex solver and
a pluggable backend seam.  The module knows nothing of the allocation
model: the allocators (``optimizers``) turn a problem into LP rows.

Every LP has one shape: nonnegative columns, each with an optional upper
bound, linear rows, and an objective that is maximised.  The objective is a
list of levels, highest priority first: level 1 is maximised, then level 2
over level 1's optima, and so on (a lexicographic objective); a
single-level LP is a one-element list.  A column is its index:
`add_variable` returns it, and rows, the objective levels and a solution's
values are keyed or ordered by it.  Every solve goes through one standard
form: `_standard_form` is the only pass over a `LinearProgram`'s entries.
It lays the LP out as dense arrays (`A`, relations, `b`, one row of `c` per
level, upper bounds) in column and constraint order, and checks the
column keys, the upper bounds, and that coefficients, right-hand sides and
objective are finite on the way.  The built-in simplex, the scipy HiGHS
backend and the solution check all work on those arrays.  Both backends
return optimal row duals in one sign convention, for single-level LPs
only: a multi-level solution carries none.

`SolveSession` is the allocators' seam to a backend and keeps no state:
an allocator's report counts the LPs it solved itself.

The built-in solver is a dense two-phase primal simplex on one tableau
whose last column is b, so a pivot or a bound flip is one operation on
whole rows: upper bounds stay column bounds (bounded-variable simplex), a
crash start covers zero-rhs rows without artificials, and the largest
reduced cost enters, with Bland's rule as the anti-cycling fallback after a
run of degenerate pivots.  After each level it blocks the columns whose
entry would lower that level and prices the next level out on the same
basis.  It is deterministic: solving the same program twice yields
bit-identical values.

A solve may start from a basis.  `LpSolution.basis` is the built-in
solver's optimal basis, one entry per basic position: a column index
j < ncols, or ncols + i for row i's own unit column (its slack if it has
one, otherwise its artificial).  `SimplexBackend.solve(lp, start)` and
`SolveSession.solve(lp, start)` take such a basis for an LP with the same
columns and rows, typically the next LP of a sequence: the simplex
refactors the tableau on it, with every other column at 0, and goes
straight to phase 2 when that point is feasible; a singular, non-finite or
infeasible start falls back to the cold start.  Every backend's ``solve``
takes a start; `ScipyBackend` ignores it and returns no basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Protocol, Sequence

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
LEVEL_TOL = 1e-9  # a solved level's reduced cost below -LEVEL_TOL * max|c| blocks its column


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
    """A named LP: nonnegative columns, linear constraints, and an objective
    to maximise lexicographically: a list of levels, highest priority first,
    each a linear form (column index -> coefficient).  ``variables`` holds
    each column's upper bound (None: unbounded above).  Treated as immutable
    once handed to a solver."""

    name: str = "lp"
    variables: list[float | None] = field(default_factory=list)
    constraints: list[Constraint] = field(default_factory=list)
    objective: list[dict[int, float]] = field(default_factory=lambda: [{}])

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


@dataclass(frozen=True)
class LpSolution:
    """When optimal, ``values`` holds x per column, in column order (empty
    otherwise), ``objective`` the first level's value, and ``duals`` of a
    single-level LP an optimal dual per constraint, in order: d objective /
    d rhs (so >= 0 on a "<=" row, <= 0 on a ">=" row, and 0 on a slack row);
    a multi-level LP's are empty.  ``iterations`` is the backend's work
    count: simplex pivots plus bound flips for the built-in solver, HiGHS's
    iteration count, summed over the levels, for the scipy backend.
    ``basis`` is the built-in solver's optimal basis, one entry per basic
    position: a column j < ncols, or ncols + i for row i's own unit column
    (its slack if it has one, otherwise its artificial).  It can start an LP
    with the same columns and rows (see the module docstring); the scipy
    backend leaves it empty."""

    status: str  # "optimal", "infeasible" or "unbounded"
    values: list[float]
    objective: float
    duals: tuple[float, ...] = ()
    iterations: int = 0
    basis: tuple[int, ...] = ()

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
    `c[0] x`, then `c[1] x`, ... (one row of `c` per objective level)."""

    A: np.ndarray
    relations: np.ndarray  # per row: 1 for "<=", 0 for "==", -1 for ">="
    b: np.ndarray
    c: np.ndarray  # levels x columns
    upper: np.ndarray  # +inf where unbounded above


def _columns(lp: LinearProgram, keys: list, where: str) -> list:
    """`keys`, each checked to be a column: an int in [0, n) (numpy would
    wrap -1 to the last column)."""
    n = len(lp.variables)
    if keys and (set(map(type, keys)) != {int} or min(keys) < 0 or max(keys) >= n):
        bad = next(j for j in keys if type(j) is not int or not 0 <= j < n)
        raise ValueError(f"{lp.name}: {where} uses unknown column {bad!r}")
    return keys


def _standard_form(lp: LinearProgram) -> _StandardForm:
    """Check `lp` and lay it out as arrays, in one pass over its entries.
    It refuses an upper bound that is negative or NaN, a key that is not a
    column, a coefficient, right-hand side or objective entry that is not
    finite (a NaN fails every comparison the simplex makes, so it would come
    back as a wrong status, not an error), and an objective without a
    level."""
    cons, levels = lp.constraints, lp.objective
    upper = np.array([np.inf if u is None else u for u in lp.variables], dtype=float)
    bad = np.flatnonzero(~(upper >= 0))
    if bad.size:
        what = "a negative" if upper[bad[0]] < 0 else "a NaN"
        raise ValueError(f"{lp.name}: column {bad[0]} has {what} upper bound")
    cols = _columns(lp, [j for con in cons for j in con.coeffs], "constraint")
    if not levels:
        raise ValueError(f"{lp.name}: objective has no level")
    level_cols = _columns(lp, [j for level in levels for j in level], "objective")

    rows = np.repeat(np.arange(len(cons)), [len(con.coeffs) for con in cons])
    coeffs = np.array([a for con in cons for a in con.coeffs.values()], dtype=float)
    b = np.array([con.rhs for con in cons], dtype=float)
    bad_row = ~np.isfinite(b)
    bad_row[rows[~np.isfinite(coeffs)]] = True
    if bad_row.any():
        i = int(bad_row.argmax())
        raise ValueError(
            f"{lp.name}: constraint {cons[i].name or i} has a non-finite "
            f"coefficient or right-hand side"
        )
    level_coeffs = np.array([a for level in levels for a in level.values()], dtype=float)
    if not np.isfinite(level_coeffs).all():
        raise ValueError(f"{lp.name}: objective has a non-finite coefficient")

    A = np.zeros((len(cons), len(upper)))
    A[rows, cols] = coeffs
    c = np.zeros((len(levels), len(upper)))
    level_of = np.repeat(np.arange(len(levels)), [len(level) for level in levels])
    c[level_of, level_cols] = level_coeffs
    relations = np.array([_RELATION_SIGN[con.relation] for con in cons], dtype=int)
    return _StandardForm(A, relations, b, c, upper)


def _optimal(
    lp: LinearProgram,
    x: np.ndarray,
    duals: np.ndarray | None,
    iterations: int,
    basis: np.ndarray | None = None,
) -> LpSolution:
    """The optimal solution; `duals` is None for a multi-level LP."""
    values = x.tolist()
    obj = sum(a * values[j] for j, a in lp.objective[0].items())
    return LpSolution(
        "optimal",
        values,
        float(obj),
        () if duals is None else tuple(duals.tolist()),
        iterations,
        () if basis is None else tuple(basis.tolist()),
    )


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


def _refactor(
    T: np.ndarray, cols: np.ndarray, ub: np.ndarray, lim: int, ncols: int, entry: np.ndarray
) -> bool:
    """Make `cols` (one tableau column per row) the basis of the fresh
    tableau `T`, every other column at 0, and price the phase-2 row out on
    it.  A basic unit column (`entry` names its row i as ncols + i) covers
    its row, so only the k rows it leaves to the k basic structural columns
    need a dense solve: one `np.linalg.solve` by that k x k block turns
    those rows, b included, into the structural positions of B^-1 T, and
    each covered row then gives its unit column's position by substitution.

    Returns False, with `T` untouched, when the basis is singular or
    ill-conditioned (a repeated column, two unit columns of one row, the
    block's B^-1 B not the identity within 1e-9), non-finite, or its point
    is infeasible: a basic value below 0 or above its column's bound, or an
    artificial column above 0.  Values within 1e-9 of the scale of b are
    rounded onto their bound."""
    m = len(cols)
    is_unit = cols >= ncols
    struct, units = np.flatnonzero(~is_unit), np.flatnonzero(is_unit)
    covered = entry[cols[units]] - ncols
    free = np.ones(m, dtype=bool)  # rows left to the structural columns
    free[covered] = False
    seen = np.zeros(T.shape[1], dtype=bool)
    seen[cols] = True
    if np.count_nonzero(seen) < m or np.count_nonzero(free) != struct.size:
        return False
    T0, sc, rows = T[:m], cols[struct], T[:m][free]
    try:
        Xs = np.linalg.solve(rows[:, sc], rows)
    except np.linalg.LinAlgError:
        return False
    if not np.isfinite(Xs).all() or np.abs(Xs[:, sc] - np.eye(sc.size)).max(initial=0.0) > 1e-9:
        return False
    X = np.empty_like(T0)
    X[struct] = Xs
    Tc = T0[covered]
    X[units] = (Tc - Tc[:, sc] @ Xs) * T0[covered, cols[units]][:, None]  # a unit's sign, +-1
    xb, top, art = X[:, -1], ub[cols], cols >= lim
    tol = 1e-9 * max(1.0, float(np.abs(T0[:, -1]).max(initial=0.0)))
    if (xb < -tol).any() or (xb > top + tol).any() or (xb[art] > tol).any():
        return False
    np.clip(xb, 0.0, top, out=xb)
    xb[art] = 0.0
    X[:, cols] = np.eye(m)
    T[:m] = X
    T[m] -= T[m, cols] @ X
    T[m, cols] = 0.0
    return True


def _simplex_core(
    sf: _StandardForm, name: str, start: Sequence[int] | None = None
) -> tuple[str, np.ndarray | None, np.ndarray | None, int, np.ndarray | None]:
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

    Warm start: `_refactor` makes `start` (a basis in `LpSolution.basis`'s
    terms) the tableau's basis, all other columns at 0; where it cannot, the
    cold start above runs on the same tableau.  A warm basis skips phase 1:
    its artificials are at 0, and they are driven out as after phase 1.

    Pricing is Dantzig's: the largest reduced cost enters.  After
    DEGENERATE_RUN consecutive degenerate steps Bland's rule (lowest index
    enters) takes over until a step makes progress.  Ties in the ratio test
    always go to the lowest basic index, so every choice is deterministic.

    Levels: phase 2 maximises `sf.c[0]`.  At a level's optimum, every
    nonbasic column whose reduced cost is below -LEVEL_TOL times the level's
    largest coefficient is blocked: entering it would lower that level.
    The next level is priced out on the same basis, with each blocked
    column's reduced cost at -inf so that it never enters, and phase 2
    continues.  Levels stop once every nonbasic column is blocked.

    Returns the status, x in column order and, for a single-level LP, the
    duals y of `sf`'s rows when optimal (None otherwise), the number of
    pivots plus bound flips, and the optimal basis in `start`'s terms.  The
    duals are read from the phase-2 reduced costs z = c - y^T A: a row's
    artificial (or a "<=" row's slack) column is e_i with cost 0 and is never
    complemented, so z there is -y_i.  Negated rows' duals change sign
    back."""
    ncols = sf.c.shape[1]
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
    T[m, :ncols] = sf.c[0]
    b = T[:, width]
    unit = np.empty(m, dtype=int)  # per row, a column equal to e_i at the start
    unit[slack_rows] = slack_cols
    unit[art_rows] = art_cols
    entry = np.empty(width, dtype=int)  # each column as a basis entry
    entry[:ncols] = np.arange(ncols)
    entry[art_cols] = ncols + art_rows
    entry[slack_cols] = ncols + slack_rows
    phase1 = False
    if start is not None:
        start = np.asarray(start, dtype=np.intp)
        if start.shape != (m,) or not ((start >= 0) & (start < ncols + m)).all():
            raise ValueError(f"{name}: a start basis is {m} entries in [0, {ncols + m})")
        column = np.empty(ncols + m, dtype=int)  # each entry's tableau column
        column[:ncols] = np.arange(ncols)
        column[ncols + art_rows] = art_cols
        column[ncols + slack_rows] = slack_cols  # a row's slack before its artificial
        basis = column[start]
    if start is None or not _refactor(T, basis, ub, lim, ncols, entry):
        basis = unit.copy()  # a ">=" row starts on its artificial
        _crash(T[:, :width], basis, art_rows[(rel[art_rows] == 0) & (b[art_rows] == 0.0)], ncols)
        # phase 1 maximises minus the leftover artificials, priced out on the basis
        left = np.nonzero(basis >= lim)[0]
        T[m + 1, :width] = T[left, :width].sum(axis=0)
        T[m + 1, basis[left]] = 0.0
        b[m + 1] = b[left].sum()
        phase1 = left.size > 0
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
        # scales with the largest reduced cost, well above float noise; a
        # blocked column's -inf is no scale
        tol_opt = OPT_TOL * max(1.0, float(np.max(np.abs(z), initial=0.0, where=z > -np.inf)))
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

    if phase1:
        run(T)
        if b[m + 1] > 1e-7 * max(1.0, float(np.max(b[:m]))):
            return "infeasible", None, None, steps, None
    # Drive leftover artificials out of the basis where possible.  Any
    # non-artificial column works (slack columns included: a row whose
    # structural part was eliminated can still constrain the slack space); a
    # row with no such column is genuinely redundant.
    for i in np.nonzero(basis >= lim)[0]:
        nz = np.where(np.abs(T[i, :lim]) > PIVOT_TOL)[0]
        if nz.size:
            _pivot(T, i, int(nz[0]))
            basis[i] = nz[0]
            ub_basic[i] = ub[nz[0]]
            steps += 1
    T = T[: m + 1]
    if not run(T):
        return "unbounded", None, None, steps, None
    duals = None
    if len(sf.c) == 1:
        z2 = T[m, :width]
        duals = np.where(flip, z2[unit], -z2[unit])
    z = T[m, :lim]
    blocked = np.zeros(lim, dtype=bool)  # never basic: a basic column's z is 0
    cost = np.zeros(width + 1)
    tols = LEVEL_TOL * np.abs(sf.c).max(axis=1, initial=0.0)
    for tol, c in zip(tols, sf.c[1:]):
        blocked |= z < -tol
        if np.count_nonzero(blocked) + np.count_nonzero(basis < lim) == lim:
            break  # no column is left to move
        cost[:ncols] = np.where(flipped[:ncols], -c, c)  # a flipped column holds u - x
        T[m] = cost - cost[basis] @ T[:m]
        z[blocked] = -np.inf
        if not run(T):
            return "unbounded", None, None, steps, None

    x = np.zeros(width)
    x[basis] = b[:m]
    x[flipped] = ub[flipped] - x[flipped]
    return "optimal", x[:ncols], duals, steps, entry[basis]


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
    def solve(self, lp: LinearProgram, start: Sequence[int] | None = None) -> LpSolution: ...


class SimplexBackend:
    """The built-in deterministic solver.  ``start``, a basis in the terms of
    ``LpSolution.basis``, is tried first; see `_simplex_core`."""

    def solve(self, lp: LinearProgram, start: Sequence[int] | None = None) -> LpSolution:
        sf = _standard_form(lp)
        status, x, duals, iterations, basis = _simplex_core(sf, lp.name, start)
        if status != "optimal":
            return LpSolution(status, [], float("nan"), iterations=iterations)
        _check_solution(lp, sf, x)
        return _optimal(lp, x, duals, iterations, basis)


class ScipyBackend:
    """Optional external backend (scipy HiGHS) behind the same seam.

    The acceptance suite never needs it; it exists for cross-checking and as
    the plug-in example for a high-performance solver.  It solves the levels
    in sequence: each level after the first adds a ">=" row that holds the
    level before it at its optimum, less 1e-9 relative.
    """

    def solve(self, lp: LinearProgram, start: Sequence[int] | None = None) -> LpSolution:
        """Solves with HiGHS; ``start`` is ignored."""
        from scipy.optimize import linprog

        sf = _standard_form(lp)
        ub = sf.relations != 0  # ">=" rows enter negated
        eq = ~ub
        A_ub, b_ub = sf.A[ub] * sf.relations[ub, None], sf.b[ub] * sf.relations[ub]
        iterations = 0
        for level, c in enumerate(sf.c):
            if level:  # c_prev x >= opt - 1e-9 max(1, |opt|), negated
                A_ub = np.vstack([A_ub, -sf.c[level - 1]])
                b_ub = np.append(b_ub, 1e-9 * max(1.0, abs(opt)) - opt)
            res = linprog(
                -c,  # linprog minimizes
                A_ub=A_ub if len(b_ub) else None,
                b_ub=b_ub if len(b_ub) else None,
                A_eq=sf.A[eq] if eq.any() else None,
                b_eq=sf.b[eq] if eq.any() else None,
                bounds=np.column_stack((np.zeros_like(sf.upper), sf.upper)),
                method="highs",
            )
            iterations += int(res.nit)
            if res.status == 2:
                return LpSolution("infeasible", [], float("nan"), iterations=iterations)
            if res.status == 3:
                return LpSolution("unbounded", [], float("nan"), iterations=iterations)
            if not res.success:
                raise SimplexError(f"scipy backend failed on {lp.name!r}: {res.message}")
            opt = float(c @ res.x)
        _check_solution(lp, sf, res.x)
        if len(sf.c) > 1:
            return _optimal(lp, res.x, None, iterations)
        # marginals are d(min -c x)/d(rhs) of linprog's rows; ">=" rows went
        # in negated
        duals = np.empty(len(sf.b))
        duals[ub] = -sf.relations[ub] * res.ineqlin.marginals
        duals[eq] = -res.eqlin.marginals
        return _optimal(lp, res.x, duals, iterations)


class SolveSession:
    """The seam between the allocators and an LP backend (the built-in
    simplex by default): every LP an allocator solves goes through `solve`.
    It keeps no state; each allocator's report counts its own LPs."""

    def __init__(self, backend: LpBackend | None = None):
        self._backend = backend or SimplexBackend()

    def solve(self, lp: LinearProgram, start: Sequence[int] | None = None) -> LpSolution:
        return self._backend.solve(lp, start)
