"""Backend-neutral linear programs, a deterministic dense simplex solver and
a pluggable backend seam.  The module knows nothing of the allocation
model: the allocators (``optimizers``) turn a problem into LP rows.

Every LP has one shape: nonnegative columns, each with an optional upper
bound, linear rows, and an objective that is maximised.  The objective is a
list of levels, highest priority first: level 1 is maximised, then level 2
over level 1's optima, and so on (a lexicographic objective); a
single-level LP is a one-element list.  A column is its index:
`add_variable` returns it, and rows, the objective levels and a solution's
values are keyed or ordered by it.  Every cold solve goes through one
standard form: `_standard_form` lays the LP out as dense arrays (`A`,
relations, `b`, one row of `c` per level, upper bounds) in column and
constraint order, and checks the column keys, the upper bounds, and that
coefficients, right-hand sides and objective are finite on the way.  Its
rows come from `_rows`, the one pass that compiles and checks constraint
rows, cold or hot (see below).  The built-in simplex, the scipy HiGHS
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

Sequences of LPs solve hot.  The built-in solver's solution keeps its
optimal tableau, and the tableau keeps the LP it is optimal for.
`SolveSession.solve(lp, start)` solves ``lp`` from ``start``'s tableau when
``lp`` is a single-level LP that shares that LP's ``variables`` and
``objective`` objects and has its column and row counts.  Its changed rows
are the indices whose `Constraint` object is not that LP's, in ascending
order: a row is replaced, never mutated (`LinearProgram.edited` replaces
rows).  A hot edit changes right-hand sides, and coefficients only of
columns that sit at 0 outside the start basis; that is all `exact` and
`swan`, the two LP sequences, send.  `SimplexBackend` applies only the
changed rows to the tableau, in place, through B^-1.  It then pivots to
``start.basis`` (an allocator may replace it) and resumes phase 2.  Any
other start solves cold: no tableau, one used up by a hot solve that fell
back, other columns or objective, more than one level, a changed column or
row count, a changed relation, changed coefficients of a column at its
upper bound or in the start basis, a near-zero pivot, or an infeasible
point.  `LpSolution.basis` names the basis, one entry per basic position:
a column index j < ncols, or ncols + i for row i's own unit column (its
slack if it has one, otherwise its artificial).  Every backend's ``solve``
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

    def edited(self, rows: Mapping[int, Constraint], name: str) -> LinearProgram:
        """A new LP, ``name``, that is this one with the constraint at each
        index of ``rows`` replaced by its value.  It shares this LP's columns
        and objective, so a solve that starts from this LP's solution applies
        just the replaced rows (see the module docstring)."""
        constraints = list(self.constraints)
        for i, con in rows.items():
            if not 0 <= i < len(constraints):
                raise IndexError(f"{self.name}: no constraint {i} to edit")
            constraints[i] = con
        return LinearProgram(name, self.variables, constraints, self.objective)


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
    (its slack if it has one, otherwise its artificial); the scipy backend
    leaves it empty.  A basis alone starts nothing: the built-in solver's
    solution also holds its tableau in a private field, neither compared
    nor printed, and a single-level solve started from the solution edits
    that tableau (see the module docstring) and pivots to the basis, which
    the caller may replace."""

    status: str  # "optimal", "infeasible" or "unbounded"
    values: list[float]
    objective: float
    duals: tuple[float, ...] = ()
    iterations: int = 0
    basis: tuple[int, ...] = ()
    _tableau: _Tableau | None = field(default=None, compare=False, repr=False)

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


def _rows(lp: LinearProgram, indices: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The constraints of `lp` at `indices`, checked and laid out as a dense
    block over the columns (one row per index) and their right-hand sides.
    It refuses a key that is not a column, and a coefficient or right-hand
    side that is not finite: a NaN fails every comparison the simplex makes,
    so it would come back as a wrong status, not an error."""
    cons = [lp.constraints[i] for i in indices]
    cols = _columns(lp, [j for con in cons for j in con.coeffs], "constraint")
    at = np.repeat(np.arange(len(cons)), [len(con.coeffs) for con in cons])
    coeffs = np.array([a for con in cons for a in con.coeffs.values()], dtype=float)
    b = np.array([con.rhs for con in cons], dtype=float)
    bad = ~np.isfinite(b)
    bad[at[~np.isfinite(coeffs)]] = True
    if bad.any():
        k = int(bad.argmax())
        raise ValueError(
            f"{lp.name}: constraint {cons[k].name or indices[k]} has a non-finite "
            f"coefficient or right-hand side"
        )
    A = np.zeros((len(cons), len(lp.variables)))
    A[at, cols] = coeffs
    return A, b


def _standard_form(lp: LinearProgram) -> _StandardForm:
    """Check `lp` and lay it out as arrays, in one pass over its entries.
    It refuses an upper bound that is negative or NaN, a row `_rows`
    refuses, an objective without a level, and an objective key that is not
    a column or an objective entry that is not finite."""
    cons, levels = lp.constraints, lp.objective
    upper = np.array([np.inf if u is None else u for u in lp.variables], dtype=float)
    bad = np.flatnonzero(~(upper >= 0))
    if bad.size:
        what = "a negative" if upper[bad[0]] < 0 else "a NaN"
        raise ValueError(f"{lp.name}: column {bad[0]} has {what} upper bound")
    A, b = _rows(lp, range(len(cons)))
    if not levels:
        raise ValueError(f"{lp.name}: objective has no level")
    level_cols = _columns(lp, [j for level in levels for j in level], "objective")
    level_coeffs = np.array([a for level in levels for a in level.values()], dtype=float)
    if not np.isfinite(level_coeffs).all():
        raise ValueError(f"{lp.name}: objective has a non-finite coefficient")

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
    tableau: _Tableau | None = None,
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
        () if tableau is None else tuple(tableau.entry[tableau.basis].tolist()),
        tableau,
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


class _Tableau:
    """The built-in solver's state for one LP: a dense two-phase primal
    simplex tableau over `A x (rel) b, 0 <= x <= u`, and what the pivot loop
    keeps next to it.  An optimal one stays with its `LpSolution`, keeps
    the LP it is optimal for in `lp` (None until a solve succeeds, and once
    a hot solve has used it up), and can solve an edit of that LP
    (`resolve`) when the LP has one level and the edit changes right-hand
    sides, and coefficients only of columns at 0 outside the start basis.

    Rows 0..m-1 of `T` are the constraints, by basis position; row m holds
    the phase-2 reduced costs, and row m + 1, during phase 1 only, phase 1's.
    Its columns are the structural columns, a slack per row that has one, an
    artificial per row that needs one, and b last (-objective in row m), so
    a pivot or a bound flip is one operation on whole rows.

    A finite upper bound stays a column bound (bounded-variable simplex): a
    nonbasic column sits at 0 or at its bound, kept as the complement u - x,
    so the ratio test also stops a basic column at its bound, and an entering
    column that reaches its own bound first flips there without a pivot.
    Each row's basic upper bound is kept in an array that follows the basis.

    An artificial never enters: the columns that may are those below `lim`.
    A basic artificial must be at 0; after phase 1 (or a hot start) it is
    driven out of the basis where its row allows.

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

    The duals of a single-level LP are read from the phase-2 reduced costs
    z = c - y^T A: a row's unit column (its "<=" slack or its artificial,
    e_i in the tableau's start) has cost 0 and is never complemented, so z
    there is -y_i.  Negated rows' duals change sign back."""

    def __init__(self, sf: _StandardForm, name: str):
        """The tableau of `sf` before any pivot.  A row with b < 0 is
        negated, and so is a ">=" row with b = 0, which then starts on its
        slack.  Rows are negated in the tableau and in new arrays, never in
        `sf`, which the solution check reads afterwards."""
        self.sf, self.name, self.lp = sf, name, None
        ncols = sf.c.shape[1]
        self.flip = flip = (sf.b < 0.0) | ((sf.b == 0.0) & (sf.relations == -1))
        self.sign = np.where(flip, -1.0, 1.0)  # each row's sign in the tableau
        self.rel = rel = np.where(flip, -sf.relations, sf.relations)

        self.m = m = len(sf.b)
        slack_rows = np.nonzero(rel != 0)[0]
        art_rows = np.nonzero(rel != 1)[0]
        n_slack = len(slack_rows)
        slack_cols = ncols + np.arange(n_slack)
        art_cols = ncols + n_slack + np.arange(len(art_rows))
        self.ncols, self.lim = ncols, ncols + n_slack  # columns that may enter: below lim
        self.width = width = self.lim + len(art_rows)
        self.ub = np.full(width, np.inf)
        self.ub[:ncols] = sf.upper
        self.has_ub = bool(np.isfinite(sf.upper).any())
        self.flipped = np.zeros(width, dtype=bool)  # column holds u - x

        self.T = T = np.zeros((m + 2, width + 1))
        T[:m, :ncols] = sf.A
        T[:m, width] = sf.b
        T[:m][flip] *= -1.0
        T[slack_rows, slack_cols] = rel[slack_rows]
        T[art_rows, art_cols] = 1.0
        T[m, :ncols] = sf.c[0]
        self.unit = np.empty(m, dtype=int)  # per row, a column equal to e_i at the start
        self.unit[slack_rows] = slack_cols
        self.unit[art_rows] = art_cols
        # each column as a basis entry, in column order: structural, slack, artificial
        self.entry = np.concatenate((np.arange(ncols), ncols + slack_rows, ncols + art_rows))
        # each basis entry's column: a row's entry is its slack if it has one
        self.column = np.concatenate((np.arange(ncols), self.unit))
        self.column[ncols + slack_rows] = slack_cols
        self.basis = self.unit.copy()  # a ">=" row starts on its artificial
        self.steps = 0

    def solve(self) -> tuple[str, np.ndarray | None, np.ndarray | None]:
        """Solve from the cold start: "==" rows with b = 0 take structural
        columns by `_crash`, and only the rows left over start on
        artificials; phase 1 maximises minus their sum.  The phase-2
        objective row rides along in phase 1, so no pricing-out pass is
        needed.  Returns the status, x in column order and the duals (see
        `_finish`)."""
        T, m, width, b, rel = self.T, self.m, self.width, self.T[:, self.width], self.rel
        art_rows = np.flatnonzero(rel != 1)
        zero_eq = art_rows[(rel[art_rows] == 0) & (b[art_rows] == 0.0)]
        _crash(T[:, :width], self.basis, zero_eq, self.ncols)
        self.ub_basic = self.ub[self.basis]
        # phase 1 maximises minus the leftover artificials, priced out on the basis
        left = np.nonzero(self.basis >= self.lim)[0]
        if left.size:
            T[m + 1, :width] = T[left, :width].sum(axis=0)
            T[m + 1, self.basis[left]] = 0.0
            b[m + 1] = b[left].sum()
            self._run(T)
            if b[m + 1] > 1e-7 * max(1.0, float(np.max(b[:m]))):
                return "infeasible", None, None
        return self._finish()

    def resolve(self, lp: LinearProgram, start: Sequence[int]):
        """Solve `lp`, a single-level LP with the columns, objective and row
        count of the LP this tableau is optimal for, hot: apply the rows it
        replaced to the tableau, pivot to the basis `start` and resume phase
        2.  Returns `solve`'s triple, or None where `lp` has to be solved
        cold: the edit is one `_edit` does not take, a pivot to `start` is
        near zero (a repeated column meets an exact 0: a basic column is a
        unit column), or `start`'s point is infeasible.  Either way the
        tableau is used up; a successful solve makes it `lp`'s."""
        last, self.lp = self.lp, None
        m, ncols = self.m, self.ncols
        if len(start) != m or m and not (0 <= min(start) and max(start) < ncols + m):
            raise ValueError(f"{lp.name}: a start basis is {m} entries in [0, {ncols + m})")
        target = self.column[list(start)]
        if not (self._edit(lp, last.constraints, target) and self._rebase(target)):
            return None
        self.steps = 0
        return self._finish()

    def _edit(self, lp: LinearProgram, old: list[Constraint], target: np.ndarray) -> bool:
        """Apply the rows of `lp` that are not the objects in `old`, the
        tableau's LP's constraints, to the tableau and to `sf`, which then
        describe `lp` on the unchanged basis B.  An edit changes right-hand
        sides, and coefficients only of columns that sit at 0 outside the
        basis `target` (tableau columns): a change of right-hand side adds
        B^-1 db to b, and a change of coefficients adds B^-1 dA to the
        columns it touches (B^-1's columns are the rows' unit columns in the
        tableau, signed as the rows are).  Returns False, with the tableau
        untouched, for any other edit: one that changes a row's relation, or
        the coefficients of a complemented column (held at its upper bound)
        or of a column in `target`.  The changed rows are checked by
        `_rows`, as a cold solve checks them."""
        sf, T, width = self.sf, self.T, self.width
        cons = lp.constraints
        rows = np.array([i for i, con in enumerate(cons) if con is not old[i]], dtype=np.intp)
        if any(cons[i].relation != old[i].relation for i in rows):
            return False
        new, rhs = _rows(lp, rows)

        dA = new - sf.A[rows]
        stale = np.flatnonzero(dA.any(axis=0))
        if self.flipped[stale].any() or (target == stale[:, None]).any():
            return False
        # per row: its columns' changes and db, signed as the row is in T
        delta = np.column_stack((dA[:, stale], rhs - sf.b[rows])) * self.sign[rows, None]
        D = T[:, self.unit[rows]] @ delta
        T[:, width] += D[:, -1]
        T[:, stale] += D[:, :-1]
        sf.A[rows], sf.b[rows] = new, rhs
        return True

    def _rebase(self, target: np.ndarray) -> bool:
        """Pivot the edited tableau onto the basis `target` (one tableau
        column per position): one pivot per position whose column differs.
        False where a pivot is near zero, or where the basis's point is not
        finite or infeasible: a basic value below 0 or above its column's
        bound, or an artificial above 0.  Values within 1e-9 of the scale of
        b are rounded onto their bound."""
        T, basis, m = self.T, self.basis, self.m
        for r in np.flatnonzero(target != basis):
            j = target[r]
            if abs(T[r, j]) <= PIVOT_TOL:
                return False
            _pivot(T, r, j)
            basis[r] = j
        xb, top, art = T[:m, self.width], self.ub[basis], basis >= self.lim
        tol = 1e-9 * max(1.0, float(np.abs(self.sf.b).max(initial=0.0)))
        # a NaN fails both bounds
        if not ((xb >= -tol) & (xb <= top + tol)).all() or (xb[art] > tol).any():
            return False
        np.minimum(np.maximum(xb, 0.0, out=xb), top, out=xb)
        xb[art] = 0.0
        self.ub_basic = top
        return True

    @np.errstate(over="ignore")  # an inf ratio: no limit; _check_solution catches a bad pivot
    def _run(self, T: np.ndarray) -> bool:
        """Pivot on the tableau whose last row holds the reduced costs until
        it is optimal (True) or unbounded (False); raises on the iteration
        cap."""
        m, width, lim, ub = self.m, self.width, self.lim, self.ub
        basis, ub_basic, flipped, has_ub = self.basis, self.ub_basic, self.flipped, self.has_ub
        z = T[-1, :lim]
        bm = T[:m, width]
        # ratio-test buffers, one entry per row
        down, up = np.empty(m, dtype=bool), np.empty(m, dtype=bool)
        room, mag, ratio = np.empty(m), np.empty(m), np.empty(m)
        # scales with the largest reduced cost, well above float noise; a
        # blocked column's -inf is no scale
        tol_opt = OPT_TOL * max(1.0, float(np.max(np.abs(z), initial=0.0, where=z > -np.inf)))
        degenerate = 0
        for _ in range(max(5000, 200 * (m + width))):
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
            self.steps += 1
            bm[(bm < 0.0) & (bm > -1e-11)] = 0.0
            degenerate = 0 if step > 1e-12 else degenerate + 1
        raise SimplexError(
            f"simplex iteration cap exceeded on LP {self.name!r} ({m} rows, {width} cols)"
        )

    def _finish(self) -> tuple[str, np.ndarray | None, np.ndarray | None]:
        """Phase 2 and the later levels from a feasible basis.  Returns the
        status, x in column order and, for a single-level LP, the duals y of
        `sf`'s rows when optimal (None otherwise)."""
        sf, m, width, lim, ncols = self.sf, self.m, self.width, self.lim, self.ncols
        basis, ub = self.basis, self.ub
        T = self.T = self.T[: m + 1]
        # Drive artificials out of the basis where possible.  Any other
        # column works (slack columns included: a row whose structural part
        # was eliminated can still constrain the slack space); a row with no
        # such column is genuinely redundant.
        for i in np.flatnonzero(basis >= lim):
            nz = np.flatnonzero(np.abs(T[i, :lim]) > PIVOT_TOL)
            if nz.size:
                _pivot(T, i, int(nz[0]))
                basis[i] = nz[0]
                self.ub_basic[i] = ub[nz[0]]
                self.steps += 1
        if not self._run(T):
            return "unbounded", None, None
        duals = None
        if len(sf.c) == 1:
            z2 = T[m, :width]
            duals = np.where(self.flip, z2[self.unit], -z2[self.unit])
        z = T[m, :lim]
        blocked = np.zeros(lim, dtype=bool)  # never basic: a basic column's z is 0
        tols = LEVEL_TOL * np.abs(sf.c).max(axis=1, initial=0.0) if len(sf.c) > 1 else ()
        for tol, c in zip(tols, sf.c[1:]):
            blocked |= z < -tol
            if np.count_nonzero(blocked) + np.count_nonzero(basis < lim) == lim:
                break  # no column is left to move
            cost = np.zeros(width + 1)  # a complemented column holds u - x
            cost[:ncols] = np.where(self.flipped[:ncols], -c, c)
            T[m] = cost - cost[basis] @ T[:m]
            z[blocked] = -np.inf
            if not self._run(T):
                return "unbounded", None, None

        x = np.zeros(width)
        x[basis] = T[:m, width]
        flipped = self.flipped
        x[flipped] = ub[flipped] - x[flipped]
        return "optimal", x[:ncols], duals


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
    def solve(self, lp: LinearProgram, start: LpSolution | None = None) -> LpSolution: ...


class SimplexBackend:
    """The built-in deterministic solver (see `_Tableau`).  A ``start`` whose
    tableau is still optimal for an LP with ``lp``'s columns, objective and
    row count solves a single-level ``lp`` hot, from that tableau, applying
    the rows ``lp`` replaced where `_Tableau.resolve` can take them (see the
    module docstring); any other solves cold."""

    def solve(self, lp: LinearProgram, start: LpSolution | None = None) -> LpSolution:
        t = None if start is None else start._tableau
        last = None if t is None else t.lp
        hot = (
            last is not None
            and lp.variables is last.variables
            and lp.objective is last.objective
            and len(lp.objective) == 1
            and (len(lp.variables), len(lp.constraints)) == (t.ncols, t.m)
        )
        out = hot and t.resolve(lp, start.basis)
        if not out:
            t = _Tableau(_standard_form(lp), lp.name)
            out = t.solve()
        status, x, duals = out
        if status != "optimal":
            return LpSolution(status, [], float("nan"), iterations=t.steps)
        _check_solution(lp, t.sf, x)
        t.lp = lp
        return _optimal(lp, x, duals, t.steps, t)


class ScipyBackend:
    """Optional external backend (scipy HiGHS) behind the same seam.

    The acceptance suite never needs it; it exists for cross-checking and as
    the plug-in example for a high-performance solver.  It solves the levels
    in sequence and holds each solved level on its optimal face, as the
    built-in simplex blocks columns: every column whose bound marginal
    exceeds LEVEL_TOL times the level's largest coefficient is fixed at that
    bound, and every "<=" row (">=" rows enter negated) whose marginal does
    is made "==".
    """

    def solve(self, lp: LinearProgram, start: LpSolution | None = None) -> LpSolution:
        """Solves with HiGHS; ``start`` is ignored."""
        from scipy.optimize import linprog

        sf = _standard_form(lp)
        ub = sf.relations != 0  # ">=" rows enter negated
        eq = ~ub
        A_ub, b_ub = sf.A[ub] * sf.relations[ub, None], sf.b[ub] * sf.relations[ub]
        A_eq, b_eq = sf.A[eq], sf.b[eq]
        bounds = np.column_stack((np.zeros_like(sf.upper), sf.upper))
        iterations = 0
        for level, c in enumerate(sf.c):
            if level:  # hold the level before on its optimal face
                tol = LEVEL_TOL * np.abs(sf.c[level - 1]).max(initial=0.0)
                low, high = np.abs(res.lower.marginals) > tol, np.abs(res.upper.marginals) > tol
                bounds[low, 1] = bounds[low, 0]
                bounds[high, 0] = bounds[high, 1]
                tight = np.abs(res.ineqlin.marginals) > tol
                A_eq, b_eq = np.vstack([A_eq, A_ub[tight]]), np.append(b_eq, b_ub[tight])
                A_ub, b_ub = A_ub[~tight], b_ub[~tight]
            res = linprog(
                -c,  # linprog minimizes
                A_ub=A_ub if len(b_ub) else None,
                b_ub=b_ub if len(b_ub) else None,
                A_eq=A_eq if len(b_eq) else None,
                b_eq=b_eq if len(b_eq) else None,
                bounds=bounds,
                method="highs",
            )
            iterations += int(res.nit)
            if res.status == 2:
                return LpSolution("infeasible", [], float("nan"), iterations=iterations)
            if res.status == 3:
                return LpSolution("unbounded", [], float("nan"), iterations=iterations)
            if not res.success:
                raise SimplexError(f"scipy backend failed on {lp.name!r}: {res.message}")
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

    def solve(self, lp: LinearProgram, start: LpSolution | None = None) -> LpSolution:
        return self._backend.solve(lp, start)
