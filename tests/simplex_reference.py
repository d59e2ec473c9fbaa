"""The dense two-phase simplex as it was before the right-hand side moved into
the tableau: `_simplex_core`, `_pivot` and `_crash`, kept verbatim as the
reference that `fairalloc.lp._simplex_core` must match bit for bit (status,
values, duals and step count)."""

import numpy as np

from fairalloc.lp import DEGENERATE_RUN, PIVOT_TOL, SimplexError, _StandardForm


def _pivot(T: np.ndarray, b: np.ndarray, r: int, j: int) -> None:
    """Make T[r, j] a unit pivot and eliminate column j from the other rows
    (only the rows with a nonzero there change)."""
    piv = T[r, j]
    T[r] /= piv
    b[r] /= piv
    rows = np.nonzero(T[:, j])[0]
    rows = rows[rows != r]
    f = T[rows, j]
    T[rows] -= f[:, None] * T[r]
    b[rows] -= f * b[r]


def _crash(T: np.ndarray, basis: np.ndarray, rows: np.ndarray, ncols: int) -> None:
    """Give `rows` (rows with b = 0) structural basic columns by block
    pivots.  Each pass picks, for each remaining row, its largest entry among
    the columns that are nonzero in no other remaining row: that block is
    diagonal, so one elimination pivots it, and b, zero on those rows, does
    not change.  Rows that find no such column keep their artificials."""
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

    A finite upper bound stays a column bound (bounded-variable simplex): a
    nonbasic column sits at 0 or at its bound, kept as the complement u - x,
    so the ratio test also stops a basic column at its bound, and an entering
    column that reaches its own bound first flips there without a pivot.

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
    b = np.where(flip, -sf.b, sf.b)
    rel = np.where(flip, -sf.relations, sf.relations)

    m = len(b)
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

    # rows 0..m-1: constraints; m: phase-2 reduced costs (b[m] = -objective);
    # m+1: phase-1 reduced costs, dropped after phase 1
    T = np.zeros((m + 2, width))
    T[:m, :ncols] = sf.A
    T[:m][flip] *= -1.0
    T[slack_rows, slack_cols] = rel[slack_rows]
    T[art_rows, art_cols] = 1.0
    T[m, :ncols] = sf.c
    b = np.concatenate((b, [0.0, 0.0]))
    basis = np.empty(m, dtype=int)
    basis[slack_rows] = slack_cols
    basis[art_rows] = art_cols  # a ">=" row starts on its artificial
    _crash(T, basis, art_rows[(rel[art_rows] == 0) & (b[art_rows] == 0.0)], ncols)
    # phase 1 maximises minus the leftover artificials, priced out on the basis
    left = np.nonzero(basis >= lim)[0]
    T[m + 1] = T[left].sum(axis=0)
    T[m + 1, basis[left]] = 0.0
    b[m + 1] = b[left].sum()
    max_iter = max(5000, 200 * (m + width))
    steps = 0

    def run(T: np.ndarray, b: np.ndarray) -> bool:
        """Pivot on the tableau whose last row holds the reduced costs until
        it is optimal (True) or unbounded (False); raises on the iteration
        cap."""
        nonlocal steps
        z = T[-1, :lim]
        bm = b[:m]
        # The optimality tolerance of `fairalloc.lp` (`OPT_TOL`).
        tol_opt = 1e-12 * max(1.0, float(np.max(np.abs(z), initial=0.0)))
        degenerate = 0
        for _ in range(max_iter):
            if degenerate < DEGENERATE_RUN:
                j = int(np.argmax(z))
                if z[j] <= tol_opt:
                    return True
            else:
                cand = np.flatnonzero(z > tol_opt)
                if cand.size == 0:
                    return True
                j = int(cand[0])
            col = T[:m, j]
            if has_ub:
                ubB = ub[basis]
                down = col > PIVOT_TOL
                rows = np.flatnonzero(down | ((col < -PIVOT_TOL) & (ubB < np.inf)))
                room = np.where(down[rows], bm[rows], ubB[rows] - bm[rows])
                ratios = np.maximum(room, 0.0) / np.abs(col[rows])
            else:
                rows = np.flatnonzero(col > PIVOT_TOL)
                ratios = bm[rows] / col[rows]
            step = float(np.min(ratios)) if rows.size else np.inf
            if ub[j] <= step and ub[j] < np.inf:  # the entering column reaches its bound
                step = ub[j]
                b -= step * T[:, j]
                T[:, j] *= -1.0
                flipped[j] = not flipped[j]
            elif not rows.size:
                return False
            else:
                near = rows[ratios <= step + 1e-12 * max(1.0, abs(step))]
                r = int(near[np.argmin(basis[near])])
                if col[r] < 0.0:  # the basic column leaves at its bound
                    k = basis[r]
                    T[r] *= -1.0
                    T[r, k] = 1.0
                    b[r] = ub[k] - b[r]
                    flipped[k] = not flipped[k]
                _pivot(T, b, r, j)
                basis[r] = j
            steps += 1
            bm[(bm < 0.0) & (bm > -1e-11)] = 0.0
            degenerate = 0 if step > 1e-12 else degenerate + 1
        raise SimplexError(
            f"simplex iteration cap exceeded on LP {name!r} ({m} rows, {width} cols)"
        )

    if left.size:
        run(T, b)
        if b[m + 1] > 1e-7 * max(1.0, float(np.max(b[:m]))):
            return "infeasible", None, None, steps
        # Drive leftover artificials out of the basis where possible.  Any
        # non-artificial column works (slack columns included: a row whose
        # structural part was eliminated can still constrain the slack
        # space); a row with no such column is genuinely redundant.
        for i in np.nonzero(basis >= lim)[0]:
            nz = np.where(np.abs(T[i, :lim]) > PIVOT_TOL)[0]
            if nz.size:
                _pivot(T, b, i, int(nz[0]))
                basis[i] = nz[0]
                steps += 1
    T, b = T[: m + 1], b[: m + 1]
    if not run(T, b):
        return "unbounded", None, None, steps

    x = np.zeros(width)
    x[basis] = b[:m]
    x[flipped] = ub[flipped] - x[flipped]
    unit = np.empty(m, dtype=int)  # per row, a column equal to e_i at the start
    unit[slack_rows] = slack_cols
    unit[art_rows] = art_cols
    z2 = T[m]
    duals = np.where(flip, z2[unit], -z2[unit])
    return "optimal", x[:ncols], duals, steps
