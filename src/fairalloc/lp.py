"""Backend-neutral linear programs, a deterministic dense simplex solver,
a pluggable backend seam, and the shared feasible-allocation constraint
builder used by every optimization-based allocator.

Every solve goes through one standard form: `_standard_form` validates a
`LinearProgram` once and maps its names to dense arrays (`A`, relations,
`b`, `c`, bounds) in variable and constraint order.  The built-in simplex,
the scipy HiGHS backend and the solution check all work on those arrays.
Both backends return optimal row duals in one sign convention.

The built-in solver is a two-phase primal simplex with Bland's anti-cycling
rule.  It is written for desk-scale correctness and determinism, not speed:
solving the same program twice yields bit-identical values.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Protocol

import numpy as np

from .model import Problem

__all__ = [
    "Variable",
    "Constraint",
    "LinearProgram",
    "LpSolution",
    "SimplexError",
    "SimplexBackend",
    "ScipyBackend",
    "SolveSession",
    "build_feasible_alloc",
    "rate_var",
    "total_var",
    "write_lp_text",
    "dump_lp",
]

PIVOT_TOL = 1e-9


@dataclass(frozen=True)
class Variable:
    name: str
    lower: float | None = 0.0  # None = -inf
    upper: float | None = None  # None = +inf


@dataclass(frozen=True)
class Constraint:
    coeffs: Mapping[str, float]
    relation: str  # "<=", "==" or ">="
    rhs: float
    name: str = ""

    def __post_init__(self):
        if self.relation not in ("<=", "==", ">="):
            raise ValueError(f"bad relation {self.relation!r}")
        object.__setattr__(self, "coeffs", dict(self.coeffs))


@dataclass
class LinearProgram:
    """A named LP: variables with bounds, linear constraints, and a linear
    objective.  Treated as immutable once handed to a solver."""

    name: str = "lp"
    variables: list[Variable] = field(default_factory=list)
    constraints: list[Constraint] = field(default_factory=list)
    objective: dict[str, float] = field(default_factory=dict)
    sense: str = "max"

    def add_variable(
        self, name: str, lower: float | None = 0.0, upper: float | None = None
    ) -> str:
        self.variables.append(Variable(name, lower, upper))
        return name

    def add_constraint(
        self,
        coeffs: Mapping[str, float],
        relation: str,
        rhs: float,
        name: str = "",
    ) -> None:
        self.constraints.append(Constraint(coeffs, relation, rhs, name))

    def validate(self) -> None:
        names = [v.name for v in self.variables]
        known = set(names)
        if len(known) != len(names):
            raise ValueError(f"{self.name}: duplicate variable names")
        for v in self.variables:
            if v.lower is not None and v.upper is not None and v.lower > v.upper:
                raise ValueError(f"{self.name}: {v.name} has lower > upper")
        for c in self.constraints:
            for var in c.coeffs:
                if var not in known:
                    raise ValueError(f"{self.name}: constraint uses unknown {var!r}")
        for var in self.objective:
            if var not in known:
                raise ValueError(f"{self.name}: objective uses unknown {var!r}")
        if self.sense not in ("max", "min"):
            raise ValueError(f"{self.name}: sense must be max or min")


@dataclass(frozen=True)
class LpSolution:
    """When optimal, ``duals`` holds an optimal dual per constraint, in order:
    d objective / d rhs in the LP's own sense (so >= 0 on a "<=" row of a max
    LP, <= 0 on a ">=" row, and 0 on a slack row)."""

    status: str  # "optimal", "infeasible" or "unbounded"
    values: dict[str, float]
    objective: float
    duals: tuple[float, ...] = ()

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


class SimplexError(RuntimeError):
    """Numeric failure inside the built-in solver (names the offending LP)."""


# -- standard form --------------------------------------------------------------

_RELATION_SIGN = {"<=": 1, "==": 0, ">=": -1}


class _StandardForm(NamedTuple):
    """Dense arrays of a validated LP, rows in constraint order and columns
    in variable order: `A x (relations) b`, `lower <= x <= upper`,
    maximize `c x`."""

    A: np.ndarray
    relations: np.ndarray  # per row: 1 for "<=", 0 for "==", -1 for ">="
    b: np.ndarray
    c: np.ndarray  # negated objective when the sense is "min"
    lower: np.ndarray  # -inf where unbounded below
    upper: np.ndarray  # +inf where unbounded above


def _standard_form(lp: LinearProgram) -> _StandardForm:
    """Validate `lp` and translate it to arrays: the one place that maps
    variable names to matrix columns."""
    lp.validate()
    col = {v.name: j for j, v in enumerate(lp.variables)}
    cons = lp.constraints
    A = np.zeros((len(cons), len(col)))
    rows = np.repeat(np.arange(len(cons)), [len(con.coeffs) for con in cons])
    A[rows, [col[name] for con in cons for name in con.coeffs]] = [
        a for con in cons for a in con.coeffs.values()
    ]
    sign = 1.0 if lp.sense == "max" else -1.0
    c = np.zeros(len(col))
    c[[col[name] for name in lp.objective]] = [sign * a for a in lp.objective.values()]
    return _StandardForm(
        A,
        np.array([_RELATION_SIGN[con.relation] for con in cons], dtype=int),
        np.array([con.rhs for con in cons], dtype=float),
        c,
        np.array([-np.inf if v.lower is None else v.lower for v in lp.variables]),
        np.array([np.inf if v.upper is None else v.upper for v in lp.variables]),
    )


def _optimal(lp: LinearProgram, x: np.ndarray, duals: np.ndarray) -> LpSolution:
    # `duals` belong to the maximized standard form: negate them for "min"
    values = dict(zip((v.name for v in lp.variables), x.tolist()))
    obj = sum(a * values[n] for n, a in lp.objective.items())
    sign = 1.0 if lp.sense == "max" else -1.0
    return LpSolution("optimal", values, float(obj), tuple((sign * duals).tolist()))


# -- built-in solver ----------------------------------------------------------


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


def _simplex_core(
    sf: _StandardForm, name: str
) -> tuple[str, np.ndarray | None, np.ndarray | None]:
    """Two-phase dense tableau simplex.  Finite lower bounds are shifted out,
    each free variable gets a negative column right after its own, and upper
    bounds become rows after the constraints, so the tableau only sees
    `A x (rel) b, x >= 0`.  Returns the status and, when optimal, x in
    variable order and the duals y of `sf`'s rows, read from the phase-2
    reduced costs z = c - y^T A: a row's artificial (or a "<=" row's slack)
    column is e_i with cost 0, so z there is -y_i.  Flipped rows' duals
    change sign back; upper-bound rows' duals are dropped."""
    n = len(sf.c)
    free = np.isneginf(sf.lower)
    offset = np.where(free, 0.0, sf.lower)
    pos = np.arange(n) + np.cumsum(free) - free  # column of each variable
    neg = pos[free] + 1
    ncols = n + len(neg)

    bounded = np.nonzero(np.isfinite(sf.upper))[0]
    S = np.vstack((sf.A, np.zeros((len(bounded), n))))
    S[len(sf.b) + np.arange(len(bounded)), bounded] = 1.0
    b = np.concatenate((sf.b, sf.upper[bounded]))
    rel = np.concatenate((sf.relations, np.ones(len(bounded), dtype=int)))
    if offset.any():
        b = b - S @ offset
    flip = b < 0.0
    S[flip] *= -1.0
    b[flip] *= -1.0
    rel[flip] *= -1

    m = len(b)
    slack_rows = np.nonzero(rel != 0)[0]
    art_rows = np.nonzero(rel != 1)[0]
    n_slack = len(slack_rows)
    slack_cols = ncols + np.arange(n_slack)
    art_cols = ncols + n_slack + np.arange(len(art_rows))
    width = ncols + n_slack + len(art_rows)
    T = np.zeros((m, width))
    T[:, pos] = S
    T[:, neg] = -S[:, free]
    T[slack_rows, slack_cols] = rel[slack_rows]
    T[art_rows, art_cols] = 1.0
    basis = np.empty(m, dtype=int)
    basis[slack_rows] = slack_cols
    basis[art_rows] = art_cols  # a ">=" row starts on its artificial
    max_iter = max(5000, 200 * (m + width))

    def run(z: np.ndarray, allowed: np.ndarray) -> float:
        """Bland's-rule pivoting on (T, b, z); returns the objective shift.
        Raises on iteration-cap overrun, returns +inf when unbounded."""
        zval = 0.0
        # Optimality tolerance sits well below the smallest epsilon-weighted
        # objective level the allocators rely on (>= 1e-10) but well above
        # float noise, and scales with the objective magnitude.
        tol_opt = 1e-12 * max(1.0, float(np.max(np.abs(z))) if z.size else 1.0)
        for _ in range(max_iter):
            cand = np.where(allowed & (z > tol_opt))[0]
            if cand.size == 0:
                return zval
            j = int(cand[0])  # Bland: lowest index enters
            col = T[:, j]
            up = np.where(col > PIVOT_TOL)[0]
            if up.size == 0:
                return np.inf
            ratios = b[up] / col[up]
            rmin = float(np.min(ratios))
            near = up[ratios <= rmin + 1e-12 * max(1.0, abs(rmin))]
            r = int(near[np.argmin(basis[near])])  # Bland: lowest basic leaves
            _pivot(T, b, r, j)
            zval += z[j] * b[r]
            z -= z[j] * T[r]
            z[j] = 0.0
            basis[r] = j
            b[(b < 0.0) & (b > -1e-11)] = 0.0
        raise SimplexError(
            f"simplex iteration cap exceeded on LP {name!r} ({m} rows, {width} cols)"
        )

    allowed = np.ones(width, dtype=bool)
    if len(art_rows):
        z1 = np.zeros(width)
        z1[art_cols] = -1.0
        # express phase-1 objective in terms of the current (artificial) basis
        obj1 = 0.0
        for i in art_rows:
            z1 += T[i]
            z1[basis[i]] = 0.0
            obj1 -= b[i]
        shift = run(z1, allowed)
        if obj1 + shift < -1e-7 * max(1.0, float(np.max(b))):
            return "infeasible", None, None
        # Drive leftover artificials out of the basis where possible.  Any
        # non-artificial column works (slack columns included: a row whose
        # structural part was eliminated can still constrain the slack
        # space); a row with no such column is genuinely redundant.
        for i in np.nonzero(basis >= ncols + n_slack)[0]:
            nz = np.where(np.abs(T[i, : ncols + n_slack]) > PIVOT_TOL)[0]
            if nz.size:
                _pivot(T, b, i, int(nz[0]))
                basis[i] = nz[0]
        allowed[art_cols] = False

    z2 = np.zeros(width)
    z2[pos] = sf.c
    z2[neg] = -sf.c[free]
    for i in range(m):
        if z2[basis[i]] != 0.0:
            z2 -= z2[basis[i]] * T[i]
            z2[basis[i]] = 0.0
    if run(z2, allowed) == np.inf:
        return "unbounded", None, None

    x = np.zeros(width)
    x[basis] = b
    values = x[pos] + offset
    values[free] -= x[neg]
    unit = np.empty(m, dtype=int)  # per row, a column equal to e_i at the start
    unit[slack_rows] = slack_cols
    unit[art_rows] = art_cols
    duals = np.where(flip, z2[unit], -z2[unit])
    return "optimal", values, duals[: len(sf.b)]


def _check_solution(lp: LinearProgram, sf: _StandardForm, x: np.ndarray) -> None:
    """Guard against silent numeric corruption: an 'optimal' answer must
    actually satisfy the bounds and the constraints."""
    scale = max(1.0, np.max(np.abs(sf.b), initial=0), np.max(np.abs(sf.A), initial=0))
    tol = 1e-6 * scale
    out = np.nonzero((x < sf.lower - tol) | (x > sf.upper + tol))[0]
    if out.size:
        j = out[0]
        v = lp.variables[j]
        side = f"below bound {v.lower}" if x[j] < sf.lower[j] else f"above bound {v.upper}"
        raise SimplexError(f"{lp.name}: {v.name}={x[j]} {side}")
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
        status, x, duals = _simplex_core(sf, lp.name)
        if status != "optimal":
            return LpSolution(status, {}, float("nan"))
        _check_solution(lp, sf, x)
        return _optimal(lp, x, duals)


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
            bounds=np.column_stack((sf.lower, sf.upper)),
            method="highs",
        )
        if res.status == 2:
            return LpSolution("infeasible", {}, float("nan"))
        if res.status == 3:
            return LpSolution("unbounded", {}, float("nan"))
        if not res.success:
            raise SimplexError(f"scipy backend failed on {lp.name!r}: {res.message}")
        _check_solution(lp, sf, res.x)
        # marginals are d(min -c x)/d(rhs) of linprog's rows; ">=" rows went
        # in negated
        duals = np.empty(len(sf.b))
        duals[ub] = -sf.relations[ub] * res.ineqlin.marginals
        duals[eq] = -res.eqlin.marginals
        return _optimal(lp, res.x, duals)


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


# -- shared FeasibleAlloc fragment --------------------------------------------


def rate_var(demand_id: str, path_id: str) -> str:
    return f"f:{demand_id}:{path_id}"


def total_var(demand_id: str) -> str:
    return f"F:{demand_id}"


def build_feasible_alloc(problem: Problem, name: str = "feasible-alloc") -> LinearProgram:
    """Variables and constraints of a feasible allocation, no objective.

    One rate variable per (demand, path) with lower bound 0, one total
    variable per demand tied by `F_k = sum_p q_k^p f_k^p`, a volume row per
    bounded demand (`sum_p f_k^p <= d_k`) and a capacity row per resource
    (`sum r_k^e f_k^p <= c_e`).
    """
    lp = LinearProgram(name=name)
    path_map = problem.path_map()
    for d in problem.demands:
        for pid in d.paths:
            lp.add_variable(rate_var(d.id, pid))
    for d in problem.demands:
        lp.add_variable(total_var(d.id))

    for d in problem.demands:
        coeffs = {total_var(d.id): 1.0}
        for pid in d.paths:
            coeffs[rate_var(d.id, pid)] = -d.utility_on(pid)
        lp.add_constraint(coeffs, "==", 0.0, name=f"total:{d.id}")

    for d in problem.demands:
        if d.bounded:
            lp.add_constraint(
                {rate_var(d.id, pid): 1.0 for pid in d.paths},
                "<=",
                float(d.volume),
                name=f"volume:{d.id}",
            )

    usage: dict[str, dict[str, float]] = {}  # resource -> rate var -> r_k^e
    for d in problem.demands:
        for pid in d.paths:
            for rid in path_map[pid].resources:
                usage.setdefault(rid, {})[rate_var(d.id, pid)] = d.consumption_on(rid)
    for r in problem.resources:
        if r.id in usage:
            lp.add_constraint(usage[r.id], "<=", r.capacity, name=f"cap:{r.id}")
    return lp


# -- text interchange dump (flag-gated cross-checking aid) --------------------


def _lp_ident(name: str, used: dict[str, str]) -> str:
    if name in used:
        return used[name]
    base = re.sub(r"[^A-Za-z0-9_]", "_", name) or "v"
    if base[0].isdigit():
        base = "v_" + base
    ident = base
    k = 1
    taken = set(used.values())
    while ident in taken:
        ident = f"{base}_{k}"
        k += 1
    used[name] = ident
    return ident


def write_lp_text(lp: LinearProgram) -> str:
    """Render in CPLEX LP format so external solvers can cross-check."""
    used: dict[str, str] = {}
    for v in lp.variables:
        _lp_ident(v.name, used)

    def expr(coeffs: Mapping[str, float]) -> str:
        parts = []
        for name, a in coeffs.items():
            if a == 0.0:
                continue
            op = "-" if a < 0 else "+"
            parts.append(f"{op} {abs(a):.17g} {used[name]}")
        if not parts:
            return "0 " + used[lp.variables[0].name]
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else text

    lines = [f"\\ {lp.name}", "Maximize" if lp.sense == "max" else "Minimize"]
    lines.append(f" obj: {expr(lp.objective)}")
    lines.append("Subject To")
    rel = {"<=": "<=", ">=": ">=", "==": "="}
    for i, c in enumerate(lp.constraints):
        cname = re.sub(r"[^A-Za-z0-9_]", "_", c.name) or f"c{i}"
        lines.append(f" {cname}_{i}: {expr(c.coeffs)} {rel[c.relation]} {c.rhs:.17g}")
    lines.append("Bounds")
    for v in lp.variables:
        ident = used[v.name]
        if v.lower is None and v.upper is None:
            lines.append(f" {ident} free")
        elif v.lower is None:
            lines.append(f" -inf <= {ident} <= {v.upper:.17g}")
        elif v.upper is None:
            if v.lower != 0.0:
                lines.append(f" {ident} >= {v.lower:.17g}")
        else:
            lines.append(f" {v.lower:.17g} <= {ident} <= {v.upper:.17g}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def dump_lp(lp: LinearProgram, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(write_lp_text(lp))
