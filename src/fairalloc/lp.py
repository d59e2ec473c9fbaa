"""Backend-neutral linear programs, a deterministic dense simplex solver,
a pluggable backend seam, and the shared feasible-allocation constraint
builder used by every optimization-based allocator.

The built-in solver is a two-phase primal simplex with Bland's anti-cycling
rule.  It is written for desk-scale correctness and determinism, not speed:
solving the same program twice yields bit-identical values.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Protocol

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
    status: str  # "optimal", "infeasible" or "unbounded"
    values: dict[str, float]
    objective: float

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


class SimplexError(RuntimeError):
    """Numeric failure inside the built-in solver (names the offending LP)."""


# -- built-in solver ----------------------------------------------------------


def _simplex_core(
    lp: LinearProgram,
) -> tuple[str, dict[str, float]]:
    """Two-phase dense tableau simplex.  Finite lower bounds are shifted out,
    free variables are split, and upper bounds become explicit rows, so the
    core only sees `A x (rel) b, x >= 0`."""
    lp.validate()

    # column layout: one column per shifted variable, two for free variables
    col_of: dict[str, tuple[int, int | None]] = {}  # name -> (pos col, neg col)
    offsets: dict[str, float] = {}
    ncols = 0
    for v in lp.variables:
        if v.lower is None:
            col_of[v.name] = (ncols, ncols + 1)
            offsets[v.name] = 0.0
            ncols += 2
        else:
            col_of[v.name] = (ncols, None)
            offsets[v.name] = v.lower
            ncols += 1

    rows: list[tuple[dict[int, float], str, float]] = []

    def add_row(coeffs: Mapping[str, float], rel: str, rhs: float) -> None:
        row: dict[int, float] = {}
        shift = 0.0
        for name, a in coeffs.items():
            if a == 0.0:
                continue
            pos, neg = col_of[name]
            row[pos] = row.get(pos, 0.0) + a
            if neg is not None:
                row[neg] = row.get(neg, 0.0) - a
            shift += a * offsets[name]
        rows.append((row, rel, rhs - shift))

    for c in lp.constraints:
        add_row(c.coeffs, c.relation, c.rhs)
    for v in lp.variables:
        if v.upper is not None:
            add_row({v.name: 1.0}, "<=", v.upper)

    sign = 1.0 if lp.sense == "max" else -1.0
    cost = np.zeros(ncols)
    for name, a in lp.objective.items():
        pos, neg = col_of[name]
        cost[pos] += sign * a
        if neg is not None:
            cost[neg] -= sign * a

    m = len(rows)
    # count slack/artificial columns after rhs sign normalization
    norm_rows: list[tuple[dict[int, float], str, float]] = []
    for row, rel, rhs in rows:
        if rhs < 0.0:
            row = {j: -a for j, a in row.items()}
            rhs = -rhs
            rel = {"<=": ">=", ">=": "<=", "==": "=="}[rel]
        norm_rows.append((row, rel, rhs))

    n_slack = sum(1 for _, rel, _ in norm_rows if rel != "==")
    n_art = sum(1 for _, rel, _ in norm_rows if rel != "<=")
    width = ncols + n_slack + n_art

    T = np.zeros((m, width))
    b = np.zeros(m)
    basis = np.full(m, -1, dtype=int)
    art_cols: list[int] = []
    s = ncols
    a_col = ncols + n_slack
    for i, (row, rel, rhs) in enumerate(norm_rows):
        for j, a in row.items():
            T[i, j] = a
        b[i] = rhs
        if rel == "<=":
            T[i, s] = 1.0
            basis[i] = s
            s += 1
        elif rel == ">=":
            T[i, s] = -1.0
            s += 1
            T[i, a_col] = 1.0
            basis[i] = a_col
            art_cols.append(a_col)
            a_col += 1
        else:
            T[i, a_col] = 1.0
            basis[i] = a_col
            art_cols.append(a_col)
            a_col += 1

    art_set = set(art_cols)
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
            pos = np.where(col > PIVOT_TOL)[0]
            if pos.size == 0:
                return np.inf
            ratios = b[pos] / col[pos]
            rmin = float(np.min(ratios))
            near = pos[ratios <= rmin + 1e-12 * max(1.0, abs(rmin))]
            r = int(near[np.argmin(basis[near])])  # Bland: lowest basic leaves
            piv = T[r, j]
            T[r] /= piv
            b[r] /= piv
            for i in range(m):
                if i != r and T[i, j] != 0.0:
                    f = T[i, j]
                    T[i] -= f * T[r]
                    b[i] -= f * b[r]
            zval += z[j] * b[r]
            z_j = z[j]
            z -= z_j * T[r]
            z[j] = 0.0
            basis[r] = j
            b[b < 0.0] = np.where(b[b < 0.0] > -1e-11, 0.0, b[b < 0.0])
        raise SimplexError(
            f"simplex iteration cap exceeded on LP {lp.name!r} "
            f"({m} rows, {width} cols)"
        )

    allowed = np.ones(width, dtype=bool)

    if art_cols:
        z1 = np.zeros(width)
        for c_ in art_cols:
            z1[c_] = -1.0
        # express phase-1 objective in terms of the current (artificial) basis
        obj1 = 0.0
        for i in range(m):
            if basis[i] in art_set:
                z1 += T[i]
                z1[basis[i]] = 0.0
                obj1 -= b[i]
        shift = run(z1, allowed)
        if obj1 + shift < -1e-7 * max(1.0, float(np.max(b)) if m else 1.0):
            return "infeasible", {}
        # Drive leftover artificials out of the basis where possible.  Any
        # non-artificial column works (slack columns included: a row whose
        # structural part was eliminated can still constrain the slack
        # space); a row with no such column is genuinely redundant.
        for i in range(m):
            if basis[i] in art_set:
                nz = np.where(np.abs(T[i, : ncols + n_slack]) > PIVOT_TOL)[0]
                if nz.size:
                    j = int(nz[0])
                    piv = T[i, j]
                    T[i] /= piv
                    b[i] /= piv
                    for r2 in range(m):
                        if r2 != i and T[r2, j] != 0.0:
                            f = T[r2, j]
                            T[r2] -= f * T[i]
                            b[r2] -= f * b[i]
                    basis[i] = j
        allowed[list(art_set)] = False

    z2 = np.zeros(width)
    z2[:ncols] = cost
    for i in range(m):
        if z2[basis[i]] != 0.0:
            cb = z2[basis[i]]
            z2 -= cb * T[i]
            z2[basis[i]] = 0.0
    status_shift = run(z2, allowed)
    if status_shift == np.inf:
        return "unbounded", {}

    x = np.zeros(width)
    x[basis] = b
    values: dict[str, float] = {}
    for v in lp.variables:
        pos, neg = col_of[v.name]
        val = x[pos] + offsets[v.name]
        if neg is not None:
            val -= x[neg]
        values[v.name] = float(val)
    return "optimal", values


def _check_solution(lp: LinearProgram, values: dict[str, float]) -> None:
    """Guard against silent numeric corruption: an 'optimal' answer must
    actually satisfy the constraints."""
    scale = 1.0
    for c in lp.constraints:
        scale = max(scale, abs(c.rhs), *(abs(a) for a in c.coeffs.values()))
    tol = 1e-6 * scale
    for v in lp.variables:
        val = values[v.name]
        if v.lower is not None and val < v.lower - tol:
            raise SimplexError(f"{lp.name}: {v.name}={val} below bound {v.lower}")
        if v.upper is not None and val > v.upper + tol:
            raise SimplexError(f"{lp.name}: {v.name}={val} above bound {v.upper}")
    for c in lp.constraints:
        lhs = sum(a * values[n] for n, a in c.coeffs.items())
        ok = (
            lhs <= c.rhs + tol
            if c.relation == "<="
            else lhs >= c.rhs - tol
            if c.relation == ">="
            else abs(lhs - c.rhs) <= tol
        )
        if not ok:
            raise SimplexError(
                f"{lp.name}: constraint {c.name or c.relation} violated "
                f"({lhs} vs {c.rhs})"
            )


class LpBackend(Protocol):  # pragma: no cover - typing seam
    def solve(self, lp: LinearProgram) -> LpSolution: ...


class SimplexBackend:
    """The built-in deterministic solver."""

    def solve(self, lp: LinearProgram) -> LpSolution:
        status, values = _simplex_core(lp)
        if status != "optimal":
            return LpSolution(status, {}, float("nan"))
        _check_solution(lp, values)
        obj = sum(a * values[n] for n, a in lp.objective.items())
        return LpSolution("optimal", values, float(obj))


class ScipyBackend:
    """Optional external backend (scipy HiGHS) behind the same seam.

    The acceptance suite never needs it; it exists for cross-checking and as
    the plug-in example for a high-performance solver.
    """

    def solve(self, lp: LinearProgram) -> LpSolution:
        from scipy.optimize import linprog

        lp.validate()
        names = [v.name for v in lp.variables]
        idx = {n: i for i, n in enumerate(names)}
        n = len(names)
        sign = 1.0 if lp.sense == "max" else -1.0
        c = np.zeros(n)
        for name, a in lp.objective.items():
            c[idx[name]] = -sign * a  # linprog minimizes
        a_ub, b_ub, a_eq, b_eq = [], [], [], []
        for con in lp.constraints:
            row = np.zeros(n)
            for name, a in con.coeffs.items():
                row[idx[name]] = a
            if con.relation == "<=":
                a_ub.append(row)
                b_ub.append(con.rhs)
            elif con.relation == ">=":
                a_ub.append(-row)
                b_ub.append(-con.rhs)
            else:
                a_eq.append(row)
                b_eq.append(con.rhs)
        bounds = [(v.lower, v.upper) for v in lp.variables]
        res = linprog(
            c,
            A_ub=np.array(a_ub) if a_ub else None,
            b_ub=np.array(b_ub) if b_ub else None,
            A_eq=np.array(a_eq) if a_eq else None,
            b_eq=np.array(b_eq) if b_eq else None,
            bounds=bounds,
            method="highs",
        )
        if res.status == 2:
            return LpSolution("infeasible", {}, float("nan"))
        if res.status == 3:
            return LpSolution("unbounded", {}, float("nan"))
        if not res.success:
            raise SimplexError(f"scipy backend failed on {lp.name!r}: {res.message}")
        values = {name: float(res.x[i]) for name, i in idx.items()}
        obj = sum(a * values[nm] for nm, a in lp.objective.items())
        return LpSolution("optimal", values, float(obj))


class SolveSession:
    """Counts LP solves; the count is the hardware-independent cost metric
    the benchmark reports.

    Thread-safe: concurrent allocator runs may share a session.
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

    for r in problem.resources:
        coeffs: dict[str, float] = {}
        for d in problem.demands:
            for pid in d.paths:
                if r.id in path_map[pid].resources:
                    coeffs[rate_var(d.id, pid)] = d.consumption_on(r.id)
        if coeffs:
            lp.add_constraint(coeffs, "<=", r.capacity, name=f"cap:{r.id}")
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
