import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fairalloc.lp as lp_module
import fairalloc.optimizers as opt
from fairalloc.lp import (
    Constraint,
    LinearProgram,
    LpSolution,
    ScipyBackend,
    SimplexBackend,
    SimplexError,
    SolveSession,
)
from fairalloc.model import Demand, Path, Problem, Resource, total_allocation
from fairalloc.optimizers import (
    DUAL_TOL,
    FREEZE_TOL,
    build_feasible_alloc,
    exact_sequential_max_min,
    geo_binner,
    suggest_bin_config,
    swan_sequence,
)

from conftest import distinct_utility_instance, small_grid_instance


def lp_max_x_le_3():
    lp = LinearProgram(name="t")
    x = lp.add_variable()
    lp.add_constraint({x: 1.0}, "<=", 3.0)
    lp.objective = [{x: 1.0}]
    return lp


def test_single_bound():
    sol = SimplexBackend().solve(lp_max_x_le_3())
    assert sol.status == "optimal"
    assert sol.values == pytest.approx([3.0])


def test_shared_budget():
    lp = LinearProgram(name="t")
    x, y = lp.add_variable(), lp.add_variable()
    lp.add_constraint({x: 1.0, y: 1.0}, "<=", 1.0)
    lp.objective = [{x: 1.0, y: 1.0}]
    assert SimplexBackend().solve(lp).objective == pytest.approx(1.0)


def test_infeasible_pair():
    lp = LinearProgram(name="t")
    x = lp.add_variable()
    lp.add_constraint({x: 1.0}, "<=", 0.0)
    lp.add_constraint({x: 1.0}, ">=", 1.0)
    lp.objective = [{x: 1.0}]
    assert SimplexBackend().solve(lp).status == "infeasible"


def test_unbounded():
    lp = LinearProgram(name="t")
    x = lp.add_variable()
    lp.objective = [{x: 1.0}]
    assert SimplexBackend().solve(lp).status == "unbounded"


def test_deterministic_resolve():
    rng = np.random.default_rng(3)
    lp = LinearProgram(name="det")
    for j in range(12):
        lp.add_variable(upper=3.0)
    for _ in range(9):
        lp.add_constraint({j: float(rng.normal()) for j in range(12)}, "<=", 2.0)
    lp.objective = [{j: float(rng.normal()) for j in range(12)}]
    first = SimplexBackend().solve(lp)
    second = SimplexBackend().solve(lp)
    assert first.values == second.values  # bitwise identical


def test_validation_errors():
    lp = LinearProgram(name="bad")
    lp.add_variable(upper=-1.0)
    with pytest.raises(ValueError, match="column 0 has a negative upper bound"):
        SimplexBackend().solve(lp)
    with pytest.raises(TypeError):  # an upper bound is never positional
        lp.add_variable(0.0)
    lp2 = LinearProgram(name="bad2")
    lp2.add_variable()
    lp2.add_constraint({1: 1.0}, "<=", 1.0)
    with pytest.raises(ValueError, match="unknown"):
        SimplexBackend().solve(lp2)


@pytest.mark.parametrize(
    "part, value, message",
    [
        ("upper", float("nan"), "column 0 has a NaN upper bound"),
        ("upper", -float("inf"), "column 0 has a negative upper bound"),
        ("coefficient", float("nan"), "constraint budget has a non-finite"),
        ("coefficient", float("inf"), "constraint budget has a non-finite"),
        ("coefficient", -float("inf"), "constraint budget has a non-finite"),
        ("rhs", float("nan"), "constraint budget has a non-finite"),
        ("rhs", float("inf"), "constraint budget has a non-finite"),
        ("objective", float("nan"), "objective has a non-finite coefficient"),
        ("objective", -float("inf"), "objective has a non-finite coefficient"),
        # the bad row replaces the budget row of a solved LP given a hot start
        ("edited coefficient", float("nan"), "constraint budget has a non-finite"),
        ("edited coefficient", -float("inf"), "constraint budget has a non-finite"),
        ("edited rhs", float("nan"), "constraint budget has a non-finite"),
        ("edited rhs", float("inf"), "constraint budget has a non-finite"),
    ],
)
@pytest.mark.parametrize("backend", [SimplexBackend, ScipyBackend])
def test_non_finite_input_is_rejected_naming_the_lp(part, value, message, backend):
    # Unchecked, a NaN comes back as a status, not an error (a NaN upper
    # bound as "optimal" here, as "unbounded" on a one-column LP): every
    # comparison with NaN is false.
    part, edit = part.removeprefix("edited "), part.startswith("edited ")
    lp = LinearProgram(name="nonfinite")
    x = lp.add_variable(upper=value if part == "upper" else None)
    y = lp.add_variable(upper=2.0)
    coeffs = {x: value if part == "coefficient" else 1.0, y: 1.0}
    lp.add_constraint(coeffs, "<=", value if part == "rhs" else 3.0, name="budget")
    lp.objective = [{x: value if part == "objective" else 1.0, y: 1.0}]
    start = None
    if edit:
        rows = [Constraint({x: 1.0}, "<=", 1.0)]
        solved = LinearProgram("solved", lp.variables, rows, lp.objective)
        start = backend().solve(solved)
        lp = solved.edited({0: lp.constraints[0]}, "nonfinite")
    with pytest.raises(ValueError, match=f"^nonfinite: {message}"):
        backend().solve(lp, start)


def test_huge_finite_coefficients_are_accepted():
    # their sum overflows to inf; each one is finite
    lp = LinearProgram(name="huge")
    x, y = lp.add_variable(upper=1.0), lp.add_variable(upper=1.0)
    lp.add_constraint({x: 1e308, y: 1e308}, "<=", 1e308)
    lp_module._standard_form(lp)


@pytest.mark.parametrize("key", [-1, 2, "x0", 0.0, np.int64(0)])
@pytest.mark.parametrize("where", ["constraint", "objective", "edit"])
def test_keys_must_be_column_indices(key, where):
    # -1 would wrap to the last column in numpy, n is one past it, and
    # anything but an int (a name, a float, a numpy integer) is not a column;
    # "edit": the bad row replaces a row of a solved LP given a hot start
    lp = LinearProgram(name="keys")
    x, y = lp.add_variable(), lp.add_variable()
    lp.add_constraint({x: 1.0, y: 1.0}, "<=", 1.0)
    lp.objective = [{x: 1.0}]
    start = None
    if where == "constraint":
        lp.add_constraint({key: 1.0}, "<=", 1.0)
    elif where == "objective":
        lp.objective = [{key: 1.0}]  # a fresh dict: 0.0 would reuse the key 0
    else:
        lp.add_constraint({y: 1.0}, "<=", 1.0)
        start = SimplexBackend().solve(lp)
        lp = lp.edited({1: Constraint({key: 1.0}, "<=", 1.0)}, "keys")
    where = "objective" if where == "objective" else "constraint"
    with pytest.raises(ValueError, match=f"^keys: {where} uses unknown column"):
        SimplexBackend().solve(lp, start)


def _random_lp(rng, trial):
    n = int(rng.integers(2, 31))
    m = int(rng.integers(1, 20))
    lp = LinearProgram(name=f"rand{trial}")
    x0 = np.zeros(n)
    for j in range(n):
        ub = None if rng.random() < 0.5 else float(rng.uniform(1, 5))
        lp.add_variable(upper=ub)
        x0[j] = rng.uniform(0, 1 if ub is None else ub)
    for _ in range(m):
        nz = int(rng.integers(1, min(n, 6) + 1))
        cols = rng.choice(n, size=nz, replace=False)
        coeffs = {int(j): float(rng.normal()) for j in cols}
        lhs0 = sum(a * x0[j] for j, a in coeffs.items())
        draw = rng.random()
        if draw < 0.4:
            lp.add_constraint(coeffs, "<=", lhs0 + float(rng.uniform(0, 2)))
        elif draw < 0.8:
            lp.add_constraint(coeffs, ">=", lhs0 - float(rng.uniform(0, 2)))
        else:
            lp.add_constraint(coeffs, "==", lhs0)
    lp.objective = [{j: float(rng.normal()) for j in range(n) if rng.random() < 0.8}]
    return lp


def _optimal_lps_matching_reference(corpus, seed):
    """Draw from `corpus` until 60 are optimal (at most 300 draws); statuses
    must agree with scipy HiGHS on every draw and objectives within 1e-7
    relative.  Returns the optimal LPs."""
    rng = np.random.default_rng(seed)
    simp, ref = SimplexBackend(), ScipyBackend()
    optimal = []
    for trial in range(300):
        if len(optimal) >= 60:
            break
        lp = corpus(rng, trial)
        mine, theirs = simp.solve(lp), ref.solve(lp)
        assert mine.status == theirs.status, lp.name
        if mine.status == "optimal":
            optimal.append(lp)
            denom = max(1.0, abs(theirs.objective))
            assert abs(mine.objective - theirs.objective) / denom < 1e-7, lp.name
    return optimal


def test_simplex_matches_reference_on_random_corpus():
    """>= 50 optimal random LPs (<= 30 variables) against scipy HiGHS."""
    assert len(_optimal_lps_matching_reference(_random_lp, 11)) >= 50


def _random_zero_rhs_lp(rng, trial):
    """Allocation-shaped LPs whose rows mostly have b = 0: definitional "=="
    rows sum_p q_kp f_kp = w_k rho_k (a ratio column per demand) and
    rho_k = sum_b y_kb, ">= 0" floor rows rho_k - t >= 0, random ">= 0" and
    "== 0" rows (the crash cannot always cover the latter), "<=" capacity
    rows, and columns with finite upper bounds (bin caps y_kb, some rates).
    Every draw is feasible (x = 0); some are unbounded."""
    demands = int(rng.integers(1, 6))
    resources = int(rng.integers(1, 5))
    lp = LinearProgram(name=f"zero-rhs{trial}")
    t = lp.add_variable()
    usage = [{} for _ in range(resources)]
    for k in range(demands):
        rates = {}
        for p in range(int(rng.integers(1, 4))):
            upper = None if rng.random() < 0.5 else float(rng.uniform(0.5, 4))
            f = lp.add_variable(upper=upper)
            rates[f] = float(rng.choice([1.0, 0.5, 2.0]))
            for e in {int(rng.integers(resources))} | set(rng.choice(resources, 2).tolist()):
                usage[e][f] = float(rng.choice([1.0, 0.5, 3.0]))
        rho = lp.add_variable()
        lp.add_constraint(
            {**rates, rho: -float(rng.choice([1.0, 2.0, 4.0]))}, "==", 0.0, name=f"ratio:{k}"
        )
        if rng.random() < 0.7:
            lp.add_constraint({rho: 1.0, t: -1.0}, ">=", 0.0, name=f"floor:{k}")
        if rng.random() < 0.5:
            bins = {rho: -1.0}
            for b in range(int(rng.integers(1, 4))):
                bins[lp.add_variable(upper=float(rng.uniform(0.2, 2)))] = 1.0
            lp.add_constraint(bins, "==", 0.0, name=f"bins:{k}")
    for e, coeffs in enumerate(usage):
        if coeffs:
            lp.add_constraint(coeffs, "<=", float(rng.uniform(1, 5)), name=f"cap:{e}")
    n = len(lp.variables)
    for relation in rng.choice([">=", "=="], size=int(rng.integers(0, 4))):
        cols = rng.choice(n, size=min(n, 3), replace=False)
        lp.add_constraint({int(j): float(rng.normal()) for j in cols}, str(relation), 0.0)
    lp.objective = [{j: float(rng.normal()) for j in range(n) if rng.random() < 0.6}]
    return lp


def test_simplex_matches_reference_on_zero_rhs_rows():
    """The crash start (zero-rhs "==" and ">=" rows) and bounded columns, on
    >= 50 optimal LPs."""
    optimal = _optimal_lps_matching_reference(_random_zero_rhs_lp, 41)
    assert len(optimal) >= 50
    relations = [(c.relation, c.rhs) for lp in optimal for c in lp.constraints]
    assert relations.count(("==", 0.0)) >= 100 and relations.count((">=", 0.0)) >= 50
    assert sum(u is not None for lp in optimal for u in lp.variables) >= 50


def _beale_cycling_lp():
    """Beale's LP (a minimisation, here as the max of its negated objective),
    on which the largest-coefficient rule with lowest-index ties cycles
    through degenerate bases."""
    lp = LinearProgram(name="beale")
    x4, x5, x6, x7 = (lp.add_variable() for _ in range(4))
    lp.add_constraint({x4: 0.25, x5: -8.0, x6: -1.0, x7: 9.0}, "<=", 0.0)
    lp.add_constraint({x4: 0.5, x5: -12.0, x6: -0.5, x7: 3.0}, "<=", 0.0)
    lp.add_constraint({x6: 1.0}, "<=", 1.0)
    lp.objective = [{x4: 0.75, x5: -20.0, x6: 0.5, x7: -6.0}]
    return lp


def test_blands_rule_breaks_the_degenerate_cycle(monkeypatch):
    mine = SimplexBackend().solve(_beale_cycling_lp())
    theirs = ScipyBackend().solve(_beale_cycling_lp())
    assert mine.objective == pytest.approx(1.25)
    assert theirs.objective == pytest.approx(1.25)
    assert mine.values == pytest.approx(theirs.values)
    # without the fallback the same LP never leaves its cycle
    monkeypatch.setattr(lp_module, "DEGENERATE_RUN", 10**9)
    with pytest.raises(SimplexError, match="iteration cap"):
        SimplexBackend().solve(_beale_cycling_lp())


def _assert_optimal_duals(lp, sol, tol=1e-7):
    """Row duals y (as d objective / d rhs) of an optimal solution: the right
    sign per relation, complementary slackness on rows and on bounded
    columns, and strong duality."""
    sf = lp_module._standard_form(lp)
    x = np.array(sol.values)
    y = np.array(sol.duals)
    assert y.shape == sf.b.shape
    assert np.all(sf.relations * y >= -tol), lp.name  # "<=" rows y >= 0, ">=" y <= 0
    assert np.all(np.abs(y * (sf.A @ x - sf.b)) <= tol), lp.name
    (c,) = sf.c
    d = c - sf.A.T @ y  # reduced costs: > 0 only at an upper bound, < 0 only at 0
    tight = np.abs(d) > tol
    bound = np.where(d > 0, sf.upper, 0.0)[tight]
    assert np.all(np.isfinite(bound)), lp.name
    assert np.all(np.abs(d[tight] * (x[tight] - bound)) <= tol), lp.name
    dual_objective = y @ sf.b + d[tight] @ bound
    assert abs(c @ x - dual_objective) <= tol * max(1.0, abs(c @ x)), lp.name


@pytest.mark.parametrize("backend", [SimplexBackend, ScipyBackend])
@pytest.mark.parametrize(
    "corpus,seed", [(_random_lp, 11), (_random_zero_rhs_lp, 41)]
)
def test_duals_satisfy_strong_duality_and_complementary_slackness(backend, corpus, seed):
    rng = np.random.default_rng(seed)
    optimal = 0
    for trial in range(300):
        if optimal >= 60:
            break
        lp = corpus(rng, trial)
        sol = backend().solve(lp)
        if sol.optimal:
            optimal += 1
            _assert_optimal_duals(lp, sol)
    assert optimal >= 50


def _guard_lp():
    lp = LinearProgram(name="guard")
    x = lp.add_variable(upper=2.0)
    y = lp.add_variable(upper=1.5)
    lp.add_constraint({x: 1.0, y: 1.0}, "<=", 3.0, name="budget")
    lp.add_constraint({x: 1.0, y: -1.0}, ">=", -1.0, name="floor")
    lp.add_constraint({y: 1.0}, "==", 1.0, name="pin")
    lp.objective = [{x: 1.0}]
    return lp


@pytest.mark.parametrize(
    "point, message",
    [
        ([2.0, 1.0], None),
        ([2.0, 1.1], "budget violated"),
        ([0.0, 1.0 + 1e-3], "floor violated"),
        ([1.0, 0.9], "pin violated"),
        # the ids name columns 0 and 1 as `_guard_lp` does: x and y
        pytest.param(
            [2.1, 1.0], "column 0 = 2.1 above bound 2.0",
            id="point4-x=2.1 above bound 2.0",
        ),
        pytest.param(
            [-0.1, 1.0], "column 0 = -0.1 below bound 0.0",
            id="point5-x=-0.1 below bound 0.0",
        ),
        pytest.param(
            [1.0, 1.6], "column 1 = 1.6 above bound 1.5",
            id="point6-y=1.6 above bound 1.5",
        ),
    ],
)
def test_simplex_backend_rejects_a_corrupt_optimal_point(monkeypatch, point, message):
    monkeypatch.setattr(
        lp_module._Tableau,
        "solve",
        lambda self: ("optimal", np.array(point), np.zeros(len(self.sf.b))),
    )
    if message is None:
        assert SimplexBackend().solve(_guard_lp()).values == [2.0, 1.0]
    else:
        with pytest.raises(SimplexError, match=message):
            SimplexBackend().solve(_guard_lp())


def test_scipy_backend_rejects_a_corrupt_optimal_point(monkeypatch):
    import scipy.optimize
    from types import SimpleNamespace

    def linprog(*args, **kwargs):  # "optimal", but x + y = 3.1 breaks the budget row
        return SimpleNamespace(
            status=0,
            success=True,
            nit=2,
            x=np.array([2.0, 1.1]),
            ineqlin=SimpleNamespace(marginals=np.zeros(2)),
            eqlin=SimpleNamespace(marginals=np.zeros(1)),
        )

    monkeypatch.setattr(scipy.optimize, "linprog", linprog)
    with pytest.raises(SimplexError, match="budget violated"):
        ScipyBackend().solve(_guard_lp())


# -- objective levels ------------------------------------------------------------


def _two_level_lp():
    """x + y <= 2 with x, y <= 1.5: level 1 (x + y) has a face of optima, on
    which level 2 (y) picks x = 0.5, y = 1.5; level 3 (x) cannot undo it."""
    lp = LinearProgram(name="levels")
    x, y = lp.add_variable(upper=1.5), lp.add_variable(upper=1.5)
    lp.add_constraint({x: 1.0, y: 1.0}, "<=", 2.0)
    lp.objective = [{x: 1.0, y: 1.0}, {y: 1.0}, {x: 1.0}]
    return lp


@pytest.mark.parametrize("backend", [SimplexBackend, ScipyBackend])
def test_levels_are_maximised_in_order_and_carry_no_duals(backend):
    sol = backend().solve(_two_level_lp())
    assert sol.values == pytest.approx([0.5, 1.5])
    assert sol.objective == pytest.approx(2.0)  # the first level's value
    assert sol.duals == ()
    one = _two_level_lp()
    one.objective = one.objective[:1]
    assert len(backend().solve(one).duals) == 1


def test_a_level_whose_reduced_costs_are_float_noise_blocks_no_column():
    # Level 2 is constant on level 1's optima, so its reduced costs there are
    # 0 up to rounding (one reads -1.1e-16); blocking by their own scale
    # would fix a column that level 3 needs, and level 3 would end at 4/3.
    lp = LinearProgram(name="noise", variables=[2.0, None, 2.0, None, None])
    lp.add_constraint({0: 2.0, 1: 0.0, 2: -2.0, 4: -1.0}, "<=", 4.0)
    lp.add_constraint({0: 0.0, 1: 1.0, 3: 3.0, 4: -2.0}, "<=", 1.0)
    lp.add_constraint({0: 0.0, 1: -1.0, 2: 0.0, 4: -1.0}, "<=", 1.0)
    lp.add_constraint({j: 1.0 for j in range(5)}, "<=", 5.0)
    lp.objective = [{0: 1.0, 1: 1.0, 4: 1.0}, {j: 1.0 for j in range(5)}, {1: 0.0, 2: 1.0, 4: 1.0}]
    for backend in (SimplexBackend, ScipyBackend):
        values = backend().solve(lp).values
        assert [sum(a * values[j] for j, a in level.items()) for level in lp.objective] == (
            pytest.approx([5.0, 5.0, 5.0])
        )


def test_random_multi_level_lps_match_highs():
    # Small-integer data, so that no marginal or reduced cost sits near the
    # LEVEL_TOL threshold at which each backend holds a solved level: each
    # level's value must agree.
    rng = np.random.default_rng(1)
    for trial in range(120):
        n = int(rng.integers(2, 6))
        lp = LinearProgram(name=f"levels{trial}")
        for _ in range(n):
            lp.add_variable(upper=float(rng.integers(1, 4)) if rng.random() < 0.5 else None)
        for _ in range(int(rng.integers(1, 5))):
            coeffs = {j: float(rng.integers(-2, 4)) for j in range(n) if rng.random() < 0.7}
            lp.add_constraint(coeffs, "<=", float(rng.integers(0, 5)))
        lp.add_constraint(dict.fromkeys(range(n), 1.0), "<=", 5.0)
        lp.objective = [
            {j: float(rng.integers(-1, 2)) for j in range(n) if rng.random() < 0.6}
            for _ in range(int(rng.integers(2, 4)))
        ]
        mine, theirs = SimplexBackend().solve(lp), ScipyBackend().solve(lp)
        assert mine.status == theirs.status == "optimal", lp.name  # x = 0 is feasible
        for level in lp.objective:
            a = sum(c * mine.values[j] for j, c in level.items())
            b = sum(c * theirs.values[j] for j, c in level.items())
            assert abs(a - b) <= 1e-7, lp.name


def test_scipy_levels_hold_each_level_on_its_optimal_face():
    # Holding a level by a ">=" row at its optimum less 1e-9 made this gb LP
    # infeasible for HiGHS: level 3's optimum read 1.7e-7, float noise
    # around 0, that level 4 could not hold.
    from fairalloc.bench import run_allocator
    from fairalloc.model import check_feasible
    from perfbench.inputs import build_instances

    instances = build_instances("cluster", 0)
    problem = next(x.problem for x in instances if x.group.name == "cluster-4x12")
    sums = []
    for backend in (ScipyBackend(), SimplexBackend()):
        rec = _BackendRecording(backend)
        report = run_allocator(problem, "gb", session=SolveSession(rec))
        assert check_feasible(problem, report.allocation).feasible
        (lp,), (sol,) = rec.lps, rec.solutions
        sums.append([sum(a * sol.values[j] for j, a in level.items()) for level in lp.objective])
    assert sums[0] == pytest.approx(sums[1], rel=0, abs=1e-6)


def test_an_objective_needs_a_level():
    lp = lp_max_x_le_3()
    lp.objective = []
    with pytest.raises(ValueError, match="^t: objective has no level$"):
        SimplexBackend().solve(lp)


# -- solve sessions ------------------------------------------------------------


def test_geo_binner_uses_one_solve_and_swan_uses_one_per_bin(two_link_example):
    rec = _WarmRecording()
    geo_binner(two_link_example, 1 / 16, 2.0, 6, SolveSession(rec))
    assert len(rec.lps) == 1
    rec = _WarmRecording()
    report = swan_sequence(two_link_example, 1 / 16, 2.0, session=SolveSession(rec))
    assert len(rec.lps) == report.iterations > 1


def _three_round_example():
    """d1 and d2 share link A (1.0) and freeze at 0.5; d4 reaches its volume
    1.0 on link B (3.0), and d3 takes the rest of B, 1.5."""
    return Problem(
        [Resource("A", 1.0), Resource("B", 3.0)],
        [Path("p1", ["A"]), Path("p2", ["A", "B"]), Path("p3", ["B"]), Path("p4", ["B"])],
        [
            Demand("d1", ["p1"]),
            Demand("d2", ["p2"]),
            Demand("d3", ["p3"]),
            Demand("d4", ["p4"], volume=1.0),
        ],
    )


def test_simplex_iterations_are_pinned_on_the_worked_example(two_link_example):
    """Pivots plus bound flips per LP.  The crash start leaves the first LP
    of each run no artificials, and the bin caps are column bounds (6 of
    gb's 11 steps are flips), so a change that brings back phase-1 work or
    bound rows fails here.  Before both, gb took 18 pivots and exact 8.
    exact's later rounds and swan's later rungs start from the last basis,
    so a fall back to cold starts fails here too: cold, the three rounds
    take [5, 6, 7] and the six rungs [2, 4, 4, 5, 4, 5].  While exact froze
    with "==" rows, its second round took one more pivot, to drive the
    fixed slack of the newly frozen row out of the basis."""
    runs = {
        "gb": lambda s: geo_binner(two_link_example, 1 / 16, 2.0, 6, s),
        "exact": lambda s: exact_sequential_max_min(two_link_example, s),
        "exact-3-rounds": lambda s: exact_sequential_max_min(_three_round_example(), s),
        "swan": lambda s: swan_sequence(two_link_example, 1 / 16, 2.0, session=s),
    }
    iterations = {}
    for name, run in runs.items():
        rec = _WarmRecording()
        run(SolveSession(rec))
        iterations[name] = [sol.iterations for sol in rec.solutions]
    assert iterations == {
        "gb": [11],
        "exact": [4],
        "exact-3-rounds": [5, 1, 2],
        "swan": [2, 2, 2, 3, 1, 0],
    }


def _start_lp():
    """max x + y with x + 2y <= 4 and x <= 1: optimal at x = 1, y = 1.5."""
    lp = LinearProgram(name="start")
    x, y = lp.add_variable(), lp.add_variable()
    lp.add_constraint({x: 1.0, y: 2.0}, "<=", 4.0)
    lp.add_constraint({x: 1.0}, "<=", 1.0)
    lp.objective = [{x: 1.0, y: 1.0}]
    return lp


def test_a_start_from_the_optimal_basis_takes_no_steps():
    lp = _start_lp()
    cold = SimplexBackend().solve(lp)
    assert cold.basis == (1, 0) and cold.iterations == 2  # y in row 0, x in row 1
    warm = SimplexBackend().solve(lp.edited({}, "start"), start=cold)
    assert warm == LpSolution("optimal", [1.0, 1.5], 2.5, (0.5, 0.5), 0, (1, 0))


@pytest.mark.parametrize(
    "start",
    [
        pytest.param([0, 0], id="singular-repeated-column"),
        # x basic in row 0 puts x = 4 there, and row 1's slack at 1 - 4 < 0
        pytest.param([0, 3], id="infeasible-point"),
    ],
)
def test_a_singular_or_infeasible_start_returns_what_no_start_returns(start):
    lp = _start_lp()
    sol = dataclasses.replace(SimplexBackend().solve(lp), basis=tuple(start))
    edit = lp.edited({}, "start")
    assert SimplexBackend().solve(edit, start=sol) == SimplexBackend().solve(edit)


@pytest.mark.parametrize("start", [[0], [0, 1, 2], [0, 4], [-1, 0]])
def test_a_start_that_is_not_a_basis_of_the_lp_is_rejected(start):
    lp = _start_lp()
    sol = dataclasses.replace(SimplexBackend().solve(lp), basis=tuple(start))
    with pytest.raises(ValueError, match=r"^start: a start basis is 2 entries in \[0, 4\)"):
        SimplexBackend().solve(lp.edited({}, "start"), start=sol)


def test_the_session_hands_the_start_to_its_backend():
    lp = _start_lp()
    sol = SimplexBackend().solve(lp)
    warm, cold = _WarmRecording(), _Recording()
    for backend in (warm, cold):
        SolveSession(backend).solve(lp.edited({}, "start"), start=sol)
    assert warm.solutions[0].iterations == 0 and cold.solutions[0].iterations == 2
    assert ScipyBackend().solve(lp.edited({}, "start"), start=sol).basis == ()


# -- hot re-solves of edited LPs ------------------------------------------------

EDITS = ("rhs", "eq", "column", "basis")


def _edited(rng, lp, sol, kinds, name):
    """`lp` edited by each edit in ``kinds``, and the start to solve it from:
    right-hand sides moved (mostly loosened), a "<=" or ">=" row made "=="
    (mostly at its value in `sol`; that edit solves cold), one column's
    coefficients changed in a few rows, or one entry of `sol`'s basis
    replaced (a hint the solve may not be able to take).  The edit is
    `LinearProgram.edited`'s or, now and then, an LP built by hand from
    `lp`'s columns, rows and objective."""
    m, n = len(lp.constraints), len(lp.variables)
    rows = {}

    def row(i):
        return rows.get(i, lp.constraints[i])

    for kind in kinds:
        picked = rng.choice(m, size=int(rng.integers(1, min(m, 3) + 1)), replace=False)
        if kind == "rhs":
            for i in map(int, picked):
                c = row(i)
                loosen = {"<=": 1.0, ">=": -1.0, "==": 0.0}[c.relation]
                step = float(rng.normal())
                if rng.random() < 0.7 and loosen:
                    step = loosen * abs(step)
                rows[i] = Constraint(c.coeffs, c.relation, c.rhs + step, c.name)
        elif kind == "eq":
            open_rows = [i for i in range(m) if row(i).relation != "=="]
            if open_rows:
                c = row(i := int(rng.choice(open_rows)))
                at = sum(a * sol.values[j] for j, a in c.coeffs.items())
                rows[i] = Constraint(c.coeffs, "==", at if rng.random() < 0.8 else c.rhs, c.name)
        elif kind == "column":
            j = int(rng.integers(n))
            for i in map(int, picked):
                c = row(i)
                coeffs = dict(c.coeffs)
                if j in coeffs and rng.random() < 0.3:
                    del coeffs[j]
                else:
                    coeffs[j] = float(rng.normal())
                rows[i] = Constraint(coeffs, c.relation, c.rhs, c.name)
        else:
            basis = list(sol.basis)
            basis[int(rng.integers(m))] = int(rng.integers(n + m))
            sol = dataclasses.replace(sol, basis=tuple(basis))
    if rng.random() < 0.3:  # by hand: a hot start finds the replaced rows by identity
        cons = [rows.get(i, con) for i, con in enumerate(lp.constraints)]
        return LinearProgram(name, lp.variables, cons, lp.objective), sol
    return lp.edited(rows, name), sol


def _hot_and_cold(seed, sequence, corpus=_random_lp):
    """Each step of ``sequence`` edits the last LP of a chain that starts at
    an LP of ``corpus`` and solves it from the last solution (hot) and from
    nothing (cold).  Yields the LP and both solutions; the chain goes on
    from the hot solution while it is optimal."""
    rng = np.random.default_rng(seed)
    lp = corpus(rng, seed)
    sol = SimplexBackend().solve(lp)
    for step, kinds in enumerate(sequence):
        if not sol.optimal:
            return
        lp, start = _edited(rng, lp, sol, kinds, f"{lp.name}-{step}")
        sol, cold = SimplexBackend().solve(lp, start), SimplexBackend().solve(lp)
        yield lp, sol, cold


def _assert_same_answer(lp, hot, cold):
    assert hot.status == cold.status, lp.name
    if cold.optimal:
        assert abs(hot.objective - cold.objective) <= 1e-7 * max(1.0, abs(cold.objective))
        lp_module._check_solution(lp, lp_module._standard_form(lp), np.array(hot.values))
        _assert_optimal_duals(lp, hot)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([_random_lp, _random_zero_rhs_lp]),
    st.integers(0, 2**32 - 1),
    st.lists(st.lists(st.sampled_from(EDITS), min_size=1, max_size=3), min_size=1, max_size=4),
)
def test_a_hot_resolve_of_an_edited_lp_matches_a_cold_solve(corpus, seed, sequence):
    for lp, hot, cold in _hot_and_cold(seed, sequence, corpus):
        _assert_same_answer(lp, hot, cold)


def test_hot_resolves_take_every_kind_of_edit(monkeypatch):
    # The property above holds vacuously if every hot start falls back to a
    # cold solve: each kind of edit that a hot start takes must also solve
    # hot.  A hot edit changes right-hand sides, and coefficients only of
    # columns that the start leaves nonbasic at 0, never a relation: a row
    # made "==", or new coefficients of a column that is complemented (at
    # its upper bound) or in the start's basis, solves cold, with the same
    # answer.
    resolve, hot, moved, held, at_zero = lp_module._Tableau.resolve, [], [], [], []

    def counted(self, lp, start):
        pairs = [(c, o) for c, o in zip(lp.constraints, self.lp.constraints) if c is not o]
        moved.append(any(c.relation != o.relation for c, o in pairs))
        cols = sorted(
            {j for c, o in pairs for j in {*c.coeffs, *o.coeffs}
             if c.coeffs.get(j, 0.0) != o.coeffs.get(j, 0.0)}
        )
        kept = self.flipped[cols] | np.isin(cols, self.column[list(start)])
        held.append(bool(kept.any()))
        at_zero.append(bool(cols) and not kept.any())
        out = resolve(self, lp, start)
        hot.append(out is not None)
        return out

    monkeypatch.setattr(lp_module._Tableau, "resolve", counted)
    for kind, least in zip(EDITS, (30, 0, 10, 5)):  # a random basis hint is rarely feasible
        for log in (hot, moved, held, at_zero):
            log.clear()
        for seed in range(60):
            for lp, sol, cold in _hot_and_cold(seed, [[kind]] * 3):
                _assert_same_answer(lp, sol, cold)
        assert not any(h and (m or k) for h, m, k in zip(hot, moved, held)), kind
        if kind == "eq":  # 60 of 62 made a row "==" (2 found none left to make)
            assert sum(moved) >= 50
        if kind == "column":  # counted only where it changed a column at 0, which keeps the point
            hot[:] = [h for h, z in zip(hot, at_zero) if z]
            assert all(hot), kind
        # 50, 2, 15 and 8 of 60-66 at the time of writing; 45 column edits held a column
        assert sum(hot) >= least, kind


def test_a_start_solves_hot_from_any_lp_with_the_same_columns_and_objective(monkeypatch):
    # A start's tableau keeps the LP it is optimal for; an LP that shares
    # that LP's columns and objective (the objects) and has its row count
    # solves hot, whichever LP it was made from, with the cold answer.
    resolve, hot = lp_module._Tableau.resolve, []

    def counted(self, lp, start):
        out = resolve(self, lp, start)
        hot.append(out is not None)
        return out

    def assert_cold_answer(sol, lp):
        cold = SimplexBackend().solve(lp)
        assert (sol.status, sol.values, sol.objective, sol.duals) == (
            cold.status, cold.values, cold.objective, cold.duals
        ), lp.name

    monkeypatch.setattr(lp_module._Tableau, "resolve", counted)
    lp = _start_lp()  # optimal at x = 1, y = 1.5
    looser = {1: Constraint({0: 1.0}, "<=", 2.0)}  # optimal at x = 2, y = 1
    same = lp.edited({}, "same")
    # a start whose tableau moved on to another LP: its changed rows are
    # found against that LP
    sol = SimplexBackend().solve(lp)
    assert SimplexBackend().solve(lp.edited(looser, "first"), sol).values == [2.0, 1.0]
    assert_cold_answer(SimplexBackend().solve(same, sol), same)
    # a start from an LP built by hand, with the same rows or equal new ones
    for rows in (lp.constraints, [dataclasses.replace(c) for c in lp.constraints]):
        other = SimplexBackend().solve(LinearProgram("other", lp.variables, rows, lp.objective))
        assert_cold_answer(SimplexBackend().solve(same, other), same)
    assert hot == [True, True, True, True]

    # repr: the solutions' fields as compared, with an infeasible LP's NaN
    # objective equal to itself
    def cold(lp):
        return repr(SimplexBackend().solve(lp))

    # a start whose hot solve fell back to a cold one after the tableau took
    # the edit: x basic in row 0 and row 1's slack in row 1 is infeasible
    sol = SimplexBackend().solve(lp)
    SimplexBackend().solve(lp.edited(looser, "second"), dataclasses.replace(sol, basis=(0, 3)))
    assert repr(SimplexBackend().solve(same, sol)) == cold(same)
    # an edit given a new column, which the start's LP shares
    sol = SimplexBackend().solve(lp)
    wider = lp.edited({}, "wider")
    wider.add_variable()
    assert repr(SimplexBackend().solve(wider, sol)) == cold(wider)
    # equal columns and objective, but not the same objects
    sol = SimplexBackend().solve(lp)
    copy = LinearProgram("copy", list(lp.variables), lp.constraints, [dict(lp.objective[0])])
    assert repr(SimplexBackend().solve(copy, sol)) == cold(copy)
    assert hot == [True, True, True, True, False]


def test_a_multi_level_lp_solves_cold_from_a_start(monkeypatch):
    # The tableau of a multi-level solve ends priced on its last level, and
    # neither `exact` nor `swan` sends a multi-level LP hot, so such a start
    # never reaches `_Tableau.resolve` and gives the cold solve.  Small-integer
    # data as in `test_random_multi_level_lps_match_highs`; the edit gives one
    # column a new coefficient in the row that bounds every column.
    reached = []
    monkeypatch.setattr(lp_module._Tableau, "resolve", lambda *args: reached.append(args))
    rng = np.random.default_rng(3)
    for trial in range(60):
        n = int(rng.integers(2, 6))
        lp = LinearProgram(name=f"levels{trial}")
        for _ in range(n):
            lp.add_variable(upper=float(rng.integers(1, 4)) if rng.random() < 0.5 else None)
        for _ in range(int(rng.integers(1, 5))):
            coeffs = {j: float(rng.integers(-2, 4)) for j in range(n) if rng.random() < 0.7}
            lp.add_constraint(coeffs, "<=", float(rng.integers(0, 5)))
        lp.add_constraint(dict.fromkeys(range(n), 1.0), "<=", 5.0)
        lp.objective = [
            {j: float(rng.integers(-1, 2)) for j in range(n) if rng.random() < 0.6}
            for _ in range(int(rng.integers(2, 4)))
        ]
        sol = SimplexBackend().solve(lp)
        bound = {**dict.fromkeys(range(n), 1.0), int(rng.integers(n)): float(rng.integers(2, 5))}
        edit = lp.edited(
            {len(lp.constraints) - 1: Constraint(bound, "<=", 5.0)}, f"levels{trial}-edit"
        )
        for start in (sol, SimplexBackend().solve(edit)):  # an edit, and no edit at all
            assert repr(SimplexBackend().solve(edit, start)) == repr(SimplexBackend().solve(edit))
    assert reached == []


def test_edited_replaces_rows_and_keeps_the_rest():
    lp = _start_lp()
    row = Constraint({0: 1.0}, "<=", 2.0)
    edit = lp.edited({1: row}, "next")
    assert edit.constraints == [lp.constraints[0], row] and lp.constraints[1].rhs == 1.0
    assert edit.variables is lp.variables and edit.objective is lp.objective
    with pytest.raises(IndexError, match="^start: no constraint 2 to edit$"):
        lp.edited({2: row}, "next")


# -- feasible-allocation fragment ----------------------------------------------


def test_fragment_counts_single_demand():
    prob = Problem(
        [Resource("e1", 2.0)], [Path("p1", ["e1"])], [Demand("d1", ["p1"])]
    )
    lp, forms = build_feasible_alloc(prob)
    assert lp.variables == [None]  # the rate, unbounded above; no ratio column
    assert forms == [{0: 1.0}]
    assert [c.name for c in lp.constraints] == ["cap:e1"]
    assert [c.coeffs for c in lp.constraints] == [{0: 1.0}]


def test_fragment_counts_worked_example(two_link_example):
    lp, forms = build_feasible_alloc(two_link_example)
    assert len(lp.variables) == 3  # 3 path rates, nothing else
    caps = [c for c in lp.constraints if c.name.startswith("cap:")]
    assert len(caps) == 2
    assert all(a == 1.0 for c in caps for a in c.coeffs.values())
    assert len(lp.constraints) == 2  # 2 capacity rows, nothing else
    assert [sorted(f) for f in forms] == [[0, 1], [2]]  # d1 on p1 and p2, d2 on p3


def test_fragment_consumption_scales_capacity_row():
    prob = Problem(
        [Resource("e1", 2.0)],
        [Path("p1", ["e1"])],
        [Demand("d1", ["p1"], consumption={"e1": 2.0})],
    )
    lp, _ = build_feasible_alloc(prob)
    cap = next(c for c in lp.constraints if c.name == "cap:e1")
    assert cap.coeffs == {0: 2.0}


def test_fragment_admits_zero_allocation(two_link_example):
    lp, _ = build_feasible_alloc(two_link_example)
    zero = [0.0] * len(lp.variables)
    for c in lp.constraints:
        lhs = sum(a * zero[j] for j, a in c.coeffs.items())
        assert (
            lhs <= c.rhs
            if c.relation == "<="
            else lhs >= c.rhs
            if c.relation == ">="
            else lhs == c.rhs
        )


def test_fragment_volume_row_only_for_bounded():
    prob = Problem(
        [Resource("e1", 2.0)],
        [Path("p1", ["e1"]), Path("p2", ["e1"])],
        [Demand("a", ["p1"], volume=1.0), Demand("b", ["p2"])],
    )
    lp, _ = build_feasible_alloc(prob)
    vols = [c for c in lp.constraints if c.name.startswith("volume:")]
    assert [c.name for c in vols] == ["volume:a"]
    assert vols[0].rhs == 1.0


@pytest.mark.parametrize(
    "bad",
    [
        Problem([Resource("e1", -1.0)], [Path("p1", ["e1"])], [Demand("d1", ["p1"])]),
        Problem([Resource("e1", 1.0)], [Path("p1", ["e1"])], [Demand("d1", ["p1"], weight=0.0)]),
    ],
)
def test_fragment_rejects_an_invalid_problem(bad):
    with pytest.raises(ValueError, match=r"^invalid problem \("):
        build_feasible_alloc(bad)


def _structure(lp):
    # Everything that defines an LP, in order: its name, the columns with
    # their bounds, each row's name, relation, rhs and coefficients, and the
    # objective.  Numbers compare by float.hex, so -0.0 differs from 0.0.
    def num(x):
        return None if x is None else float(x).hex()

    return (
        lp.name,
        [num(u) for u in lp.variables],
        [
            (c.name, c.relation, num(c.rhs), [(k, num(a)) for k, a in c.coeffs.items()])
            for c in lp.constraints
        ],
        [[(k, num(a)) for k, a in level.items()] for level in lp.objective],
    )


def _rate_columns(problem):
    # The reference layout: one rate column per (demand, path), in order.
    pairs = [(d.id, pid) for d in problem.demands for pid in d.paths]
    return {pair: j for j, pair in enumerate(pairs)}


def _nested_loop_capacity_rows(problem):
    # The reference build: every resource scans every (demand, path).
    path_map = problem.path_map()
    col = _rate_columns(problem)
    rows = []
    for r in problem.resources:
        coeffs = {}
        for d in problem.demands:
            for pid in d.paths:
                if r.id in path_map[pid].resources:
                    coeffs[col[d.id, pid]] = d.consumption_on(r.id)
        if coeffs:
            rows.append(Constraint(coeffs, "<=", r.capacity, name=f"cap:{r.id}"))
    return rows


def _nested_loop_volume_rows(problem):
    # The reference build: a bounded demand's rates sum to at most its volume.
    col = _rate_columns(problem)
    return [
        Constraint({col[d.id, pid]: 1.0 for pid in d.paths}, "<=", d.volume, name=f"volume:{d.id}")
        for d in problem.demands
        if d.bounded
    ]


def test_capacity_rows_match_the_nested_loop_reference():
    # ids out of sorted order, a resource no path uses, consumption != 1
    consuming = Problem(
        [Resource("z", 2.0), Resource("idle", 1.0), Resource("a", 3.0),
         Resource("m", 1.5)],
        [Path("q2", ["m", "z"]), Path("q1", ["a"]), Path("q0", ["z", "a", "m"])],
        [
            Demand("late", ["q2", "q1"], consumption={"z": 0.5, "m": 2.0}),
            Demand("early", ["q0"], volume=1.0, consumption={"a": 4.0}),
        ],
    )
    # a bounded demand without consumption entries among consuming ones
    mixed = Problem(
        consuming.resources,
        [*consuming.paths, Path("q3", ["z", "a"]), Path("q4", ["m"])],
        [*consuming.demands, Demand("plain", ["q3", "q4"], volume=2.0)],
    )
    problems = [small_grid_instance(s) for s in range(20)]
    problems += [distinct_utility_instance(s) for s in range(5)] + [consuming, mixed]
    for problem in problems:
        lp, _ = build_feasible_alloc(problem)
        ref, _ = build_feasible_alloc(problem)
        ref.constraints = _nested_loop_volume_rows(problem) + _nested_loop_capacity_rows(problem)
        assert _structure(lp) == _structure(ref)
    rows = build_feasible_alloc(consuming)[0].constraints
    caps = [c for c in rows if c.name.startswith("cap:")]
    assert [c.name for c in caps] == ["cap:z", "cap:a", "cap:m"]
    # columns: late's q2 and q1, then early's q0
    assert list(caps[0].coeffs.items()) == [(0, 0.5), (2, 1.0)]


def _nested_loop_ratio_forms(problem):
    # The reference build: every demand scans every path of the problem.
    col = _rate_columns(problem)
    forms = []
    for d in problem.demands:
        form = {}
        for pid in d.paths:
            for path in problem.paths:
                if path.id == pid:
                    form[col[d.id, pid]] = d.utility.get(pid, 1.0) / d.weight
        forms.append(form)
    return forms


def test_ratio_forms_match_the_nested_loop_reference():
    # utility q != 1 on some paths, weights 2 and 4, a bounded demand
    weighted = Problem(
        [Resource("L", 10.0), Resource("M", 4.0)],
        [Path("pa", ["L"]), Path("pb1", ["L", "M"]), Path("pb2", ["M"])],
        [
            Demand("a", ["pa"], weight=2.0, utility={"pa": 3.0}),
            Demand("b", ["pb1", "pb2"], volume=5.0, weight=4.0, utility={"pb2": 0.5}),
        ],
    )

    def exact(forms):  # keys in order, coefficients by float.hex
        return [[(j, float(a).hex()) for j, a in f.items()] for f in forms]

    for problem in [distinct_utility_instance(s) for s in range(5)] + [weighted]:
        _, forms = build_feasible_alloc(problem)
        assert exact(forms) == exact(_nested_loop_ratio_forms(problem))
    lp, forms = build_feasible_alloc(weighted)
    # columns: rates in (demand, path) order and nothing else; rows: volume,
    # then capacity; no ratio row or column
    assert len(lp.variables) == 3  # (a, pa), (b, pb1), (b, pb2)
    assert [c.name for c in lp.constraints] == ["volume:b", "cap:L", "cap:M"]
    assert [list(f.items()) for f in forms] == [[(0, 1.5)], [(1, 0.25), (2, 0.125)]]


# -- one fragment per allocator call -------------------------------------------


class _Recording:
    """A backend that ignores the start: every LP solves cold."""

    def __init__(self):
        self.lps = []
        self.solutions = []

    def solve(self, lp, start=None):
        self.lps.append(lp)
        self.solutions.append(SimplexBackend().solve(lp))
        return self.solutions[-1]


class _WarmRecording(_Recording):
    """`_Recording` that hands each start on to the simplex."""

    def solve(self, lp, start=None):
        self.lps.append(lp)
        self.solutions.append(SimplexBackend().solve(lp, start))
        return self.solutions[-1]


class _BackendRecording(_Recording):
    """`_Recording` around another backend, which gets each start."""

    def __init__(self, backend):
        super().__init__()
        self.backend = backend

    def solve(self, lp, start=None):
        self.lps.append(lp)
        self.solutions.append(self.backend.solve(lp, start))
        return self.solutions[-1]


def _rebuilt_exact(problem, solve, freeze=">="):
    """The exact sequence's round LPs with a fresh fragment per LP: round r
    maximizes the floor's rise delta over t_(r-1), each frozen ratio held by
    a ``freeze`` row at its level."""
    demands = [d.id for d in problem.demands]
    frozen, rounds, lps, floor = {}, 0, [], 0.0
    while len(frozen) < len(demands):
        rounds += 1
        lp, forms = build_feasible_alloc(problem, f"max-min-round-{rounds}")
        delta = lp.add_variable()
        for k, form in zip(demands, forms):
            if k in frozen:
                lp.add_constraint(form, freeze, frozen[k], name=f"freeze:{k}")
            else:
                lp.add_constraint({**form, delta: -1.0}, ">=", floor)
        lp.objective = [{delta: 1.0}]
        lps.append(lp)
        sol = solve(lp)
        floor += sol.values[delta]
        floor_duals = sol.duals[len(sol.duals) - len(demands) :]
        for k, y in zip(demands, floor_duals):
            if k not in frozen and -y > DUAL_TOL:
                frozen[k] = floor
    return lps


def _rebuilt_swan(problem, u, alpha, solve):
    """The capped sequence's LPs with a fresh fragment per LP: two rows per
    demand, rho <= hi and rho >= lo."""
    frozen, lo, lps = {}, {}, []
    for b, cap in enumerate(suggest_bin_config(problem, alpha, u), start=1):
        lp, forms = build_feasible_alloc(problem, f"capped-seq-{b}")
        for d, form in zip(problem.demands, forms):
            k = d.id
            name = f"freeze:{k}" if k in frozen else ""
            lp.add_constraint(form, "<=", frozen.get(k, cap), name=name)
            lp.add_constraint(form, ">=", lo.get(k, 0.0), name=name)
        lp.objective = [{j: a for form in forms for j, a in form.items()}]
        lps.append(lp)
        values = solve(lp).values
        for d, form in zip(problem.demands, forms):
            if d.id not in frozen:
                lo[d.id] = sum(a * values[j] for j, a in form.items())
                if lo[d.id] < cap - FREEZE_TOL * max(1.0, cap):
                    frozen[d.id] = lo[d.id]
        if len(frozen) == len(problem.demands):
            break
    return lps


@pytest.mark.parametrize("allocator", ["exact", "swan"])
def test_sequences_build_the_fragment_once_and_solve_the_rebuilt_lps(
    monkeypatch, allocator
):
    # `_fragment` builds the rows of `build_feasible_alloc` (exact) and of
    # swan's compiled problem
    build = opt._fragment
    longest = 0
    for problem in [small_grid_instance(s) for s in range(6)] + [distinct_utility_instance(1)]:
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(opt, "_fragment", counted)
        rec = _Recording()
        if allocator == "exact":
            exact_sequential_max_min(problem, SolveSession(rec))
        else:
            swan_sequence(problem, 0.1, 2.0, session=SolveSession(rec))
        assert len(calls) == 1
        monkeypatch.setattr(opt, "_fragment", build)
        solve = SimplexBackend().solve
        ref = (
            _rebuilt_exact(problem, solve)
            if allocator == "exact"
            else _rebuilt_swan(problem, 0.1, 2.0, solve)
        )
        longest = max(longest, len(rec.lps))
        assert [_structure(lp) for lp in rec.lps] == [_structure(lp) for lp in ref]
    assert longest > 1  # some sequence reuses the fragment


def test_exact_freeze_rows_hold_each_ratio_at_its_level():
    # exact freezes a ratio with a ">=" row.  The dual certificate that froze
    # it holds it at its level in every later round (see
    # `exact_sequential_max_min`), so the sequence ends where the one with
    # "==" freeze rows, solved cold, ends.
    def close(got, want):
        return abs(got - want) <= 1e-9 * max(1.0, abs(want))

    held = 0
    problems = [("grid", s, small_grid_instance(s)) for s in range(15)]
    problems += [("utility", s, distinct_utility_instance(s)) for s in range(8)]
    for *label, problem in problems:
        rec = _WarmRecording()
        report = exact_sequential_max_min(problem, SolveSession(rec))
        levels = report.notes["frozen_ratios"]
        _, forms = build_feasible_alloc(problem)
        for lp, sol in zip(rec.lps, rec.solutions):
            for con, d, form in zip(lp.constraints[-len(forms) :], problem.demands, forms):
                assert con.relation == ">=", lp.name
                if con.name == f"freeze:{d.id}":
                    rho = sum(a * sol.values[j] for j, a in form.items())
                    assert close(rho, levels[d.id]), (label, lp.name, d.id)
                    held += 1
        last = _rebuilt_exact(problem, SimplexBackend().solve, freeze="==")[-1]
        ref = opt._allocation_from(problem, SimplexBackend().solve(last).values)
        want, got = total_allocation(problem, ref), total_allocation(problem, report.allocation)
        assert got.keys() == want.keys()
        assert all(close(got[k], want[k]) for k in want), label
    assert held > 0  # some ratio was held by a freeze row


@pytest.mark.parametrize("allocator", ["exact", "swan"])
def test_every_lp_after_the_first_of_a_sequence_solves_hot(monkeypatch, allocator):
    # exact's later rounds and swan's later rungs edit the last LP's tableau:
    # right-hand sides, and the coefficients of exact's delta column, which
    # its basis swap moves out of the start basis.  A start that falls back
    # to a cold solve gives the same answer, so only a count sees it.
    from fairalloc.bench import run_allocator
    from fairalloc.generate import TrafficSpec, generate_problem

    resolve, hot = lp_module._Tableau.resolve, []

    def counted(self, lp, start):
        out = resolve(self, lp, start)
        hot.append(out is not None)
        return out

    monkeypatch.setattr(lp_module._Tableau, "resolve", counted)
    problems = [small_grid_instance(s) for s in range(15)]
    problems += [distinct_utility_instance(s) for s in range(8)]
    problems.append(generate_problem(5, 7, TrafficSpec("gravity", 8.0, 0), 4))
    longest = 0
    for i, problem in enumerate(problems):
        hot.clear()
        solves = run_allocator(problem, allocator).lp_solves
        assert hot == [True] * (solves - 1), i
        longest = max(longest, solves)
    assert longest > 2


@pytest.mark.parametrize("allocator", ["exact", "swan"])
def test_the_benchmark_tracer_sees_every_lp_of_a_sequence(allocator):
    # perfbench's tracer wraps `SolveSession.solve`: every LP of a sequence,
    # the edited ones included, must reach it whole.
    from fairalloc.bench import run_allocator
    from fairalloc.generate import TrafficSpec, generate_problem
    from perfbench.trace import ROOT, Tracer

    problem = generate_problem(5, 7, TrafficSpec("gravity", 8.0, 0), 4)
    base, forms = build_feasible_alloc(problem)
    rows, cols = {
        "exact": (len(base.constraints) + len(forms), len(base.variables) + 1),
        "swan": (len(base.constraints) + 2 * len(forms), len(base.variables)),
    }[allocator]
    rec = _WarmRecording()
    tracer = Tracer()
    tracer.install()
    try:
        report = tracer.wrap(run_allocator, ROOT)(problem, allocator, session=SolveSession(rec))
    finally:
        tracer.uninstall()
    assert not tracer.missing
    spans = [s.info for s in tracer.spans if s.name == "lp.SolveSession.solve"]
    assert len(spans) == report.lp_solves == len(rec.lps) > 1
    assert spans == [
        {"rows": rows, "cols": cols, "nnz": sum(len(c.coeffs) for c in lp.constraints)}
        for lp in rec.lps
    ]
    assert [lp.name for lp in rec.lps[1:]] == [
        f"{rec.lps[0].name[:-2]}-{i}" for i in range(2, len(rec.lps) + 1)
    ]
