import numpy as np
import pytest

import fairalloc.lp as lp_module
import fairalloc.optimizers as opt
from fairalloc.lp import (
    Constraint,
    LinearProgram,
    ScipyBackend,
    SimplexBackend,
    SimplexError,
    SolveSession,
)
from fairalloc.model import Demand, Path, Problem, Resource
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
    lp.objective = {x: 1.0}
    return lp


def test_single_bound():
    sol = SimplexBackend().solve(lp_max_x_le_3())
    assert sol.status == "optimal"
    assert sol.values == pytest.approx([3.0])


def test_shared_budget():
    lp = LinearProgram(name="t")
    x, y = lp.add_variable(), lp.add_variable()
    lp.add_constraint({x: 1.0, y: 1.0}, "<=", 1.0)
    lp.objective = {x: 1.0, y: 1.0}
    assert SimplexBackend().solve(lp).objective == pytest.approx(1.0)


def test_infeasible_pair():
    lp = LinearProgram(name="t")
    x = lp.add_variable()
    lp.add_constraint({x: 1.0}, "<=", 0.0)
    lp.add_constraint({x: 1.0}, ">=", 1.0)
    lp.objective = {x: 1.0}
    assert SimplexBackend().solve(lp).status == "infeasible"


def test_unbounded():
    lp = LinearProgram(name="t")
    x = lp.add_variable()
    lp.objective = {x: 1.0}
    assert SimplexBackend().solve(lp).status == "unbounded"


def test_deterministic_resolve():
    rng = np.random.default_rng(3)
    lp = LinearProgram(name="det")
    for j in range(12):
        lp.add_variable(upper=3.0)
    for _ in range(9):
        lp.add_constraint({j: float(rng.normal()) for j in range(12)}, "<=", 2.0)
    lp.objective = {j: float(rng.normal()) for j in range(12)}
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
    ],
)
@pytest.mark.parametrize("backend", [SimplexBackend, ScipyBackend])
def test_non_finite_input_is_rejected_naming_the_lp(part, value, message, backend):
    # Unchecked, a NaN comes back as a status, not an error (a NaN upper
    # bound as "optimal" here, as "unbounded" on a one-column LP): every
    # comparison with NaN is false.
    lp = LinearProgram(name="nonfinite")
    x = lp.add_variable(upper=value if part == "upper" else None)
    y = lp.add_variable(upper=2.0)
    coeffs = {x: value if part == "coefficient" else 1.0, y: 1.0}
    lp.add_constraint(coeffs, "<=", value if part == "rhs" else 3.0, name="budget")
    lp.objective = {x: value if part == "objective" else 1.0, y: 1.0}
    with pytest.raises(ValueError, match=f"^nonfinite: {message}"):
        backend().solve(lp)


def test_huge_finite_coefficients_are_accepted():
    # their sum overflows to inf; each one is finite
    lp = LinearProgram(name="huge")
    x, y = lp.add_variable(upper=1.0), lp.add_variable(upper=1.0)
    lp.add_constraint({x: 1e308, y: 1e308}, "<=", 1e308)
    lp.validate()


@pytest.mark.parametrize("key", [-1, 2, "x0", 0.0, np.int64(0)])
@pytest.mark.parametrize("where", ["constraint", "objective"])
def test_keys_must_be_column_indices(key, where):
    # -1 would wrap to the last column in numpy, n is one past it, and
    # anything but an int (a name, a float, a numpy integer) is not a column
    lp = LinearProgram(name="keys")
    x, y = lp.add_variable(), lp.add_variable()
    lp.add_constraint({x: 1.0, y: 1.0}, "<=", 1.0)
    lp.objective = {x: 1.0}
    if where == "constraint":
        lp.add_constraint({key: 1.0}, "<=", 1.0)
    else:
        lp.objective = {key: 1.0}  # a fresh dict: 0.0 would reuse the key 0
    with pytest.raises(ValueError, match=f"{where} uses unknown column"):
        SimplexBackend().solve(lp)


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
    lp.objective = {j: float(rng.normal()) for j in range(n) if rng.random() < 0.8}
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
    lp.objective = {j: float(rng.normal()) for j in range(n) if rng.random() < 0.6}
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
    lp.objective = {x4: 0.75, x5: -20.0, x6: 0.5, x7: -6.0}
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
    d = sf.c - sf.A.T @ y  # reduced costs: > 0 only at an upper bound, < 0 only at 0
    tight = np.abs(d) > tol
    bound = np.where(d > 0, sf.upper, 0.0)[tight]
    assert np.all(np.isfinite(bound)), lp.name
    assert np.all(np.abs(d[tight] * (x[tight] - bound)) <= tol), lp.name
    dual_objective = y @ sf.b + d[tight] @ bound
    assert abs(sf.c @ x - dual_objective) <= tol * max(1.0, abs(sf.c @ x)), lp.name


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
    lp.objective = {x: 1.0}
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
        lp_module,
        "_simplex_core",
        lambda sf, name: ("optimal", np.array(point), np.zeros(len(sf.b)), 0),
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


# -- solve sessions ------------------------------------------------------------


def test_fresh_session_counts_zero():
    session = SolveSession()
    assert session.count == 0


def test_session_counts_each_solve():
    session = SolveSession()
    session.solve(lp_max_x_le_3())
    session.solve(lp_max_x_le_3())
    assert session.count == 2


def test_geo_binner_uses_one_solve_and_swan_uses_one_per_bin(two_link_example):
    session = SolveSession()
    geo_binner(two_link_example, 1 / 16, 2.0, 6, 0.05, session)
    assert session.count == 1
    session = SolveSession()
    report = swan_sequence(two_link_example, 1 / 16, 2.0, session=session)
    assert session.count == report.iterations > 1


def test_simplex_iterations_are_pinned_on_the_worked_example(two_link_example):
    """Pivots plus bound flips per LP.  The crash start leaves these LPs no
    artificials, and the bin caps are column bounds (6 of gb's 11 steps are
    flips), so a change that brings back phase-1 work or bound rows fails
    here.  Before both, gb took 18 pivots and exact 8."""
    runs = {
        "gb": lambda s: geo_binner(two_link_example, 1 / 16, 2.0, 6, 0.05, s),
        "exact": lambda s: exact_sequential_max_min(two_link_example, s),
    }
    iterations = {}
    for name, run in runs.items():
        rec = _Recording()
        run(SolveSession(rec))
        iterations[name] = [sol.iterations for sol in rec.solutions]
    assert iterations == {"gb": [11], "exact": [4]}


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
        [(k, num(a)) for k, a in lp.objective.items()],
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
    problems = [small_grid_instance(s) for s in range(20)]
    problems += [distinct_utility_instance(s) for s in range(5)] + [consuming]
    for problem in problems:
        lp, _ = build_feasible_alloc(problem)
        ref, _ = build_feasible_alloc(problem)
        volume = [c for c in ref.constraints if c.name.startswith("volume:")]
        ref.constraints = volume + _nested_loop_capacity_rows(problem)
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
    def __init__(self):
        self.lps = []
        self.solutions = []

    def solve(self, lp):
        self.lps.append(lp)
        self.solutions.append(SimplexBackend().solve(lp))
        return self.solutions[-1]


def _rebuilt_exact(problem, solve):
    """The exact sequence's round LPs with a fresh fragment per LP."""
    demands = [d.id for d in problem.demands]
    frozen, rounds, lps = {}, 0, []
    while len(frozen) < len(demands):
        rounds += 1
        lp, forms = build_feasible_alloc(problem, f"max-min-round-{rounds}")
        t = lp.add_variable()
        for k, form in zip(demands, forms):
            if k in frozen:
                lp.add_constraint(form, "==", frozen[k], name=f"freeze:{k}")
            else:
                lp.add_constraint({**form, t: -1.0}, ">=", 0.0)
        lp.objective = {t: 1.0}
        lps.append(lp)
        sol = solve(lp)
        floor_duals = sol.duals[len(sol.duals) - len(demands) :]
        for k, y in zip(demands, floor_duals):
            if k not in frozen and -y > DUAL_TOL:
                frozen[k] = sol.values[t]
    return lps


def _rebuilt_swan(problem, u, alpha, solve):
    """The capped sequence's LPs with a fresh fragment per LP."""
    frozen, prev, lps = {}, {}, []
    for b, cap in enumerate(suggest_bin_config(problem, alpha, u), start=1):
        lp, forms = build_feasible_alloc(problem, f"capped-seq-{b}")
        for d, form in zip(problem.demands, forms):
            k = d.id
            if k in frozen:
                lp.add_constraint(form, "==", frozen[k], name=f"freeze:{k}")
            else:
                lp.add_constraint(form, "<=", cap)
                if b > 1:
                    lp.add_constraint(form, ">=", prev[k])
        lp.objective = {j: a for form in forms for j, a in form.items()}
        lps.append(lp)
        values = solve(lp).values
        for d, form in zip(problem.demands, forms):
            if d.id not in frozen:
                prev[d.id] = sum(a * values[j] for j, a in form.items())
                if prev[d.id] < cap - FREEZE_TOL * max(1.0, cap):
                    frozen[d.id] = prev[d.id]
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
