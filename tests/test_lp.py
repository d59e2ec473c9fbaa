import numpy as np
import pytest

from fairalloc.lp import (
    LinearProgram,
    ScipyBackend,
    SimplexBackend,
    SolveSession,
    build_feasible_alloc,
    rate_var,
    total_var,
    write_lp_text,
)
from fairalloc.model import Demand, Path, Problem, Resource
from fairalloc.optimizers import BinConfig, geo_binner, swan_sequence


def lp_max_x_le_3():
    lp = LinearProgram(name="t")
    lp.add_variable("x")
    lp.add_constraint({"x": 1.0}, "<=", 3.0)
    lp.objective = {"x": 1.0}
    return lp


def test_single_bound():
    sol = SimplexBackend().solve(lp_max_x_le_3())
    assert sol.status == "optimal"
    assert sol.values["x"] == pytest.approx(3.0)


def test_shared_budget():
    lp = LinearProgram(name="t")
    lp.add_variable("x")
    lp.add_variable("y")
    lp.add_constraint({"x": 1.0, "y": 1.0}, "<=", 1.0)
    lp.objective = {"x": 1.0, "y": 1.0}
    assert SimplexBackend().solve(lp).objective == pytest.approx(1.0)


def test_infeasible_pair():
    lp = LinearProgram(name="t")
    lp.add_variable("x")
    lp.add_constraint({"x": 1.0}, "<=", 0.0)
    lp.add_constraint({"x": 1.0}, ">=", 1.0)
    lp.objective = {"x": 1.0}
    assert SimplexBackend().solve(lp).status == "infeasible"


def test_unbounded():
    lp = LinearProgram(name="t")
    lp.add_variable("x")
    lp.objective = {"x": 1.0}
    assert SimplexBackend().solve(lp).status == "unbounded"


def test_free_variable_and_upper_bound():
    lp = LinearProgram(name="t")
    lp.add_variable("x", lower=None)
    lp.add_variable("y", lower=0.0, upper=2.0)
    lp.add_constraint({"x": 1.0, "y": 1.0}, "==", 1.0)
    lp.objective = {"x": -1.0, "y": 1.0}
    sol = SimplexBackend().solve(lp)
    assert sol.values == pytest.approx({"x": -1.0, "y": 2.0})


def test_min_sense():
    lp = LinearProgram(name="t", sense="min")
    lp.add_variable("x", lower=1.0, upper=5.0)
    lp.objective = {"x": 1.0}
    assert SimplexBackend().solve(lp).objective == pytest.approx(1.0)


def test_deterministic_resolve():
    rng = np.random.default_rng(3)
    lp = LinearProgram(name="det")
    for j in range(12):
        lp.add_variable(f"x{j}", 0.0, 3.0)
    for _ in range(9):
        lp.add_constraint(
            {f"x{j}": float(rng.normal()) for j in range(12)}, "<=", 2.0
        )
    lp.objective = {f"x{j}": float(rng.normal()) for j in range(12)}
    first = SimplexBackend().solve(lp)
    second = SimplexBackend().solve(lp)
    assert first.values == second.values  # bitwise identical


def test_validation_errors():
    lp = LinearProgram(name="bad")
    lp.add_variable("x", lower=2.0, upper=1.0)
    with pytest.raises(ValueError, match="lower > upper"):
        SimplexBackend().solve(lp)
    lp2 = LinearProgram(name="bad2")
    lp2.add_variable("x")
    lp2.add_constraint({"nope": 1.0}, "<=", 1.0)
    with pytest.raises(ValueError, match="unknown"):
        SimplexBackend().solve(lp2)


def _random_lp(rng, trial):
    n = int(rng.integers(2, 31))
    m = int(rng.integers(1, 20))
    lp = LinearProgram(name=f"rand{trial}")
    x0 = np.zeros(n)
    for j in range(n):
        ub = None if rng.random() < 0.5 else float(rng.uniform(1, 5))
        lp.add_variable(f"x{j}", 0.0, ub)
        x0[j] = rng.uniform(0, 1 if ub is None else ub)
    for _ in range(m):
        nz = int(rng.integers(1, min(n, 6) + 1))
        cols = rng.choice(n, size=nz, replace=False)
        coeffs = {f"x{int(j)}": float(rng.normal()) for j in cols}
        lhs0 = sum(a * x0[int(name[1:])] for name, a in coeffs.items())
        draw = rng.random()
        if draw < 0.4:
            lp.add_constraint(coeffs, "<=", lhs0 + float(rng.uniform(0, 2)))
        elif draw < 0.8:
            lp.add_constraint(coeffs, ">=", lhs0 - float(rng.uniform(0, 2)))
        else:
            lp.add_constraint(coeffs, "==", lhs0)
    lp.objective = {
        f"x{j}": float(rng.normal()) for j in range(n) if rng.random() < 0.8
    }
    return lp


def test_simplex_matches_reference_on_random_corpus():
    """>= 50 optimal random LPs (<= 30 variables) against scipy HiGHS at
    1e-7 relative; statuses must agree on every draw."""
    rng = np.random.default_rng(11)
    simp, ref = SimplexBackend(), ScipyBackend()
    optimal = 0
    for trial in range(300):
        if optimal >= 60:
            break
        lp = _random_lp(rng, trial)
        mine, theirs = simp.solve(lp), ref.solve(lp)
        assert mine.status == theirs.status, lp.name
        if mine.status == "optimal":
            optimal += 1
            denom = max(1.0, abs(theirs.objective))
            assert abs(mine.objective - theirs.objective) / denom < 1e-7, lp.name
    assert optimal >= 50


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
    geo_binner(two_link_example, BinConfig(1 / 16, 2.0, 6, 0.05), session)
    assert session.count == 1
    session = SolveSession()
    report = swan_sequence(two_link_example, 1 / 16, 2.0, session=session)
    assert session.count == report.iterations > 1


# -- feasible-allocation fragment ----------------------------------------------


def test_fragment_counts_single_demand():
    prob = Problem(
        [Resource("e1", 2.0)], [Path("p1", ["e1"])], [Demand("d1", ["p1"])]
    )
    lp = build_feasible_alloc(prob)
    assert len(lp.variables) == 2  # rate + total
    assert len(lp.constraints) == 2  # total equality + capacity
    assert all(v.lower == 0.0 for v in lp.variables)


def test_fragment_counts_worked_example(two_link_example):
    lp = build_feasible_alloc(two_link_example)
    assert len(lp.variables) == 5  # 3 path rates + 2 totals
    caps = [c for c in lp.constraints if c.name.startswith("cap:")]
    assert len(caps) == 2
    assert all(a == 1.0 for c in caps for a in c.coeffs.values())


def test_fragment_consumption_scales_capacity_row():
    prob = Problem(
        [Resource("e1", 2.0)],
        [Path("p1", ["e1"])],
        [Demand("d1", ["p1"], consumption={"e1": 2.0})],
    )
    lp = build_feasible_alloc(prob)
    cap = next(c for c in lp.constraints if c.name == "cap:e1")
    assert cap.coeffs[rate_var("d1", "p1")] == 2.0


def test_fragment_admits_zero_allocation(two_link_example):
    lp = build_feasible_alloc(two_link_example)
    zero = {v.name: 0.0 for v in lp.variables}
    for c in lp.constraints:
        lhs = sum(a * zero[n] for n, a in c.coeffs.items())
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
    lp = build_feasible_alloc(prob)
    vols = [c for c in lp.constraints if c.name.startswith("volume:")]
    assert [c.name for c in vols] == ["volume:a"]
    assert vols[0].rhs == 1.0


def test_lp_text_dump_round_trips_structure():
    lp = build_feasible_alloc(
        Problem([Resource("e1", 2.0)], [Path("p1", ["e1"])], [Demand("d1", ["p1"])])
    )
    lp.objective = {total_var("d1"): 1.0}
    text = write_lp_text(lp)
    assert text.startswith("\\ feasible-alloc\nMaximize")
    assert "Subject To" in text and "End" in text
    # variable identifiers are sanitized for the interchange format
    bounds = text.split("Bounds\n")[1]
    assert ":" not in bounds
