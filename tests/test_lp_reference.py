"""Two oracles for the LP layer.

* The simplex core against `simplex_reference`, the loop it replaced:
  status, values, duals and step count must agree bit for bit on random
  corpora and on every LP the six LP allocators solve.
* The allocators' LPs, which write each demand's ratio as a linear form over
  its rate columns, against the same LPs built the older way, with one
  ratio column rho_k per demand tied to the rates by a row
  `sum_p q_k^p f_k^p - w_k rho_k = 0`: equal optima, equal totals for the
  exact allocators and equal round counts for the LP sequence.
"""

import numpy as np
import pytest

import fairalloc.lp as lp_module
from fairalloc.bench import run_allocator
from fairalloc.generate import TrafficSpec, generate_problem
from fairalloc.lp import Constraint, LinearProgram, SimplexBackend, SolveSession
from fairalloc.model import total_allocation
from fairalloc.optimizers import DUAL_TOL, FREEZE_TOL, _allocation_from, build_feasible_alloc
from fairalloc.sortnet import build_sorting_network

from conftest import distinct_utility_instance, small_grid_instance
from simplex_reference import _simplex_core as reference_core
from test_lp import _random_lp, _random_zero_rhs_lp

LP_ALLOCATORS = ["exact", "oneshot", "swan", "gb", "eb-elastic", "eb-multibin"]


class _Recording:
    def __init__(self):
        self.lps, self.solutions = [], []

    def solve(self, lp):
        self.lps.append(lp)
        self.solutions.append(SimplexBackend().solve(lp))
        return self.solutions[-1]


def _run(problem, allocator, config=None):
    """The allocator's report and the LPs it solved, with their solutions."""
    rec = _Recording()
    return run_allocator(problem, allocator, config, session=SolveSession(rec)), rec


def _problems():
    return [small_grid_instance(s) for s in range(8)] + [
        distinct_utility_instance(s) for s in range(4)
    ]


# -- the simplex core against the reference loop --------------------------------


def _bits(a):
    return None if a is None else (a.dtype.str, a.shape, a.tobytes())


def _assert_bit_identical(lp):
    sf = lp_module._standard_form(lp)
    got, want = lp_module._simplex_core(sf, lp.name), reference_core(sf, lp.name)
    assert (got[0], got[3]) == (want[0], want[3]), lp.name
    assert _bits(got[1]) == _bits(want[1]), lp.name  # values, -0.0 included
    assert _bits(got[2]) == _bits(want[2]), lp.name  # duals


@pytest.mark.parametrize("corpus, seed", [(_random_lp, 11), (_random_zero_rhs_lp, 41)])
def test_simplex_core_matches_the_reference_bit_for_bit_on_random_lps(corpus, seed):
    rng = np.random.default_rng(seed)
    statuses = set()
    for trial in range(300):
        lp = corpus(rng, trial)
        _assert_bit_identical(lp)
        statuses.add(lp_module._simplex_core(lp_module._standard_form(lp), lp.name)[0])
    assert "optimal" in statuses and len(statuses) > 1


def test_simplex_core_matches_the_reference_bit_for_bit_on_allocator_lps():
    wan = generate_problem(8, 12, TrafficSpec("uniform", 8.0, 0), 4)
    solved = 0
    for problem in _problems() + [wan]:
        for allocator in LP_ALLOCATORS:
            try:
                _, rec = _run(problem, allocator)
            except ValueError:  # oneshot's epsilon guard refuses the 56 demands
                assert allocator == "oneshot" and problem is wan
                continue
            for lp in rec.lps:
                _assert_bit_identical(lp)
            solved += len(rec.lps)
    assert solved > 100  # 130 at the time of writing


# -- form-based LPs against the ratio-column LPs ---------------------------------


def _ratio_column_fragment(problem, name):
    """The fragment with a ratio column per demand after the rate columns
    and a ratio row per demand after the volume and capacity rows."""
    lp, _ = build_feasible_alloc(problem, name)
    rho = [lp.add_variable() for _ in problem.demands]
    first = 0
    for d, r in zip(problem.demands, rho):
        coeffs = {first + i: d.utility_on(pid) for i, pid in enumerate(d.paths)}
        coeffs[r] = -d.weight
        lp.add_constraint(coeffs, "==", 0.0, name=f"ratio:{d.id}")
        first += len(d.paths)
    return lp, rho


def _ratio_column_exact(problem):
    """The LP sequence over ratio columns: round objectives and the last
    round's values."""
    demands = [d.id for d in problem.demands]
    base, rho = _ratio_column_fragment(problem, "max-min")
    t = base.add_variable()
    floor_row = len(base.constraints)
    frozen, objectives, values = {}, [], []
    while len(frozen) < len(demands):
        rows = [
            Constraint({r: 1.0}, "==", frozen[k]) if k in frozen
            else Constraint({r: 1.0, t: -1.0}, ">=", 0.0)
            for k, r in zip(demands, rho)
        ]
        sol = SimplexBackend().solve(
            LinearProgram("round", base.variables, base.constraints + rows, {t: 1.0})
        )
        objectives.append(sol.objective)
        values = sol.values
        for i, k in enumerate(demands):
            if k not in frozen and -sol.duals[floor_row + i] > DUAL_TOL:
                frozen[k] = sol.values[t]
    return objectives, values


def _ratio_column_oneshot(problem, epsilon):
    """The sorting network with a lo and a hi column per comparator, tied by
    a row `hi + lo - x - y = 0`."""
    lp, wires = _ratio_column_fragment(problem, "one-shot-exact")
    wires = list(wires)
    for i, j in build_sorting_network(len(wires)).comparators:
        lo, hi = lp.add_variable(), lp.add_variable()
        lp.add_constraint({lo: 1.0, wires[i]: -1.0}, "<=", 0.0)
        lp.add_constraint({lo: 1.0, wires[j]: -1.0}, "<=", 0.0)
        lp.add_constraint({hi: 1.0, lo: 1.0, wires[i]: -1.0, wires[j]: -1.0}, "==", 0.0)
        wires[i], wires[j] = lo, hi
    lp.objective = {w: epsilon**pos for pos, w in enumerate(wires)}
    sol = SimplexBackend().solve(lp)
    return [sol.objective], sol.values


def _ratio_column_swan(problem, caps):
    base, rho = _ratio_column_fragment(problem, "capped-seq")
    objective = dict.fromkeys(rho, 1.0)
    frozen, prev, objectives = {}, {}, []
    for b, cap in enumerate(caps, start=1):
        rows = []
        for d, r in zip(problem.demands, rho):
            if d.id in frozen:
                rows.append(Constraint({r: 1.0}, "==", frozen[d.id]))
            else:
                rows.append(Constraint({r: 1.0}, "<=", cap))
                if b > 1:
                    rows.append(Constraint({r: 1.0}, ">=", prev[d.id]))
        sol = SimplexBackend().solve(
            LinearProgram("capped", base.variables, base.constraints + rows, objective)
        )
        objectives.append(sol.objective)
        for d, r in zip(problem.demands, rho):
            if d.id not in frozen:
                prev[d.id] = sol.values[r]
                if prev[d.id] < cap - FREEZE_TOL * max(1.0, cap):
                    frozen[d.id] = prev[d.id]
        if len(frozen) == len(problem.demands):
            break
    return objectives, sol.values


def _ratio_column_binned(problem, notes):
    lp, rho = _ratio_column_fragment(problem, notes["allocator"])
    objective = {}
    for r in rho:
        cols = [lp.add_variable(upper=cap) for cap in notes["bin_caps"]]
        objective.update({y: notes["epsilon"] ** b for b, y in enumerate(cols)})
        lp.add_constraint({r: -1.0, **dict.fromkeys(cols, 1.0)}, "==", 0.0)
    lp.objective = objective
    sol = SimplexBackend().solve(lp)
    return [sol.objective], sol.values


def _ratio_column_elastic(problem, notes):
    lp, rho = _ratio_column_fragment(problem, "equi-depth-elastic")
    groups, slack, epsilon = notes["groups"], notes["slack"], notes["epsilon"]
    bounds = [lp.add_variable() for _ in groups]
    index_of = {d.id: i for i, d in enumerate(problem.demands)}
    for b, group in enumerate(groups):
        for k in group:
            i = index_of[k]
            if b > 0:
                lp.add_constraint({rho[i]: 1.0, bounds[b - 1]: -1.0}, ">=", 0.0)
            if b < len(groups) - 1:
                lp.add_constraint({rho[i]: 1.0, bounds[b]: -1.0}, "<=", slack[b])
            lp.objective[rho[i]] = epsilon**b
    sol = SimplexBackend().solve(lp)
    return [sol.objective], sol.values


def _ratio_column_lps(problem, allocator, report):
    notes = report.notes
    if allocator == "exact":
        return _ratio_column_exact(problem)
    if allocator == "oneshot":
        return _ratio_column_oneshot(problem, notes["epsilon"])
    if allocator == "swan":
        return _ratio_column_swan(problem, [notes["u"] * 2.0**b for b in range(notes["ladder"])])
    if allocator == "eb-elastic":
        return _ratio_column_elastic(problem, notes)
    return _ratio_column_binned(problem, notes)


def _own_columns(problem, allocator, notes):
    """The columns an allocator adds to the rate columns."""
    if allocator == "exact":
        return 1  # the floor t
    if allocator == "oneshot":
        return notes["comparators"]  # lo per comparator
    if allocator == "swan":
        return 0
    if allocator == "eb-elastic":
        return len(notes["groups"])  # a boundary per group
    return len(problem.demands) * len(notes["bin_caps"])  # y_kb


@pytest.mark.parametrize("allocator", LP_ALLOCATORS)
def test_form_lps_match_the_ratio_column_lps(allocator):
    for problem in _problems():
        report, rec = _run(problem, allocator)
        rates = sum(len(d.paths) for d in problem.demands)
        for lp in rec.lps:  # no ratio row, no ratio column
            assert not [c.name for c in lp.constraints if c.name.startswith("ratio:")]
            assert len(lp.variables) == rates + _own_columns(problem, allocator, report.notes)
        objectives, values = _ratio_column_lps(problem, allocator, report)
        got = [sol.objective for sol in rec.solutions]
        assert len(got) == len(objectives)  # exact: equal round counts
        for a, b in zip(got, objectives):
            assert abs(a - b) <= 1e-9 * max(1.0, abs(b)), (allocator, got, objectives)
        if allocator in ("exact", "oneshot"):
            assert report.iterations == (len(objectives) if allocator == "exact" else 1)
            want = total_allocation(problem, _allocation_from(problem, values))
            got_totals = total_allocation(problem, report.allocation)
            for k in want:
                assert abs(got_totals[k] - want[k]) <= 1e-9 * max(1.0, abs(want[k])), k


def test_oneshot_lp_starts_feasible_with_one_column_and_two_rows_per_comparator():
    # A comparator's max output is the form x + y - lo, so every row is "<="
    # with a right-hand side >= 0 and the all-slack start is feasible.
    for problem in _problems():
        report, rec = _run(problem, "oneshot")
        (lp,) = rec.lps
        fragment, _ = build_feasible_alloc(problem)
        comparators = report.notes["comparators"]
        assert len(lp.variables) == len(fragment.variables) + comparators
        assert len(lp.constraints) == len(fragment.constraints) + 2 * comparators
        assert all(c.relation == "<=" and c.rhs >= 0.0 for c in lp.constraints)
        assert all(a != 0.0 for c in lp.constraints for a in c.coeffs.values())
        assert all(a != 0.0 for a in lp.objective.values())


def test_oneshot_matches_the_ratio_column_lp_where_lo_columns_cancel():
    problem = generate_problem(5, 7, TrafficSpec("gravity", 8.0, 0), 4)  # D = 20
    report, rec = _run(problem, "oneshot", {"epsilon": 0.25})
    (lp,) = rec.lps
    # The comparator rows' nonzeros if no lo column ever cancelled: a row is
    # lo and a wire, and a max output holds both wires and lo.
    sizes = [len(d.paths) for d in problem.demands]
    uncancelled = 0
    for i, j in build_sorting_network(len(sizes)).comparators:
        uncancelled += sizes[i] + sizes[j] + 2
        sizes[i], sizes[j] = 1, sizes[i] + sizes[j] + 1
    fragment, _ = build_feasible_alloc(problem)
    rows = lp.constraints[len(fragment.constraints) :]
    assert sum(len(c.coeffs) for c in rows) < uncancelled

    (objective,), values = _ratio_column_oneshot(problem, 0.25)
    assert abs(rec.solutions[0].objective - objective) <= 1e-9 * max(1.0, abs(objective))
    want = total_allocation(problem, _allocation_from(problem, values))
    got = total_allocation(problem, report.allocation)
    for k in want:
        assert abs(got[k] - want[k]) <= 1e-9 * max(1.0, abs(want[k])), k


# -- objectives: each allocator's stated objective, no per-demand factor ----------


def test_swan_and_the_binners_weigh_only_their_levels():
    # swan maximises the ratio sum; a gb or eb-multibin bin column at level b
    # weighs epsilon^b; an eb-elastic demand in group b weighs epsilon^b on
    # its ratio form, epsilon^b * q / w per rate column.
    for problem in [small_grid_instance(s) for s in range(4)]:
        _, forms = build_feasible_alloc(problem)
        rates = sum(len(d.paths) for d in problem.demands)
        _, rec = _run(problem, "swan")
        want = {j: a for form in forms for j, a in form.items()}
        assert all(lp.objective == want for lp in rec.lps)
        for allocator in ("gb", "eb-multibin"):
            report, rec = _run(problem, allocator)
            (lp,) = rec.lps
            epsilon = report.notes["epsilon"]
            levels = {}
            for c in lp.constraints:
                if c.name.startswith("bins:"):
                    cols = sorted(j for j in c.coeffs if j >= rates)
                    levels.update({y: epsilon**b for b, y in enumerate(cols)})
            assert len(levels) == len(problem.demands) * len(report.notes["bin_caps"])
            assert lp.objective == levels, allocator
        report, rec = _run(problem, "eb-elastic")
        (lp,) = rec.lps
        epsilon = report.notes["epsilon"]
        index_of = {d.id: i for i, d in enumerate(problem.demands)}
        want = {
            j: epsilon**b * a
            for b, group in enumerate(report.notes["groups"])
            for k in group
            for j, a in forms[index_of[k]].items()
        }
        assert lp.objective == want


def test_swan_and_the_binners_do_not_move_with_the_optimality_tolerance(monkeypatch):
    # A tighter optimality tolerance returns the same totals on these D = 20
    # problems: no answer rests on a reduced cost between the two tolerances.
    problems = [
        generate_problem(5, 7, TrafficSpec(traffic, 8.0, seed), 4)
        for traffic in ("gravity", "uniform")
        for seed in range(8)
    ]

    def totals():
        return [
            total_allocation(p, run_allocator(p, a).allocation)
            for p in problems
            for a in ("gb", "swan", "eb-elastic")
        ]

    want = totals()
    monkeypatch.setattr(lp_module, "OPT_TOL", 1e-15)
    for got, ref in zip(totals(), want):
        for k in ref:
            assert abs(got[k] - ref[k]) <= 1e-9 * max(1.0, abs(ref[k])), k

