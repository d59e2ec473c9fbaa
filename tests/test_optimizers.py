import math
import re
import warnings

import numpy as np
import pytest

import fairalloc.optimizers as opt
from fairalloc.bench import ALLOCATOR_IDS, run_allocator
from fairalloc.generate import TrafficSpec, generate_problem
from fairalloc.lp import (
    Constraint,
    LinearProgram,
    LpSolution,
    ScipyBackend,
    SimplexBackend,
    SolveSession,
)
from fairalloc.model import Demand, Path, Problem, Resource, check_feasible, total_allocation
from fairalloc.optimizers import (
    compute_equi_boundaries,
    equi_depth_elastic,
    equi_depth_multibin,
    exact_sequential_max_min,
    geo_binner,
    merge_boundaries,
    one_shot_exact,
    suggest_bin_config,
    swan_sequence,
)
from fairalloc.metrics import compare_rates
from fairalloc.report import report_to_dict
from fairalloc.waterfill import build_subdemands

from conftest import distinct_utility_instance, small_grid_instance, unit_qr_instance


def single_link(capacity, demands):
    paths = [Path(f"p{i}", ["L"]) for i in range(len(demands))]
    dem = [
        Demand(f"d{i}", [f"p{i}"], volume=vol, weight=w)
        for i, (vol, w) in enumerate(demands)
    ]
    return Problem([Resource("L", capacity)], paths, dem)


# -- exact sequential ------------------------------------------------------------


def test_exact_symmetric_split():
    prob = single_link(10.0, [(None, 1.0), (None, 1.0)])
    totals = total_allocation(prob, exact_sequential_max_min(prob).allocation)
    assert totals == pytest.approx({"d0": 5.0, "d1": 5.0})


def test_exact_worked_example(two_link_example):
    totals = total_allocation(
        two_link_example, exact_sequential_max_min(two_link_example).allocation
    )
    assert totals == pytest.approx({"d1": 0.75, "d2": 0.75})


def test_exact_weighted_shares():
    prob = single_link(9.0, [(None, 2.0), (None, 1.0)])
    totals = total_allocation(prob, exact_sequential_max_min(prob).allocation)
    assert totals == pytest.approx({"d0": 6.0, "d1": 3.0})


def test_exact_freezes_volume_limited_demand_first():
    prob = single_link(10.0, [(1.0, 1.0), (None, 1.0)])
    report = exact_sequential_max_min(prob)
    totals = total_allocation(prob, report.allocation)
    assert totals == pytest.approx({"d0": 1.0, "d1": 9.0})
    assert report.iterations == 2
    assert report.notes["frozen_ratios"]["d0"] == pytest.approx(1.0)


def test_exact_rejects_invalid_problem():
    bad = Problem([Resource("L", -1.0)], [Path("p", ["L"])], [Demand("d", ["p"])])
    with pytest.raises(ValueError, match="invalid problem"):
        exact_sequential_max_min(bad)


LP_ALLOCATORS = ["exact", "oneshot", "swan", "gb", "eb-elastic", "eb-multibin"]


@pytest.mark.parametrize(
    "allocator, u", [(a, None) for a in ALLOCATOR_IDS] + [("swan", 1.0), ("gb", 1.0)]
)
def test_lp_allocators_validate_before_estimating(allocator, u):
    # Every allocator refuses an invalid problem where it compiles it into
    # the subdemand incidence (build_subdemands): the waterfillers directly,
    # exact and oneshot in the LP fragment, swan, gb and the eb binners in
    # their estimate.  swan and gb with u set check first, since the ratio
    # bound that sizes their ladder divides by weights.  On a bounded demand
    # whose only path is empty, the waterfillers would fill the volume edge
    # alone.
    config = {} if u is None else {"u": u}
    for bad in [
        Problem([Resource("L", -1.0)], [Path("p", ["L"])], [Demand("d", ["p"])]),
        Problem([Resource("L", 1.0)], [Path("p", ["L"])], [Demand("d", ["p"], weight=0.0)]),
        Problem(
            [Resource("e", -1.0)], [Path("p", ["e"])], [Demand("a", ["p"]), Demand("b", ["p"])]
        ),
        Problem([Resource("L", 1.0)], [Path("p", [])], [Demand("d", ["p"], volume=1.0)]),
    ]:
        with pytest.raises(ValueError, match="invalid problem"):
            run_allocator(bad, allocator, config)


@pytest.mark.parametrize(
    "allocator, config",
    [(a, {}) for a in ALLOCATOR_IDS] + [("swan", {"u": 0.5}), ("gb", {"u": 0.5})],
)
def test_each_allocator_call_compiles_and_validates_the_problem_once(
    monkeypatch, allocator, config
):
    # swan, gb and the eb binners hand one compiled incidence to their
    # waterfill estimate and to their LP fragment.  Every module that looks
    # either function up gets a counting wrapper around its own binding.
    import fairalloc.bench as bench
    import fairalloc.waterfill as wf

    calls = {"build_subdemands": 0, "validate_problem": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (bench, opt, wf):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    report = run_allocator(single_link(10.0, [(None, 1.0), (2.0, 2.0)]), allocator, config)
    assert report.allocation.rates
    assert calls == {"build_subdemands": 1, "validate_problem": 1}


COUNT_KEYS = [(a, "iterations") for a in ("adaptive-waterfill", "eb-elastic", "eb-multibin")] + [
    (a, "bins") for a in ("swan", "gb", "eb-elastic", "eb-multibin")
]


@pytest.mark.parametrize("allocator, key", COUNT_KEYS)
def test_an_out_of_range_config_value_is_named_by_its_key(allocator, key):
    # The config key is also the `solve` flag; the message names it, not the
    # parameter of the function that checks it.
    with pytest.raises(ValueError) as err:
        run_allocator(single_link(1.0, [(None, 1.0), (2.0, 1.0)]), allocator, {key: 0})
    assert str(err.value).startswith(f"{key} must be >= 1")


@pytest.mark.parametrize("allocator, key", COUNT_KEYS)
def test_a_count_config_value_is_an_integer_or_an_integral_float(allocator, key):
    # JSON may write the count 2 as 2.0; 2.5 is no count, and is not rounded.
    prob = single_link(1.0, [(None, 1.0), (2.0, 1.0)])
    want = report_to_dict(prob, run_allocator(prob, allocator, {key: 2}))
    for same in (2.0, np.int64(2)):
        assert report_to_dict(prob, run_allocator(prob, allocator, {key: same})) == want
    with pytest.raises(ValueError) as err:
        run_allocator(prob, allocator, {key: 2.5})
    assert str(err.value).startswith(f"{key} must be an integer")


REAL_KEYS = [
    ("swan", "alpha"),
    ("swan", "u"),
    ("gb", "alpha"),
    ("gb", "u"),
    ("eb-elastic", "slack"),
]


@pytest.mark.parametrize("allocator, key", REAL_KEYS)
def test_a_real_config_value_is_a_number(allocator, key):
    # JSON may write 2.0 as 2; a string, a bool or null is no number and is
    # neither parsed nor passed on.
    prob = single_link(1.0, [(None, 1.0), (2.0, 1.0)])
    want = report_to_dict(prob, run_allocator(prob, allocator, {key: 2.0}))
    for v in (2, np.int64(2)):
        assert report_to_dict(prob, run_allocator(prob, allocator, {key: v})) == want
    for bad in ("0.5", True, None):
        with pytest.raises(ValueError) as err:
            run_allocator(prob, allocator, {key: bad})
        assert str(err.value).startswith(f"{key} must be a number, got {bad!r}")


NON_FINITE = [
    (a, config, message)
    for a in ("swan", "gb")
    for config, message in [
        ({"u": math.inf}, "u must be finite"),
        ({"alpha": math.inf}, "alpha must be finite"),
        ({"u": 1e308, "alpha": 10.0, "bins": 2}, "u * alpha^1 overflows"),
        ({"alpha": 1e10, "bins": 40}, "u * alpha^39 overflows"),  # alpha^39 alone overflows
    ]
] + [("eb-elastic", {"slack": v}, "slack must be finite") for v in (math.inf, math.nan)]


@pytest.mark.parametrize(
    "allocator, config, message",
    NON_FINITE,
    ids=[f"{a}-" + ",".join(f"{k}={v:g}" for k, v in c.items()) for a, c, _ in NON_FINITE],
)
def test_a_non_finite_ladder_or_slack_is_refused_by_name(allocator, config, message):
    # Unchecked, swan fails in LP validation naming a constraint, gb runs an
    # infinite rung and reports converged, and eb-elastic fails in LP
    # validation: none of them names the parameter.
    prob = generate_problem(5, 7, TrafficSpec("gravity", 8.0, 0), 4)
    with pytest.raises(ValueError, match=re.escape(message)):
        run_allocator(prob, allocator, config)


def test_a_ratio_that_overflows_leaks_no_warning():
    # The ladder [1e308] bounds each bin column near the float maximum, so the
    # simplex's ratio test divides 1e308 by a coefficient below 1: inf, which
    # only means that row sets no limit.
    prob = generate_problem(5, 7, TrafficSpec("gravity", 8.0, 0), 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_allocator(prob, "gb", {"u": 1e308, "alpha": 10})
    assert report.notes["converged"]
    assert check_feasible(prob, report.allocation).feasible


@pytest.mark.parametrize("allocator", LP_ALLOCATORS)
def test_all_zero_capacities_give_zero_rates(allocator):
    # no ratio is positive and the largest capacity is 0, so swan and gb
    # cannot take u from either
    prob = Problem(
        [Resource("e", 0.0)],
        [Path("p", ["e"])],
        [Demand("a", ["p"]), Demand("b", ["p"], volume=1.0)],
    )
    report = run_allocator(prob, allocator)
    assert check_feasible(prob, report.allocation).feasible
    assert total_allocation(prob, report.allocation) == {"a": 0.0, "b": 0.0}


# -- per-demand probe reference: one probe LP per unfrozen demand, the oracle for
# the dual-certified freezes ----------------------------------------------------


def per_demand_exact(problem):
    """Frozen ratios and totals of the LP sequence that, after each round,
    probes every unfrozen demand alone."""
    session = SolveSession(SimplexBackend())
    base, forms = opt.build_feasible_alloc(problem, "max-min")
    demands = dict(zip((d.id for d in problem.demands), forms))
    t = len(base.variables)  # the round LP's floor column
    frozen = {}

    def rows(floor):
        return base.constraints + [
            Constraint(rho, "==", frozen[k]) if k in frozen else floor(rho)
            for k, rho in demands.items()
        ]

    while len(frozen) < len(demands):
        sol = session.solve(
            LinearProgram(
                "round",
                base.variables + [None],
                rows(lambda rho: Constraint({**rho, t: -1.0}, ">=", 0.0)),
                [{t: 1.0}],
            )
        )
        t_i, last = sol.values[t], sol.values
        probe_rows = rows(lambda rho: Constraint(rho, ">=", t_i))
        probes = {
            k: session.solve(LinearProgram("probe", base.variables, probe_rows, [rho])).objective
            for k, rho in demands.items()
            if k not in frozen
        }
        newly = [k for k, v in probes.items() if v <= t_i + opt.FREEZE_TOL]
        for k in newly or [min(probes, key=lambda k: (probes[k], k))]:
            frozen[k] = t_i
    return frozen, total_allocation(problem, opt._allocation_from(problem, last))


def _close(got, want, rel=1e-6):
    assert got.keys() == want.keys()
    for k in want:
        assert abs(got[k] - want[k]) <= rel * max(1.0, abs(want[k])), k


class _ColdSession(SolveSession):
    """A session that drops every start, so each LP solves cold."""

    def solve(self, lp, start=None):
        return super().solve(lp)


@pytest.mark.parametrize(
    "make,seeds",
    [
        (small_grid_instance, range(15)),
        (distinct_utility_instance, range(8)),
        (unit_qr_instance, range(8)),
    ],
)
def test_grouped_probes_match_the_per_demand_reference(make, seeds):
    # (the name predates the dual-certified freezes that replaced grouped
    # probes) The sequence as it runs, each round after the first from the
    # last basis, and the cold sequence (every start dropped) both match.
    later_rounds = 0
    for seed in seeds:
        prob = make(seed)
        frozen, totals = per_demand_exact(prob)
        for session in (SolveSession(), _ColdSession()):
            report = exact_sequential_max_min(prob, session)
            _close(report.notes["frozen_ratios"], frozen, rel=1e-9)
            _close(total_allocation(prob, report.allocation), totals, rel=1e-9)
            assert report.converged
            assert report.lp_solves == report.iterations <= len(prob.demands)
        later_rounds += report.lp_solves - 1
    assert later_rounds > 0  # rounds that start from the last basis


def test_identical_demands_on_one_link_take_one_lp():
    prob = single_link(10.0, [(None, 1.0)] * 7)
    report = exact_sequential_max_min(prob)
    assert report.lp_solves == 1
    assert total_allocation(prob, report.allocation) == pytest.approx(
        {f"d{i}": 10.0 / 7 for i in range(7)}
    )


def test_exact_keeps_the_lp_count_low_on_a_wan_problem():
    prob = generate_problem(8, 12, TrafficSpec("uniform", 8.0, 0), 4)
    assert len(prob.demands) == 56
    assert exact_sequential_max_min(prob).lp_solves <= 20  # 8 at the time of writing


class _FloorDuals:
    """Backend wrapper that records each round LP's floor duals (-y_k)."""

    def __init__(self, backend, demands):
        self.backend, self.demands, self.rounds = backend, demands, []

    def solve(self, lp, start=None):
        sol = self.backend.solve(lp)
        tail = sol.duals[len(sol.duals) - len(self.demands) :]
        self.rounds.append({k: -y for k, y in zip(self.demands, tail)})
        return sol


def test_bottleneck_with_a_zero_dual_freezes_at_the_same_floor_later():
    # a (volume 1) and b share a link of capacity 2: both end at ratio 1, but
    # the optimum is degenerate (volume row and link row both tight), and the
    # optimal dual the solver returns puts all the weight on a's floor row
    prob = Problem(
        [Resource("L", 2.0)],
        [Path("pa", ["L"]), Path("pb", ["L"])],
        [Demand("a", ["pa"], volume=1.0), Demand("b", ["pb"])],
    )
    rec = _FloorDuals(SimplexBackend(), ["a", "b"])
    report = exact_sequential_max_min(prob, SolveSession(rec))
    assert rec.rounds[0] == {"a": 1.0, "b": 0.0}
    assert report.iterations == report.lp_solves == 2
    assert report.notes["frozen_ratios"] == {"a": 1.0, "b": 1.0}
    assert total_allocation(prob, report.allocation) == pytest.approx({"a": 1.0, "b": 1.0})


def test_zero_capacity_resource_freezes_its_demand_at_zero():
    prob = Problem(
        [Resource("Z", 0.0), Resource("L", 5.0)],
        [Path("pz", ["Z"]), Path("pl", ["L"])],
        [Demand("z", ["pz"]), Demand("l", ["pl"])],
    )
    report = exact_sequential_max_min(prob)
    assert report.notes["frozen_ratios"] == pytest.approx({"z": 0.0, "l": 5.0})
    assert report.iterations == report.lp_solves == 2
    assert check_feasible(prob, report.allocation).feasible


def test_floor_duals_summing_below_one_raise():
    class ZeroDuals:
        def solve(self, lp, start=None):
            # without the guard no demand would freeze and rounds would repeat
            assert lp.name == "max-min-round-1"
            sol = SimplexBackend().solve(lp)
            return LpSolution(sol.status, sol.values, sol.objective, (0.0,) * len(sol.duals))

    with pytest.raises(opt.AllocationError, match="max-min-round-1.*floor duals sum to 0"):
        exact_sequential_max_min(small_grid_instance(3), SolveSession(ZeroDuals()))


def test_exact_agrees_across_backends():
    # Under degeneracy the two solvers may return different optimal duals and
    # so freeze a bottlenecked demand one round apart; LP counts may differ,
    # the frozen ratios may not.
    problems = [small_grid_instance(s) for s in range(40)]
    problems += [distinct_utility_instance(s) for s in range(4)]
    for prob in problems:
        simplex = exact_sequential_max_min(prob, SolveSession(SimplexBackend()))
        highs = exact_sequential_max_min(prob, SolveSession(ScipyBackend()))
        want = total_allocation(prob, simplex.allocation)
        got = total_allocation(prob, highs.allocation)
        assert got == pytest.approx(want, rel=0, abs=1e-6)
        _close(highs.notes["frozen_ratios"], simplex.notes["frozen_ratios"])


def test_one_shot_under_highs_matches_exact():
    # HiGHS solves oneshot's levels in sequence, each held within 1e-9
    # relative of its optimum.  (gb and the EB binners are left out: their
    # LPs have several optimal vertices, so their totals depend on the
    # backend.)
    worst = 0.0
    for seed in range(40):
        prob = small_grid_instance(seed)
        want = total_allocation(prob, exact_sequential_max_min(prob).allocation)
        got = total_allocation(prob, one_shot_exact(prob, SolveSession(ScipyBackend())).allocation)
        worst = max(worst, max(abs(got[k] - want[k]) for k in want))
    assert worst <= 1e-6


class _Counted:
    """A backend that counts the LPs it solves, each from its start."""

    def __init__(self):
        self.lps = 0

    def solve(self, lp, start=None):
        self.lps += 1
        return SimplexBackend().solve(lp, start)


@pytest.mark.parametrize(
    "allocator", ["exact", "oneshot", "swan", "gb", "eb-elastic", "eb-multibin"]
)
def test_each_run_reports_the_lps_it_solved(allocator):
    # Two runs share one session: each report's lp_solves is the number of
    # LPs its own run handed the backend.
    backend = _Counted()
    session = SolveSession(backend)
    for prob in (small_grid_instance(3), distinct_utility_instance(1)):
        before = backend.lps
        report = run_allocator(prob, allocator, session=session)
        assert report.lp_solves == backend.lps - before
    assert allocator not in ("exact", "swan") or report.lp_solves > 1


# -- one-shot exact ----------------------------------------------------------------


def test_one_shot_single_demand_takes_the_link():
    prob = single_link(3.0, [(None, 1.0)])
    rep = one_shot_exact(prob)
    assert rep.lp_solves == 1
    assert rep.notes["sorted_ratios"] == pytest.approx([3.0])


def test_one_shot_worked_example(two_link_example):
    totals = total_allocation(
        two_link_example, one_shot_exact(two_link_example).allocation
    )
    assert totals == pytest.approx({"d1": 0.75, "d2": 0.75}, abs=1e-6)


def test_one_shot_matches_oracle_on_random_instance():
    prob = small_grid_instance(12345)
    want = total_allocation(prob, exact_sequential_max_min(prob).allocation)
    got = total_allocation(prob, one_shot_exact(prob).allocation)
    for k in want:
        assert got[k] == pytest.approx(want[k], abs=1e-5)


def _assert_one_shot_matches_exact(prob):
    want = total_allocation(prob, exact_sequential_max_min(prob).allocation)
    rep = one_shot_exact(prob)
    got = total_allocation(prob, rep.allocation)
    assert rep.converged
    for k in want:
        assert abs(got[k] - want[k]) <= 1e-9 * max(1.0, abs(want[k])), k


def test_one_shot_matches_exact_at_30_demands():
    # One objective level per sorted output: no weight underflows, however
    # many demands there are.
    prob = generate_problem(6, 8, TrafficSpec("gravity", 8.0, 0), 4)
    assert len(prob.demands) == 30
    _assert_one_shot_matches_exact(prob)


def test_one_shot_matches_exact_on_a_cluster_problem():
    # Jobs on two servers with non-unit weight, utility and consumption (the
    # benchmark's cluster-2x6 problem 2 of seed 900001).  Weights
    # 0.01^(i-1) on the sorted outputs missed exact here by 6.4e-3.
    cpu, mem = {"srv0": 64.0, "srv1": 64.0}, {"srv0": 256.0, "srv1": 128.0}
    jobs = [  # volume, weight, utility, cpu and mem per unit of rate
        (None, 1.0, 0.7361652045432788, 2.5350185696235092, 9.148999168072528),
        (7.9449346974065245, 4.0, 0.8771457020171755, 0.905181956618774, 2.2445482517357034),
        (2.117291549099047, 4.0, 0.7416281686768653, 2.998280577164673, 4.195821190366991),
        (6.2479692578412145, 2.0, 0.5093051468629597, 2.6761745873517095, 10.33958992623641),
        (6.299439934108101, 4.0, 0.6790996150133732, 3.1786742032167727, 3.54559200944205),
        (10.569106858776092, 2.0, 0.7180106000743413, 1.2699008233950908, 4.460326918142931),
    ]
    servers = ("srv0", "srv1")
    prob = Problem(
        [Resource(f"{s}:cpu", cpu[s]) for s in servers]
        + [Resource(f"{s}:mem", mem[s]) for s in servers],
        [Path(s, [f"{s}:cpu", f"{s}:mem"]) for s in servers],
        [
            Demand(
                f"j{i}",
                list(servers),
                volume,
                weight,
                dict.fromkeys(servers, q),
                {f"{s}:{kind}": r for s in servers for kind, r in (("cpu", c), ("mem", m))},
            )
            for i, (volume, weight, q, c, m) in enumerate(jobs)
        ],
    )
    _assert_one_shot_matches_exact(prob)


def test_one_shot_sorted_outputs_are_sorted(two_link_example):
    rep = one_shot_exact(two_link_example)
    t = rep.notes["sorted_ratios"]
    assert all(a <= b + 1e-9 for a, b in zip(t, t[1:]))


# -- capped sequence (SWAN) ---------------------------------------------------------


def test_swan_symmetric_link_resolves_ties_deterministically():
    # Vertex solutions of the per-iteration LPs cannot yield the interior
    # (5, 5) split; among equal reduced costs the built-in simplex enters the
    # lowest-index column, so the slack of the last unfair bin goes to the
    # earlier demand.  Fairness stays within alpha = 2.
    prob = single_link(10.0, [(None, 1.0), (None, 1.0)])
    rep = swan_sequence(prob, u=1.0, alpha=2.0)
    totals = total_allocation(prob, rep.allocation)
    assert totals == pytest.approx({"d0": 6.0, "d1": 4.0})
    assert rep.iterations == rep.lp_solves
    star = total_allocation(prob, exact_sequential_max_min(prob).allocation)
    for k in totals:
        assert star[k] / 2 - 1e-9 <= totals[k] <= 2 * star[k] + 1e-9


def test_swan_frozen_demand_keeps_rate():
    prob = single_link(10.0, [(0.5, 1.0), (None, 1.0)])
    rep = swan_sequence(prob, u=1.0, alpha=2.0)
    totals = total_allocation(prob, rep.allocation)
    assert totals["d0"] == pytest.approx(0.5)  # frozen at its volume in round 1
    assert totals["d1"] == pytest.approx(9.5)


def test_swan_volume_below_first_cap_freezes_after_round_one():
    prob = single_link(10.0, [(0.5, 1.0)])
    rep = swan_sequence(prob, u=1.0, alpha=2.0)
    assert total_allocation(prob, rep.allocation)["d0"] == pytest.approx(0.5)


def test_swan_close_to_oracle_for_symmetric_case():
    prob = single_link(10.0, [(None, 1.0), (None, 1.0)])
    star = total_allocation(prob, exact_sequential_max_min(prob).allocation)
    got = total_allocation(prob, swan_sequence(prob, 1.0, 2.0).allocation)
    assert sum(got.values()) == pytest.approx(sum(star.values()))


def test_swan_reports_unconverged_when_the_ladder_runs_out():
    prob = single_link(10.0, [(None, 1.0), (None, 1.0)])
    short = swan_sequence(prob, 0.1, 2.0, bins=2)
    totals = total_allocation(prob, short.allocation)
    assert totals == pytest.approx({"d0": 0.2, "d1": 0.2})
    assert not short.converged
    assert swan_sequence(prob, 0.1, 2.0).converged


def test_swan_from_the_last_basis_matches_the_cold_sequence_where_rungs_are_unique():
    # distinct per-path utilities give each rung LP a unique optimum, so the
    # start may change the pivots but not the totals or the rung count
    later_rungs = 0
    for seed in range(16):
        prob = distinct_utility_instance(seed)
        warm = swan_sequence(prob, 0.3, 2.0)
        cold = swan_sequence(prob, 0.3, 2.0, session=_ColdSession())
        assert warm.lp_solves == cold.lp_solves
        want = total_allocation(prob, cold.allocation)
        _close(total_allocation(prob, warm.allocation), want, rel=1e-9)
        later_rungs += warm.lp_solves - 1
    assert later_rungs > 0


# -- geometric binner ------------------------------------------------------------


def test_ladder_validation():
    prob = single_link(1.0, [(None, 1.0)])
    with pytest.raises(ValueError, match="u must be > 0"):
        suggest_bin_config(prob, u=0.0)
    with pytest.raises(ValueError, match="alpha must be > 1"):
        suggest_bin_config(prob, alpha=1.0, u=1.0)
    with pytest.raises(ValueError, match="^bins must be >= 1"):
        suggest_bin_config(prob, u=1.0, bins=0)
    assert suggest_bin_config(prob, u=1.0, bins=3) == [1.0, 2.0, 4.0]
    assert geo_binner(prob, u=1.0, bins=3).converged


def test_single_demand_saturates_first_bin_exactly():
    prob = single_link(1.0, [(None, 1.0)])
    rep = geo_binner(prob, u=1.0, bins=4)
    bins = rep.notes["bins"]["d0"]
    assert bins[0] == pytest.approx(1.0)
    assert all(b == pytest.approx(0.0, abs=1e-9) for b in bins[1:])


def test_geo_binner_matches_swan_on_worked_example(two_link_example):
    gb = geo_binner(two_link_example, u=1 / 16, alpha=2.0, bins=6)
    sw = swan_sequence(two_link_example, u=1 / 16, alpha=2.0, bins=6)
    tg = total_allocation(two_link_example, gb.allocation)
    ts = total_allocation(two_link_example, sw.allocation)
    for k in tg:
        assert tg[k] == pytest.approx(ts[k], abs=1e-6)
    assert gb.lp_solves == 1


def test_geo_binner_bin_prefix_property(two_link_example):
    rep = geo_binner(two_link_example, u=1 / 16, alpha=2.0, bins=6)
    caps = rep.notes["bin_caps"]
    for bins in rep.notes["bins"].values():
        for b in range(1, len(bins)):
            if bins[b] > 1e-9:
                for j in range(b):
                    assert bins[j] >= caps[j] - 1e-9


def test_geo_binner_allocation_is_feasible(two_link_example):
    rep = geo_binner(two_link_example, 1 / 16, 2.0, 6)
    assert check_feasible(two_link_example, rep.allocation).feasible


def test_geo_binner_reports_truncation_at_the_top_of_the_ladder():
    # u is 0.9 of the estimated ratio 5, so a one-bin ladder stops at 4.5
    prob = Problem(
        [Resource("L", 1.0)], [Path("p", ["L"])], [Demand("d", ["p"], utility={"p": 5.0})]
    )
    rep = run_allocator(prob, "gb", {"bins": 1})
    assert total_allocation(prob, rep.allocation)["d"] == pytest.approx(4.5)
    exact = exact_sequential_max_min(prob).allocation
    assert total_allocation(prob, exact)["d"] == pytest.approx(5.0)
    assert not rep.converged
    assert "coverage" in rep.notes


def test_default_ladder_covers_utility_above_one():
    # A path of utility 5 turns one unit of capacity into a ratio of 5.
    prob = Problem(
        [Resource("L", 1.0)], [Path("p", ["L"])], [Demand("d", ["p"], utility={"p": 5.0})]
    )
    assert opt.achievable_ratio_bound(prob) == pytest.approx(5.0)
    for allocator in ("gb", "swan"):
        rep = run_allocator(prob, allocator)
        assert total_allocation(prob, rep.allocation)["d"] == pytest.approx(5.0)
        assert rep.converged
        assert "coverage" not in rep.notes


def test_default_ladder_covers_consumption_below_one():
    # Consumption 0.1 lets each demand carry up to 10 on a capacity-1 link.
    prob = Problem(
        [Resource("L", 1.0)],
        [Path("p0", ["L"]), Path("p1", ["L"])],
        [Demand(f"d{i}", [f"p{i}"], consumption={"L": 0.1}) for i in range(2)],
    )
    assert opt.achievable_ratio_bound(prob) == pytest.approx(10.0)
    rep = run_allocator(prob, "gb")
    totals = total_allocation(prob, rep.allocation)
    assert sum(totals.values()) == pytest.approx(10.0)
    for rate in totals.values():  # the exact rate is 5; gb stays within alpha = 2
        assert 5.0 / 2 - 1e-9 <= rate <= 5.0 * 2 + 1e-9
    assert rep.converged
    assert "coverage" not in rep.notes


def test_geo_binner_converges_on_a_wan_problem():
    prob = generate_problem(6, 8, TrafficSpec("gravity", 8.0, 3), 4)
    rep = run_allocator(prob, "gb")
    assert rep.converged
    assert "coverage" not in rep.notes


def test_suggest_bin_config_covers_range():
    prob = single_link(10.0, [(None, 1.0), (None, 1.0)])
    ladder = suggest_bin_config(prob, alpha=2.0)
    assert ladder[0] > 0
    assert ladder[-2] < opt.achievable_ratio_bound(prob) <= ladder[-1]
    rep = geo_binner(prob, alpha=2.0)
    assert rep.notes["boundaries"] == ladder


def test_swan_and_gb_share_the_default_ladder():
    prob = generate_problem(5, 7, TrafficSpec("gravity", 8.0, 0), 4)
    sw, gb = run_allocator(prob, "swan"), run_allocator(prob, "gb")
    caps = [sw.notes["u"] * sw.notes["alpha"] ** b for b in range(sw.notes["ladder"])]
    assert len(caps) > 2
    assert caps == gb.notes["boundaries"] == suggest_bin_config(prob)


def test_gb_weighs_the_whole_default_ladder_on_a_wide_span():
    # u is just under 1e-6 and the bound is 1e6: the ladder needs 42 rungs,
    # one objective level each.
    prob = Problem(
        [Resource("L", 1e6)],
        [Path("p0", ["L"]), Path("p1", ["L"])],
        [Demand("small", ["p0"], volume=1e-6), Demand("big", ["p1"])],
    )
    ladder = suggest_bin_config(prob)
    assert len(ladder) == 42
    rep = run_allocator(prob, "gb")
    assert rep.notes["boundaries"] == ladder
    assert check_feasible(prob, rep.allocation).feasible
    assert rep.converged
    assert "coverage" not in rep.notes
    totals = total_allocation(prob, rep.allocation)
    assert totals == total_allocation(prob, run_allocator(prob, "swan").allocation)
    assert totals["small"] == pytest.approx(1e-6)
    assert totals["big"] == pytest.approx(1e6 - 1e-6)
    asked = run_allocator(prob, "gb", {"bins": len(ladder)})
    assert asked.allocation == rep.allocation


# -- equi-depth binners ------------------------------------------------------------


def test_boundaries_basic_grouping():
    bounds, groups = compute_equi_boundaries(
        {"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0}, 2
    )
    assert groups == [["a", "b"], ["c", "d"]]
    assert bounds == [2.0, 4.0]


def test_boundaries_all_equal_rates_then_merge():
    bounds, groups = compute_equi_boundaries({"a": 1.0, "b": 1.0, "c": 1.0}, 3)
    assert bounds == [1.0, 1.0, 1.0]
    assert merge_boundaries(bounds) == [1.0]


def test_boundaries_order_rounding_ties_by_id():
    # Two estimates one ulp apart are a tie: the id orders them, whichever of
    # the two carries the rounding error, and each boundary is its group's
    # largest estimate.
    one, up = 1.0, float(np.nextafter(1.0, 2.0))
    for rates in ({"a": up, "b": one, "c": 3.0}, {"a": one, "b": up, "c": 3.0}):
        bounds, groups = compute_equi_boundaries(rates, 3)
        assert groups == [["a"], ["b"], ["c"]]
        assert bounds == [rates["a"], rates["b"], 3.0]
    bounds, groups = compute_equi_boundaries({"a": up, "b": one, "c": one, "d": 2.0}, 2)
    assert groups == [["a", "b"], ["c", "d"]]
    assert bounds == [up, 2.0]
    assert merge_boundaries(compute_equi_boundaries({"a": up, "b": one}, 2)[0]) == [up]


def test_boundaries_six_demands_three_bins():
    rates = {f"d{i}": float(i) for i in range(6)}
    _, groups = compute_equi_boundaries(rates, 3)
    assert [len(g) for g in groups] == [2, 2, 2]


def test_boundaries_validation():
    with pytest.raises(ValueError, match="empty"):
        compute_equi_boundaries({}, 1)
    with pytest.raises(ValueError, match=r"^bins=2 exceeds the number of demands \(1\)$"):
        compute_equi_boundaries({"a": 1.0}, bins=2)
    with pytest.raises(ValueError, match=r"^bins must be >= 1$"):
        compute_equi_boundaries({"a": 1.0}, bins=0)


def test_elastic_single_bin_maximizes_ratio_sum():
    prob = single_link(10.0, [(None, 1.0), (None, 1.0)])
    rep = equi_depth_elastic(prob, bins=1)
    totals = total_allocation(prob, rep.allocation)
    assert sum(totals.values()) == pytest.approx(10.0)
    assert rep.lp_solves == 1


def test_elastic_symmetric_split_is_fair():
    # One demand per group; the slack floor (1e-6 x the largest estimate, 5)
    # lets the lower group's ratio reach l_1 + s, so the split is off by s/2.
    prob = single_link(10.0, [(None, 1.0), (None, 1.0)])
    rep = equi_depth_elastic(prob, bins=2)
    totals = total_allocation(prob, rep.allocation)
    slack = rep.notes["slack"][0]
    assert slack == pytest.approx(5e-6)
    assert totals["d0"] >= totals["d1"]
    for total in totals.values():
        assert abs(total - 5.0) <= slack / 2 + 1e-12


def test_elastic_slack_is_one_float_for_every_bin():
    prob = single_link(10.0, [(None, 1.0), (None, 1.0), (None, 2.0), (None, 2.0)])
    rep = equi_depth_elastic(prob, bins=2, slack=0.3)
    assert rep.notes["slack"] == [0.3, 0.3]
    with pytest.raises(ValueError, match="nonnegative"):
        equi_depth_elastic(prob, bins=2, slack=-0.1)


def test_elastic_checks_its_parameters():
    prob = single_link(10.0, [(None, 1.0)] * 8)
    assert len(equi_depth_elastic(prob, bins=8).notes["groups"]) == 8  # one level each
    with pytest.raises(ValueError, match="^bins must be >= 1"):
        equi_depth_elastic(prob, bins=0)
    with pytest.raises(ValueError, match="^iterations must be >= 1"):
        equi_depth_elastic(prob, iterations=0)


def test_elastic_builds_at_most_one_group_per_demand():
    # 30 bins asked of 3 demands build 3 groups, one objective level each.
    prob = single_link(10.0, [(None, 1.0), (4.0, 1.0), (2.0, 2.0)])
    many = run_allocator(prob, "eb-elastic", {"bins": 30})
    three = run_allocator(prob, "eb-elastic", {"bins": 3})
    assert len(three.notes["groups"]) == 3
    assert many.allocation == three.allocation
    assert many.notes == three.notes


def test_equi_depth_bin_count_defaults_to_half_the_demands_in_2_to_8():
    for n, bins in ((2, 2), (6, 3), (40, 8)):
        prob = single_link(10.0, [(None, 1.0)] * n)
        assert len(equi_depth_elastic(prob).notes["groups"]) == bins


def test_elastic_is_at_least_as_fair_as_geo_binner_on_worked_example(two_link_example):
    star = total_allocation(
        two_link_example, exact_sequential_max_min(two_link_example).allocation
    )
    eb = equi_depth_elastic(two_link_example, bins=2)
    gb = geo_binner(two_link_example, 1 / 16, 2.0, 6)
    q_eb = compare_rates(
        two_link_example, total_allocation(two_link_example, eb.allocation), star
    ).fairness_geomean
    q_gb = compare_rates(
        two_link_example, total_allocation(two_link_example, gb.allocation), star
    ).fairness_geomean
    assert q_eb >= q_gb - 1e-9


def binned(prob, boundaries):
    """The binned LP that gb and eb-multibin solve, over a given ladder."""
    return opt._binned(prob, build_subdemands(prob), boundaries, None, "equi-depth-multibin")


def test_multibin_with_geometric_boundaries_equals_geo_binner(two_link_example):
    mb = binned(two_link_example, [1 / 16 * 2.0**b for b in range(6)])
    gb = geo_binner(two_link_example, u=1 / 16, alpha=2.0, bins=6)
    tm = total_allocation(two_link_example, mb.allocation)
    tg = total_allocation(two_link_example, gb.allocation)
    for k in tm:
        assert tm[k] == pytest.approx(tg[k], abs=1e-9)


def test_multibin_single_boundary_caps_rate():
    prob = single_link(3.0, [(5.0, 1.0)])
    rep = binned(prob, [3.0])
    assert total_allocation(prob, rep.allocation)["d0"] == pytest.approx(3.0)
    prob2 = single_link(3.0, [(2.0, 1.0)])
    rep2 = binned(prob2, [3.0])
    assert total_allocation(prob2, rep2.allocation)["d0"] == pytest.approx(2.0)


def test_multibin_reports_truncation_at_its_top_boundary():
    # Both demands could get 5, but the top boundary stops them at 3.
    prob = single_link(10.0, [(None, 1.0), (None, 1.0)])
    rep = binned(prob, [1.0, 3.0])
    assert total_allocation(prob, rep.allocation) == pytest.approx({"d0": 3.0, "d1": 3.0})
    assert not rep.converged
    assert "coverage" in rep.notes
    roomy = binned(prob, [1.0, 5.0, 10.0])
    assert total_allocation(prob, roomy.allocation) == pytest.approx({"d0": 5.0, "d1": 5.0})
    assert roomy.converged
    assert "coverage" not in roomy.notes


def test_multibin_rejects_bad_boundaries(two_link_example):
    with pytest.raises(ValueError, match="increasing"):
        binned(two_link_example, [1.0, 1.0])
    with pytest.raises(ValueError, match="increasing"):
        binned(two_link_example, [2.0, 1.0])
    with pytest.raises(ValueError, match="overflows"):  # 1e300 * 1e10^2 is inf
        geo_binner(two_link_example, u=1e300, alpha=1e10, bins=3)


def test_multibin_bin_prefix_on_random_instance():
    prob = distinct_utility_instance(4)
    rep = binned(prob, [0.3, 0.6, 1.2])
    caps = rep.notes["bin_caps"]
    for bins in rep.notes["bins"].values():
        for b in range(1, len(bins)):
            if bins[b] > 1e-9:
                for j in range(b):
                    assert bins[j] >= caps[j] - 1e-9


def test_all_optimizer_allocations_are_feasible():
    for seed in (1, 5, 9):
        prob = distinct_utility_instance(seed)
        reports = [
            exact_sequential_max_min(prob),
            swan_sequence(prob, 0.3, 2.0),
            geo_binner(prob, alpha=2.0),
            equi_depth_elastic(prob, bins=2),
            equi_depth_multibin(prob, bins=2),
        ]
        for rep in reports:
            assert check_feasible(prob, rep.allocation).feasible
