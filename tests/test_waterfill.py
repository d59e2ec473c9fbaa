import csv
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fairalloc.waterfill as wf
from fairalloc.bench import run_allocator
from fairalloc.generate import TrafficSpec, generate_problem
from fairalloc.model import (
    Allocation,
    Demand,
    Path,
    Problem,
    Resource,
    check_feasible,
    total_allocation,
)
from fairalloc.waterfill import (
    adaptive_waterfill,
    approx_waterfill,
    build_subdemands,
    is_bandwidth_bottlenecked,
    single_path_waterfill,
    theta_trace_csv,
)

from conftest import small_grid_instance, unit_qr_instance


def dense(m):
    """Dense (rows x columns) views of the CSR gamma and consumption."""
    gamma = np.zeros((len(m.rows), len(m.columns)))
    cons = np.zeros_like(gamma)
    for e in range(len(m.rows)):
        nz = slice(m.indptr[e], m.indptr[e + 1])
        gamma[e, m.indices[nz]] = m.gamma[nz]
        cons[e, m.indices[nz]] = m.consumption[nz]
    return gamma, cons


# -- dense reference: rows x columns waterfillers, the oracle for the CSR ones ---


def _dense_active(gamma, cons):
    if np.any(cons.sum(axis=0) <= 0.0):
        raise ValueError("subdemand lies on no resource")
    return gamma.sum(axis=0) > 0.0


def dense_single_path_waterfill(gamma, cons, capacities):
    active = _dense_active(gamma, cons)
    n_rows, n_cols = gamma.shape
    caps = np.array(capacities, dtype=float)
    live = np.ones(n_rows, dtype=bool)
    rates = np.zeros(n_cols)
    while active.any():
        load = (gamma * cons) @ active.astype(float)
        eligible = live & (load > 0.0)
        if not eligible.any():
            break
        share = np.full(n_rows, np.inf)
        share[eligible] = np.maximum(caps[eligible], 0.0) / load[eligible]
        e = int(np.argmin(share))
        zeta = share[e]
        fixed = active & (gamma[e] > 0.0)
        rates[fixed] = zeta * gamma[e, fixed]
        caps -= cons[:, fixed] @ rates[fixed]
        live[e] = False
        active &= ~fixed
    return rates


def dense_approx_waterfill(gamma, cons, capacities):
    active = _dense_active(gamma, cons)
    n_rows, n_cols = gamma.shape
    caps = np.array(capacities, dtype=float)
    rates = np.zeros(n_cols)
    rates[active] = np.inf
    load = (gamma * cons) @ active.astype(float)
    share = np.full(n_rows, np.inf)
    share[load > 0.0] = caps[load > 0.0] / load[load > 0.0]
    for e in np.argsort(share, kind="stable"):
        if not np.isfinite(share[e]):
            continue
        members = np.where(active & (gamma[e] > 0.0))[0]
        cap = caps[e]
        while members.size:
            denom = float(np.dot(gamma[e, members], cons[e, members]))
            if denom <= 0.0:
                break
            zeta = max(cap, 0.0) / denom
            tentative = zeta * gamma[e, members]
            elsewhere = rates[members] < tentative
            if not elsewhere.any():
                rates[members] = tentative
                break
            dropped = members[elsewhere]
            cap -= float(np.dot(cons[e, dropped], rates[dropped]))
            members = members[~elsewhere]
    rates[np.isinf(rates)] = 0.0
    return rates


# Weights, consumption and theta take few-bit values, so every load is an
# exact sum whichever order the two layouts add it in; capacities and volumes
# are arbitrary.  Multi-path splits include zero entries.
SPLITS = {
    1: [(1.0,)],
    2: [(0.5, 0.5), (1.0, 0.0), (0.25, 0.75), (0.0, 1.0)],
    3: [(0.5, 0.25, 0.25), (0.0, 0.5, 0.5), (1.0, 0.0, 0.0), (0.25, 0.0, 0.75)],
}


@st.composite
def subdemand_problems(draw):
    n_links = draw(st.integers(1, 5))
    links = [f"L{i}" for i in range(n_links)]
    capacity = st.one_of(st.just(0.0), st.floats(0.1, 10.0))
    resources = [Resource(l, draw(capacity)) for l in links]
    paths, demands, theta = [], [], []
    for k in range(draw(st.integers(1, 6))):
        volume = draw(st.one_of(st.none(), st.floats(0.1, 8.0)))
        pids, consumption = [], {}
        for i in range(draw(st.integers(1, 3))):
            on_path = st.lists(st.sampled_from(links), min_size=1, max_size=3, unique=True)
            edges = draw(on_path)
            pid = f"d{k}p{i}"
            paths.append(Path(pid, edges))
            pids.append(pid)
            for rid in edges:
                consumption[rid] = draw(st.sampled_from([0.25, 0.5, 1.0, 1.5, 3.0]))
        weight = draw(st.sampled_from([0.5, 1.0, 2.0, 4.0]))
        demands.append(Demand(f"d{k}", pids, volume, weight, consumption=consumption))
        theta += draw(st.sampled_from(SPLITS[len(pids)]))
    # Columns are (demand, path) in problem order, so theta is in column order.
    return Problem(resources, paths, demands), np.array(theta)


@settings(max_examples=150, deadline=None)
@given(subdemand_problems())
def test_csr_waterfillers_match_the_dense_reference(case):
    prob, theta = case
    m, caps = build_subdemands(prob)
    m.rescale(theta)
    gamma, cons = dense(m)
    exact = dense_single_path_waterfill(gamma, cons, caps)
    np.testing.assert_allclose(single_path_waterfill(m, caps), exact, rtol=0, atol=1e-12)
    approx = dense_approx_waterfill(gamma, cons, caps)
    # At the default crossover these rows take the scalar evaluator; at 0,
    # every row takes the numpy one.
    for numpy_row in (wf._NUMPY_ROW, 0):
        with mock.patch.object(wf, "_NUMPY_ROW", numpy_row):
            np.testing.assert_allclose(approx_waterfill(m, caps), approx, rtol=0, atol=1e-12)


@pytest.mark.parametrize("inner", ["approx", "exact"])
@settings(max_examples=60, deadline=None)
@given(
    case=subdemand_problems(),
    iterations=st.integers(1, 6),
    theta_tol=st.sampled_from([1e-6, 1e-2]),
)
def test_adaptive_waterfill_properties(inner, case, iterations, theta_tol):
    prob, _ = case
    rep = adaptive_waterfill(prob, iterations, inner, theta_tol)
    # Capacities and volumes are at most 10 here, so 1e-9 admits rounding
    # only.  The default tolerance scales with volumes too: a volume row may
    # round up an ulp when every link has capacity 0.
    assert check_feasible(prob, rep.allocation, tol=1e-9).feasible
    assert check_feasible(prob, rep.allocation).feasible
    final = rep.notes["final_theta"]
    for d in prob.demands:
        row = [final[(d.id, pid)] for pid in d.paths]
        assert min(row) >= 0.0
        assert sum(row) == pytest.approx(1.0, rel=0, abs=1e-9)
    assert 1 <= rep.iterations <= iterations
    trace = rep.notes["theta_trace"]
    assert len(trace["theta"]) == len(trace["rates"]) == rep.iterations
    last = dict(zip(trace["columns"], trace["theta"][-1].tolist()))
    change = max(abs(final[c] - last[c]) for c in final)
    assert rep.converged == (change <= theta_tol)


# -- the inner fixed point of the single pass, pinned by hand ----------------------


def test_approx_row_drops_members_in_two_successive_rounds():
    # Initial shares: LA 1/1, LB 4/2, L 10.5/4.  LA fixes A at 1; LB drops A
    # and gives B the 3 left.  On L, zeta 2.625 drops A (1); the recomputed
    # zeta 9.5/3 then drops B (3); C and D share the 6.5 left.
    prob = Problem(
        [Resource("LA", 1.0), Resource("LB", 4.0), Resource("L", 10.5)],
        [
            Path("pa", ["LA", "LB", "L"]),
            Path("pb", ["LB", "L"]),
            Path("pc", ["L"]),
            Path("pd", ["L"]),
        ],
        [Demand("A", ["pa"]), Demand("B", ["pb"]), Demand("C", ["pc"]), Demand("D", ["pd"])],
    )
    m, caps = build_subdemands(prob)
    want = [1.0, 3.0, 3.25, 3.25]
    assert approx_waterfill(m, caps).tolist() == want
    assert dense_approx_waterfill(*dense(m), caps).tolist() == want


def test_approx_tiny_weight_member_takes_what_is_left():
    # L1 fixes A at 1.  On L2, A (a = 1) drops out and B (a = 1e-17) gets the
    # 1 left, at level 1e17.  1 + 1e-17 rounds to 1, so a sum over the
    # members still in, taken as the row total minus the dropped ones, would
    # read 0 and leave B unfixed.
    prob = Problem(
        [Resource("L1", 1.0), Resource("L2", 2.0)],
        [Path("pa", ["L1", "L2"]), Path("pb", ["L2"])],
        [Demand("A", ["pa"]), Demand("B", ["pb"])],
    )
    m, caps = build_subdemands(prob)
    m.rescale(np.array([1.0, 1e-17]))
    want = dense_approx_waterfill(*dense(m), caps)
    np.testing.assert_allclose(want, [1.0, 1.0], rtol=0, atol=1e-12)
    for numpy_row in (wf._NUMPY_ROW, 0):
        with mock.patch.object(wf, "_NUMPY_ROW", numpy_row):
            np.testing.assert_allclose(approx_waterfill(m, caps), want, rtol=0, atol=1e-12)


def test_numpy_and_scalar_water_levels_are_bit_identical():
    # Crossover 0 sends every row to the numpy evaluator, a huge one every
    # row to the scalar one; D = 90, 4 paths a demand, 10 adaptive rounds.
    prob = generate_problem(10, 15, TrafficSpec("gravity", 8.0, 0), 4)
    outs = []
    for numpy_row in (0, 10**9):
        with mock.patch.object(wf, "_NUMPY_ROW", numpy_row):
            m, caps = build_subdemands(prob)
            rep = adaptive_waterfill(prob, iterations=10, theta_tol=0.0)
            outs.append((approx_waterfill(m, caps), rep.notes["theta_trace"]["rates"]))
    (approx_np, rounds_np), (approx_py, rounds_py) = outs
    assert approx_np.tobytes() == approx_py.tobytes()
    assert rounds_np.shape == rounds_py.shape
    assert rounds_np.tobytes() == rounds_py.tobytes()


def test_approx_zero_capacity_link_fixes_its_members_at_zero():
    # Z (c=0) has the smallest share and fixes E and F at 0.  On M, zeta 4/3
    # drops E (0 < 4/3), and G (weight 2) takes all of M.
    prob = Problem(
        [Resource("M", 4.0), Resource("Z", 0.0)],
        [Path("pe", ["Z", "M"]), Path("pf", ["Z"]), Path("pg", ["M"])],
        [Demand("E", ["pe"]), Demand("F", ["pf"]), Demand("G", ["pg"], weight=2.0)],
    )
    m, caps = build_subdemands(prob)
    want = [0.0, 0.0, 4.0]
    assert approx_waterfill(m, caps).tolist() == want
    assert dense_approx_waterfill(*dense(m), caps).tolist() == want


def single_link(capacity, weights):
    resources = [Resource("L", capacity)]
    paths = [Path(f"p{i}", ["L"]) for i in range(len(weights))]
    demands = [Demand(f"d{i}", [f"p{i}"], weight=w) for i, w in enumerate(weights)]
    return Problem(resources, paths, demands)


def chain_instance():
    # L1(c=2: dA, dB), L2(c=10: dB, dC); unit weights.
    return Problem(
        [Resource("L1", 2.0), Resource("L2", 10.0)],
        [Path("pa", ["L1"]), Path("pb", ["L1", "L2"]), Path("pc", ["L2"])],
        [Demand("dA", ["pa"]), Demand("dB", ["pb"]), Demand("dC", ["pc"])],
    )


def test_single_link_even_split():
    prob = single_link(10.0, [1.0, 1.0])
    m, caps = build_subdemands(prob)
    assert single_path_waterfill(m, caps) == pytest.approx([5.0, 5.0])


def test_single_link_weighted_split():
    prob = single_link(9.0, [2.0, 1.0])
    m, caps = build_subdemands(prob)
    assert single_path_waterfill(m, caps) == pytest.approx([6.0, 3.0])


def test_chain_bottlenecks():
    # progressive filling by hand: L1 saturates at 1 each, dC takes the rest
    prob = chain_instance()
    m, caps = build_subdemands(prob)
    assert single_path_waterfill(m, caps) == pytest.approx([1.0, 1.0, 9.0])


def test_waterfill_saturates_volume_or_a_link():
    for seed in range(25):
        prob = unit_qr_instance(seed, multi=False)
        m, caps = build_subdemands(prob)
        rates = single_path_waterfill(m, caps)
        _, cons = dense(m)
        usage = (cons * rates).sum(axis=1)
        for c_idx, (k, pid) in enumerate(m.columns):
            on_rows = np.where(cons[:, c_idx] > 0)[0]
            saturated = any(
                usage[r] >= caps[r] - 1e-9 * max(1.0, caps[r]) for r in on_rows
            )
            assert saturated, f"{k} saturates neither volume nor a link"


def test_approx_single_link_is_exact():
    prob = single_link(10.0, [1.0, 1.0])
    m, caps = build_subdemands(prob)
    assert approx_waterfill(m, caps) == pytest.approx([5.0, 5.0])


def test_approx_matches_exact_on_chain():
    prob = chain_instance()
    m, caps = build_subdemands(prob)
    assert approx_waterfill(m, caps) == pytest.approx([1.0, 1.0, 9.0])


def test_approx_never_exceeds_capacity():
    for seed in range(25):
        prob = unit_qr_instance(seed)
        m, caps = build_subdemands(prob)
        rates = approx_waterfill(m, caps)
        usage = (dense(m)[1] * rates).sum(axis=1)
        assert (usage <= caps + 1e-9 * np.maximum(1.0, caps)).all()


def test_approx_agreement_flagged_on_stable_order():
    agree = 0
    total = 0
    for seed in range(30):
        prob = unit_qr_instance(seed, multi=False)
        m, caps = build_subdemands(prob)
        exact = single_path_waterfill(m, caps)
        approx = approx_waterfill(m, caps)
        total += 1
        if np.allclose(exact, approx, atol=1e-9):
            agree += 1
    assert agree >= total // 2  # the single pass is usually exact at desk scale


# -- subdemand expansion ---------------------------------------------------------


def test_single_path_theta_is_one():
    prob = single_link(1.0, [1.0])
    m, caps = build_subdemands(prob)
    assert m.columns == (("d0", "p0"),)
    assert dense(m)[0][0, 0] == 1.0


def test_worked_example_gamma(two_link_example):
    m, caps = build_subdemands(two_link_example)
    rows = {rid: i for i, rid in enumerate(m.rows)}
    cols = {c: i for i, c in enumerate(m.columns)}
    gamma, _ = dense(m)
    assert gamma[rows["e1"], cols[("d1", "p1")]] == pytest.approx(0.5)
    assert gamma[rows["e2"], cols[("d1", "p2")]] == pytest.approx(0.5)
    assert gamma[rows["e2"], cols[("d2", "p3")]] == pytest.approx(1.0)
    assert caps == pytest.approx([0.5, 1.0])


def test_bounded_demand_shares_virtual_edge():
    prob = Problem(
        [Resource("e1", 10.0), Resource("e2", 10.0)],
        [Path("p1", ["e1"]), Path("p2", ["e2"])],
        [Demand("d1", ["p1", "p2"], volume=5.0)],
    )
    m, caps = build_subdemands(prob)
    v = m.rows.index("d1::vol")
    assert caps[v] == 5.0
    assert (dense(m)[1][v] == 1.0).all()
    rates = single_path_waterfill(m, caps)
    assert rates.sum() == pytest.approx(5.0)  # volume is the bottleneck


def test_column_on_no_resource_is_rejected_when_built():
    # Unbounded, so the empty path gets no virtual edge either; the model
    # rejects an empty path (nonempty-path).
    prob = Problem([Resource("L", 1.0)], [Path("p0", [])], [Demand("d0", ["p0"])])
    with pytest.raises(ValueError, match="invalid problem"):
        build_subdemands(prob)


def test_zero_weight_column_gets_zero_rate(two_link_example):
    m, caps = build_subdemands(two_link_example)
    m.rescale(np.array([1.0, 0.0, 1.0]))  # columns (d1, p1), (d1, p2), (d2, p3)
    rates = single_path_waterfill(m, caps)
    assert rates[m.columns.index(("d1", "p2"))] == 0.0


# -- adaptive waterfiller ----------------------------------------------------------


def test_single_path_problem_converges_in_one_iteration():
    prob = chain_instance()
    rep = adaptive_waterfill(prob, iterations=5, inner="exact")
    assert rep.converged and rep.iterations == 1
    assert rep.allocation.rates[("dC", "pc")] == pytest.approx(9.0)


def test_nonconvergence_is_flagged_not_raised(two_link_example):
    rep = adaptive_waterfill(two_link_example, iterations=2, inner="exact")
    assert not rep.converged
    assert rep.iterations == 2


def test_zero_rate_demand_keeps_theta():
    # d1 is squeezed out entirely by a zero-capacity link on its only path
    prob = Problem(
        [Resource("dead", 0.0), Resource("L", 4.0)],
        [Path("p1", ["dead", "L"]), Path("p2", ["L"])],
        [Demand("blocked", ["p1"]), Demand("live", ["p2"])],
    )
    rep = adaptive_waterfill(prob, iterations=3, inner="exact")
    assert rep.notes["final_theta"][("blocked", "p1")] == 1.0
    assert rep.allocation.rates[("live", "p2")] == pytest.approx(4.0)


def test_adaptive_builds_the_incidence_once(monkeypatch, two_link_example):
    calls = []
    build = wf.build_subdemands

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(wf, "build_subdemands", counted)
    rep = adaptive_waterfill(two_link_example, iterations=10)
    assert rep.iterations == 10
    assert len(calls) == 1


def test_adaptive_matches_a_rebuild_per_iteration():
    # The pre-CSR update: rebuild the incidence every round, weight it by a
    # (demand, path)-keyed theta dict, and renormalise each demand's rates in
    # column order.
    for seed in range(20):
        prob = unit_qr_instance(seed)
        rep = adaptive_waterfill(prob, iterations=6)
        trace = rep.notes["theta_trace"]
        assert len(trace["theta"]) == len(trace["rates"]) == rep.iterations
        theta = {(d.id, p): 1.0 / len(d.paths) for d in prob.demands for p in d.paths}
        for got_theta, got_rates in zip(trace["theta"].tolist(), trace["rates"].tolist()):
            m, caps = build_subdemands(prob)
            assert trace["columns"] == m.columns
            want_theta = [theta[c] for c in m.columns]
            assert got_theta == want_theta
            m.rescale(np.array(want_theta))
            rates = dict(zip(m.columns, approx_waterfill(m, caps).tolist()))
            assert got_rates == list(rates.values())
            totals = {}
            for (k, _), r in rates.items():
                totals[k] = totals.get(k, 0.0) + r
            theta = {
                (k, p): r / totals[k] if totals[k] > 0.0 else theta[(k, p)]
                for (k, p), r in rates.items()
            }
        assert rep.notes["final_theta"] == theta


@pytest.fixture(scope="module")
def wan_870():
    return generate_problem(30, 50, TrafficSpec("uniform", 8.0, 0), 4)


@pytest.mark.parametrize("allocator", ["approx-waterfill", "adaptive-waterfill"])
def test_waterfillers_are_feasible_at_870_demands(wan_870, allocator):
    assert len(wan_870.demands) == 870
    rep = run_allocator(wan_870, allocator)
    assert check_feasible(wan_870, rep.allocation).feasible


WORKED_EXAMPLE_TRACE_CSV = """\
iteration,demand,path,theta,rate
1,d1,p1,0.5,0.5
1,d1,p2,0.5,0.3333333333333333
1,d2,p3,1.0,0.6666666666666666
2,d1,p1,0.6000000000000001,0.5
2,d1,p2,0.4,0.28571428571428575
2,d2,p3,1.0,0.7142857142857143
3,d1,p1,0.6363636363636362,0.49999999999999994
3,d1,p2,0.36363636363636365,0.26666666666666666
3,d2,p3,1.0,0.7333333333333333
"""


def test_theta_trace_csv_shape(two_link_example):
    # Three iterations x three subdemands, pinned to the byte: rows sort by
    # (demand id, path id) whatever the problem's order, and values print as
    # reprs of Python floats.
    rep = adaptive_waterfill(two_link_example, iterations=3, inner="exact")
    assert theta_trace_csv(rep) == WORKED_EXAMPLE_TRACE_CSV
    reordered = Problem(
        two_link_example.resources,
        list(reversed(two_link_example.paths)),
        [Demand("d2", ["p3"]), Demand("d1", ["p2", "p1"])],
    )
    rep = adaptive_waterfill(reordered, iterations=3, inner="exact")
    assert theta_trace_csv(rep) == WORKED_EXAMPLE_TRACE_CSV


def test_theta_trace_csv_quotes_ids_holding_commas_and_quotes():
    prob = Problem(
        [Resource("L", 2.0)],
        [Path("c", ["L"]), Path('x,"y"', ["L"])],
        [Demand("a,b", ["c"]), Demand("a", ['x,"y"'])],
    )
    rep = adaptive_waterfill(prob, iterations=2, inner="exact")
    rows = list(csv.reader(io.StringIO(theta_trace_csv(rep))))
    assert rows[0] == ["iteration", "demand", "path", "theta", "rate"]
    assert all(len(row) == 5 for row in rows)
    assert {(row[1], row[2]) for row in rows[1:]} == {("a,b", "c"), ("a", 'x,"y"')}


# -- bandwidth bottleneck checker ---------------------------------------------------


def test_worked_example_limit_is_bottlenecked(two_link_example):
    alloc = Allocation(
        {("d1", "p1"): 0.5, ("d1", "p2"): 0.25, ("d2", "p3"): 0.75}
    )
    assert is_bandwidth_bottlenecked(two_link_example, alloc, tol=1e-9).bottlenecked


def test_first_iteration_rates_are_not_bottlenecked(two_link_example):
    alloc = Allocation(
        {("d1", "p1"): 0.5, ("d1", "p2"): 1 / 3, ("d2", "p3"): 2 / 3}
    )
    chk = is_bandwidth_bottlenecked(two_link_example, alloc, tol=1e-6)
    assert not chk.bottlenecked
    demand, path, link, sharer = chk.witness
    assert (demand, path, link, sharer) == ("d2", "p3", "e2", "d1")


def test_zero_allocation_is_not_bottlenecked(two_link_example):
    alloc = Allocation(
        {("d1", "p1"): 0.0, ("d1", "p2"): 0.0, ("d2", "p3"): 0.0}
    )
    chk = is_bandwidth_bottlenecked(two_link_example, alloc, tol=1e-6)
    assert not chk.bottlenecked
    assert chk.witness[2] is None  # no saturated link anywhere


def test_volume_bound_counts_as_bottleneck():
    prob = Problem(
        [Resource("L", 10.0)],
        [Path("p1", ["L"])],
        [Demand("d1", ["p1"], volume=2.0)],
    )
    alloc = Allocation({("d1", "p1"): 2.0})
    assert is_bandwidth_bottlenecked(prob, alloc, tol=1e-9).bottlenecked


def _bottlenecked_by_loop(problem, alloc, tol):
    """Reference: the per-link loop over (kind, id)-keyed dicts, returning
    the verdict and the failing (demand, path, has a saturated link)."""
    paths, demands = problem.path_map(), problem.demand_map()
    rate_eps = 1e-9 * max(1.0, problem.max_capacity())
    caps = {("r", r.id): r.capacity for r in problem.resources}
    usage = dict.fromkeys(caps, 0.0)
    sharers = {key: [] for key in caps}
    raw = dict.fromkeys(demands, 0.0)
    for (k, p), rate in alloc.rates.items():
        raw[k] += rate
        for rid in paths[p].resources:
            usage["r", rid] += demands[k].consumption_on(rid) * rate
            if rate > rate_eps:
                sharers["r", rid].append(k)
    for d in problem.demands:
        if d.bounded:
            caps["v", d.id], usage["v", d.id] = float(d.volume), raw[d.id]
            sharers["v", d.id] = [d.id] if raw[d.id] > rate_eps else []
    totals = total_allocation(problem, alloc)
    ratio = {k: totals[k] / demands[k].weight for k in totals}
    for d in problem.demands:
        for pid in d.paths:
            if raw[d.id] > rate_eps and alloc.rate(d.id, pid) <= rate_eps:
                continue
            links = [("r", rid) for rid in paths[pid].resources]
            links += [("v", d.id)] if d.bounded else []
            sat = [e for e in links if usage[e] >= caps[e] - 1e-6 * max(caps[e], 1e-12)]
            worst = [max((ratio[j] for j in sharers[e]), default=0.0) for e in sat]
            if not any(ratio[d.id] >= w - tol for w in worst):
                return False, (d.id, pid, bool(sat))
    return True, None


@pytest.mark.parametrize("tol", [1e-6, 1e-3])
def test_bottleneck_check_matches_the_per_link_loop(tol):
    for seed in range(30):
        prob = small_grid_instance(seed)
        for allocator in ("exact", "swan", "gb", "approx-waterfill", "adaptive-waterfill"):
            alloc = run_allocator(prob, allocator).allocation
            check = is_bandwidth_bottlenecked(prob, alloc, tol=tol)
            witness = check.witness and (*check.witness[:2], check.witness[2] is not None)
            assert (check.bottlenecked, witness) == _bottlenecked_by_loop(prob, alloc, tol)
