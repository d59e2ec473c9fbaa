"""Acceptance suite: one test per release criterion, each printing a PASS
line with its measured margin.  Tolerances are pinned here, not configurable.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import fairalloc as fa
from fairalloc.metrics import compare_rates, default_vartheta, q_fairness
from fairalloc.model import (
    Allocation,
    Demand,
    Path,
    Problem,
    Resource,
    check_feasible,
    total_allocation,
)
from fairalloc.waterfill import build_subdemands, single_path_waterfill

from conftest import small_grid_instance, distinct_utility_instance, unit_qr_instance


def worked_example() -> Problem:
    return Problem(
        resources=[Resource("e1", 0.5), Resource("e2", 1.0)],
        paths=[Path("p1", ["e1"]), Path("p2", ["e2"]), Path("p3", ["e2"])],
        demands=[Demand("d1", ["p1", "p2"]), Demand("d2", ["p3"])],
    )


# -- shared corpora (module scope: criteria 3, 4 and 5 reuse the same 50) --------


@pytest.fixture(scope="module")
def narrow_corpus():
    """50 instances with distinct per-path utilities whose max-min ratio
    spread stays below 1.9 (so two geometric bins cover the range)."""
    corpus = []
    seed = 0
    while len(corpus) < 50:
        prob = distinct_utility_instance(seed)
        seed += 1
        star = total_allocation(prob, fa.exact_sequential_max_min(prob).allocation)
        dm = prob.demand_map()
        ratios = sorted(star[k] / dm[k].weight for k in star)
        if ratios[0] < 1e-9 or ratios[-1] / ratios[0] > 1.9:
            continue
        corpus.append((prob, star, ratios))
    return corpus


@pytest.fixture(scope="module")
def gb_runs(narrow_corpus):
    """Geometric-binner runs shared by criteria 3-5: the two-bin run at
    alpha=2 plus envelope runs at alpha in {1.5, 2, 4}."""
    runs = []
    for prob, star, ratios in narrow_corpus:
        u = ratios[0] / 1.05
        total_cap = sum(r.capacity for r in prob.resources)
        delta = 1e-6 * total_cap
        entry = {"prob": prob, "star": star, "u": u, "delta": delta, "gb": {}}
        entry["gb"]["delta-rule"] = fa.geo_binner(prob, u, 2.0, 2)
        for alpha in (1.5, 2.0, 4.0):
            bins = max(2, math.ceil(math.log(ratios[-1] * 1.05 / u, alpha)) + 1)
            entry["gb"][alpha] = fa.geo_binner(prob, u, alpha, bins)
        runs.append(entry)
    return runs


# -- criterion 1 ------------------------------------------------------------------


def test_01_adaptive_waterfill_reproduces_worked_example_traces():
    """Exact-inner adaptive waterfilling reproduces the published theta and
    rate traces for t = 1..6 within 1e-9 and converges to (1/2, 1/4, 3/4)
    within 1e-3 by iteration 20, in under a second."""
    t0 = time.perf_counter()
    prob = worked_example()

    want_theta = [Fraction(1, 2), Fraction(3, 5), Fraction(7, 11),
                  Fraction(15, 23), Fraction(31, 47), Fraction(63, 95)]
    want_f12 = [Fraction(1, 3), Fraction(2, 7), Fraction(4, 15),
                Fraction(8, 31), Fraction(16, 63), Fraction(32, 127)]

    six = fa.adaptive_waterfill(prob, iterations=6, inner="exact")
    trace = six.notes["theta_trace"]
    p1, p2 = trace["columns"].index(("d1", "p1")), trace["columns"].index(("d1", "p2"))
    assert len(trace["theta"]) == len(trace["rates"]) == 6
    for t in range(6):
        assert trace["theta"][t, p1] == pytest.approx(float(want_theta[t]), abs=1e-9)
        assert trace["rates"][t, p2] == pytest.approx(float(want_f12[t]), abs=1e-9)

    twenty = fa.adaptive_waterfill(prob, iterations=20, inner="exact")
    rates = twenty.allocation.rates
    assert rates[("d1", "p1")] == pytest.approx(0.5, abs=1e-3)
    assert rates[("d1", "p2")] == pytest.approx(0.25, abs=1e-3)
    assert rates[("d2", "p3")] == pytest.approx(0.75, abs=1e-3)

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: worked-example traces exact to 1e-9, "
          f"limit within 1e-3 by iteration 20 ({elapsed*1e3:.0f} ms)")


# -- criterion 2 ------------------------------------------------------------------


def test_02_one_shot_matches_sequential_oracle_on_100_instances():
    """One-shot exact equals the sequential oracle within 1e-5 per demand on
    100 random instances (<= 6 demands, <= 6 edges, <= 3 paths/demand)."""
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        prob = small_grid_instance(seed)
        star = total_allocation(prob, fa.exact_sequential_max_min(prob).allocation)
        rep = fa.one_shot_exact(prob)
        assert rep.lp_solves == 1
        got = total_allocation(prob, rep.allocation)
        diff = max(abs(star[k] - got[k]) for k in star)
        worst = max(worst, diff)
        assert diff <= 1e-5, f"seed {seed}: per-demand gap {diff:.3e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 2 PASS: 100/100 one-shot == oracle, worst gap "
          f"{worst:.2e} <= 1e-5 ({elapsed:.1f} s < 60 s)")


# -- criterion 3 ------------------------------------------------------------------


def test_03_geo_binner_equals_swan_under_delta_rule(gb_runs):
    """With identical (U, alpha=2) over the same two-bin ladder, the one-shot
    binner (one objective level per bin, which the delta rule's small
    epsilon once approximated) and the capped sequence agree per-demand
    within max(1e-6, delta), delta = 1e-6 * sum(c); one LP vs >= 2 LPs.
    (The ladder length is shared: the equivalence is bin-for-bin.)"""
    worst = 0.0
    worst_onesided = 0.0
    for entry in gb_runs:
        prob, u, delta = entry["prob"], entry["u"], entry["delta"]
        gb = entry["gb"]["delta-rule"]
        sw = fa.swan_sequence(prob, u=u, alpha=2.0, bins=2)
        tg = total_allocation(prob, gb.allocation)
        ts = total_allocation(prob, sw.allocation)
        tol = max(1e-6, delta)
        diff = max(abs(tg[k] - ts[k]) for k in tg)
        onesided = max(ts[k] - tg[k] for k in tg)  # the delta-bound direction
        worst = max(worst, diff)
        worst_onesided = max(worst_onesided, onesided)
        assert diff <= tol, f"per-demand gap {diff:.3e} > {tol:.1e}"
        assert onesided <= delta + 1e-9
        assert gb.lp_solves == 1
        assert sw.lp_solves == sw.iterations >= 2
    print(f"\nACCEPTANCE 3 PASS: 50/50 GB == SWAN (worst gap {worst:.2e}; "
          f"worst SWAN-over-GB {worst_onesided:.2e}); GB solves 1 LP, "
          f"SWAN >= 2")


# -- criterion 4 ------------------------------------------------------------------


def test_04_alpha_approximation_envelope(gb_runs):
    """Every binner rate lies in [f*/alpha - 1e-6, alpha*f* + 1e-6] against
    the exact oracle, for alpha in {1.5, 2, 4}, on the same 50 instances."""
    checked = 0
    for entry in gb_runs:
        prob, star = entry["prob"], entry["star"]
        for alpha in (1.5, 2.0, 4.0):
            got = total_allocation(prob, entry["gb"][alpha].allocation)
            for k, f_star in star.items():
                lo, hi = f_star / alpha - 1e-6, alpha * f_star + 1e-6
                assert lo <= got[k] <= hi, (
                    f"alpha={alpha}, {k}: {got[k]:.6f} outside "
                    f"[{lo:.6f}, {hi:.6f}]"
                )
                checked += 1
    print(f"\nACCEPTANCE 4 PASS: {checked} demand rates inside the "
          f"[1/alpha, alpha] envelope for alpha in {{1.5, 2, 4}}")


# -- criterion 5 ------------------------------------------------------------------


def _prefix_violations(report) -> int:
    caps = report.notes["bin_caps"]
    bad = 0
    for bins in report.notes["bins"].values():
        for b in range(1, len(bins)):
            if bins[b] > 1e-9:
                if any(bins[j] < caps[j] - 1e-9 for j in range(b)):
                    bad += 1
    return bad


def test_05_bin_prefix_property_has_zero_violations(gb_runs):
    """After degeneracy repair, a demand holds rate in bin b only with every
    lower bin filled to its cap (checked at 1e-9 across all binner runs on
    the corpus, including the multi-bin equi-depth variant)."""
    violations = 0
    runs = 0
    for entry in gb_runs:
        prob = entry["prob"]
        for rep in entry["gb"].values():
            violations += _prefix_violations(rep)
            runs += 1
        mb = fa.equi_depth_multibin(prob, bins=3, iterations=10)
        violations += _prefix_violations(mb)
        runs += 1
    assert violations == 0
    print(f"\nACCEPTANCE 5 PASS: 0 bin-prefix violations across {runs} "
          f"binner runs on the 50-instance corpus")


# -- criterion 6 ------------------------------------------------------------------


def test_06_bandwidth_bottleneck_theory():
    """(a) converged adaptive waterfills are bandwidth-bottlenecked;
    (b) exact max-min allocations (q = r = 1) are bandwidth-bottlenecked;
    (c) a bottlenecked allocation's induced theta is a fixed point of the
    exact inner waterfill (rates move < 1e-9)."""
    converged = 0
    fixed_checked = 0
    for seed in range(40):
        prob = unit_qr_instance(seed)
        rep = fa.adaptive_waterfill(
            prob, iterations=4000, inner="exact", theta_tol=1e-11
        )
        if not rep.converged:
            continue
        converged += 1
        chk = fa.is_bandwidth_bottlenecked(prob, rep.allocation, tol=1e-6)
        assert chk.bottlenecked, f"(a) seed {seed}: witness {chk.witness}"

        rates = rep.allocation.rates
        totals: dict[str, float] = {}
        for (k, _), r in rates.items():
            totals[k] = totals.get(k, 0.0) + r
        n_paths = {d.id: len(d.paths) for d in prob.demands}
        matrix, caps = build_subdemands(prob)
        matrix.rescale(np.array([
            rates[k, p] / totals[k] if totals[k] > 0 else 1.0 / n_paths[k]
            for k, p in matrix.columns
        ]))
        redone = single_path_waterfill(matrix, caps)
        drift = max(
            abs(redone[i] - rates[matrix.columns[i]]) for i in range(len(redone))
        )
        assert drift <= 1e-9, f"(c) seed {seed}: drift {drift:.3e}"
        fixed_checked += 1
    assert converged >= 30  # the (a)/(c) checks must not be vacuous

    for seed in range(40):
        prob = unit_qr_instance(seed + 1000)
        rep = fa.exact_sequential_max_min(prob)
        chk = fa.is_bandwidth_bottlenecked(prob, rep.allocation, tol=1e-5)
        assert chk.bottlenecked, f"(b) seed {seed + 1000}: witness {chk.witness}"
    print(f"\nACCEPTANCE 6 PASS: (a) {converged}/40 converged runs all "
          f"bottlenecked; (b) 40/40 exact allocations bottlenecked; "
          f"(c) {fixed_checked} fixed-point re-runs drift < 1e-9")


# -- criterion 7 ------------------------------------------------------------------


def _progressive_filling(prob: Problem, step: float = 1e-4) -> dict[str, float]:
    """Brute-force oracle: raise every unfrozen ratio by `step`, freeze the
    demands of any link that the next step would overload and any demand at
    its volume.  Independent of the waterfilling implementation.

    Between two freeze events every unfrozen ratio takes the same steps, and
    both events (an overloaded link, a volume reached) are monotone in the
    number of steps taken, so the steps to the next event are found by
    galloping, then bisecting, rather than one step at a time."""
    dm, pm = prob.demand_map(), prob.path_map()
    demands = [d.id for d in prob.demands]
    w = np.array([dm[k].weight for k in demands])
    vol = np.array(
        [np.inf if dm[k].volume is None else dm[k].volume for k in demands]
    )
    cap = np.array([r.capacity for r in prob.resources])
    link_index = {r.id: i for i, r in enumerate(prob.resources)}
    usage_of = np.zeros((len(cap), len(demands)))
    for j, k in enumerate(demands):
        for rid in pm[dm[k].paths[0]].resources:
            usage_of[link_index[rid], j] = 1.0

    ratio = np.zeros(len(demands))
    frozen = np.zeros(len(demands), dtype=bool)

    def advanced(n: int) -> np.ndarray:
        return ratio + np.where(frozen, 0.0, n * step)

    def overloaded(n: int) -> np.ndarray:
        return usage_of @ np.minimum(advanced(n) * w, vol) > cap

    def event(n: int) -> bool:
        return bool(overloaded(n).any() or (~frozen & (advanced(n) * w >= vol)).any())

    while not frozen.all():
        lo, hi = 0, 1  # no event after lo steps; find the first step with one
        while not event(hi):
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if event(mid) else (mid, hi)
        over = overloaded(hi)
        if over.any():
            ratio = advanced(lo)
            hit = (usage_of[over].sum(axis=0) > 0) & ~frozen
            if not hit.any():
                break
            frozen |= hit
            continue
        ratio = advanced(hi)
        frozen |= ratio * w >= vol
    return {k: float(min(ratio[j] * w[j], vol[j])) for j, k in enumerate(demands)}


def test_07_single_path_waterfill_matches_progressive_filling():
    """Exact waterfilling matches the step-1e-4 progressive-filling oracle
    within 1e-3 on 100 random single-path instances (<= 8 demands/links)."""
    worst = 0.0
    for seed in range(100):
        prob = unit_qr_instance(seed + 500, multi=False)
        matrix, caps = build_subdemands(prob)
        rates = single_path_waterfill(matrix, caps)
        got = {matrix.columns[i][0]: float(rates[i]) for i in range(len(rates))}
        want = _progressive_filling(prob)
        diff = max(abs(got[k] - want[k]) for k in got)
        worst = max(worst, diff)
        assert diff <= 1e-3, f"seed {seed + 500}: gap {diff:.2e}"
    print(f"\nACCEPTANCE 7 PASS: 100/100 waterfills match progressive "
          f"filling (worst gap {worst:.2e} <= 1e-3)")


# -- criterion 8 ------------------------------------------------------------------


def _high_load_instance(seed: int) -> Problem:
    """Random topology with volumes inflated until every link is
    oversubscribed at least 4x by the demands that can reach it."""
    rng = np.random.default_rng(seed)
    nodes = int(rng.integers(5, 8))
    edges = int(rng.integers(nodes, min(nodes * (nodes - 1) // 2, 2 * nodes) + 1))
    spec = fa.TrafficSpec("uniform", scale_factor=8.0, seed=seed)
    prob = fa.generate_problem(nodes, edges, spec, paths_per_pair=3)
    pm = prob.path_map()
    load = {r.id: 0.0 for r in prob.resources}
    for d in prob.demands:
        reachable = {rid for pid in d.paths for rid in pm[pid].resources}
        for rid in reachable:
            load[rid] += d.volume
    used = [r for r in prob.resources if load[r.id] > 0]
    factor = max(1.0, max(4.0 * r.capacity / load[r.id] for r in used))
    demands = [
        Demand(d.id, d.paths, d.volume * factor, d.weight) for d in prob.demands
    ]
    return Problem(used, prob.paths, demands)


def test_08_fairness_ordering_under_high_load():
    """Mean fairness over 20 oversubscribed instances orders the allocators
    elastic equi-depth >= geometric binner >= approximate waterfiller
    (each within a 0.01 slack)."""
    scores = {"eb": [], "gb": [], "aw": []}
    for seed in range(20):
        prob = _high_load_instance(seed)
        # verify the load condition the criterion assumes
        pm = prob.path_map()
        load = {r.id: 0.0 for r in prob.resources}
        for d in prob.demands:
            for rid in {x for pid in d.paths for x in pm[pid].resources}:
                load[rid] += d.volume
        assert all(load[r.id] >= 4.0 * r.capacity - 1e-6 for r in prob.resources)

        star = total_allocation(prob, fa.exact_sequential_max_min(prob).allocation)
        bins = max(2, min(8, len(prob.demands) // 2))
        runs = {
            "eb": fa.run_allocator(prob, "eb-elastic", {"bins": bins, "iterations": 10}),
            "gb": fa.run_allocator(prob, "gb", {"alpha": 2.0}),
            "aw": fa.run_allocator(prob, "approx-waterfill", {}),
        }
        for name, rep in runs.items():
            totals = total_allocation(prob, rep.allocation)
            scores[name].append(
                compare_rates(prob, totals, star).fairness_geomean
            )
    means = {k: float(np.mean(v)) for k, v in scores.items()}
    assert means["eb"] >= means["gb"] - 0.01, means
    assert means["gb"] >= means["aw"] - 0.01, means
    print(f"\nACCEPTANCE 8 PASS: mean fairness EB {means['eb']:.3f} >= "
          f"GB {means['gb']:.3f} - 0.01 >= aW {means['aw']:.3f} - 0.01 "
          f"(gaps {means['eb'] - means['gb']:+.3f}, {means['gb'] - means['aw']:+.3f})")


# -- criterion 9 ------------------------------------------------------------------


def test_09_metric_fidelity():
    """q identity -> 1 exactly, half rate -> 0.5, double-clamp -> 1, and the
    default clamp is 1e-4 of the largest capacity."""
    per, geo = q_fairness({"a": 2.0, "b": 0.3}, {"a": 2.0, "b": 0.3}, 1e-4)
    assert per == {"a": 1.0, "b": 1.0} and geo == 1.0
    per, _ = q_fairness({"a": 0.5}, {"a": 1.0}, 1e-4)
    assert per["a"] == 0.5
    per, geo = q_fairness({"a": 0.0}, {"a": 0.0}, 1e-4)
    assert per["a"] == 1.0 and geo == 1.0

    prob = worked_example()
    assert default_vartheta(prob) == 1e-4 * 1.0
    big = Problem(
        [Resource("e", 100.0)], [Path("p", ["e"])], [Demand("d", ["p"])]
    )
    assert default_vartheta(big) == pytest.approx(0.01)
    print("\nACCEPTANCE 9 PASS: q-metric unit values exact; "
          "vartheta = 1e-4 * max capacity")


# -- criterion 10 -----------------------------------------------------------------


def _pop_gb_merged(prob: Problem, k: int, seed: int) -> Allocation:
    # threshold above every volume: no client splitting, pure random landing
    parts = fa.pop_partition(prob, k, client_split_threshold=1e9, seed=seed)
    allocs = [
        fa.run_allocator(part, "gb", {"alpha": 2.0}).allocation
        for part in parts
        if part.demands
    ]
    return fa.merge_partition_allocations(prob, allocs)


def test_10_pop_partitioning_degrades_concentrated_fairness():
    """Merged POP+GB allocations stay feasible; on a concentrated instance
    the partitioned fairness is strictly below the unpartitioned binner's
    (per-partition fairness is not global fairness)."""
    gravity = fa.generate_problem(6, 9, fa.TrafficSpec("gravity", 6.0, seed=3), 2)

    base = fa.generate_problem(6, 9, fa.TrafficSpec("uniform", 2.0, seed=11), 2)
    hot, *rest = base.demands
    concentrated = Problem(
        base.resources,
        base.paths,
        [Demand(hot.id, hot.paths, 40.0, hot.weight), *rest],
    )

    results = {}
    for name, prob in (("gravity", gravity), ("concentrated", concentrated)):
        star = total_allocation(prob, fa.exact_sequential_max_min(prob).allocation)
        merged = _pop_gb_merged(prob, 4, seed=5)
        assert check_feasible(prob, merged).feasible, f"{name}: merged infeasible"
        q_pop = compare_rates(
            prob, total_allocation(prob, merged), star
        ).fairness_geomean
        whole = fa.run_allocator(prob, "gb", {"alpha": 2.0})
        q_whole = compare_rates(
            prob, total_allocation(prob, whole.allocation), star
        ).fairness_geomean
        results[name] = (q_pop, q_whole)
    q_pop, q_whole = results["concentrated"]
    assert q_pop < q_whole, results
    print(f"\nACCEPTANCE 10 PASS: merged POP+GB feasible on both instances; "
          f"concentrated fairness {q_pop:.3f} < unpartitioned {q_whole:.3f} "
          f"(gravity: {results['gravity'][0]:.3f} vs {results['gravity'][1]:.3f})")
