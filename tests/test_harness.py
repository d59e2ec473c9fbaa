import csv
import inspect
import io
import re
from pathlib import Path as FsPath

import numpy as np
import pytest

import fairalloc.bench as bench
from fairalloc.bench import (
    ALLOCATOR_IDS,
    BENCH_CSV_HEADER,
    Scenario,
    benchmark_csv,
    load_allocation,
    load_problem,
    merge_partition_allocations,
    pop_partition,
    run_allocator,
    run_benchmark,
    save_allocation,
    save_problem,
)
from fairalloc.generate import TrafficSpec, generate_problem, k_shortest_paths, sample_volumes
from fairalloc.model import (
    Allocation,
    Demand,
    Path,
    Problem,
    Resource,
    check_feasible,
    validate_problem,
)
from fairalloc.optimizers import (
    equi_depth_elastic,
    equi_depth_multibin,
    exact_sequential_max_min,
    geo_binner,
    one_shot_exact,
    swan_sequence,
)
from fairalloc.report import AllocatorReport
from fairalloc.waterfill import adaptive_waterfill


def test_generator_is_deterministic_under_seed():
    spec = TrafficSpec("uniform", scale_factor=2.0, seed=42)
    assert generate_problem(6, 8, spec, 3) == generate_problem(6, 8, spec, 3)


def test_generator_output_is_valid():
    prob = generate_problem(7, 10, TrafficSpec("poisson", 3.0, seed=1), 2)
    assert validate_problem(prob) == []


@pytest.mark.parametrize("nodes,edges", [(12, 18), (30, 45)])
def test_generator_output_is_valid_beyond_ten_nodes(nodes, edges):
    # node labels n10+ sort before n2..n9 as strings; edge ids must not repeat
    for seed in range(20):
        prob = generate_problem(nodes, edges, TrafficSpec("uniform", 1.0, seed=seed), 1)
        assert validate_problem(prob) == [], seed


def test_single_path_when_k_is_one():
    prob = generate_problem(6, 8, TrafficSpec("uniform", 2.0, seed=4), 1)
    assert all(len(d.paths) == 1 for d in prob.demands)


@pytest.mark.parametrize("model", ["poisson", "uniform", "bimodal"])
def test_scale_factor_doubles_sample_mean(model):
    m1 = sample_volumes(TrafficSpec(model, 1.0, seed=9), 1000).mean()
    m2 = sample_volumes(TrafficSpec(model, 2.0, seed=9), 1000).mean()
    assert m2 / m1 == pytest.approx(2.0, rel=0.05)


def test_gravity_scales_exactly_and_tracks_degree():
    g1 = generate_problem(6, 9, TrafficSpec("gravity", 1.0, seed=5), 2)
    g2 = generate_problem(6, 9, TrafficSpec("gravity", 2.0, seed=5), 2)
    v1 = {d.id: d.volume for d in g1.demands}
    v2 = {d.id: d.volume for d in g2.demands}
    assert all(v2[k] == pytest.approx(2 * v1[k]) for k in v1)
    assert np.mean(list(v1.values())) == pytest.approx(1.0)


def test_generator_rejects_unconnectable_parameters():
    with pytest.raises(ValueError, match="edge count"):
        generate_problem(6, 4, TrafficSpec("uniform", 1.0, seed=0), 1)
    with pytest.raises(ValueError, match="edge count"):
        generate_problem(4, 7, TrafficSpec("uniform", 1.0, seed=0), 1)


def test_yen_paths_are_loopless_sorted_and_distinct():
    adj = {
        "a": ["b", "c"],
        "b": ["a", "c", "d"],
        "c": ["a", "b", "d"],
        "d": ["b", "c"],
    }
    paths = k_shortest_paths(adj, "a", "d", 4)
    assert len(paths) == 4
    assert paths[0] == ["a", "b", "d"]  # lexicographic tie-break among ties
    assert all(len(set(p)) == len(p) for p in paths)
    assert [len(p) for p in paths] == sorted(len(p) for p in paths)
    assert len({tuple(p) for p in paths}) == 4


def test_yen_disconnected_returns_empty():
    assert k_shortest_paths({"a": [], "b": []}, "a", "b", 3) == []


# -- POP partitioning --------------------------------------------------------------


def test_partition_k1_is_identity():
    prob = generate_problem(5, 6, TrafficSpec("uniform", 2.0, seed=7), 2)
    (part,) = pop_partition(prob, 1, seed=0)
    assert part == prob


def test_partition_halves_capacities():
    prob = generate_problem(5, 6, TrafficSpec("uniform", 2.0, seed=7), 2)
    parts = pop_partition(prob, 2, seed=0)
    for part in parts:
        for original, shared in zip(prob.resources, part.resources):
            assert shared.capacity == pytest.approx(original.capacity / 2)


def test_partition_conserves_volume():
    prob = generate_problem(6, 8, TrafficSpec("uniform", 3.0, seed=3), 2)
    parts = pop_partition(prob, 4, client_split_threshold=0.75, seed=1)
    merged: dict[str, float] = {}
    for part in parts:
        for d in part.demands:
            merged[d.id] = merged.get(d.id, 0.0) + d.volume
    for d in prob.demands:
        assert merged[d.id] == pytest.approx(d.volume)


def test_partition_splits_heavy_demands_across_all_parts():
    prob = generate_problem(6, 8, TrafficSpec("uniform", 3.0, seed=3), 2)
    heavy = max(prob.demands, key=lambda d: d.volume)
    parts = pop_partition(prob, 3, client_split_threshold=0.75, seed=1)
    owners = [p for p in parts if heavy.id in {d.id for d in p.demands}]
    assert len(owners) == 3
    for p in owners:
        part_demand = p.demand_map()[heavy.id]
        assert part_demand.volume == pytest.approx(heavy.volume / 3)


def test_partition_determinism():
    prob = generate_problem(6, 8, TrafficSpec("uniform", 3.0, seed=3), 2)
    a = pop_partition(prob, 3, seed=5)
    b = pop_partition(prob, 3, seed=5)
    assert a == b


def test_merged_partition_allocations_are_feasible_in_original():
    prob = generate_problem(6, 8, TrafficSpec("uniform", 4.0, seed=13), 2)
    parts = pop_partition(prob, 4, seed=2)
    allocs = [
        run_allocator(part, "gb", {"alpha": 2.0}).allocation
        for part in parts
        if part.demands
    ]
    merged = merge_partition_allocations(prob, allocs)
    assert check_feasible(prob, merged).feasible


# -- benchmark ----------------------------------------------------------------------


def test_exact_scores_one_against_itself():
    prob = generate_problem(5, 6, TrafficSpec("uniform", 4.0, seed=9), 2)
    rows = run_benchmark([Scenario("s", prob, "exact")])
    assert rows[0].fairness_geomean == pytest.approx(1.0)
    assert rows[0].efficiency == pytest.approx(1.0)
    assert rows[0].error is None


def test_all_zero_capacities_score_every_allocator_one():
    # Every rate is 0; the fairness clamp must still be positive.
    prob = Problem(
        [Resource("e", 0.0)],
        [Path("p", ["e"])],
        [Demand("a", ["p"]), Demand("b", ["p"], volume=1.0)],
    )
    rows = run_benchmark([Scenario(a, prob, a) for a in ALLOCATOR_IDS])
    for row in rows:
        assert row.error is None, row
        assert row.fairness_geomean == 1.0 and row.efficiency == 1.0


def test_gb_single_solve_and_swan_one_per_bin_on_same_instance():
    prob = generate_problem(5, 6, TrafficSpec("uniform", 4.0, seed=9), 2)
    rows = run_benchmark(
        [
            Scenario("s", prob, "gb", {"alpha": 2.0}),
            Scenario("s", prob, "swan", {"alpha": 2.0}),
        ]
    )
    gb, swan = rows
    assert gb.lp_solves == 1
    assert swan.lp_solves == swan.iterations >= 2


def test_fairness_column_stays_in_unit_interval():
    prob = generate_problem(5, 6, TrafficSpec("uniform", 4.0, seed=9), 2)
    rows = run_benchmark(
        [
            Scenario("s", prob, a)
            for a in ("exact", "gb", "eb-elastic", "adaptive-waterfill", "approx-waterfill")
        ]
    )
    for row in rows:
        assert row.error is None, row
        assert 0.0 < row.fairness_geomean <= 1.0 + 1e-12


def test_allocator_failure_is_a_row_not_a_crash():
    prob = generate_problem(5, 6, TrafficSpec("uniform", 4.0, seed=9), 2)
    rows = run_benchmark([Scenario("s", prob, "waterfill")])  # multipath -> error
    assert rows[0].error is not None
    assert "single-path" in rows[0].error


def test_invalid_problem_is_a_row_not_a_crash():
    prob = generate_problem(5, 6, TrafficSpec("uniform", 4.0, seed=9), 2)
    bad = Problem(
        [Resource("L", 1.0)], [Path("p", ["missing"])], [Demand("d", ["p"])]
    )
    rows = run_benchmark(
        [Scenario("ok", prob, "gb"), Scenario("bad", bad, "gb"), Scenario("ok2", prob, "exact")]
    )
    assert [r.scenario for r in rows] == ["ok", "bad", "ok2"]
    assert rows[0].error is None and rows[2].error is None
    assert "invalid problem" in rows[1].error


def test_infeasible_allocation_is_a_row_error(monkeypatch):
    prob = Problem([Resource("L", 1.0)], [Path("p", ["L"])], [Demand("d", ["p"])])
    over = AllocatorReport(Allocation({("d", "p"): 1.5}), 0, 1, {"converged": True})
    monkeypatch.setattr(bench, "geo_binner", lambda problem, session: over)
    rows = run_benchmark([Scenario("over", prob, "gb"), Scenario("ok", prob, "exact")])
    assert rows[0].error == "ValueError: infeasible allocation: capacity of L exceeded by 0.5"
    assert rows[0].fairness_geomean is None
    assert rows[1].error is None and rows[1].fairness_geomean == pytest.approx(1.0)


def test_rows_independent_of_scenario_order():
    prob = generate_problem(5, 6, TrafficSpec("uniform", 4.0, seed=9), 2)
    fwd = run_benchmark(
        [Scenario("a", prob, "gb"), Scenario("b", prob, "adaptive-waterfill")]
    )
    rev = run_benchmark(
        [Scenario("b", prob, "adaptive-waterfill"), Scenario("a", prob, "gb")]
    )
    by_label_fwd = {r.scenario: (r.fairness_geomean, r.lp_solves) for r in fwd}
    by_label_rev = {r.scenario: (r.fairness_geomean, r.lp_solves) for r in rev}
    assert by_label_fwd == by_label_rev


def test_csv_shape_and_header():
    prob = generate_problem(5, 6, TrafficSpec("uniform", 4.0, seed=9), 2)
    rows = run_benchmark(
        [Scenario(f"s{i}", prob, "adaptive-waterfill") for i in range(3)]
    )
    text = benchmark_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == BENCH_CSV_HEADER
    assert len(lines) == 4
    assert all(len(line.split(",")) == 8 for line in lines)


def test_csv_quotes_scenario_labels_holding_commas_and_quotes():
    prob = generate_problem(5, 6, TrafficSpec("uniform", 4.0, seed=9), 2)
    labels = ["wan, small", 'the "big" one', "plain"]
    rows = run_benchmark([Scenario(s, prob, "adaptive-waterfill") for s in labels])
    parsed = list(csv.reader(io.StringIO(benchmark_csv(rows))))
    assert parsed[0] == BENCH_CSV_HEADER.split(",")
    assert all(len(row) == 8 for row in parsed)
    assert sorted(row[0] for row in parsed[1:]) == sorted(labels)


def test_unknown_allocator_is_rejected():
    prob = generate_problem(5, 6, TrafficSpec("uniform", 2.0, seed=9), 2)
    with pytest.raises(ValueError, match="unknown allocator"):
        Scenario("s", prob, "nope")
    with pytest.raises(ValueError, match="unknown allocator"):
        run_allocator(prob, "nope")


# -- files --------------------------------------------------------------------------


def test_problem_round_trip(tmp_path):
    prob = generate_problem(5, 6, TrafficSpec("bimodal", 2.0, seed=2), 2)
    path = tmp_path / "problem.json"
    save_problem(path, prob)
    assert load_problem(path) == prob


def test_allocation_round_trip(tmp_path):
    alloc = Allocation({("d1", "p1"): 0.5, ("d1", "p2"): 0.25, ("d2", "p3"): 0.75})
    path = tmp_path / "alloc.json"
    save_allocation(path, alloc)
    assert load_allocation(path) == alloc


def test_load_problem_error_names_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    with pytest.raises(ValueError, match="bad.json"):
        load_problem(path)


@pytest.mark.parametrize(
    "text",
    ["{broken", "{}", "[]", '{"rates": 5}', '{"rates": {"d": 5}}', '{"rates": {"d": {"p": "x"}}}',
     '{"rates": {"d": {"p": null}}}'],
)
def test_load_allocation_error_names_file(tmp_path, text):
    path = tmp_path / "bad-alloc.json"
    path.write_text(text)
    with pytest.raises(ValueError, match="bad-alloc.json: not an allocation file"):
        load_allocation(path)


def test_run_allocator_rejects_config_keys_its_allocator_does_not_read(two_link_example):
    with pytest.raises(ValueError) as err:
        run_allocator(two_link_example, "swan", {"epsilon": 0.5, "slack": 3, "inner": "exact"})
    assert str(err.value) == (
        "swan does not read config keys ['epsilon', 'inner', 'slack']; "
        "it accepts ['u', 'alpha', 'bins']"
    )
    with pytest.raises(ValueError, match="accepts none"):
        run_allocator(two_link_example, "exact", {"epsilon": 0.5})
    with pytest.raises(ValueError, match="oneshot does not read config keys .'epsilon'."):
        run_allocator(two_link_example, "oneshot", {"epsilon": 0.01})  # levels, not weights
    assert run_allocator(two_link_example, "swan", {"alpha": 2.0}).converged


@pytest.mark.parametrize(
    "config", [5, "ab", [("bins", 2)], 0, ""], ids=["int", "str", "pairs", "zero", "empty"]
)
def test_run_allocator_rejects_a_config_that_is_not_a_mapping(two_link_example, config):
    with pytest.raises(ValueError, match="^eb-elastic config must be a mapping"):
        run_allocator(two_link_example, "eb-elastic", config)
    rows = run_benchmark([Scenario("s", two_link_example, "eb-elastic", config)])
    assert rows[0].error.startswith("ValueError: eb-elastic config must be a mapping")


def test_waterfill_notes_that_it_is_not_exact_under_non_unit_utility():
    def two_on_a_link(utility):
        return Problem(
            [Resource("L", 4.0)],
            [Path("p0", ["L"]), Path("p1", ["L"])],
            [Demand("d0", ["p0"], utility={"p0": utility}), Demand("d1", ["p1"])],
        )

    unit = run_allocator(two_on_a_link(1.0), "waterfill")
    assert "exact" not in unit.notes
    rep = run_allocator(two_on_a_link(3.0), "waterfill")
    assert rep.notes["exact"] is False
    assert "utility" in rep.notes["inexact_reason"]
    # The allocation is unchanged: path rates are equalised, not totals.
    assert rep.allocation.rates == unit.allocation.rates


def test_runner_signatures_are_the_config_schema():
    # Keys in signature order: the rejection message above lists them so.
    assert bench._CONFIG_KEYS == {
        "exact": (),
        "oneshot": (),
        "swan": ("u", "alpha", "bins"),
        "gb": ("u", "alpha", "bins"),
        "eb-elastic": ("bins", "slack", "iterations"),
        "eb-multibin": ("bins", "iterations"),
        "waterfill": (),
        "approx-waterfill": (),
        "adaptive-waterfill": ("iterations", "inner"),
    }


def test_readme_config_table_matches_the_runner_signatures():
    readme = (FsPath(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme[readme.index("| allocator | config keys |"):].split("\n\n")[0]
    documented = {}
    for row in table.splitlines()[2:]:
        allocator, keys = row.split("|")[1:3]
        documented[allocator.strip().strip("`")] = re.findall(r"`([^`]+)`", keys)
    expected = {}
    for allocator, name in bench._ALLOCATORS.items():
        params = inspect.signature(getattr(bench, name)).parameters
        expected[allocator] = [
            key if params[key].default is None else f"{key}={params[key].default}"
            for key in bench._CONFIG_KEYS[allocator]
        ]
    assert documented == expected


def _gravity_5():
    return generate_problem(5, 7, TrafficSpec("gravity", 8.0, 0), 4)


@pytest.mark.parametrize("config", [{"alpha": 1.05}, {"alpha": 1.05, "bins": 2}])
def test_swan_runs_at_a_fine_ladder(config):
    # A fine ladder is a long one: swan solves at most one LP per rung.
    prob = _gravity_5()
    rep = run_allocator(prob, "swan", config)
    assert check_feasible(prob, rep.allocation).feasible
    assert rep.lp_solves == rep.iterations <= rep.notes["ladder"]
    if "bins" in config:
        assert rep.notes["ladder"] == 2
    else:
        assert rep.notes["ladder"] > 40 and rep.converged


RUNNER_CASES = [
    ("exact", {}, lambda p: exact_sequential_max_min(p)),
    ("oneshot", {}, lambda p: one_shot_exact(p)),
    ("swan", {}, lambda p: swan_sequence(p)),
    ("swan", {"alpha": 1.05}, lambda p: swan_sequence(p, alpha=1.05)),
    ("swan", {"alpha": 1.5, "u": 0.25}, lambda p: swan_sequence(p, u=0.25, alpha=1.5)),
    ("gb", {}, lambda p: geo_binner(p)),
    ("gb", {"alpha": 1.5, "bins": 4}, lambda p: geo_binner(p, alpha=1.5, bins=4)),
    ("gb", {"u": 0.25}, lambda p: geo_binner(p, u=0.25)),
    ("eb-elastic", {}, lambda p: equi_depth_elastic(p)),
    (
        "eb-elastic",
        {"bins": 3, "slack": 0.01, "iterations": 4},
        lambda p: equi_depth_elastic(p, bins=3, slack=0.01, iterations=4),
    ),
    ("eb-multibin", {}, lambda p: equi_depth_multibin(p)),
    (
        "eb-multibin",
        {"bins": 3, "iterations": 4},
        lambda p: equi_depth_multibin(p, bins=3, iterations=4),
    ),
    ("waterfill", {}, lambda p: bench._run_waterfill(p)),
    ("approx-waterfill", {}, lambda p: bench._run_approx_waterfill(p)),
    ("adaptive-waterfill", {}, lambda p: adaptive_waterfill(p)),
]


@pytest.mark.parametrize(
    "allocator, config, direct",
    RUNNER_CASES,
    ids=["-".join([allocator, *config]) for allocator, config, _ in RUNNER_CASES],
)
def test_each_runner_is_its_public_function(allocator, config, direct):
    # waterfill takes single-path demands only: it runs on 6 of them.
    if allocator == "waterfill":
        prob = generate_problem(3, 3, TrafficSpec("gravity", 8.0, 0), 1)
    else:
        prob = _gravity_5()
    rep, want = run_allocator(prob, allocator, config), direct(prob)
    assert rep.allocation == want.allocation
    assert (rep.lp_solves, rep.iterations) == (want.lp_solves, want.iterations)
    np.testing.assert_equal(rep.notes, want.notes)  # adaptive-waterfill's hold arrays


@pytest.mark.parametrize(
    "allocator, name",
    [
        ("exact", "exact_sequential_max_min"),
        ("oneshot", "one_shot_exact"),
        ("swan", "swan_sequence"),
        ("gb", "geo_binner"),
        ("eb-elastic", "equi_depth_elastic"),
        ("eb-multibin", "equi_depth_multibin"),
        ("adaptive-waterfill", "adaptive_waterfill"),
    ],
)
def test_a_runner_calls_the_function_bound_in_bench_at_call_time(
    monkeypatch, two_link_example, allocator, name
):
    # A wrapper bound to the name in fairalloc.bench (as a tracer installs
    # one) sees the allocator's call.
    original = getattr(bench, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(bench, name, wrapper)
    rep = run_allocator(two_link_example, allocator)
    assert calls == [name]
    assert rep.allocation.rates


@pytest.mark.parametrize("allocator", ["waterfill", "approx-waterfill", "adaptive-waterfill"])
def test_waterfillers_reject_duplicate_ids(allocator):
    # Two resources named "e": a merged view would put 5 on capacity 1. The
    # problem is refused when built, so the allocator is never handed it.
    cases = [
        ("resource", [Resource("e", 1.0), Resource("e", 5.0)], [Path("p", ["e"])],
         [Demand("a", ["p"]), Demand("b", ["p"])]),
        ("path", [Resource("e", 1.0)], [Path("p", ["e"]), Path("p", ["e"])], [Demand("a", ["p"])]),
        ("demand", [Resource("e", 1.0)], [Path("p", ["e"])], [Demand("a", ["p"]), Demand("a", ["p"])]),
    ]
    for kind, resources, paths, demands in cases:
        with pytest.raises(ValueError, match=f"duplicate {kind} id"):
            run_allocator(Problem(resources, paths, demands), allocator)


@pytest.mark.parametrize("allocator", ["swan", "gb"])
@pytest.mark.parametrize(
    "config,message",
    [({"alpha": 1.0}, "alpha must be > 1"), ({"u": 0.0}, "u must be > 0"), ({"u": -1.0}, "u must be > 0")],
)
def test_ladder_inputs_are_checked_before_use(allocator, config, message):
    with pytest.raises(ValueError, match=message):
        run_allocator(_gravity_5(), allocator, config)
