import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import small_grid_instance

from fairalloc.model import (
    Allocation,
    Demand,
    Path,
    Problem,
    Resource,
    check_feasible,
    default_feasibility_tol,
    problem_from_json,
    problem_to_json,
    total_allocation,
    validate_problem,
)
from fairalloc.waterfill import build_subdemands


def test_well_formed_problem_has_no_violations(two_link_example):
    assert validate_problem(two_link_example) == []


def test_missing_path_reference_is_flagged():
    prob = Problem(
        [Resource("e1", 1.0)],
        [Path("p1", ["e1"])],
        [Demand("d1", ["p1", "p9"])],
    )
    violations = validate_problem(prob)
    assert any(v.entity == "d1/p9" and v.rule == "referential-integrity" for v in violations)


def test_negative_capacity_is_flagged():
    prob = Problem(
        [Resource("e1", -1.0)],
        [Path("p1", ["e1"])],
        [Demand("d1", ["p1"])],
    )
    assert any(v.rule == "capacity-sign" for v in validate_problem(prob))


def test_validation_catches_duplicates_and_bad_keys():
    with pytest.raises(ValueError, match="duplicate resource id 'e1'"):
        Problem(
            [Resource("e1", 1.0), Resource("e1", 2.0)], [Path("p1", ["e1"])], [Demand("d1", ["p1"])]
        )
    with pytest.raises(ValueError, match="duplicate demand id 'd1'"):
        Problem(
            [Resource("e1", 1.0)], [Path("p1", ["e1"])], [Demand("d1", ["p1"]), Demand("d1", ["p1"])]
        )
    prob = Problem(
        [Resource("e1", 1.0)],
        [Path("p1", ["e1", "e1"])],
        [
            Demand("d1", ["p1"], weight=-1.0, utility={"p2": 1.0}),
            Demand("d2", ["p1"], volume=-3.0, consumption={"zz": 1.0}),
        ],
    )
    rules = {v.rule for v in validate_problem(prob)}
    assert rules == {
        "no-duplicate-resource",
        "weight-positive",
        "utility-keys",
        "volume-positive",
        "consumption-keys",
    }


def test_repeated_ids_are_refused_at_construction():
    e = [Resource("e", 1.0)]
    cases = [
        # Merged by id, 2.5 + 2.5 on the capacity-1 "e" would check as feasible.
        ("resource id 'e'", [Resource("e", 1.0), Resource("e", 5.0)], [Path("p", ["e"])],
         [Demand("a", ["p"]), Demand("b", ["p"])]),
        ("path id 'p'", e, [Path("p", ["e"]), Path("p", ["e"])], [Demand("a", ["p"])]),
        ("demand id 'a'", e, [Path("p", ["e"])], [Demand("a", ["p"]), Demand("a", ["p"])]),
        # a's two (a, p) columns would share one allocation key.
        ("path id 'p' in demand 'a'", e, [Path("p", ["e"])],
         [Demand("a", ["p", "p"]), Demand("b", ["p"])]),
    ]
    for what, resources, paths, demands in cases:
        with pytest.raises(ValueError, match=f"^duplicate {what}$"):
            Problem(resources, paths, demands)


def _repeats(ids) -> bool:
    return any(ids.count(i) > 1 for i in ids)


@given(
    resource_ids=st.lists(st.sampled_from("efg"), min_size=1, max_size=4),
    path_ids=st.lists(st.sampled_from("pqr"), min_size=1, max_size=4),
    demands=st.lists(
        st.tuples(st.sampled_from("abc"), st.lists(st.sampled_from("pqr"), min_size=1, max_size=3)),
        min_size=1,
        max_size=4,
    ),
)
def test_problem_raises_iff_an_id_repeats(resource_ids, path_ids, demands):
    repeated = (
        _repeats(resource_ids)
        or _repeats(path_ids)
        or _repeats([k for k, _ in demands])
        or any(_repeats(pids) for _, pids in demands)
    )
    try:
        prob = Problem(
            [Resource(r, 1.0) for r in resource_ids],
            [Path(p, resource_ids[:1]) for p in path_ids],
            [Demand(k, pids) for k, pids in demands],
        )
    except ValueError as exc:
        assert repeated and str(exc).startswith("duplicate ")
    else:
        assert not repeated
        assert all(v.rule != "unique-id" for v in validate_problem(prob))


def test_total_allocation_zero_case(two_link_example):
    alloc = Allocation({("d1", "p1"): 0.0, ("d1", "p2"): 0.0, ("d2", "p3"): 0.0})
    assert total_allocation(two_link_example, alloc) == {"d1": 0.0, "d2": 0.0}


def test_total_allocation_worked_example_rates(two_link_example):
    alloc = Allocation({("d1", "p1"): 0.5, ("d1", "p2"): 0.25})
    totals = total_allocation(two_link_example, alloc)
    assert totals["d1"] == pytest.approx(0.75)


def test_total_allocation_applies_utility():
    prob = Problem(
        [Resource("e1", 10.0)],
        [Path("p1", ["e1"])],
        [Demand("d1", ["p1"], utility={"p1": 2.0})],
    )
    totals = total_allocation(prob, Allocation({("d1", "p1"): 3.0}))
    assert totals["d1"] == pytest.approx(6.0)


def test_total_allocation_rejects_unknown_keys(two_link_example):
    with pytest.raises(KeyError):
        total_allocation(two_link_example, Allocation({("d1", "p3"): 1.0}))


@given(
    a=st.lists(st.floats(0, 5), min_size=3, max_size=3),
    b=st.lists(st.floats(0, 5), min_size=3, max_size=3),
)
def test_total_allocation_is_linear(a, b):
    prob = Problem(
        resources=[Resource("e1", 0.5), Resource("e2", 1.0)],
        paths=[Path("p1", ["e1"]), Path("p2", ["e2"]), Path("p3", ["e2"])],
        demands=[Demand("d1", ["p1", "p2"]), Demand("d2", ["p3"])],
    )
    keys = [("d1", "p1"), ("d1", "p2"), ("d2", "p3")]
    ta = total_allocation(prob, Allocation(dict(zip(keys, a))))
    tb = total_allocation(prob, Allocation(dict(zip(keys, b))))
    tsum = total_allocation(
        prob, Allocation({k: x + y for k, x, y in zip(keys, a, b)})
    )
    for k in ta:
        assert tsum[k] == pytest.approx(ta[k] + tb[k], abs=1e-9)


def test_zero_allocation_is_feasible(two_link_example):
    alloc = Allocation({})
    assert check_feasible(two_link_example, alloc).feasible


def test_overload_reports_negative_slack():
    prob = Problem(
        [Resource("e1", 1.0)], [Path("p1", ["e1"])], [Demand("d1", ["p1"])]
    )
    res = check_feasible(prob, Allocation({("d1", "p1"): 1.5}), tol=1e-9)
    assert not res.feasible
    assert res.capacity_slack["e1"] == pytest.approx(-0.5)


def test_worked_example_limit_rates_saturate_both_links(two_link_example):
    alloc = Allocation({("d1", "p1"): 0.5, ("d1", "p2"): 0.25, ("d2", "p3"): 0.75})
    res = check_feasible(two_link_example, alloc)
    assert res.feasible
    assert res.capacity_slack["e1"] == pytest.approx(0.0, abs=1e-12)
    assert res.capacity_slack["e2"] == pytest.approx(0.0, abs=1e-12)


def test_default_tolerance_scales_with_capacity(two_link_example):
    assert default_feasibility_tol(two_link_example) == pytest.approx(1e-6)


def test_default_tolerance_scales_with_volume_when_capacities_are_zero():
    # The path holds no link (only its demand's virtual edge, once expanded),
    # so the volume row is the only scale; its rate sum overshoots by an ulp.
    prob = Problem([Resource("e1", 0.0)], [Path("p1", [])], [Demand("d1", ["p1"], volume=0.3)])
    assert default_feasibility_tol(prob) == pytest.approx(3e-7)
    res = check_feasible(prob, Allocation({("d1", "p1"): 0.1 + 0.2}))
    assert res.volume_slack["d1"] < 0.0
    assert res.feasible


def test_consumption_scales_usage():
    prob = Problem(
        [Resource("e1", 1.0)],
        [Path("p1", ["e1"])],
        [Demand("d1", ["p1"], consumption={"e1": 2.0})],
    )
    assert not check_feasible(prob, Allocation({("d1", "p1"): 0.9}), tol=1e-9).feasible
    assert check_feasible(prob, Allocation({("d1", "p1"): 0.4}), tol=1e-9).feasible


# -- volume rows -----------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), data=st.data())
def test_incidence_rows_match_the_feasibility_slacks(seed, data):
    # The subdemand incidence is the one expansion of volumes into rows; its
    # slack on each row must equal the slack that check_feasible reports
    # from the problem itself.
    prob = small_grid_instance(seed)
    columns = [(d.id, pid) for d in prob.demands for pid in d.paths]
    rates = data.draw(
        st.lists(st.floats(0.0, 3.0), min_size=len(columns), max_size=len(columns))
    )
    matrix, caps = build_subdemands(prob)
    flow = np.array(rates)
    slack = caps - np.bincount(
        matrix.row_of, matrix.consumption * flow[matrix.indices], minlength=len(caps)
    )
    check = check_feasible(prob, Allocation(dict(zip(columns, rates))))
    # Resource rows in problem order, then one volume row per bounded demand.
    expected = [*check.capacity_slack.values(), *check.volume_slack.values()]
    assert slack.tolist() == pytest.approx(expected, rel=1e-12)


# -- JSON ----------------------------------------------------------------------


def test_canonical_json_round_trip(two_link_example):
    text = problem_to_json(two_link_example)
    assert problem_from_json(text) == two_link_example


def test_json_null_volume_means_unbounded():
    text = json.dumps(
        {
            "resources": [{"id": "e1", "capacity": 0.5}],
            "paths": [{"id": "p1", "resources": ["e1"]}],
            "demands": [
                {
                    "id": "d1",
                    "volume": None,
                    "weight": 1.0,
                    "paths": ["p1"],
                    "utility": {"p1": 1.0},
                    "consumption": {},
                }
            ],
        }
    )
    prob = problem_from_json(text)
    assert prob.demands[0].volume is None
    assert prob.demands[0].utility_on("p1") == 1.0


def test_json_missing_field_is_named():
    with pytest.raises(ValueError, match="capacity"):
        problem_from_json('{"resources": [{"id": "e1"}], "paths": [], "demands": []}')


def test_json_syntax_error_reports_line():
    with pytest.raises(ValueError, match="line"):
        problem_from_json("{not json")
