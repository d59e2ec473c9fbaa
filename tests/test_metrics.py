import math

import pytest
from hypothesis import given, strategies as st

from fairalloc.metrics import (
    compare_rates,
    default_vartheta,
    efficiency,
    q_fairness,
)
from fairalloc.model import Demand, Path, Problem, Resource


def test_identity_gives_one():
    f = {"a": 1.0, "b": 2.5}
    per, geo = q_fairness(f, f, 1e-4)
    assert per == {"a": 1.0, "b": 1.0}
    assert geo == 1.0


def test_half_rate_gives_half():
    per, _ = q_fairness({"a": 0.5}, {"a": 1.0}, 1e-4)
    assert per["a"] == pytest.approx(0.5)


def test_both_zero_clamp_to_one():
    per, geo = q_fairness({"a": 0.0}, {"a": 0.0}, 1e-4)
    assert per["a"] == 1.0 and geo == 1.0


def test_mismatched_keys_error():
    with pytest.raises(ValueError):
        q_fairness({"a": 1.0}, {"b": 1.0}, 1e-4)


rates = st.dictionaries(
    st.sampled_from(["a", "b", "c", "d"]),
    st.floats(0, 100),
    min_size=1,
    max_size=4,
)


@given(rates, st.floats(1e-6, 1.0))
def test_self_comparison_is_always_one(f, vartheta):
    _, geo = q_fairness(f, f, vartheta)
    assert geo == pytest.approx(1.0)


@given(rates, rates, st.floats(1e-6, 1.0))
def test_symmetry_and_range(f, g, vartheta):
    common = sorted(set(f) & set(g))
    if not common:
        return
    fa = {k: f[k] for k in common}
    ga = {k: g[k] for k in common}
    per1, geo1 = q_fairness(fa, ga, vartheta)
    per2, geo2 = q_fairness(ga, fa, vartheta)
    assert per1 == per2
    assert geo1 == pytest.approx(geo2)
    assert min(per1.values()) - 1e-12 <= geo1 <= max(per1.values()) + 1e-12
    assert all(0.0 < q <= 1.0 + 1e-12 for q in per1.values())


def test_efficiency_examples():
    assert efficiency({"a": 1.0, "b": 2.0}, {"a": 1.0, "b": 2.0}) == 1.0
    assert efficiency({"a": 0.5, "b": 1.0}, {"a": 1.0, "b": 2.0}) == 0.5
    assert efficiency({}, {}) == 1.0
    with pytest.raises(ValueError):
        efficiency({"a": 1.0}, {"a": 0.0})


def test_efficiency_against_worked_example_total(two_link_example):
    baseline = {"d1": 0.75, "d2": 0.75}
    assert efficiency({"d1": 0.9, "d2": 0.6}, baseline) == pytest.approx(1.0)


def test_default_vartheta_scales_with_max_capacity():
    prob = Problem(
        [Resource("e1", 1.0)], [Path("p1", ["e1"])], [Demand("d1", ["p1"])]
    )
    assert default_vartheta(prob) == pytest.approx(1e-4)
    prob100 = Problem(
        [Resource("e1", 100.0), Resource("e2", 7.0)],
        [Path("p1", ["e1"])],
        [Demand("d1", ["p1"])],
    )
    assert default_vartheta(prob100) == pytest.approx(0.01)
    idle = Problem([Resource("e1", 0.0)], [Path("p1", ["e1"])], [Demand("d1", ["p1"])])
    assert default_vartheta(idle) == 1e-4  # as if the largest capacity were 1


def test_default_vartheta_ignores_resource_count():
    few = Problem(
        [Resource("e1", 2.0)], [Path("p1", ["e1"])], [Demand("d1", ["p1"])]
    )
    many = Problem(
        [Resource(f"e{i}", 2.0) for i in range(9)],
        [Path("p1", ["e0"])],
        [Demand("d1", ["p1"])],
    )
    assert default_vartheta(few) == default_vartheta(many)


def test_compare_rates_report_serializes(two_link_example):
    rep = compare_rates(two_link_example, {"d1": 0.75, "d2": 0.5}, {"d1": 0.75, "d2": 0.75})
    data = rep.to_dict()
    assert data["fairness_geomean"] == pytest.approx(math.sqrt(1.0 * (0.5 / 0.75)))
    # No description of how vartheta was chosen: the caller may pass any.
    assert set(data) == {
        "per_demand_q", "fairness_geomean", "efficiency_ratio", "total_rate",
        "baseline_total", "vartheta",
    }
