"""Ids are opaque strings: no derived row, column or key may be built by
joining ids with a separator that an id can itself contain.  Each problem
here is valid, and its ids are chosen so that such a join collides."""

import pytest
from hypothesis import given, settings, strategies as st

from fairalloc.bench import ALLOCATOR_IDS, run_allocator
from fairalloc.model import Allocation, Demand, Path, Problem, Resource, validate_problem
from fairalloc.report import report_to_dict
from fairalloc.waterfill import is_bandwidth_bottlenecked

from conftest import unit_qr_instance

LP_ALLOCATORS = ("exact", "oneshot", "swan", "gb", "eb-elastic", "eb-multibin")


def test_lp_allocators_keep_colon_ids_apart():
    # "f:" + demand + ":" + path is "f:a:b:c" for both subdemands.
    prob = Problem(
        [Resource("e", 1.0)],
        [Path("c", ["e"]), Path("b:c", ["e"])],
        [Demand("a:b", ["c"]), Demand("a", ["b:c"])],
    )
    plain = Problem(  # the same problem, ids in the same sort order
        [Resource("e", 1.0)],
        [Path("c", ["e"]), Path("q", ["e"])],
        [Demand("y", ["c"]), Demand("x", ["q"])],
    )
    assert validate_problem(prob) == []
    for allocator in LP_ALLOCATORS:
        rates = run_allocator(prob, allocator).allocation.rates
        ref = run_allocator(plain, allocator).allocation.rates
        assert rates == {("a:b", "c"): ref["y", "c"], ("a", "b:c"): ref["x", "q"]}
        assert sum(rates.values()) == pytest.approx(1.0), allocator
        if allocator in ("exact", "oneshot"):
            assert rates == pytest.approx({("a:b", "c"): 0.5, ("a", "b:c"): 0.5})


def test_report_json_keeps_slash_ids_apart():
    # "a/b" + "/" + "c" and "a" + "/" + "b/c" are the same string.
    prob = Problem(
        [Resource("e", 1.0)],
        [Path("c", ["e"]), Path("b/c", ["e"])],
        [Demand("a/b", ["c"]), Demand("a", ["b/c"])],
    )
    out = report_to_dict(prob, run_allocator(prob, "adaptive-waterfill"))
    assert out["notes"]["final_theta"] == {"a/b": {"c": 1.0}, "a": {"b/c": 1.0}}


@pytest.mark.parametrize("rate_b, expected", [(0.3, False), (0.8, True)])
def test_bottleneck_check_keeps_a_resource_named_like_a_volume_edge(rate_b, expected):
    prob = Problem(
        [Resource("a::vol", 1.0)],
        [Path("p", ["a::vol"])],
        [Demand("a", ["p"], volume=0.2), Demand("b", ["p"])],
    )
    alloc = Allocation({("a", "p"): 0.2, ("b", "p"): rate_b})
    check = is_bandwidth_bottlenecked(prob, alloc)
    assert check.bottlenecked is expected
    if not expected:  # half the link is idle, so b could grow
        assert check.witness == ("b", "p", None, None)


def _colliding_renaming(prob: Problem):
    """Injective renaming under which every joined name collides.

    Demand k becomes ``d/`` + ``:d`` * k (a prefix of demand k + 1's id, so
    the sort order of demand ids is kept); its path j becomes
    ``d:`` * (m - k) + ``p/{j}``, so ``demand:path`` is the same string for
    the j-th path of every demand; resource i becomes ``{demand i}::vol``.
    """
    m = len(prob.demands) + 1
    demand = {d.id: "d/" + ":d" * k for k, d in enumerate(prob.demands)}
    path = {
        pid: "d:" * (m - k) + f"p/{j}"
        for k, d in enumerate(prob.demands)
        for j, pid in enumerate(d.paths)
    }
    resource = {r.id: "d/" + ":d" * i + "::vol" for i, r in enumerate(prob.resources)}
    renamed = Problem(
        [Resource(resource[r.id], r.capacity) for r in prob.resources],
        [Path(path[p.id], [resource[rid] for rid in p.resources]) for p in prob.paths],
        [
            Demand(
                demand[d.id],
                [path[pid] for pid in d.paths],
                d.volume,
                d.weight,
                {path[pid]: q for pid, q in d.utility.items()},
                {resource[rid]: r for rid, r in d.consumption.items()},
            )
            for d in prob.demands
        ],
    )
    return renamed, demand, path


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), multi=st.booleans())
def test_allocations_do_not_depend_on_id_spelling(seed, multi):
    prob = unit_qr_instance(seed, multi)
    renamed, demand, path = _colliding_renaming(prob)
    assert validate_problem(renamed) == []
    assert sorted(demand, key=demand.get) == sorted(demand)
    single_path = all(len(d.paths) == 1 for d in prob.demands)
    for allocator in ALLOCATOR_IDS:
        if allocator == "waterfill" and not single_path:
            continue  # single-path demands only
        before = run_allocator(prob, allocator).allocation
        after = run_allocator(renamed, allocator).allocation
        assert after.rates == {
            (demand[k], path[p]): v for (k, p), v in before.rates.items()
        }, allocator
        if allocator in ("exact", "adaptive-waterfill"):
            verdict = is_bandwidth_bottlenecked(prob, before).bottlenecked
            assert is_bandwidth_bottlenecked(renamed, after).bottlenecked == verdict
