"""Self-checks of the benchmark harness: deterministic, valid inputs with
stored references; failed calls, failed oracles and wrong exact outputs are
counted without aborting the run; the traced layer split adds up."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from fairalloc.bench import run_allocator
from fairalloc.model import Allocation, validate_problem

from perfbench import harness, inputs

HERE = Path(__file__).parent
RECORDED = json.loads((HERE / "fingerprints.json").read_text())
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _declared(kind):
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_inputs_are_deterministic_valid_and_recorded(workload):
    first = inputs.build_instances(workload, 0)
    again = inputs.build_instances(workload, 0)
    assert [x.fingerprint for x in first] == [x.fingerprint for x in again]
    assert inputs.inputs_fingerprint(first) == RECORDED["0"][workload]
    for x in first:
        assert validate_problem(x.problem) == [], (x.group.name, x.index)
    other = inputs.build_instances(workload, 1)
    assert {x.fingerprint for x in other}.isdisjoint(x.fingerprint for x in first)


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_every_reference_of_seed_0_is_stored(workload):
    setup = harness.set_up(workload, 0, run=_no_oracle)
    assert setup.computed == 0
    for x in setup.instances:
        ref = setup.references[x.fingerprint]
        assert (ref is None) == (x.group.reference is None)
        assert ref is None or (ref.stored and ref.oracle == x.group.reference)


def _no_oracle(problem, allocator):
    raise RuntimeError("injected oracle failure")


def _small(setup):
    """Two problems per group."""
    return replace(setup, instances=[x for x in setup.instances if x.index < 2])


def _small_setup(workload):
    """Seed 0 (references stored), two problems per group."""
    return _small(harness.set_up(workload, 0))


def test_failed_and_infeasible_calls_are_counted_and_the_run_continues():
    setup = _small_setup("wan-lp")

    def faulty(problem, allocator):
        if allocator == "gb":
            raise RuntimeError("injected failure")
        report = run_allocator(problem, allocator)
        if allocator == "swan":
            report.allocation = Allocation({k: 10 * r + 1 for k, r in report.allocation.rates.items()})
        return report

    result = harness.measure(setup, 0.0, run=faulty)
    failed = {(o.allocator, o.error) for o in result.failed}
    assert failed == {("gb", "RuntimeError: injected failure"), ("swan", "infeasible allocation")}
    injected = [a for _, a in harness.schedule(setup) if a in ("gb", "swan")]
    assert len(result.failed) == len(injected)
    assert len(result.outcomes) == len(harness.schedule(setup))
    assert all(result.samples[a][0] > 0 for a in harness.ALLOCATORS)
    metrics = harness.end_to_end([0.1], result)
    assert {k: unit for k, (_, unit) in metrics.items()} == _declared("end_to_end")
    assert metrics["ok_share"][0] == pytest.approx(1 - len(injected) / len(result.outcomes))


def test_run_where_every_approximate_allocator_fails_still_reports():
    setup = _small_setup("wan-lp")

    def faulty(problem, allocator):
        if allocator in inputs.APPROX_ALLOCATORS:
            raise RuntimeError("injected failure")
        return run_allocator(problem, allocator)

    result = harness.measure(setup, 0.0, run=faulty)
    assert {o.allocator for o in result.failed} == set(inputs.APPROX_ALLOCATORS)
    metrics = harness.end_to_end([0.1], result)
    assert metrics["fairness_geomean"][0] == 0.0 and metrics["fairness_min"][0] == 0.0
    assert metrics["ok_share"][0] < 1


def test_wrong_waterfill_output_fails_against_the_stored_reference():
    setup = _small_setup("wan-lp")

    def shrunk_waterfill(problem, allocator):
        report = run_allocator(problem, allocator)
        if allocator == "waterfill":  # still feasible, no longer max-min fair
            report.allocation = Allocation({k: 0.5 * r for k, r in report.allocation.rates.items()})
        return report

    result = harness.measure(setup, 0.0, run=shrunk_waterfill)
    assert {o.allocator for o in result.failed} == {"waterfill"}
    assert all(o.error.startswith("misses the reference") for o in result.failed)
    assert len(result.failed) == sum(a == "waterfill" for _, a in harness.schedule(setup))


def test_exact_allocators_are_scored_where_they_are_known_not_to_be_exact():
    setup = _small_setup("cluster")
    result = harness.measure(setup, 0.0)
    assert not result.failed
    oneshot = [o for o in result.outcomes if o.allocator == "oneshot"]
    assert oneshot and all(0 < o.fairness <= 1 + 1e-9 for o in oneshot)
    pinned = [o for o in result.outcomes if o.instance.group.name == "cluster-4x12-pinned"]
    assert pinned and all(o.allocator == "waterfill" for o in pinned)
    assert all(o.fairness < 1 for o in pinned)  # the shortfall shows as fairness
    metrics = harness.end_to_end([0.1], result)
    waterfill = harness.geomean(harness.scores(result.first_sweep, "waterfill"))
    assert metrics["fairness_min"][0] <= waterfill < 1


def test_failed_oracle_fails_the_problems_calls_and_the_run_continues():
    setup = _small(harness.set_up("cluster", 10**6, run=_no_oracle))
    assert setup.computed > 0
    result = harness.measure(setup, 0.0)
    assert len(result.outcomes) == len(harness.schedule(setup))
    assert len(result.failed) == len(result.outcomes)  # every cluster group has an oracle
    assert all("injected oracle failure" in o.error for o in result.failed)


def test_exact_allocator_missing_the_reference_fails():
    setup = _small_setup("wan-lp")
    x = next(x for x in setup.instances if x.group.reference == "exact")
    report = run_allocator(x.problem, "exact")
    reference = setup.references[x.fingerprint]
    assert harness.check(x, "exact", report, reference) == (None, None, False)
    shifted = replace(reference, totals={k: v + 1e-3 for k, v in reference.totals.items()})
    assert harness.check(x, "exact", report, shifted)[0].startswith("misses the reference")


def test_output_is_not_verified_against_its_own_reference():
    setup = _small_setup("wan-lp")
    x = next(x for x in setup.instances if x.group.reference == "waterfill")
    report = run_allocator(x.problem, "waterfill")
    own = replace(setup.references[x.fingerprint], stored=False)
    assert harness.check(x, "waterfill", report, own) == (None, None, True)
    shifted = replace(own, totals={k: v + 1e-3 for k, v in own.totals.items()})
    assert harness.check(x, "waterfill", report, shifted) == (None, None, True)


def test_traced_layer_split_accounts_for_each_allocator_wall_time():
    setup = _small_setup("wan-lp")
    traced = harness.measure_traced(setup, 0.0)
    assert not traced.tracer.missing
    split = harness.layer_split(traced.tracer)
    assert set(split) == set(harness.ALLOCATORS)
    for row in split.values():
        layers = sum(v for k, v in row.items() if k != "wall")
        assert layers == pytest.approx(row["wall"], rel=1e-9, abs=1e-12)
    metrics = harness.per_layer(traced)
    assert {k: unit for k, (_, unit) in metrics.items()} == _declared("per_layer")
    assert metrics["lp.solves"][0] > 0 and metrics["sortnet.comparators"][0] > 0
    assert not any(o.error for o in traced.outcomes)
