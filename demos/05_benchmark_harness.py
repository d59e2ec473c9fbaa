"""Generate a random topology with model-driven traffic and score every
allocator against the exact oracle.

Fairness is the geometric mean of the clamped per-demand ratio between an
allocator's rates and the oracle's; efficiency is the total-rate ratio.
The lp_solves column is hardware-independent evidence for the headline
claim: the one-shot binners pay a single optimization where the capped
sequence pays one per bin.
"""

from fairalloc import (
    Scenario,
    TrafficSpec,
    benchmark_csv,
    generate_problem,
    run_benchmark,
)

spec = TrafficSpec(model="gravity", scale_factor=24.0, seed=7)
problem = generate_problem(nodes=6, edges=9, traffic=spec, paths_per_pair=3)
print(f"{len(problem.resources)} links, {len(problem.demands)} demands, "
      f"{len(problem.paths)} paths\n")

scenarios = [
    Scenario("gravity-x24", problem, "exact"),
    Scenario("gravity-x24", problem, "oneshot"),
    Scenario("gravity-x24", problem, "swan", {"alpha": 2.0}),
    Scenario("gravity-x24", problem, "gb", {"alpha": 2.0}),
    Scenario("gravity-x24", problem, "eb-elastic", {"bins": 4}),
    Scenario("gravity-x24", problem, "eb-multibin", {"bins": 4}),
    Scenario("gravity-x24", problem, "adaptive-waterfill", {"iterations": 10}),
    Scenario("gravity-x24", problem, "approx-waterfill"),
]

rows = run_benchmark(scenarios)
print(benchmark_csv(rows))

# An allocator that raises becomes an error row; the harness records the
# error and keeps going.
for row in rows:
    if row.error:
        print(f"note: {row.allocator} -> {row.error}")
