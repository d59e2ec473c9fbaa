"""The two exact max-min fair allocators, side by side.

The sequential allocator solves one LP per round: it maximizes a common
floor over the unfrozen ratios, and the demands whose floor rows carry a
positive optimal dual are bottlenecked there, so they freeze; repeat.  The
duals sum to at least 1, so every round freezes a demand and there are at
most as many LPs as demands.  The one-shot allocator embeds a Batcher
odd-even merge network in a single LP so the objective can weight the
sorted ratios directly:
maximize sum_i epsilon^(i-1) t_i with t the sorted ratio vector.
"""

from fairalloc import (
    Demand,
    Path,
    Problem,
    Resource,
    SolveSession,
    build_sorting_network,
    exact_sequential_max_min,
    one_shot_exact,
    total_allocation,
    build_feasible_alloc,
)

problem = Problem(
    resources=[Resource("e1", 0.5), Resource("e2", 1.0)],
    paths=[Path("p1", ["e1"]), Path("p2", ["e2"]), Path("p3", ["e2"])],
    demands=[Demand("d1", ["p1", "p2"]), Demand("d2", ["p3"])],
)

session = SolveSession()
seq = exact_sequential_max_min(problem, session)
print("sequential totals:", total_allocation(problem, seq.allocation))
print("sequential LP solves:", seq.lp_solves, "= freeze rounds", seq.iterations,
      "for", len(problem.demands), "demands")

# One LP total, thanks to the sorting network.
shot = one_shot_exact(problem, epsilon=0.05)
print("one-shot totals:  ", total_allocation(problem, shot.allocation))
print("one-shot LP solves:", shot.lp_solves,
      "comparators:", shot.notes["comparators"],
      "sorted ratios:", shot.notes["sorted_ratios"])

# The comparator count grows like n log^2 n.
for n in (2, 4, 8, 16, 32):
    print(f"network width {n:>2}: {len(build_sorting_network(n).comparators)} comparators")

# Weighted fairness: ratios f_k / w_k are equalized, not raw rates.
weighted = Problem(
    resources=[Resource("L", 9.0)],
    paths=[Path("pa", ["L"]), Path("pb", ["L"])],
    demands=[Demand("a", ["pa"], weight=2.0), Demand("b", ["pb"], weight=1.0)],
)
print("weighted totals:", total_allocation(
    weighted, exact_sequential_max_min(weighted).allocation))

# Every LP allocator builds on the same fragment: a rate column per
# (demand, path) with volume and capacity rows, plus each demand's ratio
# F_k / w_k as a linear form over its rate columns; each allocator adds only
# its own rows and columns, written over those forms.
fragment, forms = build_feasible_alloc(weighted)
print("fragment:", len(fragment.constraints), "rows x", len(fragment.variables), "columns:",
      [c.name for c in fragment.constraints], "ratio forms:", forms)
