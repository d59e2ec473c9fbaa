"""One-shot binners versus the iterative capped sequence.

The capped sequence raises a per-demand rate cap geometrically (u, u*a,
u*a^2, ...), solving one LP per step and freezing demands that stall below
their cap.  The geometric binner collapses the whole ladder into a single
LP by giving each demand one variable per bin and ranking the bins: one
objective level per bin, the lowest first.  Every optimum then fills a
demand's lower bins first, so the single solve reproduces the sequence's
allocation.
"""

from fairalloc import (
    Demand,
    Path,
    Problem,
    Resource,
    equi_depth_elastic,
    exact_sequential_max_min,
    geo_binner,
    suggest_bin_config,
    swan_sequence,
    total_allocation,
)

problem = Problem(
    resources=[Resource("e1", 0.5), Resource("e2", 1.0)],
    paths=[Path("p1", ["e1"]), Path("p2", ["e2"]), Path("p3", ["e2"])],
    demands=[Demand("d1", ["p1", "p2"]), Demand("d2", ["p3"])],
)

# One geometric ladder u * alpha^b drives both: the sequence caps its
# iterations by it, the binner bins by it.  Both take (u, alpha, bins).
ladder = suggest_bin_config(problem, alpha=2.0, u=1 / 16, bins=6)
print("ladder:", ladder)

sw = swan_sequence(problem, u=1 / 16, alpha=2.0, bins=6)
print("capped sequence:", total_allocation(problem, sw.allocation),
      f"({sw.lp_solves} LP solves)")

gb = geo_binner(problem, u=1 / 16, alpha=2.0, bins=6)
print("geometric binner:", total_allocation(problem, gb.allocation),
      f"({gb.lp_solves} LP solve)")
for k, bins in gb.notes["bins"].items():
    print(f"  {k} per-bin rate: {[round(b, 4) for b in bins]}")

# Same totals, one LP instead of six.  Both sit within a factor alpha of the
# exact max-min rates:
star = total_allocation(problem, exact_sequential_max_min(problem).allocation)
print("exact oracle:    ", star)

# The equi-depth binner spreads demands uniformly over bins (boundaries come
# from a quick waterfill estimate and are solved as LP variables).  On this
# instance it recovers the exact allocation.
eb = equi_depth_elastic(problem, bins=2)
print("equi-depth:      ", total_allocation(problem, eb.allocation),
      f"({eb.lp_solves} LP solve)")

# By default the ladder takes u from a waterfill estimate and covers the
# achievable range, one objective level per rung however many there are.
default = geo_binner(problem, alpha=2.0)
print("default ladder:", default.notes["boundaries"])
