"""Multi-path waterfilling: why plain waterfilling fails and how the
adaptive variant fixes it.

Per-link fair shares are not globally fair when a demand can use several
paths.  The adaptive waterfiller splits each demand into one subdemand per
path, waterfills, then re-weights the subdemands toward the paths that
yielded more (theta(t+1) = f_k^p / sum_p f_k^p) and repeats.  On the
two-link example the weights converge to (2/3, 1/3) and the rates to
(1/2, 1/4, 3/4) -- the global max-min fair point.
"""

from fractions import Fraction

from fairalloc import (
    Demand,
    Path,
    Problem,
    Resource,
    adaptive_waterfill,
    is_bandwidth_bottlenecked,
    theta_trace_csv,
    total_allocation,
)

problem = Problem(
    resources=[Resource("e1", 0.5), Resource("e2", 1.0)],
    paths=[Path("p1", ["e1"]), Path("p2", ["e2"]), Path("p3", ["e2"])],
    demands=[Demand("d1", ["p1", "p2"]), Demand("d2", ["p3"])],
)

report = adaptive_waterfill(problem, iterations=6, inner="exact")
# The trace holds one row per iteration of theta and of rates, indexed by
# subdemand column.
trace = report.notes["theta_trace"]
p1, p2 = trace["columns"].index(("d1", "p1")), trace["columns"].index(("d1", "p2"))
print("t   theta_d1^p1        f_d1^p2            (as fractions)")
for t, (theta, rates) in enumerate(zip(trace["theta"], trace["rates"]), 1):
    th, f12 = float(theta[p1]), float(rates[p2])
    print(f"{t}   {th:.12f}   {f12:.12f}   "
          f"theta={Fraction(th).limit_denominator(1000)}, "
          f"f={Fraction(f12).limit_denominator(1000)}")

longer = adaptive_waterfill(problem, iterations=20, inner="exact")
print("\nconverged:", longer.converged, "after", longer.iterations, "iterations")
print("rates:", {k: round(v, 6) for k, v in longer.allocation.rates.items()})

# A converged allocation is bandwidth-bottlenecked: every subdemand ends at
# a saturated link where its demand's ratio is at least every sharer's.
check = is_bandwidth_bottlenecked(problem, longer.allocation, tol=1e-4)
print("bandwidth-bottlenecked:", check.bottlenecked)

# The first iterate is not: d2 sits at 2/3 on e2 next to d1's 5/6.
from fairalloc import Allocation

first = Allocation({("d1", "p1"): 0.5, ("d1", "p2"): 1 / 3, ("d2", "p3"): 2 / 3})
print("iteration-1 bottlenecked:", is_bandwidth_bottlenecked(problem, first).witness)

# Traces export as CSV (iteration x subdemand) for convergence plots.
print()
print(theta_trace_csv(report))
