"""Build a tiny capacitated-graph problem and poke at the model layer.

Two links e1 (capacity 0.5) and e2 (capacity 1.0); demand d1 may split over
both links, demand d2 is stuck on e2.  This instance reappears throughout
the demos because its max-min fair allocation is easy to reason about:
both demands end up with a total of 3/4.
"""

from fairalloc import (
    Allocation,
    Demand,
    Path,
    Problem,
    Resource,
    check_feasible,
    problem_to_json,
    total_allocation,
    build_subdemands,
    validate_problem,
)

problem = Problem(
    resources=[Resource("e1", 0.5), Resource("e2", 1.0)],
    paths=[Path("p1", ["e1"]), Path("p2", ["e2"]), Path("p3", ["e2"])],
    demands=[Demand("d1", ["p1", "p2"]), Demand("d2", ["p3"])],
)

print("violations:", validate_problem(problem))  # [] -> well formed

# Ids are checked when a problem is built: a repeated id is refused outright.
try:
    Problem(
        [Resource("e1", 1.0), Resource("e1", 5.0)], [Path("p1", ["e1"])], [Demand("d1", ["p1"])]
    )
except ValueError as exc:
    print("refused:", exc)  # duplicate resource id 'e1'

# A valid (in fact max-min fair) allocation: d1 = 1/2 + 1/4, d2 = 3/4.
alloc = Allocation({("d1", "p1"): 0.5, ("d1", "p2"): 0.25, ("d2", "p3"): 0.75})
print("totals:", total_allocation(problem, alloc))

check = check_feasible(problem, alloc)
print("feasible:", check.feasible)
print("capacity slack per link:", check.capacity_slack)  # both links fully used

# Push d2 beyond e2 and watch the slack go negative.
greedy = Allocation({("d1", "p2"): 0.5, ("d2", "p3"): 0.75})
print("overloaded e2 slack:", check_feasible(problem, greedy).capacity_slack["e2"])

# The waterfillers and the bottleneck check see a volume bound as a link: the
# subdemand incidence gives each bounded demand a virtual row whose capacity
# is its requested rate, after the resource rows.
bounded = Problem(
    resources=[Resource("e1", 10.0)],
    paths=[Path("p1", ["e1"])],
    demands=[Demand("d1", ["p1"], volume=2.0)],
)
matrix, capacities = build_subdemands(bounded)  # each demand split evenly over its paths
print("incidence rows:", matrix.rows, "capacities:", capacities.tolist())

# The incidence is built from a valid problem only, so the waterfillers
# refuse an invalid one with the same error as the LP allocators.
try:
    build_subdemands(Problem([Resource("e", -1.0)], [Path("p", ["e"])], [Demand("a", ["p"])]))
except ValueError as exc:
    print("refused:", exc)  # invalid problem (1 violations): e: capacity-sign: ...

# Problems serialize to a canonical JSON format (volume null = unbounded).
print(problem_to_json(problem))
