"""Capacitated-graph model for multi-resource max-min fair allocation.

Resources are edges with capacities, paths are groups of resources that must
be allocated together, and demands request rate over one or more paths.  A
demand may carry a weight (for weighted fairness), per-path utilities and
per-resource consumption factors.  ``volume=None`` means the demand is
unbounded (never encoded as a huge float).

Ids are the model's identity: building a ``Problem`` raises ``ValueError``
when a resource, path or demand id repeats or a demand lists a path twice,
so every id-keyed view (maps, allocation keys) is one-to-one.  Rows and
columns derived from several ids (subdemands, LP columns) are keyed by
index in problem order, never by ids joined with a separator.  ``validate_problem``
reports the remaining rules as data.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

__all__ = [
    "Resource",
    "Path",
    "Demand",
    "Problem",
    "Allocation",
    "Violation",
    "FeasibilityCheck",
    "validate_problem",
    "raise_if_invalid",
    "total_allocation",
    "check_feasible",
    "default_feasibility_tol",
    "problem_to_dict",
    "problem_from_dict",
    "problem_to_json",
    "problem_from_json",
]


@dataclass(frozen=True)
class Resource:
    id: str
    capacity: float


@dataclass(frozen=True)
class Path:
    id: str
    resources: tuple[str, ...]

    def __init__(self, id: str, resources: Iterable[str]):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "resources", tuple(resources))


@dataclass(frozen=True)
class Demand:
    """A request for rate over one or more paths.

    ``volume`` is the requested rate (None = unbounded), ``weight`` scales the
    fairness ratio f_k / w_k, ``utility`` maps path id -> utility per unit
    rate (default 1) and ``consumption`` maps resource id -> capacity consumed
    per unit rate (default 1).
    """

    id: str
    paths: tuple[str, ...]
    volume: float | None = None
    weight: float = 1.0
    utility: Mapping[str, float] = field(default_factory=dict)
    consumption: Mapping[str, float] = field(default_factory=dict)

    def __init__(
        self,
        id: str,
        paths: Iterable[str],
        volume: float | None = None,
        weight: float = 1.0,
        utility: Mapping[str, float] | None = None,
        consumption: Mapping[str, float] | None = None,
    ):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "paths", tuple(paths))
        object.__setattr__(self, "volume", volume)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "utility", dict(utility or {}))
        object.__setattr__(self, "consumption", dict(consumption or {}))

    def utility_on(self, path_id: str) -> float:
        return self.utility.get(path_id, 1.0)

    def consumption_on(self, resource_id: str) -> float:
        return self.consumption.get(resource_id, 1.0)

    @property
    def bounded(self) -> bool:
        return self.volume is not None


def _require_distinct(ids: Sequence[str], kind: str, where: str = "") -> None:
    """Raise ValueError naming the first id of ``ids`` that repeats."""
    if len(set(ids)) < len(ids):
        repeated = next(i for i, n in Counter(ids).items() if n > 1)
        raise ValueError(f"duplicate {kind} id {repeated!r}{where}")


@dataclass(frozen=True)
class Problem:
    resources: tuple[Resource, ...]
    paths: tuple[Path, ...]
    demands: tuple[Demand, ...]

    def __init__(
        self,
        resources: Iterable[Resource],
        paths: Iterable[Path],
        demands: Iterable[Demand],
    ):
        object.__setattr__(self, "resources", tuple(resources))
        object.__setattr__(self, "paths", tuple(paths))
        object.__setattr__(self, "demands", tuple(demands))
        _require_distinct([r.id for r in self.resources], "resource")
        _require_distinct([p.id for p in self.paths], "path")
        _require_distinct([d.id for d in self.demands], "demand")
        for d in self.demands:
            _require_distinct(d.paths, "path", f" in demand {d.id!r}")

    def resource_map(self) -> dict[str, Resource]:
        return {r.id: r for r in self.resources}

    def path_map(self) -> dict[str, Path]:
        return {p.id: p for p in self.paths}

    def demand_map(self) -> dict[str, Demand]:
        return {d.id: d for d in self.demands}

    def max_capacity(self) -> float:
        return max(r.capacity for r in self.resources)


@dataclass(frozen=True)
class Allocation:
    """Per-(demand, path) rates f_k^p keyed by (demand id, path id)."""

    rates: Mapping[tuple[str, str], float]

    def __init__(self, rates: Mapping[tuple[str, str], float]):
        object.__setattr__(self, "rates", dict(rates))

    def rate(self, demand_id: str, path_id: str) -> float:
        return self.rates.get((demand_id, path_id), 0.0)


@dataclass(frozen=True)
class Violation:
    entity: str
    rule: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.entity}: {self.rule}: {self.message}"


def validate_problem(problem: Problem) -> list[Violation]:
    """Check every model invariant; an empty list means the problem is valid.

    Violations are data, not exceptions: each names the offending entity and
    the rule it breaks.  Identity (distinct ids, each path once per demand)
    is not among them: it is enforced when the ``Problem`` is built.
    """
    out: list[Violation] = []

    def bad(entity: str, rule: str, message: str) -> None:
        out.append(Violation(entity, rule, message))

    if not problem.resources:
        bad("problem", "nonempty", "needs at least one resource")
    if not problem.paths:
        bad("problem", "nonempty", "needs at least one path")
    if not problem.demands:
        bad("problem", "nonempty", "needs at least one demand")

    for r in problem.resources:
        if not (r.capacity >= 0.0):
            bad(r.id, "capacity-sign", f"capacity {r.capacity} must be >= 0")
        elif not math.isfinite(r.capacity):
            bad(r.id, "capacity-finite", "capacity must be finite")

    resource_ids = {r.id for r in problem.resources}
    for p in problem.paths:
        if not p.resources:
            bad(p.id, "nonempty-path", "path has no resources")
        if len(set(p.resources)) != len(p.resources):
            bad(p.id, "no-duplicate-resource", "path repeats a resource")
        for rid in p.resources:
            if rid not in resource_ids:
                bad(p.id, "referential-integrity", f"unknown resource {rid!r}")

    path_map = {p.id: p for p in problem.paths}
    for d in problem.demands:
        if not (d.weight > 0.0) or not math.isfinite(d.weight):
            bad(d.id, "weight-positive", f"weight {d.weight} must be > 0")
        if d.volume is not None and (not (d.volume > 0.0) or not math.isfinite(d.volume)):
            bad(d.id, "volume-positive", f"volume {d.volume} must be > 0 or unbounded")
        if not d.paths:
            bad(d.id, "nonempty-paths", "demand has no paths")
        on_path_resources: set[str] = set()
        for pid in d.paths:
            if pid not in path_map:
                bad(f"{d.id}/{pid}", "referential-integrity", f"unknown path {pid!r}")
            else:
                on_path_resources.update(path_map[pid].resources)
        for pid, q in d.utility.items():
            if pid not in d.paths:
                bad(d.id, "utility-keys", f"utility for {pid!r} not among demand paths")
            if not (q > 0.0):
                bad(d.id, "utility-positive", f"utility {q} on {pid!r} must be > 0")
        for rid, r in d.consumption.items():
            if rid not in on_path_resources:
                bad(d.id, "consumption-keys", f"consumption for {rid!r} not on demand paths")
            if not (r > 0.0):
                bad(d.id, "consumption-positive", f"consumption {r} on {rid!r} must be > 0")
    return out


def raise_if_invalid(violations: list[Violation]) -> None:
    """Raise every allocator's ValueError for a problem with violations."""
    if violations:
        head = "; ".join(str(v) for v in violations[:3])
        raise ValueError(f"invalid problem ({len(violations)} violations): {head}")


def total_allocation(problem: Problem, alloc: Allocation) -> dict[str, float]:
    """Utility-weighted totals f_k = sum_p q_k^p * f_k^p."""
    demand_map = problem.demand_map()
    for (k, p) in alloc.rates:
        if k not in demand_map or p not in demand_map[k].paths:
            raise KeyError(f"allocation key ({k!r}, {p!r}) not valid for problem")
    totals = {d.id: 0.0 for d in problem.demands}
    for (k, p), rate in alloc.rates.items():
        totals[k] += demand_map[k].utility_on(p) * rate
    return totals


def default_feasibility_tol(problem: Problem) -> float:
    """1e-6 of the problem's scale, the largest capacity or finite volume:
    capacity rows and volume rows both round at that scale, so a volume row
    keeps a positive tolerance when every capacity is 0."""
    volumes = [d.volume for d in problem.demands if d.bounded and math.isfinite(d.volume)]
    return 1e-6 * max([problem.max_capacity(), *volumes])


@dataclass(frozen=True)
class FeasibilityCheck:
    feasible: bool
    volume_slack: dict[str, float]
    capacity_slack: dict[str, float]
    negative_rates: list[tuple[str, str, float]]


def check_feasible(
    problem: Problem, alloc: Allocation, tol: float | None = None
) -> FeasibilityCheck:
    """Verify volume, capacity and nonnegativity constraints within ``tol``.

    Slacks are reported per constraint (negative slack = violated).  Volume
    compares the raw path-rate sum against the demand volume; capacity uses
    consumption-scaled usage.  It reads the problem directly, not the
    waterfillers' subdemand incidence, so it stays an independent gate.
    """
    if tol is None:
        tol = default_feasibility_tol(problem)
    demand_map = problem.demand_map()
    path_map = problem.path_map()

    negative = [
        (k, p, rate) for (k, p), rate in alloc.rates.items() if rate < -tol
    ]

    volume_slack: dict[str, float] = {}
    for d in problem.demands:
        if d.volume is None:
            continue
        used = sum(alloc.rate(d.id, pid) for pid in d.paths)
        volume_slack[d.id] = d.volume - used

    usage = {r.id: 0.0 for r in problem.resources}
    for (k, p), rate in alloc.rates.items():
        d = demand_map[k]
        for rid in path_map[p].resources:
            usage[rid] += d.consumption_on(rid) * rate
    capacity_slack = {r.id: r.capacity - usage[r.id] for r in problem.resources}

    ok = (
        not negative
        and all(s >= -tol for s in volume_slack.values())
        and all(s >= -tol for s in capacity_slack.values())
    )
    return FeasibilityCheck(ok, volume_slack, capacity_slack, negative)


# -- canonical JSON format ---------------------------------------------------


def problem_to_dict(problem: Problem) -> dict:
    return {
        "resources": [
            {"id": r.id, "capacity": r.capacity} for r in problem.resources
        ],
        "paths": [
            {"id": p.id, "resources": list(p.resources)} for p in problem.paths
        ],
        "demands": [
            {
                "id": d.id,
                "volume": d.volume,
                "weight": d.weight,
                "paths": list(d.paths),
                "utility": dict(d.utility),
                "consumption": dict(d.consumption),
            }
            for d in problem.demands
        ],
    }


def problem_from_dict(data: dict) -> Problem:
    try:
        resources = [
            Resource(str(r["id"]), float(r["capacity"])) for r in data["resources"]
        ]
        paths = [
            Path(str(p["id"]), [str(x) for x in p["resources"]])
            for p in data["paths"]
        ]
        demands = []
        for d in data["demands"]:
            volume = d.get("volume")
            demands.append(
                Demand(
                    str(d["id"]),
                    [str(x) for x in d["paths"]],
                    None if volume is None else float(volume),
                    float(d.get("weight", 1.0)),
                    {str(k): float(v) for k, v in d.get("utility", {}).items()},
                    {str(k): float(v) for k, v in d.get("consumption", {}).items()},
                )
            )
    except KeyError as exc:
        raise ValueError(f"problem JSON missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed problem JSON: {exc}") from exc
    return Problem(resources, paths, demands)


def problem_to_json(problem: Problem, indent: int | None = 2) -> str:
    return json.dumps(problem_to_dict(problem), indent=indent)


def problem_from_json(text: str) -> Problem:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return problem_from_dict(data)
