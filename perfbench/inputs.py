"""Seeded benchmark inputs: WAN traffic-engineering and cluster-scheduling
problems, grouped into the benchmark's three workloads.

The WAN topologies come from the benchmark's own connected-graph sampler
rather than ``fairalloc.generate.generate_problem``: that generator emits
duplicate edge ids once a topology has 11 or more nodes (most seeds at 20
and 30 nodes give invalid problems), and fixing it will change its output,
which would silently change the workloads.  Paths still come from the public
``fairalloc.generate.k_shortest_paths``; cluster problems use the public
model constructors.  Every problem is fingerprinted by the sha256 of its
canonical JSON so that two commits can show they ran identical inputs.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from fairalloc.generate import k_shortest_paths
from fairalloc.model import Demand, Path, Problem, Resource, problem_to_dict

WAN_SCALE = 8.0  # mean demand volume; link capacities are U(5, 15)
# Problems per batch group: enough that a pass averages out the spread of
# per-problem cost (cheap groups, and exact's D=12 rounds, get more).
BATCH = 16

# The ids of fairalloc.bench.ALLOCATOR_IDS, pinned here so that the
# benchmark's metric names do not change when the library adds an allocator.
ALLOCATORS = (
    "exact",
    "oneshot",
    "swan",
    "gb",
    "eb-elastic",
    "eb-multibin",
    "waterfill",
    "approx-waterfill",
    "adaptive-waterfill",
)
EXACT_ALLOCATORS = ("exact", "oneshot", "waterfill")
APPROX_ALLOCATORS = (
    "swan",
    "gb",
    "eb-elastic",
    "eb-multibin",
    "approx-waterfill",
    "adaptive-waterfill",
)
# Allocators whose outputs can be scored for fairness: the approximate ones,
# and oneshot and waterfill on the groups that list them in ``Group.scored``.
SCORED_ALLOCATORS = ("oneshot",) + APPROX_ALLOCATORS + ("waterfill",)
LP_ALLOCATORS = ("exact", "oneshot", "swan", "gb", "eb-elastic", "eb-multibin")
WATERFILLERS = ("waterfill", "approx-waterfill", "adaptive-waterfill")


# -- WAN ----------------------------------------------------------------------


def wan_problem(
    rng: np.random.Generator, nodes: int, edges: int, traffic: str, paths: int
) -> Problem:
    """Random connected topology with one demand per ordered node pair.

    A ring through the nodes in random order keeps every pair 2-connected,
    so each pair has its K paths and problem sizes barely vary with the
    seed; the remaining edges are distinct random chords.
    Node labels are zero-padded so string order equals index order and every
    edge id is unique.  ``gravity`` volumes follow the endpoint degree
    product (mean WAN_SCALE); ``uniform`` volumes are U(0.1, 2) * WAN_SCALE.
    """
    if not nodes <= edges <= nodes * (nodes - 1) // 2:
        raise ValueError(f"{edges} edges cannot connect {nodes} nodes")
    width = len(str(nodes - 1))
    label = [f"n{i:0{width}d}" for i in range(nodes)]
    ring = rng.permutation(nodes)
    pairs = {tuple(sorted((int(ring[i]), int(ring[i - 1])))) for i in range(nodes)}
    extra = [(i, j) for i in range(nodes) for j in range(i + 1, nodes) if (i, j) not in pairs]
    for t in rng.permutation(len(extra))[: edges - len(pairs)]:
        pairs.add(extra[t])

    adj: dict[str, list[str]] = {v: [] for v in label}
    resources = []
    for i, j in sorted(pairs):
        adj[label[i]].append(label[j])
        adj[label[j]].append(label[i])
        resources.append(Resource(f"e:{label[i]}-{label[j]}", float(rng.uniform(5.0, 15.0))))
    for v in adj:
        adj[v].sort()

    od = [(a, b) for a in label for b in label if a != b]
    if traffic == "gravity":
        mass = np.array([len(adj[a]) * len(adj[b]) for a, b in od], dtype=float)
        volumes = WAN_SCALE * mass * len(mass) / mass.sum()
    elif traffic == "uniform":
        volumes = rng.uniform(0.1 * WAN_SCALE, 2.0 * WAN_SCALE, size=len(od))
    else:
        raise ValueError(f"unknown traffic {traffic!r}")

    path_list, demands = [], []
    for (a, b), vol in zip(od, volumes):
        pids = []
        for x, route in enumerate(k_shortest_paths(adj, a, b, paths)):
            pid = f"p:{a}-{b}#{x}"
            hops = [f"e:{min(u, v)}-{max(u, v)}" for u, v in zip(route, route[1:])]
            path_list.append(Path(pid, hops))
            pids.append(pid)
        demands.append(Demand(f"d:{a}-{b}", pids, volume=float(vol)))
    return Problem(resources, path_list, demands)


# -- cluster ------------------------------------------------------------------


def cluster_problem(
    rng: np.random.Generator, servers: int, jobs: int, pinned: bool = False
) -> Problem:
    """Servers are paths over their own cpu/mem resources (every third server
    also has a gpu); jobs are demands eligible for all servers but one (both
    when there are two; exactly one when ``pinned``).

    Each job has its own consumption vector (r != 1), a utility per server
    type (0.5-0.9 on cpu servers, 1.5-4 on gpu servers, so q != 1), a weight
    in {1, 2, 4}, and is bounded with probability 1/2.
    """
    resources, paths, has_gpu = [], [], []
    for s in range(servers):
        gpu = s % 3 == 2
        caps = {"cpu": float(rng.choice([32.0, 64.0])), "mem": float(rng.choice([128.0, 256.0]))}
        if gpu:
            caps["gpu"] = float(rng.choice([4.0, 8.0]))
        resources += [Resource(f"s{s}:{kind}", cap) for kind, cap in caps.items()]
        paths.append(Path(f"srv{s}", [f"s{s}:{kind}" for kind in caps]))
        has_gpu.append(gpu)

    demands = []
    for j in range(jobs):
        if pinned:
            eligible = [int(rng.integers(0, servers))]
        else:
            count = max(2, servers - 1)
            eligible = sorted(int(s) for s in rng.choice(servers, size=count, replace=False))
        need = {
            "cpu": float(rng.uniform(0.5, 4.0)),
            "mem": float(rng.uniform(1.0, 16.0)),
            "gpu": float(rng.uniform(0.25, 1.0)),
        }
        speed = {False: float(rng.uniform(0.5, 0.9)), True: float(rng.uniform(1.5, 4.0))}
        consumption, utility = {}, {}
        for s in eligible:
            for kind in ("cpu", "mem", "gpu") if has_gpu[s] else ("cpu", "mem"):
                consumption[f"s{s}:{kind}"] = need[kind]
            utility[f"srv{s}"] = speed[has_gpu[s]]
        volume = float(rng.uniform(1.0, 12.0)) if rng.random() < 0.5 else None
        weight = float(rng.choice([1.0, 2.0, 4.0]))
        demands.append(
            Demand(f"j{j}", [f"srv{s}" for s in eligible], volume, weight, utility, consumption)
        )
    return Problem(resources, paths, demands)


# -- workloads ----------------------------------------------------------------


@dataclass(frozen=True)
class Group:
    """``count`` problems from ``build`` and the allocators timed on them.

    ``reference`` names the oracle of the max-min fair reference totals,
    which make_refs.py stores per fingerprint: "exact" (the sequential LP
    oracle), "waterfill" (exact single-path waterfilling), or None (no
    affordable oracle: outputs are only checked for feasibility).
    ``scored`` lists exact allocators that are known not to be exact on
    this group's problems: their outputs are scored for fairness against the
    reference, like an approximate allocator's, instead of failing it.
    """

    name: str
    build: Callable[[np.random.Generator, int], Problem]
    count: int
    allocators: tuple[str, ...]
    reference: str | None
    scored: tuple[str, ...] = ()


def _wan(nodes: int, edges: int, paths: int, traffic: str | None = None):
    """Builder for a WAN rung; ``traffic=None`` alternates gravity/uniform."""

    def build(rng: np.random.Generator, index: int) -> Problem:
        kind = traffic or ("gravity", "uniform")[index % 2]
        return wan_problem(rng, nodes, edges, kind, paths)

    return build


def _cluster(servers: int, jobs: int, pinned: bool = False):
    def build(rng: np.random.Generator, index: int) -> Problem:
        return cluster_problem(rng, servers, jobs, pinned)

    return build


# Every workload times all nine allocators, because every end-to-end metric
# needs a value on every workload; each allocator runs on the rung where the
# workload's focus layer dominates, or on a small rung where it cannot.
# oneshot runs at its default epsilon (0.01) on D = 6 problems: at D = 12 only
# epsilon >= 0.082 passes its underflow guard, and epsilon = 0.1 is not exact
# (one 2-server, 6-job cluster problem missed the exact totals by 147%).
# Its epsilon^i objective is lexicographic only while 1/epsilon exceeds the
# rate trade-offs the data allows; on cluster problems (non-unit weights,
# utility and consumption) epsilon = 0.01 is not always enough (one seed's
# problem missed by 0.64%), so oneshot is scored there like waterfill below.
WORKLOADS: dict[str, tuple[Group, ...]] = {
    # LP-affordable WAN rungs: the LP layer does almost all the work.
    "wan-lp": (
        Group("wan-d6", _wan(3, 3, 4), 2 * BATCH, ("oneshot",), "exact"),
        Group("wan-d12", _wan(4, 5, 4), 40, ("exact",), "exact"),
        Group(
            "wan-d20",
            _wan(5, 7, 4),
            BATCH,
            ("swan", "gb", "eb-elastic", "eb-multibin", "approx-waterfill", "adaptive-waterfill"),
            "exact",
        ),
        Group("wan-d20-k1", _wan(5, 7, 1), 2 * BATCH, ("waterfill",), "waterfill"),
    ),
    # Large WAN rungs: waterfilling only, with the single-path rung scored
    # against exact waterfilling; LP allocators only see small single-path
    # problems, also scored against waterfilling.
    "wan-waterfill": (
        Group("wan-d380", _wan(20, 34, 4, "gravity"), 1, WATERFILLERS[1:], None),
        Group("wan-d870", _wan(30, 50, 4, "uniform"), 1, WATERFILLERS[1:], None),
        Group("wan-d870-k1", _wan(30, 50, 1, "uniform"), 1, WATERFILLERS, "waterfill"),
        Group("wan-d6-k1", _wan(3, 3, 1), 2 * BATCH, ("oneshot",), "waterfill"),
        Group(
            "wan-d12-k1",
            _wan(4, 5, 1),
            BATCH,
            ("exact", "swan", "gb", "eb-elastic", "eb-multibin"),
            "waterfill",
        ),
    ),
    # Cluster scheduling: dense coupling, non-unit utility and consumption,
    # weighted ratios.  oneshot is scored, not held to the reference (see
    # above).  The single-path group's reference is the exact LP
    # sequence, not waterfilling: waterfilling equalises weighted rates and
    # ignores utility, so it is not max-min fair in utility totals when
    # q != 1 (it misses the exact totals by 5-80% on every such problem).
    # Until that is fixed, waterfill is scored there, and its shortfall shows
    # as fairness.waterfill and in fairness_min rather than as failed calls.
    "cluster": (
        Group("cluster-4x12", _cluster(4, 12), 24, ("exact",) + APPROX_ALLOCATORS, "exact"),
        Group(
            "cluster-2x6", _cluster(2, 6), 2 * BATCH, ("oneshot",), "exact", scored=("oneshot",)
        ),
        Group(
            "cluster-4x12-pinned",
            _cluster(4, 12, pinned=True),
            2 * BATCH,
            ("waterfill",),
            "exact",
            scored=("waterfill",),
        ),
    ),
}


@dataclass(frozen=True)
class Instance:
    group: Group
    index: int
    problem: Problem
    fingerprint: str


def fingerprint(problem: Problem) -> str:
    """sha256 of the problem's canonical JSON (sorted keys, no whitespace)."""
    text = json.dumps(problem_to_dict(problem), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def build_instances(workload: str, seed: int) -> list[Instance]:
    """All problems of a workload; instance i of group g draws from its own
    stream (seed, crc32(g), i), so groups and instances are independent."""
    out = []
    for group in WORKLOADS[workload]:
        tag = zlib.crc32(group.name.encode())
        for i in range(group.count):
            problem = group.build(np.random.default_rng([seed, tag, i]), i)
            out.append(Instance(group, i, problem, fingerprint(problem)))
    return out


def inputs_fingerprint(instances: list[Instance]) -> str:
    """One sha256 over every instance fingerprint, in workload order."""
    return hashlib.sha256("".join(x.fingerprint for x in instances).encode()).hexdigest()
