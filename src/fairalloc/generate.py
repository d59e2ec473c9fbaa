"""Random problem generation: connected capacitated topologies, per-pair
demand volumes from a pluggable traffic model, and loopless K-shortest
paths between the endpoints of every demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Demand, Path, Problem, Resource

__all__ = ["TrafficSpec", "generate_problem", "k_shortest_paths", "sample_volumes"]

TRAFFIC_MODELS = ("poisson", "uniform", "bimodal", "gravity")

CAPACITY_RANGE = (5.0, 15.0)

# Bimodal mixture: 80% low mode, 20% high mode with 1:8 means, sigma at 20%
# of each mode's mean, truncated at 0.
BIMODAL_LOW_MEAN = 0.5
BIMODAL_HIGH_MEAN = 4.0
BIMODAL_HIGH_SHARE = 0.2


@dataclass(frozen=True)
class TrafficSpec:
    model: str
    scale_factor: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.model not in TRAFFIC_MODELS:
            raise ValueError(f"unknown traffic model {self.model!r}")
        if not self.scale_factor > 0:
            raise ValueError("scale_factor must be > 0")


def sample_volumes(spec: TrafficSpec, count: int, rng=None) -> np.ndarray:
    """Draw demand volumes for the stochastic models.  Every model's sample
    mean is proportional to the scale factor."""
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    s = spec.scale_factor
    if spec.model == "poisson":
        return rng.poisson(s, size=count).astype(float)
    if spec.model == "uniform":
        return rng.uniform(0.0, 2.0 * s, size=count)
    if spec.model == "bimodal":
        high = rng.random(count) < BIMODAL_HIGH_SHARE
        mean = np.where(high, BIMODAL_HIGH_MEAN, BIMODAL_LOW_MEAN) * s
        return np.maximum(0.0, rng.normal(mean, 0.2 * mean))
    raise ValueError(f"{spec.model} volumes are not sampled, they are derived")


def _shortest_path(
    adj: dict[str, list[str]],
    src: str,
    dst: str,
    banned_nodes: set[str],
    banned_edges: set[tuple[str, str]],
) -> list[str] | None:
    """Unit-weight shortest path from src to dst, the smallest node sequence
    among ties, or None; ``adj`` lists must be sorted.

    A layered BFS: the best path to a node extends the best path to its
    first-scanned predecessor.  Each layer is scanned in the order of its
    nodes' best paths and each list in node order, so nodes are discovered
    in the order of their best paths and the first scan to reach a node
    fixes its predecessor.
    """
    if src == dst:
        return [src]
    pred: dict[str, str] = {src: src}
    layer = [src]
    while layer:
        following = []
        for u in layer:
            for v in adj.get(u, ()):
                if v in pred or v in banned_nodes or (u, v) in banned_edges:
                    continue
                pred[v] = u
                if v == dst:
                    path = [v]
                    while v != src:
                        v = pred[v]
                        path.append(v)
                    path.reverse()
                    return path
                following.append(v)
        layer = following
    return None


def k_shortest_paths(
    adj: dict[str, list[str]], src: str, dst: str, k: int
) -> list[list[str]]:
    """Yen's loopless K-shortest paths over unit edge weights.

    Returns the first ``k`` (fewer if the graph has fewer) loopless src-dst
    paths in (length, node sequence) order, node names compared as strings;
    an empty list when dst is unreachable.  ``adj`` maps a node to the nodes
    its out-edges reach (list both directions for an undirected edge), and
    the result does not depend on the order of those lists.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    adj = {u: sorted(vs) for u, vs in adj.items()}
    first = _shortest_path(adj, src, dst, set(), set())
    if first is None:
        return []
    paths = [first]
    candidates: list[list[str]] = []
    while len(paths) < k:
        prev = paths[-1]
        for i in range(len(prev) - 1):
            root = prev[: i + 1]
            banned_edges: set[tuple[str, str]] = set()
            for p in paths:
                if p[: i + 1] == root and len(p) > i + 1:
                    banned_edges.add((p[i], p[i + 1]))
            banned_nodes = set(root[:-1])
            spur = _shortest_path(adj, root[-1], dst, banned_nodes, banned_edges)
            if spur is None:
                continue
            cand = root[:-1] + spur
            if cand not in paths and cand not in candidates:
                candidates.append(cand)
        if not candidates:
            break
        candidates.sort(key=lambda p: (len(p), p))
        paths.append(candidates.pop(0))
    return paths


def _edge_id(a: str, b: str) -> str:
    return f"e:{min(a, b)}-{max(a, b)}"


def generate_problem(
    nodes: int,
    edges: int,
    traffic: TrafficSpec,
    paths_per_pair: int = 4,
) -> Problem:
    """Random connected undirected topology with per-node-pair demands.

    Volumes come from the traffic model scaled by its scale factor (gravity
    is deterministic given the topology: proportional to the endpoint degree
    product, normalized so the mean volume equals the scale factor).  Pairs
    that draw a zero volume produce no demand.  Identical seeds give
    identical problems.
    """
    if nodes < 2:
        raise ValueError("need at least 2 nodes")
    max_edges = nodes * (nodes - 1) // 2
    if edges < nodes - 1 or edges > max_edges:
        raise ValueError(
            f"edge count {edges} outside the connected range "
            f"[{nodes - 1}, {max_edges}]"
        )
    if paths_per_pair < 1:
        raise ValueError("paths_per_pair must be >= 1")

    rng = np.random.default_rng(traffic.seed)
    labels = [f"n{i}" for i in range(nodes)]

    pairs: set[tuple[str, str]] = set()
    for i in range(1, nodes):
        j = int(rng.integers(0, i))  # random attachment keeps it connected
        pairs.add((labels[j], labels[i]))  # index order, as in all_pairs
    all_pairs = [
        (labels[i], labels[j]) for i in range(nodes) for j in range(i + 1, nodes)
    ]
    extra = [p for p in all_pairs if p not in pairs]
    rng.shuffle(extra)
    for p in extra[: edges - len(pairs)]:
        pairs.add(p)

    adj: dict[str, list[str]] = {v: [] for v in labels}
    resources = []
    for a, b in sorted(pairs):
        adj[a].append(b)
        adj[b].append(a)
        resources.append(Resource(_edge_id(a, b), float(rng.uniform(*CAPACITY_RANGE))))
    for v in adj:
        adj[v].sort()

    ordered_pairs = [(a, b) for a in labels for b in labels if a != b]
    if traffic.model == "gravity":
        deg = {v: float(len(adj[v])) for v in labels}
        mass = np.array([deg[a] * deg[b] for a, b in ordered_pairs])
        volumes = traffic.scale_factor * mass * len(mass) / mass.sum()
    else:
        volumes = sample_volumes(traffic, len(ordered_pairs), rng)

    paths: list[Path] = []
    demands: list[Demand] = []
    for (a, b), vol in zip(ordered_pairs, volumes):
        if vol <= 1e-9:
            continue
        routes = k_shortest_paths(adj, a, b, paths_per_pair)
        if not routes:
            continue
        pids = []
        for idx, route in enumerate(routes):
            pid = f"p:{a}->{b}#{idx}"
            paths.append(
                Path(pid, [_edge_id(u, v) for u, v in zip(route, route[1:])])
            )
            pids.append(pid)
        demands.append(Demand(f"d:{a}->{b}", pids, volume=float(vol)))

    if not demands:
        raise ValueError("traffic model produced no demand; raise scale_factor")
    return Problem(resources, paths, demands)
