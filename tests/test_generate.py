"""K-shortest paths and the problem generator: ``k_shortest_paths`` against
a reference Yen loop whose spur search is a Dijkstra over a heap of whole
path tuples and against brute-force enumeration, and generated problems
against pinned digests."""

import hashlib
import heapq
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from fairalloc.generate import TrafficSpec, generate_problem, k_shortest_paths
from fairalloc.model import problem_to_json, validate_problem

# -- reference: Yen's loop over a heap of whole path tuples ------------------------


def reference_dijkstra(adj, src, dst, banned_nodes, banned_edges):
    """Unit-weight shortest path, lexicographically smallest node sequence
    among ties (the heap orders by (length, node sequence))."""
    heap = [(0, (src,))]
    seen = set()
    while heap:
        dist, path = heapq.heappop(heap)
        node = path[-1]
        if node == dst:
            return list(path)
        if node in seen:
            continue
        seen.add(node)
        for nxt in adj.get(node, []):
            if nxt in seen or nxt in banned_nodes or (node, nxt) in banned_edges:
                continue
            heapq.heappush(heap, (dist + 1, path + (nxt,)))
    return None


def reference_k_shortest_paths(adj, src, dst, k):
    """Yen's loopless K-shortest paths over unit edge weights."""
    first = reference_dijkstra(adj, src, dst, set(), set())
    if first is None:
        return []
    paths = [first]
    candidates = []
    while len(paths) < k:
        prev = paths[-1]
        for i in range(len(prev) - 1):
            root = prev[: i + 1]
            banned_edges = set()
            for p in paths:
                if p[: i + 1] == root and len(p) > i + 1:
                    banned_edges.add((p[i], p[i + 1]))
            banned_nodes = set(root[:-1])
            spur = reference_dijkstra(adj, root[-1], dst, banned_nodes, banned_edges)
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


def every_loopless_path(adj, src, dst):
    """All loopless src-dst paths in (length, node sequence) order."""
    out, stack = [], [[src]]
    while stack:
        path = stack.pop()
        if path[-1] == dst:
            out.append(path)
            continue
        stack.extend(path + [v] for v in set(adj.get(path[-1], ())) if v not in path)
    return sorted(out, key=lambda p: (len(p), p))


# String order differs from insertion order: "n10" < "n2", "Z" < "a".
NAMES = ["n2", "n10", "a", "Z", "n1", "b", "B", "n20"]


@st.composite
def graphs(draw):
    names = draw(st.permutations(NAMES))[: draw(st.integers(3, len(NAMES)))]
    n = len(names)
    directed = draw(st.booleans())
    adj = {v: [] for v in names}  # insertion order is the drawn order
    for i in range(n):
        for j in range(n if directed else i):
            if i != j and draw(st.booleans()):
                adj[names[i]].append(names[j])
                if not directed:
                    adj[names[j]].append(names[i])
    src, *others = draw(st.permutations(names))
    dst = draw(st.sampled_from(others + [src]))
    return adj, src, dst


@settings(max_examples=300, deadline=None)
@given(case=graphs(), k=st.integers(1, 8), shuffle_seed=st.integers(0, 2**16))
def test_k_shortest_paths_matches_the_reference_and_ignores_adjacency_order(case, k, shuffle_seed):
    adj, src, dst = case
    want = reference_k_shortest_paths(adj, src, dst, k)
    assert want == every_loopless_path(adj, src, dst)[:k]
    shuffled = {v: list(vs) for v, vs in adj.items()}
    rng = random.Random(shuffle_seed)
    for vs in shuffled.values():
        rng.shuffle(vs)
    before = {v: list(vs) for v, vs in shuffled.items()}
    assert k_shortest_paths(shuffled, src, dst, k) == want
    assert shuffled == before


# -- generated problems, pinned --------------------------------------------------

# sha256 of problem_to_json(generate_problem(...)), recorded with the
# reference spur search; a change of paths, their order or their ids changes
# the digest.
DIGESTS = [
    ((6, 9, "uniform", 2.0, 11, 2), "c1016585c4ce75b81330ae44a386eb7673071d90a17647c762bb6c31abbea10c"),
    ((10, 15, "gravity", 8.0, 0, 4), "3c176c7343cdfb6d8705dc7561a0885d08f52320b8ea086cfbfae1ae20ccb111"),
    ((12, 20, "poisson", 3.0, 5, 8), "844f857a82584252c1bd36931b4bf1c0b34b82f36a0ce1c0864857e0d4c53d35"),
    ((20, 34, "bimodal", 4.0, 2, 3), "a8b08d8fd3aa01a466dd36ce00b7ca15e91da1949ddd67270b41b5baf84653dd"),
    ((30, 50, "uniform", 8.0, 0, 4), "e1fad2149cc97b6a6a54f118b090e65761650a8cf3a0dffa59d392f7e2bd2ff7"),
]


@pytest.mark.parametrize("params,digest", DIGESTS, ids=[str(p) for p, _ in DIGESTS])
def test_generated_problem_matches_its_recorded_digest(params, digest):
    nodes, edges, model, scale, seed, k = params
    prob = generate_problem(nodes, edges, TrafficSpec(model, scale, seed), k)
    assert hashlib.sha256(problem_to_json(prob).encode()).hexdigest() == digest


def test_paper_scale_rung_is_valid():
    prob = generate_problem(50, 80, TrafficSpec("gravity", 8.0, 0), 4)
    assert validate_problem(prob) == []
    assert len(prob.demands) == 50 * 49
    # A degree-1 node reaches its one neighbour by a single loopless path;
    # every other pair of this topology has at least 4.
    degree = Counter(node for r in prob.resources for node in r.id[2:].split("-"))
    paths = prob.path_map()
    leaf_pairs = {
        d.id
        for d in prob.demands
        if len(paths[d.paths[0]].resources) == 1
        and min(degree[end] for end in d.id[2:].split("->")) == 1
    }
    assert len(leaf_pairs) == 16
    assert Counter(len(d.paths) for d in prob.demands) == {4: 2434, 1: 16}
    assert {d.id for d in prob.demands if len(d.paths) == 1} == leaf_pairs
