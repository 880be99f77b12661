"""Shared oracles and random-graph builders for the test suite.

Every oracle here works straight off the adjacency structure, independently
of the library's distance matrix and betweenness machinery, so agreement
tests actually cross-check two routes.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations
from random import Random

from geohull.graph import Graph


# -- random graphs -----------------------------------------------------------

def random_connected_graph(rng: Random, min_vertices: int = 1,
                           max_vertices: int = 12) -> Graph:
    """Random spanning tree plus a random sprinkling of extra edges."""
    n = rng.randint(min_vertices, max_vertices)
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for idx in range(1, n):
        a, b = order[idx], order[rng.randrange(idx)]
        edges.add((min(a, b), max(a, b)))
    extra = rng.uniform(0.0, 0.6)
    for u, v in combinations(range(n), 2):
        if rng.random() < extra:
            edges.add((u, v))
    return Graph(n, sorted(edges))


def random_graph(rng: Random, min_vertices: int = 1,
                 max_vertices: int = 10) -> Graph:
    """Plain G(n, p), not necessarily connected."""
    n = rng.randint(min_vertices, max_vertices)
    p = rng.uniform(0.0, 0.7)
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return Graph(n, edges)


def random_subset(rng: Random, pool) -> set[int]:
    return {v for v in pool if rng.random() < 0.5}


# -- shortest-path oracles -----------------------------------------------------

def bfs_levels(g: Graph, source: int) -> list[int]:
    dist = [-1] * g.vertex_count
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in g.neighbors(u):
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def all_shortest_paths(g: Graph, u: int, v: int) -> list[tuple[int, ...]]:
    """Every shortest u-v path, enumerated along the BFS level structure."""
    dist = bfs_levels(g, u)
    if dist[v] < 0:
        return []

    def backtrack(x: int) -> list[tuple[int, ...]]:
        if x == u:
            return [(u,)]
        paths = []
        for w in sorted(g.neighbors(x)):
            if dist[w] == dist[x] - 1:
                paths.extend(p + (x,) for p in backtrack(w))
        return paths

    return backtrack(v)


def interval_oracle(g: Graph, vertices) -> set[int]:
    """Union of the vertices of all shortest paths between set members."""
    members = sorted(set(vertices))
    out = set(members)
    for i, u in enumerate(members):
        for v in members[i + 1:]:
            for path in all_shortest_paths(g, u, v):
                out.update(path)
    return out


def hull_oracle(g: Graph, vertices) -> set[int]:
    current = set(vertices)
    while True:
        grown = interval_oracle(g, current)
        if grown == current:
            return current
        current = grown


def path_enumeration_distance(g: Graph, u: int, v: int) -> int | None:
    """Minimum length over all simple u-v paths, found by pruned DFS."""
    best: int | None = None

    def dfs(x: int, seen: int, length: int) -> None:
        nonlocal best
        if best is not None and length >= best:
            return
        if x == v:
            best = length
            return
        for w in sorted(g.neighbors(x)):
            bit = 1 << w
            if not seen & bit:
                dfs(w, seen | bit, length + 1)

    dfs(u, 1 << u, 0)
    return best


# -- chordality oracle ---------------------------------------------------------

def is_induced_cycle(g: Graph, subset) -> bool:
    sub = set(subset)
    if len(sub) < 3:
        return False
    for v in sub:
        if len(g.neighbors(v) & sub) != 2:
            return False
    start = next(iter(sub))
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for w in g.neighbors(x) & sub:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(sub)


def has_induced_cycle_at_least_4(g: Graph) -> bool:
    for size in range(4, g.vertex_count + 1):
        for subset in combinations(range(g.vertex_count), size):
            if is_induced_cycle(g, subset):
                return True
    return False
