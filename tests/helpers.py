"""Shared oracles and random-graph builders for the test suite.

Every oracle here works straight off the adjacency structure, independently
of the library's distance matrix and betweenness machinery, so agreement
tests actually cross-check two routes.  The ``reference_*`` functions are
earlier versions of library code, kept so that a rewrite can be checked
against them; the convexity ones read ``Graph.between_table``.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations
from random import Random

from geohull.errors import InvalidEdge, ParseError, TooLarge
from geohull.chordal import is_perfect_elimination_ordering
from geohull.graph import MAX_VERTICES, Graph, mask_members


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


# -- graph text oracles --------------------------------------------------------

def reference_parse_graph(text: str) -> Graph:
    """The graph-text parser as it was written line by line: every line
    stripped and filtered into lists, every edge a tuple checked as it is
    read, and the edge-line count compared last.  The block-wise
    ``parse_graph`` must give the same graph, or the same exception type
    and message, on every text."""
    rows = [line.strip() for line in text.splitlines()]
    rows = [line for line in rows if line and not line.startswith("#")]
    if not rows:
        raise ParseError("empty graph file")
    header = rows[0].split()
    if len(header) != 2:
        raise ParseError(f"bad header line: {rows[0]!r}")
    try:
        vertex_count, edge_count = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ParseError(f"bad header line: {rows[0]!r}") from exc
    if vertex_count < 0:
        raise ParseError(f"negative vertex count: {rows[0]!r}")
    if edge_count < 0:
        raise ParseError(f"negative edge count: {rows[0]!r}")
    if vertex_count > MAX_VERTICES:
        raise TooLarge(f"vertex count {vertex_count} exceeds the cap of "
                       f"{MAX_VERTICES}")
    edges = []
    for line in rows[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"bad edge line: {line!r}")
        try:
            edge = (int(parts[0]), int(parts[1]))
        except ValueError as exc:
            raise ParseError(f"bad edge line: {line!r}") from exc
        try:
            Graph(vertex_count, [edge])
        except InvalidEdge as exc:
            raise ParseError(str(exc)) from exc
        edges.append(edge)
    if len(edges) != edge_count:
        raise ParseError(
            f"expected {edge_count} edge lines, found {len(edges)}")
    return Graph(vertex_count, edges)


def reference_format_graph(vertex_count: int, pairs) -> str:
    """The graph text of ``Graph(vertex_count, pairs)`` written from its
    normalized, sorted edge set, one line per edge, without the graph."""
    edges = sorted({(min(u, v), max(u, v)) for u, v in pairs})
    return "".join([f"{vertex_count} {len(edges)}\n"]
                   + [f"{u} {v}\n" for u, v in edges])


def reference_chordality(g: Graph):
    """``chordality`` as it was written with a weight scan: each step
    visits the first vertex of the largest weight, found by
    ``weight.index(max(weight))`` in O(V).  The bucketed version must give
    the same ordering, or None, on every graph."""
    n = g.vertex_count
    weight = [0] * n
    unvisited = g.full_mask
    visit_order = []
    for _ in range(n):
        best = weight.index(max(weight))
        weight[best] = -1
        unvisited ^= 1 << best
        visit_order.append(best)
        for w in mask_members(g.adjacency_mask(best) & unvisited):
            weight[w] += 1
    peo = tuple(reversed(visit_order))
    return peo if is_perfect_elimination_ordering(g, peo) else None


# -- reference views a test forbids -------------------------------------------
#
# Patched over ``Graph.between_table`` or ``Graph.distances`` to show that
# a path builds neither O(V^3) table nor O(V^2) matrix.

def refuse_between_table(self):
    raise AssertionError("the betweenness table was built")


def refuse_distances(self):
    raise AssertionError("the distance matrix was built")


# -- betweenness-table references ----------------------------------------------

def reference_interval_mask(g: Graph, mask: int) -> int:
    """``interval_mask`` as it was written over ``Graph.between_table``: the
    OR of the table's entry for every pair of members."""
    btw = g.between_table()
    members = mask_members(mask)
    result = mask
    for i, u in enumerate(members):
        row = btw[u]
        for v in members[i + 1:]:
            result |= row[v]
    return result


def reference_extend_hull_mask(g: Graph, base: int, extra: int) -> int:
    """``extend_hull_mask`` as it was written over ``Graph.between_table``:
    from interval-closed ``base``, each round ORs the table's entries
    between the last round's new vertices and every member so far."""
    btw = g.between_table()
    hull = base | extra
    frontier = mask_members(extra & ~base)
    members = mask_members(base) + frontier
    while frontier:
        grown = 0
        for u in frontier:
            row = btw[u]
            for v in members:
                grown |= row[v]
        grown &= ~hull
        if not grown:
            break
        hull |= grown
        frontier = mask_members(grown)
        members += frontier
    return hull


def reference_interval_dependencies(g: Graph) -> list[tuple[tuple[int, int], int]]:
    """``interval_dependencies`` as it was written over
    ``Graph.between_table``: every pair u < v in order, each inner vertex
    of its table entry ascending."""
    btw = g.between_table()
    n = g.vertex_count
    out = []
    for u in range(n):
        row = btw[u]
        for v in range(u + 1, n):
            inner = row[v] & ~((1 << u) | (1 << v))
            for w in mask_members(inner):
                out.append(((u, v), w))
    return out
