"""Geodetic (shortest-path) convexity primitives.

A vertex w lies in the interval of {u, v} exactly when
dist(u, w) + dist(w, v) == dist(u, v); membership is decided through that
identity rather than by enumerating paths (the path-enumerating version
lives in the test suite as an independent oracle).
"""

from __future__ import annotations

from typing import Iterable

from .graph import Graph, mask_members, vertex_mask


# -- bitmask layer (shared with the hull-number search) ---------------------

def interval_mask(g: Graph, mask: int) -> int:
    """One interval application over a vertex bitmask."""
    btw = g.between_table()
    members = mask_members(mask)
    result = mask
    for i, u in enumerate(members):
        row = btw[u]
        for v in members[i + 1:]:
            result |= row[v]
    return result


def extend_hull_mask(btw: list[list[int]], full: int, base: int,
                     base_members: list[int], extra: int) -> tuple[int, list[int]]:
    """Hull of ``base | extra``, given interval-closed ``base`` and its members.

    ``btw`` is the graph's betweenness table and ``full`` its full vertex
    mask.  Starting the fixed-point iteration from a closed set lets the
    search grow hulls incrementally: new pairs are only formed between
    frontier vertices and the rest.  Returns the hull and its member list;
    the list may be incomplete once the hull is full, where the iteration
    stops early.  ``base_members`` is not mutated.
    """
    hull = base | extra
    frontier = mask_members(extra & ~base)
    members = base_members + frontier
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
        if hull == full:
            break
        frontier = mask_members(grown)
        members += frontier
    return hull, members


def hull_mask(g: Graph, mask: int) -> int:
    """Least interval-closed superset of a vertex bitmask."""
    return extend_hull_mask(g.between_table(), g.full_mask, 0, [], mask)[0]


# -- set-level operations ----------------------------------------------------

def interval(g: Graph, vertices: Iterable[int]) -> frozenset[int]:
    """All vertices on shortest paths between members; always a superset."""
    return frozenset(mask_members(interval_mask(g, vertex_mask(g, vertices))))


def hull(g: Graph, vertices: Iterable[int]) -> frozenset[int]:
    """Smallest convex superset: the fixed point of repeated intervals."""
    return frozenset(mask_members(hull_mask(g, vertex_mask(g, vertices))))


def is_convex(g: Graph, vertices: Iterable[int]) -> bool:
    """True iff the interval of the set equals the set."""
    mask = vertex_mask(g, vertices)
    return interval_mask(g, mask) == mask


def is_concave(g: Graph, vertices: Iterable[int]) -> bool:
    """True iff the set avoids the interval of every outside vertex pair.

    Equivalent to the complement being convex.  Tested on the boundary
    edges, from the distance layers alone: S is concave exactly when, for
    every edge sw with s in S and w outside, every vertex strictly closer
    to s than to w lies in S.  Those vertices are the union over k of
    L_k(s) & L_{k+1}(w).  If such a vertex u lay outside, s would sit on a
    shortest u-w path.  Conversely, let s' in S lie on a shortest u-v path
    with u, v outside; walking from s' toward v, the path leaves S along
    some edge sw, and u is strictly closer to s than to w because s comes
    first on a shortest path from u.  The rings start at k = 1: ring 0
    is s itself, which lies in S.

    Boundary edges whose outside end lies in the graph's stored clique K
    need no test.  In the argument above, walk from s' toward u as well:
    that walk leaves S along an edge s''w'' whose ring test v fails.  If w
    and w'' both lay in K they would be adjacent, yet they are distinct
    vertices of a shortest path with s'' and s between them, so two or
    more steps apart on it, and a subpath of a shortest path is shortest.
    So w or w'' lies outside K, and its edge is tested.
    """
    mask = vertex_mask(g, vertices)
    layers = g.distance_layers()
    outside = g.full_mask & ~mask
    exits = outside & ~g._clique
    for s in mask_members(mask):
        near = layers[s][1:]
        for w in mask_members(g.adjacency_mask(s) & exits):
            for ring, farther in zip(near, layers[w][2:]):
                if ring & farther & outside:
                    return False
    return True


def is_hull_set(g: Graph, vertices: Iterable[int]) -> bool:
    """True iff the hull of the set is the whole vertex set."""
    return hull_mask(g, vertex_mask(g, vertices)) == g.full_mask


def interval_dependencies(g: Graph) -> list[tuple[tuple[int, int], int]]:
    """Every ``((u, v), w)`` with u < v and w strictly inside the interval
    of {u, v}: the pair forces w into any convex set that holds both.

    Emitted as plain tuples in ascending (u, v, w) order.  Adjacent pairs
    contribute nothing: their interval is just the pair itself.
    """
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
