"""Geodetic (shortest-path) convexity primitives.

A vertex w lies in the interval of {u, v} exactly when
dist(u, w) + dist(w, v) == dist(u, v); membership is decided from the
graph's distance layers and adjacency masks rather than by enumerating
paths (the path-enumerating version lives in the test suite as an
independent oracle).  No operation here builds the betweenness table.
"""

from __future__ import annotations

from typing import Iterable

from .graph import Graph, mask_members, vertex_mask


# -- bitmask layer (shared with the hull-number search) ---------------------

def _toward(layers: tuple[tuple[int, ...], ...], adj: tuple[int, ...], u: int,
            target: int) -> int:
    """Every vertex on a shortest path from u to a member of ``target``.

    ``target`` must meet u's component.  Let C_k be the vertices at distance
    k from u on such a path.  Then C_k = L_k(u) & (target | N(C_{k+1})):
    a vertex w of C_k is an end v in ``target`` or has its successor on a
    shortest u-v path in C_{k+1}, and conversely a shortest u-w path, an
    edge wx with x in C_{k+1} and a shortest x-v path make a shortest u-v
    path through w.  So u's layers are walked from the farthest that meets
    ``target`` down to layer 1, and only a vertex outside ``target`` is
    tested, with one AND of its adjacency mask.  Layer 0, u itself, is left
    out unless it is the only layer that meets ``target``.
    """
    rings = layers[u]
    k = len(rings) - 1
    while not rings[k] & target:
        k -= 1
    found = on = rings[k] & target
    for ring in reversed(rings[1:k]):
        here = ring & target
        rest = ring ^ here
        while rest:
            low = rest & -rest
            if adj[low.bit_length() - 1] & on:
                here |= low
            rest ^= low
        on = here
        found |= here
    return found


def interval_mask(g: Graph, mask: int) -> int:
    """One interval application over a vertex bitmask.

    Each member but the first is walked toward the whole set, which covers
    every pair of members at least once.
    """
    layers = g.distance_layers()
    adj = g._adj_mask
    result = mask
    for u in mask_members(mask)[1:]:
        result |= _toward(layers, adj, u, mask)
    return result


def extend_hull_mask(g: Graph, base: int, extra: int) -> int:
    """Hull of ``base | extra``, given interval-closed ``base``.

    Each vertex that joins is walked once, toward the hull as it stands
    (``_toward``, which proves the walk), and what the walk reaches joins
    too.  That covers every pair of the final hull: a pair inside ``base``
    is closed already, and every other pair has an end outside ``base``.
    A vertex joins before it is walked, so whichever such end is walked
    last finds the other end in the hull and adds their interval.
    Starting from a closed set lets the search grow hulls incrementally,
    and a walk tests only the vertices outside the hull, so adding to a
    nearly full hull costs little.  Stops as soon as the hull is full.
    """
    layers = g.distance_layers()
    adj = g._adj_mask
    full = g.full_mask
    hull = base | extra
    queue = extra & ~base
    while queue and hull != full:
        low = queue & -queue
        queue ^= low
        grown = _toward(layers, adj, low.bit_length() - 1, hull) & ~hull
        hull |= grown
        queue |= grown
    return hull


def hull_mask(g: Graph, mask: int) -> int:
    """Least interval-closed superset of a vertex bitmask."""
    return extend_hull_mask(g, 0, mask)


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

    Equivalent to the complement being convex; ``_concave_mask`` tests it.
    """
    return _concave_mask(g, vertex_mask(g, vertices))


def _concave_mask(g: Graph, mask: int) -> bool:
    """``is_concave`` on a bitmask of vertices of g, unchecked.

    Tested on the boundary edges, from the distance layers alone: S is
    concave exactly when, for every edge sw with s in S and w outside,
    every vertex strictly closer to s than to w lies in S.  Those vertices
    are the union over k of L_k(s) & L_{k+1}(w).  If such a vertex u lay
    outside, s would sit on a shortest u-w path.  Conversely, let s' in S
    lie on a shortest u-v path with u, v outside; walking from s' toward
    v, the path leaves S along some edge sw, and u is strictly closer to s
    than to w because s comes first on a shortest path from u.  The rings
    start at k = 1: ring 0 is s itself, which lies in S.

    Boundary edges whose outside end lies in the graph's stored clique K
    need no test.  In the argument above, walk from s' toward u as well:
    that walk leaves S along an edge s''w'' whose ring test v fails.  If w
    and w'' both lay in K they would be adjacent, yet they are distinct
    vertices of a shortest path with s'' and s between them, so two or
    more steps apart on it, and a subpath of a shortest path is shortest.
    So w or w'' lies outside K, and its edge is tested.
    """
    layers = g.distance_layers()
    adj = g._adj_mask
    outside = g.full_mask & ~mask
    exits = outside & ~g._clique
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        s = low.bit_length() - 1
        ends = adj[s] & exits
        if ends:
            near = layers[s][1:]
            while ends:
                end = ends & -ends
                ends ^= end
                for ring, farther in zip(near, layers[end.bit_length() - 1][2:]):
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
    contribute nothing: their interval is just the pair itself.  Read off
    the distance layers, one pair at a time: for v in L_d(u) with d >= 2,
    the inner vertices are the OR over 0 < k < d of L_k(u) & L_{d-k}(v).
    """
    layers = g.distance_layers()
    out = []
    append = out.append
    for u, lu in enumerate(layers):
        above = -(2 << u)
        inners = []
        for d in range(2, len(lu)):
            for v in mask_members(lu[d] & above):
                lv = layers[v]
                inner = 0
                for k in range(1, d):
                    inner |= lu[k] & lv[d - k]
                inners.append((v, inner))
        inners.sort()
        for v, inner in inners:
            pair = (u, v)
            while inner:
                low = inner & -inner
                append((pair, low.bit_length() - 1))
                inner ^= low
    return out
