"""Simplicial vertices, perfect elimination orderings, chordality testing."""

from __future__ import annotations

from typing import Iterable, Optional

from .errors import InvalidOrdering
from .graph import Graph, _check_vertex, _is_clique_mask, mask_members


def is_simplicial(g: Graph, v: int) -> bool:
    """True iff the neighborhood of v is a clique."""
    _check_vertex(g, v)
    return _is_clique_mask(g, g.adjacency_mask(v))


def simplicial_vertices(g: Graph) -> frozenset[int]:
    return frozenset(v for v in range(g.vertex_count)
                     if _is_clique_mask(g, g.adjacency_mask(v)))


def is_perfect_elimination_ordering(g: Graph, order: Iterable[int]) -> bool:
    """Check that each vertex is simplicial among the vertices after it.

    The parent test of Rose, Tarjan & Lueker (1976): the ordering is
    perfect exactly when, for each vertex v with a later neighbour, its
    later neighbours other than its parent p, the earliest of them, are
    all adjacent to p.  One pass over the order hands each vertex w the
    earlier vertices it parents, those of ``adj[w] & before`` still
    unparented, and tests each of them against w's closed neighbourhood:
    one subset test per vertex.
    """
    seq = tuple(order)
    if sorted(seq) != list(range(g.vertex_count)):
        raise InvalidOrdering(
            f"ordering is not a permutation of 0..{g.vertex_count - 1}")
    before = 0
    unparented = g.full_mask
    for w in seq:
        adj_w = g.adjacency_mask(w)
        children = adj_w & before & unparented
        if children:
            unparented ^= children
            # A child's later neighbours all lie at or after w, since w is
            # the earliest of them; those off w's closed neighbourhood fail.
            outside = ~(before | adj_w | 1 << w)
            while children:
                low = children & -children
                if g.adjacency_mask(low.bit_length() - 1) & outside:
                    return False
                children ^= low
        before |= 1 << w
    return True


def chordality(g: Graph) -> Optional[tuple[int, ...]]:
    """A perfect elimination ordering when g is chordal, else None.

    Runs maximum-cardinality search (ties broken toward the smallest
    vertex index, so results are deterministic) and validates the reversed
    visit order; the validation fails exactly on non-chordal graphs.
    Connectivity is not required.  The unvisited vertices sit in weight
    buckets, as in Tarjan & Yannakakis (1984), so a step costs its
    neighbours and the buckets it steps down, not a scan of every weight.
    """
    n = g.vertex_count
    # bucket[k] is the mask of unvisited vertices with k visited neighbours.
    bucket = [0] * (n + 1)
    bucket[0] = g.full_mask
    weight = [0] * n
    unvisited = g.full_mask
    top = 0
    visit_order = []
    for _ in range(n):
        # The lowest bit of the top bucket: the smallest vertex of most weight.
        low = bucket[top] & -bucket[top]
        best = low.bit_length() - 1
        bucket[top] ^= low
        unvisited ^= low
        visit_order.append(best)
        for w in mask_members(g.adjacency_mask(best) & unvisited):
            k = weight[w]
            weight[w] = k + 1
            bucket[k] ^= 1 << w
            bucket[k + 1] |= 1 << w
        # A weight rises by at most one per step.
        top += 1
        while top and not bucket[top]:
            top -= 1
    peo = tuple(reversed(visit_order))
    return peo if is_perfect_elimination_ordering(g, peo) else None
