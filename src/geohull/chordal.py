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
    """Check that each vertex is simplicial among the vertices after it."""
    seq = tuple(order)
    if sorted(seq) != list(range(g.vertex_count)):
        raise InvalidOrdering(
            f"ordering is not a permutation of 0..{g.vertex_count - 1}")
    remaining = g.full_mask
    for v in seq:
        remaining &= ~(1 << v)
        if not _is_clique_mask(g, g.adjacency_mask(v) & remaining):
            return False
    return True


def chordality(g: Graph) -> Optional[tuple[int, ...]]:
    """A perfect elimination ordering when g is chordal, else None.

    Runs maximum-cardinality search (ties broken toward the smallest
    vertex index, so results are deterministic) and validates the reversed
    visit order; the validation fails exactly on non-chordal graphs.
    Connectivity is not required.
    """
    n = g.vertex_count
    weight = [0] * n
    unvisited = g.full_mask
    visit_order = []
    for _ in range(n):
        # index finds the first of equal weights: the smallest vertex.
        best = weight.index(max(weight))
        # Unvisited weights never drop below 0, so best is never picked again.
        weight[best] = -1
        unvisited ^= 1 << best
        visit_order.append(best)
        for w in mask_members(g.adjacency_mask(best) & unvisited):
            weight[w] += 1
    peo = tuple(reversed(visit_order))
    return peo if is_perfect_elimination_ordering(g, peo) else None
