import random
from itertools import combinations, permutations

import pytest

from geohull import (Graph, InvalidOrdering, chordality, is_clique,
                     is_perfect_elimination_ordering, is_simplicial,
                     simplicial_vertices)
from helpers import (has_induced_cycle_at_least_4, random_graph,
                     reference_chordality)


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def test_simplicial_complete_graph():
    g = Graph(4, combinations(range(4), 2))
    assert simplicial_vertices(g) == {0, 1, 2, 3}


def test_simplicial_fig2(fig2):
    assert simplicial_vertices(fig2) == {0, 4}
    assert is_simplicial(fig2, 0)
    assert not is_simplicial(fig2, 2)


def test_simplicial_path():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert simplicial_vertices(g) == {0, 3}


def test_simplicial_isolated_vertex():
    g = Graph(2, [])
    assert simplicial_vertices(g) == {0, 1}


def test_peo_path():
    g = Graph(3, [(0, 1), (1, 2)])
    assert is_perfect_elimination_ordering(g, (0, 2, 1))
    assert is_perfect_elimination_ordering(g, (2, 0, 1))


def test_peo_cycle4_has_none():
    g = cycle(4)
    for order in permutations(range(4)):
        assert not is_perfect_elimination_ordering(g, order)


def test_peo_rejects_non_permutation(fig2):
    with pytest.raises(InvalidOrdering):
        is_perfect_elimination_ordering(fig2, (0, 1, 2, 3))
    with pytest.raises(InvalidOrdering):
        is_perfect_elimination_ordering(fig2, (0, 0, 1, 2, 3))


def test_chordality_cycle4():
    assert chordality(cycle(4)) is None
    assert chordality(cycle(5)) is None


def test_chordality_fig2(fig2):
    peo = chordality(fig2)
    assert peo is not None
    assert is_perfect_elimination_ordering(fig2, peo)


def test_chordality_tree():
    g = Graph(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
    peo = chordality(g)
    assert peo is not None
    assert is_perfect_elimination_ordering(g, peo)


def test_chordality_triangle_with_tail():
    g = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert chordality(g) is not None


def test_chordality_deterministic(fig2):
    assert chordality(fig2) == chordality(fig2)


def test_first_vertex_of_peo_is_simplicial():
    rng = random.Random(5)
    found = 0
    for _ in range(60):
        g = random_graph(rng, max_vertices=9)
        peo = chordality(g)
        if peo is not None and g.vertex_count > 0:
            assert is_simplicial(g, peo[0])
            found += 1
    assert found > 0


def test_chordality_matches_induced_cycle_oracle():
    rng = random.Random(31)
    for _ in range(80):
        g = random_graph(rng, max_vertices=9)
        expected_chordal = not has_induced_cycle_at_least_4(g)
        peo = chordality(g)
        assert (peo is not None) == expected_chordal
        if peo is not None:
            assert is_perfect_elimination_ordering(g, peo)


def _pairwise_clique(g, vertices):
    return all(g.adjacent(a, b) for a, b in combinations(vertices, 2))


def test_clique_walks_match_pairwise_oracle():
    rng = random.Random(43)
    outcomes = {"clique": set(), "simplicial": set(), "peo": set()}
    for _ in range(150):
        g = random_graph(rng, max_vertices=12)
        n = g.vertex_count
        closed = [[w for w in range(n) if w == v or g.adjacent(v, w)]
                  for v in range(n)]
        # Subsets of closed neighbourhoods are cliques far more often than
        # arbitrary subsets, so both answers turn up.
        subsets = [[v for v in range(n) if rng.random() < 0.5]]
        subsets += [[w for w in row if rng.random() < 0.7] for row in closed]
        for subset in subsets:
            expected = _pairwise_clique(g, subset)
            assert is_clique(g, subset) == expected
            outcomes["clique"].add(expected)
        expected = {v for v in range(n)
                    if _pairwise_clique(g, [w for w in closed[v] if w != v])}
        assert simplicial_vertices(g) == expected
        outcomes["simplicial"].add(expected == set(range(n)))
        orders = [chordality(g) or tuple(range(n))]
        orders += [tuple(rng.sample(range(n), n)) for _ in range(4)]
        for order in orders:
            expected = all(
                _pairwise_clique(g, [w for w in order[i + 1:]
                                     if g.adjacent(v, w)])
                for i, v in enumerate(order))
            assert is_perfect_elimination_ordering(g, order) == expected
            outcomes["peo"].add(expected)
    assert all(seen == {False, True} for seen in outcomes.values())


def _random_chordal_graph(rng, n):
    """Each new vertex joins a nonempty part of an earlier clique, so the
    reverse of the insertion order is a perfect elimination ordering."""
    cliques = [(0,)]
    edges = []
    for v in range(1, n):
        clique = rng.choice(cliques)
        part = [u for u in clique if rng.random() < 0.6] or [rng.choice(clique)]
        edges.extend((u, v) for u in part)
        cliques.append(tuple(part) + (v,))
    return Graph(n, edges)


def test_parent_test_matches_pairwise_oracle_on_chordal_graphs():
    rng = random.Random(61)
    seen = set()
    for _ in range(200):
        g = _random_chordal_graph(rng, rng.randint(1, 14))
        n = g.vertex_count
        assert chordality(g) is not None
        orders = [tuple(reversed(range(n)))]
        orders += [tuple(rng.sample(range(n), n)) for _ in range(5)]
        for order in orders:
            expected = all(
                _pairwise_clique(g, [w for w in order[i + 1:]
                                     if g.adjacent(v, w)])
                for i, v in enumerate(order))
            assert is_perfect_elimination_ordering(g, order) == expected
            seen.add(expected)
    assert seen == {False, True}


def test_chordality_matches_the_weight_scan():
    # The same ordering, or None, as the O(V^2) weight scan: on G(n, p)
    # graphs of up to 40 vertices, many of them disconnected, and on
    # chordal graphs with shuffled labels, alone or two side by side.
    rng = random.Random(5)
    graphs = [random_graph(rng, max_vertices=40) for _ in range(3000)]
    for _ in range(500):
        parts = [_random_chordal_graph(rng, rng.randint(1, 20))
                 for _ in range(rng.randint(1, 2))]
        n = sum(part.vertex_count for part in parts)
        label = rng.sample(range(n), n)
        edges, offset = [], 0
        for part in parts:
            edges += [(label[u + offset], label[v + offset])
                      for u, v in part.edges]
            offset += part.vertex_count
        graphs.append(Graph(n, edges))
    chordal = 0
    for g in graphs:
        peo = chordality(g)
        assert peo == reference_chordality(g)
        chordal += peo is not None
    assert 1000 < chordal < len(graphs)


def test_chordality_of_many_isolated_vertices():
    # Every weight stays 0, so each step takes the smallest unvisited
    # vertex; the weight scan took seconds here, the buckets take well
    # under one.
    n = 1 << 16
    assert chordality(Graph(n, [])) == tuple(range(n - 1, -1, -1))
