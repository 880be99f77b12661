import random
from itertools import combinations

import pytest

from geohull import (Disconnected, Graph, InvalidEdge, ParseError,
                     build_reduction, diameter, eccentricity, format_graph,
                     is_clique, is_simplicial, parse_graph, verify_structure)
from helpers import (bfs_levels, interval_oracle, path_enumeration_distance,
                     random_connected_graph, random_graph)


def test_build_path():
    g = Graph(3, [(0, 1), (1, 2)])
    assert g.vertex_count == 3
    assert g.edges == ((0, 1), (1, 2))


def test_build_normalizes_and_deduplicates():
    g = Graph(4, [(2, 0), (0, 2), (3, 1), (1, 3), (1, 3)])
    assert g.edges == ((0, 2), (1, 3))


def test_build_fig2(fig2):
    assert fig2.vertex_count == 5
    assert fig2.edges == ((0, 1), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4))
    assert repr(fig2) == "Graph(5 vertices, 6 edges)"


def test_self_loop_rejected():
    with pytest.raises(InvalidEdge):
        Graph(2, [(0, 0)])


def test_out_of_range_endpoint_rejected():
    with pytest.raises(InvalidEdge):
        Graph(2, [(0, 2)])
    with pytest.raises(InvalidEdge):
        Graph(3, [(-1, 1)])


def _messy_edge_list(rng, n):
    """Random edges given with duplicates, both orientations and no order,
    among a random part of the vertices, so the rest are isolated."""
    live = sorted(rng.sample(range(n), rng.randint(0, n)))
    p = rng.uniform(0.05, 0.6)
    pairs = [(u, v) for u, v in combinations(live, 2) if rng.random() < p]
    given = []
    for u, v in pairs:
        for _ in range(rng.randint(1, 3)):
            given.append((u, v) if rng.random() < 0.5 else (v, u))
    rng.shuffle(given)
    return given


def test_construction_matches_normalized_set_oracle():
    rng = random.Random(17)
    cases = [(0, [])]
    # Up to 70 vertices, so masks span more than one machine word.
    cases += [(n, _messy_edge_list(rng, n))
              for n in [rng.randint(1, 70) for _ in range(60)]]
    for n, given in cases:
        normalized = {(min(u, v), max(u, v)) for u, v in given}
        g = Graph(n, given)
        assert g.edges == tuple(sorted(normalized))
        assert g.edge_count == len(normalized)
        assert format_graph(g) == "".join(
            [f"{n} {len(normalized)}\n"]
            + [f"{u} {v}\n" for u, v in sorted(normalized)])
        for u in range(-1, n + 1):
            expected = {v for v in range(n)
                        if (min(u, v), max(u, v)) in normalized}
            if 0 <= u < n:
                assert g.neighbors(u) == frozenset(expected)
                assert isinstance(g.neighbors(u), frozenset)
            for v in range(-1, n + 1):
                assert g.adjacent(u, v) == (v in expected)
        same = Graph(n, sorted(normalized))
        assert g == same and hash(g) == hash(same)
        if normalized:
            fewer = Graph(n, sorted(normalized)[1:])
            assert g != fewer
        assert g != Graph(n + 1, given)
    assert Graph(2, [(0, 1)]) != "x"


def test_out_of_range_vertices_are_rejected():
    # Python indexing would read -1 as the last vertex.
    g = Graph(3, [(0, 1), (1, 2)])
    for v in (-1, 3):
        assert not g.adjacent(v, 1) and not g.adjacent(1, v)
        with pytest.raises(ValueError):
            g.neighbors(v)
        with pytest.raises(ValueError):
            is_simplicial(g, v)
        with pytest.raises(ValueError):
            eccentricity(g, v)
    assert not g.adjacent(5, 1) and not g.adjacent(1, 5)


def test_invalid_edge_names_the_first_bad_pair():
    cases = [
        ([(0, 1), (2, 2), (0, 5)], "self-loop at vertex 2"),
        ([(0, 1), (0, 5), (2, 2)], "edge (0,5) out of range for 3 vertices"),
        ([(1, 0), (-1, 2), (4, 4)], "edge (-1,2) out of range for 3 vertices"),
        ([(7, 7)], "self-loop at vertex 7"),
    ]
    for given, message in cases:
        with pytest.raises(InvalidEdge) as info:
            Graph(3, given)
        assert str(info.value) == message


def test_clique_input_matches_the_clique_given_as_pairs():
    # The stored clique is an input form only: equality, hashing, the edge
    # tuple and the text format see the graph built from every pair.
    rng = random.Random(71)
    for _ in range(60):
        n = rng.randint(0, 70)
        given = _messy_edge_list(rng, n)
        clique = rng.sample(range(n), rng.randint(0, n))
        g = Graph(n, given, clique=iter(clique))
        pairs = Graph(n, given + list(combinations(clique, 2)))
        assert g == pairs and hash(g) == hash(pairs)
        assert g.edges == pairs.edges
        assert g.edge_count == pairs.edge_count
        assert format_graph(g) == format_graph(pairs)
        assert g._clique == sum(1 << v for v in clique)
        assert pairs._clique == 0


def test_invalid_clique_member_is_named():
    cases = [
        ((0, 3), "clique member 3 out of range for 3 vertices"),
        ((-1, 0), "clique member -1 out of range for 3 vertices"),
        ((0, 2, 0), "clique member 0 repeated"),
    ]
    for clique, message in cases:
        with pytest.raises(InvalidEdge) as info:
            Graph(3, [(0, 1)], clique=clique)
        assert str(info.value) == message


def _refuse_edges(self):
    raise AssertionError("the edge tuple was built")


def test_structural_verifier_never_builds_the_edge_tuple(sample_cnf,
                                                         monkeypatch):
    monkeypatch.setattr(Graph, "edges", property(_refuse_edges))
    report = verify_structure(build_reduction(sample_cnf))
    assert report.passed
    assert len(report.checks) == 9


def test_equality_ignores_edge_order():
    a = Graph(3, [(0, 1), (1, 2)])
    b = Graph(3, [(2, 1), (1, 0)])
    assert a == b
    assert hash(a) == hash(b)


def test_distances_path():
    g = Graph(3, [(0, 1), (1, 2)])
    d = g.distances()
    assert d[0][2] == 2
    assert d[2][0] == 2


def test_distances_fig2(fig2):
    d = fig2.distances()
    assert d[0][4] == 3
    assert d[0] == (0, 1, 2, 2, 3)


def test_distances_complete_graph():
    g = Graph(4, combinations(range(4), 2))
    d = g.distances()
    assert all(d[u][v] == 1 for u in range(4) for v in range(4) if u != v)


def test_disconnected_rejected():
    g = Graph(4, [(0, 1), (2, 3)])
    assert not g.is_connected
    with pytest.raises(Disconnected):
        g.distance_layers()
    with pytest.raises(Disconnected):
        g.between_table()
    with pytest.raises(Disconnected):
        g.distances()
    with pytest.raises(Disconnected):
        eccentricity(g, 0)
    with pytest.raises(Disconnected):
        diameter(g)


def test_empty_graph_rejected():
    g = Graph(0, [])
    with pytest.raises(Disconnected):
        g.distance_layers()
    with pytest.raises(Disconnected):
        g.distances()
    with pytest.raises(ValueError):
        Graph(-1, [])


def test_single_vertex():
    g = Graph(1, [])
    assert g.is_connected
    assert diameter(g) == 0
    assert eccentricity(g, 0) == 0


def test_eccentricity_and_diameter_path5():
    g = Graph(5, [(i, i + 1) for i in range(4)])
    assert diameter(g) == 4
    assert eccentricity(g, 2) == 2
    assert eccentricity(g, 0) == 4


def test_diameter_is_max_eccentricity():
    rng = random.Random(7)
    for _ in range(40):
        g = random_connected_graph(rng, max_vertices=10)
        assert diameter(g) == max(eccentricity(g, v)
                                  for v in range(g.vertex_count))


def test_eccentricity_and_diameter_match_bfs_levels():
    rng = random.Random(41)
    for _ in range(40):
        g = random_connected_graph(rng, max_vertices=12)
        levels = [bfs_levels(g, v) for v in range(g.vertex_count)]
        for v in range(g.vertex_count):
            assert eccentricity(g, v) == max(levels[v])
        assert diameter(g) == max(max(row) for row in levels)


def test_distance_matrix_invariants_on_random_graphs():
    rng = random.Random(11)
    for _ in range(40):
        g = random_connected_graph(rng, max_vertices=10)
        d = g.distances()
        n = g.vertex_count
        for u in range(n):
            assert d[u][u] == 0
            for v in range(u + 1, n):
                assert d[u][v] == d[v][u]
                assert (d[u][v] == 1) == g.adjacent(u, v)
                for w in range(n):
                    assert d[u][v] <= d[u][w] + d[w][v]


def test_distances_match_path_enumeration_oracle():
    rng = random.Random(23)
    for _ in range(25):
        g = random_connected_graph(rng, max_vertices=12)
        d = g.distances()
        n = g.vertex_count
        for u in range(n):
            for v in range(u + 1, n):
                assert d[u][v] == path_enumeration_distance(g, u, v)


def test_metric_tables_match_bfs_and_interval_oracles(sample_reduction):
    rng = random.Random(29)
    graphs = [Graph(1, []), sample_reduction.graph]
    graphs += [random_connected_graph(rng, max_vertices=12) for _ in range(30)]
    for g in graphs:
        layers = g.distance_layers()
        dist = g.distances()
        table = g.between_table()
        n = g.vertex_count
        for u in range(n):
            levels = bfs_levels(g, u)
            assert dist[u] == tuple(levels)
            assert len(layers[u]) == max(levels) + 1
            for k, layer in enumerate(layers[u]):
                assert layer == sum(1 << w for w in range(n) if levels[w] == k)
            for v in range(n):
                expected = sum(1 << w for w in interval_oracle(g, {u, v}))
                assert table[u][v] == expected


def test_sweep_layers_match_per_source_bfs():
    # Disconnected graphs and isolated vertices retire their sources when
    # the balls stop growing; a universal vertex, K1 and K2 retire them at
    # once, with a full ball.
    rng = random.Random(53)
    graphs = [Graph(1, []), Graph(2, []), Graph(2, [(0, 1)]),
              Graph(5, [(0, v) for v in range(1, 5)]),
              Graph(4, [(0, 1), (2, 3)]),
              Graph(70, [(i, i + 1) for i in range(68)])]
    graphs += [random_graph(rng, max_vertices=12) for _ in range(150)]
    graphs += [random_graph(rng, min_vertices=60, max_vertices=80)
               for _ in range(5)]
    for g in list(graphs[:40]):
        hub = g.vertex_count
        graphs.append(Graph(hub + 1, list(g.edges)
                            + [(v, hub) for v in range(hub)]))
    # A stored clique shares its members' balls; beside it lie isolated
    # vertices, other components, or edges that join it to the rest.
    planted = [Graph(6, [(4, 5)], clique=[0, 1, 2]),
               Graph(5, [(2, 3), (3, 4)], clique=(2, 0, 1)),
               Graph(80, [(i, i + 1) for i in range(79)],
                     clique=range(0, 80, 7))]
    for _ in range(60):
        base = random_graph(rng, min_vertices=3, max_vertices=14)
        n = base.vertex_count
        planted.append(Graph(n, base.edges,
                             clique=rng.sample(range(n), rng.randint(3, n))))
    assert {g.is_connected for g in planted} == {False, True}
    graphs += planted
    connected = set()
    for g in graphs:
        layers = g._sweep_layers()
        assert len(layers) == g.vertex_count
        for u in range(g.vertex_count):
            levels = bfs_levels(g, u)
            expected = tuple(sum(1 << w for w, level in enumerate(levels)
                                 if level == k)
                             for k in range(max(levels) + 1))
            assert layers[u] == expected
        connected.add(g.is_connected)
    assert connected == {False, True}


def _distance_between_table(g):
    """I(u, v) from the distance matrix: w is in it iff
    d(u, w) + d(w, v) = d(u, v)."""
    d = g.distances()
    n = g.vertex_count
    return [[sum(1 << w for w in range(n) if d[u][w] + d[w][v] == d[u][v])
             for v in range(n)] for u in range(n)]


def _refuse_distances(self):
    raise AssertionError("the distance matrix was built")


def test_between_table_matches_the_distance_identity(monkeypatch):
    # Covers the diagonal (K1), distance 1 only (K2, K5), and every
    # distance up to 6 (P7) and 4 (C9).
    rng = random.Random(37)
    graphs = [Graph(1, []), Graph(2, [(0, 1)]),
              Graph(5, combinations(range(5), 2)),
              Graph(7, [(i, i + 1) for i in range(6)]),
              Graph(9, [(i, (i + 1) % 9) for i in range(9)])]
    graphs += [random_connected_graph(rng, max_vertices=16)
               for _ in range(200)]
    expected = [_distance_between_table(g) for g in graphs]
    monkeypatch.setattr(Graph, "distances", _refuse_distances)
    for g, table in zip(graphs, expected):
        fresh = Graph(g.vertex_count, g.edges)
        assert fresh.between_table() == table
        assert fresh._dist is None


def test_is_clique(fig2):
    assert is_clique(fig2, [])
    assert is_clique(fig2, [2])
    assert is_clique(fig2, [2, 3, 4])
    assert not is_clique(fig2, [0, 2])
    assert not is_clique(fig2, [1, 2, 4])


def test_is_clique_rejects_bad_vertex(fig2):
    with pytest.raises(ValueError):
        is_clique(fig2, [0, 9])


# -- text format -------------------------------------------------------------

def test_format_graph(fig2):
    assert format_graph(fig2) == "5 6\n0 1\n1 2\n1 3\n2 3\n2 4\n3 4\n"


def test_round_trip_is_bit_exact(fig2):
    text = format_graph(fig2)
    again = parse_graph(text)
    assert again == fig2
    assert format_graph(again) == text


def test_format_graph_builds_no_edge_tuple(monkeypatch):
    rng = random.Random(59)
    cases = [(0, []), (1, [])]
    cases += [(n, _messy_edge_list(rng, n))
              for n in [rng.randint(1, 90) for _ in range(60)]]
    monkeypatch.setattr(Graph, "edges", property(_refuse_edges))
    for n, given in cases:
        normalized = sorted({(min(u, v), max(u, v)) for u, v in given})
        assert format_graph(Graph(n, given)) == "".join(
            [f"{n} {len(normalized)}\n"]
            + [f"{u} {v}\n" for u, v in normalized])


def test_parse_skips_comments():
    g = parse_graph("# a comment\n3 2\n# another\n0 1\n1 2\n")
    assert g == Graph(3, [(0, 1), (1, 2)])


_PARSE_ERROR_MESSAGES = {
    "-1 0\n": "negative vertex count: '-1 0'",
    "3 -1\n": "negative edge count: '3 -1'",
}


@pytest.mark.parametrize("text", [
    "",
    "3\n",
    "3 2\n0 1\n",
    "3 1\n0 1\n1 2\n",
    "3 1\n0 x\n",
    "a b\n0 1\n",
    "2 1\n0 0\n",
    "2 1\n0 5\n",
    "-1 0\n",
    "3 -1\n",
    "3 1\n0 1 2\n",
])
def test_parse_errors(text):
    with pytest.raises(ParseError, match=_PARSE_ERROR_MESSAGES.get(text)):
        parse_graph(text)


def test_round_trip_random_graphs():
    rng = random.Random(3)
    for _ in range(30):
        g = random_connected_graph(rng, max_vertices=9)
        assert parse_graph(format_graph(g)) == g
