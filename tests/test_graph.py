import random
from itertools import combinations

import pytest

from geohull import (Disconnected, GeohullError, Graph, InvalidEdge,
                     ParseError, build_reduction, diameter, eccentricity,
                     format_graph, hull, is_clique, is_simplicial,
                     parse_graph, random_restricted_cnf, verify_structure)
from geohull import graph as graph_module
from helpers import (bfs_levels, interval_oracle, path_enumeration_distance,
                     random_connected_graph, random_graph,
                     reference_format_graph, reference_parse_graph,
                     refuse_distances)


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


def test_one_sweep_per_graph_connected_or_not(fig2, monkeypatch):
    # A disconnected or empty graph stores its verdict, not its layers, so
    # no metric call on it may run the sweep again.
    sweeps = []
    sweep = Graph._sweep_layers

    def counted(self):
        sweeps.append(self)
        return sweep(self)

    monkeypatch.setattr(Graph, "_sweep_layers", counted)
    g = Graph(4, [(0, 1), (2, 3)])
    assert not g.is_connected
    assert not g.is_connected
    for query in (g.distance_layers, lambda: eccentricity(g, 0),
                  lambda: hull(g, [0])):
        with pytest.raises(Disconnected):
            query()
    assert sweeps == [g]
    empty = Graph(0, [])
    assert not empty.is_connected
    with pytest.raises(Disconnected):
        empty.distance_layers()
    assert sweeps == [g]
    layers = fig2.distance_layers()
    assert fig2.distance_layers() is layers
    assert fig2.is_connected and fig2.distance_layers() is layers
    assert sweeps == [g, fig2]


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
    monkeypatch.setattr(Graph, "distances", refuse_distances)
    for g, table in zip(graphs, expected):
        fresh = Graph(g.vertex_count, g.edges)
        assert fresh.between_table() == table


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


# Line breaks that str.splitlines honours, and same-valued or bad spellings
# of vertex tokens that int() reads but str(v) never writes.
_BREAKS = ("\n", "\n", "\n", "\r\n", "\x0b", "\x1c", "\r")
_SEPARATORS = (" ", " ", "\t", "  ", " \t ")
_ODD_TOKENS = ("007", "+1", "1_0", "-0", "x", "1.5", "0x1", "#1")


def _parse_outcome(parse, text):
    """The graph ``parse`` gives, or the type and message of what it raises."""
    try:
        return parse(text)
    except GeohullError as exc:
        return type(exc), str(exc)


def _fuzzed_graph_text(rng):
    """A graph text near the format: mostly well-formed edge lines among
    comments, blank lines, odd spacing and mixed line breaks, with a chance
    of an odd token spelling, a self-loop, an out-of-range end, a one- or
    three-token line, a bad header or an edge-line count off by one."""
    noise = rng.choice((0.0, 0.005, 0.02, 0.1))
    n = rng.randint(0, 12)
    pairs = [(u, v) for u, v in combinations(range(n), 2)
             if rng.random() < 0.4]
    rng.shuffle(pairs)
    rows = []
    for u, v in pairs:
        if rng.random() < noise:
            v = u
        if rng.random() < noise:
            v = rng.choice((n, n + 1, -1, 10**6))
        row = [str(u), str(v)]
        if rng.random() < noise:
            row[rng.randrange(2)] = rng.choice(_ODD_TOKENS)
        if rng.random() < noise:
            row[rng.randrange(2)] = f"{rng.choice(('00', '+', '0_'))}{u}"
        if rng.random() < noise:  # a three- or a one-token line
            if rng.random() < 0.5:
                row.append(str(u))
            else:
                row.pop()
        rows.append(row)
    count = len(rows)
    if rng.random() < 0.1:
        count += rng.choice((-1, 1))
    header = [str(n), str(count)]
    if rng.random() < 0.05:
        header = rng.choice((
            [str(n)], ["a", "b"], ["-1", "0"], [str(n), "-1"],
            [str(graph_module.MAX_VERTICES + 1), "0"],
            [str(n), str(count), "0"], ["+" + str(n), str(count)]))
    rows.insert(0, header)
    lines = [rng.choice(("", " ", "\t")) + rng.choice(_SEPARATORS).join(row)
             + rng.choice(("", "", " ")) for row in rows]
    for _ in range(rng.choice((0, 0, 1, 3))):
        lines.insert(rng.randint(0, len(lines)), rng.choice(
            ("", "  ", "\t", "#", "# c", "  # 1 2", "#0 1")))
    text = "".join(line + rng.choice(_BREAKS) for line in lines)
    return text if rng.random() < 0.8 else text.rstrip("\n")


def test_parse_matches_the_line_by_line_reference(monkeypatch):
    # Small blocks put block boundaries everywhere: beside every "\r\n"
    # pair, inside runs of comments and blank lines, between the header and
    # the edges.  The default block size sees each of these texts whole.
    rng = random.Random(19)
    sizes = (1, 2, 5, 16, 64, graph_module._BLOCK_CHARS)
    for case in range(20000):
        text = _fuzzed_graph_text(rng)
        monkeypatch.setattr(graph_module, "_BLOCK_CHARS", sizes[case % 6])
        assert (_parse_outcome(parse_graph, text)
                == _parse_outcome(reference_parse_graph, text)), repr(text)


def _long_text(rng, blocks):
    """Well-formed edge lines of a random graph, enough for ``blocks``
    blocks of the default size; returns (header, edge lines)."""
    n, lines, size = 400, [], 0
    while size < blocks * graph_module._BLOCK_CHARS:
        u, v = sorted(rng.sample(range(n), 2))
        lines.append(f"{u} {v}")
        size += len(lines[-1]) + 1
    return [f"{n} {len(lines)}"], lines


@pytest.mark.parametrize("plant", [
    [],
    [(0.9, "007 1")],
    [(0.9, "3 x")],
    [(0.9, "5 5")],
    [(0.1, "5 5"), (0.9, "3 x")],
    [(0.1, "4 400"), (0.5, "1 2 3"), (0.9, "7")],
    [(0.1, "4 400"), (0.9, "# 1 2\n\n+1 -0")],
    [(0.1, "2 2"), (0.9, "9 9")],
])
@pytest.mark.parametrize("count_off", [0, 1])
def test_parse_errors_in_later_blocks_match_the_reference(plant, count_off):
    # A planted edge line replaces the one at the given fraction of the
    # text, so the first error can lie two blocks after the header.
    rng = random.Random(23)
    header, lines = _long_text(rng, 3)
    for where, line in plant:
        lines[int(where * len(lines))] = line
    header = [f"400 {len(lines) + count_off}"]
    text = "\n".join(header + lines) + "\n"
    assert len(text) > 2 * graph_module._BLOCK_CHARS
    expected = _parse_outcome(reference_parse_graph, text)
    assert _parse_outcome(parse_graph, text) == expected
    if not plant and not count_off:
        assert isinstance(expected, Graph)


@pytest.mark.parametrize("line_break",
                         ["\n", "\r\n", "\r", "\x0b", "\x1c", "\u2028"])
def test_any_line_break_is_read_in_blocks(line_break):
    # A text without "\n" is still cut into blocks, so no list per line is
    # held for the whole of it.
    header, lines = _long_text(random.Random(31), 3)
    text = line_break.join(header + lines) + line_break
    assert len(list(graph_module._text_blocks(text))) >= 3
    assert parse_graph(text) == reference_parse_graph(text)


def test_format_graph_matches_sorted_edges_on_wide_graphs(monkeypatch):
    # Masks several hundred bits wide, rows with no higher neighbour, and
    # vertices with no neighbour at all, written without the edge tuple.
    rng = random.Random(29)
    cases = [(0, []), (1, []), (2, [(1, 0)]), (700, []), (700, [(0, 699)])]
    for _ in range(12):
        n = rng.randint(2, 700)
        p = rng.choice((0.002, 0.02, 0.3))
        live = rng.sample(range(n), rng.randint(0, n))
        cases.append((n, [(u, v) for u, v in combinations(live, 2)
                          if rng.random() < p]))
    monkeypatch.setattr(Graph, "edges", property(_refuse_edges))
    for n, given in cases:
        g = Graph(n, given)
        assert format_graph(g) == reference_format_graph(n, given)


def test_reduction_text_round_trips_with_a_stored_clique():
    for seed in (1, 2):
        rg = build_reduction(random_restricted_cnf(20, seed))
        assert rg.graph._clique
        text = format_graph(rg.graph)
        assert parse_graph(text) == rg.graph
        assert reference_parse_graph(text) == rg.graph
