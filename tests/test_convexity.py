import random
from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geohull import (Disconnected, Graph, build_reduction, equivalence_check,
                     format_dimacs, format_graph, gadget_edges, hull,
                     hull_number_at_most, hull_number_bruteforce,
                     hull_number_exact, interval, interval_dependencies,
                     is_concave, is_convex, is_hull_set, parse_graph,
                     random_restricted_cnf, simplicial_vertices)
from geohull.cli import run
from geohull.convexity import extend_hull_mask, hull_mask, interval_mask
from geohull.graph import vertex_mask
from helpers import (hull_oracle, interval_oracle, random_connected_graph,
                     random_subset, reference_extend_hull_mask,
                     reference_interval_dependencies, reference_interval_mask,
                     refuse_between_table)


def complete_graph(n):
    return Graph(n, combinations(range(n), 2))


def test_interval_path():
    g = Graph(3, [(0, 1), (1, 2)])
    assert interval(g, [0, 2]) == {0, 1, 2}


def test_interval_fig2(fig2):
    assert interval(fig2, [4, 1]) == {1, 2, 3, 4}
    assert interval(fig2, [0, 4]) == {0, 1, 2, 3, 4}


def test_interval_is_superset(fig2):
    assert interval(fig2, []) == frozenset()
    assert interval(fig2, [2]) == {2}


def test_hull_whole_vertex_set(fig2):
    everything = range(fig2.vertex_count)
    assert hull(fig2, everything) == set(everything)


def test_hull_single_vertex_in_clique():
    g = complete_graph(5)
    assert hull(g, [3]) == {3}


def test_hull_fig2(fig2):
    assert hull(fig2, [0, 4]) == {0, 1, 2, 3, 4}
    assert hull(fig2, [0, 1]) == {0, 1}
    assert hull(fig2, [0, 3]) == {0, 1, 3}


def test_is_convex(fig2):
    assert is_convex(fig2, range(5))
    assert not is_convex(fig2, [0, 3])
    assert is_convex(fig2, [2, 3, 4])


def test_is_concave(fig2):
    assert is_concave(fig2, [])
    assert not is_concave(fig2, [1])
    assert is_concave(fig2, range(5))


def test_is_hull_set(fig2):
    assert is_hull_set(fig2, range(5))
    assert is_hull_set(fig2, [0, 4])
    assert not is_hull_set(fig2, [0, 1])


def test_disconnected_raises():
    g = Graph(4, [(0, 1), (2, 3)])
    for op in (interval, hull, is_convex, is_concave, is_hull_set):
        with pytest.raises(Disconnected):
            op(g, [0, 1])
    for vertices in ([], range(4)):
        with pytest.raises(Disconnected):
            is_concave(g, vertices)
    with pytest.raises(Disconnected):
        interval_dependencies(g)


def test_dependencies_fig2(fig2):
    deps = interval_dependencies(fig2)
    assert deps == [
        ((0, 2), 1),
        ((0, 3), 1),
        ((0, 4), 1),
        ((0, 4), 2),
        ((0, 4), 3),
        ((1, 4), 2),
        ((1, 4), 3),
    ]
    # z and t are adjacent, so nothing lies between them.
    assert ((3, 4), 2) not in deps


def test_dependencies_complete_graph():
    assert interval_dependencies(complete_graph(5)) == []


def test_interval_matches_path_enumeration_oracle():
    rng = random.Random(17)
    for _ in range(40):
        g = random_connected_graph(rng, max_vertices=8)
        for _ in range(4):
            s = {v for v in range(g.vertex_count) if rng.random() < 0.4}
            assert interval(g, s) == interval_oracle(g, s)
            assert hull(g, s) == hull_oracle(g, s)


def test_concave_iff_complement_convex_on_random_graphs():
    rng = random.Random(31)
    for _ in range(60):
        g = random_connected_graph(rng, max_vertices=14)
        everything = set(range(g.vertex_count))
        for _ in range(6):
            s = random_subset(rng, everything)
            assert is_concave(g, s) == is_convex(g, everything - s)


class _RefusedRow:
    def __getitem__(self, index):
        raise AssertionError("a clique member's layers were read")


def test_concave_with_a_stored_clique_matches_the_clique_as_pairs():
    # The same graph built from the clique's pairs ring-tests every boundary
    # edge.  With the clique stored, the edges into it are skipped, as
    # is_concave's docstring proves they may be, so the layers of a member
    # outside the set are never read: that is what spares the reduction's
    # hub its quadratic count of ring tests.
    rng = random.Random(43)
    answers = []
    for _ in range(200):
        base = random_connected_graph(rng, min_vertices=4, max_vertices=14)
        n = base.vertex_count
        clique = rng.sample(range(n), rng.randint(3, n))
        pairs = Graph(n, list(base.edges) + list(combinations(clique, 2)))
        for _ in range(8):
            s = random_subset(rng, range(n))
            g = Graph(n, base.edges, clique=clique)
            g._layers = tuple(_RefusedRow() if v in clique and v not in s
                              else row
                              for v, row in enumerate(g.distance_layers()))
            answer = is_concave(g, s)
            assert answer == is_concave(pairs, s), (pairs.edges, clique, s)
            answers.append(answer)
    assert set(answers) == {False, True}


def test_concave_iff_complement_convex_on_sample_reduction(sample_reduction):
    rg = sample_reduction
    g = rg.graph
    everything = set(range(g.vertex_count))
    gadget_sets = [rg.variable_triple(i) for i in range(1, rg.variable_count + 1)]
    gadget_sets += [rg.clause_region(j) for j in range(1, rg.clause_count + 1)]
    for s in gadget_sets:
        assert is_concave(g, s)
        assert is_convex(g, everything - set(s))
    rng = random.Random(37)
    for _ in range(40):
        s = random_subset(rng, everything)
        assert is_concave(g, s) == is_convex(g, everything - s)


def test_concave_iff_complement_convex_on_gadget_edge_deletions(
        sample_reduction):
    # Each deletion moves distances next to a gadget's boundary edges, where
    # is_concave looks; the complement's convexity is the independent route.
    rg = sample_reduction
    everything = set(range(rg.graph.vertex_count))
    edges = gadget_edges(rg, 1)
    assert len(edges) == 26
    for victim in edges:
        remaining = [e for e in rg.graph.edges if e != victim]
        mutant = replace(rg, graph=Graph(rg.graph.vertex_count, remaining))
        g = mutant.graph
        gadget_sets = [mutant.variable_triple(i)
                       for i in range(1, mutant.variable_count + 1)]
        gadget_sets += [mutant.clause_region(j)
                        for j in range(1, mutant.clause_count + 1)]
        for s in gadget_sets:
            assert is_concave(g, s) == is_convex(g, everything - set(s)), \
                (victim, sorted(s))


# -- property tests -----------------------------------------------------------

@st.composite
def connected_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [p for p, flag in zip(pairs, keep) if flag]
    perm = draw(st.permutations(range(n)))
    for idx in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=idx - 1))
        edges.append((perm[idx], perm[parent]))
    return Graph(n, edges)


@st.composite
def graph_and_nested_sets(draw):
    g = draw(connected_graphs())
    big = draw(st.sets(st.integers(0, g.vertex_count - 1)))
    small = {v for v in big if draw(st.booleans())}
    return g, small, big


@given(graph_and_nested_sets())
@settings(max_examples=120)
def test_extensivity_and_monotonicity(data):
    g, small, big = data
    assert small <= interval(g, small) <= hull(g, small)
    assert interval(g, small) <= interval(g, big)
    assert hull(g, small) <= hull(g, big)


@given(graph_and_nested_sets())
@settings(max_examples=120)
def test_hull_idempotent_and_convex(data):
    g, _, s = data
    h = hull(g, s)
    assert hull(g, h) == h
    assert is_convex(g, h)


@given(graph_and_nested_sets())
@settings(max_examples=120)
def test_concavity_duality(data):
    g, _, s = data
    complement = set(range(g.vertex_count)) - s
    assert is_concave(g, s) == is_convex(g, complement)


def test_no_query_or_search_builds_the_betweenness_table(
        monkeypatch, fig2, sample_cnf, tmp_path, capsys):
    monkeypatch.setattr(Graph, "between_table", refuse_between_table)
    rng = random.Random(53)
    reduction = build_reduction(sample_cnf).graph
    graphs = [fig2, reduction, parse_graph(format_graph(reduction))]
    graphs += [random_connected_graph(rng, max_vertices=12) for _ in range(20)]
    for g in graphs:
        s = random_subset(rng, range(g.vertex_count))
        interval(g, s)
        hull(g, s)
        is_convex(g, s)
        is_hull_set(g, s)
        interval_dependencies(g)
        h = hull_number_exact(g).hull_number
        assert hull_number_at_most(g, h).witness is not None
        assert hull_number_at_most(g, h - 1).witness is None
        if g.vertex_count <= 14:
            assert hull_number_bruteforce(g).hull_number == h
    assert equivalence_check(sample_cnf).passed
    path = tmp_path / "sample.cnf"
    path.write_text(format_dimacs(sample_cnf))
    assert run(["equiv", "--cnf", str(path)]) == 0
    capsys.readouterr()


def _walk_cases():
    """Seeded random graphs, the criterion-3 reductions, and a stored-clique
    reduction with its parsed twin, which has no stored clique."""
    rng = random.Random(67)
    graphs = [random_connected_graph(rng, max_vertices=14) for _ in range(60)]
    graphs += [build_reduction(random_restricted_cnf(seed % 5 + 1, seed)).graph
               for seed in range(50)]
    stored = build_reduction(random_restricted_cnf(3, 9)).graph
    graphs += [stored, parse_graph(format_graph(stored))]
    return rng, graphs


def test_layer_walk_matches_the_table_reference():
    rng, graphs = _walk_cases()
    for g in graphs:
        assert interval_dependencies(g) == reference_interval_dependencies(g)
        for _ in range(4):
            mask = vertex_mask(g, random_subset(rng, range(g.vertex_count)))
            assert interval_mask(g, mask) == reference_interval_mask(g, mask)
            assert hull_mask(g, mask) == reference_extend_hull_mask(g, 0, mask)
        # hull(M) + w and then + w', as the search closes them.
        start = hull_mask(g, vertex_mask(g, simplicial_vertices(g)))
        outside = g.full_mask & ~start
        for w in range(g.vertex_count):
            if outside >> w & 1:
                grown = extend_hull_mask(g, start, 1 << w)
                assert grown == reference_extend_hull_mask(g, start, 1 << w)
                rest = outside & ~grown
                if rest:
                    low = rest & -rest
                    assert (extend_hull_mask(g, grown, low)
                            == reference_extend_hull_mask(g, grown, low))
