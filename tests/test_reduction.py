from dataclasses import replace
from itertools import combinations, product

import pytest

import geohull.chordal as chordal_module
import geohull.graph as graph_module
import geohull.reduction as reduction_module
from geohull import (EquivalenceReport, Graph, HullDecision, InvalidInstance,
                     NotAWitness,
                     TooLarge, assignment_to_hull_set, build_reduction,
                     equivalence_check, format_labels, gadget_edges, hull,
                     hull_number_exact, hull_set_to_assignment,
                     induced_assignment, interval, is_clique, is_hull_set,
                     is_perfect_elimination_ordering, make_cnf,
                     random_restricted_cnf, satisfying_assignments,
                     simplicial_vertices, validate_restricted,
                     verify_structure)
from helpers import refuse_between_table, refuse_distances

SAMPLE_WITNESS = frozenset({5, 10, 11, 14, 18, 22, 23, 26, 34, 35, 36, 38})


def test_sample_counts(sample_reduction):
    g = sample_reduction.graph
    assert g.vertex_count == 39          # 12n + m
    assert g.edge_count == 144           # C(12,2) hub edges + 3 * 26
    assert sample_reduction.k == 12


def test_tiny_counts(tiny_reduction):
    g = tiny_reduction.graph
    assert g.vertex_count == 15
    assert g.edge_count == 41            # C(6,2) + 26


def test_rejects_invalid_instance():
    with pytest.raises(InvalidInstance):
        build_reduction(make_cnf(1, [[1], [-1]]))


def test_hub_is_clique(sample_reduction):
    hub = sample_reduction.hub_vertices()
    assert len(hub) == 12                # m + 3n
    assert is_clique(sample_reduction.graph, hub)


def test_vertex_layout(sample_reduction):
    rg = sample_reduction
    assert rg.vertex("c", 1) == 0
    assert rg.vertex("y", 1) == 3
    assert rg.vertex("z", 1) == 5
    assert rg.vertex("x", 2) == 18
    assert rg.vertex("xbarpp", 3) == 38
    assert rg.variable_triple(1) == (6, 5, 12)
    with pytest.raises(ValueError):
        rg.vertex("x", 4)
    for j in (0, rg.clause_count + 1):
        with pytest.raises(ValueError, match=f"clause index {j} out of range"):
            rg.vertex("c", j)
    with pytest.raises(ValueError, match="unknown role kind 'q'"):
        rg.vertex("q", 1)


def test_gadget_edges_variable_1(sample_reduction):
    edges = gadget_edges(sample_reduction, 1)
    assert edges == [
        (0, 6), (0, 7), (0, 8), (1, 6), (1, 7), (1, 9), (2, 12), (2, 13),
        (3, 6), (3, 7), (3, 8), (3, 9), (3, 10), (3, 11), (4, 12), (4, 13),
        (4, 14), (5, 6), (5, 12), (6, 7), (7, 8), (7, 9), (8, 10), (9, 11),
        (12, 13), (13, 14),
    ]
    assert len(edges) == 26
    assert set(edges) <= set(sample_reduction.graph.edges)
    for i in (0, sample_reduction.variable_count + 1):
        with pytest.raises(ValueError, match=f"variable index {i} out of range"):
            gadget_edges(sample_reduction, i)


def test_hub_and_gadgets_are_every_edge():
    for n in range(1, 9):
        for seed in range(3):
            rg = build_reduction(random_restricted_cnf(n, seed))
            edges = set(combinations(sorted(rg.hub_vertices()), 2))
            for i in range(1, n + 1):
                gadget = gadget_edges(rg, i)
                assert len(gadget) == 26 and edges.isdisjoint(gadget)
                edges.update(gadget)
            assert sorted(edges) == list(rg.graph.edges)


def test_hub_is_the_stored_clique_and_verifies_as_plain_pairs():
    # A parsed reduction has no stored clique; the verifier must read the
    # same lines off it as off the built one, which stores the hub.
    for n in range(1, 9):
        for seed in range(3):
            rg = build_reduction(random_restricted_cnf(n, seed))
            assert rg.graph._clique == sum(1 << v for v in rg.hub_vertices())
            plain = replace(rg, graph=Graph(rg.graph.vertex_count,
                                            rg.graph.edges))
            assert plain.graph == rg.graph and plain.graph._clique == 0
            assert (verify_structure(plain).lines()
                    == verify_structure(rg).lines())


def _round_robin_cnf(n, m):
    """Variable v (0-based) positive in clauses 3v and 3v + 1 and negative in
    3v + 2, mod m: valid whenever n <= m <= 3n."""
    clauses = [[] for _ in range(m)]
    for t in range(3 * n):
        v, slot = divmod(t, 3)
        clauses[t % m].append(-(v + 1) if slot == 2 else v + 1)
    return make_cnf(n, clauses)


def _refuse(*args, **kwargs):
    raise AssertionError("the graph was started")


def test_reduction_over_the_vertex_cap_is_refused_before_any_edge(
        monkeypatch):
    # 12n + m = cap starts the graph (refused here, as is the hub clique's
    # member list, so that a regression cannot allocate); one more clause
    # vertex raises TooLarge first.
    cap = graph_module.MAX_VERTICES
    monkeypatch.setattr(Graph, "__init__", _refuse)
    monkeypatch.setattr(reduction_module, "_hub", _refuse)
    at_cap = _round_robin_cnf(5000, cap - 12 * 5000)
    over_cap = _round_robin_cnf(5000, cap - 12 * 5000 + 1)
    with pytest.raises(AssertionError, match="the graph was started"):
        build_reduction(at_cap)
    with pytest.raises(TooLarge, match=f"{cap + 1} vertices"):
        build_reduction(over_cap)


def test_designated_simplicial(sample_reduction):
    designated = sample_reduction.designated_simplicial()
    assert designated == {10, 11, 14, 22, 23, 26, 34, 35, 38}
    assert simplicial_vertices(sample_reduction.graph) == designated


def _refuse_clique_walk(g, mask):
    raise AssertionError("a clique walk ran")


def test_elimination_ordering_is_peo(sample_reduction, monkeypatch):
    order = sample_reduction.elimination_ordering()
    assert order == (10, 11, 14, 22, 23, 26, 34, 35, 38, 8, 9, 13, 20, 21, 25,
                     32, 33, 37, 7, 19, 31, 6, 12, 18, 24, 30, 36, 0, 1, 2, 3,
                     4, 5, 15, 16, 17, 27, 28, 29)
    # The parent test makes one subset test per vertex and no clique walk.
    monkeypatch.setattr(chordal_module, "_is_clique_mask", _refuse_clique_walk)
    assert is_perfect_elimination_ordering(sample_reduction.graph, order)
    rg = build_reduction(random_restricted_cnf(20, 1))
    assert is_perfect_elimination_ordering(rg.graph, rg.elimination_ordering())
    assert not is_perfect_elimination_ordering(sample_reduction.graph,
                                               order[::-1])


def test_interval_reaches_z_and_ybar(sample_reduction):
    rg = sample_reduction
    for i in (1, 2, 3):
        spanned = interval(rg.graph, [rg.vertex("x", i), rg.vertex("xbarpp", i)])
        assert rg.vertex("z", i) in spanned
        assert rg.vertex("ybar", i) in spanned


def test_verify_structure_sample(sample_reduction):
    report = verify_structure(sample_reduction)
    assert report.passed
    assert [c.name for c in report.checks] == [
        "order", "diameter", "hub-eccentricity", "cross-distances",
        "elimination-ordering", "simplicial", "variable-triples",
        "clause-regions", "gadget-dependencies"]
    assert all(line.startswith("PASS") for line in str(report).splitlines()
               if not line.startswith("NOTE"))
    assert any("26 edges" in note for note in report.notes)


def test_verify_structure_tiny(tiny_reduction):
    assert verify_structure(tiny_reduction).passed


def test_verify_structure_generated_instance():
    rg = build_reduction(random_restricted_cnf(4, 7))
    assert verify_structure(rg).passed


def test_assignment_to_hull_set_shape(sample_reduction):
    rg = sample_reduction
    for bits in product((False, True), repeat=3):
        s = assignment_to_hull_set(rg, bits)
        assert len(s) == 12
        assert rg.designated_simplicial() <= s
        assert induced_assignment(rg, s) == bits


def test_forward_direction(sample_reduction, sample_cnf):
    rg = sample_reduction
    for assignment in satisfying_assignments(sample_cnf):
        s = assignment_to_hull_set(rg, assignment)
        assert is_hull_set(rg.graph, s)


def test_falsifying_assignment_is_not_hull_set(sample_reduction):
    s = assignment_to_hull_set(sample_reduction, (False, False, False))
    assert not is_hull_set(sample_reduction.graph, s)
    # the uncovered clause region is exactly what the hull misses
    missing = set(range(39)) - hull(sample_reduction.graph, s)
    assert sample_reduction.vertex("c", 1) in missing


def test_hull_set_to_assignment_round_trip(sample_reduction, sample_cnf):
    rg = sample_reduction
    for assignment in satisfying_assignments(sample_cnf):
        s = assignment_to_hull_set(rg, assignment)
        assert hull_set_to_assignment(rg, s) == assignment


def test_hull_set_to_assignment_rejects(sample_reduction):
    rg = sample_reduction
    with pytest.raises(NotAWitness):
        hull_set_to_assignment(rg, frozenset(range(39)))
    not_a_hull_set = assignment_to_hull_set(rg, (False, False, False))
    with pytest.raises(NotAWitness):
        hull_set_to_assignment(rg, not_a_hull_set)


def test_solver_on_sample(sample_reduction):
    result = hull_number_exact(sample_reduction.graph)
    assert result.hull_number == 12
    assert result.witness == SAMPLE_WITNESS
    # picks besides the tips: z_1, x_2, xbar_3
    assert induced_assignment(sample_reduction, result.witness) == \
        (False, True, False)


def test_solver_on_tiny(tiny_reduction):
    result = hull_number_exact(tiny_reduction.graph)
    assert result.hull_number == 5
    assert result.witness == {2, 6, 10, 11, 14}


def test_equivalence_sample(sample_cnf):
    report = equivalence_check(sample_cnf)
    assert report.passed
    assert report.satisfiable
    assert report.hull_number == 12
    assert report.k == 12
    lines = report.lines()
    assert lines[0] == "satisfiable=true"
    assert lines[1] == "h=12"
    assert lines[2] == "k=12"
    assert str(report) == "\n".join(lines)


def test_equivalence_tiny(tiny_cnf):
    report = equivalence_check(tiny_cnf)
    assert report.passed
    assert not report.satisfiable
    assert report.hull_number == 5
    assert report.k == 4
    assert report.lines()[1] == "h>=5"
    assert report.witness == frozenset()
    assert report.lower_bound == 5


def test_equivalence_report_h_line():
    def h_line(hull_number, lower_bound):
        report = EquivalenceReport(True, hull_number, 12, frozenset(), (),
                                   lower_bound)
        return report.lines()[1]

    assert h_line(12, 12) == "h=12"
    assert h_line(12, 11) == "h<=12"
    assert h_line(13, 13) == "h>=13"
    assert h_line(13, 14) == "h>=13"


def test_equivalence_rejects():
    with pytest.raises(InvalidInstance):
        equivalence_check(make_cnf(1, [[1], [-1]]))
    with pytest.raises(TooLarge):
        equivalence_check(random_restricted_cnf(13, 0))


def test_enumeration_cap_comes_before_any_build(monkeypatch):
    # A hostile instance is refused on its variable count alone, before its
    # reduction is built or its restrictions are checked.
    def refuse(cnf):
        raise AssertionError("the reduction was built")

    monkeypatch.setattr(reduction_module, "build_reduction", refuse)
    invalid = make_cnf(13, [[1], [-1]])
    assert validate_restricted(invalid)
    for cnf in (random_restricted_cnf(13, 0), invalid):
        with pytest.raises(TooLarge) as info:
            equivalence_check(cnf)
        assert str(info.value) == (
            "13 variables exceeds the enumeration cap of 12")


def _decide_with(monkeypatch, witness, lower_bound):
    """Make the harness's decision search answer with this witness."""
    monkeypatch.setattr(reduction_module, "_decide_with_paper_cores",
                        lambda rg, node_budget=None: HullDecision(
                            witness, lower_bound))


def test_equivalence_fails_a_witness_missing_a_tip(
        sample_cnf, sample_reduction, monkeypatch):
    rg = sample_reduction
    model = next(satisfying_assignments(sample_cnf))
    tip = min(rg.designated_simplicial())
    _decide_with(monkeypatch, assignment_to_hull_set(rg, model) - {tip}, 11)
    report = equivalence_check(sample_cnf)
    assert not report.passed
    lines = report.lines()
    assert "FAIL witness-simplicial: witness misses a simplicial vertex" in lines
    # Not a hull set, so the read-off raises NotAWitness and the check fails.
    assert ("FAIL witness-assignment: assignment read off the witness does "
            "not satisfy the instance") in lines
    assert lines[:2] == ["satisfiable=true", "h=11"]


def test_equivalence_fails_a_hull_set_whose_assignment_does_not_satisfy(
        sample_cnf, sample_reduction, monkeypatch):
    rg = sample_reduction
    model = next(satisfying_assignments(sample_cnf))
    witness = assignment_to_hull_set(rg, model)
    assert len(witness) == 12 and is_hull_set(rg.graph, witness)
    _decide_with(monkeypatch, witness, 12)
    monkeypatch.setattr(reduction_module, "satisfies", lambda cnf, a: False)
    report = equivalence_check(sample_cnf)
    assert not report.passed
    assert [line for line in report.lines() if line.startswith("FAIL")] == [
        "FAIL witness-assignment: assignment read off the witness does not "
        "satisfy the instance"]


def test_single_gadget_edge_deletion_is_detected(sample_reduction, sample_cnf):
    rg = sample_reduction
    victim = (rg.vertex("z", 1), rg.vertex("x", 1))
    edges = [e for e in rg.graph.edges if e != victim]
    assert len(edges) == 143
    mutated = replace(rg, graph=Graph(rg.graph.vertex_count, edges))
    structure_ok = verify_structure(mutated).passed
    forward_ok = all(is_hull_set(mutated.graph,
                                 assignment_to_hull_set(mutated, a))
                     for a in satisfying_assignments(sample_cnf))
    assert not (structure_ok and forward_ok)


def test_dependency_check_names_the_broken_dependency(sample_reduction):
    rg = sample_reduction
    victim = (rg.vertex("xp", 1), rg.vertex("x1", 1))
    edges = [e for e in rg.graph.edges if e != victim]
    assert len(edges) == 143
    report = verify_structure(replace(rg, graph=Graph(rg.graph.vertex_count, edges)))
    failed = [c for c in report.checks if not c.passed]
    assert [c.name for c in failed] == ["gadget-dependencies"]
    assert failed[0].detail == "variable 1: xp is not in the interval of {x1, x2}"


def test_verify_structure_never_builds_the_betweenness_table(
        sample_reduction, monkeypatch):
    rg = sample_reduction
    monkeypatch.setattr(Graph, "between_table", refuse_between_table)
    fresh = Graph(rg.graph.vertex_count, rg.graph.edges)
    report = verify_structure(replace(rg, graph=fresh))
    assert report.passed
    assert len(report.checks) == 9


def test_verify_structure_never_builds_the_distance_matrix(
        sample_reduction, monkeypatch):
    rg = sample_reduction
    monkeypatch.setattr(Graph, "distances", refuse_distances)
    fresh = Graph(rg.graph.vertex_count, rg.graph.edges)
    report = verify_structure(replace(rg, graph=fresh))
    assert report.passed
    assert len(report.checks) == 9


def test_disconnected_mutant_gives_fail_lines(sample_reduction, monkeypatch):
    rg = sample_reduction
    monkeypatch.setattr(Graph, "between_table", refuse_between_table)
    monkeypatch.setattr(Graph, "distances", refuse_distances)
    isolated = rg.vertex("xbarpp", 1)
    edges = [e for e in rg.graph.edges if isolated not in e]
    report = verify_structure(replace(rg, graph=Graph(rg.graph.vertex_count, edges)))
    failed = [c.name for c in report.checks if not c.passed]
    assert failed == ["diameter", "hub-eccentricity", "cross-distances",
                      "simplicial", "variable-triples", "clause-regions",
                      "gadget-dependencies"]
    assert all("not connected" in c.detail for c in report.checks
               if not c.passed and c.name != "simplicial")


@pytest.mark.parametrize("dropped", [38, 0, 5])
def test_short_graph_gives_fail_lines(sample_reduction, dropped):
    # The sample minus one vertex, renumbered: vertex 38 (xbarpp3) of the
    # layout is then missing, and every check that names it fails.
    rg = sample_reduction
    edges = [(u - (u > dropped), v - (v > dropped))
             for u, v in rg.graph.edges if dropped not in (u, v)]
    report = verify_structure(replace(rg, graph=Graph(38, edges)))
    failed = {c.name: c.detail for c in report.checks if not c.passed}
    assert failed["order"] == "38 vertices, expected 12n+m = 39"
    assert {"elimination-ordering", "simplicial"} <= failed.keys()
    assert failed["gadget-dependencies"] == \
        "error: vertex 38 out of range for 38 vertices"
    if dropped == 38:
        assert len(failed) == 4


def test_truncated_graph_gives_fail_lines(sample_reduction):
    # Only the first 20 vertices: hub, triple and region checks name
    # missing vertices too.
    rg = sample_reduction
    edges = [(u, v) for u, v in rg.graph.edges if v < 20]
    report = verify_structure(replace(rg, graph=Graph(20, edges)))
    failed = {c.name: c.detail for c in report.checks if not c.passed}
    assert set(failed) == {c.name for c in report.checks} - {"diameter"}
    for name in ("hub-eccentricity", "cross-distances", "variable-triples",
                 "clause-regions", "gadget-dependencies"):
        assert "out of range for 20 vertices" in failed[name]


def test_format_labels(sample_reduction):
    lines = format_labels(sample_reduction).splitlines()
    assert len(lines) == 39
    assert lines[:15] == [
        "0 c1", "1 c2", "2 c3",
        "3 y1", "4 ybar1", "5 z1", "6 x1", "7 xp1", "8 x11", "9 x21",
        "10 xp11", "11 xp21", "12 xbar1", "13 xbarp1", "14 xbarpp1",
    ]
    assert lines[15] == "15 y2"


def test_vertex_names_match_roles(sample_reduction, tiny_reduction):
    for rg in (sample_reduction, tiny_reduction):
        # With fewer than ten variables and clauses the index is the last
        # character: "x11" is role x1 of variable 1.
        assert rg.variable_count < 10 and rg.clause_count < 10
        for v in range(rg.graph.vertex_count):
            token = rg.role_token(v)
            assert rg.vertex(token[:-1], int(token[-1])) == v
    for v in (-1, 39):
        with pytest.raises(ValueError, match=f"vertex {v} out of range"):
            sample_reduction.role_token(v)
