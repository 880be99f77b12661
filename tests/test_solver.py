import os
import random
import subprocess
import sys
from dataclasses import replace
from itertools import combinations

import pytest

import geohull
from geohull import (BudgetExceeded, Disconnected, Graph, HullDecision,
                     TooLarge, build_reduction, gadget_edges,
                     hull_number_at_most, hull_number_bruteforce,
                     hull_number_exact, induced_assignment, is_concave,
                     is_hull_set, is_satisfiable, random_restricted_cnf,
                     satisfies, simplicial_vertices)
from geohull import solver as solver_module
from geohull.graph import mask_members, vertex_mask
from geohull.reduction import _decide_with_paper_cores, _paper_cores
from geohull.solver import _Search, _core_order
from helpers import random_connected_graph


def test_path_endpoints():
    g = Graph(6, [(i, i + 1) for i in range(5)])
    result = hull_number_exact(g)
    assert result.hull_number == 2
    assert result.witness == {0, 5}


def test_complete_graph_needs_everything():
    g = Graph(5, combinations(range(5), 2))
    for result in (hull_number_exact(g), hull_number_bruteforce(g)):
        assert result.hull_number == 5
        assert result.witness == {0, 1, 2, 3, 4}


def test_fig2_exact(fig2):
    result = hull_number_exact(fig2)
    assert result.hull_number == 2
    assert result.witness == {0, 4}


def test_fig2_bruteforce(fig2):
    result = hull_number_bruteforce(fig2)
    assert result.hull_number == 2
    assert result.witness == {0, 4}


def test_cycle4_antipodal_pair():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert hull_number_bruteforce(g).witness == {0, 2}
    assert hull_number_exact(g).witness == {0, 2}


def test_single_vertex():
    g = Graph(1, [])
    assert hull_number_bruteforce(g).hull_number == 1
    assert hull_number_exact(g).hull_number == 1


def test_disconnected_rejected(tiny_reduction):
    g = Graph(3, [(0, 1)])
    # Vertex 14 (xbarpp1) loses every edge: the seeded search rejects it
    # with the same words as the other entries.
    edges = [e for e in tiny_reduction.graph.edges if 14 not in e]
    mutant = replace(tiny_reduction, graph=Graph(15, edges))
    for search in (lambda: hull_number_exact(g),
                   lambda: hull_number_at_most(g, 3),
                   lambda: _decide_with_paper_cores(mutant)):
        with pytest.raises(
                Disconnected,
                match="hull number is defined for connected graphs only"):
            search()
    with pytest.raises(Disconnected):
        hull_number_bruteforce(g)


def test_bruteforce_cap(monkeypatch):
    g = Graph(15, [(i, i + 1) for i in range(14)])
    with pytest.raises(TooLarge):
        hull_number_bruteforce(g)
    monkeypatch.setattr(solver_module, "MAX_BRUTEFORCE_VERTICES", 15)
    assert hull_number_bruteforce(g).hull_number == 2


def test_budget_exhaustion():
    # C4 has no simplicial vertices, so the search must actually branch.
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    with pytest.raises(BudgetExceeded) as info:
        hull_number_exact(g, node_budget=1)
    assert info.value.lower_bound >= 1
    assert info.value.evaluations > 1


def test_budget_large_enough(fig2):
    # fig2 resolves with a single hull evaluation: the simplicial vertices
    # already generate everything.
    assert hull_number_exact(fig2, node_budget=1).hull_number == 2
    assert hull_number_exact(fig2, node_budget=10_000).hull_number == 2
    assert hull_number_at_most(fig2, 1, node_budget=1) == HullDecision(None, 2)
    for k in range(2, 6):
        assert (hull_number_at_most(fig2, k, node_budget=1)
                == HullDecision(frozenset({0, 4}), 2))


def test_oracle_agreement_random():
    rng = random.Random(41)
    for _ in range(60):
        g = random_connected_graph(rng, max_vertices=9)
        assert hull_number_exact(g) == hull_number_bruteforce(g)


def test_budget_lower_bound_is_sound():
    rng = random.Random(53)
    for _ in range(60):
        g = random_connected_graph(rng, max_vertices=9)
        oracle = hull_number_bruteforce(g)
        for budget in (1, 2, 3, 5, 8, 13):
            try:
                result = hull_number_exact(g, node_budget=budget)
            except BudgetExceeded as exc:
                assert 1 <= exc.lower_bound <= oracle.hull_number
                assert exc.evaluations == budget + 1
            else:
                assert result == oracle


def test_witness_validity_random():
    rng = random.Random(43)
    for _ in range(40):
        g = random_connected_graph(rng, max_vertices=9)
        result = hull_number_exact(g)
        assert is_hull_set(g, result.witness)
        assert len(result.witness) == result.hull_number
        assert simplicial_vertices(g) <= result.witness


def test_determinism():
    rng = random.Random(47)
    for _ in range(20):
        g = random_connected_graph(rng, max_vertices=9)
        assert hull_number_exact(g) == hull_number_exact(g)


def root_cores(g):
    """The search's concave cores and its bound at the root, h - |M| >= bound."""
    search = _Search(g, None)
    start = search.close(0, vertex_mask(g, simplicial_vertices(g)))
    search.cores = search.concave_cores(start, g.full_mask & ~start)
    return search.cores, search.packing(start, g.full_mask & ~start)[0]


def test_core_bound_agrees_with_oracle(sample_reduction):
    # Only searches that reach round 3 build the cores, so keep the graphs
    # that need at least three picks beyond the simplicial vertices.
    rng = random.Random(7)
    graphs = []
    while len(graphs) < 30:
        g = random_connected_graph(rng, min_vertices=10, max_vertices=13)
        if hull_number_exact(g).hull_number - len(simplicial_vertices(g)) >= 3:
            graphs.append(g)
    for g in graphs:
        oracle = hull_number_bruteforce(g)
        result = hull_number_exact(g)
        assert result.hull_number == oracle.hull_number
        assert len(result.witness) == result.hull_number
        assert is_hull_set(g, result.witness)
        simplicial = simplicial_vertices(g)
        cores, bound = root_cores(g)
        for core in cores:
            assert is_concave(g, mask_members(core))
            assert simplicial.isdisjoint(mask_members(core))
        assert bound <= oracle.hull_number - len(simplicial)
        for budget in (1, 5, 20, 50, 100):
            try:
                hull_number_exact(g, node_budget=budget)
            except BudgetExceeded as exc:
                assert exc.lower_bound <= oracle.hull_number
    # The n variable triples are disjoint concave sets.
    _, bound = root_cores(sample_reduction.graph)
    assert bound == sample_reduction.variable_count == 3


def test_exact_solver_reach_at_six_variables():
    # h <= 4n exactly when satisfiable, on reductions of 78 to 90 vertices.
    for seed in range(8):
        cnf = random_restricted_cnf(6, seed)
        rg = build_reduction(cnf)
        result = hull_number_exact(rg.graph)
        h = result.hull_number
        assert (h <= rg.k) == is_satisfiable(cnf), seed
        assert len(result.witness) == h
        assert is_hull_set(rg.graph, result.witness)
        assert rg.designated_simplicial() <= result.witness
        assert hull_number_at_most(rg.graph, h - 1).witness is None


# -- decision search ------------------------------------------------------------

def check_decisions(g, h, budgets=()):
    """``hull_number_at_most`` against the known hull number h, k = 0..h+1."""
    for k in range(h + 2):
        decision = hull_number_at_most(g, k)
        assert (decision.witness is not None) == (h <= k), k
        if decision.witness is None:
            assert k < decision.lower_bound <= h
        else:
            assert len(decision.witness) <= k
            assert is_hull_set(g, decision.witness)
            assert decision.lower_bound <= h
        for budget in budgets:
            try:
                hull_number_at_most(g, k, node_budget=budget)
            except BudgetExceeded as exc:
                assert 1 <= exc.lower_bound <= h
                assert exc.evaluations == budget + 1


def test_decision_agrees_with_oracle_random():
    rng = random.Random(61)
    for _ in range(150):
        g = random_connected_graph(rng, max_vertices=11)
        check_decisions(g, hull_number_bruteforce(g).hull_number,
                        budgets=(1, 2, 3, 5, 8, 13))


def test_decision_on_reductions(sample_reduction, tiny_reduction):
    for rg, h in ((sample_reduction, 12), (tiny_reduction, 5)):
        assert hull_number_exact(rg.graph).hull_number == h
        check_decisions(rg.graph, h, budgets=(1, 10, 100, 1000))


def test_decision_agrees_on_criterion_3_seeds():
    # The exact solves' hull evaluations are bounded as well (34,511 in
    # all); a bound, not a pin, so a search that does less still passes.
    evaluations = 0
    for seed in range(50):
        rg = build_reduction(random_restricted_cnf(seed % 5 + 1, seed))
        search = _Search(rg.graph, None)
        check_decisions(rg.graph, search.run().hull_number)
        evaluations += search.evaluations
    assert evaluations <= 40_000


def test_paper_cores_are_the_root_cores():
    # The criterion-3 seeds and n <= 8 at seeds 0-11: the root core build
    # finds exactly the paper's sets, and seeding the search with them
    # gives the same witness and lower bound.
    instances = {(seed % 5 + 1, seed) for seed in range(50)}
    instances |= {(n, seed) for n in range(1, 9) for seed in range(12)}
    for n, seed in sorted(instances):
        rg = build_reduction(random_restricted_cnf(n, seed))
        cores, _ = root_cores(rg.graph)
        assert cores == sorted(_paper_cores(rg), key=_core_order)
        assert (_decide_with_paper_cores(rg)
                == hull_number_at_most(rg.graph, rg.k)), (n, seed)


def test_seeded_search_drops_sets_that_are_not_concave(sample_reduction,
                                                       tiny_reduction):
    # Deleting one gadget edge can leave a triple or a region no longer
    # concave.  Branching on such a set, or packing it, loses hull sets:
    # on the tiny reduction without y1-x21 it would answer h > 4.
    dropped = 0
    for rg in (sample_reduction, tiny_reduction):
        for i in range(1, rg.variable_count + 1):
            for victim in gadget_edges(rg, i):
                edges = [e for e in rg.graph.edges if e != victim]
                mutant = replace(rg, graph=Graph(rg.graph.vertex_count, edges))
                g = mutant.graph
                if not g.is_connected:
                    continue
                hints = _paper_cores(mutant)
                bad = [h for h in hints if not is_concave(g, mask_members(h))]
                search = _Search(g, None)
                decision = search.decide(mutant.k, hints)
                assert not set(bad) & set(search.cores), victim
                assert all(is_concave(g, mask_members(core))
                           for core in search.cores)
                assert decision == _decide_with_paper_cores(mutant)
                plain = hull_number_at_most(g, mutant.k)
                assert ((decision.witness is None)
                        == (plain.witness is None)), victim
                for witness in (decision.witness, plain.witness):
                    if witness is not None:
                        assert is_hull_set(g, witness)
                        assert decision.lower_bound <= len(witness), victim
                dropped += len(bad)
    assert dropped == 48


def test_seeded_search_branches_like_dpll_at_scale():
    # At k = 4n the n triples pack tightly, so a pick is a truth value and
    # a clause region with one allowed member is a forced pick.  Branching
    # on the first unmet core instead spends 50,000 evaluations on each.
    for n, seed, satisfiable in ((30, 3, False), (50, 1, True)):
        rg = build_reduction(random_restricted_cnf(n, seed))
        decision = _Search(rg.graph, 200).decide(rg.k, _paper_cores(rg))
        assert (decision.witness is not None) == satisfiable, (n, seed)
        if satisfiable:
            assert len(decision.witness) == rg.k
            assert is_hull_set(rg.graph, decision.witness)
            assert satisfies(rg.cnf, induced_assignment(rg, decision.witness))
        else:
            assert decision.lower_bound == rg.k + 1


def test_no_pick_left_fails_the_node():
    # A 4-cycle with a pendant vertex: M = {4} and h = 2.  Without cores to
    # pack, "h <= 1" reaches a node with no pick left, which must fail
    # rather than branch to a 2-vertex hull set.
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)])
    decision = _Search(g, None).decide(1, [])
    assert decision == HullDecision(None, 2)
    assert decision.lower_bound == hull_number_bruteforce(g).hull_number


def test_decision_rejects_disconnected():
    with pytest.raises(Disconnected):
        hull_number_at_most(Graph(3, [(0, 1)]), 3)


# 16 vertices, h = 3, no simplicial vertex: proving h > 2 needs branching.
BRANCHING_EDGES = [
    (0, 8), (0, 11), (0, 13), (1, 10), (1, 13), (1, 15), (2, 3), (2, 5),
    (2, 11), (2, 12), (2, 13), (3, 5), (3, 6), (3, 11), (4, 10), (4, 12),
    (4, 14), (5, 7), (5, 11), (5, 12), (5, 14), (6, 9), (6, 14), (7, 8),
    (7, 11), (8, 12), (8, 13), (8, 15), (9, 12), (9, 14), (9, 15), (10, 12),
    (12, 14), (12, 15)]


def test_decision_search_work(monkeypatch):
    # An exact count of hull evaluations: each set of picks is reached at
    # most once because a failed sibling stays forbidden and every core is
    # cut to the allowed vertices.  Re-searching a sibling, or branching on
    # a forbidden vertex, costs more evaluations here.
    g = Graph(16, BRANCHING_EDGES)
    monkeypatch.setattr(solver_module, "MAX_BRUTEFORCE_VERTICES", 16)
    assert hull_number_bruteforce(g).hull_number == 3
    assert hull_number_at_most(g, 2, node_budget=135).witness is None
    with pytest.raises(BudgetExceeded):
        hull_number_at_most(g, 2, node_budget=134)


# 14 vertices, h = 5.  Both searches reach a node where a stored core that
# the hull misses has no allowed member left: each was a failed sibling.
EMPTY_CUT_EDGES = [
    (0, 1), (0, 4), (0, 8), (0, 10), (0, 11), (0, 12), (0, 13), (2, 4),
    (2, 7), (3, 10), (3, 12), (4, 5), (4, 12), (5, 11), (6, 8), (6, 12),
    (7, 9), (9, 13)]


def test_empty_cut_core_fails_the_node(monkeypatch):
    empty = []
    packing = _Search.packing

    def spy(self, hull, allowed):
        need = packing(self, hull, allowed)
        empty.append(need is None)
        return need

    monkeypatch.setattr(_Search, "packing", spy)
    g = Graph(14, EMPTY_CUT_EDGES)
    oracle = hull_number_bruteforce(g)
    result = hull_number_exact(g)
    assert result.hull_number == oracle.hull_number == 5
    assert is_hull_set(g, result.witness) and len(result.witness) == 5
    assert any(empty)
    empty.clear()
    assert hull_number_at_most(g, 4).witness is None
    assert any(empty)


_BUDGETED_SEARCH_AT_SCALE = """
from geohull import (BudgetExceeded, build_reduction, hull_number_exact,
                     random_restricted_cnf)
g = build_reduction(random_restricted_cnf(150, 1)).graph
try:
    hull_number_exact(g, node_budget=20)
except BudgetExceeded as exc:
    print("BudgetExceeded", exc.lower_bound)
"""


def test_budgeted_search_at_scale_fits_in_256_mib():
    # The n = 150 reduction has 2018 vertices; its O(V^3)-bit betweenness
    # table alone would need more address space than the child is given.
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

    src = os.path.dirname(os.path.dirname(geohull.__file__))
    done = subprocess.run(
        [sys.executable, "-c", _BUDGETED_SEARCH_AT_SCALE],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        check=False, preexec_fn=limit)
    assert (done.returncode, done.stdout, done.stderr) == (
        0, "BudgetExceeded 451\n", "")
