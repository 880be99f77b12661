"""End-to-end acceptance suite.

Each test covers one acceptance criterion, enforces its time budget, and
prints a single PASS/FAIL line; run with ``pytest -s tests/test_acceptance.py``
to watch the lines as they appear.
"""

import random
import time
from dataclasses import replace

from geohull import (Graph, assignment_to_hull_set,
                     build_reduction, chordality, equivalence_check,
                     gadget_edges, hull,
                     hull_number_bruteforce, hull_number_exact,
                     hull_set_to_assignment, interval, interval_dependencies,
                     is_convex, is_concave, is_hull_set,
                     is_perfect_elimination_ordering, is_satisfiable,
                     random_restricted_cnf, satisfies,
                     satisfying_assignments, simplicial_vertices,
                     validate_restricted, verify_structure)
from geohull.fixtures import small_chordal_graph
from helpers import has_induced_cycle_at_least_4, random_connected_graph, random_graph


class Criterion:
    def __init__(self, name: str, budget_seconds: float):
        self.name = name
        self.budget = budget_seconds
        self.failures: list[str] = []
        self.started = time.perf_counter()

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.failures.append(message)

    def finish(self, detail: str = "") -> None:
        elapsed = time.perf_counter() - self.started
        if elapsed >= self.budget:
            self.failures.append(
                f"took {elapsed:.2f}s, budget {self.budget:.0f}s")
        status = "PASS" if not self.failures else "FAIL"
        print(f"[acceptance] {self.name} {status} ({elapsed:.2f}s) {detail}")
        assert not self.failures, self.failures


def test_criterion_1_fixture_facts():
    crit = Criterion("criterion-1 fixture", budget_seconds=1.0)
    g = small_chordal_graph()
    crit.check(chordality(g) is not None, "fixture must be chordal")
    crit.check(simplicial_vertices(g) == {0, 4}, "simplicial set must be {x1, z}")
    exact = hull_number_exact(g)
    brute = hull_number_bruteforce(g)
    crit.check(exact.hull_number == 2 and exact.witness == {0, 4},
               f"exact solver returned {exact}")
    crit.check(brute.hull_number == 2 and brute.witness == {0, 4},
               f"brute force returned {brute}")
    deps = interval_dependencies(g)
    crit.check(((0, 3), 1) in deps, "missing {x1,t} -> x2")
    crit.check(((1, 4), 2) in deps, "missing {z,x2} -> x3")
    crit.check(((3, 4), 2) not in deps,
               "{z,t} -> x3 must not be emitted (z and t are adjacent)")
    crit.finish("h=2, witness {0,4}, 7 dependencies")


def test_criterion_2_sample_instance(sample_cnf):
    crit = Criterion("criterion-2 sample instance", budget_seconds=60.0)
    cnf = sample_cnf
    rg = build_reduction(cnf)
    crit.check(rg.graph.vertex_count == 39, "order must be 12n+m = 39")
    report = verify_structure(rg)
    for check in report.checks:
        crit.check(check.passed, f"structure check failed: {check.line}")
    result = hull_number_exact(rg.graph)
    crit.check(result.hull_number == 12, f"h = {result.hull_number}, expected 12")
    crit.check(is_satisfiable(cnf), "sample instance must be satisfiable")
    crit.finish(f"39 vertices, {len(report.checks)} checks, h={result.hull_number}=4n")


def test_criterion_3_forward_backward_on_random_instances():
    crit = Criterion("criterion-3 random instances", budget_seconds=10.0)
    for seed in range(50):
        n = seed % 5 + 1
        cnf = random_restricted_cnf(n, seed)
        crit.check(validate_restricted(cnf) == [], f"seed {seed}: invalid instance")
        rg = build_reduction(cnf)
        sat = is_satisfiable(cnf)
        result = hull_number_exact(rg.graph)
        h, k = result.hull_number, rg.k
        crit.check(sat == (h <= k),
                   f"seed {seed}: satisfiable={sat} but h={h}, k={k}")
        for assignment in satisfying_assignments(cnf):
            s = assignment_to_hull_set(rg, assignment)
            crit.check(len(s) == 4 * n,
                       f"seed {seed}: forward set has size {len(s)}")
            crit.check(is_hull_set(rg.graph, s),
                       f"seed {seed}: forward set is not a hull set")
        if h <= k:
            witness = result.witness
            crit.check(rg.designated_simplicial() <= witness,
                       f"seed {seed}: witness misses a simplicial vertex")
            for i in range(1, n + 1):
                hits = len(set(rg.variable_triple(i)) & witness)
                crit.check(hits == 1,
                           f"seed {seed}: witness hits triple {i} {hits} times")
            crit.check(satisfies(cnf, hull_set_to_assignment(rg, witness)),
                       f"seed {seed}: witness assignment does not satisfy")
        if crit.failures:
            break
    crit.finish("50 instances, n in 1..5")


def test_criterion_4_convexity_axioms():
    crit = Criterion("criterion-4 convexity axioms", budget_seconds=60.0)
    rng = random.Random(2024)
    for trial in range(1000):
        g = random_connected_graph(rng, max_vertices=12)
        pool = range(g.vertex_count)
        big = {v for v in pool if rng.random() < 0.5}
        small = {v for v in big if rng.random() < 0.6}
        iv_small, iv_big = interval(g, small), interval(g, big)
        hl_small, hl_big = hull(g, small), hull(g, big)
        crit.check(small <= iv_small <= hl_small, f"trial {trial}: extensivity")
        crit.check(iv_small <= iv_big and hl_small <= hl_big,
                   f"trial {trial}: monotonicity")
        crit.check(hull(g, hl_big) == hl_big, f"trial {trial}: idempotence")
        crit.check(is_convex(g, hl_big), f"trial {trial}: hull convexity")
        complement = set(pool) - big
        crit.check(is_concave(g, big) == is_convex(g, complement),
                   f"trial {trial}: concavity duality")
        if crit.failures:
            break
    crit.finish("1000 random connected graphs <= 12 vertices")


def test_criterion_5_solver_oracle_agreement():
    crit = Criterion("criterion-5 solver vs oracle", budget_seconds=300.0)
    rng = random.Random(555)
    for trial in range(200):
        g = random_connected_graph(rng, max_vertices=10)
        exact = hull_number_exact(g)
        brute = hull_number_bruteforce(g)
        crit.check(exact.hull_number == brute.hull_number,
                   f"trial {trial}: exact {exact.hull_number} != "
                   f"brute {brute.hull_number}")
        crit.check(is_hull_set(g, exact.witness), f"trial {trial}: bad witness")
        if crit.failures:
            break
    crit.finish("200 random connected graphs <= 10 vertices")


def test_criterion_6_chordality_oracle_agreement():
    crit = Criterion("criterion-6 chordality vs oracle", budget_seconds=120.0)
    rng = random.Random(777)
    for trial in range(500):
        g = random_graph(rng, max_vertices=10)
        peo = chordality(g)
        expected = not has_induced_cycle_at_least_4(g)
        crit.check((peo is not None) == expected,
                   f"trial {trial}: chordality disagrees with cycle search")
        if peo is not None:
            crit.check(is_perfect_elimination_ordering(g, peo),
                       f"trial {trial}: returned ordering is not a PEO")
        if crit.failures:
            break
    crit.finish("500 random graphs <= 10 vertices")


def test_criterion_7_mutation_sensitivity(sample_cnf):
    crit = Criterion("criterion-7 mutation sensitivity", budget_seconds=300.0)
    cnf = sample_cnf
    rg = build_reduction(cnf)
    edges = gadget_edges(rg, 1)
    crit.check(len(edges) == 26, f"expected 26 gadget edges, got {len(edges)}")
    models = list(satisfying_assignments(cnf))
    for victim in edges:
        remaining = [e for e in rg.graph.edges if e != victim]
        mutated = replace(rg, graph=Graph(rg.graph.vertex_count, remaining))
        structure_ok = verify_structure(mutated).passed
        forward_ok = all(is_hull_set(mutated.graph,
                                     assignment_to_hull_set(mutated, a))
                         for a in models)
        crit.check(not (structure_ok and forward_ok),
                   f"deleting edge {victim} goes unnoticed")
    crit.finish("each of the 26 gadget edge deletions is detected")


def test_criterion_8_equivalence_reach():
    crit = Criterion("criterion-8 equivalence reach", budget_seconds=10.0)
    report = equivalence_check(random_restricted_cnf(7, 0))
    crit.check(report.passed, f"n=7 seed 0: {report.lines()}")
    crit.check(report.lines()[1] == "h>=29",
               f"n=7 seed 0 reports {report.lines()[1]}, expected h>=29")
    for n in range(5, 13):
        for seed in range(4):
            report = equivalence_check(random_restricted_cnf(n, seed))
            crit.check(report.passed, f"n={n} seed {seed}: {report.lines()}")
    crit.finish("n=7 seed 0 h>=29; 32 instances, n in 5..12, seeds 0..3")
