"""The three benchmark workloads: input generation, the timed item, the checks.

Each workload object is built from the imported ``geohull`` package and a
seed.  Its inputs are generated once, in set-up, into a fixed pool; the
closed loop makes whole passes over the pool (every pass rebuilds its graphs
from text or edge lists, so no cached table is reused across items).
``run`` is the timed item and touches only the program's public API through
module attributes, so the tracer's patches take effect.  ``check`` is the
untimed correctness gate and returns a problem description, or None when the
output is right.  ``answer`` is the per-item tuple that the answer
fingerprint covers; when a later pass meets an input again, its new answer
must equal the one already checked.

Costs differ a lot between instances, so each pool is laid out in rounds of
a fixed composition (size classes, and for the costly classes the
satisfiability too): the pool's total cost then moves little from one seed
to the next.  Pools are kept small enough for one pass to take a few
seconds, so that a run makes many passes.
"""

from __future__ import annotations

import hashlib
import io
import os
import random
from contextlib import redirect_stdout
from itertools import combinations, product

TRIES = 60


def digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def _instance_near(gh, rng: random.Random, n: int, m: int,
                   satisfiable: bool | None = None) -> tuple[int, object]:
    """Of TRIES generator seeds drawn from ``rng``, the first whose instance
    has the wanted satisfiability (when one is given) and, after that, the
    clause count nearest m.  A fixed number of tries keeps set-up time the
    same from one seed to the next."""
    def distance(cnf):
        wrong = (satisfiable is not None
                 and _brute_satisfiable(n, cnf.clauses) != satisfiable)
        return wrong, abs(cnf.clause_count - m)

    best = None
    for _ in range(TRIES):
        seed = rng.randrange(2 ** 31)
        cnf = gh.cnf.random_restricted_cnf(n, seed)
        key = distance(cnf)
        if best is None or key < best[0]:
            best = key, seed, cnf
    return best[1], best[2]


def _brute_satisfiable(n: int, clauses) -> bool:
    return any(all(any((lit > 0) == bits[abs(lit) - 1] for lit in clause)
                   for clause in clauses)
               for bits in product((False, True), repeat=n))


class EquivBatch:
    """``geohull equiv`` plus structural verification on small instances.

    A round holds sixteen (n, m, satisfiable) classes.  Ten cheap n = 3
    instances with three or four clauses (satisfiable, solved at h = 12
    almost at once) put the median inside one tight class.  Two
    unsatisfiable n = 3 instances each with five and with six clauses, on
    which the solver must prove h > 4n and go on to the exact h, and two
    satisfiable n = 4 instances with five clauses carry most of the time.
    Fixing the satisfiability of these classes keeps the pool's cost steady
    from seed to seed.  Costlier classes are left out because their cost
    spreads too widely between seeds for a pool small enough to make many
    passes: n = 3 with seven clauses takes 27 ms to 132 ms, unsatisfiable
    n = 4 with seven 120 ms to 414 ms, with eight 0.14 s to 0.8 s, and with
    eleven or twelve 2 s to 14 s.
    """

    name = "equiv-batch"
    ROUND = ((3, 3, None), (3, 4, None)) * 5 + (
        (3, 5, False), (3, 5, False), (3, 6, False), (3, 6, False),
        (4, 5, True), (4, 5, True))
    TINY_ROUND = ((3, 3, None), (3, 4, None))
    ROUNDS = 4

    def __init__(self, gh, seed: int, tiny: bool = False):
        self.gh = gh
        rng = random.Random(seed)
        layout = self.TINY_ROUND if tiny else self.ROUND
        self.items = []
        for _ in range(self.ROUNDS):
            for n, m, satisfiable in layout:
                _, cnf = _instance_near(gh, rng, n, m, satisfiable)
                self.items.append(gh.cnf.format_dimacs(cnf))
        self.inputs_digest = digest(self.items)

    def run(self, text):
        red = self.gh.reduction
        cnf = self.gh.cnf.parse_dimacs(text)
        report = red.equivalence_check(cnf)
        rg = red.build_reduction(cnf)
        return cnf, report, rg, red.verify_structure(rg)

    def check(self, text, out):
        cnf, report, rg, structure = out
        n, m = cnf.variable_count, cnf.clause_count
        if not report.passed:
            return f"equivalence report failed: {report.lines()}"
        if not structure.passed:
            return f"structure report failed: {structure.lines()}"
        if report.k != 4 * n or rg.graph.vertex_count != 12 * n + m:
            return f"k={report.k}, {rg.graph.vertex_count} vertices for n={n}, m={m}"
        if report.satisfiable != _brute_satisfiable(n, cnf.clauses):
            return f"satisfiable={report.satisfiable} disagrees with brute force"
        return None

    def answer(self, out):
        cnf, report, rg, _ = out
        return (cnf.variable_count, cnf.clause_count, rg.graph.vertex_count,
                report.satisfiable, report.hull_number)


class VerifyLarge:
    """The CLI path on large reductions, in-process through ``cli.run``.

    ``gen-cnf``, then ``reduce`` into a scratch directory, ``parse_graph``
    of the written graph, then ``verify-reduction``.  The pool is one
    instance each at n = 20 and n = 24, with m as near 2n clauses as the
    generator seeds tried allow (about 280 and 340 vertices), so that all
    seeds carry nearly the same O(V^3) load.  A pass takes under three
    seconds, short enough for a run to make about ten.
    """

    name = "verify-large"
    POOL = (20, 24)
    TINY_POOL = (3, 4)

    def __init__(self, gh, seed: int, workdir: str, tiny: bool = False):
        self.gh = gh
        self.workdir = workdir
        rng = random.Random(seed)
        self.items = []
        for n in self.TINY_POOL if tiny else self.POOL:
            gen_seed, _ = _instance_near(gh, rng, n, 2 * n)
            self.items.append((n, gen_seed))
        self.inputs_digest = digest(self.items)

    def _cli(self, *argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = self.gh.cli.run([str(a) for a in argv])
        return code, buf.getvalue()

    def run(self, item):
        n, gen_seed = item
        cnf_path = os.path.join(self.workdir, "instance.cnf")
        graph_path = os.path.join(self.workdir, "reduction.g")
        labels_path = os.path.join(self.workdir, "reduction.labels")
        gen_code, cnf_text = self._cli("gen-cnf", "--n", n, "--seed", gen_seed)
        with open(cnf_path, "w", encoding="utf-8") as handle:
            handle.write(cnf_text)
        reduce_code, _ = self._cli("reduce", "--cnf", cnf_path,
                                   "--out-graph", graph_path,
                                   "--out-labels", labels_path)
        with open(graph_path, "r", encoding="utf-8") as handle:
            graph = self.gh.graph.parse_graph(handle.read())
        verify_code, verify_text = self._cli("verify-reduction", "--cnf", cnf_path)
        return ((gen_code, reduce_code, verify_code), cnf_text, graph,
                verify_text.splitlines())

    def check(self, item, out):
        codes, cnf_text, graph, lines = out
        if codes != (0, 0, 0):
            return f"exit codes {codes}"
        checks = [line for line in lines if not line.startswith("NOTE ")]
        if not checks or not all(line.startswith("PASS ") for line in checks):
            return f"verify-reduction printed {lines}"
        cnf = self.gh.cnf.parse_dimacs(cnf_text)
        n, m = cnf.variable_count, cnf.clause_count
        if n != item[0]:
            return f"gen-cnf gave n={n} for {item}"
        if graph != self.gh.reduction.build_reduction(cnf).graph:
            return "re-parsed graph differs from the built reduction"
        if graph.vertex_count != 12 * n + m:
            return f"{graph.vertex_count} vertices, expected 12n+m = {12 * n + m}"
        return None

    def answer(self, out):
        codes, cnf_text, graph, lines = out
        header = cnf_text.split("\n", 1)[0].split()
        return (int(header[2]), int(header[3]), graph.vertex_count,
                graph.edge_count, codes == (0, 0, 0))


def _chordal_edges(rng: random.Random, n: int) -> set[tuple[int, int]]:
    """Each new vertex joins a nonempty part of an earlier clique."""
    edges = set()
    cliques = [(0,)]
    for v in range(1, n):
        clique = rng.choice(cliques)
        part = [u for u in clique if rng.random() < 0.6] or [rng.choice(clique)]
        edges.update((u, v) for u in part)
        cliques.append(tuple(part) + (v,))
    return edges


def _sparse_edges(rng: random.Random, n: int) -> set[tuple[int, int]]:
    """Random spanning tree plus a sprinkling of extra edges."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    extra = rng.uniform(0.0, 0.5)
    edges.update(pair for pair in combinations(range(n), 2)
                 if rng.random() < extra)
    return edges


class ToolkitSmall:
    """Many small random connected graphs, a few queries on each.

    Half the graphs are chordal by construction, half are a spanning tree
    plus random extra edges; vertex labels are shuffled.  Each item builds
    its graph from the edge list and runs the whole toolkit once, so the
    metric tables are built and thrown away per item.
    """

    name = "toolkit-small"
    POOL = 1000
    TINY_POOL = 40
    MIN_VERTICES, MAX_VERTICES = 5, 14

    def __init__(self, gh, seed: int, tiny: bool = False):
        self.gh = gh
        rng = random.Random(seed)
        self.items = []
        top = 8 if tiny else self.MAX_VERTICES
        for k in range(self.TINY_POOL if tiny else self.POOL):
            n = rng.randint(self.MIN_VERTICES, top)
            make = _chordal_edges if k % 2 == 0 else _sparse_edges
            label = list(range(n))
            rng.shuffle(label)
            edges = tuple(sorted((min(label[u], label[v]), max(label[u], label[v]))
                                 for u, v in make(rng, n)))
            subset = tuple(v for v in range(n) if rng.random() < 0.3) or (0,)
            self.items.append((n, edges, subset, make is _chordal_edges))
        self.inputs_digest = digest(self.items)

    def run(self, item):
        n, edges, subset, _ = item
        conv, chordal = self.gh.convexity, self.gh.chordal
        g = self.gh.graph.Graph(n, edges)
        return (g,
                conv.interval(g, subset),
                conv.hull(g, subset),
                conv.is_convex(g, subset),
                conv.is_concave(g, subset),
                conv.is_hull_set(g, subset),
                conv.interval_dependencies(g),
                chordal.chordality(g),
                chordal.simplicial_vertices(g),
                self.gh.solver.hull_number_exact(g))

    def check(self, item, out):
        n, edges, subset, chordal_by_construction = item
        g, inter, hull, convex, concave, hull_set, deps, peo, simp, result = out
        conv = self.gh.convexity
        everything = frozenset(range(n))
        if not set(subset) <= inter <= hull or not conv.is_convex(g, hull):
            return "interval or hull is not a growing convex superset"
        if convex != (inter == set(subset)) or hull_set != (hull == everything):
            return "is_convex or is_hull_set disagrees with interval/hull"
        if concave != conv.is_convex(g, everything - set(subset)):
            return "is_concave(S) != is_convex(complement of S)"
        if peo is not None and not self.gh.chordal.is_perfect_elimination_ordering(g, peo):
            return "chordality returned an ordering that does not verify"
        if chordal_by_construction and peo is None:
            return "chordality rejected a chordal graph"
        neighbours = [set() for _ in range(n)]
        for u, v in edges:
            neighbours[u].add(v)
            neighbours[v].add(u)
        expected = {v for v in range(n)
                    if all(b in neighbours[a]
                           for a, b in combinations(sorted(neighbours[v]), 2))}
        if simp != expected:
            return f"simplicial set {sorted(simp)} != {sorted(expected)}"
        brute = self.gh.solver.hull_number_bruteforce(g).hull_number
        if result.hull_number != brute:
            return f"hull number {result.hull_number} != brute force {brute}"
        if (len(result.witness) != result.hull_number
                or not conv.is_hull_set(g, result.witness)):
            return "witness is not a hull set of the claimed size"
        return None

    def answer(self, out):
        g, inter, hull, convex, concave, hull_set, deps, peo, simp, result = out
        return (g.vertex_count, g.edge_count, sorted(inter), sorted(hull), convex,
                concave, hull_set, len(deps), peo, sorted(simp),
                result.hull_number, sorted(result.witness))
