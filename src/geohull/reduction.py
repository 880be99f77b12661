"""CNF-to-graph reduction with structural verification.

From a restricted CNF instance (see :mod:`geohull.cnf`) this module builds a
chordal graph whose hull number is at most 4n exactly when the instance is
satisfiable.  The graph consists of a hub clique — one vertex per clause
plus three per variable (y, ybar, z) — and, per variable, a nine-vertex
gadget wired so that minimum hull sets are forced to pick, besides the 3n
simplicial gadget tips, exactly one of {x_i, z_i, xbar_i} per variable, and
picking x_i / xbar_i is what lets the hull reach the vertices of clauses
containing that literal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .chordal import is_perfect_elimination_ordering, simplicial_vertices
from .cnf import (Assignment, RestrictedCnf, occurrence_table, satisfies,
                  is_satisfiable, validate_restricted)
from .convexity import is_concave, is_hull_set
from .errors import GeohullError, InvalidInstance, NotAWitness, TooLarge
from .graph import (MAX_VERTICES, Graph, _check_vertex, diameter,
                    eccentricity, vertex_mask)
from .solver import HullDecision, _Search

# Fixed per-variable role order; vertex layout is clause vertices first
# (by clause index), then one block per variable in this order.
ROLE_ORDER = ("y", "ybar", "z", "x", "xp", "x1", "x2",
              "xp1", "xp2", "xbar", "xbarp", "xbarpp")
BLOCK_SIZE = len(ROLE_ORDER)
_OFFSET = {kind: off for off, kind in enumerate(ROLE_ORDER)}


def _vertex_index(clause_count: int, kind: str, i: int) -> int:
    """Vertex of role ``kind`` for variable i, or of clause i when ``kind``
    is "c" (1-based, unchecked), in a reduction with ``clause_count``
    clauses."""
    if kind == "c":
        return i - 1
    return clause_count + BLOCK_SIZE * (i - 1) + _OFFSET[kind]


def _role(clause_count: int, v: int) -> tuple[str, int]:
    """Inverse of ``_vertex_index``: the role kind of vertex v and its
    1-based variable or clause index (unchecked)."""
    if v < clause_count:
        return "c", v + 1
    block, offset = divmod(v - clause_count, BLOCK_SIZE)
    return ROLE_ORDER[offset], block + 1


# The gadget wired for each variable, by role.  c_a and c_b are the clause
# vertices of the two positive occurrences, c_c that of the negative one.
GADGET_EDGES = (
    # Positive side.  x sees z, y and its two clause vertices, so the
    # pair {x, xbarpp} spans distance 3 through the hub.
    ("x", "xp"), ("x", "z"), ("x", "y"), ("x", "c_a"), ("x", "c_b"),
    # xp sees both supports, y and the same clause vertices.
    ("xp", "x1"), ("xp", "x2"), ("xp", "y"), ("xp", "c_a"), ("xp", "c_b"),
    # Each support hangs between its tip and one clause vertex.
    ("x1", "xp1"), ("x1", "y"), ("x1", "c_a"),
    ("x2", "xp2"), ("x2", "y"), ("x2", "c_b"),
    # Tips touch only their support and y: simplicial by construction.
    ("xp1", "y"), ("xp2", "y"),
    # Negated side, one support level shorter: {xbar, xp1} spans
    # distance 3.
    ("xbar", "xbarp"), ("xbar", "z"), ("xbar", "ybar"), ("xbar", "c_c"),
    ("xbarp", "xbarpp"), ("xbarp", "ybar"), ("xbarp", "c_c"),
    ("xbarpp", "ybar"),
)

# The interval dependencies the gadget's edges are wired to create:
# ((u, v), ws) says every w in ws lies on a shortest u-v path, so a hull
# holding u and v recovers ws.
GADGET_DEPENDENCIES = (
    (("x", "xbarpp"), ("z", "ybar", "c_a", "c_b")),
    (("xp", "z"), ("x",)),
    (("x1", "x2"), ("xp",)),
    (("xp1", "c_a"), ("x1",)),
    (("xp2", "c_b"), ("x2",)),
    (("xbarpp", "c_c"), ("xbarp",)),
    (("xbarp", "z"), ("xbar",)),
)

# The gadget roles each occurrence adds to its clause's concave region.
CLAUSE_REGION_ROLES = (("c_a", ("x", "xp", "x1")), ("c_b", ("x", "xp", "x2")),
                       ("c_c", ("xbar", "xbarp")))


def _gadget_vertices(clause_count: int, i: int,
                     occurrence: tuple[int, int, int]) -> dict[str, int]:
    """Vertex of each role of variable i's gadget, and of c_a, c_b and c_c
    for its occurrence (pos1, pos2, neg) as 0-based clause indices."""
    at = {kind: _vertex_index(clause_count, kind, i) for kind in ROLE_ORDER}
    at.update((key, _vertex_index(clause_count, "c", j + 1))
              for key, j in zip(("c_a", "c_b", "c_c"), occurrence))
    return at


def _roles(n: int, m: int, kinds: tuple[str, ...]) -> list[int]:
    """The vertices of the given role kinds, variable by variable, in the
    order of ``kinds`` within each variable."""
    return [_vertex_index(m, kind, i) for i in range(1, n + 1) for kind in kinds]


def _hub(n: int, m: int) -> list[int]:
    """The hub clique in ascending order: every clause vertex, then the y,
    ybar and z vertices of each variable."""
    return list(range(m)) + _roles(n, m, ("y", "ybar", "z"))


@dataclass(frozen=True)
class ReductionGraph:
    """The built graph plus the source instance; the role of each vertex is
    read off the fixed layout."""

    graph: Graph
    cnf: RestrictedCnf

    @property
    def variable_count(self) -> int:
        return self.cnf.variable_count

    @property
    def clause_count(self) -> int:
        return self.cnf.clause_count

    @property
    def k(self) -> int:
        """The hull-number threshold: 4n."""
        return 4 * self.variable_count

    def vertex(self, kind: str, i: int) -> int:
        """Vertex of role ``kind`` for variable i, or of clause i when
        ``kind`` is "c" (1-based)."""
        if kind == "c":
            if not 1 <= i <= self.clause_count:
                raise ValueError(f"clause index {i} out of range")
        elif kind not in _OFFSET:
            raise ValueError(f"unknown role kind {kind!r}")
        elif not 1 <= i <= self.variable_count:
            raise ValueError(f"variable index {i} out of range")
        return _vertex_index(self.clause_count, kind, i)

    def role_token(self, v: int) -> str:
        """Role of vertex v as written in the labels file, such as "xbar2"."""
        _check_vertex(self.graph, v)
        return "%s%d" % _role(self.clause_count, v)

    def hub_vertices(self) -> frozenset[int]:
        """The clique every other vertex hangs off: clause, y, ybar, z vertices."""
        return frozenset(_hub(self.variable_count, self.clause_count))

    def variable_triple(self, i: int) -> tuple[int, int, int]:
        """The concave triple of variable i; hull sets must hit it."""
        return (self.vertex("x", i), self.vertex("z", i), self.vertex("xbar", i))

    @cached_property
    def occurrences(self) -> tuple[tuple[int, int, int], ...]:
        """The instance's occurrence table, computed once per reduction."""
        return tuple(occurrence_table(self.cnf))

    @cached_property
    def _clause_regions(self) -> tuple[frozenset[int], ...]:
        """Every clause region, indexed by its clause vertex, built in one
        pass over the occurrences."""
        m = self.clause_count
        regions = [{_vertex_index(m, "c", j)} for j in range(1, m + 1)]
        for i, occurrence in enumerate(self.occurrences, start=1):
            at = _gadget_vertices(m, i, occurrence)
            for clause, kinds in CLAUSE_REGION_ROLES:
                regions[at[clause]].update(at[kind] for kind in kinds)
        return tuple(map(frozenset, regions))

    def clause_region(self, j: int) -> frozenset[int]:
        """The concave region of clause j: its vertex plus the gadget vertices
        that can pull it into a hull."""
        return self._clause_regions[self.vertex("c", j)]

    def designated_simplicial(self) -> frozenset[int]:
        """The 3n gadget tips that are simplicial by construction."""
        return frozenset(_roles(self.variable_count, self.clause_count,
                                ("xp1", "xp2", "xbarpp")))

    def elimination_ordering(self) -> tuple[int, ...]:
        """The staged ordering that witnesses chordality.

        Tips first, then their supports, then xp, then x and xbar, and the
        hub clique last; ascending variable index within each stage.
        """
        n, m = self.variable_count, self.clause_count
        stages = (("xp1", "xp2", "xbarpp"), ("x1", "x2", "xbarp"),
                  ("xp",), ("x", "xbar"))
        order = [v for stage in stages for v in _roles(n, m, stage)]
        return tuple(order + _hub(n, m))


def gadget_edges(rg: ReductionGraph, i: int) -> list[tuple[int, int]]:
    """The 26 gadget edges of variable i, normalized (min, max)."""
    if not 1 <= i <= rg.variable_count:
        raise ValueError(f"variable index {i} out of range")
    at = _gadget_vertices(rg.clause_count, i, rg.occurrences[i - 1])
    return sorted(tuple(sorted((at[p], at[q]))) for p, q in GADGET_EDGES)


def build_reduction(cnf: RestrictedCnf) -> ReductionGraph:
    """Build the reduction graph of a valid restricted instance; TooLarge,
    before any edge is generated, past ``graph.MAX_VERTICES`` vertices.

    The hub is handed to ``Graph`` as its stored clique, m + 3n members,
    and only the 26n gadget edges as pairs, in place of the hub's
    quadratic pair count; the distance sweep and the concavity test then
    treat the hub in bulk."""
    violations = validate_restricted(cnf)
    if violations:
        raise InvalidInstance("; ".join(violations))
    n, m = cnf.variable_count, cnf.clause_count
    vertex_count = BLOCK_SIZE * n + m
    if vertex_count > MAX_VERTICES:
        raise TooLarge(f"reduction has {vertex_count} vertices, over the "
                       f"cap of {MAX_VERTICES}")
    gadgets = (_gadget_vertices(m, i, occurrence)
               for i, occurrence in enumerate(occurrence_table(cnf), start=1))
    edges = ((at[p], at[q]) for at in gadgets for p, q in GADGET_EDGES)
    return ReductionGraph(Graph(vertex_count, edges, clique=_hub(n, m)), cnf)


# -- witness translation ------------------------------------------------------

def assignment_to_hull_set(rg: ReductionGraph, assignment: Assignment) -> frozenset[int]:
    """The canonical 4n-vertex candidate hull set of a truth assignment:
    every gadget tip, plus x_i for true variables and xbar_i for false ones."""
    members = set(rg.designated_simplicial())
    for i in range(1, rg.variable_count + 1):
        members.add(rg.vertex("x" if assignment[i - 1] else "xbar", i))
    return frozenset(members)


def induced_assignment(rg: ReductionGraph, vertices: frozenset[int] | set[int]) -> Assignment:
    """Assignment read off a vertex set: variable i is true iff x_i is in it."""
    return tuple(rg.vertex("x", i) in vertices
                 for i in range(1, rg.variable_count + 1))


def hull_set_to_assignment(rg: ReductionGraph,
                           vertices: frozenset[int] | set[int]) -> Assignment:
    """Assignment recovered from a hull set of size at most 4n.

    Raises NotAWitness when the set is too large or is not a hull set.
    """
    if len(vertices) > rg.k:
        raise NotAWitness(f"set of size {len(vertices)} exceeds k = {rg.k}")
    if not is_hull_set(rg.graph, vertices):
        raise NotAWitness("set is not a hull set")
    return induced_assignment(rg, vertices)


# -- reports ------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    @property
    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


class _Report:
    """What the two reports share: ``passed`` is True when every check
    passed, and the text is ``lines()``, one per line."""

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __str__(self) -> str:
        return "\n".join(self.lines())


@dataclass(frozen=True)
class StructureReport(_Report):
    checks: tuple[CheckResult, ...]
    notes: tuple[str, ...]

    def lines(self) -> list[str]:
        out = [c.line for c in self.checks]
        out.extend(f"NOTE {note}" for note in self.notes)
        return out


def _layer_distance(g: Graph, u: int, v: int) -> int:
    """d(u, v): the index of u's distance layer that holds v.  ValueError
    when u or v is not a vertex of g."""
    _check_vertex(g, u)
    _check_vertex(g, v)
    return next(k for k, layer in enumerate(g.distance_layers()[u])
                if layer >> v & 1)


def verify_structure(rg: ReductionGraph) -> StructureReport:
    """Run the nine structural checks the construction promises.

    Every check reads the graph's distance layers or its adjacency; neither
    the distance matrix nor the betweenness table is built.  A check that
    names a vertex the graph lacks reads FAIL, as does one whose metric is
    undefined; no error escapes.
    """
    checks = []

    def record(name: str, fn):
        try:
            passed, detail = fn()
        except (GeohullError, ValueError) as exc:
            passed, detail = False, f"error: {exc}"
        checks.append(CheckResult(name, passed, detail))

    g = rg.graph
    n, m = rg.variable_count, rg.clause_count

    def check_order():
        expected = BLOCK_SIZE * n + m
        return g.vertex_count == expected, \
            f"{g.vertex_count} vertices, expected {BLOCK_SIZE}n+m = {expected}"

    def check_diameter():
        d = diameter(g)
        return d == 3, f"diameter {d}, expected 3"

    def check_hub_eccentricity():
        bad = [v for v in _hub(n, m) if eccentricity(g, v) != 2]
        return not bad, ("all hub vertices have eccentricity 2" if not bad
                         else f"hub vertices with eccentricity != 2: {bad}")

    def check_cross_distances():
        bad = []
        for i in range(1, n + 1):
            for p, q in (("x", "xbarp"), ("xbar", "xp1")):
                d = _layer_distance(g, rg.vertex(p, i), rg.vertex(q, i))
                if d != 3:
                    bad.append((p, q, i))
        return not bad, ("dist(x_i, xbarp_i) = dist(xbar_i, xp1_i) = 3 for all i"
                         if not bad else f"pairs at wrong distance: {bad}")

    def check_elimination_ordering():
        ok = is_perfect_elimination_ordering(g, rg.elimination_ordering())
        return ok, ("staged ordering is a perfect elimination ordering"
                    if ok else "staged ordering is not a perfect elimination ordering")

    def check_simplicial():
        actual = simplicial_vertices(g)
        expected = rg.designated_simplicial()
        return actual == expected, \
            (f"exactly the {3 * n} designated tips are simplicial"
             if actual == expected
             else f"simplicial set {sorted(actual)} != designated {sorted(expected)}")

    def check_triples():
        bad = [i for i in range(1, n + 1)
               if not is_concave(g, rg.variable_triple(i))]
        return not bad, ("{x_i, z_i, xbar_i} is concave for every i" if not bad
                         else f"non-concave triples for variables: {bad}")

    def check_regions():
        bad = [j for j in range(1, m + 1)
               if not is_concave(g, rg.clause_region(j))]
        return not bad, ("every clause region is concave" if not bad
                         else f"non-concave regions for clauses: {bad}")

    def check_dependencies():
        broken = []
        for i, occurrence in enumerate(rg.occurrences, start=1):
            at = _gadget_vertices(m, i, occurrence)
            for (p, q), recovered in GADGET_DEPENDENCIES:
                u, v = at[p], at[q]
                # Checks u and v, and the metric, before a layer is read.
                d = _layer_distance(g, u, v)
                layers = g.distance_layers()
                lu, lv = layers[u], layers[v]
                # I(u, v) = {u, v} | OR over 0 < k < d of L_k(u) & L_{d-k}(v).
                interval = 1 << u | 1 << v
                for k in range(1, d):
                    interval |= lu[k] & lv[d - k]
                for kind in recovered:
                    w = at[kind]
                    _check_vertex(g, w)
                    if not interval >> w & 1:
                        broken.append(f"variable {i}: {kind} is not in the "
                                      f"interval of {{{p}, {q}}}")
        total = n * sum(len(recovered) for _, recovered in GADGET_DEPENDENCIES)
        return not broken, (f"all {total} gadget interval dependencies hold"
                            if not broken else "; ".join(broken))

    record("order", check_order)
    record("diameter", check_diameter)
    record("hub-eccentricity", check_hub_eccentricity)
    record("cross-distances", check_cross_distances)
    record("elimination-ordering", check_elimination_ordering)
    record("simplicial", check_simplicial)
    record("variable-triples", check_triples)
    record("clause-regions", check_regions)
    record("gadget-dependencies", check_dependencies)

    notes = (f"gadget size: each variable contributes {BLOCK_SIZE - 3} "
             f"vertices and {len(GADGET_EDGES)} edges",)
    return StructureReport(tuple(checks), notes)


@dataclass(frozen=True)
class EquivalenceReport(_Report):
    """Outcome of the h <= k decision on one instance.

    With a witness, ``hull_number`` is its size, an upper bound on h; without
    one it is k + 1, a lower bound.  ``lower_bound`` is the solver's proven
    lower bound on h.  ``witness`` is empty when there is none.
    """

    satisfiable: bool
    hull_number: int
    k: int
    witness: frozenset[int]
    checks: tuple[CheckResult, ...]
    lower_bound: int

    def lines(self) -> list[str]:
        if self.hull_number > self.k:
            relation = ">="
        elif self.lower_bound == self.hull_number:
            relation = "="
        else:
            relation = "<="
        out = [f"satisfiable={'true' if self.satisfiable else 'false'}",
               f"h{relation}{self.hull_number}",
               f"k={self.k}"]
        out.extend(c.line for c in self.checks)
        return out


def equivalence_check(cnf: RestrictedCnf,
                      max_variables: int = 12,
                      node_budget: int | None = None) -> EquivalenceReport:
    """Confirm satisfiable <=> hull number <= 4n on one instance.

    Satisfiability comes from exhaustive assignment enumeration, the answer
    to h <= 4n from the solver's decision search; when a small witness
    exists its shape is checked as well (all tips present, one triple member
    per variable, and the read-off assignment satisfies the instance).
    """
    if cnf.variable_count > max_variables:
        raise TooLarge(
            f"{cnf.variable_count} variables exceeds the enumeration cap "
            f"of {max_variables}")
    rg = build_reduction(cnf)
    sat = is_satisfiable(cnf, max_variables)
    k = rg.k
    decision = _decide_with_paper_cores(rg, node_budget)
    witness = decision.witness or frozenset()
    found = decision.witness is not None

    checks = []
    checks.append(CheckResult(
        "equivalence", sat == found,
        f"satisfiable={'true' if sat else 'false'} and h{'<=' if found else '>'}k"))
    if found:
        tips = rg.designated_simplicial()
        checks.append(CheckResult(
            "witness-simplicial", tips <= witness,
            "witness contains every simplicial vertex" if tips <= witness
            else "witness misses a simplicial vertex"))
        picks = witness - tips
        triples = [frozenset(rg.variable_triple(i))
                   for i in range(1, rg.variable_count + 1)]
        one_each = (all(len(t & witness) == 1 for t in triples)
                    and picks <= frozenset().union(*triples))
        checks.append(CheckResult(
            "witness-triples", one_each,
            "witness picks exactly one of {x_i, z_i, xbar_i} per variable"
            if one_each else "witness picks do not hit each triple exactly once"))
        try:
            assignment = hull_set_to_assignment(rg, witness)
            ok = satisfies(cnf, assignment)
        except NotAWitness:
            ok = False
        checks.append(CheckResult(
            "witness-assignment", ok,
            "assignment read off the witness satisfies the instance" if ok
            else "assignment read off the witness does not satisfy the instance"))
    h = len(witness) if found else k + 1
    return EquivalenceReport(sat, h, k, witness, tuple(checks),
                             decision.lower_bound)


def _paper_cores(rg: ReductionGraph) -> list[int]:
    """Masks of the n variable triples and the m clause regions: the
    concave sets every hull set meets, which is where h >= 4n comes from."""
    g = rg.graph
    cores = [vertex_mask(g, rg.variable_triple(i))
             for i in range(1, rg.variable_count + 1)]
    cores.extend(vertex_mask(g, rg.clause_region(j))
                 for j in range(1, rg.clause_count + 1))
    return cores


def _decide_with_paper_cores(rg: ReductionGraph,
                             node_budget: int | None = None) -> HullDecision:
    """``hull_number_at_most(rg.graph, rg.k)``, with the decision search
    seeded by ``_paper_cores`` in place of its root core build.

    The search checks each set with ``is_concave`` before using it and
    grows any core that is missing, so the answer does not rest on the
    construction being right.
    """
    return _Search(rg.graph, node_budget).decide(rg.k, _paper_cores(rg))


# -- labels sidecar -----------------------------------------------------------

def format_labels(rg: ReductionGraph) -> str:
    """One "<index> <role>" line per vertex, ascending."""
    return "\n".join(f"{v} {rg.role_token(v)}"
                     for v in range(rg.graph.vertex_count)) + "\n"
