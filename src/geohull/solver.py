"""Exact hull-number computation, plus a naive subset-search oracle.

Both searches start from the set M of simplicial vertices: a simplicial
vertex lies on no shortest path between two other vertices, so it can never
be generated and belongs to every hull set.  A pick is never taken from
inside the hull of M and the picks before it.  That membership prune is
complete for minimum-size search: if w is in hull(T) for some T contained
in S minus {w}, then hull(S minus {w}) already contains w and therefore
equals hull(S), so S was not minimum and skipping it loses nothing.

S is a hull set exactly when it meets every nonempty concave set, since the
complement of a concave set C is convex and so holds hull(S) whenever S
misses C.  The concave cores are built from hull(M): for each candidate v
outside every earlier core, a convex set x grows from hull(M) by each
candidate whose hull with x still misses v, and the core is the complement
of x.  Every core that misses hull(T) must be met by a pick from the
allowed candidates, so each is cut to them.  An empty cut core kills the
branch, and r picks cannot meet r + 1 pairwise disjoint cut cores, so a
node whose greedy disjoint packing exceeds its remaining picks is dead.
``_Search.hit`` is the one place that settles a node: a full hull is done
with no further pick, a node with no pick left or with a packing above
its picks fails, and any other node branches.  Hulls, cores and candidate
sets pass between the search's steps as bitmasks alone, with no member
lists: ``extend_hull_mask`` grows a closed hull from the distance layers,
walking each vertex that joins once, so the search builds no O(V^3)
betweenness table and a pick added to a nearly full hull costs little.

The decision search behind ``hull_number_at_most(g, k)`` builds the cores
at once and rejects when the root packing exceeds k - |M|.  Otherwise it
branches on concave cores, the implicit-hitting-set scheme of
Moreno-Centeno & Karp: at each node it takes the first stored core that
hull(T) misses, cut to the allowed candidates, and tries each of its
members in ascending order, forbidding a member for the later siblings
once its own branch has failed.  Every completion of T meets that cut
core, and those that hold an earlier member were tried in that member's
branch, so the branching is complete.  When hull(T) meets every stored
core, a node with picks to spare grows a new one lazily: hull(T) is
extended greedily by each allowed candidate that leaves it short of the
full set, and the complement of that convex set is stored for the rest of
the search.  At the last pick the node tries every allowed candidate
instead, closing each once, where a grown core would close them twice.

On a reduction graph the equivalence harness seeds the decision search
with the paper's n variable triples and m clause regions, the sets the
root build returns on every reduction tried, and the build is skipped.
Each seeded set is checked with ``is_concave`` before it is stored.
Packing and branching are sound for any nonempty concave set, whatever its
origin, so a set that fails the check is dropped and cannot make the
answer wrong.  The branching never needed the cores to be complete either:
once hull(T) meets every stored core, a grown core or the last-pick scan
takes over.

The exact search runs iterative deepening on the number r of picks beyond
M.  Each round asks ``hit`` for r picks that complete hull(M).  The first
round that succeeds is minimum, since every earlier round failed and the
rounds skipped by the packing bound below cannot succeed; its witness is
not necessarily the lexicographically first.  The core build waits until
rounds 1 and 2 have failed: building the cores up front costs about 40%
more time and 70% more hull evaluations on random graphs of up to 14
vertices, where most searches end within two rounds.  Round 2 grows one
core lazily, at its root, and the round-3 build replaces it.  Its root
packing lets the rounds skip to a proven size, and raises the lower bound
reported on an exhausted budget.  The search is sequential, so results are
deterministic.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from itertools import combinations

from .chordal import simplicial_vertices
from .convexity import extend_hull_mask, hull_mask, is_concave
from .errors import BudgetExceeded, Disconnected, TooLarge
from .graph import Graph, mask_members, vertex_mask


@dataclass(frozen=True)
class HullNumberResult:
    hull_number: int
    witness: frozenset[int]


@dataclass(frozen=True)
class HullDecision:
    """Answer to "is the hull number at most k?".

    ``witness`` is a hull set of at most k vertices, or None when there is
    none; every hull set has at least ``lower_bound`` vertices.
    """

    witness: frozenset[int] | None
    lower_bound: int


def _core_order(core: int) -> tuple[int, int]:
    """Cores are stored by (size, mask), so the smallest is branched on first."""
    return core.bit_count(), core


class _Search:
    def __init__(self, g: Graph, node_budget: int | None):
        if not g.is_connected:
            raise Disconnected("hull number is defined for connected graphs only")
        self.g = g
        self.full = g.full_mask
        self.budget = node_budget
        self.evaluations = 0
        self.lower_bound = 0
        self.cores: list[int] = []

    def close(self, base: int, add: int) -> int:
        """``extend_hull_mask`` counted as one evaluation against the budget."""
        self.evaluations += 1
        if self.budget is not None and self.evaluations > self.budget:
            raise BudgetExceeded(
                f"budget of {self.budget} hull evaluations exhausted; "
                f"hull number is at least {self.lower_bound}",
                lower_bound=self.lower_bound,
                evaluations=self.evaluations,
            )
        return extend_hull_mask(self.g, base, add)

    def root(self) -> tuple[frozenset[int], int, int]:
        """M, hull(M) and the candidates outside it; the lower bound becomes
        max(|M|, 1)."""
        mandatory = simplicial_vertices(self.g)
        self.lower_bound = max(len(mandatory), 1)
        start = self.close(0, vertex_mask(self.g, mandatory))
        return mandatory, start, self.full & ~start

    def run(self) -> HullNumberResult:
        mandatory, start, allowed = self.root()
        extra = 0
        picks = self.hit(start, allowed, 0)
        while picks is None:
            extra += 1
            self.lower_bound = len(mandatory) + extra
            if extra == 3:
                self.cores = self.concave_cores(start, allowed)
                extra = max(extra, self.packing(start, allowed))
                self.lower_bound = len(mandatory) + extra
            picks = self.hit(start, allowed, extra)
        return HullNumberResult(len(mandatory) + extra, mandatory.union(picks))

    def decide(self, k: int, cores: list[int] | None = None) -> HullDecision:
        """Some hull set of at most k vertices, found by core branching.

        ``cores``, when given, are bitmasks of sets expected to be
        concave, used in place of the root core build.  Each is checked
        with ``is_concave`` first, and an empty or failing one is dropped.
        """
        mandatory, start, allowed = self.root()
        if cores is None:
            self.cores = self.concave_cores(start, allowed)
        else:
            self.cores = sorted(
                (core for core in cores
                 if core and is_concave(self.g, mask_members(core))),
                key=_core_order)
        self.lower_bound = len(mandatory) + self.packing(start, allowed)
        picks = None
        if self.lower_bound <= k:
            picks = self.hit(start, allowed, k - len(mandatory))
        if picks is None:
            return HullDecision(None, max(self.lower_bound, k + 1))
        return HullDecision(mandatory.union(picks), self.lower_bound)

    def concave_cores(self, start: int, allowed: int) -> list[int]:
        """Concave sets that miss ``start``, sorted by (size, mask).

        ``start`` is hull(M).  Each candidate v in ``allowed`` outside every
        earlier core gets the core ``grow_core`` builds to keep v out of
        the convex set, so the core contains v.
        """
        cores = []
        covered = 0
        for v in mask_members(allowed):
            if not covered >> v & 1:
                core = self.grow_core(start, allowed & ~(1 << v), 1 << v)
                cores.append(core)
                covered |= core
        return sorted(cores, key=_core_order)

    def packing(self, hull: int, allowed: int) -> int | None:
        """Lower bound on the picks from ``allowed`` that complete ``hull``.

        Every core that misses ``hull`` must be met by a pick, and a pick
        meets a core only inside ``allowed``.  Counts greedily chosen cut
        cores that are pairwise disjoint; None when some cut core is empty.
        """
        used = 0
        count = 0
        for core in self.cores:
            if core & hull:
                continue
            cut = core & allowed
            if not cut:
                return None
            if not cut & used:
                used |= cut
                count += 1
        return count

    def hit(self, hull: int, allowed: int, remaining: int):
        """Some at most ``remaining`` picks from ``allowed`` that complete
        ``hull``, or None; ``allowed`` is disjoint from ``hull``.

        This is the one place a node is settled: a full hull needs no pick;
        no pick left, an empty cut core or a packing above ``remaining``
        fails; otherwise each member of the first core that the hull misses,
        cut to ``allowed``, is a child.  With no such core one is grown, but
        at the last pick each member of ``allowed`` is a child.
        """
        if hull == self.full:
            return ()
        if remaining <= 0:
            return None
        need = self.packing(hull, allowed)
        if need is None or need > remaining:
            return None
        core = next((core for core in self.cores if not core & hull), None)
        if core is None and remaining > 1:
            core = self.grow_core(hull, allowed, self.full)
            insort(self.cores, core, key=_core_order)
        for w in mask_members(allowed if core is None else core & allowed):
            grown = self.close(hull, 1 << w)
            rest = self.hit(grown, allowed & ~grown, remaining - 1)
            if rest is not None:
                return (w,) + rest
            allowed &= ~(1 << w)
        return None

    def grow_core(self, hull: int, allowed: int, keep: int) -> int:
        """A concave set that misses ``hull`` and meets ``keep``.

        x grows from ``hull`` by each allowed candidate, ascending, whose
        hull with x does not hold all of ``keep``; x is convex, so its
        complement is concave.
        """
        x = hull
        for c in mask_members(allowed):
            if not x >> c & 1:
                grown = self.close(x, 1 << c)
                if grown & keep != keep:
                    x = grown
        return self.full & ~x


def hull_number_exact(g: Graph, node_budget: int | None = None) -> HullNumberResult:
    """Minimum hull-set size and a minimum hull set, not necessarily the
    lexicographically first.

    Rounds of increasing size each run the core-branching search of
    ``hull_number_at_most``, and the first that succeeds gives the witness.
    ``node_budget`` caps the number of hull evaluations; exceeding it
    raises BudgetExceeded carrying the best proven lower bound.
    """
    return _Search(g, node_budget).run()


def hull_number_at_most(g: Graph, k: int,
                        node_budget: int | None = None) -> HullDecision:
    """Whether some hull set has at most k vertices, with one if so.

    The witness is not necessarily minimum.  ``node_budget`` caps the number
    of hull evaluations as in ``hull_number_exact``.
    """
    return _Search(g, node_budget).decide(k)


def hull_number_bruteforce(g: Graph, max_vertices: int = 14) -> HullNumberResult:
    """Subset enumeration in (size, lexicographic) order; the test oracle."""
    if not g.is_connected:
        raise Disconnected("hull number is defined for connected graphs only")
    n = g.vertex_count
    if n > max_vertices:
        raise TooLarge(f"{n} vertices exceeds the brute-force cap of {max_vertices}")
    full = g.full_mask
    for size in range(1, n):
        for subset in combinations(range(n), size):
            mask = 0
            for v in subset:
                mask |= 1 << v
            if hull_mask(g, mask) == full:
                return HullNumberResult(size, frozenset(subset))
    return HullNumberResult(n, frozenset(range(n)))
