"""Exact hull-number computation, plus a naive subset-search oracle.

The exact search starts from the set M of simplicial vertices: a simplicial
vertex lies on no shortest path between two other vertices, so it can never
be generated and belongs to every hull set.  On top of M it runs iterative
deepening on the number r of extra picks.  Within a round, partial sets T
are extended only by candidates w with an index above the last pick and
with w outside hull(T).  That membership prune is complete for minimum-size
search: if w is in hull(T) for some T contained in S minus {w}, then
hull(S minus {w}) already contains w and therefore equals hull(S), so S was
not minimum and skipping it loses nothing.

A second complete prune uses the monotonicity of hulls: a branch is dead as
soon as hull(T together with every still-allowed candidate) misses a vertex,
because no subset of those candidates can reach more.  Suffixes of the
candidate list are nested, so each node finds the last viable start in one
right-to-left sweep: it grows hull(T) by one candidate at a time, skipping
candidates already inside, and stops at the first closure that is full.  A
child's own suffix feasibility is already implied by the parent's check.

A third complete prune rests on concave sets: S is a hull set exactly when
it meets every nonempty concave set, since the complement of a concave set
C is convex and so holds hull(S) whenever S misses C.  When rounds 1 and 2
have failed, the search builds a list of concave cores once.  For each
candidate v outside every earlier core it grows a convex set x from hull(M)
by each candidate whose hull with x still misses v; the core is the
complement of x, a concave set that contains v and misses M.  Most searches
end within two rounds, where building the cores would cost more than it
saves.  The cores give a lower bound on the picks still needed: every core
that misses hull(T) must be met by a pick, and the picks come from the
allowed candidates, so each such core is cut to them.  An empty cut core
kills the branch, and r picks cannot meet r + 1 pairwise disjoint cut cores,
so a node whose greedy disjoint packing exceeds its remaining picks is dead.
The same bound at the root lets iterative deepening skip straight to a
proven round, and raises the lower bound reported on an exhausted budget.

Every prune removes only branches that hold no solution, so the first
solution found in this ascending-index depth-first order is the
lexicographically smallest minimum witness, and the search is sequential,
so results are deterministic.

The decision search behind ``hull_number_at_most(g, k)`` answers whether
some hull set has at most k vertices, without finding the minimum.  It
builds the cores at once from hull(M) and rejects when the root packing
already exceeds k - |M|.  Otherwise one depth-first search with at most
k - |M| picks branches on concave cores, the implicit-hitting-set scheme of
Moreno-Centeno & Karp: at each node it takes the first stored core that
hull(T) misses, cut to the allowed candidates, and tries each of its
members in ascending order, forbidding a member for the later siblings
once its own branch has failed.  Every completion of T must meet that cut
core, and the completions that hold an earlier member were all tried in
that member's branch, so the branching is complete.  When hull(T) meets
every stored core, a new one is grown lazily: hull(T) is extended greedily
by each allowed candidate that leaves it short of the full set, and the
complement of that convex set is a concave set missing hull(T), stored for
the rest of the search.  An empty cut core, or a packing larger than the
picks left, proves that no completion exists.  Picks inside hull(T) are
never allowed: dropping one keeps a hull set and only lowers its size.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from itertools import combinations

from .chordal import simplicial_vertices
from .convexity import extend_hull_mask, hull_mask
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


class _Search:
    def __init__(self, g: Graph, node_budget: int | None):
        self.g = g
        self.full = g.full_mask
        self.btw = g.between_table()
        self.budget = node_budget
        self.evaluations = 0
        self.lower_bound = 0
        self.cores: list[int] = []

    def close(self, base: int, base_members: list[int],
              add: int) -> tuple[int, list[int]]:
        """``extend_hull_mask`` counted as one evaluation against the budget."""
        self.evaluations += 1
        if self.budget is not None and self.evaluations > self.budget:
            raise BudgetExceeded(
                f"budget of {self.budget} hull evaluations exhausted; "
                f"hull number is at least {self.lower_bound}",
                lower_bound=self.lower_bound,
                evaluations=self.evaluations,
            )
        return extend_hull_mask(self.btw, self.full, base, base_members, add)

    def run(self) -> HullNumberResult:
        mandatory = vertex_mask(self.g, simplicial_vertices(self.g))
        base_size = mandatory.bit_count()
        self.lower_bound = max(base_size, 1)
        start, start_members = self.close(0, [], mandatory)
        if start == self.full:
            return HullNumberResult(base_size, frozenset(mask_members(mandatory)))
        candidates = mask_members(self.full & ~start)
        extra = 1
        while extra <= len(candidates):
            self.lower_bound = base_size + extra
            if extra == 3:
                self.cores = self.concave_cores(start, start_members, candidates)
                extra = max(extra, self.packing(start, self.full & ~start))
                self.lower_bound = base_size + extra
            picks = self.descend(start, start_members, candidates, extra)
            if picks is not None:
                witness = frozenset(mask_members(mandatory) + list(picks))
                return HullNumberResult(base_size + extra, witness)
            extra += 1
        raise AssertionError("adding every non-hull vertex must succeed")

    def decide(self, k: int) -> HullDecision:
        """Some hull set of at most k vertices, found by core branching."""
        mandatory = vertex_mask(self.g, simplicial_vertices(self.g))
        base_size = mandatory.bit_count()
        self.lower_bound = max(base_size, 1)
        start, start_members = self.close(0, [], mandatory)
        if start == self.full:
            picks = () if base_size <= k else None
        else:
            allowed = self.full & ~start
            self.cores = self.concave_cores(start, start_members,
                                            mask_members(allowed))
            self.lower_bound = base_size + self.packing(start, allowed)
            picks = None
            if self.lower_bound <= k:
                picks = self.hit(start, start_members, allowed, k - base_size)
        if picks is None:
            return HullDecision(None, max(self.lower_bound, k + 1))
        witness = frozenset(mask_members(mandatory) + list(picks))
        return HullDecision(witness, self.lower_bound)

    def concave_cores(self, start: int, start_members: list[int],
                      candidates: list[int]) -> list[int]:
        """Concave sets that miss ``start``, sorted by (size, mask).

        ``start`` is hull(M).  For each candidate v outside every earlier
        core, x grows from ``start`` by each other candidate whose hull with
        x still misses v.  Then x is convex, so its complement, the core,
        is concave and contains v.
        """
        full = self.full
        cores = []
        covered = 0
        for v in candidates:
            if covered >> v & 1:
                continue
            x, members = start, start_members
            for c in candidates:
                if c != v and not x >> c & 1:
                    grown, grown_members = self.close(x, members, 1 << c)
                    if not grown >> v & 1:
                        x, members = grown, grown_members
            core = full & ~x
            cores.append(core)
            covered |= core
        return sorted(cores, key=lambda core: (core.bit_count(), core))

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

    def descend(self, hull: int, members: list[int],
                allowed: list[int], remaining: int):
        """First extension of ``hull`` by ``remaining`` picks from ``allowed``.

        ``allowed`` is ascending and disjoint from ``hull``; the caller has
        already established that the whole of it closes to the full set.
        """
        full = self.full
        if self.cores:
            need = self.packing(hull, sum(1 << v for v in allowed))
            if need is None or need > remaining:
                return None
        # Largest start index whose suffix still closes to the full set;
        # children beyond it cannot be part of any solution.  The sweep
        # stops at the first full closure, so it never grows a closure whose
        # member list ``extend_hull_mask`` may have truncated.
        last_viable = len(allowed)
        grown, grown_members = hull, members
        while grown != full:
            last_viable -= 1
            bit = 1 << allowed[last_viable]
            if not grown & bit:
                grown, grown_members = self.close(grown, grown_members, bit)
        for i in range(last_viable + 1):
            w = allowed[i]
            grown, grown_members = self.close(hull, members, 1 << w)
            if remaining == 1:
                if grown == full:
                    return (w,)
            else:
                child_allowed = [v for v in allowed[i + 1:]
                                 if not grown >> v & 1]
                if child_allowed:
                    rest = self.descend(grown, grown_members,
                                        child_allowed, remaining - 1)
                    if rest is not None:
                        return (w,) + rest
        return None

    def hit(self, hull: int, members: list[int], allowed: int,
            remaining: int):
        """Some at most ``remaining`` picks from ``allowed`` that complete
        ``hull``, or None; ``allowed`` is disjoint from ``hull``."""
        need = self.packing(hull, allowed)
        if need is None or need > remaining:
            return None
        core = next((core for core in self.cores if not core & hull), None)
        if core is None:
            core = self.grow_core(hull, members, allowed)
        for w in mask_members(core & allowed):
            grown, grown_members = self.close(hull, members, 1 << w)
            if grown == self.full:
                return (w,)
            if remaining > 1:
                rest = self.hit(grown, grown_members, allowed & ~grown,
                                remaining - 1)
                if rest is not None:
                    return (w,) + rest
            allowed &= ~(1 << w)
        return None

    def grow_core(self, hull: int, members: list[int], allowed: int) -> int:
        """A concave set that misses ``hull``, stored among the cores.

        x grows from ``hull`` by each allowed candidate that leaves it short
        of the full set; x is convex, so its complement is concave.
        """
        x = hull
        for c in mask_members(allowed):
            if not x >> c & 1:
                grown, grown_members = self.close(x, members, 1 << c)
                if grown != self.full:
                    x, members = grown, grown_members
        core = self.full & ~x
        insort(self.cores, core, key=lambda core: (core.bit_count(), core))
        return core


def hull_number_exact(g: Graph, node_budget: int | None = None) -> HullNumberResult:
    """Minimum hull-set size and its lexicographically first witness.

    ``node_budget`` caps the number of hull evaluations; exceeding it
    raises BudgetExceeded carrying the best proven lower bound.
    """
    if not g.is_connected:
        raise Disconnected("hull number is defined for connected graphs only")
    return _Search(g, node_budget).run()


def hull_number_at_most(g: Graph, k: int,
                        node_budget: int | None = None) -> HullDecision:
    """Whether some hull set has at most k vertices, with one if so.

    The witness is not necessarily minimum.  ``node_budget`` caps the number
    of hull evaluations as in ``hull_number_exact``.
    """
    if not g.is_connected:
        raise Disconnected("hull number is defined for connected graphs only")
    return _Search(g, node_budget).decide(k)


def hull_number_bruteforce(g: Graph, max_vertices: int = 14) -> HullNumberResult:
    """Subset enumeration in (size, lexicographic) order; the test oracle."""
    if not g.is_connected:
        raise Disconnected("hull number is defined for connected graphs only")
    n = g.vertex_count
    if n > max_vertices:
        raise TooLarge(f"{n} vertices exceeds the brute-force cap of {max_vertices}")
    full = g.full_mask
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            mask = 0
            for v in subset:
                mask |= 1 << v
            if hull_mask(g, mask) == full:
                return HullNumberResult(size, frozenset(subset))
    raise AssertionError("the full vertex set is always a hull set")
