"""Restricted CNF instances: validation, DIMACS I/O, generation, brute force.

Literals are signed 1-based integers (DIMACS style): ``+v`` is the positive
literal of variable v, ``-v`` its negation.  A clause is a frozenset of
literals.  An assignment is a bool sequence indexed by ``variable - 1``.

An instance is *restricted* when every clause has one to three literals and
every variable occurs positively in exactly two clauses and negatively in
exactly one, those three clauses being pairwise distinct.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Sequence

from .errors import InvalidInstance, ParseError, TooLarge
from .graph import MAX_VERTICES

Assignment = tuple[bool, ...]

# Enumeration visits 2^n assignments, so satisfying_assignments and
# reduction.equivalence_check raise TooLarge on more variables than this.
MAX_ENUMERATED_VARIABLES = 12


@dataclass(frozen=True)
class RestrictedCnf:
    variable_count: int
    clauses: tuple[frozenset[int], ...]

    @property
    def clause_count(self) -> int:
        return len(self.clauses)


def make_cnf(variable_count: int, clauses: Iterable[Iterable[int]]) -> RestrictedCnf:
    """Convenience constructor from plain literal collections."""
    return RestrictedCnf(variable_count, tuple(frozenset(c) for c in clauses))


def validate_restricted(cnf: RestrictedCnf) -> list[str]:
    """Every violated restriction, as human-readable strings; empty = valid."""
    violations = []
    if cnf.variable_count < 1:
        violations.append(f"variable count {cnf.variable_count} < 1")
    for j, clause in enumerate(cnf.clauses, start=1):
        if not clause:
            violations.append(f"clause {j}: empty")
        if len(clause) > 3:
            violations.append(f"clause {j}: size {len(clause)} > 3")
        for lit in clause:
            var = abs(lit)
            if lit == 0 or var > cnf.variable_count:
                violations.append(f"clause {j}: literal {lit} out of range")
    if cnf.variable_count > cnf.clause_count:
        # 3n occurrences cannot fit in at most 3m literal slots.  Stop before
        # the per-variable pass, whose size a header alone would set.
        violations.append(
            f"variable count {cnf.variable_count} > clause count "
            f"{cnf.clause_count}: 3n occurrences need n <= m")
        return violations
    positives, negatives = _occurrences(cnf)
    for var, (pos, neg) in enumerate(zip(positives, negatives), start=1):
        if len(pos) != 2:
            violations.append(
                f"variable {var}: {len(pos)} positive occurrence(s), expected 2")
        if len(neg) != 1:
            violations.append(
                f"variable {var}: {len(neg)} negative occurrence(s), expected 1")
        shared = set(pos) & set(neg)
        if shared:
            violations.append(
                f"variable {var}: positive and negative occurrences share "
                f"clause {min(shared) + 1}")
    return violations


def _occurrences(cnf: RestrictedCnf) -> tuple[list[list[int]], list[list[int]]]:
    """Per variable v (entry v - 1), the ascending 0-based indices of the
    clauses holding +v and of those holding -v, from one pass over the
    literals; out-of-range literals are skipped."""
    n = cnf.variable_count
    positives: list[list[int]] = [[] for _ in range(n)]
    negatives: list[list[int]] = [[] for _ in range(n)]
    for j, clause in enumerate(cnf.clauses):
        for lit in clause:
            if 0 < lit <= n:
                positives[lit - 1].append(j)
            elif 0 < -lit <= n:
                negatives[-lit - 1].append(j)
    return positives, negatives


def occurrence_table(cnf: RestrictedCnf) -> list[tuple[int, int, int]]:
    """Per variable, the 0-based clause indices (pos1, pos2, neg), pos1 < pos2.

    Raises InvalidInstance when a variable does not occur exactly twice
    positively and once negatively; validate_restricted lists every
    violation, this names the first such variable only.
    """
    positives, negatives = _occurrences(cnf)
    table = []
    for var, (pos, neg) in enumerate(zip(positives, negatives), start=1):
        if len(pos) != 2 or len(neg) != 1:
            raise InvalidInstance(
                f"variable {var}: {len(pos)} positive and {len(neg)} "
                f"negative occurrence(s), expected 2 and 1")
        table.append((pos[0], pos[1], neg[0]))
    return table


# -- evaluation -------------------------------------------------------------

def satisfies(cnf: RestrictedCnf, assignment: Sequence[bool]) -> bool:
    """True iff every clause has a true literal under the assignment.

    Raises InvalidInstance on a negative variable count or a literal that
    names no variable of the instance, and ValueError when the assignment's
    length is not the variable count."""
    _check_literals(cnf)
    if len(assignment) != cnf.variable_count:
        raise ValueError(f"assignment of length {len(assignment)} for "
                         f"{cnf.variable_count} variables")
    return _satisfies(cnf.clauses, assignment)


def _check_literals(cnf: RestrictedCnf) -> None:
    if cnf.variable_count < 0:
        raise InvalidInstance(f"variable count {cnf.variable_count} < 0")
    for j, clause in enumerate(cnf.clauses, start=1):
        for lit in clause:
            if not 0 < abs(lit) <= cnf.variable_count:
                raise InvalidInstance(f"clause {j}: literal {lit} out of range")


def _satisfies(clauses: Sequence[frozenset[int]],
               assignment: Sequence[bool]) -> bool:
    for clause in clauses:
        for lit in clause:
            value = assignment[abs(lit) - 1]
            if (lit > 0) == value:
                break
        else:
            return False
    return True


def satisfying_assignments(cnf: RestrictedCnf) -> Iterator[Assignment]:
    """All satisfying assignments, by exhaustive enumeration (False first).

    Raises InvalidInstance, before any assignment, on a negative variable
    count or a literal that names no variable of the instance."""
    if cnf.variable_count > MAX_ENUMERATED_VARIABLES:
        raise TooLarge(
            f"{cnf.variable_count} variables exceeds the enumeration cap "
            f"of {MAX_ENUMERATED_VARIABLES}")
    _check_literals(cnf)
    for bits in product((False, True), repeat=cnf.variable_count):
        if _satisfies(cnf.clauses, bits):
            yield bits


def is_satisfiable(cnf: RestrictedCnf) -> bool:
    return next(iter(satisfying_assignments(cnf)), None) is not None


# -- DIMACS text format -------------------------------------------------------

def parse_dimacs(text: str) -> RestrictedCnf:
    """Parse DIMACS cnf text ("p cnf <n> <m>" header, 0-terminated clauses)."""
    variable_count = None
    clause_count = None
    clauses: list[frozenset[int]] = []
    current: set[int] = set()
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if variable_count is not None:
                raise ParseError(f"duplicate problem line: {line!r}")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError(f"bad problem line: {line!r}")
            try:
                variable_count, clause_count = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise ParseError(f"bad problem line: {line!r}") from exc
            if variable_count < 0 or clause_count < 0:
                raise ParseError(f"negative count in problem line: {line!r}")
            continue
        if variable_count is None:
            raise ParseError("clause data before the 'p cnf' line")
        for token in line.split():
            try:
                lit = int(token)
            except ValueError as exc:
                raise ParseError(f"bad literal {token!r}") from exc
            if lit == 0:
                clauses.append(frozenset(current))
                current = set()
            else:
                if abs(lit) > variable_count:
                    raise ParseError(
                        f"literal {lit} out of range for {variable_count} variables")
                current.add(lit)
    if variable_count is None:
        raise ParseError("missing 'p cnf' line")
    if current:
        raise ParseError("last clause is not 0-terminated")
    if clause_count != len(clauses):
        raise ParseError(
            f"header promises {clause_count} clauses, found {len(clauses)}")
    return RestrictedCnf(variable_count, tuple(clauses))


def format_dimacs(cnf: RestrictedCnf) -> str:
    lines = [f"p cnf {cnf.variable_count} {cnf.clause_count}"]
    for clause in cnf.clauses:
        lits = sorted(clause, key=lambda lit: (abs(lit), lit < 0))
        lines.append(" ".join(str(lit) for lit in lits) + " 0")
    return "\n".join(lines) + "\n"


# -- seeded generation --------------------------------------------------------

def random_restricted_cnf(n: int, seed: int) -> RestrictedCnf:
    """A valid restricted instance, deterministic in (n, seed).

    Draws a clause count m in [max(3, n), 3n], then gives each variable its
    two positive and one negative occurrence by always filling the three
    least-loaded clauses (ties shuffled by the seed).  Least-loaded filling
    keeps clause sizes within one of each other, so no clause exceeds three
    literals, none stays empty, and placement never deadlocks.

    The instance depends on (n, seed) only through ``random.Random(seed)``'s
    MT19937 words, drawn exactly as ``Random.randint``, ``Random.shuffle``
    and ``Random.choice`` draw them.  The shuffle is inlined as the same
    Fisher-Yates on ``getrandbits``, and the three chosen clauses come from
    the set of least-loaded ones; both give the instance that calling
    ``shuffle`` and sorting all m clauses by (load, tiebreak) would.  Each
    variable still makes its m - 1 shuffle draws, so generation is
    O(n * m).

    Raises TooLarge when the reduction's 12n + m vertices exceed
    ``graph.MAX_VERTICES``: before seeding when even 13n, the fewest it can
    have, does, and otherwise as soon as m is drawn.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if 13 * n > MAX_VERTICES:
        raise TooLarge(f"n = {n} gives a reduction of at least {13 * n} "
                       f"vertices, over the cap of {MAX_VERTICES}")
    rng = random.Random(seed)
    m = rng.randint(max(3, n), 3 * n)
    if 12 * n + m > MAX_VERTICES:
        raise TooLarge(f"n = {n} with m = {m} clauses gives a reduction of "
                       f"{12 * n + m} vertices, over the cap of {MAX_VERTICES}")
    getrandbits = rng.getrandbits
    # Random.shuffle's swaps: position i with j drawn below i + 1 from
    # (i + 1).bit_length() bits, redrawn while out of range.
    swaps = [(i, (i + 1).bit_length()) for i in range(m - 1, 0, -1)]
    clauses: list[set[int]] = [set() for _ in range(m)]
    # The clauses of least load; every other clause has one more.
    least = set(range(m))
    for var in range(1, n + 1):
        tiebreak = list(range(m))
        for i, width in swaps:
            j = getrandbits(width)
            while j > i:
                j = getrandbits(width)
            tiebreak[i], tiebreak[j] = tiebreak[j], tiebreak[i]
        chosen = sorted(least, key=tiebreak.__getitem__)[:3]
        if len(chosen) < 3:
            # All of least is chosen and rises to the others' load; the
            # rest of the three come from the others.
            least = set(range(m)).difference(chosen)
            topped = sorted(least, key=tiebreak.__getitem__)[:3 - len(chosen)]
            least.difference_update(topped)
            least.update(chosen)
            chosen += topped
        else:
            least.difference_update(chosen)
            if not least:
                least = set(range(m))
        negative = rng.choice(chosen)
        for j in chosen:
            clauses[j].add(-var if j == negative else var)
    return RestrictedCnf(n, tuple(frozenset(c) for c in clauses))
