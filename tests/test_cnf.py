import pytest

from geohull import (ParseError, TooLarge, format_dimacs, is_satisfiable,
                     make_cnf, occurrence_table, parse_dimacs,
                     random_restricted_cnf, satisfies,
                     satisfying_assignments, validate_restricted)

SAMPLE_DIMACS = """\
c two positive clauses, one negative
p cnf 3 3
1 2 3 0
1 2 3 0
-1 -2 -3 0
"""


def test_sample_is_valid(sample_cnf):
    assert validate_restricted(sample_cnf) == []


def test_tiny_is_valid(tiny_cnf):
    assert validate_restricted(tiny_cnf) == []


def test_missing_positive_occurrence():
    cnf = make_cnf(1, [[1], [-1]])
    assert "variable 1: 1 positive occurrence(s), expected 2" in validate_restricted(cnf)


def test_too_many_negative_occurrences():
    cnf = make_cnf(1, [[1], [1], [-1], [-1]])
    assert "variable 1: 2 negative occurrence(s), expected 1" in validate_restricted(cnf)


def test_oversized_clause():
    cnf = make_cnf(4, [[1, 2, 3, 4], [1, 2], [3, 4],
                       [1, 2], [3, 4], [-1, -2, -3], [-4]])
    assert any(v.startswith("clause 1: size 4 > 3")
               for v in validate_restricted(cnf))


def test_empty_clause_rejected():
    cnf = make_cnf(1, [[1], [1], [-1], []])
    assert "clause 4: empty" in validate_restricted(cnf)


def test_shared_positive_negative_clause():
    cnf = make_cnf(1, [[1, -1], [1], [-1]])
    violations = validate_restricted(cnf)
    assert any("share clause" in v for v in violations)


def test_literal_out_of_range():
    cnf = make_cnf(1, [[1], [1, 2], [-1]])
    assert any("out of range" in v for v in validate_restricted(cnf))
    assert validate_restricted(make_cnf(0, [])) == ["variable count 0 < 1"]


def test_occurrence_table(sample_cnf):
    assert occurrence_table(sample_cnf) == [(0, 1, 2)] * 3


# -- evaluation ---------------------------------------------------------------

def test_satisfies(sample_cnf):
    assert satisfies(sample_cnf, (True, False, False))
    assert not satisfies(sample_cnf, (True, True, True))
    assert not satisfies(sample_cnf, (False, False, False))


def test_sample_has_six_models(sample_cnf):
    models = list(satisfying_assignments(sample_cnf))
    assert len(models) == 6
    assert (False, False, False) not in models
    assert (True, True, True) not in models


def test_tiny_is_unsatisfiable(tiny_cnf):
    assert not is_satisfiable(tiny_cnf)


def test_enumeration_cap():
    with pytest.raises(TooLarge):
        list(satisfying_assignments(random_restricted_cnf(13, 0)))


# -- DIMACS -------------------------------------------------------------------

def test_parse_dimacs(sample_cnf):
    assert parse_dimacs(SAMPLE_DIMACS) == sample_cnf


def test_parse_multiline_clause():
    cnf = parse_dimacs("p cnf 3 1\n1 2\n3 0\n")
    assert cnf.clauses == (frozenset({1, 2, 3}),)


def test_format_round_trip(sample_cnf, tiny_cnf):
    for cnf in (sample_cnf, tiny_cnf):
        assert parse_dimacs(format_dimacs(cnf)) == cnf


def test_format_dimacs_sorted(sample_cnf):
    assert format_dimacs(sample_cnf) == \
        "p cnf 3 3\n1 2 3 0\n1 2 3 0\n-1 -2 -3 0\n"


@pytest.mark.parametrize("text", [
    "1 2 0\n",
    "p cnf x 1\n1 0\n",
    "p cnf 2 1\n1 2\n",
    "p cnf 2 2\n1 0\n",
    "p cnf 1 1\n2 0\n",
    "p cnf 1 1\n1 y 0\n",
    "p cnf -1 0\n",
    "p cnf 1 -1\n",
    "p cnf 1 2\n1 0\np cnf 1 1\n",
    "p cnf 3 1\n3 0\np cnf 1 1\n",
    "p cnf 3\n",
    "p dnf 1 1\n1 0\n",
    "c comment only\n",
])
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_dimacs(text)


# -- generator ----------------------------------------------------------------

def test_generator_deterministic():
    assert random_restricted_cnf(5, 1) == random_restricted_cnf(5, 1)
    assert random_restricted_cnf(5, 1) != random_restricted_cnf(5, 2)


def test_generator_always_valid():
    for n in range(1, 8):
        for seed in range(12):
            cnf = random_restricted_cnf(n, seed)
            assert cnf.variable_count == n
            assert validate_restricted(cnf) == [], (n, seed)


def test_generator_rejects_bad_n():
    with pytest.raises(ValueError):
        random_restricted_cnf(0, 1)


def test_generator_refuses_n_over_the_reduction_cap(monkeypatch):
    # A reduction has 12n + m >= 13n vertices; an n whose reduction cannot
    # fit under the graph cap is refused before the generator is seeded.
    import geohull.cnf as cnf_module

    def refuse(seed):
        raise AssertionError("the generator was seeded")

    monkeypatch.setattr(cnf_module.random, "Random", refuse)
    largest = cnf_module.MAX_VERTICES // 13
    with pytest.raises(TooLarge, match="over the cap"):
        random_restricted_cnf(largest + 1, 1)
    with pytest.raises(TooLarge):
        random_restricted_cnf(10 ** 9, 1)
    with pytest.raises(AssertionError, match="the generator was seeded"):
        random_restricted_cnf(largest, 1)


def test_generator_refuses_a_drawn_m_over_the_reduction_cap(monkeypatch):
    # n = 5000 passes the 13n check, but seed 0 draws m = 11311, so the
    # reduction would have 71311 vertices; it is refused before any clause
    # is placed.
    import geohull.cnf as cnf_module

    def refuse(self, items):
        raise AssertionError("clauses were placed")

    monkeypatch.setattr(cnf_module.random.Random, "shuffle", refuse)
    with pytest.raises(TooLarge, match="m = 11311"):
        random_restricted_cnf(5000, 0)
    with pytest.raises(AssertionError, match="clauses were placed"):
        random_restricted_cnf(3, 0)
