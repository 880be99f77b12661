"""Geodetic convexity toolkit.

Shortest-path intervals and hulls, exact hull-number search with a
brute-force oracle, chordality via maximum-cardinality search, and a
CNF-to-graph reduction in which satisfiability of a restricted instance is
equivalent to the reduction graph having hull number at most 4n.
"""

from .chordal import (chordality, is_perfect_elimination_ordering,
                      is_simplicial, simplicial_vertices)
from .cnf import (Assignment, RestrictedCnf, format_dimacs, is_satisfiable,
                  make_cnf, occurrence_table, parse_dimacs,
                  random_restricted_cnf, satisfies, satisfying_assignments,
                  validate_restricted)
from .convexity import (hull, interval, interval_dependencies, is_concave,
                        is_convex, is_hull_set)
from .errors import (BudgetExceeded, Disconnected, GeohullError,
                     InvalidEdge, InvalidInstance, InvalidOrdering,
                     NotAWitness, ParseError, TooLarge)
from .fixtures import small_chordal_graph
from .graph import (Graph, diameter, eccentricity, format_graph, is_clique,
                    parse_graph)
from .reduction import (CheckResult, EquivalenceReport, ReductionGraph,
                        StructureReport, assignment_to_hull_set,
                        build_reduction, equivalence_check, format_labels,
                        gadget_edges, hull_set_to_assignment,
                        induced_assignment, verify_structure)
from .solver import (HullDecision, HullNumberResult, hull_number_at_most,
                     hull_number_bruteforce, hull_number_exact)

__version__ = "0.1.0"

__all__ = [
    "Assignment", "BudgetExceeded", "CheckResult", "Disconnected",
    "EquivalenceReport", "GeohullError", "Graph", "HullDecision",
    "HullNumberResult", "InvalidEdge", "InvalidInstance", "InvalidOrdering",
    "NotAWitness", "ParseError", "ReductionGraph", "RestrictedCnf",
    "StructureReport", "TooLarge", "assignment_to_hull_set", "build_reduction",
    "chordality", "diameter", "eccentricity", "equivalence_check",
    "format_dimacs", "format_graph", "format_labels", "gadget_edges", "hull",
    "hull_number_at_most", "hull_number_bruteforce", "hull_number_exact",
    "hull_set_to_assignment", "induced_assignment", "interval",
    "interval_dependencies", "is_clique", "is_concave", "is_convex",
    "is_hull_set", "is_perfect_elimination_ordering", "is_satisfiable",
    "is_simplicial", "make_cnf", "occurrence_table", "parse_dimacs",
    "parse_graph", "random_restricted_cnf", "satisfies",
    "satisfying_assignments", "simplicial_vertices", "small_chordal_graph",
    "validate_restricted", "verify_structure",
]
