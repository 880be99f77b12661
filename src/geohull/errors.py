"""Exception types shared across the toolkit."""


class GeohullError(Exception):
    """Base class for every error raised by this package."""


class InvalidEdge(GeohullError):
    """Edge endpoint out of range, or a self-loop."""


class Disconnected(GeohullError):
    """A metric operation was asked about a disconnected (or empty) graph."""


class InvalidOrdering(GeohullError):
    """An elimination ordering is not a permutation of the graph's vertices."""


class InvalidInstance(GeohullError):
    """A CNF instance violates the occurrence restriction."""


class NotAWitness(GeohullError):
    """A vertex set is not a hull set of the required size."""


class TooLarge(GeohullError):
    """Input exceeds a size cap: the cap of an exhaustive enumeration
    (assignments, or subsets in the brute-force hull search) or the vertex
    cap of the graph text format, which reductions share."""


class ParseError(GeohullError):
    """Malformed graph or CNF text."""


class BudgetExceeded(GeohullError):
    """The hull-number search ran out of its evaluation budget.

    ``lower_bound`` is the best bound proven before the budget ran out:
    every hull set has at least that many vertices.
    """

    def __init__(self, message: str, lower_bound: int, evaluations: int):
        super().__init__(message)
        self.lower_bound = lower_bound
        self.evaluations = evaluations
