"""Built-in example graphs for the CLI and the test suite."""

from __future__ import annotations

from .graph import Graph


def small_chordal_graph() -> Graph:
    """Five-vertex chordal graph: path x1-x2-x3-t-z with chords x2-t and x3-z.

    Vertices 0-4 are x1, x2, x3, t, z.  Its only simplicial vertices are x1
    and z, its hull number is 2, and its interval dependencies include
    ({x1,t} -> x2) and ({z,x2} -> x3) but not ({z,t} -> x3), since z and t
    are adjacent.
    """
    return Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3), (2, 4)])


FIXTURES = {
    "fig2": small_chordal_graph,
}
