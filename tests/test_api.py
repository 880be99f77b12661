import contextlib
import io
import pathlib
import re

import pytest

import geohull

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

REMOVED = ("DistanceMatrix", "IntervalDependency", "build_graph",
           "distance_matrix", "with_graph")


def test_public_names_resolve_once():
    names = geohull.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(geohull, name) is not None


def test_retired_wrappers_are_gone():
    for name in REMOVED:
        assert name not in geohull.__all__
        assert not hasattr(geohull, name)
        for module in (geohull.convexity, geohull.graph, geohull.reduction):
            assert not hasattr(module, name)
    # Clause vertices come from ReductionGraph.vertex("c", j).
    assert not hasattr(geohull.ReductionGraph, "clause_vertex")


def test_graph_carries_no_vertex_names():
    # A vertex's meaning is read off its owner's layout (for a reduction,
    # ReductionGraph.role_token), never off the graph.
    g = geohull.Graph(2, [(0, 1)])
    for attr in ("name", "vertex_names"):
        assert not hasattr(geohull.Graph, attr)
        assert not hasattr(g, attr)
    with pytest.raises(TypeError):
        geohull.Graph(2, [(0, 1)], {0: "a", 1: "b"})


def test_readme_library_example_runs():
    # Keeps the README in step with the public names it uses.
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(code, namespace)
    g, rg = namespace["g"], namespace["rg"]
    assert geohull.hull(g, [0, 4]) == frozenset(range(5))
    assert geohull.hull_number_exact(g) == geohull.HullNumberResult(
        2, frozenset({0, 4}))
    assert (rg.graph.vertex_count, rg.graph.edge_count) == (39, 144)
    lines = printed.getvalue().splitlines()
    assert lines[:3] == ["satisfiable=true", "h=12", "k=12"]
