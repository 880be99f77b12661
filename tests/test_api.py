import pytest

import geohull

REMOVED = ("DistanceMatrix", "build_graph", "distance_matrix", "with_graph")


def test_public_names_resolve_once():
    names = geohull.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(geohull, name) is not None


def test_retired_wrappers_are_gone():
    for name in REMOVED:
        assert name not in geohull.__all__
        assert not hasattr(geohull, name)
        assert not hasattr(geohull.graph, name)
        assert not hasattr(geohull.reduction, name)


def test_graph_carries_no_vertex_names():
    # A vertex's meaning is read off its owner's layout (for a reduction,
    # ReductionGraph.role_token), never off the graph.
    g = geohull.Graph(2, [(0, 1)])
    for attr in ("name", "vertex_names"):
        assert not hasattr(geohull.Graph, attr)
        assert not hasattr(g, attr)
    with pytest.raises(TypeError):
        geohull.Graph(2, [(0, 1)], {0: "a", 1: "b"})
