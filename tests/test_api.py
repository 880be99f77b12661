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
