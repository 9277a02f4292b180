"""The package's export list."""
import marketgraph


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from marketgraph import *", namespace)
    missing = [name for name in marketgraph.__all__ if name not in namespace]
    assert not missing
    assert len(set(marketgraph.__all__)) == len(marketgraph.__all__)
