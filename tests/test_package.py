"""The package's export list, and the names the benchmark's tracer wraps."""
import importlib
import importlib.util
from pathlib import Path

import marketgraph


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from marketgraph import *", namespace)
    missing = [name for name in marketgraph.__all__ if name not in namespace]
    assert not missing
    assert len(set(marketgraph.__all__)) == len(marketgraph.__all__)


def load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_exists():
    # The tracer patches methods through the class's own __dict__, so an
    # inherited method would silently go untraced.
    tracer = load_tracer()
    missing = [f"{mod}.{name}" for mod, name in tracer.FUNCTIONS
               if not callable(getattr(importlib.import_module(f"marketgraph.{mod}"), name, None))]
    missing += [f"{mod}.{cls}.{name}" for mod, cls, name in tracer.METHODS
                if name not in vars(getattr(importlib.import_module(f"marketgraph.{mod}"), cls, object))]
    assert missing == []
