"""The benchmark's tracer (perfbench/layers.py) wraps program names from
outside; these checks fail when a rename or deletion would break ``--trace 1``."""

import importlib
import importlib.util
import os
import sys

from fcomplete import Graph, solve

LAYERS = os.path.join(os.path.dirname(__file__), "..", "perfbench", "layers.py")


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _bindings():
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "fcomplete" or name.startswith("fcomplete."):
            out.update({(name, k): v for k, v in vars(mod).items()})
    graph = sys.modules["fcomplete.graph"].Graph
    out.update({("Graph", k): getattr(graph, k) for k in ("add_edges", "remove_edges")})
    return out


def test_every_spanned_name_resolves():
    for mod, name, _ in _layers().SPANNED:
        assert callable(getattr(importlib.import_module(f"fcomplete.{mod}"), name)), (mod, name)


def test_tracer_restores_every_binding_and_sees_solve():
    before = _bindings()
    tracer = _layers().Tracer()
    tracer.install()
    try:
        solve(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]), "tp", 1,
              "subexp")
        assert any(span[0] == "tp_subexp.tp_complete" for span in tracer.spans)
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
