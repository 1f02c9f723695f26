"""The benchmark's tracer (perfbench/tracer.py) wraps embreg functions by module and name.

A rename or deletion in embreg would only surface when the benchmark runs,
so check here that every name the tracer binds still exists.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_layer_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    # dataclasses resolves the module's annotations through sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in tracer.LAYERS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert tracer.LAYERS
    assert missing == []
