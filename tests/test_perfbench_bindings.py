"""The benchmark's tracer (perfbench/tracer.py) wraps embreg functions by module and name.

A rename or deletion in embreg would only surface when the benchmark runs,
so check here that every name the tracer binds still exists, and that
``run_pipeline`` looks its stage functions up at call time: a name bound
early would bypass the wrapper and its per-layer metrics would read 0.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from embreg.bundle import Bundle
from embreg.config import PipelineConfig
from embreg.pipeline import run_pipeline
from embreg.synth import SynthSpec, make_atlas

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture
def tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves the module's annotations through sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves(tracer):
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in tracer.LAYERS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert tracer.LAYERS
    assert missing == []


def test_run_pipeline_calls_every_traced_pipeline_layer(tracer):
    features, labels, intensity = make_atlas(SynthSpec(dims=(12, 12, 12), channels=8, seed=0))
    bundle = Bundle(features=features, intensity=intensity, labels=labels)
    with tracer.Tracer() as traced:
        traced.pair = 0
        run_pipeline(PipelineConfig(match_step=2, instance_iterations=2), bundle, bundle)
    assert traced.restored()
    calls = traced.pair_values(0)
    silent = [
        f"{module}.{attr}"
        for module, attr, span, *_ in tracer.LAYERS
        if module == "embreg.pipeline" and not calls[span + "_calls"]
    ]
    assert silent == []
