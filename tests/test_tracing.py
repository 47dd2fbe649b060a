"""The benchmark's span tracer still finds every package function it wraps.

``benchmarks/tracing.py`` looks up each ``LAYERS`` name in the package's
namespaces, so a removed or renamed function breaks the traced benchmark
runs.  This test enters and leaves ``traced`` as those runs do.
"""

import importlib
import sys
from pathlib import Path

import numpy as np

from crscombine import LimitParams

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _layer_objects(tracing):
    """The object each ``LAYERS`` entry names, looked up as ``traced`` does."""
    objects = {}
    for module, attr in tracing.LAYERS:
        owner_name, _, fn_name = attr.rpartition(".")
        home = importlib.import_module(f"crscombine.{module}")
        owner = getattr(home, owner_name) if owner_name else home
        objects[module, attr] = owner.__dict__[fn_name]
    return objects


def test_tracer_wraps_every_layer_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    tracing = importlib.import_module("tracing")
    originals = _layer_objects(tracing)
    with tracing.traced(tracing.Tracer()) as tracer:
        inside = _layer_objects(tracing)
        power = importlib.import_module("crscombine.power")
        power.power_mc(LimitParams(xi=np.full(3, 0.5), sigma=np.ones(3)), 1.0, 0.3, reps=1000)
    assert all(inside[key] is not fn for key, fn in originals.items())
    assert tracer.spans[0][0] == "power.power_mc"  # the root span of the call
    assert _layer_objects(tracing) == originals
