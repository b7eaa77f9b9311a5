"""The benchmark's traced run binds imcoalg functions by name.

``bench/layers.py`` lists every traced layer as (metric, module, attribute
path). A deleted or renamed library function would only surface when a
traced benchmark run fails; this test resolves every entry directly.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def traced_targets():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.TRACED


@pytest.mark.parametrize(
    "metric, module, attr", traced_targets(), ids=str
)
def test_traced_attribute_resolves(metric, module, attr):
    target = importlib.import_module("imcoalg." + module)
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target), metric
