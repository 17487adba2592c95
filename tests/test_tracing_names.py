"""The benchmark's tracer wraps functions by name; every name must resolve."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from sigmalab.geometry import SphereTarget, ellipsoid_target

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    tracing = _tracing()
    for module, func in tracing.TRACED_FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"sigmalab.{module}"), func))


@pytest.mark.parametrize("target", [SphereTarget(3), ellipsoid_target([1.0, 1.3, 0.8])],
                         ids=["sphere", "ellipsoid"])
def test_traced_target_methods_resolve(target):
    for meth in _tracing().TRACED_TARGET_METHODS:
        assert callable(getattr(target, meth))
