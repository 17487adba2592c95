"""Names that other code looks up must resolve: the functions and target methods the
benchmark's tracer wraps by name, and every name in a sigmalab module's __all__
(a stale export breaks ``from sigmalab.x import *``)."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import sigmalab
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


@pytest.mark.parametrize("module", ["sigmalab"] + sorted(
    f"sigmalab.{m.name}" for m in pkgutil.iter_modules(sigmalab.__path__)))
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
