"""Span tracer that wraps sigmalab's public functions from the outside.

The package imports its helpers with ``from .x import f``, so one function can
be bound under the same name in several modules (``grad`` lives in geometry,
action, fields and euler_lagrange).  ``Tracer.patch_function`` replaces every
binding of the function object in every loaded ``sigmalab`` module, and
``Tracer.patch_target`` wraps the geometry methods on one target instance.
Nothing inside ``src/sigmalab`` is edited; ``uninstall`` restores every binding.

Each call records a span ``(id, parent, name, start, end)``.  Spans stay in
memory; self time (a span's duration minus the durations of its child spans)
is computed from them at the end, when they are also written out.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict

# (module, function) pairs wrapped wherever they are bound.
TRACED_FUNCTIONS = [
    ("solver", "solve"),
    ("solver", "flow_step"),
    ("euler_lagrange", "residuals"),
    ("euler_lagrange", "residual_phi"),
    ("euler_lagrange", "residual_psi"),
    ("euler_lagrange", "residual_norms"),
    ("euler_lagrange", "action_gradient_fd"),
    ("action", "target_data"),
    ("action", "total_action"),
    ("action", "action_density"),
    ("fields", "tangency_project"),
    ("fields", "twisted_dirac"),
    ("fields", "dirac_conformal_sym"),
    ("geometry", "grad"),
    ("analysis", "morrey_norm"),
    ("analysis", "decay_profile"),
    ("cli", "parse_config"),
    ("fieldio", "save_field"),
    ("checks", "run_all_checks"),
]

# Methods wrapped on the target instance, reported under geometry.<method>.
TRACED_TARGET_METHODS = ("project", "tangent_projector", "nabla_a_tensor")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self._stack: list[tuple[int, str]] = []
        self._next_id = 0
        self._undo: list = []

    # ---- recording ----------------------------------------------------------

    def wrap(self, name: str, fn, probe=None):
        """Return fn recording one span per call; probe(tracer, fn, args, kwargs,
        result) runs after a successful call and may add counters."""
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else None
            tracer._stack.append((sid, name))
            t0 = time.perf_counter()
            t1 = None
            try:
                result = fn(*args, **kwargs)
                t1 = time.perf_counter()
                if probe is not None:
                    probe(tracer, fn, args, kwargs, result)
            finally:
                if t1 is None:
                    t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((sid, parent, name, t0, t1))
            return result

        traced.__wrapped__ = fn
        return traced

    # ---- installing ---------------------------------------------------------

    def patch_function(self, module: str, func: str):
        """Wrap sigmalab.<module>.<func> under every name that binds it."""
        orig = getattr(sys.modules[f"sigmalab.{module}"], func)
        name = f"{module}.{func}"
        wrapper = self.wrap(name, orig, _PROBES.get(name))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "sigmalab" or mod_name.startswith("sigmalab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, orig))

    def patch_target(self, target):
        for meth in TRACED_TARGET_METHODS:
            name = f"geometry.{meth}"
            setattr(target, meth, self.wrap(name, getattr(target, meth), _PROBES.get(name)))
            self._undo.append((target, meth, None))

    def install(self, target=None):
        """Wrap every traced function that is loaded, and target's methods."""
        for module, func in TRACED_FUNCTIONS:
            if f"sigmalab.{module}" in sys.modules:
                self.patch_function(module, func)
        if target is not None:
            self.patch_target(target)

    def uninstall(self):
        for obj, attr, orig in reversed(self._undo):
            if orig is None:
                delattr(obj, attr)
            else:
                setattr(obj, attr, orig)
        self._undo.clear()

    # ---- results --------------------------------------------------------------

    def summary(self) -> dict:
        """{"functions": {name: {"calls", "self_s"}}, "counters": {name: count}}."""
        child = defaultdict(float)
        for _, parent, _, t0, t1 in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        funcs: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for sid, _, name, t0, t1 in self.spans:
            funcs[name]["calls"] += 1
            funcs[name]["self_s"] += (t1 - t0) - child[sid]
        return {"functions": dict(funcs), "counters": dict(self.counters)}

    def span_rows(self) -> list[dict]:
        pid = os.getpid()
        return [
            {"pid": pid, "id": sid, "parent": parent, "name": name, "start": t0, "end": t1}
            for sid, parent, name, t0, t1 in sorted(self.spans)
        ]


# ---- counters taken at the call boundary --------------------------------------


@functools.lru_cache(maxsize=None)
def _signature(fn):
    return inspect.signature(fn)


def _residual_psi_probe(tracer, fn, args, kwargs, result):
    bound = _signature(fn).bind(*args, **kwargs).arguments
    if bound["psi"].any() or bound["chi"].any():
        tracer.counters["euler_lagrange.residual_psi.useful"] += 1


def _solve_probe(tracer, fn, args, kwargs, result):
    _, report = result
    tracer.counters["solver.iterations"] += report.iterations


def _project_probe(tracer, fn, args, kwargs, result):
    # the solver's own projections: the initial one and one per trial step
    # (nabla_a_tensor also projects, inside the residuals)
    if len(tracer._stack) > 1 and tracer._stack[-2][1] in ("solver.solve", "solver.flow_step"):
        tracer.counters["solver.project_in_solve"] += 1


def _save_field_probe(tracer, fn, args, kwargs, result):
    path = _signature(fn).bind(*args, **kwargs).arguments["path"]
    tracer.counters["fieldio.save_field.bytes"] += os.path.getsize(path)


def _parse_config_probe(tracer, fn, args, kwargs, result):
    tracer.patch_target(result.target)


_PROBES = {
    "euler_lagrange.residual_psi": _residual_psi_probe,
    "solver.solve": _solve_probe,
    "geometry.project": _project_probe,
    "fieldio.save_field": _save_field_probe,
    "cli.parse_config": _parse_config_probe,
}


def merge(summaries: list[dict]) -> dict:
    """Sum per-function calls/self time and counters over several summaries."""
    funcs: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    counters: Counter = Counter()
    for s in summaries:
        for name, st in s["functions"].items():
            funcs[name]["calls"] += st["calls"]
            funcs[name]["self_s"] += st["self_s"]
        counters.update(s["counters"])
    return {"functions": dict(funcs), "counters": dict(counters)}


def write_spans(path, rows: list[dict]) -> None:
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
