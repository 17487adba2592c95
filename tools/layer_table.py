"""Layer table: the joint evaluation's kernels at N = 32, 64 and 128.

    python tools/layer_table.py [--src SRC] [--sizes 32 64 128] [--seconds 0.4]

Times each kernel on coupled64's inputs at each grid size (S^2; smooth phi 0.4,
psi and chi 0.1 and u 0.3 with two modes and seeds 5, 7, 9 and 11) and prints one
JSON object: per size and kernel, the median and quartiles of the raw seconds per
call, the number of calls, and the minor page faults per timed call (getrusage
ru_minflt).  A row's time moves with the heap state the earlier rows leave, and
the fault count shows when a call maps fresh pages.  The process runs on one
core (the first it may use) with one BLAS thread, and the JSON records the
machine.  --src is the sigmalab source tree to import (default: this
checkout's src/), so that one harness measures two checkouts.

Kernels: TargetData's parts (construction with the normal frame, then dnu and
A, each on a fresh TargetData whose earlier parts are built; no evaluation
builds the projector matrix Pi, so it has no row), residual_phi,
residual_psi, action_density and total_action (each handed a TargetData with
every part built, so each times its own work), the flow's tangent map residual
(euler_lagrange._tangent_residual_phi where the tree has it, handed a fresh
FieldData: joint on a TargetData with every part built, pure map, with psi =
chi = 0, on one with the frame alone, as the flow builds no more), one pure-map
evaluation of the flow (solver._evaluate, building its own TargetData),
tangent_part and tangent_part_slots on C-contiguous site-major inputs, and
project of phi scaled by 1.01.  The "ellipsoid ..." rows time the normal
frame, dnu, A, nabla A (nabla_a_tensor, handed a TargetData with dnu and A
built) and project on the ellipsoid (1.0, 1.3, 0.8), with phi the same smooth
map projected onto it.  The action_gradient_fd row times one call of the FD
oracle on the S^2 fields at every size, and reports the tracemalloc peak of
one more call, untimed, in MB (tracemalloc_peak_mb).  One call takes about
0.026 s at 32^2, 0.11 s at 64^2 and 0.35 s at 128^2 on one core of a 2-vCPU
KVM host, whose neighbours slow it by up to 1.8x, and peaks at 2.6, 10.0 and
39.8 MB.
"""

from __future__ import annotations

import os

for _cap in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_cap] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _time(fn, prepare, seconds: float, min_calls: int = 5) -> dict:
    """Per-call seconds of fn(prepare()), repeated for `seconds` (min_calls at least),
    and the minor page faults per call taken inside the timed calls."""
    fn(prepare())  # warm-up
    times, faults, start = [], 0, time.perf_counter()
    while len(times) < min_calls or time.perf_counter() - start < seconds:
        arg = prepare()
        f0 = _minflt()
        t0 = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - t0)
        faults += _minflt() - f0
    q1, med, q3 = statistics.quantiles(times, n=4)
    return {"median_s": med, "q1_s": q1, "q3_s": q3, "calls": len(times),
            "minflt_per_call": faults / len(times)}


def _peak_mb(fn) -> float:
    """The tracemalloc peak of one call of fn(), in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def table(sizes, seconds: float) -> dict:
    from sigmalab import action, euler_lagrange, geometry, presets, solver

    out = {}
    for n in sizes:
        g, tg = geometry.Grid(n, n), geometry.SphereTarget(3)
        te = geometry.ellipsoid_target((1.0, 1.3, 0.8))
        phi = presets.smooth_map_field(g, tg, seed=5, amplitude=0.4, modes=2)
        phi_e = presets.smooth_map_field(g, te, seed=5, amplitude=0.4, modes=2)
        psi = presets.smooth_vector_spinor(g, phi, tg, seed=7, amplitude=0.1, modes=2)
        chi = presets.smooth_gravitino(g, seed=9, amplitude=0.1, modes=2)
        u = presets.smooth_scalar_field(g, seed=11, amplitude=0.3, modes=2)
        psi0, chi0 = np.zeros_like(psi), np.zeros_like(chi)

        def tdata(*parts, target=tg, p=phi):
            td = geometry.TargetData(target, p)
            for name in parts:
                getattr(td, name)
            return td

        full = tdata("dnu", "asym")
        nu = np.ascontiguousarray(tg.normal_frame(phi))
        w, w_slots = np.ascontiguousarray(2.0 * phi), np.ascontiguousarray(psi)
        off, off_e = 1.01 * phi, 1.01 * phi_e
        none = lambda: None  # noqa: E731
        tangent_rphi = getattr(euler_lagrange, "_tangent_residual_phi", None)
        tangent_rows = {} if tangent_rphi is None else {  # absent from older trees
            "tangent residual_phi (joint)": (
                tangent_rphi, lambda: action.field_data(phi, psi, chi, u, g, tg, full)),
            "tangent residual_phi (pure map)": (
                tangent_rphi, lambda: action.field_data(phi, psi0, chi0, u, g, tg, tdata())),
        }
        rows = {
            "TargetData.nu": (lambda _: geometry.TargetData(tg, phi), none),
            "TargetData.dnu": (lambda td: td.dnu, tdata),
            "TargetData.asym": (lambda td: td.asym, lambda: tdata("dnu")),
            "residual_phi": (lambda _: euler_lagrange.residual_phi(
                phi, psi, chi, u, g, tg, tdata=full), none),
            **tangent_rows,
            "solver._evaluate (pure map)": (lambda _: solver._evaluate(
                phi, psi0, chi0, u, g, tg), none),
            "residual_psi": (lambda _: euler_lagrange.residual_psi(
                phi, psi, chi, u, g, tg, tdata=full), none),
            "action_density": (lambda _: action.action_density(
                phi, psi, u, chi, g, tg, tdata=full), none),
            "total_action": (lambda _: action.total_action(
                phi, psi, u, chi, g, tg, tdata=full), none),
            "tangent_part": (lambda _: geometry.tangent_part(nu, w), none),
            "tangent_part_slots": (lambda _: geometry.tangent_part_slots(nu, w_slots), none),
            "project": (lambda _: tg.project(off), none),
            "ellipsoid TargetData.nu": (lambda _: geometry.TargetData(te, phi_e), none),
            "ellipsoid TargetData.dnu": (lambda td: td.dnu, lambda: tdata(target=te, p=phi_e)),
            "ellipsoid TargetData.asym": (lambda td: td.asym,
                                          lambda: tdata("dnu", target=te, p=phi_e)),
            "ellipsoid nabla_a_tensor": (te.nabla_a_tensor,
                                         lambda: tdata("dnu", "asym", target=te, p=phi_e)),
            "ellipsoid project": (lambda _: te.project(off_e), none),
        }
        oracle = lambda: euler_lagrange.action_gradient_fd(phi, psi, u, chi, g, tg)  # noqa: E731
        rows["action_gradient_fd"] = (lambda _: oracle(), none)
        out[str(n)] = {name: _time(fn, prepare, seconds) for name, (fn, prepare) in rows.items()}
        out[str(n)]["action_gradient_fd"]["tracemalloc_peak_mb"] = _peak_mb(oracle)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    parser.add_argument("--sizes", type=int, nargs="+", default=[32, 64, 128])
    parser.add_argument("--seconds", type=float, default=0.4)
    args = parser.parse_args(argv)
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    sys.path.insert(0, args.src)
    result = {
        "machine": {"cores": os.cpu_count(), "pinned_to_cpu": cpu,
                    "python": platform.python_version(), "numpy": np.__version__,
                    "blas_threads": 1},
        "src": args.src,
        "seconds_per_kernel": args.seconds,
        "sizes": table(args.sizes, args.seconds),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
