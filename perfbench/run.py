"""sigmalab benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload harmonic64 --seed 3 --seconds 20 --trace 0

Run from the root of a checkout.  With ``--trace 0`` the run measures set-up
time (median over fresh interpreters), the workload's operation with tracing
off (median over its repetitions in the measuring window), and peak RSS.  Both
times are in reference-speed seconds: each interval is scaled by a machine-speed
probe sampled on the same thread during it (speed.py).  With
``--trace 1`` it runs the operation plain (warm-up), traced, and plain again,
and reports the per-module metrics of the traced run and its overhead over the
second plain run; spans go to
``.perfbench_run/spans-<workload>-seed<seed>.jsonl`` at the end.

stdout carries a report line (seed, machine record, the per-operation
metrics, per-repetition details and failed gates) and, last, the result:
``{"correct", "attempted", "failed", "metrics"}``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Before numpy loads, here and (inherited) in every child: one BLAS/OpenMP thread.
THREAD_CAPS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Set-up is repeated at least SETUP_MIN times and until SETUP_BUDGET_S has
# passed; setup_s is the median (in reference-speed seconds).
SETUP_MIN = 5
SETUP_BUDGET_S = 2.0

# name, unit, better; every traced run reports all of them (0 where the
# workload does not reach that layer).
LAYER_METRICS = [
    ("solver.iterations", "count", "lower"),
    ("solver.rejected_trials", "count", "lower"),
    ("solver.flow_step.self_s", "s", "lower"),
    ("euler_lagrange.residual_psi.calls", "count", "lower"),
    ("euler_lagrange.residual_psi.self_s", "s", "lower"),
    ("euler_lagrange.residual_psi.useful_ratio", "ratio", "higher"),
    ("euler_lagrange.residual_phi.calls", "count", "lower"),
    ("euler_lagrange.residual_phi.self_s", "s", "lower"),
    ("euler_lagrange.residual_norms.self_s", "s", "lower"),
    ("euler_lagrange.action_gradient_fd.self_s", "s", "lower"),
    ("action.target_data.calls", "count", "lower"),
    ("action.total_action.calls", "count", "lower"),
    ("action.total_action.self_s", "s", "lower"),
    ("action.action_density.calls", "count", "lower"),
    ("action.action_density.self_s", "s", "lower"),
    ("fields.tangency_project.self_s", "s", "lower"),
    ("fields.twisted_dirac.self_s", "s", "lower"),
    ("fields.dirac_conformal_sym.self_s", "s", "lower"),
    ("geometry.grad.calls", "count", "lower"),
    ("geometry.grad.self_s", "s", "lower"),
    ("geometry.tangent_projector.calls", "count", "lower"),
    ("geometry.tangent_projector.self_s", "s", "lower"),
    ("geometry.project.calls", "count", "lower"),
    ("geometry.project.self_s", "s", "lower"),
    ("geometry.nabla_a_tensor.calls", "count", "lower"),
    ("geometry.nabla_a_tensor.self_s", "s", "lower"),
    ("analysis.morrey_norm.self_s", "s", "lower"),
    ("analysis.decay_profile.self_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.parse_config.self_s", "s", "lower"),
    ("fieldio.save_field.calls", "count", "lower"),
    ("fieldio.save_field.self_s", "s", "lower"),
    ("fieldio.save_field.bytes", "bytes", "lower"),
    ("checks.run_all_checks.self_s", "s", "lower"),
    ("trace.plain_s", "s", "lower"),
    ("trace.traced_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def layer_values(plain, traced) -> dict:
    """Per-module metrics of one traced repetition (plain is the same work untraced)."""
    funcs, counters = traced.trace["functions"], traced.trace["counters"]
    out = {}
    for name, _, _ in LAYER_METRICS:
        func, _, stat = name.rpartition(".")
        if stat in ("calls", "self_s") and func in funcs:
            out[name] = funcs[func][stat]
    calls = {f: s["calls"] for f, s in funcs.items()}
    iterations = counters.get("solver.iterations", 0)
    psi_calls = calls.get("euler_lagrange.residual_psi", 0)
    out.update({
        "solver.iterations": iterations,
        # every trial step projects once, plus one initial projection per solve
        "solver.rejected_trials": (counters.get("solver.project_in_solve", 0)
                                   - calls.get("solver.solve", 0) - iterations),
        "euler_lagrange.residual_psi.useful_ratio": (
            counters.get("euler_lagrange.residual_psi.useful", 0) / psi_calls if psi_calls else 0.0),
        "fieldio.save_field.bytes": counters.get("fieldio.save_field.bytes", 0),
        "cli.import_s": statistics.median(traced.import_s) if traced.import_s else 0.0,
        "trace.plain_s": plain.wall_s,
        "trace.traced_s": traced.wall_s,
        "trace.overhead_s": traced.wall_s - plain.wall_s,
    })
    return {name: {"value": out.get(name, 0), "unit": unit} for name, unit, _ in LAYER_METRICS}


def machine_record(usable: list[int]) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(usable),
        "pinned_to_cpu": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "thread_caps": THREAD_CAPS,
    }


def measure_setup(wl, name: str, seed: int) -> tuple[list[float], list[float], int]:
    """Set-up times of fresh interpreters (spawn until inputs ready, less the
    child's speed samples), raw and in reference-speed seconds, and their peak RSS."""
    from speed import ref_seconds

    raw, ref, rss = [], [], 0
    start_all = time.monotonic()
    while len(raw) < SETUP_MIN or time.monotonic() - start_all < SETUP_BUDGET_S:
        log = wl.WORK / "setup.log"
        code, _, child_rss, start = wl.spawn(
            [sys.executable, str(HERE / "child.py"), "setup", name, str(seed)], log)
        if code != 0:
            raise RuntimeError(f"set-up child exited {code}:\n{log.read_text()}")
        done = json.loads(log.read_text().splitlines()[-1])
        raw.append(done["ready"] - start - done["sampled_s"])
        ref.append(ref_seconds(raw[-1], done["round_s"]))
        rss = max(rss, child_rss)
    return raw, ref, rss


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="non-negative input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="measuring time; repetitions start until it has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sigmalab" / "__init__.py").is_file():
        print(f"perfbench: no sigmalab sources in {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_CAPS)
    usable = sorted(os.sched_getaffinity(0))
    # One core for this process and every child: the speed probe corrects for
    # the slowdown of the core it runs on, and the slowdown differs per core.
    os.sched_setaffinity(0, {usable[0]})
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl
    from speed import SpeedProbe
    from tracing import Tracer, write_spans

    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    cls = wl.WORKLOADS[args.workload]
    seed = cls.default_seed if args.seed is None else args.seed
    if seed < 0:
        print("perfbench: --seed must be non-negative", file=sys.stderr)
        return 2

    wl.WORK.mkdir(exist_ok=True)
    workload = cls(seed)
    workload.prepare()
    report = {"workload": args.workload, "seed": seed, "trace": args.trace,
              "machine": machine_record(usable)}

    if args.trace:
        # the first repetition warms up; the overhead compares the two after it
        warm = workload.rep(0)
        traced = workload.rep(0, Tracer())
        plain = workload.rep(0)
        reps = [warm, traced, plain]
        spans_path = wl.WORK / f"spans-{args.workload}-seed{seed}.jsonl"
        write_spans(spans_path, traced.spans)
        report["spans"] = str(spans_path.relative_to(ROOT))
        metrics = layer_values(plain, traced)
    else:
        setup_raw, setup_ref, rss_kb = measure_setup(wl, args.workload, seed)
        probe = SpeedProbe()
        reps = []
        start = time.monotonic()
        while len(reps) < workload.min_reps or time.monotonic() - start < args.seconds:
            reps.append(workload.rep(len(reps), probe=probe))
        rss_kb = max([rss_kb] + [r.child_rss_kb for r in reps])
        if workload.in_process:
            rss_kb = max(rss_kb, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        metrics = {
            "setup_s": {"value": statistics.median(setup_ref), "unit": "s"},
            "op_s": {"value": statistics.median(r.ref_s for r in reps), "unit": "s"},
            "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
        }
        named = dict(workload.named(reps))
        named["setup_s"] = (metrics["setup_s"]["value"], "s")
        named["peak_rss_mb"] = (metrics["peak_rss_mb"]["value"], "MB")
        report["named"] = {k: {"value": v, "unit": u} for k, (v, u) in named.items()}
        report["setup_s_all"] = setup_ref
        report["setup_wall_s_all"] = setup_raw
        if probe.samples:
            report["probe_round_s"] = {"median": statistics.median(probe.samples),
                                       "min": min(probe.samples), "samples": len(probe.samples)}

    report["reps"] = [dict(r.detail, wall_s=r.wall_s, ref_s=r.ref_s) for r in reps]
    for path in wl.WORK.glob("rep*-*"):
        if path.is_dir():
            shutil.rmtree(path)

    attempted = sum(r.attempted for r in reps)
    failed = sum(len(r.failed) for r in reps)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
