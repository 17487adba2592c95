"""The four benchmark workloads: seeded inputs, one timed operation, and the
correctness gates applied to its output.

Every input comes from ``sigmalab.presets`` driven by the seed; the program
receives only the generated fields (or, for ``cli``, a config file and
``--seed``).  A gate that fails marks its operation as failed.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sigmalab import euler_lagrange, geometry, presets, solver

from speed import SpeedProbe, ref_seconds
from tracing import Tracer, merge

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"
CHILD = Path(__file__).resolve().parent / "child.py"


def child_env() -> dict:
    """The benchmark's environment (with run.py's thread caps) plus src/ on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], log: Path) -> tuple[int, float, int, float]:
    """Run one child to completion: (exit code, wall s, peak RSS KB, start time).

    os.wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would report the
    running maximum over every child reaped so far.
    """
    with open(log, "wb") as fh:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=child_env(),
                                cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss, start


@dataclass
class Rep:
    """One repetition of a workload's timed operation."""

    wall_s: float
    attempted: int
    failed: list[str]                      # one entry per failed operation
    detail: dict = field(default_factory=dict)
    ref_s: float = 0.0                     # wall_s in reference-speed seconds (plain reps)
    child_rss_kb: int = 0                  # largest peak RSS of its children
    trace: dict | None = None              # tracer summary of a traced rep
    spans: list = field(default_factory=list)
    import_s: list = field(default_factory=list)


def _timed(fn, tracer: Tracer | None, probe: SpeedProbe | None, target=None):
    """(fn(), wall s, reference-speed s); the last equals wall without a probe."""
    if probe is not None:
        return probe.timed(fn)
    if tracer is not None:
        tracer.install(target)
    try:
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return out, wall, wall


def _traced_rep(rep: Rep, tracer: Tracer | None) -> Rep:
    if tracer is not None:
        rep.trace = tracer.summary()
        rep.spans = tracer.span_rows()
    return rep


# ---- flow workloads ------------------------------------------------------------


@dataclass
class FlowInputs:
    grid: geometry.Grid
    target: geometry.TargetManifold
    phi: np.ndarray
    psi: np.ndarray
    chi: np.ndarray
    u: np.ndarray
    config: solver.SolverConfig


def _dirichlet_energy(phi, grid) -> float:
    """Sum of squared centered differences times the cell area."""
    d0 = (np.roll(phi, -1, 0) - np.roll(phi, 1, 0)) / (2.0 * grid.h1)
    d1 = (np.roll(phi, -1, 1) - np.roll(phi, 1, 1)) / (2.0 * grid.h2)
    return float((np.sum(d0 * d0) + np.sum(d1 * d1)) * grid.cell_area)


def _smooth_inputs(n: int, seed: int, modes: int, config) -> FlowInputs:
    """Smooth phi (0.4), psi and chi (0.1) and u (0.3) on S^2, seeds seed + 0/2/4/6."""
    g = geometry.Grid(n, n)
    tg = geometry.SphereTarget(3)
    phi = presets.smooth_map_field(g, tg, seed=seed, amplitude=0.4, modes=modes)
    return FlowInputs(
        grid=g, target=tg, phi=phi,
        psi=presets.smooth_vector_spinor(g, phi, tg, seed=seed + 2, amplitude=0.1, modes=modes),
        chi=presets.smooth_gravitino(g, seed=seed + 4, amplitude=0.1, modes=modes),
        u=presets.smooth_scalar_field(g, seed=seed + 6, amplitude=0.3, modes=modes),
        config=config,
    )


class Workload:
    default_seed = 0
    min_reps = 1
    in_process = True   # the benchmark process itself runs the computation

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self):
        """Write what set-up children read; runs once in the benchmark process."""


class FlowWorkload(Workload):
    """In-process solve of the seeded problem."""

    def inputs(self, seed: int) -> FlowInputs:
        raise NotImplementedError

    def gates(self, inp: FlowInputs, state, report) -> list[str]:
        raise NotImplementedError

    def setup(self):
        self.inputs(self.seed)

    def rep(self, k: int, tracer: Tracer | None = None, probe: SpeedProbe | None = None) -> Rep:
        inp = self.inputs(self.seed)
        (state, report), wall, ref = _timed(
            lambda: solver.solve(inp.phi, inp.psi, inp.chi, inp.u, inp.grid, inp.target,
                                 inp.config),
            tracer, probe, inp.target,
        )
        bad = self.gates(inp, state, report)
        detail = {"iterations": report.iterations,
                  "residual_l2": state.residual_norms[0], "gates_failed": bad}
        return _traced_rep(Rep(wall, 1, bad[:1], detail, ref), tracer)

    def named(self, reps: list[Rep]) -> dict:
        return {"solve_s": (statistics.median(r.ref_s for r in reps), "s")}


class Harmonic64(FlowWorkload):
    """Criterion 8: harmonic-map flow of a perturbed equator into S^2 at 64^2."""

    default_seed = 3
    min_reps = 2

    def inputs(self, seed):
        g = geometry.Grid(64, 64)
        return FlowInputs(
            grid=g, target=geometry.SphereTarget(3),
            phi=presets.perturbed_equator_map(g, amplitude=0.05, seed=seed),
            psi=np.zeros(g.shape + (3, 4)), chi=np.zeros(g.shape + (2, 4)),
            u=np.zeros(g.shape),
            config=solver.SolverConfig(max_iterations=100_000, tolerance=1e-6,
                                       initial_step=1e-5),
        )

    def gates(self, inp, state, report):
        g = inp.grid
        exact = (np.sin(2.0 * np.pi * g.h1) / g.h1) ** 2
        rel_e = abs(_dirichlet_energy(state.phi, g) - exact) / exact
        checks = {
            "converged": report.converged,
            "residual_below_1e-6": state.residual_norms[0] < 1e-6,
            "energy_error_below_1e-2": rel_e < 1e-2,
        }
        return [name for name, ok in checks.items() if not ok]


class Coupled64(FlowWorkload):
    """Joint flow of all four nonzero fields on S^2 at 64^2, tolerance 10."""

    default_seed = 5

    def inputs(self, seed):
        return _smooth_inputs(64, seed, 2, solver.SolverConfig(max_iterations=1000,
                                                               tolerance=10.0))

    def gates(self, inp, state, report):
        # unit sphere: on-manifold and tangency violations in closed form
        norm = np.linalg.norm(state.phi, axis=-1)
        on_manifold = float(np.max(np.abs(norm - 1.0) / (1.0 + norm)))
        nu = state.phi / norm[..., None]
        normal = np.einsum("xyb,xybc->xyc", nu, state.psi)
        scale = 1.0 + np.sqrt(np.einsum("xybc,xybc->xy", state.psi, state.psi))
        tangency = float(np.max(np.abs(normal) / scale[..., None]))
        checks = {
            "converged": report.converged,
            "not_stalled": not any("stalled" in r for r in report.records),
            "residual_below_10": state.residual_norms[0] < 10.0,
            "on_manifold_1e-9": on_manifold <= 1e-9,
            "tangency_1e-9": tangency <= 1e-9,
        }
        return [name for name, ok in checks.items() if not ok]


# ---- finite-difference oracle ----------------------------------------------------


class FdOracle32(Workload):
    """One action_gradient_fd call at 32^2 on the fields of criterion 6 plus u.

    Gates: the spinor relation grad_psi A = 2 h^2 r_psi holds to 1e-4 (it is
    exact up to the FD error), and the map relation grad_phi A = -2 h^2 P r_phi
    converges at second order: its error at h = 1/32 is at most 2^-1.8 times
    its error at h = 1/16 on the same seeded fields.
    """

    default_seed = 5

    def __init__(self, seed: int):
        super().__init__(seed)
        self.inp = None
        self._coarse_error = None

    @staticmethod
    def inputs(seed, n=32):
        return _smooth_inputs(n, seed, 1, solver.SolverConfig())

    def setup(self):
        self.inp = self.inputs(self.seed)

    @staticmethod
    def _oracle(inp):
        return euler_lagrange.action_gradient_fd(inp.phi, inp.psi, inp.u, inp.chi, inp.grid,
                                                 inp.target, step=1e-5)

    @staticmethod
    def _relation_errors(inp, gp, gs) -> tuple[float, float]:
        rp = euler_lagrange.residual_phi(inp.phi, inp.psi, inp.chi, inp.u, inp.grid, inp.target)
        rs = euler_lagrange.residual_psi(inp.phi, inp.psi, inp.chi, inp.u, inp.grid, inp.target)
        cell = inp.grid.cell_area
        nu = inp.phi / np.linalg.norm(inp.phi, axis=-1, keepdims=True)
        rp_t = rp - np.sum(rp * nu, axis=-1, keepdims=True) * nu
        return (float(np.linalg.norm(gp / (-2.0 * cell) - rp_t) / np.linalg.norm(rp_t)),
                float(np.linalg.norm(gs / (2.0 * cell) - rs) / np.linalg.norm(rs)))

    def rep(self, k: int, tracer: Tracer | None = None, probe: SpeedProbe | None = None) -> Rep:
        if self.inp is None:
            self.setup()
        inp = self.inp
        (gp, gs), wall, ref = _timed(lambda: self._oracle(inp), tracer, probe, inp.target)
        if self._coarse_error is None:
            coarse = self.inputs(self.seed, n=16)
            self._coarse_error = self._relation_errors(coarse, *self._oracle(coarse))[0]
        err_phi, err_psi = self._relation_errors(inp, gp, gs)
        order = float(np.log2(self._coarse_error / err_phi))
        checks = {"psi_relation_1e-4": err_psi <= 1e-4, "phi_relation_order_1.8": order >= 1.8}
        bad = [name for name, ok in checks.items() if not ok]
        detail = {"phi_relation": err_phi, "psi_relation": err_psi, "phi_order": order,
                  "gates_failed": bad}
        return _traced_rep(Rep(wall, 1, bad[:1], detail, ref), tracer)

    def named(self, reps):
        return {"fd_s": (statistics.median(r.ref_s for r in reps), "s")}


# ---- command line ------------------------------------------------------------------

CLI_CONFIG = """\
[grid]
n1 = 64
n2 = 64

[target]
kind = ellipsoid
semi_axes = 1.0,1.3,0.8

[phi]
kind = smooth
amplitude = 0.4

[psi]
kind = smooth
amplitude = 0.1

[gravitino]
kind = smooth
amplitude = 0.1

[metric]
kind = smooth
amplitude = 0.3

[solver]
max_iterations = 20

[morrey]
resolution = 64
radii = 0.0625,0.125,0.25,0.5,1.0
"""

CLI_ARTIFACTS = {
    "eval": ["breakdown.json"],
    "residual": ["residuals.json", "fields_rphi.csv", "fields_rpsi.csv"],
    "check": ["check_report.json"],
    "solve": ["flow_report.jsonl", "fields_phi.csv", "fields_psi.csv", "fields_chi.csv"],
    "morrey": ["decay_profile.csv", "morrey_summary.json"],
}


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Cli(Workload):
    """Cold subprocess runs of the five commands, one after another.

    Each repetition runs every command once with a fresh output directory; the
    artifacts of every repetition must equal those of the first bit for bit.
    """

    min_reps = 2
    in_process = False

    def __init__(self, seed: int):
        super().__init__(seed)
        self.config = WORK / "cli.ini"
        self.first: dict = {}   # command -> artifact digests of its first run

    def setup(self):
        from sigmalab.cli import parse_config

        parse_config(self.config, seed_override=self.seed)

    def prepare(self):
        self.config.write_text(CLI_CONFIG)

    def rep(self, k: int, tracer: Tracer | None = None, probe: SpeedProbe | None = None) -> Rep:
        """Plain commands sample their own speed (child.py cli-run); probe is unused."""
        rep = Rep(0.0, 0, [])
        summaries = []
        for cmd, names in CLI_ARTIFACTS.items():
            out = WORK / f"rep{k}-{cmd}"
            shutil.rmtree(out, ignore_errors=True)
            args = [cmd, "--config", str(self.config), "--out", str(out), "--seed", str(self.seed)]
            trace_file = WORK / f"trace-{cmd}.json"
            speed_file = WORK / f"speed-{cmd}.json"
            if tracer is None:
                speed_file.unlink(missing_ok=True)
                argv = [sys.executable, str(CHILD), "cli-run", str(speed_file)] + args
            else:
                trace_file.unlink(missing_ok=True)
                argv = [sys.executable, str(CHILD), "cli-trace", str(trace_file)] + args
            code, wall, rss, _ = spawn(argv, WORK / f"rep{k}-{cmd}.log")
            ref = wall
            if tracer is None and speed_file.exists():   # absent if the child crashed
                speed = json.loads(speed_file.read_text())
                wall -= speed["sampled_s"]
                ref = ref_seconds(wall, speed["round_s"])
                rep.detail[f"{cmd}_round_s"] = speed["round_s"]
            rep.wall_s += wall
            rep.ref_s += ref
            rep.attempted += 1
            rep.child_rss_kb = max(rep.child_rss_kb, rss)
            rep.detail[f"{cmd}_s"] = wall
            rep.detail[f"{cmd}_ref_s"] = ref
            rep.detail[f"{cmd}_rss_mb"] = rss / 1024.0
            bad = self._gate(cmd, code, out, names)
            if bad:
                rep.failed.append(f"{cmd}:{bad}")
            if tracer is not None and trace_file.exists():
                data = json.loads(trace_file.read_text())
                summaries.append(data["summary"])
                rep.spans += data["spans"]
                rep.import_s.append(data["import_s"])
        if tracer is not None:
            rep.trace = merge(summaries)
        rep.detail["gates_failed"] = list(rep.failed)
        return rep

    def _gate(self, cmd, code, out: Path, names) -> str | None:
        """The first gate this command fails, if any."""
        if code != 0:
            return f"exit_code_{code}"
        missing = [n for n in names if not (out / n).is_file()]
        if missing:
            return f"missing:{','.join(missing)}"
        if cmd == "check" and not json.loads((out / "check_report.json").read_text())["all_passed"]:
            return "check_not_all_passed"
        digests = {n: _digest(out / n) for n in names}
        first = self.first.setdefault(cmd, digests)
        changed = [n for n in names if digests[n] != first[n]]
        if changed:
            return f"not_bit_identical:{','.join(changed)}"
        return None

    def named(self, reps):
        out = {}
        for cmd in CLI_ARTIFACTS:
            out[f"{cmd}_s"] = (statistics.median(r.detail[f"{cmd}_ref_s"] for r in reps), "s")
        return out


WORKLOADS = {
    "harmonic64": Harmonic64,
    "coupled64": Coupled64,
    "cli": Cli,
    "fd-oracle32": FdOracle32,
}
