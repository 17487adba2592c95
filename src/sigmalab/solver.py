"""Projected gradient flow toward critical points of the discrete action.

The map field descends its sector of the action (the heat-flow direction
r_phi: the coordinate gradient is -2 h1 h2 r_phi), while the vector-spinor
sector seeks zeros of its residual with psi <- Pi(psi - dt r_psi); the Dirac
term makes the action unbounded in psi, so "progress" there is defined by the
residual norm, not by descent.

In the pure map sector (psi = chi = 0, mode not psi-only) the step is the
linearly implicit harmonic-map step (Alouges 1997; Bartels & Prohl 2007),

    phi <- project(phi + dt P_T (I - dt Lap_w)^{-1} P_T r_phi),

with P_T the tangent projection along phi and Lap_w = div grad the wide
Laplacian.  On the periodic grid Lap_w has the rfft2 symbol
-sum_a sin^2(theta_a) / h_a^2 (theta_a = 2 pi fftfreq(n_a)), so the inverse
is one rfft2 of P_T r_phi per iterate and one division and irfft2 per trial
dt; the constant and checkerboard null modes have symbol 0 and pass through
unscaled.  The step has no stability limit, so before its first step solve
searches for the working step (the bracketing phase of a line search,
Nocedal & Wright 2006, section 3.5): with d_k = initial_step 2^k, if the
trial at d_0 does not raise the Dirichlet energy it keeps doubling while the
energy increment of the trial strictly decreases, at most START_DOUBLINGS
times, and starts the flow one halving below the best d_k (at initial_step if
the first doubling did not improve).  The criterion-8 benchmark at 32^2,
64^2 and 128^2 then takes 23 iterations from initial_step = 1e-5, where
starting at initial_step and growing dt by `grow` took 94.  Outside the pure
map sector initial_step is the first trial dt, and phi <- project(phi + dt
P_T r_phi) and psi move explicitly.

Step control is accept/reject: in the pure map sector a trial step is
accepted iff the Dirichlet energy does not increase, otherwise iff the
combined residual L2 norm decreases.  Accepted steps grow dt, rejected steps
shrink it; a non-finite dt or dt underflow below 1e-14 raises SolverError.
The gravitino and the conformal factor are parameters of the functional and
stay fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .action import ActionBreakdown, target_data, total_action
from .errors import ConstraintError, SolverError
from .euler_lagrange import residual_phi, residual_psi, tangent_residual_norms
from .geometry import (Grid, TargetManifold, grad, tangent_part, tangent_part_slots,
                       wide_laplacian_symbol)

__all__ = ["SolverConfig", "Evaluation", "FlowState", "FlowReport", "flow_step", "solve"]

DT_UNDERFLOW = 1e-14
START_FACTOR = 2.0  # the start-step search multiplies dt by this per trial
START_DOUBLINGS = 64  # and stops after this many multiplications


@dataclass
class SolverConfig:
    max_iterations: int = 10_000
    tolerance: float = 1e-6
    initial_step: float = 1e-5
    shrink: float = 0.5
    grow: float = 1.1
    mode: str = "joint"  # joint | phi-only | psi-only

    def __post_init__(self):
        for name in ("tolerance", "initial_step", "shrink", "grow"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be non-negative")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.initial_step <= 0:
            raise ValueError("initial_step must be positive")
        if not (0.0 < self.shrink < 1.0 < self.grow):
            raise ValueError("need 0 < shrink < 1 < grow")
        if self.mode not in ("joint", "phi-only", "psi-only"):
            raise ValueError(f"unknown flow mode {self.mode!r}")


@dataclass(frozen=True)
class Evaluation:
    """Residuals of one iterate (the tangent part of r_phi, and r_psi), their
    combined (L2, Linf) norms, the action breakdown and the normal frame nu;
    all from one TargetData, of which only nu outlives the step."""

    r_phi_t: np.ndarray
    r_psi: np.ndarray
    norms: tuple[float, float]
    action: ActionBreakdown
    nu: np.ndarray


@dataclass
class FlowState:
    phi: np.ndarray
    psi: np.ndarray
    iteration: int
    residual_norms: tuple[float, float]  # combined (L2, Linf)
    step_size: float
    # evaluation of (phi, psi); flow_step computes it when None
    evaluation: Evaluation | None = None
    rejected: int = 0  # trial steps shrunk away before this one was accepted


@dataclass
class FlowReport:
    converged: bool
    iterations: int
    records: list[dict] = field(default_factory=list)


def _evaluate(phi, psi, chi, u, grid, target) -> tuple[np.ndarray, Evaluation]:
    """psi tangent-projected along phi, and the evaluation at it, from one TargetData."""
    tdata = target_data(target, phi)
    psi = tangent_part_slots(tdata.nu, psi)
    r_phi = residual_phi(phi, psi, chi, u, grid, target, tdata=tdata)
    if np.any(psi) or np.any(chi):
        r_psi = residual_psi(phi, psi, chi, u, grid, target, tdata=tdata)
    else:  # r_psi vanishes identically at psi = chi = 0
        r_psi = np.zeros_like(psi)
    r_phi_t = tangent_part(tdata.nu, r_phi)
    combined = tangent_residual_norms(r_phi_t, r_psi, grid)["combined"]
    action = total_action(phi, psi, u, chi, grid, target, tdata=tdata)
    return psi, Evaluation(r_phi_t, r_psi, (combined["l2"], combined["linf"]), action, tdata.nu)


def _resolvent(rhs: np.ndarray, grid: Grid):
    """dt -> (I - dt wide_laplacian)^{-1} rhs for a (n1, n2, K) field.

    rhs is transformed once; each dt costs one division and one irfft2.
    """
    rhs_hat = np.fft.rfft2(rhs, axes=(0, 1))
    symbol = wide_laplacian_symbol(grid)[:, :, None]
    return lambda dt: np.fft.irfft2(rhs_hat / (1.0 + dt * symbol), s=grid.shape, axes=(0, 1))


def _dirichlet_increment(phi_new, phi_old, grid) -> float:
    """E(phi_new) - E(phi_old) without cancellation: sum <d(a-b), d(a+b)>.

    Near convergence the raw energies agree to machine precision while the
    increment is still meaningful; this form resolves it exactly.  One grad
    of a - b and a + b stacked on a last axis (grad acts per component).
    """
    d = grad(np.stack((phi_new - phi_old, phi_new + phi_old), axis=-1), grid)
    return float(np.sum(d[..., 0] * d[..., 1]) * grid.cell_area)


def _is_pure_map(psi, chi, config: SolverConfig) -> bool:
    """The sector of the implicit step and the Dirichlet accept test."""
    return config.mode != "psi-only" and not np.any(psi) and not np.any(chi)


def _implicit_trial(phi, nu, resolve, dt, target: TargetManifold) -> np.ndarray:
    """The linearly implicit step at dt; psi = 0 stays tangent along every phi."""
    return target.project(phi + dt * tangent_part(nu, resolve(dt)))


def _start_step(phi, ev: Evaluation, grid: Grid, target: TargetManifold,
                initial_step: float) -> tuple[float, int]:
    """The first trial dt of a pure-map solve and the number of trials evaluated.

    Doubles dt from initial_step while the Dirichlet increment of the trial
    strictly decreases (START_DOUBLINGS at most) and returns one halving below
    the best dt.  A first trial that raises the energy ends the search at
    initial_step, where the shrink loop of flow_step takes over; a doubled
    trial that cannot be projected ends it like one that does not improve.
    Only one trial field is alive at a time.
    """
    resolve = _resolvent(ev.r_phi_t, grid)

    def increment(dt):
        return _dirichlet_increment(_implicit_trial(phi, ev.nu, resolve, dt, target), phi, grid)

    best, k_best, trials = increment(initial_step), 0, 1
    if best > 0.0:
        return initial_step, trials
    for k in range(1, START_DOUBLINGS + 1):
        trials += 1
        try:
            inc = increment(initial_step * START_FACTOR**k)
        except (ConstraintError, FloatingPointError):
            break
        if not inc < best:
            break
        best, k_best = inc, k
    return initial_step * START_FACTOR ** max(k_best - 1, 0), trials


def flow_step(state: FlowState, chi, u, grid: Grid, target: TargetManifold,
              config: SolverConfig) -> FlowState:
    """One accepted step (shrinking dt until the acceptance rule passes).

    The returned state carries its own evaluation, so the next step starts
    from it without recomputing the residuals.
    """
    phi, psi = state.phi, state.psi
    ev = state.evaluation or _evaluate(phi, psi, chi, u, grid, target)[1]
    if not (np.all(np.isfinite(ev.r_phi_t)) and np.all(np.isfinite(ev.r_psi))):
        raise SolverError("non-finite residual")

    pure_map = _is_pure_map(psi, chi, config)
    if pure_map:
        resolve = _resolvent(ev.r_phi_t, grid)

    dt = state.step_size
    if not math.isfinite(dt):  # shrinking would never reach the underflow test
        raise SolverError(f"non-finite step size: dt = {dt}")
    rejected = 0
    while True:
        if dt < DT_UNDERFLOW:
            raise SolverError(f"step size underflow: dt = {dt:.3e}")
        phi_new, psi_new = phi, psi
        if pure_map:
            phi_new = _implicit_trial(phi, ev.nu, resolve, dt, target)
            accepted = _dirichlet_increment(phi_new, phi, grid) <= 0.0
        else:
            if config.mode != "psi-only":
                phi_new = target.project(phi + dt * ev.r_phi_t)
            if config.mode != "phi-only":
                psi_new = psi - dt * ev.r_psi
            psi_new, trial = _evaluate(phi_new, psi_new, chi, u, grid, target)
            accepted = trial.norms[0] < ev.norms[0]
        if accepted:
            break
        dt *= config.shrink
        rejected += 1

    if pure_map:
        trial = _evaluate(phi_new, psi_new, chi, u, grid, target)[1]
    return FlowState(
        phi=phi_new,
        psi=psi_new,
        iteration=state.iteration + 1,
        residual_norms=trial.norms,
        step_size=dt * config.grow,
        evaluation=trial,
        rejected=rejected,
    )


def solve(phi, psi, chi, u, grid, target, config: SolverConfig) -> tuple[FlowState, FlowReport]:
    """Iterate flow_step until the residual tolerance or max_iterations.

    The report carries one record per examined iterate (including the initial
    one): residual norms, step size, the trial steps rejected before it was
    accepted, and the full ActionBreakdown.  When a pure-map solve has a step
    to take, its first dt comes from the start-step search, and the initial
    record also carries the number of trials the search evaluated.  Reaching
    max_iterations yields converged=False, not an error.
    """
    phi = target.project(phi)
    psi, ev = _evaluate(phi, psi, chi, u, grid, target)
    step_size, start_trials = config.initial_step, None
    if (_is_pure_map(psi, chi, config) and config.max_iterations > 0
            and ev.norms[0] >= config.tolerance):
        step_size, start_trials = _start_step(phi, ev, grid, target, config.initial_step)
    state = FlowState(
        phi=phi,
        psi=psi,
        iteration=0,
        residual_norms=ev.norms,
        step_size=step_size,
        evaluation=ev,
    )
    del ev  # else this name keeps the first iterate's arrays alive for the whole solve
    report = FlowReport(converged=False, iterations=0)

    def record(st: FlowState):
        report.records.append(
            {
                "iteration": st.iteration,
                "step_size": st.step_size,
                "rejected": st.rejected,
                "residual_l2": st.residual_norms[0],
                "residual_linf": st.residual_norms[1],
                "action": st.evaluation.action.to_dict(),
            }
        )

    record(state)
    if start_trials is not None:
        report.records[0]["start_trials"] = start_trials
    while state.iteration < config.max_iterations:
        if state.residual_norms[0] < config.tolerance:
            report.converged = True
            break
        try:
            state = flow_step(state, chi, u, grid, target, config)
        except SolverError as exc:
            # honest stall report: no accepted step can make progress
            report.records.append({"stalled": True, "detail": str(exc)})
            break
        record(state)
    else:
        report.converged = state.residual_norms[0] < config.tolerance

    report.iterations = state.iteration
    return state, report
