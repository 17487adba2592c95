"""Projected gradient flow toward critical points of the discrete action.

The map field descends its sector of the action (the heat-flow direction
r_phi: the coordinate gradient is -2 h1 h2 r_phi), while the vector-spinor
sector seeks zeros of its residual with psi <- Pi(psi - dt r_psi); the Dirac
term makes the action unbounded in psi, so "progress" there is defined by the
residual norm, not by descent.

Every sector that moves phi (mode not psi-only) takes the linearly implicit
harmonic-map step (Alouges 1997; Bartels & Prohl 2007),

    phi <- project(phi + dt P_T (I - dt Lap_w)^{-1} P_T r_phi),

with P_T the tangent projection along phi and Lap_w = div grad the wide
Laplacian.  On the periodic grid Lap_w has the rfft2 symbol
-sum_a sin^2(theta_a) / h_a^2 (theta_a = 2 pi fftfreq(n_a)), so the inverse
is one rfft2 of P_T r_phi per iterate and one division and irfft2 per trial
dt; the constant and checkerboard null modes have symbol 0 and pass through
unscaled.  psi takes its explicit step beside it (mode not phi-only) and is
tangent-projected along the new phi.

Step control is accept/reject, in one of two sectors:

* The pure map sector (psi = chi = 0, mode not psi-only) accepts a trial iff
  the Dirichlet energy does not increase.  The step has no stability limit,
  so before its first step solve searches for the working step (the
  bracketing phase of a line search, Nocedal & Wright 2006, section 3.5):
  with d_k = initial_step 2^k, if the trial at d_0 does not raise the
  Dirichlet energy it keeps doubling while the energy increment of the trial
  strictly decreases, at most START_DOUBLINGS times, and starts the flow one
  halving below the best d_k (at initial_step if the first doubling did not
  improve).  Accepted steps grow dt by `grow`.  The criterion-8 benchmark at
  32^2, 64^2 and 128^2 takes 23 iterations from initial_step = 1e-5.
* The other sectors accept a trial iff the combined residual L2 norm
  decreases; initial_step is the first trial dt.  A start ramp multiplies dt
  by START_FACTOR after each accepted step until the solve's first rejected
  trial, then by `grow`.  A stall floor ends the flow: a step whose trial dt
  falls below shrink^2 times the dt its previous step accepted raises
  SolverError (the first step has no previous one).  Evaluating a trial is
  the cost here, so the floor bounds the trials a stalled step spends.  From
  coupled64's inputs the flow reaches tolerance 10 in 11 iterations at 16^2
  to 128^2.

Rejected steps shrink dt by `shrink`; a non-finite dt or dt underflow below
1e-14 raises SolverError in every sector, and solve records either error as
a stall.

Each evaluation of an iterate builds one TargetData and one action.FieldData
of the fields and hands both to residual_phi, residual_psi and total_action,
in that order: grad phi, D_u psi, the gravitino coefficient, |Q chi|^2 and the
Gauss parts M, c_l and A_l M are computed once and dropped after their last
reader (M by A_l M, the rest by the action).
The gravitino and the conformal factor are parameters of the functional and
stay fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .action import ActionBreakdown, field_data, target_data, total_action
from .errors import ConstraintError, SolverError
from .euler_lagrange import residual_phi, residual_psi, tangent_residual_norms
from .geometry import (Grid, TargetManifold, grad, tangent_part, tangent_part_slots,
                       wide_laplacian_symbol)

__all__ = ["SolverConfig", "Evaluation", "FlowState", "FlowReport", "flow_step", "solve"]

DT_UNDERFLOW = 1e-14
START_FACTOR = 2.0  # the start-step search and the start ramp multiply dt by this
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
    all from the iterate's one TargetData, of which it keeps only nu, the frame
    that the trial steps project along."""

    r_phi_t: np.ndarray
    r_psi: np.ndarray
    norms: tuple[float, float]
    action: ActionBreakdown
    nu: np.ndarray


@dataclass
class FlowState:
    """An iterate (phi, psi), its Evaluation and the step control's state."""

    phi: np.ndarray
    psi: np.ndarray
    iteration: int
    step_size: float
    evaluation: Evaluation  # flow_step steps from it and never evaluates (phi, psi) again
    rejected: int = 0  # trial steps shrunk away before this one was accepted
    accepted_step: float = 0.0  # the dt that produced this state; 0 before the first step
    ramping: bool = True  # residual sectors: no trial of the solve rejected yet

    @property
    def residual_norms(self) -> tuple[float, float]:
        """The combined (L2, Linf) residual norms of the evaluation."""
        return self.evaluation.norms


@dataclass
class FlowReport:
    converged: bool
    iterations: int
    stop_reason: str = "max_iterations"  # or converged | stalled
    records: list[dict] = field(default_factory=list)


def _evaluate(phi, psi, chi, u, grid, target) -> tuple[np.ndarray, Evaluation]:
    """psi tangent-projected along phi, and the evaluation at it, from one TargetData
    and one FieldData: r_phi, r_psi and the action read its parts in that order,
    and the action takes each out as it reads it."""
    tdata = target_data(target, phi)
    if np.any(psi):  # the pure-map flow keeps its zeros, which are tangent
        psi = tangent_part_slots(tdata.nu, psi)
    fdata = field_data(phi, psi, chi, u, grid, target, tdata)
    r_phi = residual_phi(phi, psi, chi, u, grid, target, fdata=fdata)
    if fdata.has_psi or fdata.has_chi:
        r_psi = residual_psi(phi, psi, chi, u, grid, target, fdata=fdata)
    else:  # r_psi vanishes identically at psi = chi = 0: a read-only zero view, no array
        r_psi = np.broadcast_to(0.0, psi.shape)
    action = total_action(phi, psi, u, chi, grid, target, fdata=fdata)
    del fdata  # with any part the action did not read
    r_phi_t = tangent_part(tdata.nu, r_phi)
    combined = tangent_residual_norms(r_phi_t, r_psi, grid)["combined"]
    return psi, Evaluation(r_phi_t, r_psi, (combined["l2"], combined["linf"]), action, tdata.nu)


def _resolvent(rhs: np.ndarray, grid: Grid):
    """dt -> (I - dt div grad)^{-1} rhs for a (n1, n2, K) field.

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
    """The linearly implicit phi step at dt (psi is reprojected by its evaluation)."""
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
    from it without recomputing the residuals.  The rejected of a SolverError
    counts the trials the failing step evaluated.
    """
    phi, psi = state.phi, state.psi
    ev = state.evaluation
    if not (np.all(np.isfinite(ev.r_phi_t)) and np.all(np.isfinite(ev.r_psi))):
        raise SolverError("non-finite residual")

    pure_map = _is_pure_map(psi, chi, config)
    if config.mode != "psi-only":
        resolve = _resolvent(ev.r_phi_t, grid)

    dt = state.step_size
    if not math.isfinite(dt):  # shrinking would never reach the underflow test
        raise SolverError(f"non-finite step size: dt = {dt}")
    floor = 0.0 if pure_map else config.shrink**2 * state.accepted_step
    rejected = 0
    while True:
        if dt < DT_UNDERFLOW:
            raise SolverError(f"step size underflow: dt = {dt:.3e}", rejected)
        if dt < floor:
            raise SolverError(f"step size {dt:.3e} below the stall floor {floor:.3e}", rejected)
        phi_new, psi_new = phi, psi
        if config.mode != "psi-only":
            phi_new = _implicit_trial(phi, ev.nu, resolve, dt, target)
        if pure_map:
            accepted = _dirichlet_increment(phi_new, phi, grid) <= 0.0
        else:
            if config.mode != "phi-only":
                psi_new = psi - dt * ev.r_psi
            trial = None  # a rejected trial's arrays are freed before the next evaluation
            psi_new, trial = _evaluate(phi_new, psi_new, chi, u, grid, target)
            accepted = trial.norms[0] < ev.norms[0]
        if accepted:
            break
        dt *= config.shrink
        rejected += 1

    ramping = state.ramping and rejected == 0 and not pure_map
    if pure_map:
        trial = _evaluate(phi_new, psi_new, chi, u, grid, target)[1]
    return FlowState(
        phi=phi_new,
        psi=psi_new,
        iteration=state.iteration + 1,
        step_size=dt * (START_FACTOR if ramping else config.grow),
        evaluation=trial,
        rejected=rejected,
        accepted_step=dt,
        ramping=ramping,
    )


def solve(phi, psi, chi, u, grid, target, config: SolverConfig) -> tuple[FlowState, FlowReport]:
    """Iterate flow_step until the residual tolerance or max_iterations.

    The report carries one record per examined iterate (including the initial
    one): residual norms, step size, the trial steps rejected before it was
    accepted, and the full ActionBreakdown.  When a pure-map solve has a step
    to take, its first dt comes from the start-step search, and the initial
    record also carries the number of trials the search evaluated.  A
    SolverError appends a stall record with its detail and the trials the
    stalled step evaluated.  report.stop_reason is converged, stalled or
    max_iterations; reaching max_iterations yields converged=False, not an
    error.
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
            report.records.append({"stalled": True, "detail": str(exc),
                                   "rejected": exc.rejected})
            report.stop_reason = "stalled"
            break
        record(state)
    else:
        report.converged = state.residual_norms[0] < config.tolerance

    if report.converged:
        report.stop_reason = "converged"
    report.iterations = state.iteration
    return state, report
