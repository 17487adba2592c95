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
  strictly decreases, or halving while it does if the first doubling does
  not improve, at most START_DOUBLINGS times, and starts the flow one halving
  below the best d_k.  Accepted steps grow dt by `grow`.  The criterion-8
  benchmark at 32^2, 64^2 and 128^2 takes 23 iterations from
  initial_step = 1e-5, and 22/26/26 from 1e-1.  The increment of a trial a
  over the iterate b is taken exactly, as

      E(a) - E(b) = sum <d(a - b), d(a - b) + 2 db> h1 h2,

  from one grad of the step a - b and the iterate's own db, which its
  Evaluation keeps in this sector only: near convergence the two energies
  agree to machine precision while their difference still decides the step,
  and the only subtraction here is a - b itself.
* The other sectors accept a trial iff the combined residual L2 norm
  decreases; initial_step is the first trial dt.  A start ramp multiplies dt
  by START_FACTOR after each accepted step until the solve's first rejected
  trial, then by `grow`.  A stall floor ends the flow: a step whose trial dt
  falls below shrink^2 times the dt its previous step accepted raises
  SolverError (the first step has no previous one).  Evaluating a trial is
  the cost here, so the floor bounds the trials a stalled step spends.  From
  coupled64's inputs the flow reaches tolerance 10 in 11 iterations at 16^2
  to 128^2.

Rejected steps shrink dt by `shrink`; a trial that cannot be projected or
overflows (ConstraintError, FloatingPointError) is a rejected one.  A
non-finite dt or dt underflow below 1e-14 raises SolverError in every sector,
and solve records either error as a stall.

The gravitino and the conformal factor are parameters of the functional and
stay fixed, so solve builds one parameter action.FieldData of chi and u
(action.parameters) that lives for the whole solve: Gamma chi, |Q chi|^2 (one
q_project), the conformal weights e^{2u}, e^{3u} and e^{4u} and D_u's four
weights (seven u-sized exponentials), and nothing that reads phi or psi.  Each
evaluation of an iterate builds one TargetData and the FieldData of the fields,
which shares those parts, and hands both to the tangent map residual
(euler_lagrange._tangent_residual_phi), residual_psi and total_action: grad
phi, D_u psi, the gravitino coefficient and the Gauss parts M, c_l and A_l M
are computed once, as a part is built on first use and lives as long as its
FieldData.  The stencils run on component planes, the site axes last: d phi,
D_u psi, the divergence of the map source, the resolvent's rfft2 and irfft2
and the Dirichlet increment of a trial step.  The flow reads only P_T r_phi,
so the normal term of r_phi, which P_T annihilates, is never formed, and a
pure-map evaluation builds no frame derivative dnu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._planes import to_planes, to_sites
from .action import ActionBreakdown, FieldData, parameters, target_data, total_action
from .errors import ConstraintError, SolverError
from .euler_lagrange import _tangent_residual_phi, residual_psi, tangent_residual_norms
from .geometry import (Grid, TargetManifold, grad_planes, tangent_part, tangent_part_slots,
                       wide_laplacian_symbol)

__all__ = ["SolverConfig", "Evaluation", "FlowState", "FlowReport", "flow_step", "solve"]

DT_UNDERFLOW = 1e-14
START_FACTOR = 2.0  # the start-step search and the start ramp multiply dt by this
START_DOUBLINGS = 64  # the search doubles (or halves) at most this many times


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
    """Residuals of one iterate (the tangent part of r_phi, taken without its
    normal term, and r_psi), their combined (L2, Linf) norms, the action
    breakdown and the normal frame nu; all from the iterate's one TargetData, of
    which it keeps only nu, the frame that the trial steps project along.  At
    psi = chi = 0, where r_psi vanishes identically and is a read-only zero view,
    it also keeps the FieldData's d phi (2, K, n1, n2), against which the
    Dirichlet increment of a trial is taken; else dphi is None."""

    r_phi_t: np.ndarray
    r_psi: np.ndarray
    norms: tuple[float, float]
    action: ActionBreakdown
    nu: np.ndarray
    dphi: np.ndarray | None


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


def _evaluate(phi, psi, chi, u, grid, target,
              params: FieldData | None = None) -> tuple[np.ndarray, Evaluation]:
    """psi tangent-projected along phi, and the evaluation at it, from one TargetData
    and one FieldData, whose parts the tangent part of r_phi (_tangent_residual_phi,
    which forms no normal term, and no frame derivative at psi = 0), r_psi and the
    action share.  That FieldData is params.with_map(phi, psi, tdata), so it shares the
    parts of params, the parameter FieldData of chi and u on grid (action.parameters),
    which is built here when not handed in."""
    if params is None:
        params = parameters(chi, u, grid)
    tdata = target_data(target, phi)
    fdata = params.with_map(phi, psi, tdata)
    if fdata.has_psi:  # the pure-map flow keeps its zeros, which are tangent
        psi = tangent_part_slots(tdata.nu, psi)
        fdata = params.with_map(phi, psi, tdata)  # of the projected psi
    r_phi_t = _tangent_residual_phi(fdata)
    has_r_psi = fdata.has_psi or fdata.has_chi
    if has_r_psi:
        r_psi = residual_psi(phi, psi, chi, u, grid, target, fdata=fdata)
    else:  # r_psi vanishes identically at psi = chi = 0: a read-only zero view, no array
        r_psi = np.broadcast_to(0.0, psi.shape)
    action = total_action(phi, psi, u, chi, grid, target, fdata=fdata)
    dphi = None if has_r_psi else fdata.dphi
    del fdata  # with its other parts
    combined = tangent_residual_norms(r_phi_t, r_psi if has_r_psi else None, grid)["combined"]
    return psi, Evaluation(r_phi_t, r_psi, (combined["l2"], combined["linf"]), action, tdata.nu,
                           dphi)


def _resolvent(rhs: np.ndarray, grid: Grid):
    """dt -> (I - dt div grad)^{-1} rhs for a (n1, n2, K) field, as a site-major view.

    rhs is transformed once, on its component planes, whose site axes are the last two
    and contiguous; each dt costs one division and one irfft2.
    """
    rhs_hat = np.fft.rfft2(to_planes(rhs, 1))
    symbol = wide_laplacian_symbol(grid)
    return lambda dt: to_sites(np.fft.irfft2(rhs_hat / (1.0 + dt * symbol), s=grid.shape), 1)


def _dirichlet_increment(step, d_old, grid) -> float:
    """E(b + step) - E(b) of the Dirichlet energy E, without cancellation:
    sum <d step, d step + 2 db> h1 h2, with d_old = db component-major (2, K, n1, n2).

    Near convergence the raw energies agree to machine precision while the
    increment is still meaningful.  Here no two O(1) gradients are subtracted:
    the only subtraction is the step a - b, so the increment is exact to
    rounding relative to sum |d(a - b) . d(a + b)| h1 h2.  One grad of the
    step (n1, n2, K) on its component planes and one dot product with d_old.
    """
    d = grad_planes(to_planes(step, 1), grid)                        # (2, K, n1, n2)
    d_new = np.multiply(d_old, 2.0)
    d_new += d
    return float(np.vdot(d, d_new) * grid.cell_area)


def _is_pure_map(ev: Evaluation, config: SolverConfig) -> bool:
    """The sector of the implicit step and the Dirichlet accept test: psi = chi = 0 at the
    evaluated iterate, which then keeps d phi, and mode not psi-only."""
    return config.mode != "psi-only" and ev.dphi is not None


def _implicit_trial(phi, nu, resolve, dt, target: TargetManifold) -> np.ndarray:
    """The linearly implicit phi step at dt (psi is reprojected by its evaluation)."""
    return target.project(phi + dt * tangent_part(nu, resolve(dt)))


def _start_step(phi, ev: Evaluation, grid: Grid, target: TargetManifold,
                initial_step: float) -> tuple[float, int]:
    """The first trial dt of a pure-map solve and the number of trials evaluated.

    Doubles dt from initial_step while the Dirichlet increment of the trial
    strictly decreases, or halves it while it does if the first doubling does
    not improve (START_DOUBLINGS steps at most either way), and returns one
    halving below the best dt.  A first trial that raises the energy, or that
    cannot be projected, ends the search at initial_step, where the shrink loop
    of flow_step takes over; a later trial that cannot be projected ends it
    like one that does not improve.  Only one trial field is alive at a time.
    """
    resolve = _resolvent(ev.r_phi_t, grid)

    def increment(k):
        try:
            trial = _implicit_trial(phi, ev.nu, resolve, initial_step * START_FACTOR**k, target)
        except (ConstraintError, FloatingPointError):
            return math.inf
        return _dirichlet_increment(trial - phi, ev.dphi, grid)

    best, k_best, trials = increment(0), 0, 1
    if best > 0.0:
        return initial_step, trials
    for direction in (1, -1):  # halve only when the first doubling does not improve
        for j in range(1, START_DOUBLINGS + 1):
            trials += 1
            inc = increment(direction * j)
            if not inc < best:
                break
            best, k_best = inc, direction * j
        if k_best != 0:
            break
    return initial_step * START_FACTOR ** (k_best - 1), trials


def flow_step(state: FlowState, chi, u, grid: Grid, target: TargetManifold,
              config: SolverConfig, params: FieldData | None = None) -> FlowState:
    """One accepted step (shrinking dt until the acceptance rule passes).

    The returned state carries its own evaluation, so the next step starts
    from it without recomputing the residuals.  The rejected of a SolverError
    counts the trials the failing step evaluated.  params, the parameter
    FieldData of chi and u, is handed to every evaluation (see _evaluate).
    """
    phi, psi = state.phi, state.psi
    ev = state.evaluation
    # at psi = chi = 0 r_psi is the zero view: finite, and not multiplied out here
    if not (np.all(np.isfinite(ev.r_phi_t))
            and (ev.dphi is not None or np.all(np.isfinite(ev.r_psi)))):
        raise SolverError("non-finite residual")

    pure_map = _is_pure_map(ev, config)
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
        trial = None  # a rejected trial's arrays are freed before the next evaluation
        try:
            if config.mode != "psi-only":
                phi_new = _implicit_trial(phi, ev.nu, resolve, dt, target)
            if pure_map:
                accepted = _dirichlet_increment(phi_new - phi, ev.dphi, grid) <= 0.0
            else:
                if config.mode != "phi-only":
                    psi_new = psi - dt * ev.r_psi
                psi_new, trial = _evaluate(phi_new, psi_new, chi, u, grid, target, params)
                accepted = trial.norms[0] < ev.norms[0]
        except (ConstraintError, FloatingPointError):  # a trial that fails is a rejected one
            accepted = False
        if accepted:
            break
        dt *= config.shrink
        rejected += 1

    ramping = state.ramping and rejected == 0 and not pure_map
    if pure_map:
        trial = _evaluate(phi_new, psi_new, chi, u, grid, target, params)[1]
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
    error.  chi and u are parameters of the functional: their parts are built once, in
    one parameter FieldData that every evaluation of the solve shares.
    """
    phi = target.project(phi)
    params = parameters(chi, u, grid)
    psi, ev = _evaluate(phi, psi, chi, u, grid, target, params)
    step_size, start_trials = config.initial_step, None
    if (_is_pure_map(ev, config) and config.max_iterations > 0
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
            state = flow_step(state, chi, u, grid, target, config, params)
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
