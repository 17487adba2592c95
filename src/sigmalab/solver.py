"""Projected gradient flow toward critical points of the discrete action.

The map field descends its sector of the action (phi <- project(phi + dt r_phi),
the heat-flow direction: the coordinate gradient is -2 h1 h2 r_phi), while the
vector-spinor sector seeks zeros of its residual with psi <- Pi(psi - dt r_psi);
the Dirac term makes the action unbounded in psi, so "progress" there is
defined by the residual norm, not by descent.

Step control is accept/reject: in the pure map sector (psi = chi = 0) a trial
step is accepted iff the Dirichlet energy does not increase, otherwise iff the
combined residual L2 norm decreases.  Accepted steps grow dt, rejected steps
shrink it; dt underflow below 1e-14 raises SolverError.  The gravitino and the
conformal factor are parameters of the functional and stay fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .action import ActionBreakdown, target_data, total_action
from .errors import SolverError
from .euler_lagrange import ELResidual, residual_norms, residuals
from .fields import tangency_project
from .geometry import Grid, TargetManifold, grad

__all__ = ["SolverConfig", "Evaluation", "FlowState", "FlowReport", "flow_step", "solve"]

DT_UNDERFLOW = 1e-14


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
    """Residuals of one iterate, their combined (L2, Linf) norms and the
    action breakdown; the residuals and the action share one TargetData."""

    residual: ELResidual
    norms: tuple[float, float]
    action: ActionBreakdown | None = None


@dataclass
class FlowState:
    phi: np.ndarray
    psi: np.ndarray
    iteration: int
    residual_norms: tuple[float, float]  # combined (L2, Linf)
    step_size: float
    # evaluation of (phi, psi); flow_step computes it when None
    evaluation: Evaluation | None = None


@dataclass
class FlowReport:
    converged: bool
    iterations: int
    records: list[dict] = field(default_factory=list)


def _evaluate(phi, psi, chi, u, grid, target) -> Evaluation:
    tdata = target_data(target, phi)
    res = residuals(phi, psi, chi, u, grid, target, check=False, tdata=tdata)
    combined = residual_norms(res, grid, target, phi)["combined"]
    action = total_action(phi, psi, u, chi, grid, target, check=False, tdata=tdata)
    return Evaluation(res, (combined["l2"], combined["linf"]), action)


def _dirichlet_increment(phi_new, phi_old, grid) -> float:
    """E(phi_new) - E(phi_old) without cancellation: sum <d(a-b), d(a+b)>.

    Near convergence the raw energies agree to machine precision while the
    increment is still meaningful; this form resolves it exactly.
    """
    d_diff = grad(phi_new - phi_old, grid)
    d_sum = grad(phi_new + phi_old, grid)
    return float(np.sum(d_diff * d_sum) * grid.cell_area)


def flow_step(state: FlowState, chi, u, grid: Grid, target: TargetManifold,
              config: SolverConfig) -> FlowState:
    """One accepted step (shrinking dt until the acceptance rule passes).

    The returned state carries its own evaluation, so the next step starts
    from it without recomputing the residuals.
    """
    phi, psi = state.phi, state.psi
    ev = state.evaluation or _evaluate(phi, psi, chi, u, grid, target)
    res = ev.residual
    if not (np.all(np.isfinite(res.r_phi)) and np.all(np.isfinite(res.r_psi))):
        raise SolverError("non-finite residual")

    pure_map = (
        config.mode != "psi-only"
        and not np.any(psi)
        and not np.any(chi)
    )

    rp_t = target.tangent_project(phi, res.r_phi)
    dt = state.step_size
    while True:
        if dt < DT_UNDERFLOW:
            raise SolverError(f"step size underflow: dt = {dt:.3e}")
        phi_new, psi_new = phi, psi
        if config.mode != "psi-only":
            phi_new = target.project(phi + dt * rp_t)
        if not pure_map:  # psi = 0 is tangent along every phi
            if config.mode != "phi-only":
                psi_new = psi - dt * res.r_psi
            psi_new = tangency_project(psi_new, phi_new, target)

        if pure_map:
            accepted = _dirichlet_increment(phi_new, phi, grid) <= 0.0
            trial = None
        else:
            trial = _evaluate(phi_new, psi_new, chi, u, grid, target)
            accepted = trial.norms[0] < ev.norms[0]
        if accepted:
            break
        dt *= config.shrink

    if trial is None:
        trial = _evaluate(phi_new, psi_new, chi, u, grid, target)
    return FlowState(
        phi=phi_new,
        psi=psi_new,
        iteration=state.iteration + 1,
        residual_norms=trial.norms,
        step_size=dt * config.grow,
        evaluation=trial,
    )


def solve(phi, psi, chi, u, grid, target, config: SolverConfig) -> tuple[FlowState, FlowReport]:
    """Iterate flow_step until the residual tolerance or max_iterations.

    The report carries one record per examined iterate (including the initial
    one): residual norms, step size, and the full ActionBreakdown.  Reaching
    max_iterations yields converged=False, not an error.
    """
    phi = target.project(phi)
    psi = tangency_project(psi, phi, target)
    ev = _evaluate(phi, psi, chi, u, grid, target)
    state = FlowState(
        phi=phi,
        psi=psi,
        iteration=0,
        residual_norms=ev.norms,
        step_size=config.initial_step,
        evaluation=ev,
    )
    report = FlowReport(converged=False, iterations=0)

    def record(st: FlowState):
        report.records.append(
            {
                "iteration": st.iteration,
                "step_size": st.step_size,
                "residual_l2": st.residual_norms[0],
                "residual_linf": st.residual_norms[1],
                "action": st.evaluation.action.to_dict(),
            }
        )

    record(state)
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
