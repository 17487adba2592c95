"""Projected gradient flow: benchmarks, determinism, constraint preservation."""

import json

import numpy as np
import pytest

from sigmalab.action import term_dirichlet, total_action
from sigmalab.errors import SolverError
from sigmalab.euler_lagrange import residual_norms, residuals
from sigmalab.fields import tangency_violation
from sigmalab.geometry import Grid, SphereTarget, ellipsoid_target, on_manifold_violation
from sigmalab.presets import (
    perturbed_equator_map,
    smooth_gravitino,
    smooth_map_field,
    smooth_scalar_field,
    smooth_vector_spinor,
)
from sigmalab.solver import FlowState, SolverConfig, flow_step, solve

TG = SphereTarget(3)


def _zeros(g):
    return np.zeros(g.shape + (3, 4)), np.zeros(g.shape + (2, 4)), np.zeros(g.shape)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        SolverConfig(shrink=1.5)
    with pytest.raises(ValueError):
        SolverConfig(mode="sideways")
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=-5)
    with pytest.raises(ValueError):
        SolverConfig(initial_step=-1.0)
    for bad in (
        {"initial_step": float("nan")},
        {"initial_step": float("inf")},
        {"grow": float("inf")},
        {"tolerance": float("nan")},
        {"shrink": float("nan")},
    ):
        with pytest.raises(ValueError):
            SolverConfig(**bad)


def test_critical_point_converges_in_zero_iterations():
    g = Grid(8, 8)
    psi0, chi0, u0 = _zeros(g)
    point = TG.project(np.array([0.2, -1.0, 0.4]))
    phi = np.broadcast_to(point, g.shape + (3,)).copy()
    state, report = solve(phi, psi0, chi0, u0, g, TG, SolverConfig(tolerance=1e-10))
    assert report.converged
    assert report.iterations == 0
    assert np.max(np.abs(state.phi - phi)) < 1e-14


def test_harmonic_flow_small_grid():
    g = Grid(32, 32)
    psi0, chi0, u0 = _zeros(g)
    phi0 = perturbed_equator_map(g, amplitude=0.05, seed=3)
    cfg = SolverConfig(max_iterations=20_000, tolerance=1e-5, initial_step=1e-5)
    state, report = solve(phi0, psi0, chi0, u0, g, TG, cfg)
    assert report.converged
    e = term_dirichlet(state.phi, u0, g)
    e_exact = (np.sin(2 * np.pi * g.h1) / g.h1) ** 2
    assert abs(e - e_exact) / e_exact < 1e-2
    assert on_manifold_violation(TG, state.phi) < 1e-9
    assert tangency_violation(state.psi, state.phi, TG) < 1e-9


def test_flow_is_deterministic():
    g = Grid(16, 16)
    psi0, chi0, u0 = _zeros(g)
    phi0 = perturbed_equator_map(g, amplitude=0.05, seed=4)
    cfg = SolverConfig(max_iterations=50, tolerance=1e-12)
    s1, r1 = solve(phi0, psi0, chi0, u0, g, TG, cfg)
    s2, r2 = solve(phi0, psi0, chi0, u0, g, TG, cfg)
    assert np.array_equal(s1.phi, s2.phi)
    assert json.dumps(r1.records) == json.dumps(r2.records)


def test_joint_flow_residual_non_increasing_over_accepted_steps():
    g = Grid(16, 16)
    phi0 = smooth_map_field(g, TG, seed=8, amplitude=0.3, modes=1)
    psi0 = smooth_vector_spinor(g, phi0, TG, seed=9, amplitude=0.05, modes=1)
    chi0 = smooth_gravitino(g, seed=10, amplitude=0.05, modes=1)
    u0 = np.zeros(g.shape)
    cfg = SolverConfig(max_iterations=25, tolerance=1e-14, initial_step=1e-5)
    _, report = solve(phi0, psi0, chi0, u0, g, TG, cfg)
    res = [rec["residual_l2"] for rec in report.records if "residual_l2" in rec]
    assert len(res) > 2
    assert all(b <= a for a, b in zip(res[1:], res[2:]))  # accepted steps decrease


def test_flow_modes_touch_expected_sectors():
    g = Grid(8, 8)
    phi0 = smooth_map_field(g, TG, seed=8, amplitude=0.3)
    # a gravitino source with zero spinor: the psi-only step from here is a
    # plain source-relaxation step and is accepted
    psi0 = np.zeros(g.shape + (3, 4))
    chi = smooth_gravitino(g, seed=9, amplitude=0.3)
    u0 = np.zeros(g.shape)
    state = FlowState(
        phi=phi0, psi=psi0, iteration=0,
        residual_norms=(1.0, 1.0), step_size=1e-3,
    )
    new = flow_step(state, chi, u0, g, TG, SolverConfig(mode="psi-only"))
    assert np.array_equal(new.phi, phi0)
    assert not np.array_equal(new.psi, psi0)
    new2 = flow_step(state, chi, u0, g, TG, SolverConfig(mode="phi-only"))
    assert not np.array_equal(new2.phi, phi0)


def test_dt_underflow_signaled():
    g = Grid(8, 8)
    psi0, chi0, u0 = _zeros(g)
    # at a constant map with zero spinor the psi-only residual vanishes, so no
    # trial step can strictly decrease it and dt must underflow
    point = TG.project(np.array([1.0, 0.0, 0.0]))
    phi_c = np.broadcast_to(point, g.shape + (3,)).copy()
    state = FlowState(phi=phi_c, psi=psi0, iteration=0,
                      residual_norms=(0.0, 0.0), step_size=1e-5)
    with pytest.raises(SolverError):
        flow_step(state, chi0 + 1e-3, u0, g, TG, SolverConfig(mode="psi-only"))


def test_solve_ends_without_crash_when_stalled():
    g = Grid(8, 8)
    psi0, _, u0 = _zeros(g)
    phi0 = perturbed_equator_map(g, amplitude=0.02, seed=5)
    chi = smooth_gravitino(g, seed=11, amplitude=0.05)
    cfg = SolverConfig(max_iterations=40, tolerance=1e-300, mode="psi-only",
                       initial_step=1e-6)
    _, report = solve(phi0, psi0, chi, u0, g, TG, cfg)
    assert not report.converged
    stalled = any(rec.get("stalled") for rec in report.records)
    assert stalled or report.iterations == 40


def test_last_record_is_action_of_returned_state():
    g = Grid(16, 16)
    phi0 = smooth_map_field(g, TG, seed=8, amplitude=0.3, modes=1)
    psi0 = smooth_vector_spinor(g, phi0, TG, seed=9, amplitude=0.05, modes=1)
    chi0 = smooth_gravitino(g, seed=10, amplitude=0.05, modes=1)
    u0 = smooth_scalar_field(g, seed=11, amplitude=0.2)
    cfg = SolverConfig(max_iterations=10, tolerance=1e-14, initial_step=1e-5)
    state, report = solve(phi0, psi0, chi0, u0, g, TG, cfg)
    last = report.records[-1]
    assert last["iteration"] == state.iteration > 0
    expected = total_action(state.phi, state.psi, u0, chi0, g, TG).to_dict()
    assert last["action"] == expected


ET = ellipsoid_target([1.0, 1.3, 0.8])


def _ellipsoid_joint_solve():
    """Ten joint steps on a non-round target, with u != 0."""
    g = Grid(16, 16)
    phi0 = smooth_map_field(g, ET, seed=8, amplitude=0.3, modes=1)
    psi0 = smooth_vector_spinor(g, phi0, ET, seed=9, amplitude=0.05, modes=1)
    chi0 = smooth_gravitino(g, seed=10, amplitude=0.05, modes=1)
    u0 = smooth_scalar_field(g, seed=11, amplitude=0.2)
    cfg = SolverConfig(max_iterations=10, tolerance=1e-14, initial_step=1e-5)
    state, report = solve(phi0, psi0, chi0, u0, g, ET, cfg)
    return g, chi0, u0, state, report


def test_joint_flow_on_ellipsoid_keeps_constraints_and_descends():
    g, chi0, u0, state, report = _ellipsoid_joint_solve()
    assert state.iteration > 0
    assert on_manifold_violation(ET, state.phi) <= 1e-9
    assert tangency_violation(state.psi, state.phi, ET) <= 1e-9
    res = [rec["residual_l2"] for rec in report.records if "residual_l2" in rec]
    assert all(b <= a for a, b in zip(res, res[1:]))
    expected = total_action(state.phi, state.psi, u0, chi0, g, ET).to_dict()
    assert report.records[-1]["action"] == expected


def test_residual_norms_take_tangent_part_on_ellipsoid():
    g, chi0, u0, state, _ = _ellipsoid_joint_solve()
    res = residuals(state.phi, state.psi, chi0, u0, g, ET)
    norms = residual_norms(res, g, ET, state.phi)["phi"]
    rp = np.einsum("xyab,xyb->xya", ET.tangent_projector(state.phi), res.r_phi)
    l2 = np.sqrt(np.sum(rp * rp) * g.cell_area)
    linf = np.max(np.abs(rp))
    assert abs(norms["l2"] - l2) <= 1e-14 * l2
    assert abs(norms["linf"] - linf) <= 1e-14 * linf
