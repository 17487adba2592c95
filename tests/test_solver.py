"""Projected gradient flow: benchmarks, determinism, constraint preservation."""

import json
import tracemalloc

import numpy as np
import pytest

from sigmalab.action import term_dirichlet, total_action
from sigmalab.errors import ConstraintError, SolverError
from sigmalab.euler_lagrange import residual_norms, residual_phi, residual_psi, residuals
from sigmalab.fields import tangency_violation
from sigmalab.geometry import (
    Grid,
    SphereTarget,
    ellipsoid_target,
    grad,
    on_manifold_violation,
    wide_laplacian,
)
from sigmalab.presets import (
    perturbed_equator_map,
    smooth_gravitino,
    smooth_map_field,
    smooth_scalar_field,
    smooth_vector_spinor,
)
from sigmalab import action, euler_lagrange, fields, geometry, solver
from sigmalab.solver import FlowState, SolverConfig, _resolvent, flow_step, solve

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


def test_non_finite_step_size_signaled():
    g = Grid(8, 8)
    psi0, chi0, u0 = _zeros(g)
    phi0 = perturbed_equator_map(g, amplitude=0.05, seed=3)
    state = FlowState(phi=phi0, psi=psi0, iteration=0,
                      residual_norms=(1.0, 1.0), step_size=float("inf"))
    with pytest.raises(SolverError, match="non-finite step"):
        flow_step(state, chi0, u0, g, TG, SolverConfig())


def test_overflowing_step_fails_in_the_projection():
    g = Grid(8, 8)
    psi0, chi0, u0 = _zeros(g)
    phi0 = perturbed_equator_map(g, amplitude=0.05, seed=3)
    with np.errstate(over="ignore"), pytest.raises(ConstraintError, match="cannot project"):
        solve(phi0, psi0, chi0, u0, g, TG, SolverConfig(initial_step=1e300))


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


@pytest.mark.parametrize("n1, n2", [(12, 20), (15, 17)])
@pytest.mark.parametrize("dt", [1e-3, 10.0])
def test_resolvent_inverts_wide_laplacian_step(n1, n2, dt):
    g = Grid(n1, n2)
    r = np.random.default_rng(n1 * n2).standard_normal(g.shape + (3,))
    w = _resolvent(r, g)(dt)
    back = w - dt * wide_laplacian(w, g)
    assert np.max(np.abs(back - r)) <= 1e-12 * np.max(np.abs(r))


@pytest.mark.parametrize("n", [32, 64])
def test_pure_map_iterations_do_not_grow_with_resolution(n):
    # the criterion-8 problem; the explicit flow needed about 1218 steps at 64^2
    g = Grid(n, n)
    psi0, chi0, u0 = _zeros(g)
    phi0 = perturbed_equator_map(g, amplitude=0.05, seed=3)
    cfg = SolverConfig(max_iterations=150, tolerance=1e-6, initial_step=1e-5)
    state, report = solve(phi0, psi0, chi0, u0, g, TG, cfg)
    assert report.converged
    assert state.residual_norms[0] < 1e-6


def _rectangular_equator():
    g = Grid(32, 48)
    return g, TG, perturbed_equator_map(g, amplitude=0.05, seed=3)


def _ellipsoid_smooth_map():
    g = Grid(32, 32)
    return g, ET, smooth_map_field(g, ET, seed=8, amplitude=0.3, modes=1)


@pytest.mark.parametrize("problem", [_rectangular_equator, _ellipsoid_smooth_map],
                         ids=["sphere-32x48", "ellipsoid-32x32"])
def test_pure_map_flow_converges_and_descends(problem):
    g, target, phi0 = problem()
    psi0, chi0, u0 = _zeros(g)
    cfg = SolverConfig(max_iterations=1000, tolerance=1e-6, initial_step=1e-5)
    state, report = solve(phi0, psi0, chi0, u0, g, target, cfg)
    assert report.converged
    assert on_manifold_violation(target, state.phi) <= 1e-9
    energy = [rec["action"]["I_dirichlet"] for rec in report.records]
    assert all(b <= a for a, b in zip(energy, energy[1:]))


@pytest.mark.parametrize("coupled", [False, True], ids=["pure-map", "joint"])
def test_recorded_norms_equal_residual_norms(coupled):
    g = Grid(16, 16)
    psi0, chi0, u0 = _zeros(g)
    phi0 = smooth_map_field(g, TG, seed=8, amplitude=0.3, modes=1)
    if coupled:
        psi0 = smooth_vector_spinor(g, phi0, TG, seed=9, amplitude=0.05, modes=1)
        chi0 = smooth_gravitino(g, seed=10, amplitude=0.05, modes=1)
    cfg = SolverConfig(max_iterations=3, tolerance=1e-14)
    state, report = solve(phi0, psi0, chi0, u0, g, TG, cfg)
    norms = residual_norms(residuals(state.phi, state.psi, chi0, u0, g, TG), g, TG,
                           state.phi)["combined"]
    assert report.records[-1]["residual_l2"] == norms["l2"]
    assert report.records[-1]["residual_linf"] == norms["linf"]


def test_pure_map_flow_never_evaluates_the_spinor_residual(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("residual_psi called at psi = chi = 0")

    monkeypatch.setattr(solver, "residual_psi", fail)
    g = Grid(16, 16)
    psi0, chi0, u0 = _zeros(g)
    phi0 = perturbed_equator_map(g, amplitude=0.05, seed=3)
    _, report = solve(phi0, psi0, chi0, u0, g, TG, SolverConfig(max_iterations=5))
    assert report.iterations == 5


def test_flow_report_counts_rejected_trials():
    g = Grid(16, 16)
    phi0 = smooth_map_field(g, TG, seed=8, amplitude=0.3, modes=1)
    psi0 = smooth_vector_spinor(g, phi0, TG, seed=9, amplitude=0.05, modes=1)
    chi0 = smooth_gravitino(g, seed=10, amplitude=0.05, modes=1)
    cfg = SolverConfig(max_iterations=25, tolerance=1e-14, initial_step=1.0)
    _, report = solve(phi0, psi0, chi0, np.zeros(g.shape), g, TG, cfg)
    records = [rec for rec in report.records if "stalled" not in rec]
    assert records[0]["rejected"] == 0
    for prev, rec in zip(records, records[1:]):
        dt = prev["step_size"]
        for _ in range(rec["rejected"]):
            dt *= cfg.shrink
        assert rec["step_size"] == dt * cfg.grow
    assert any(rec["rejected"] >= 1 for rec in records)


def _count_frames_per_evaluation(monkeypatch, target):
    """Wrap target.normal_frame and solver._evaluate; return the two counters."""
    counts = {"frames": 0, "evaluations": 0}
    frame, evaluate = target.normal_frame, solver._evaluate

    def counted_frame(p):
        counts["frames"] += 1
        return frame(p)

    def counted_evaluate(*args, **kwargs):
        counts["evaluations"] += 1
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(target, "normal_frame", counted_frame)
    monkeypatch.setattr(solver, "_evaluate", counted_evaluate)
    return counts


@pytest.mark.parametrize("coupled", [False, True], ids=["pure-map", "joint"])
def test_solve_computes_one_normal_frame_per_evaluation(monkeypatch, coupled):
    g = Grid(16, 16)
    tg = SphereTarget(3)
    psi0, chi0, u0 = _zeros(g)
    phi0 = perturbed_equator_map(g, amplitude=0.05, seed=3)
    if coupled:
        phi0 = smooth_map_field(g, tg, seed=8, amplitude=0.3, modes=1)
        psi0 = smooth_vector_spinor(g, phi0, tg, seed=9, amplitude=0.05, modes=1)
        chi0 = smooth_gravitino(g, seed=10, amplitude=0.05, modes=1)
    counts = _count_frames_per_evaluation(monkeypatch, tg)
    _, report = solve(phi0, psi0, chi0, u0, g, tg, SolverConfig(max_iterations=10))
    assert report.iterations == 10
    assert counts["evaluations"] >= 11
    assert counts["evaluations"] <= counts["frames"] <= counts["evaluations"] + 1


def _ellipsoid_fields(g):
    """phi, psi, chi and u all nonzero on the ellipsoid (1.0, 1.3, 0.8), where SnR runs."""
    te = ellipsoid_target([1.0, 1.3, 0.8])
    phi0 = te.project(smooth_map_field(g, TG, seed=8, amplitude=0.3, modes=1))
    psi0 = smooth_vector_spinor(g, phi0, te, seed=9, amplitude=0.05, modes=1)
    chi0 = smooth_gravitino(g, seed=10, amplitude=0.05, modes=1)
    u0 = smooth_scalar_field(g, seed=11, amplitude=0.2, modes=1)
    return te, phi0, psi0, chi0, u0


def test_flow_evaluation_equals_the_standalone_residuals_and_action_on_the_ellipsoid():
    g = Grid(16, 16)
    te, phi0, psi0, chi0, u0 = _ellipsoid_fields(g)
    state, _ = solve(phi0, psi0, chi0, u0, g, te, SolverConfig(max_iterations=2, tolerance=1e-14))
    ev = state.evaluation
    r_phi = residual_phi(state.phi, state.psi, chi0, u0, g, te)
    assert np.array_equal(ev.r_phi_t, te.tangent_project(state.phi, r_phi))
    assert np.array_equal(ev.r_psi, residual_psi(state.phi, state.psi, chi0, u0, g, te))
    assert ev.action == total_action(state.phi, state.psi, u0, chi0, g, te)


def _count_shared_parts(monkeypatch) -> dict:
    """Count grad (under every name that binds it) and the Gauss parts built."""
    counts = {"grad": 0, "gauss": 0}
    grad_fn = geometry.grad

    def counted_grad(*args, **kwargs):
        counts["grad"] += 1
        return grad_fn(*args, **kwargs)

    for module in (geometry, fields, action, euler_lagrange, solver):
        if getattr(module, "grad", None) is grad_fn:
            monkeypatch.setattr(module, "grad", counted_grad)

    class CountedGaussParts(action.GaussParts):
        def __init__(self, *args, **kwargs):
            counts["gauss"] += 1
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(action, "GaussParts", CountedGaussParts)
    return counts


@pytest.mark.parametrize("target", ["sphere", "ellipsoid"])
def test_joint_evaluation_shares_grad_and_the_gauss_parts(monkeypatch, target):
    # one grad of phi plus the two of D_u psi and its adjoint; one set of Gauss parts
    # for SR, R and (on the ellipsoid) SnR
    g = Grid(16, 16)
    te, phi, psi, chi, u = _ellipsoid_fields(g)
    if target == "sphere":
        te, phi = TG, smooth_map_field(g, TG, seed=8, amplitude=0.3, modes=1)
        psi = smooth_vector_spinor(g, phi, TG, seed=9, amplitude=0.05, modes=1)
    counts = _count_shared_parts(monkeypatch)
    solver._evaluate(phi, psi, chi, u, g, te)
    assert counts["grad"] <= 3
    assert counts["gauss"] == 1


def test_pure_map_evaluation_takes_one_grad(monkeypatch):
    g = Grid(16, 16)
    psi0, chi0, u0 = _zeros(g)
    counts = _count_shared_parts(monkeypatch)
    solver._evaluate(perturbed_equator_map(g, amplitude=0.05, seed=3), psi0, chi0, u0, g, TG)
    assert counts == {"grad": 1, "gauss": 0}


@pytest.mark.parametrize("shape", [(8, 8), (12, 20), (33, 17)])
def test_dirichlet_increment_equals_two_grad_form_bit_for_bit(shape):
    g = Grid(*shape)
    r = np.random.default_rng(shape[0] * shape[1])
    for k in (1, 3):
        a = r.standard_normal(g.shape + (k,))
        b = r.standard_normal(g.shape + (k,))
        two_calls = float(np.sum(grad(a - b, g) * grad(a + b, g)) * g.cell_area)
        assert solver._dirichlet_increment(a, b, g) == two_calls


def _criterion_8_inputs(n):
    g = Grid(n, n)
    return g, perturbed_equator_map(g, amplitude=0.05, seed=3), _zeros(g)


@pytest.mark.parametrize("n", [32, 64, 128])
def test_start_search_takes_criterion_8_to_its_working_step(n):
    # growing dt by 1.1 from 1e-5 took 94 iterations at each of these sizes
    g, phi0, (psi0, chi0, u0) = _criterion_8_inputs(n)
    cfg = SolverConfig(max_iterations=100_000, tolerance=1e-6, initial_step=1e-5)
    state, report = solve(phi0, psi0, chi0, u0, g, TG, cfg)
    assert report.converged
    assert report.iterations <= 30
    assert all(rec["rejected"] == 0 for rec in report.records)
    assert 1 < report.records[0]["start_trials"] <= solver.START_DOUBLINGS + 1
    assert report.records[0]["step_size"] > cfg.initial_step
    e = term_dirichlet(state.phi, u0, g)
    e_exact = (np.sin(2 * np.pi * g.h1) / g.h1) ** 2
    assert abs(e - e_exact) / e_exact < 1e-2


def test_start_search_stops_when_the_first_trial_raises_the_energy():
    g = Grid(16, 16)
    psi0, chi0, u0 = _zeros(g)
    phi0 = TG.project(perturbed_equator_map(g, amplitude=0.05, seed=3))
    cfg = SolverConfig(max_iterations=6, tolerance=1e-14, initial_step=1.0)
    _, report = solve(phi0, psi0, chi0, u0, g, TG, cfg)
    assert report.records[0]["start_trials"] == 1
    assert report.records[0]["step_size"] == cfg.initial_step
    # the shrink loop runs as it does from any first trial dt
    state = FlowState(phi=phi0, psi=psi0, iteration=0, residual_norms=(1.0, 1.0),
                      step_size=cfg.initial_step)
    for rec in report.records[1:]:
        state = flow_step(state, chi0, u0, g, TG, cfg)
        assert rec["rejected"] == state.rejected
        assert rec["step_size"] == state.step_size
    assert report.records[1]["rejected"] >= 1
    assert report.records[1]["step_size"] == (
        cfg.initial_step * cfg.shrink ** report.records[1]["rejected"] * cfg.grow)


def _improving_forever(monkeypatch):
    calls = {"n": 0}

    def increment(phi_new, phi_old, grid):
        calls["n"] += 1
        return -float(calls["n"])

    monkeypatch.setattr(solver, "_dirichlet_increment", increment)


def test_start_search_stops_at_the_doubling_cap(monkeypatch):
    _improving_forever(monkeypatch)
    g, phi0, (psi0, chi0, u0) = _criterion_8_inputs(16)
    cfg = SolverConfig(max_iterations=1, tolerance=1e-14, initial_step=1e-5)
    state, report = solve(phi0, psi0, chi0, u0, g, TG, cfg)
    first = report.records[0]
    assert first["start_trials"] == solver.START_DOUBLINGS + 1
    assert first["step_size"] == cfg.initial_step * 2.0 ** (solver.START_DOUBLINGS - 1)
    assert np.isfinite(first["step_size"])
    assert report.iterations == 1
    assert on_manifold_violation(TG, state.phi) < 1e-9


def test_start_search_ends_at_a_trial_that_cannot_be_projected(monkeypatch):
    _improving_forever(monkeypatch)
    g, phi0, (psi0, chi0, u0) = _criterion_8_inputs(16)
    cfg = SolverConfig(max_iterations=1, tolerance=1e-14, initial_step=1e140)
    with np.errstate(over="ignore"):
        state, report = solve(phi0, psi0, chi0, u0, g, TG, cfg)
    first = report.records[0]
    assert 2 < first["start_trials"] <= solver.START_DOUBLINGS
    assert first["step_size"] == cfg.initial_step * 2.0 ** (first["start_trials"] - 3)
    assert report.iterations == 1


@pytest.mark.parametrize("mode", ["joint", "phi-only", "psi-only"])
def test_other_sectors_start_at_initial_step(mode):
    g = Grid(16, 16)
    phi0 = smooth_map_field(g, TG, seed=8, amplitude=0.3, modes=1)
    psi0 = smooth_vector_spinor(g, phi0, TG, seed=9, amplitude=0.05, modes=1)
    chi0 = smooth_gravitino(g, seed=10, amplitude=0.05, modes=1)
    cfg = SolverConfig(max_iterations=2, tolerance=1e-14, initial_step=1e-3, mode=mode)
    _, report = solve(phi0, psi0, chi0, np.zeros(g.shape), g, TG, cfg)
    assert report.records[0]["step_size"] == cfg.initial_step
    assert all("start_trials" not in rec for rec in report.records)


def test_no_start_search_without_a_step_to_take(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("start-step search ran")

    monkeypatch.setattr(solver, "_start_step", fail)
    g, phi0, (psi0, chi0, u0) = _criterion_8_inputs(16)
    _, report = solve(phi0, psi0, chi0, u0, g, TG, SolverConfig(max_iterations=0))
    assert report.records[0]["step_size"] == SolverConfig().initial_step
    assert "start_trials" not in report.records[0]


def test_joint_evaluation_transient_memory_is_bounded():
    # coupled64's inputs: before the component-major evaluation one evaluation peaked
    # at 9.9 psi.nbytes above its entry; the bound is that plus one psi-sized array
    g = Grid(64, 64)
    phi = smooth_map_field(g, TG, seed=5, amplitude=0.4, modes=2)
    psi = smooth_vector_spinor(g, phi, TG, seed=7, amplitude=0.1, modes=2)
    chi = smooth_gravitino(g, seed=9, amplitude=0.1, modes=2)
    u = smooth_scalar_field(g, seed=11, amplitude=0.3, modes=2)
    psi, _ = solver._evaluate(phi, psi, chi, u, g, TG)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        solver._evaluate(phi, psi, chi, u, g, TG)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert peak <= 11 * psi.nbytes


def _coupled64_inputs(n):
    """coupled64's fields at n^2: smooth phi (0.4), psi and chi (0.1) and u (0.3) on S^2,
    two modes, seeds 5/7/9/11."""
    g = Grid(n, n)
    phi = smooth_map_field(g, TG, seed=5, amplitude=0.4, modes=2)
    psi = smooth_vector_spinor(g, phi, TG, seed=7, amplitude=0.1, modes=2)
    chi = smooth_gravitino(g, seed=9, amplitude=0.1, modes=2)
    u = smooth_scalar_field(g, seed=11, amplitude=0.3, modes=2)
    return g, phi, psi, chi, u


@pytest.mark.parametrize("n", [16, 32, 64])
def test_joint_flow_takes_coupled64_to_tolerance_in_a_few_steps(n):
    # explicit phi steps growing dt by 1.1 from 1e-5 took 50 iterations at each size
    g, phi, psi, chi, u = _coupled64_inputs(n)
    state, report = solve(phi, psi, chi, u, g, TG, SolverConfig(max_iterations=1000,
                                                               tolerance=10.0))
    assert report.converged
    assert report.iterations <= 12
    assert all(rec["rejected"] == 0 for rec in report.records)
    assert report.stop_reason == "converged"
    assert on_manifold_violation(TG, state.phi) <= 1e-9
    assert tangency_violation(state.psi, state.phi, TG) <= 1e-9


def test_joint_step_doubles_until_the_first_rejection():
    g, phi, psi, chi, u = _coupled64_inputs(16)
    cfg = SolverConfig(max_iterations=60, tolerance=1e-8)
    _, report = solve(phi, psi, chi, u, g, TG, cfg)
    records = [rec for rec in report.records if "stalled" not in rec]
    first = next(k for k, rec in enumerate(records) if rec["rejected"])
    assert first > 2
    for k, rec in enumerate(records[:first]):
        assert rec["step_size"] == cfg.initial_step * 2.0**k
    rec = records[first]
    assert rec["step_size"] == (
        records[first - 1]["step_size"] * cfg.shrink ** rec["rejected"] * cfg.grow)


def test_ramp_ends_for_good_at_the_first_rejection():
    # after a rejected trial an accepted step grows dt by grow, not by START_FACTOR
    g, phi, psi, chi, u = _coupled64_inputs(16)
    psi, ev = solver._evaluate(phi, psi, chi, u, g, TG)
    cfg = SolverConfig()
    for ramping, factor in ((True, solver.START_FACTOR), (False, cfg.grow)):
        state = FlowState(phi=phi, psi=psi, iteration=3, residual_norms=ev.norms,
                          step_size=1e-5, evaluation=ev, ramping=ramping)
        new = flow_step(state, chi, u, g, TG, cfg)
        assert new.rejected == 0
        assert new.accepted_step == 1e-5
        assert new.step_size == 1e-5 * factor
        assert new.ramping is ramping
    state = FlowState(phi=phi, psi=psi, iteration=3, residual_norms=ev.norms,
                      step_size=1.0, evaluation=ev)
    new = flow_step(state, chi, u, g, TG, cfg)
    assert new.rejected >= 1 and not new.ramping
    assert new.step_size == cfg.shrink ** new.rejected * cfg.grow


def test_residual_sector_step_stalls_below_the_floor_of_its_previous_step():
    g, phi, psi, chi, u = _coupled64_inputs(16)
    psi, ev = solver._evaluate(phi, psi, chi, u, g, TG)
    cfg = SolverConfig()

    def step(accepted_step):
        state = FlowState(phi=phi, psi=psi, iteration=1, residual_norms=ev.norms,
                          step_size=1.0, evaluation=ev, accepted_step=accepted_step)
        return flow_step(state, chi, u, g, TG, cfg)

    # without a previous step only the underflow test applies: dt shrinks until accepted
    first = step(0.0)
    assert (first.rejected, first.accepted_step) == (3, 0.125)
    # floor 0.25: the trials at 1, 0.5 and 0.25 are evaluated and rejected, 0.125 is not
    with pytest.raises(SolverError, match="stall floor") as err:
        step(1.0)
    assert err.value.rejected == 3


def test_pure_map_step_has_no_stall_floor():
    g = Grid(16, 16)
    psi0, chi0, u0 = _zeros(g)
    phi0 = TG.project(perturbed_equator_map(g, amplitude=0.05, seed=3))
    state = FlowState(phi=phi0, psi=psi0, iteration=1, residual_norms=(1.0, 1.0),
                      step_size=100.0, accepted_step=100.0)
    new = flow_step(state, chi0, u0, g, TG, SolverConfig())
    assert new.rejected > 2
    assert new.step_size == 100.0 * 0.5**new.rejected * 1.1


def test_report_names_why_the_solve_stopped():
    g, phi, psi, chi, u = _coupled64_inputs(16)
    _, report = solve(phi, psi, chi, u, g, TG, SolverConfig(max_iterations=3, tolerance=1e-8))
    assert (report.converged, report.stop_reason) == (False, "max_iterations")
    _, report = solve(phi, psi, chi, u, g, TG, SolverConfig(max_iterations=60, tolerance=1e-8))
    assert (report.converged, report.stop_reason) == (False, "stalled")
    stall = report.records[-1]
    assert stall["stalled"] is True and stall["rejected"] >= 1
    assert "stall floor" in stall["detail"]
    # convergence at the last allowed iteration is convergence
    _, report = solve(phi, psi, chi, u, g, TG, SolverConfig(max_iterations=11, tolerance=10.0))
    assert (report.iterations, report.converged, report.stop_reason) == (11, True, "converged")


@pytest.mark.parametrize("n", [32, 64])
def test_rejected_trials_do_not_raise_the_step_peak(n):
    # a rejected trial's evaluation is freed before the next trial is evaluated; holding
    # it put the peak of a rejecting step 1.5-1.8 psi.nbytes above that of a step with none
    g, phi, psi, chi, u = _coupled64_inputs(n)
    psi, ev = solver._evaluate(phi, psi, chi, u, g, TG)
    cfg = SolverConfig(initial_step=1.0)

    def traced_step(dt):
        state = FlowState(phi=phi, psi=psi, iteration=0, residual_norms=ev.norms,
                          step_size=dt, evaluation=ev)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            new = flow_step(state, chi, u, g, TG, cfg)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        return new.rejected, peak

    flow_step(FlowState(phi=phi, psi=psi, iteration=0, residual_norms=ev.norms,
                        step_size=1e-5, evaluation=ev), chi, u, g, TG, cfg)  # warm caches
    rejected_none, peak_none = traced_step(1e-5)
    rejected, peak = traced_step(cfg.initial_step)
    assert rejected_none == 0 and rejected >= 2
    assert peak - peak_none <= 0.5 * psi.nbytes
