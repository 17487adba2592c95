"""Projected gradient flow: benchmarks, determinism, constraint preservation."""

import functools
import json
from fractions import Fraction
import tracemalloc

import numpy as np
import pytest

from sigmalab.action import field_data, total_action
from sigmalab.errors import SolverError
from sigmalab.euler_lagrange import (residual_norms, residual_psi, residuals,
                                     tangent_residual_norms)
from sigmalab.fields import frame_violation
from sigmalab.geometry import (
    Grid,
    SphereTarget,
    TargetData,
    div,
    ellipsoid_target,
    grad,
    on_manifold_violation,
)
from sigmalab.presets import (
    perturbed_equator_map,
    smooth_gravitino,
    smooth_map_field,
    smooth_scalar_field,
    smooth_vector_spinor,
)
from sigmalab import action, clifford, euler_lagrange, fields, geometry, solver
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
    e = total_action(state.phi, state.psi, u0, chi0, g, TG).I_dirichlet
    e_exact = (np.sin(2 * np.pi * g.h1) / g.h1) ** 2
    assert abs(e - e_exact) / e_exact < 1e-2
    assert on_manifold_violation(TG, state.phi) < 1e-9
    assert frame_violation(state.psi, TG.normal_frame(state.phi)) < 1e-9


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
        step_size=1e-3, evaluation=solver._evaluate(phi0, psi0, chi, u0, g, TG)[1],
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
    state = FlowState(phi=phi_c, psi=psi0, iteration=0, step_size=1e-5,
                      evaluation=solver._evaluate(phi_c, psi0, chi0 + 1e-3, u0, g, TG)[1])
    with pytest.raises(SolverError):
        flow_step(state, chi0 + 1e-3, u0, g, TG, SolverConfig(mode="psi-only"))


def test_non_finite_step_size_signaled():
    g = Grid(8, 8)
    psi0, chi0, u0 = _zeros(g)
    phi0 = perturbed_equator_map(g, amplitude=0.05, seed=3)
    state = FlowState(phi=phi0, psi=psi0, iteration=0, step_size=float("inf"),
                      evaluation=solver._evaluate(phi0, psi0, chi0, u0, g, TG)[1])
    with pytest.raises(SolverError, match="non-finite step"):
        flow_step(state, chi0, u0, g, TG, SolverConfig())


@pytest.mark.parametrize("errstate", [dict(over="raise", invalid="raise", divide="raise"),
                                      dict(all="ignore")], ids=["raise", "ignore"])
@pytest.mark.parametrize("coupled", [False, True], ids=["pure-map", "joint"])
def test_overflowing_trial_is_a_rejected_trial(coupled, errstate):
    # the resolvent passes the constant and checkerboard modes unscaled, so a trial at
    # dt = 1e300 overflows: a FloatingPointError under the command line's errstate, else
    # a phi that cannot be projected.  Either is a rejected trial, and dt shrinks.
    if coupled:
        g, phi0, psi0, chi0, u0 = _coupled64_inputs(8)
    else:
        g, phi0, (psi0, chi0, u0) = _criterion_8_inputs(8)
    cfg = SolverConfig(max_iterations=20, tolerance=10.0 if coupled else 1e-6,
                       initial_step=1e300)
    with np.errstate(**errstate):
        state, report = solve(phi0, psi0, chi0, u0, g, TG, cfg)
    if not coupled:  # the first start-step trial fails like one that raises the energy
        assert report.records[0]["start_trials"] == 1
        assert report.records[0]["step_size"] == cfg.initial_step
    assert report.records[1]["rejected"] >= 1
    assert on_manifold_violation(TG, state.phi) <= 1e-9


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
    assert frame_violation(state.psi, ET.normal_frame(state.phi)) <= 1e-9
    res = [rec["residual_l2"] for rec in report.records if "residual_l2" in rec]
    assert all(b <= a for a, b in zip(res, res[1:]))
    expected = total_action(state.phi, state.psi, u0, chi0, g, ET).to_dict()
    assert report.records[-1]["action"] == expected


def test_residual_norms_take_tangent_part_on_ellipsoid():
    g, chi0, u0, state, _ = _ellipsoid_joint_solve()
    res = residuals(state.phi, state.psi, chi0, u0, g, ET)
    norms = residual_norms(res, g, TargetData(ET, state.phi))["phi"]
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
    back = w - dt * div(grad(w, g), g)
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
    # the flow's r_phi tangent part and r_psi, recomputed on the last state's FieldData
    fdata = field_data(state.phi, state.psi, chi0, u0, g, TG, TargetData(TG, state.phi))
    r_phi_t = euler_lagrange._tangent_residual_phi(fdata)
    r_psi = residual_psi(state.phi, state.psi, chi0, u0, g, TG, fdata=fdata)
    norms = tangent_residual_norms(r_phi_t, r_psi, g)["combined"]
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


def test_pure_map_residual_norms_allocate_no_spinor_array(monkeypatch):
    # at psi = chi = 0 the flow hands the norms no r_psi: its part reads 0.0, and the
    # norms allocate less than one psi-sized array (r_phi's square is a quarter of one)
    peaks = []

    def traced(rp, r_psi, grid):
        tracemalloc.start()
        try:
            out = tangent_residual_norms(rp, r_psi, grid)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return out

    monkeypatch.setattr(solver, "tangent_residual_norms", traced)
    g = Grid(32, 32)
    psi0, chi0, u0 = _zeros(g)
    phi0 = perturbed_equator_map(g, amplitude=0.05, seed=3)
    _, ev = solver._evaluate(phi0, psi0, chi0, u0, g, TG)
    assert len(peaks) == 1 and peaks[0] < psi0.nbytes
    full = tangent_residual_norms(ev.r_phi_t, np.zeros(psi0.shape), g)["combined"]
    assert ev.norms == (full["l2"], full["linf"])


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
    fdata = field_data(state.phi, state.psi, chi0, u0, g, te, TargetData(te, state.phi))
    assert np.array_equal(ev.r_phi_t, euler_lagrange._tangent_residual_phi(fdata))
    assert np.array_equal(ev.r_psi, residual_psi(state.phi, state.psi, chi0, u0, g, te))
    assert ev.action == total_action(state.phi, state.psi, u0, chi0, g, te)


def _count_shared_parts(monkeypatch) -> dict:
    """Count the gradients taken, through grad_planes under every name that binds it (d phi
    and the D_u of an evaluation take it), and the Gauss part M built."""
    counts = {"grad": 0, "m": 0}
    grad_fn = geometry.grad_planes

    def counted_grad(*args, **kwargs):
        counts["grad"] += 1
        return grad_fn(*args, **kwargs)

    for module in (geometry, fields, action, euler_lagrange, solver):
        if getattr(module, "grad_planes", None) is grad_fn:
            monkeypatch.setattr(module, "grad_planes", counted_grad)

    build = action.FieldData.__dict__["m"].func

    @functools.cached_property
    def m(self):
        counts["m"] += 1
        return build(self)

    m.__set_name__(action.FieldData, "m")
    monkeypatch.setattr(action.FieldData, "m", m)
    return counts


@pytest.mark.parametrize("target", ["sphere", "ellipsoid"])
def test_joint_evaluation_shares_grad_and_the_gauss_parts(monkeypatch, target):
    # one grad of phi plus the two of D_u psi and its adjoint; one M for the Gauss
    # parts of SR, R and (on the ellipsoid) SnR
    g = Grid(16, 16)
    te, phi, psi, chi, u = _ellipsoid_fields(g)
    if target == "sphere":
        te, phi = TG, smooth_map_field(g, TG, seed=8, amplitude=0.3, modes=1)
        psi = smooth_vector_spinor(g, phi, TG, seed=9, amplitude=0.05, modes=1)
    counts = _count_shared_parts(monkeypatch)
    solver._evaluate(phi, psi, chi, u, g, te)
    assert counts["grad"] <= 3
    assert counts["m"] == 1


def _count_frame_derivative_builds(monkeypatch) -> list:
    """One entry per TargetData.dnu built, through a counting cached_property."""
    calls = []
    build = TargetData.__dict__["dnu"].func

    @functools.cached_property
    def dnu(self):
        calls.append(1)
        return build(self)

    dnu.__set_name__(TargetData, "dnu")
    monkeypatch.setattr(TargetData, "dnu", dnu)
    return calls


def test_pure_map_evaluation_builds_no_frame_derivative(monkeypatch):
    # the flow reads the tangent part of r_phi, which leaves out the normal term: only
    # C(psi) reads the frame derivative, and a pure map has none
    calls = _count_frame_derivative_builds(monkeypatch)
    g, phi0, (psi0, chi0, u0) = _criterion_8_inputs(16)
    solver._evaluate(phi0, psi0, chi0, u0, g, TG)
    assert len(calls) == 0
    _, report = solve(phi0, psi0, chi0, u0, g, TG, SolverConfig(tolerance=1e-6))
    assert report.converged
    assert len(calls) == 0


def _count_part_builds(monkeypatch, names) -> dict:
    """Count the builds of the FieldData parts names, through counting cached_propertys,
    and the calls of action.gamma_chi."""
    counts = dict.fromkeys(names, 0) | {"gamma_chi": 0}
    for name in names:
        build = action.FieldData.__dict__[name].func

        def counted(self, build=build, name=name):
            counts[name] += 1
            return build(self)

        part = functools.cached_property(counted)
        part.__set_name__(action.FieldData, name)
        monkeypatch.setattr(action.FieldData, name, part)
    gamma_chi = action.gamma_chi

    def counted_gamma_chi(chi):
        counts["gamma_chi"] += 1
        return gamma_chi(chi)

    monkeypatch.setattr(action, "gamma_chi", counted_gamma_chi)
    return counts


@pytest.mark.parametrize("target", ["sphere", "ellipsoid"])
def test_field_data_keeps_its_parts_across_the_evaluation_reads(monkeypatch, target):
    # the flow's three reads, then the action again: each part is built once, and the
    # second action reads the same parts
    g = Grid(16, 16)
    te, phi, psi, chi, u = _ellipsoid_fields(g)
    if target == "sphere":
        te, phi = TG, smooth_map_field(g, TG, seed=8, amplitude=0.3, modes=1)
        psi = smooth_vector_spinor(g, phi, TG, seed=9, amplitude=0.05, modes=1)
    counts = _count_part_builds(monkeypatch, ("dphi", "dirac", "m"))
    fdata = field_data(phi, psi, chi, u, g, te, TargetData(te, phi))
    euler_lagrange._tangent_residual_phi(fdata)
    residual_psi(phi, psi, chi, u, g, te, fdata=fdata)
    first = total_action(phi, psi, u, chi, g, te, fdata=fdata)
    assert total_action(phi, psi, u, chi, g, te, fdata=fdata) == first
    assert counts == {"dphi": 1, "dirac": 1, "m": 1, "gamma_chi": 1}


@pytest.mark.parametrize("target", ["sphere", "ellipsoid"])
def test_joint_evaluation_builds_one_frame_derivative(monkeypatch, target):
    g = Grid(16, 16)
    te, phi, psi, chi, u = _ellipsoid_fields(g)
    if target == "sphere":
        te, phi = TG, smooth_map_field(g, TG, seed=8, amplitude=0.3, modes=1)
        psi = smooth_vector_spinor(g, phi, TG, seed=9, amplitude=0.05, modes=1)
    calls = _count_frame_derivative_builds(monkeypatch)
    solver._evaluate(phi, psi, chi, u, g, te)
    assert len(calls) == 1


def test_pure_map_evaluation_takes_one_grad(monkeypatch):
    g = Grid(16, 16)
    psi0, chi0, u0 = _zeros(g)
    counts = _count_shared_parts(monkeypatch)
    solver._evaluate(perturbed_equator_map(g, amplitude=0.05, seed=3), psi0, chi0, u0, g, TG)
    assert counts == {"grad": 1, "m": 0}


def test_pure_map_solve_takes_one_grad_per_trial(monkeypatch):
    # each evaluation takes grad phi and each trial, of the start-step search or of the
    # flow, one grad of its step a - b (3 component planes), against the d phi its
    # iterate's evaluation keeps; nothing takes the gradient of a stacked (a - b, a + b)
    g, phi0, (psi0, chi0, u0) = _criterion_8_inputs(16)
    counts = _count_shared_parts(monkeypatch)
    shapes, counted = [], solver.grad_planes

    def recorded(field, grid):
        shapes.append(field.shape)
        return counted(field, grid)

    for module in (geometry, fields, action, euler_lagrange, solver):
        if getattr(module, "grad_planes", None) is counted:
            monkeypatch.setattr(module, "grad_planes", recorded)
    state, report = solve(phi0, psi0, chi0, u0, g, TG, SolverConfig(tolerance=1e-6))
    assert report.converged
    evaluations = 1 + report.iterations
    flow_trials = sum(rec["rejected"] + 1 for rec in report.records[1:])
    assert counts["grad"] == evaluations + report.records[0]["start_trials"] + flow_trials
    assert all(shape == (3,) + g.shape for shape in shapes)
    kept = state.evaluation.dphi
    fresh = field_data(state.phi, state.psi, chi0, u0, g, TG, TargetData(TG, state.phi)).dphi
    assert kept.shape == fresh.shape and np.array_equal(kept, fresh)


def test_coupled_evaluation_keeps_no_dphi():
    g = Grid(16, 16)
    te, phi, psi, chi, u = _ellipsoid_fields(g)
    assert solver._evaluate(phi, psi, chi, u, g, te)[1].dphi is None
    assert solver._evaluate(phi, np.zeros_like(psi), chi, u, g, te)[1].dphi is None


def _exact_dirichlet(x, g) -> Fraction:
    """sum_e |d_e x|^2 h1 h2 in exact rationals, from the float values of x, with h_e = 1/n_e."""
    xf = np.array([Fraction(v) for v in x.ravel()], dtype=object).reshape(x.shape)
    total = Fraction(0)
    for axis, n in enumerate(g.shape):
        diff = np.roll(xf, -1, axis=axis) - np.roll(xf, 1, axis=axis)
        total += (diff * diff).sum() * Fraction(n, 2) ** 2
    return total * Fraction(1, g.n1 * g.n2)


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("shape", [(8, 8), (12, 20), (33, 17)])
def test_dirichlet_increment_is_exact(shape, k):
    # E(a) - E(b) against exact rationals for steps |a - b| of 1e-2 down to 1e-13: within
    # rounding of the scale sum |d(a-b) . d(a+b)| h1 h2, which a form that subtracts two
    # O(1) gradients would lose.  Along the descent direction div grad b, the kind of step
    # the flow takes, the increment's terms do not cancel, and it is exact relative to
    # itself too; along a random direction they cancel to about 1/sqrt(entries) of the
    # scale, which bounds the relative error of any form (7.2e-15 measured here, 6.3e-15
    # for the stacked (a - b, a + b) form)
    g = Grid(*shape)
    r = np.random.default_rng(shape[0] * shape[1] + k)
    b = r.standard_normal(g.shape + (k,))
    d_old = action.FieldData(b, None, grid=g, tdata=None).dphi   # reads only b and the grid
    e_b = _exact_dirichlet(b, g)
    descent = div(grad(b, g), g)
    descent /= np.abs(descent).max()
    for size in 10.0 ** -np.arange(2, 14):
        for direction in (descent, r.standard_normal(b.shape)):
            a = b + size * direction
            exact = _exact_dirichlet(a, g) - e_b
            inc = solver._dirichlet_increment(a - b, d_old, g)
            err = abs(Fraction(inc) - exact)
            assert err <= 1e-15 * np.sum(np.abs(grad(a - b, g) * grad(a + b, g))) * g.cell_area
            if direction is descent:
                assert err <= 4e-15 * abs(exact)


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
    # below the working step the search only doubles, and its records stay as they were
    assert report.iterations == 23
    assert report.records[0]["start_trials"] == 14
    e = total_action(state.phi, state.psi, u0, chi0, g, TG).I_dirichlet
    e_exact = (np.sin(2 * np.pi * g.h1) / g.h1) ** 2
    assert abs(e - e_exact) / e_exact < 1e-2


@pytest.mark.parametrize("n", [32, 64, 128])
def test_start_search_halves_from_above_the_working_step(n):
    # from 1e-1 the first doubling does not improve; without the halving branch the flow
    # started at 1e-1 and took 25/38/43 iterations (4/5/6 rejected trials) at these sizes
    g, phi0, (psi0, chi0, u0) = _criterion_8_inputs(n)
    cfg = SolverConfig(max_iterations=100_000, tolerance=1e-6, initial_step=1e-1)
    _, report = solve(phi0, psi0, chi0, u0, g, TG, cfg)
    assert report.converged
    assert report.iterations <= 27
    assert report.records[0]["step_size"] < cfg.initial_step


@pytest.mark.parametrize("increments, halvings", [
    ([-1.0, -0.5, -2.0, -3.0, -2.5], 3),             # two halvings improve
    ([-1.0, -0.5, -0.5], 1),                         # none does: one halving below d_0
    ([-1.0, -1.0] + [-2.0 - k for k in range(solver.START_DOUBLINGS)],
     solver.START_DOUBLINGS + 1),                    # every halving does, up to the cap
], ids=["two", "none", "cap"])
def test_start_search_halves_while_the_increment_decreases(monkeypatch, increments, halvings):
    # the increments of the trials in the order the search evaluates them: d_0, d_1, then
    # d_-1, d_-2, ... once the doubling does not improve on d_0
    values, dts = iter(increments), []
    trial = solver._implicit_trial

    def recorded_trial(phi, nu, resolve, dt, target):
        dts.append(dt)
        return trial(phi, nu, resolve, dt, target)

    monkeypatch.setattr(solver, "_implicit_trial", recorded_trial)
    monkeypatch.setattr(solver, "_dirichlet_increment", lambda a, b, grid: next(values))
    g, phi0, (psi0, chi0, u0) = _criterion_8_inputs(16)
    ev = solver._evaluate(phi0, psi0, chi0, u0, g, TG)[1]
    step = 1e-1
    assert solver._start_step(phi0, ev, g, TG, step) == (step * 2.0**-halvings, len(increments))
    assert dts == [step, 2.0 * step] + [step * 2.0**-j for j in range(1, len(increments) - 1)]


def test_start_search_stops_when_the_first_trial_raises_the_energy():
    g = Grid(16, 16)
    psi0, chi0, u0 = _zeros(g)
    phi0 = TG.project(perturbed_equator_map(g, amplitude=0.05, seed=3))
    cfg = SolverConfig(max_iterations=6, tolerance=1e-14, initial_step=1.0)
    _, report = solve(phi0, psi0, chi0, u0, g, TG, cfg)
    assert report.records[0]["start_trials"] == 1
    assert report.records[0]["step_size"] == cfg.initial_step
    # the shrink loop runs as it does from any first trial dt
    state = FlowState(phi=phi0, psi=psi0, iteration=0, step_size=cfg.initial_step,
                      evaluation=solver._evaluate(phi0, psi0, chi0, u0, g, TG)[1])
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
    assert frame_violation(state.psi, TG.normal_frame(state.phi)) <= 1e-9


def test_a_coupled_solve_builds_its_parameter_parts_once(monkeypatch):
    # chi and u are parameters of the functional: one q_project (Gamma chi and |Q chi|^2
    # share it) and seven u-sized exponentials (e^{2u}, e^{3u}, e^{4u} and D_u's four
    # weights) per solve, where each of the 12 evaluations took 2 and 14 of them
    g, phi, psi, chi, u = _coupled64_inputs(16)
    q_calls, exp_sizes = [], []
    q_project, exp = clifford.q_project, np.exp

    def counted_q(x):
        q_calls.append(1)
        return q_project(x)

    def counted_exp(x, *args, **kwargs):
        out = exp(x, *args, **kwargs)
        exp_sizes.append(np.size(out))
        return out

    monkeypatch.setattr(clifford, "q_project", counted_q)
    monkeypatch.setattr(np, "exp", counted_exp)
    _, report = solve(phi, psi, chi, u, g, TG, SolverConfig(max_iterations=1000, tolerance=10.0))
    assert report.converged and report.iterations == 11
    assert len(q_calls) == 1
    assert sum(size for size in exp_sizes if size % u.size == 0) <= 7 * u.size


# every record's (residual_l2, action total) of the joint flow from _coupled64_inputs(16)
# to tolerance 10, taken before the parameter parts were shared and D_u moved to planes
_COUPLED16_RECORDS = [
    (48.886670823785764, 16.559236640223766), (48.806664790417415, 16.51157467348221),
    (48.64721150232798, 16.416823334510106), (48.330525679706334, 16.229583530693226),
    (47.705923673482516, 15.863940688633614), (46.49091408579303, 15.16636481495486),
    (44.19093110207672, 13.894123076494521), (40.06174442351152, 11.761392241868244),
    (33.35193076911832, 8.682011914240137), (24.194852545355147, 5.186231382157214),
    (14.656669895173422, 2.3300731919466724), (7.745517120661112, 0.6289101611400051),
]


def test_joint_flow_trajectory_is_pinned():
    # the coupled flow ends close to its gates, so a change that moves its iterates can
    # fail them: every record of this solve is pinned to 1e-12 relative
    g, phi, psi, chi, u = _coupled64_inputs(16)
    _, report = solve(phi, psi, chi, u, g, TG, SolverConfig(max_iterations=1000, tolerance=10.0))
    assert report.iterations == 11 and report.stop_reason == "converged"
    assert len(report.records) == len(_COUPLED16_RECORDS)
    for rec, (l2, total) in zip(report.records, _COUPLED16_RECORDS):
        assert abs(rec["residual_l2"] - l2) <= 1e-12 * abs(l2)
        assert abs(rec["action"]["total"] - total) <= 1e-12 * abs(total)


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
        state = FlowState(phi=phi, psi=psi, iteration=3,
                          step_size=1e-5, evaluation=ev, ramping=ramping)
        new = flow_step(state, chi, u, g, TG, cfg)
        assert new.rejected == 0
        assert new.accepted_step == 1e-5
        assert new.step_size == 1e-5 * factor
        assert new.ramping is ramping
    state = FlowState(phi=phi, psi=psi, iteration=3, step_size=1.0, evaluation=ev)
    new = flow_step(state, chi, u, g, TG, cfg)
    assert new.rejected >= 1 and not new.ramping
    assert new.step_size == cfg.shrink ** new.rejected * cfg.grow


def test_residual_sector_step_stalls_below_the_floor_of_its_previous_step():
    g, phi, psi, chi, u = _coupled64_inputs(16)
    psi, ev = solver._evaluate(phi, psi, chi, u, g, TG)
    cfg = SolverConfig()

    def step(accepted_step):
        state = FlowState(phi=phi, psi=psi, iteration=1,
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
    state = FlowState(phi=phi0, psi=psi0, iteration=1, step_size=100.0, accepted_step=100.0,
                      evaluation=solver._evaluate(phi0, psi0, chi0, u0, g, TG)[1])
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
        state = FlowState(phi=phi, psi=psi, iteration=0, step_size=dt, evaluation=ev)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            new = flow_step(state, chi, u, g, TG, cfg)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        return new.rejected, peak

    flow_step(FlowState(phi=phi, psi=psi, iteration=0,
                        step_size=1e-5, evaluation=ev), chi, u, g, TG, cfg)  # warm caches
    rejected_none, peak_none = traced_step(1e-5)
    rejected, peak = traced_step(cfg.initial_step)
    assert rejected_none == 0 and rejected >= 2
    assert peak - peak_none <= 0.5 * psi.nbytes
