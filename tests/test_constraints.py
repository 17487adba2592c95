"""Constraint checks: which functions check, with what message, from how many frames,
and which parts of the frame's TargetData an evaluation builds."""

import ast
import functools
from pathlib import Path

import numpy as np
import pytest

from sigmalab import euler_lagrange
from sigmalab.action import action_density, checked_target_data, field_data, total_action
from sigmalab.cli import _COMMANDS, _cmd_residual, parse_config
from sigmalab.checks import run_all_checks
from sigmalab.errors import ConstraintError
from sigmalab.euler_lagrange import (action_gradient_fd, assemble_map_residual, potentials,
                                     residual_phi, residual_psi, residuals)
from sigmalab.fields import frame_violation, require_tangent, twisted_dirac
from sigmalab.geometry import Grid, SphereTarget, TargetData, ellipsoid_target
from sigmalab.presets import (
    smooth_gravitino,
    smooth_map_field,
    smooth_scalar_field,
    smooth_vector_spinor,
)
from sigmalab.solver import SolverConfig, solve

OFF_MANIFOLD = "point off the target manifold"
NOT_TANGENT = "vector-spinor not tangent along phi"


def _fields(target, n=8):
    g = Grid(n, n)
    phi = smooth_map_field(g, target, seed=1, amplitude=0.4)
    psi = smooth_vector_spinor(g, phi, target, seed=2, amplitude=0.3)
    chi = smooth_gravitino(g, seed=3, amplitude=0.3)
    u = smooth_scalar_field(g, seed=4, amplitude=0.2)
    return g, phi, psi, chi, u


CHECKED = {
    "total_action": lambda phi, psi, chi, u, g, tg: total_action(phi, psi, u, chi, g, tg),
    "action_density": lambda phi, psi, chi, u, g, tg: action_density(phi, psi, u, chi, g, tg),
    "residual_phi": residual_phi,
    "residual_psi": residual_psi,
    "residuals": residuals,
    "potentials": potentials,
    "assemble_map_residual": assemble_map_residual,
    "twisted_dirac": lambda phi, psi, chi, u, g, tg: twisted_dirac(psi, phi, u, g, tg),
}


@pytest.mark.parametrize("name", sorted(CHECKED))
def test_off_manifold_phi_raises(name):
    tg = SphereTarget(3)
    g, phi, psi, chi, u = _fields(tg)
    phi = phi.copy()
    phi[2, 3] *= 1.5
    with pytest.raises(ConstraintError, match=OFF_MANIFOLD):
        CHECKED[name](phi, psi, chi, u, g, tg)


@pytest.mark.parametrize("name", sorted(CHECKED))
def test_non_tangent_psi_raises(name):
    tg = SphereTarget(3)
    g, phi, psi, chi, u = _fields(tg)
    psi = psi.copy()
    psi[1, 4, :, 2] += phi[1, 4]
    with pytest.raises(ConstraintError, match=NOT_TANGENT):
        CHECKED[name](phi, psi, chi, u, g, tg)


def _off_manifold(phi, psi):
    phi = phi.copy()
    phi[2, 3] *= 1.5
    return phi, psi


def _non_tangent(phi, psi):
    psi = psi.copy()
    psi[1, 4, :, 2] += phi[1, 4]
    return phi, psi


@pytest.mark.parametrize("corrupt, message", [(_off_manifold, OFF_MANIFOLD),
                                              (_non_tangent, NOT_TANGENT)],
                         ids=["off_manifold_phi", "non_tangent_psi"])
def test_the_fd_oracle_checks_its_constraints_before_any_probe(monkeypatch, corrupt, message):
    # the oracle takes neither tdata nor fdata, so it checks phi and psi like every
    # other function that takes neither (README: the one door)
    _fail_the_probes(monkeypatch)
    tg = SphereTarget(3)
    g, phi, psi, chi, u = _fields(tg)
    phi, psi = corrupt(phi, psi)
    with pytest.raises(ConstraintError, match=message):
        action_gradient_fd(phi, psi, u, chi, g, tg)


def _fail_the_probes(monkeypatch):
    """Make the probes' Dirac change, which every colour class of the FD oracle takes at
    its sites and at their neighbours, raise."""
    def probe(*args, **kwargs):
        raise AssertionError("a probe ran on unchecked fields")

    monkeypatch.setattr(euler_lagrange, "dirac_change", probe)


def test_the_fd_oracle_constraint_test_patches_what_the_probes_call(monkeypatch):
    # the control of the test above: on valid fields the patched call raises, so that
    # test would catch a probe run before the check
    _fail_the_probes(monkeypatch)
    tg = SphereTarget(3)
    g, phi, psi, chi, u = _fields(tg)
    with pytest.raises(AssertionError, match="a probe ran"):
        action_gradient_fd(phi, psi, u, chi, g, tg)


def test_a_handed_field_data_is_the_whole_input():
    # given its FieldData, an evaluation reads u, psi, the grid and the target from it
    tg = ellipsoid_target([1.0, 1.3, 0.8])
    g, phi, psi, chi, u = _fields(tg)
    whole = lambda: field_data(phi, psi, chi, u, g, tg)  # noqa: E731
    r_phi = residual_phi(phi, psi, chi, None, None, None, fdata=whole())
    r_psi = residual_psi(phi, psi, chi, None, None, None, fdata=whole())
    action = total_action(phi, psi, None, chi, None, None, fdata=whole())
    assert np.array_equal(r_phi, residual_phi(phi, psi, chi, u, g, tg))
    assert np.array_equal(r_psi, residual_psi(phi, psi, chi, u, g, tg))
    assert action == total_action(phi, psi, u, chi, g, tg)


def test_term_dirac_checks_tangency():
    tg = SphereTarget(3)
    g, phi, psi, chi, u = _fields(tg)
    psi = psi.copy()
    psi[0, 0, :, 0] += phi[0, 0]
    with pytest.raises(ConstraintError, match=NOT_TANGENT):
        total_action(phi, psi, u, chi, g, tg).II_dirac


@pytest.mark.parametrize("size", [1.0, 1e80, 1e160, 1e300])
def test_a_large_normal_psi_fails_the_tangency_check(size):
    # psi = size * nu in every slot: |nu . psi| / (1 + |psi|) = size / (1 + 2 size) per slot;
    # |psi|^2 overflows above about 1e154, which must not read as a tangent psi
    tg = SphereTarget(3)
    g, phi, *_ = _fields(tg)
    nu = tg.normal_frame(phi)
    psi = size * np.repeat(np.moveaxis(nu, -2, -1), 4, axis=-1)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        assert frame_violation(psi, nu) == pytest.approx(size / (1.0 + 2.0 * size), rel=1e-12)
        with pytest.raises(ConstraintError, match=NOT_TANGENT):
            require_tangent(psi, nu)
        with pytest.raises(ConstraintError, match=NOT_TANGENT):
            checked_target_data(tg, phi, psi)


def test_a_nan_in_psi_fails_the_tangency_check():
    tg = SphereTarget(3)
    g, phi, psi, *_ = _fields(tg)
    psi = psi.copy()
    psi[2, 3, 0, 0] = np.nan
    with pytest.raises(ConstraintError, match=NOT_TANGENT):
        checked_target_data(tg, phi, psi)


@pytest.mark.parametrize("size", [1e-3, 1.0, 3.0, 1e5, 1e100])
def test_frame_violation_is_the_unscaled_formula_where_that_does_not_overflow(size):
    tg = SphereTarget(3)
    g, phi, *_ = _fields(tg)
    nu = tg.normal_frame(phi)
    psi = size * np.random.default_rng(5).standard_normal(phi.shape + (4,))
    coeff = np.einsum("...lb,...bc->...lc", nu, psi)
    scale = 1.0 + np.sqrt(np.einsum("...bc,...bc->...", psi, psi))
    assert frame_violation(psi, nu) == float(np.max(np.abs(coeff) / scale[..., None, None]))


def _count_frames(monkeypatch, target) -> list:
    calls = []
    frame = target.normal_frame
    monkeypatch.setattr(target, "normal_frame", lambda p: calls.append(1) or frame(p))
    return calls


def test_total_action_checks_and_evaluates_on_one_frame(monkeypatch):
    tg = ellipsoid_target([1.0, 1.3, 0.8])
    g, phi, psi, chi, u = _fields(tg)
    calls = _count_frames(monkeypatch, tg)
    total_action(phi, psi, u, chi, g, tg)
    assert len(calls) == 1


def test_twisted_dirac_checks_and_projects_on_one_frame(monkeypatch):
    tg = ellipsoid_target([1.0, 1.3, 0.8])
    g, phi, psi, chi, u = _fields(tg)
    calls = _count_frames(monkeypatch, tg)
    twisted_dirac(psi, phi, u, g, tg)
    assert len(calls) == 1


def test_check_suites_build_one_gauss_tensor(monkeypatch):
    # the five symmetry-suite actions share phi, so they share one TargetData and
    # build A, the only input of the curvature terms, once
    calls = []
    build = TargetData.__dict__["asym"].func

    @functools.cached_property
    def asym(self):
        calls.append(1)
        return build(self)

    asym.__set_name__(TargetData, "asym")
    monkeypatch.setattr(TargetData, "asym", asym)
    tg = SphereTarget(3)
    g, phi, psi, chi, u = _fields(tg)
    results = run_all_checks(psi, chi, u, g, TargetData(tg, phi))
    assert all(r.passed for r in results)
    assert len(calls) == 1


def _count_projector_builds(monkeypatch) -> list:
    """One entry per TargetData.pi built, through a counting cached_property."""
    calls = []
    build = TargetData.__dict__["pi"].func

    @functools.cached_property
    def pi(self):
        calls.append(1)
        return build(self)

    pi.__set_name__(TargetData, "pi")
    monkeypatch.setattr(TargetData, "pi", pi)
    return calls


@pytest.mark.parametrize("target, config", [
    (SphereTarget(3), SolverConfig(max_iterations=30, tolerance=10.0)),
    (ellipsoid_target([1.0, 1.3, 0.8]), SolverConfig(max_iterations=5)),
], ids=["sphere-coupled", "ellipsoid-5"])
def test_joint_solves_build_no_projector_matrix(monkeypatch, target, config):
    # A, C(psi) and nabla A apply Pi as the projection along nu: no evaluation of a
    # joint solve builds the K x K matrix
    g = Grid(16, 16)
    phi = smooth_map_field(g, target, seed=5, amplitude=0.4, modes=2)
    psi = smooth_vector_spinor(g, phi, target, seed=7, amplitude=0.1, modes=2)
    chi = smooth_gravitino(g, seed=9, amplitude=0.1, modes=2)
    u = smooth_scalar_field(g, seed=11, amplitude=0.3, modes=2)
    calls = _count_projector_builds(monkeypatch)
    _, report = solve(phi, psi, chi, u, g, target, config)
    assert report.iterations > 0
    assert len(calls) == 0


def test_evaluations_build_no_projector_matrix_on_the_ellipsoid(monkeypatch):
    tg = ellipsoid_target([1.0, 1.3, 0.8])
    g, phi, psi, chi, u = _fields(tg)
    calls = _count_projector_builds(monkeypatch)
    total_action(phi, psi, u, chi, g, tg)
    residuals(phi, psi, chi, u, g, tg)
    assert all(r.passed for r in run_all_checks(psi, chi, u, g, TargetData(tg, phi)))
    assert len(calls) == 0


def test_fd_oracle_builds_one_projector_matrix_per_call(monkeypatch):
    # the tangent basis of phi reads Pi's eigenvectors; the probes' evaluations do not
    tg = SphereTarget(3)
    g, phi, psi, chi, u = _fields(tg)
    calls = _count_projector_builds(monkeypatch)
    action_gradient_fd(phi, psi, u, chi, g, tg)
    assert len(calls) == 1
    action_gradient_fd(phi, psi, u, chi, g, tg)
    assert len(calls) == 2


def test_residuals_read_one_frame_on_the_ellipsoid(monkeypatch):
    # snr_of reads the closed-form nabla A from the TargetData it is handed
    tg = ellipsoid_target([1.0, 1.3, 0.8])
    g, phi, psi, chi, u = _fields(tg)
    calls = _count_frames(monkeypatch, tg)
    residuals(phi, psi, chi, u, g, tg)
    assert len(calls) == 1


def test_check_suites_measure_the_constraints_on_one_frame(monkeypatch):
    tg = ellipsoid_target([1.0, 1.3, 0.8])
    g, phi, psi, chi, u = _fields(tg)
    frames = _count_frames(monkeypatch, tg)
    projections = []
    project = tg.project
    monkeypatch.setattr(tg, "project", lambda p: projections.append(1) or project(p))
    results = run_all_checks(psi, chi, u, g, TargetData(tg, phi))
    assert all(r.passed for r in results)
    assert len(frames) == 1
    assert len(projections) == 1


def test_check_suites_raise_on_a_failed_constraint():
    tg = SphereTarget(3)
    g, phi, psi, chi, u = _fields(tg)
    psi = psi.copy()
    psi[1, 4, :, 2] += phi[1, 4]
    with pytest.raises(ConstraintError, match=NOT_TANGENT):
        run_all_checks(psi, chi, u, g, TargetData(tg, phi))


def _benchmark_cli_config(tmp_path):
    """The parsed benchmark CLI configuration (perfbench/workloads.py CLI_CONFIG)."""
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py").read_text()
    text = next(node.value.value for node in ast.parse(source).body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["CLI_CONFIG"])
    (tmp_path / "cli.ini").write_text(text)
    return parse_config(tmp_path / "cli.ini")


def test_residual_command_builds_no_frame_after_parsing(monkeypatch, tmp_path):
    # the norms take r_phi's tangent part along the frame that parsing built
    c = _benchmark_cli_config(tmp_path)
    frames = _count_frames(monkeypatch, c.target)
    assert _cmd_residual(c, tmp_path) == 0
    assert len(frames) == 0


@pytest.mark.parametrize("command", ["eval", "check", "morrey"])
def test_commands_build_no_frame_after_parsing(monkeypatch, tmp_path, command):
    """eval and check read the TargetData that parse_config built and checked, as residual
    does (test above), and morrey reads none.  solve is left out: it re-projects phi and
    builds one frame per evaluation, and perfbench calls it positionally, so it is not
    handed one."""
    c = _benchmark_cli_config(tmp_path)
    frames = _count_frames(monkeypatch, c.target)
    assert _COMMANDS[command](c, tmp_path) == 0
    assert len(frames) == 0
