"""Stencils on the periodic grid and extrinsic target data."""

import numpy as np
import pytest

from sigmalab.errors import ConstraintError
from sigmalab.geometry import (
    Grid,
    SphereTarget,
    curvature_operator,
    div,
    ellipsoid_target,
    grad,
    laplacian,
    nabla_A,
    on_manifold_violation,
    second_fund_form,
    shape_operator,
    shift,
    tangent_basis,
    wide_laplacian,
)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(3, 8)
    g = Grid(8, 16)
    assert g.h1 == 1 / 8 and g.h2 == 1 / 16
    assert g.cell_area == g.h1 * g.h2


def test_grad_annihilates_constants():
    g = Grid(8, 8)
    assert np.all(grad(np.ones(g.shape), g) == 0.0)


def test_grad_closed_form_on_sine():
    g = Grid(16, 16)
    x, _ = g.coords()
    f = np.sin(2 * np.pi * x)
    expected = np.cos(2 * np.pi * x) * np.sin(2 * np.pi * g.h1) / g.h1
    assert np.max(np.abs(grad(f, g)[0] - expected)) < 1e-13
    assert np.max(np.abs(grad(f, g)[1])) < 1e-15


def test_summation_by_parts():
    g = Grid(12, 8)
    r = np.random.default_rng(0)
    f = r.standard_normal(g.shape)
    h = r.standard_normal(g.shape)
    total = np.sum(f * grad(h, g)) + np.sum(grad(f, g) * np.stack([h, h]))
    # per-direction antisymmetry of the centered stencil
    for a in range(2):
        s = np.sum(f * grad(h, g)[a]) + np.sum(grad(f, g)[a] * h)
        assert abs(s) < 1e-12
    del total


def test_div_grad_adjointness_exact():
    g = Grid(12, 12)
    r = np.random.default_rng(1)
    f = r.standard_normal(g.shape)
    v = r.standard_normal((2,) + g.shape)
    assert abs(np.sum(f * div(v, g)) + np.sum(grad(f, g) * v)) < 1e-12


def test_div_of_constant_and_total():
    g = Grid(8, 8)
    assert np.all(div(np.ones((2,) + g.shape), g) == 0.0)
    v = np.random.default_rng(2).standard_normal((2,) + g.shape)
    assert abs(np.sum(div(v, g))) < 1e-12


def test_div_grad_is_wide_stencil():
    g = Grid(8, 8)
    f = np.random.default_rng(3).standard_normal(g.shape)
    direct = (shift(f, 0, 2) - 2 * f + shift(f, 0, -2)) / (2 * g.h1) ** 2
    direct = direct + (shift(f, 1, 2) - 2 * f + shift(f, 1, -2)) / (2 * g.h2) ** 2
    assert np.max(np.abs(wide_laplacian(f, g) - direct)) < 1e-12


def test_laplacian_closed_forms():
    g = Grid(16, 16)
    assert np.all(laplacian(np.full(g.shape, 3.0), g) == 0.0)
    x, _ = g.coords()
    f = np.cos(2 * np.pi * x)
    lam = -(2.0 / g.h1**2) * (1.0 - np.cos(2 * np.pi * g.h1))
    assert np.max(np.abs(laplacian(f, g) - lam * f)) < 1e-11
    assert abs(np.sum(laplacian(np.random.default_rng(4).standard_normal(g.shape), g))) < 1e-10


def sphere_points(n=200, seed=0, dim=3):
    tg = SphereTarget(dim)
    p = tg.project(np.random.default_rng(seed).standard_normal((n, dim)))
    return tg, p


def test_sphere_frame_orthonormal_and_projector():
    tg, p = sphere_points()
    nu = tg.normal_frame(p)
    gram = np.einsum("...la,...ma->...lm", nu, nu)
    assert np.max(np.abs(gram - 1.0)) < 1e-12
    pi = tg.tangent_projector(p)
    assert np.max(np.abs(pi - np.swapaxes(pi, -1, -2))) < 1e-14
    assert np.max(np.abs(np.einsum("...ab,...bc->...ac", pi, pi) - pi)) < 1e-13
    w = np.random.default_rng(1).standard_normal(p.shape)
    tw = tg.tangent_project(p, w)
    assert np.max(np.abs(np.einsum("...la,...a->...l", nu, tw))) < 1e-13


def test_second_fund_form_sphere_closed_form():
    tg, p = sphere_points()
    tb = tangent_basis(tg, p)
    X, Y = tb[:, 0, :], tb[:, 1, :]
    a = second_fund_form(tg, p, X, Y)
    expected = -np.einsum("ka,ka->k", X, Y)[:, None] * p
    assert np.max(np.abs(a - expected)) < 1e-12
    # symmetry and bilinearity
    assert np.max(np.abs(a - second_fund_form(tg, p, Y, X))) < 1e-12
    assert np.max(np.abs(second_fund_form(tg, p, X, np.zeros_like(Y)))) == 0.0


def test_shape_operator_sphere_and_duality():
    tg, p = sphere_points()
    tb = tangent_basis(tg, p)
    X, Y = tb[:, 0, :], tb[:, 1, :]
    z = tg.tangent_project(p, np.random.default_rng(5).standard_normal(p.shape))
    assert np.max(np.abs(shape_operator(tg, p, p, z) + z)) < 1e-12
    assert np.max(np.abs(shape_operator(tg, p, np.zeros_like(p), z))) == 0.0
    xi = second_fund_form(tg, p, X, Y)
    lhs = np.einsum("ka,ka->k", xi, second_fund_form(tg, p, X, Y))
    rhs = np.einsum("ka,ka->k", shape_operator(tg, p, xi, X), Y)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_curvature_operator_sphere():
    tg, p = sphere_points(500, seed=7)
    r = np.random.default_rng(8)
    X = tg.tangent_project(p, r.standard_normal(p.shape))
    Y = tg.tangent_project(p, r.standard_normal(p.shape))
    Z = tg.tangent_project(p, r.standard_normal(p.shape))
    out = curvature_operator(tg, p, X, Y, Z)
    expected = (
        np.einsum("ka,ka->k", Y, Z)[:, None] * X
        - np.einsum("ka,ka->k", X, Z)[:, None] * Y
    )
    assert np.max(np.abs(out - expected)) < 1e-10
    assert np.max(np.abs(curvature_operator(tg, p, X, X, Z))) < 1e-12
    bianchi = (
        out
        + curvature_operator(tg, p, Y, Z, X)
        + curvature_operator(tg, p, Z, X, Y)
    )
    assert np.max(np.abs(bianchi)) < 1e-10


def test_curvature_scales_with_sphere_radius():
    tg = SphereTarget(3, radius=2.0)
    p = tg.project(np.random.default_rng(13).standard_normal((50, 3)))
    tb = tangent_basis(tg, p)
    X, Y = tb[:, 0, :], tb[:, 1, :]
    Z = 0.4 * X + 0.8 * Y
    out = curvature_operator(tg, p, X, Y, Z)
    expected = (
        np.einsum("ka,ka->k", Y, Z)[:, None] * X
        - np.einsum("ka,ka->k", X, Z)[:, None] * Y
    ) / 4.0
    assert np.max(np.abs(out - expected)) < 1e-12


def test_nabla_a_zero_on_sphere():
    tg, p = sphere_points()
    tb = tangent_basis(tg, p)
    X, Y = tb[:, 0, :], tb[:, 1, :]
    assert np.all(nabla_A(tg, p, X, Y, X) == 0.0)


def ellipsoid_points(n=40, seed=11):
    tg = ellipsoid_target([1.0, 1.3, 0.8])
    raw = np.random.default_rng(seed).standard_normal((n, 3))
    return tg, tg.project(raw)


def test_ellipsoid_frame_and_symmetry():
    tg, p = ellipsoid_points()
    assert on_manifold_violation(tg, p) < 1e-9
    nu = tg.normal_frame(p)
    assert np.max(np.abs(np.einsum("...la,...ma->...lm", nu, nu) - 1.0)) < 1e-12
    tb = tangent_basis(tg, p)
    X, Y = tb[:, 0, :], tb[:, 1, :]
    a1 = second_fund_form(tg, p, X, Y)
    a2 = second_fund_form(tg, p, Y, X)
    assert np.max(np.abs(a1 - a2)) < 1e-10
    xi = a1
    lhs = np.einsum("ka,ka->k", xi, a1)
    rhs = np.einsum("ka,ka->k", shape_operator(tg, p, xi, X), Y)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_nabla_a_symmetry_and_richardson_on_ellipsoid():
    tg, p = ellipsoid_points(20)
    tb = tangent_basis(tg, p)
    X, Y = tb[:, 0, :], tb[:, 1, :]
    Z = tg.tangent_project(p, np.random.default_rng(12).standard_normal(p.shape))
    na_xy = nabla_A(tg, p, X, Y, Z, step=1e-4)
    na_yx = nabla_A(tg, p, Y, X, Z, step=1e-4)
    assert np.max(np.abs(na_xy - na_yx)) < 1e-8
    # independent half-step oracle: centered difference is O(step^2)
    na_half = nabla_A(tg, p, X, Y, Z, step=5e-5)
    scale = np.max(np.abs(na_half)) + 1.0
    assert np.max(np.abs(na_xy - na_half)) / scale < 1e-6


def test_implicit_target_fd_frame_derivative_matches_analytic():
    from sigmalab.geometry import ImplicitSurfaceTarget

    w = 1.0 / np.array([1.0, 1.3, 0.8]) ** 2

    def value(p):
        return np.einsum("...a,a,...a->...", p, w, p) - 1.0

    def gradient(p):
        return 2.0 * w * p

    fd_target = ImplicitSurfaceTarget(value, gradient, ambient_dim=3)
    assert fd_target.mode == "finite-difference"
    analytic = ellipsoid_target([1.0, 1.3, 0.8])
    assert analytic.mode == "analytic-frame"

    p = analytic.project(np.random.default_rng(9).standard_normal((20, 3)))
    d_fd = fd_target.normal_frame_derivative(p)
    d_an = analytic.normal_frame_derivative(p)
    assert np.max(np.abs(d_fd - d_an)) < 1e-7


def test_on_manifold_error_signaled():
    tg = SphereTarget(3)
    bad = np.array([1.5, 0.0, 0.0])
    with pytest.raises(ConstraintError):
        second_fund_form(tg, bad, np.zeros(3), np.zeros(3))


def test_sphere_normal_frame_undefined_at_origin():
    tg = SphereTarget(3)
    p = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    for frame in (tg.normal_frame, tg.normal_frame_derivative):
        with pytest.raises(ConstraintError, match="normal frame"):
            frame(p)


def test_implicit_normal_frame_undefined_where_gradient_vanishes():
    from sigmalab.geometry import ImplicitSurfaceTarget

    # grad F = 0 at the ellipsoid's center, with analytic and FD frame derivatives
    analytic = ellipsoid_target([1.0, 1.3, 0.8])
    fd_target = ImplicitSurfaceTarget(analytic.value, analytic.gradient, ambient_dim=3)
    p = np.array([[0.0, 0.0, 0.8], [0.0, 0.0, 0.0]])
    for tg in (analytic, fd_target):
        for frame in (tg.normal_frame, tg.normal_frame_derivative):
            with pytest.raises(ConstraintError, match="normal frame"):
                frame(p)


def test_projection_fixes_points():
    tg, p = sphere_points()
    assert np.max(np.abs(tg.project(p) - p)) < 1e-14
    te, pe = ellipsoid_points()
    assert np.max(np.abs(te.project(pe) - pe)) < 1e-10


def test_projection_without_convergence_raises():
    from sigmalab.geometry import ImplicitSurfaceTarget

    # F = |p|^2 + 1 has no zero, so the Newton retraction can never converge
    tg = ImplicitSurfaceTarget(lambda p: np.einsum("...a,...a->...", p, p) + 1.0,
                               lambda p: 2.0 * p, ambient_dim=3)
    with pytest.raises(ConstraintError, match="did not converge"):
        tg.project(np.array([0.3, 0.2, 0.1]))
