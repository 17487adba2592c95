"""Stencils on the periodic grid and extrinsic target data."""

import numpy as np
import pytest

from oracles import curvature_operator, nabla_A, second_fund_form, shape_operator
from sigmalab._planes import to_planes, to_sites
from sigmalab.errors import ConstraintError
from sigmalab.geometry import (
    Grid,
    ImplicitSurfaceTarget,
    SphereTarget,
    TargetData,
    _checked_norm,
    div,
    ellipsoid_target,
    grad,
    on_manifold_violation,
    tangent_basis,
    tangent_part,
    tangent_part_slots,
    wide_laplacian_symbol,
)
from sigmalab.presets import smooth_map_field


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
    direct = (np.roll(f, -2, 0) - 2 * f + np.roll(f, 2, 0)) / (2 * g.h1) ** 2
    direct = direct + (np.roll(f, -2, 1) - 2 * f + np.roll(f, 2, 1)) / (2 * g.h2) ** 2
    assert np.max(np.abs(div(grad(f, g), g) - direct)) < 1e-12


def test_wide_laplacian_symbol_is_built_once_per_grid_and_read_only():
    g = Grid(8, 12)
    symbol = wide_laplacian_symbol(g)
    assert wide_laplacian_symbol(Grid(8, 12)) is symbol
    assert symbol.shape == (8, 7)
    with pytest.raises(ValueError):
        symbol[0, 0] = 1.0


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
    tw = tangent_part(tg.normal_frame(p), w)
    assert np.max(np.abs(np.einsum("...la,...a->...l", nu, tw))) < 1e-13


def test_second_fund_form_sphere_closed_form():
    tg, p = sphere_points()
    tb = tangent_basis(TargetData(tg, p))
    X, Y = tb[:, 0, :], tb[:, 1, :]
    a = second_fund_form(tg, p, X, Y)
    expected = -np.einsum("ka,ka->k", X, Y)[:, None] * p
    assert np.max(np.abs(a - expected)) < 1e-12
    # symmetry and bilinearity
    assert np.max(np.abs(a - second_fund_form(tg, p, Y, X))) < 1e-12
    assert np.max(np.abs(second_fund_form(tg, p, X, np.zeros_like(Y)))) == 0.0


def test_shape_operator_sphere_and_duality():
    tg, p = sphere_points()
    tb = tangent_basis(TargetData(tg, p))
    X, Y = tb[:, 0, :], tb[:, 1, :]
    z = tangent_part(tg.normal_frame(p), np.random.default_rng(5).standard_normal(p.shape))
    assert np.max(np.abs(shape_operator(tg, p, p, z) + z)) < 1e-12
    assert np.max(np.abs(shape_operator(tg, p, np.zeros_like(p), z))) == 0.0
    xi = second_fund_form(tg, p, X, Y)
    lhs = np.einsum("ka,ka->k", xi, second_fund_form(tg, p, X, Y))
    rhs = np.einsum("ka,ka->k", shape_operator(tg, p, xi, X), Y)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_curvature_operator_sphere():
    tg, p = sphere_points(500, seed=7)
    r = np.random.default_rng(8)
    X = tangent_part(tg.normal_frame(p), r.standard_normal(p.shape))
    Y = tangent_part(tg.normal_frame(p), r.standard_normal(p.shape))
    Z = tangent_part(tg.normal_frame(p), r.standard_normal(p.shape))
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
    tb = tangent_basis(TargetData(tg, p))
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
    tb = tangent_basis(TargetData(tg, p))
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
    tb = tangent_basis(TargetData(tg, p))
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
    tb = tangent_basis(TargetData(tg, p))
    X, Y = tb[:, 0, :], tb[:, 1, :]
    Z = tangent_part(tg.normal_frame(p), np.random.default_rng(12).standard_normal(p.shape))
    na_xy = nabla_A(tg, p, X, Y, Z, step=1e-4)
    na_yx = nabla_A(tg, p, Y, X, Z, step=1e-4)
    assert np.max(np.abs(na_xy - na_yx)) < 1e-8
    # independent half-step oracle: centered difference is O(step^2)
    na_half = nabla_A(tg, p, X, Y, Z, step=5e-5)
    scale = np.max(np.abs(na_half)) + 1.0
    assert np.max(np.abs(na_xy - na_half)) / scale < 1e-6


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
    # grad F = 0 at the ellipsoid's center
    tg = ellipsoid_target([1.0, 1.3, 0.8])
    p = np.array([[0.0, 0.0, 0.8], [0.0, 0.0, 0.0]])
    for frame in (tg.normal_frame, tg.normal_frame_derivative):
        with pytest.raises(ConstraintError, match="normal frame"):
            frame(p)


@pytest.mark.parametrize("point", [[1e300, 2e300, 0.0], [np.inf, 0.0, 0.0], [np.nan, 0.0, 1.0]])
def test_sphere_projection_rejects_zero_or_non_finite_norm(point):
    # |p| overflows to inf for the first point, and p / inf would be the origin
    with np.errstate(over="ignore"), pytest.raises(ConstraintError, match="cannot project"):
        SphereTarget(3).project(np.array(point))


def test_projection_fixes_points():
    tg, p = sphere_points()
    assert np.max(np.abs(tg.project(p) - p)) < 1e-14
    te, pe = ellipsoid_points()
    assert np.max(np.abs(te.project(pe) - pe)) < 1e-10


def test_level_set_projection_reads_its_input_in_c_order():
    # a component-major view of p gives project(p)'s bits: the retraction copies p in C
    # order, so its einsums sum in the same order whatever the caller's layout (the
    # uncopied view was off by 1.1e-16 here)
    te = ellipsoid_target([1.0, 1.3, 0.8])
    p = smooth_map_field(Grid(16, 16), SphereTarget(3), seed=5, amplitude=0.4, modes=1)
    assert np.array_equal(te.project(to_sites(to_planes(p, 1), 1)), te.project(p))


def test_projection_without_convergence_raises():
    # F = |p|^2 + 1 has no zero, so the Newton retraction can never converge
    tg = ImplicitSurfaceTarget(lambda p: np.einsum("...a,...a->...", p, p) + 1.0,
                               lambda p: 2.0 * p, ambient_dim=3,
                               hessian=lambda p: np.broadcast_to(2.0 * np.eye(3), p.shape + (3,)),
                               third=lambda p: np.zeros(p.shape + (3, 3)))
    with pytest.raises(ConstraintError, match="did not converge"):
        tg.project(np.array([0.3, 0.2, 0.1]))


def test_grid_site_limit():
    from sigmalab.geometry import MAX_GRID_SITES

    assert Grid(1024, MAX_GRID_SITES // 1024).shape == (1024, 1024)
    for n1, n2 in [(1024, 1025), (40000, 40000)]:
        with pytest.raises(ValueError, match="at most"):
            Grid(n1, n2)


def test_nabla_a_tensor_frames_per_call(monkeypatch):
    # one frame at p and one at each transported point p +- eps Pi e_e
    te = ellipsoid_target([1.0, 1.3, 0.8])
    p = te.project(np.random.default_rng(4).standard_normal((6, 6, 3)))
    calls = []
    frame = te.normal_frame
    monkeypatch.setattr(te, "normal_frame", lambda q: calls.append(1) or frame(q))
    te.nabla_a_tensor(TargetData(te, p))
    assert 0 < len(calls) <= 7


def quartic_target():
    """x^4 + y^4 + z^4 = 1: a level set whose third derivative does not vanish."""
    def third(p):
        t = np.zeros(p.shape + (3, 3))
        for a in range(3):
            t[..., a, a, a] = 24.0 * p[..., a]
        return t

    return ImplicitSurfaceTarget(lambda p: np.sum(p**4, axis=-1) - 1.0,
                                 lambda p: 4.0 * p**3, ambient_dim=3,
                                 hessian=lambda p: 12.0 * p[..., :, None] ** 2 * np.eye(3),
                                 third=third)


def nabla_a_fd_tensor(tg, p, step=None):
    """nabla_a_tensor's layout [..., e, a, b] (normal component) from nabla_A."""
    pi = tg.tangent_projector(p)
    n = tg.normal_frame(p)[..., 0, :]
    K = tg.ambient_dim
    out = np.zeros(p.shape[:-1] + (K, K, K))
    for e in range(K):
        for a in range(K):
            for b in range(K):
                v = nabla_A(tg, p, pi[..., :, a], pi[..., :, b], pi[..., :, e], step=step)
                out[..., e, a, b] = np.einsum("...v,...v->...", v, n)
    return out


@pytest.mark.parametrize("make", [lambda: ellipsoid_target([1.0, 1.3, 0.8]), quartic_target])
def test_nabla_a_tensor_equals_fd_to_second_order(make):
    tg = make()
    p = tg.project(np.random.default_rng(14).standard_normal((40, 3)))
    closed = tg.nabla_a_tensor(TargetData(tg, p))
    assert closed.shape == (40, 3, 3, 3, 1)
    errors = []
    for step in (2e-3, 1e-3, 5e-4):
        fd = nabla_a_fd_tensor(tg, p, step)
        errors.append(np.max(np.abs(closed[..., 0] - fd)) / np.max(np.abs(fd)))
    assert errors[-1] < 1e-5
    # centered difference: the error falls by 4 per halving of the step
    assert errors[0] / errors[1] > 3.5 and errors[1] / errors[2] > 3.5


@pytest.mark.parametrize("make", [lambda: ellipsoid_target([1.0, 1.3, 0.8]), quartic_target])
def test_nabla_a_tensor_symmetric_codazzi(make):
    tg = make()
    p = tg.project(np.random.default_rng(15).standard_normal((60, 3)))
    t = tg.nabla_a_tensor(TargetData(tg, p))
    assert np.max(np.abs(t)) > 0.1
    for perm in [(0, 2, 1, 3, 4), (0, 1, 3, 2, 4), (0, 3, 2, 1, 4)]:
        assert np.max(np.abs(t - t.transpose(perm))) < 1e-14


@pytest.mark.parametrize("make", [lambda: ellipsoid_target([1.0, 1.3, 0.8]), quartic_target])
def test_level_set_a_is_pi_hessian_pi_over_minus_grad_norm(make):
    # nabla_a_tensor reads H(Pi e_a, Pi e_b) from TargetData's A
    tg = make()
    p = tg.project(np.random.default_rng(17).standard_normal((40, 3)))
    tdata = TargetData(tg, p)
    php = tdata.pi @ tg.hessian(p) @ tdata.pi
    norm = np.linalg.norm(tg.gradient(p), axis=-1)[..., None, None]
    assert np.max(np.abs(-norm * tdata.asym[..., 0] - php)) < 1e-13


@pytest.mark.parametrize("semi_axes", [[1.0, 1.5], [1.0, 1.3, 0.8, 1.1]])
def test_nabla_a_tensor_matches_fd_in_other_dimensions(semi_axes):
    tg = ellipsoid_target(semi_axes)
    p = tg.project(np.random.default_rng(16).standard_normal((30, len(semi_axes))))
    fd = nabla_a_fd_tensor(tg, p)
    closed = tg.nabla_a_tensor(TargetData(tg, p))
    assert np.max(np.abs(closed[..., 0] - fd)) / np.max(np.abs(fd)) < 1e-5


def test_nabla_a_tensor_one_frame_per_call(monkeypatch):
    te = ellipsoid_target([1.0, 1.3, 0.8])
    p = te.project(np.random.default_rng(4).standard_normal((6, 6, 3)))
    calls = []
    frame = te.normal_frame
    monkeypatch.setattr(te, "normal_frame", lambda q: calls.append(1) or frame(q))
    te.nabla_a_tensor(TargetData(te, p))
    assert len(calls) == 1


@pytest.mark.parametrize("semi_axes", [[1.0, 1.3, 0.8], [1.0, 1.5], [1.0, 1.3, 0.8, 1.1]])
def test_quadric_nabla_a_tensor_equals_an_explicit_zero_third_derivative(semi_axes):
    # an ellipsoid has D^3 F = 0 and skips the T term: the same target handed an
    # all-zero third derivative gives the same tensor, bit for bit
    te = ellipsoid_target(semi_axes)
    K = len(semi_axes)
    tz = ImplicitSurfaceTarget(te.value, te.gradient, ambient_dim=K, hessian=te.hessian,
                               third=lambda p: np.zeros(p.shape[:-1] + (K, K, K)))
    assert te.third is None
    p = te.project(np.random.default_rng(17).standard_normal((16, 16, K)))
    closed, zero = te.nabla_a_tensor(TargetData(te, p)), tz.nabla_a_tensor(TargetData(tz, p))
    assert closed.shape == zero.shape == (16, 16, K, K, K, 1)
    assert closed.tobytes() == zero.tobytes()


def test_nabla_a_tensor_needs_a_closed_form():
    from sigmalab.geometry import TargetManifold

    with pytest.raises(NotImplementedError):
        TargetManifold().nabla_a_tensor(TargetData(SphereTarget(3), np.ones((2, 3))))


@pytest.mark.parametrize("step", [0.0, -1e-4, np.nan, np.inf])
def test_nabla_a_rejects_unusable_step(step):
    tg, p = ellipsoid_points(5)
    tb = tangent_basis(TargetData(tg, p))
    X, Y = tb[:, 0, :], tb[:, 1, :]
    with pytest.raises(ValueError, match="step"):
        nabla_A(tg, p, X, Y, X, step=step)


@pytest.mark.parametrize("slots", [False, True], ids=["vector", "slots"])
def test_tangent_part_reports_overflow_on_any_leading_axes(slots):
    # w = 1e308 sqrt(3) (1, 1, 1) is finite, but nu . w = 3e308 along nu = (1, 1, 1) / sqrt(3)
    g = Grid(4, 4)
    phi = np.full(g.shape + (3,), 1.0 / np.sqrt(3.0))
    nu = SphereTarget(3).normal_frame(phi)
    w = np.full(g.shape + (3,), 1e308 * np.sqrt(3.0))
    part = tangent_part
    if slots:
        w, part = np.repeat(w[..., None], 4, axis=-1), tangent_part_slots
    mask = np.zeros(g.shape, dtype=bool)
    mask[::3, 1::2] = True
    for args in ((nu, w), (nu[mask], w[mask])):   # the FD oracle passes masked site lists
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            part(*args)
    # on finite data, the masked site list gives the masked result
    rng = np.random.default_rng(4)
    nu = SphereTarget(3).normal_frame(rng.standard_normal(g.shape + (3,)))
    w = rng.standard_normal(w.shape)
    assert np.array_equal(part(nu[mask], w[mask]), part(nu, w)[mask])


@pytest.mark.parametrize("sites", [(), (5,), (6, 8)], ids=["point", "list", "grid"])
@pytest.mark.parametrize("K", range(2, 8))
def test_checked_norm_is_linalg_norm_bit_for_bit(K, sites):
    v = np.random.default_rng(K).standard_normal(sites + (K,)) * 10.0 ** np.arange(K)
    norm = _checked_norm(v, "unused")
    expected = np.linalg.norm(v, axis=-1, keepdims=True)
    assert norm.shape == expected.shape
    assert norm.tobytes() == expected.tobytes()


@pytest.mark.parametrize("bad", [0.0, np.inf, np.nan])
def test_checked_norm_rejects_zero_and_non_finite(bad):
    v = np.random.default_rng(1).standard_normal((6, 8, 3))
    v[2, 5] = 0.0 if bad == 0.0 else [1.0, bad, 2.0]
    for x in (v, v[2, 5]):
        with pytest.raises(ConstraintError, match="the message"):
            _checked_norm(x, "the message")
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        _checked_norm(np.array([1e300, 2.0, 0.0]), "the message")


def _sphere_dnu_site_major(tg, p):
    # (I - p^ p^T) / |p| by broadcasting over the sites
    norm = np.linalg.norm(p, axis=-1, keepdims=True)
    ph = p / norm
    dnu = (np.eye(tg.ambient_dim) - ph[..., :, None] * ph[..., None, :]) / norm[..., None]
    return dnu[..., None, :, :]


def _level_set_dnu_site_major(tg, p):
    # H / |g| - (Hg) g^T / |g|^3 by einsum over the sites
    g = tg.gradient(p)
    norm = np.linalg.norm(g, axis=-1, keepdims=True)
    h = tg.hessian(p)
    hg = np.einsum("...ab,...b->...a", h, g)
    dnu = h / norm[..., None] - np.einsum("...a,...b->...ab", hg, g) / norm[..., None] ** 3
    return dnu[..., None, :, :]


@pytest.mark.parametrize("make, closed_form", [
    (lambda: SphereTarget(3), _sphere_dnu_site_major),
    (lambda: SphereTarget(4, radius=2.0), _sphere_dnu_site_major),
    (lambda: ellipsoid_target([1.0, 1.3, 0.8]), _level_set_dnu_site_major),
], ids=["S2", "S3-radius-2", "ellipsoid"])
def test_normal_frame_derivative_is_the_site_major_closed_form_bit_for_bit(make, closed_form):
    tg = make()
    K = tg.ambient_dim
    raw = np.random.default_rng(3).standard_normal((6, 8, K))
    for p in (tg.project(raw), 1.2 * tg.project(raw), raw, tg.project(raw)[2, 5]):
        dnu, expected = tg.normal_frame_derivative(p), closed_form(tg, p)
        assert dnu.shape == expected.shape == p.shape[:-1] + (1, K, K)
        assert np.ascontiguousarray(dnu).tobytes() == expected.tobytes()
    # built component-major: TargetData reads the same array as dnu and dnu_c
    td = TargetData(tg, tg.project(raw))
    base = td.dnu.base
    assert base.flags.c_contiguous and base.shape == (1, K, K, 6, 8)
    assert np.shares_memory(td.dnu, td.dnu_c)
    assert td.dnu_c.flags.c_contiguous and td.dnu_c.shape == (1, K, K, 6, 8)
