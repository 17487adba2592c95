"""Variational residuals, the antisymmetric rewriting, and the FD oracle."""

import tracemalloc

import numpy as np
import pytest

from oracles import (_action_gradient_fd_sitewise, dirac_changes_on_grid,
                     moved_map_summands_on_grid, sr_of)
from test_kernels import PlaneSphere
from sigmalab import action, euler_lagrange, fields
from sigmalab._planes import to_planes
from sigmalab.action import (FieldData, dirac_change, dirac_density, field_data, target_data,
                             total_action)
from sigmalab.clifford import sigma_lift
from sigmalab.euler_lagrange import (
    _cross_sum,
    _dirac_changes,
    _fd_colors,
    _moved_map_summands,
    _neighbours,
    action_gradient_fd,
    assemble_map_residual,
    potentials,
    residual_norms,
    residual_phi,
    residual_psi,
    residuals,
    v_fields,
)
from sigmalab.fields import dirac_conformal, frame_violation, tangency_project, twisted_dirac
from sigmalab.geometry import (Grid, SphereTarget, TargetData, div, ellipsoid_target, grad,
                               tangent_basis, tangent_part, tangent_part_slots)
from sigmalab.presets import (
    equator_map,
    smooth_gravitino,
    smooth_map_field,
    smooth_scalar_field,
    smooth_vector_spinor,
)

TG = SphereTarget(3)


def _fields(n=8, a_psi=0.5, a_chi=0.5, modes=2):
    g = Grid(n, n)
    phi = smooth_map_field(g, TG, seed=10, amplitude=0.4, modes=modes)
    psi = smooth_vector_spinor(g, phi, TG, seed=11, amplitude=a_psi, modes=modes)
    chi = smooth_gravitino(g, seed=12, amplitude=a_chi, modes=modes)
    return g, phi, psi, chi, np.zeros(g.shape)


def test_v_fields_zeros_and_bilinearity():
    g, phi, psi, chi, _ = _fields()
    assert np.all(v_fields(np.zeros_like(chi), psi) == 0.0)
    assert np.all(v_fields(chi, np.zeros_like(psi)) == 0.0)
    v = v_fields(chi, psi)
    assert np.max(np.abs(v_fields(2.0 * chi, 3.0 * psi) - 6.0 * v)) < 1e-12


def test_residual_phi_zero_at_constant_critical_point():
    g = Grid(8, 8)
    point = TG.project(np.array([0.1, -0.4, 1.0]))
    phi = np.broadcast_to(point, g.shape + (3,)).copy()
    psi0 = np.zeros(g.shape + (3, 4))
    chi0 = np.zeros(g.shape + (2, 4))
    r = residual_phi(phi, psi0, chi0, np.zeros(g.shape), g, TG)
    assert np.all(r == 0.0)


def test_residual_phi_equator_is_discrete_harmonic():
    for n in (16, 32):
        g = Grid(n, n)
        phi = equator_map(g)
        psi0 = np.zeros(g.shape + (3, 4))
        chi0 = np.zeros(g.shape + (2, 4))
        r = residual_phi(phi, psi0, chi0, np.zeros(g.shape), g, TG)
        assert np.max(np.abs(r)) < 1e-10


def test_residual_psi_reductions():
    g, phi, psi, chi, u = _fields()
    psi0 = np.zeros_like(psi)
    chi0 = np.zeros_like(chi)
    assert np.all(residual_psi(phi, psi0, chi0, u, g, TG) == 0.0)

    # chi = 0, constant phi, single-slot psi: the curvature cubic vanishes on
    # the sphere and the residual is the pure (twisted) Dirac equation
    point = TG.project(np.array([0.0, 0.0, 1.0]))
    phi_c = np.broadcast_to(point, g.shape + (3,)).copy()
    psi_single = np.zeros_like(psi)
    psi_single[..., 0, :] = np.random.default_rng(7).standard_normal(g.shape + (4,))
    psi_single = tangency_project(psi_single, phi_c, TG)
    r = residual_psi(phi_c, psi_single, chi0, u, g, TG)
    tw = twisted_dirac(psi_single, phi_c, u, g, TG)
    assert np.max(np.abs(r - tw)) < 1e-12
    assert frame_violation(r, TG.normal_frame(phi_c)) < 1e-12

    # generic psi keeps the cubic curvature coupling even at constant phi
    psi_c = tangency_project(psi, phi_c, TG)
    r2 = residual_psi(phi_c, psi_c, chi0, u, g, TG)
    tw2 = twisted_dirac(psi_c, phi_c, u, g, TG)
    sr = tangency_project(sr_of(psi_c, phi_c, TG), phi_c, TG)
    assert np.max(np.abs(r2 - (tw2 - sr / 3.0))) < 1e-12


def test_residual_sign_flip_equivariance():
    g, phi, psi, chi, u = _fields()
    rp = residual_phi(phi, psi, chi, u, g, TG)
    rs = residual_psi(phi, psi, chi, u, g, TG)
    rp_f = residual_phi(phi, -psi, -chi, u, g, TG)
    rs_f = residual_psi(phi, -psi, -chi, u, g, TG)
    assert np.max(np.abs(rp_f - rp)) < 1e-12
    assert np.max(np.abs(rs_f + rs)) < 1e-12


def test_potentials_antisymmetric_and_reductions():
    g, phi, psi, chi, u = _fields()
    pots = potentials(phi, psi, chi, u, g, TG)
    for m in (pots.omega, pots.f, pots.t):
        assert np.max(np.abs(m + np.swapaxes(m, -1, -2))) < 1e-12
    p0 = potentials(phi, np.zeros_like(psi), np.zeros_like(chi), u, g, TG)
    assert np.all(p0.f == 0.0)
    assert np.all(p0.t == 0.0)
    assert np.max(np.abs(p0.omega)) > 0.0
    assert np.max(np.abs(p0.omega - pots.omega)) < 1e-14  # omega is psi/chi independent


def test_assembly_reproduces_residual_pointwise():
    g, phi, psi, chi, u = _fields(n=12)
    r = residual_phi(phi, psi, chi, u, g, TG)
    a = assemble_map_residual(phi, psi, chi, u, g, TG)
    assert np.max(np.abs(r - a)) < 1e-10


def test_assembly_exact_with_conformal_factor():
    g, phi, psi, chi, _ = _fields(n=8)
    u = smooth_scalar_field(g, seed=14, amplitude=0.3)
    r = residual_phi(phi, psi, chi, u, g, TG)
    a = assemble_map_residual(phi, psi, chi, u, g, TG)
    assert np.max(np.abs(r - a)) < 1e-10


def test_assembly_exact_on_ellipsoid():
    target = ellipsoid_target([1.0, 1.3, 0.8])
    g = Grid(12, 12)
    phi = smooth_map_field(g, target, seed=10, amplitude=0.4, modes=2)
    psi = smooth_vector_spinor(g, phi, target, seed=11, amplitude=0.5, modes=2)
    chi = smooth_gravitino(g, seed=12, amplitude=0.5, modes=2)
    u = smooth_scalar_field(g, seed=14, amplitude=0.3)
    assert all(np.all(f != 0.0) for f in (psi, chi, u))
    r = residual_phi(phi, psi, chi, u, g, target)
    a = assemble_map_residual(phi, psi, chi, u, g, target)
    assert np.max(np.abs(r - a)) < 1e-10


def test_residual_phi_closed_form_on_non_harmonic_map():
    g = Grid(16, 16)
    phi = smooth_map_field(g, TG, seed=10, amplitude=0.4, modes=2)
    r = residual_phi(phi, np.zeros(g.shape + (3, 4)), np.zeros(g.shape + (2, 4)),
                     np.zeros(g.shape), g, TG)
    dphi = grad(phi, g)
    d = tangent_part(TG.normal_frame(phi), dphi)
    expected = div(dphi, g) + np.sum(d * d, axis=(0, -1))[..., None] * phi
    assert np.max(np.abs(tangent_part(TG.normal_frame(phi), r))) > 0.1  # not a critical point
    assert np.max(np.abs(r - expected)) <= 1e-12 * np.max(np.abs(expected))


def _tangent_residual_case(case):
    """(grid, target, phi, psi, chi, u) with chi and u nonzero; psi is zero only for
    sphere-pure.  The ellipsoid runs SnR; the plane sphere is codimension 2."""
    g = Grid(16, 12)
    chi = smooth_gravitino(g, seed=12, amplitude=0.5, modes=2)
    u = smooth_scalar_field(g, seed=14, amplitude=0.3)
    if case == "plane-sphere":
        target = PlaneSphere()
        rng = np.random.default_rng(15)
        phi = target.project(rng.standard_normal(g.shape + (4,)))
        psi = tangent_part_slots(target.normal_frame(phi), rng.standard_normal(g.shape + (4, 4)))
        return g, target, phi, psi, chi, u
    target = ellipsoid_target([1.0, 1.3, 0.8]) if case == "ellipsoid" else TG
    phi = smooth_map_field(g, target, seed=10, amplitude=0.4, modes=2)
    psi = smooth_vector_spinor(g, phi, target, seed=11, amplitude=0.5, modes=2)
    if case == "sphere-pure":
        psi = np.zeros_like(psi)
    return g, target, phi, psi, chi, u


@pytest.mark.parametrize("case", ["sphere-pure", "sphere-coupled", "ellipsoid", "plane-sphere"])
def test_flow_tangent_residual_is_the_tangent_part_of_r_phi(case):
    # the flow leaves out the normal term of r_phi, which the projection annihilates
    g, target, phi, psi, chi, u = _tangent_residual_case(case)
    tdata = TargetData(target, phi)
    rt = euler_lagrange._tangent_residual_phi(field_data(phi, psi, chi, u, g, target, tdata))
    ref = tangent_part(tdata.nu, residual_phi(phi, psi, chi, u, g, target))
    assert np.max(np.abs(rt)) > 0.0
    assert np.max(np.abs(rt - ref)) <= 1e-14 * np.max(np.abs(rt))


def test_fd_gradient_zero_at_critical_point():
    g = Grid(8, 8)
    point = TG.project(np.array([0.0, 0.0, 1.0]))
    phi = np.broadcast_to(point, g.shape + (3,)).copy()
    psi0 = np.zeros(g.shape + (3, 4))
    chi0 = np.zeros(g.shape + (2, 4))
    gp, gs = action_gradient_fd(phi, psi0, np.zeros(g.shape), chi0, g, TG)
    assert np.max(np.abs(gp)) < 1e-9
    assert np.max(np.abs(gs)) < 1e-9


def test_fd_gradient_of_dirichlet_term_alone():
    # with zero couplings the action is the Dirichlet term; its gradient is
    # -2 (tangent-projected wide Laplacian) per cell volume
    g = Grid(16, 16)
    phi = smooth_map_field(g, TG, seed=10, amplitude=0.4, modes=1)
    psi0 = np.zeros(g.shape + (3, 4))
    chi0 = np.zeros(g.shape + (2, 4))
    u0 = np.zeros(g.shape)
    gp, _ = action_gradient_fd(phi, psi0, u0, chi0, g, TG)
    rp = residual_phi(phi, psi0, chi0, u0, g, TG)
    pi = TG.tangent_projector(phi)
    rp_t = np.einsum("xyab,xyb->xya", pi, rp)
    err = np.linalg.norm(gp / (-2.0 * g.cell_area) - rp_t) / np.linalg.norm(rp_t)
    assert err < 1e-7


def test_colored_fd_matches_sitewise_reference():
    g, phi, psi, chi, _ = _fields(n=8, a_psi=0.3, a_chi=0.3)
    u = smooth_scalar_field(g, seed=15, amplitude=0.25)
    gp1, gs1 = action_gradient_fd(phi, psi, u, chi, g, TG)
    gp2, gs2 = _action_gradient_fd_sitewise(phi, psi, u, chi, g, TG, 1e-5)
    scale_p = np.max(np.abs(gp2)) + 1e-12
    scale_s = np.max(np.abs(gs2)) + 1e-12
    assert np.max(np.abs(gp1 - gp2)) / scale_p < 1e-7
    assert np.max(np.abs(gs1 - gs2)) / scale_s < 1e-7


@pytest.mark.parametrize("n1, n2", [(4, 4), (5, 6), (5, 7), (8, 8), (10, 10), (12, 12), (12, 8),
                                    (16, 32), (32, 32), (64, 64)])
def test_fd_colors_are_at_torus_distance_3(n1, n2):
    # no two sites of one class within torus Manhattan distance 2: every offset
    # 0 < |di| + |dj| <= 2 moves each site to another class
    colors = _fd_colors(Grid(n1, n2))
    assert colors.shape == (n1, n2)
    assert set(np.unique(colors)) == set(range(int(colors.max()) + 1))
    for di in range(-2, 3):
        for dj in range(abs(di) - 2, 3 - abs(di)):
            if (di, dj) != (0, 0):
                assert np.all(np.roll(colors, (di, dj), axis=(0, 1)) != colors), (di, dj)


@pytest.mark.parametrize("n1, n2, count", [(8, 8, 8), (16, 16, 8), (32, 32, 8), (64, 64, 8),
                                           (16, 32, 8), (10, 10, 5), (12, 12, 6),
                                           (12, 8, 12), (5, 6, 15), (4, 4, 16), (5, 7, 35)])
def test_fd_color_counts(n1, n2, count):
    # one class per site on 4^2 and 5x7
    assert int(_fd_colors(Grid(n1, n2)).max()) + 1 == count


def _oracle_fields_32():
    g = Grid(32, 32)
    phi = smooth_map_field(g, TG, seed=5, amplitude=0.4, modes=1)
    psi = smooth_vector_spinor(g, phi, TG, seed=7, amplitude=0.1, modes=1)
    chi = smooth_gravitino(g, seed=9, amplitude=0.1, modes=1)
    return g, phi, psi, chi


def test_fd_oracle_density_calls_at_32(monkeypatch):
    # the only D_u is psi's own on the grid, which phi's FieldData builds, and no I + III
    # runs there; per class (8), the D_u of the 10 probe pairs' psi changes (2 phi pairs,
    # 2 directions x 4 slots of psi) at the class's 4 x 128 neighbours is a signed
    # permutation of them, with no clifford_planes call, and one evaluation each at the
    # class's 128 sites or at their neighbours, its probes of both tangent directions
    # stacked on a leading axis, serves the phi probes' I + III (2 directions x 2 maps) at
    # the sites and at the neighbours, their IV + V at the sites, and the psi probes'
    # III + IV + V (2 directions x 4 slots x 2 signs) there
    g, phi, psi, chi = _oracle_fields_32()
    calls = {"clifford_planes": [], "dphi_densities": [], "local_densities": [],
             "pointwise_densities": []}
    for name, log in calls.items():
        module = fields if name == "clifford_planes" else euler_lagrange
        fn = getattr(module, name)
        logged = lambda *a, _fn=fn, _log=log, **k: _log.append(a) or _fn(*a, **k)  # noqa: E731
        monkeypatch.setattr(module, name, logged)
    grid_frames = []
    frame = TG.normal_frame
    monkeypatch.setattr(TG, "normal_frame", lambda p: (
        p.shape[:2] == g.shape and grid_frames.append(np.array_equal(p, phi))) or frame(p))
    action_gradient_fd(phi, psi, np.zeros(g.shape), chi, g, TG)
    assert [d.shape for _, d in calls["clifford_planes"]] == [(2, 3, 4, 32, 32)]
    dphi_shapes = [fd.dphi.shape for (fd,) in calls["dphi_densities"]]
    assert not [s for s in dphi_shapes if s[-2:] == g.shape]
    assert {s: dphi_shapes.count(s) for s in dphi_shapes} == {(2, 3, 1, 128): 8,
                                                              (2, 3, 4, 4, 128): 8}
    assert len(calls["local_densities"]) == 8
    assert {fd.psi.shape for (fd,) in calls["local_densities"]} == {(4, 128, 3, 4)}
    assert len(calls["pointwise_densities"]) == 8
    assert {fd.psi.shape for (fd,) in calls["pointwise_densities"]} == {(16, 128, 3, 4)}
    assert grid_frames == [True]


def test_fd_oracle_frame_points_at_32(monkeypatch):
    # the frame of phi on the grid and of each class's phi probes' moved points, both
    # directions' pairs stacked, (4, 128): 5,120 points per call; the class's sites read
    # phi's frame and A gathered from the grid
    g, phi, psi, chi = _oracle_fields_32()
    shapes = []
    frame = TG.normal_frame
    monkeypatch.setattr(TG, "normal_frame", lambda p: shapes.append(p.shape[:-1]) or frame(p))
    action_gradient_fd(phi, psi, np.zeros(g.shape), chi, g, TG)
    assert {s: shapes.count(s) for s in shapes} == {(32, 32): 1, (4, 128): 8}
    assert sum(int(np.prod(s)) for s in shapes) == 5120


def test_fd_oracle_tracemalloc_peak_at_32():
    # the probes' D_u at the neighbours is a signed permutation of their psi changes, with
    # no D_flat input whose other axis's half is zeros: one 32^2 call peaks near 2.6 MB
    # (3.4 MB with that input)
    g, phi, psi, chi = _oracle_fields_32()
    u = smooth_scalar_field(g, seed=15, amplitude=0.25)
    action_gradient_fd(phi, psi, u, chi, g, TG)
    tracemalloc.start()
    try:
        action_gradient_fd(phi, psi, u, chi, g, TG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.0e6


def test_fd_oracle_takes_at_most_seven_exponentials_of_u_at_32(monkeypatch):
    # e^{2u}, e^{3u}, e^{4u} and D_u's four weights, once per call in phi's FieldData: the
    # probes' D_u reads those weights (167 u-sized exponentials when each probe pair took
    # its own)
    g, phi, psi, chi = _oracle_fields_32()
    u = smooth_scalar_field(g, seed=15, amplitude=0.25)
    exp_sizes, exp = [], np.exp

    def counted_exp(x, *args, **kwargs):
        out = exp(x, *args, **kwargs)
        exp_sizes.append(np.size(out))
        return out

    monkeypatch.setattr(np, "exp", counted_exp)
    action_gradient_fd(phi, psi, u, chi, g, TG)
    assert sum(size for size in exp_sizes if size % u.size == 0) <= 7 * u.size


# sum(grad_phi * w_phi) and sum(grad_psi * w_psi) of action_gradient_fd at 8^2 with u and
# chi nonzero, w_phi and w_psi standard normal from default_rng(43), taken before the
# oracle stacked its directions and took its probes' D_u on planes
_FD_ORACLE_PINS = {"sphere": (-7.092434989246983, 0.41773681033624044),
                   "ellipsoid": (-6.095539203237214, 0.8506768597723512)}


@pytest.mark.parametrize("name, target", [("sphere", TG),
                                          ("ellipsoid", ellipsoid_target([1.0, 1.3, 0.8]))],
                         ids=["sphere", "ellipsoid"])
def test_fd_oracle_seeded_regression_values(name, target):
    g = Grid(8, 8)
    phi = target.project(smooth_map_field(g, TG, seed=10, amplitude=0.4))
    psi = smooth_vector_spinor(g, phi, target, seed=11, amplitude=0.3)
    chi = smooth_gravitino(g, seed=12, amplitude=0.3)
    u = smooth_scalar_field(g, seed=15, amplitude=0.25)
    gp, gs = action_gradient_fd(phi, psi, u, chi, g, target)
    rng = np.random.default_rng(43)
    values = [np.sum(grad * rng.standard_normal(grad.shape)) for grad in (gp, gs)]
    for value, pinned in zip(values, _FD_ORACLE_PINS[name]):
        assert abs(value - pinned) <= 1e-13 * abs(pinned)


def test_fd_oracle_builds_the_frame_of_phi_once(monkeypatch):
    """The tangent bases read one TargetData of phi (no probe reads a frame on the grid);
    the phi probes build the frames of their moved points, and each class gathers phi's
    frame at its sites, which all its probes' pointwise summands read."""
    te = ellipsoid_target([1.0, 1.3, 0.8])
    g = Grid(8, 8)
    phi = te.project(smooth_map_field(g, TG, seed=5, amplitude=0.4, modes=1))
    psi = smooth_vector_spinor(g, phi, te, seed=7, amplitude=0.1, modes=1)
    chi = smooth_gravitino(g, seed=9, amplitude=0.1, modes=1)
    of_phi = []
    frame = te.normal_frame
    monkeypatch.setattr(te, "normal_frame",
                        lambda p: of_phi.append(np.array_equal(p, phi)) or frame(p))
    action_gradient_fd(phi, psi, smooth_scalar_field(g, seed=11, amplitude=0.3), chi, g, te)
    assert sum(of_phi) == 1
    assert len(of_phi) > 1


@pytest.mark.parametrize("target", [TG, ellipsoid_target([1.0, 1.3, 0.8])],
                         ids=["sphere", "ellipsoid"])
@pytest.mark.parametrize("n1, n2", [(8, 8), (10, 10), (5, 6), (4, 4)])
def test_the_dirac_change_of_one_colour_class_is_its_polarization(target, n1, n2):
    # a and b supported on one _fd_colors class: D_u reads a site's neighbours, never the
    # site, so <a, D_u a> and <b, D_u b> vanish and II(psi + a) - II(psi + b) is
    # e^{3u} (<a - b, D_u psi> + <psi, D_u (a - b)>) at every site
    g = Grid(n1, n2)
    phi = smooth_map_field(g, target, seed=10, amplitude=0.4)
    psi = smooth_vector_spinor(g, phi, target, seed=11, amplitude=0.3)
    chi, u = np.zeros(g.shape + (2, 4)), smooth_scalar_field(g, seed=15, amplitude=0.25)
    tdata = target_data(target, phi)
    rng = np.random.default_rng(38)

    def errors(mask):
        a, b = np.zeros((2,) + psi.shape)
        a[mask], b[mask] = rng.standard_normal((2,) + a[mask].shape)
        direct = (dirac_density(FieldData(phi, psi + a, chi, u, g, tdata=tdata))
                  - dirac_density(FieldData(phi, psi + b, chi, u, g, tdata=tdata)))
        polarized = dirac_change(FieldData(phi, psi, chi, u, g, tdata=tdata), a - b,
                                 dirac_conformal(a - b, u, g))
        return np.max(np.abs(direct - polarized)) / np.max(np.abs(direct))

    mask = _fd_colors(g) == 1
    assert errors(mask) <= 1e-13
    i, j = np.argwhere(mask)[0]                 # a neighbour in the mask breaks the identity
    mask[i, (j + 1) % n2] = True
    assert errors(mask) > 1e-8


@pytest.mark.parametrize("target", [TG, ellipsoid_target([1.0, 1.3, 0.8])],
                         ids=["sphere", "ellipsoid"])
@pytest.mark.parametrize("n1, n2", [(4, 4), (5, 6), (10, 10), (12, 8), (16, 16)])
@pytest.mark.parametrize("coupled", [True, False], ids=["coupled", "psi-chi-u-zero"])
def test_the_fd_oracle_cross_path_has_the_grid_path_bits(target, n1, n2, coupled):
    # for every colour class (on 4^2, s + 2e = s - 2e), the probes' Dirac changes and the
    # phi probes' I + III evaluated at the sites and their neighbours alone equal the whole
    # grid's, probe by probe, bit for bit; the grid's changes vanish off the 5-point
    # crosses, so their cross sums are the whole action changes
    g = Grid(n1, n2)
    phi = target.project(smooth_map_field(g, TG, seed=10, amplitude=0.4))
    psi = smooth_vector_spinor(g, phi, target, seed=11, amplitude=0.3)
    chi = smooth_gravitino(g, seed=12, amplitude=0.3)
    u = smooth_scalar_field(g, seed=15, amplitude=0.25)
    if not coupled:
        psi, chi, u = np.zeros_like(psi), np.zeros_like(chi), np.zeros_like(u)
    fdata = field_data(phi, psi, chi, u, g, target)
    tb = tangent_basis(fdata.tdata).reshape(n1 * n2, 2, 3)
    rng = np.random.default_rng(44)
    colors = _fd_colors(g).reshape(-1)
    for color in range(int(colors.max()) + 1):
        sites = np.flatnonzero(colors == color)
        m, dirs = len(sites), tb[sites].swapaxes(0, 1)              # (2, m, 3)
        crosses = np.concatenate([sites[None], _neighbours(sites, g.shape)])
        off = np.setdiff1d(np.arange(n1 * n2), crosses)
        here, near = fdata.at_sites(sites), fdata.at_sites(crosses[1:], framed=False)
        # the phi probes, +- 0.05 along each tangent direction with psi reprojected, and
        # their pairs' psi changes; then one psi change per direction and slot
        phi_m = phi.reshape(-1, 3)[sites]
        moved = target_data(target, np.concatenate(
            [target.project(phi_m + np.stack((0.05 * d, -0.05 * d))) for d in dirs]))
        psi_m = tangent_part_slots(moved.nu, psi.reshape(-1, 3, 4)[sites][None])
        delta = np.zeros((3, 4, 10, m))
        delta[:, :, :2] = to_planes(psi_m[0::2] - psi_m[1::2], 2)
        for t, d in enumerate(dirs):
            for slot in range(4):
                delta[:, slot, 2 + 4 * t + slot] = (rng.standard_normal((m, 1)) * d).T
        grid_changes = (
            dirac_changes_on_grid(fdata, sites, delta).reshape(10, -1),
            moved_map_summands_on_grid(fdata, sites, moved.phi, psi_m).reshape(4, -1))
        far = np.moveaxis(phi.reshape(-1, 3)[_neighbours(sites, g.shape, 2)], -1, 0)
        cross_changes = (
            _dirac_changes(here, near, delta, g),
            _moved_map_summands(here, near, to_planes(moved.phi, 1), to_planes(psi_m, 2),
                                far, g))
        for on_grid, (at, around) in zip(grid_changes, cross_changes):
            assert np.array_equal(at, on_grid[:, sites])
            assert np.array_equal(around, on_grid[:, crosses[1:]])
            assert np.array_equal(_cross_sum(at, around),
                                  _cross_sum(on_grid[:, sites], on_grid[:, crosses[1:]]))
        dirac, dens = grid_changes
        assert not np.any(dirac[:, off]) and not np.any(dens[0::2, off] - dens[1::2, off])
        assert np.any(dens[0::2] - dens[1::2])
        assert np.any(dirac[2:]) == coupled     # at psi = 0, <a, D_u a> - <b, D_u b> = 0


def test_the_fd_oracle_reads_no_residual_and_no_adjoint(monkeypatch):
    # the oracle differences the action's own summands only, so it is an independent
    # check of the residuals and of the symmetrized Dirac operator they read
    g, phi, psi, chi, _ = _fields(n=8)
    u = smooth_scalar_field(g, seed=15, amplitude=0.25)
    expected = action_gradient_fd(phi, psi, u, chi, g, TG)

    def fail(*args, **kwargs):
        raise AssertionError("the oracle read a residual or the Dirac adjoint")

    for module in (fields, action, euler_lagrange):
        for name in ("dirac_conformal_adjoint", "dirac_conformal_sym", "dirac_sym_planes",
                     "residual_phi", "residual_psi"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, fail)
    gp, gs = action_gradient_fd(phi, psi, u, chi, g, TG)
    assert np.array_equal(gp, expected[0]) and np.array_equal(gs, expected[1])
    assert np.max(np.abs(gp)) > 0.0 and np.max(np.abs(gs)) > 0.0


@pytest.mark.parametrize("n", [8, 4])
def test_colored_fd_matches_sitewise_reference_on_ellipsoid(n):
    # a non-umbilic target with u and chi nonzero; 4^2 has one class per site
    te = ellipsoid_target([1.0, 1.3, 0.8])
    g = Grid(n, n)
    phi = smooth_map_field(g, te, seed=10, amplitude=0.4)
    psi = smooth_vector_spinor(g, phi, te, seed=11, amplitude=0.3)
    chi = smooth_gravitino(g, seed=12, amplitude=0.3)
    u = smooth_scalar_field(g, seed=15, amplitude=0.25)
    gp1, gs1 = action_gradient_fd(phi, psi, u, chi, g, te)
    gp2, gs2 = _action_gradient_fd_sitewise(phi, psi, u, chi, g, te, 1e-5)
    assert np.max(np.abs(gp2)) > 0.0 and np.max(np.abs(gs2)) > 0.0
    assert np.max(np.abs(gp1 - gp2)) / np.max(np.abs(gp2)) < 1e-7
    assert np.max(np.abs(gs1 - gs2)) / np.max(np.abs(gs2)) < 1e-7


@pytest.mark.parametrize("step", [np.nan, np.inf, 0.0, -1.0])
def test_fd_oracle_rejects_a_step_that_is_not_positive_and_finite(step, monkeypatch):
    g, phi, psi, chi, u = _fields(n=8)
    monkeypatch.setattr(euler_lagrange, "target_data", None)      # no probe may run
    with pytest.raises(ValueError, match="step"):
        action_gradient_fd(phi, psi, u, chi, g, TG, step=step)


@pytest.mark.parametrize("n1, n2", [(10, 10), (5, 6)])
def test_colored_fd_matches_sitewise_reference_off_powers_of_two(n1, n2):
    g = Grid(n1, n2)
    phi = smooth_map_field(g, TG, seed=10, amplitude=0.4)
    psi = smooth_vector_spinor(g, phi, TG, seed=11, amplitude=0.3)
    chi = smooth_gravitino(g, seed=12, amplitude=0.3)
    u = smooth_scalar_field(g, seed=15, amplitude=0.25)
    gp1, gs1 = action_gradient_fd(phi, psi, u, chi, g, TG)
    gp2, gs2 = _action_gradient_fd_sitewise(phi, psi, u, chi, g, TG, 1e-5)
    assert np.max(np.abs(gp2)) > 0.0 and np.max(np.abs(gs2)) > 0.0
    assert np.max(np.abs(gp1 - gp2)) / np.max(np.abs(gp2)) < 1e-7
    assert np.max(np.abs(gs1 - gs2)) / np.max(np.abs(gs2)) < 1e-7


def _fd_match(g, phi, psi, chi, u):
    rp = residual_phi(phi, psi, chi, u, g, TG)
    rs = residual_psi(phi, psi, chi, u, g, TG)
    gp, gs = action_gradient_fd(phi, psi, u, chi, g, TG)
    cell = g.cell_area
    pi = TG.tangent_projector(phi)
    rp_t = np.einsum("xyab,xyb->xya", pi, rp)
    err_phi = np.linalg.norm(gp / (-2.0 * cell) - rp_t) / np.linalg.norm(rp_t)
    err_psi = np.linalg.norm(gs / (2.0 * cell) - rs) / np.linalg.norm(rs)
    return err_phi, err_psi


def test_residuals_match_fd_gradient_flat_metric():
    g, phi, psi, chi, u = _fields(n=16, a_psi=0.2, a_chi=0.2, modes=1)
    err_phi, err_psi = _fd_match(g, phi, psi, chi, u)
    assert err_phi < 2e-3
    assert err_psi < 1e-8


def test_psi_residual_fd_exact_with_conformal_factor():
    g, phi, psi, chi, _ = _fields(n=8, a_psi=0.3, a_chi=0.3)
    u = smooth_scalar_field(g, seed=16, amplitude=0.3)
    rs = residual_psi(phi, psi, chi, u, g, TG)
    _, gs = action_gradient_fd(phi, psi, u, chi, g, TG)
    err = np.linalg.norm(gs / (2.0 * g.cell_area) - rs) / np.linalg.norm(rs)
    assert err < 1e-8


def test_phi_residual_fd_second_order_with_conformal_factor():
    errs = []
    for n in (8, 16):
        g = Grid(n, n)
        phi = smooth_map_field(g, TG, seed=10, amplitude=0.4, modes=1)
        psi = smooth_vector_spinor(g, phi, TG, seed=11, amplitude=0.3, modes=1)
        chi = smooth_gravitino(g, seed=12, amplitude=0.3, modes=1)
        u = smooth_scalar_field(g, seed=16, amplitude=0.3)
        err_phi, _ = _fd_match(g, phi, psi, chi, u)
        errs.append(err_phi)
    assert errs[1] < errs[0]
    assert errs[1] < 5e-3


def test_residual_norms_structure():
    g, phi, psi, chi, u = _fields()
    res = residuals(phi, psi, chi, u, g, TG)
    n = residual_norms(res, g, TargetData(TG, phi))
    for key in ("phi", "psi", "combined"):
        assert set(n[key]) == {"l2", "linf"}
        assert n[key]["l2"] >= 0.0
    assert n["combined"]["l2"] >= max(n["phi"]["l2"], n["psi"]["l2"]) / np.sqrt(2)


def test_psi_residual_fd_exact_on_ellipsoid():
    # a non-umbilic target: the second fundamental form is not a multiple of
    # the metric, so the twisting term of the Dirac operator is not uniform
    target = ellipsoid_target([1.0, 1.3, 0.8])
    g = Grid(8, 8)
    phi = smooth_map_field(g, target, seed=10, amplitude=0.4)
    psi = smooth_vector_spinor(g, phi, target, seed=11, amplitude=0.3)
    chi = smooth_gravitino(g, seed=12, amplitude=0.3)
    u = smooth_scalar_field(g, seed=16, amplitude=0.3)
    rs = residual_psi(phi, psi, chi, u, g, target)
    _, gs = action_gradient_fd(phi, psi, u, chi, g, target)
    err = np.linalg.norm(gs / (2.0 * g.cell_area) - rs) / np.linalg.norm(rs)
    assert err < 1e-8


def test_phi_residual_spinor_part_is_second_order():
    # r_phi's Dirac coupling is a second-order approximation of the action's
    # phi-gradient, not its exact discrete gradient: the spinor part alone,
    # r_phi(phi, psi) - r_phi(phi, 0), against the same difference of the FD
    # oracle (max error over max gradient 13% at 16^2, 3.2% at 32^2)
    errs = []
    for n in (16, 32):
        g = Grid(n, n)
        phi = smooth_map_field(g, TG, seed=5, amplitude=0.4, modes=1)
        psi = smooth_vector_spinor(g, phi, TG, seed=7, amplitude=0.1, modes=1)
        chi = np.zeros(g.shape + (2, 4))
        u = smooth_scalar_field(g, seed=11, amplitude=0.3, modes=1)
        psi0 = np.zeros_like(psi)
        r = residual_phi(phi, psi, chi, u, g, TG) - residual_phi(phi, psi0, chi, u, g, TG)
        fd = action_gradient_fd(phi, psi, u, chi, g, TG)[0] - action_gradient_fd(
            phi, psi0, u, chi, g, TG)[0]
        fd /= -2.0 * g.cell_area
        errs.append(np.max(np.abs(fd - tangent_part(TG.normal_frame(phi), r))) / np.max(np.abs(fd)))
    assert np.log2(errs[0] / errs[1]) >= 1.8


def _exact_coupled_critical_point(n):
    # phi the equator, psi = e^{-u} (d_x phi) (x) s with s constant, chi a pure sigma lift
    # (Q chi = 0) and u constant: a critical point with every field nonzero
    g = Grid(n, n)
    phi = equator_map(g)
    r = np.random.default_rng(27)
    s = r.standard_normal(4)
    s *= 0.3 / np.linalg.norm(s)
    u = np.full(g.shape, 0.2)
    psi = np.exp(-u)[..., None, None] * grad(phi, g)[0][..., None] * s
    chi = sigma_lift(r.standard_normal(g.shape + (4,)))
    return g, phi, psi, chi, u


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_exact_coupled_critical_point_residuals_vanish(n):
    g, phi, psi, chi, u = _exact_coupled_critical_point(n)
    res = residuals(phi, psi, chi, u, g, TG)
    assert np.max(np.abs(res.r_phi)) <= 1e-11
    assert np.max(np.abs(res.r_psi)) <= 1e-11
    # the action is the Dirichlet energy of the equator alone
    exact = (np.sin(2 * np.pi * g.h1) / g.h1) ** 2
    assert abs(total_action(phi, psi, u, chi, g, TG).total - exact) <= 1e-12 * exact


@pytest.mark.parametrize("n", [8, 16])
def test_exact_coupled_critical_point_fd_gradient_vanishes(n):
    g, phi, psi, chi, u = _exact_coupled_critical_point(n)
    gp, gs = action_gradient_fd(phi, psi, u, chi, g, TG)
    assert np.max(np.abs(gp)) <= 1e-10
    assert np.max(np.abs(gs)) <= 1e-10


def test_smooth_conformal_factor_tells_the_couplings_apart():
    # the critical point above with u = smooth_scalar_field(g, 11, 0.3) and psi rescaled to
    # e^{-u} (d_x phi) (x) s: C(psi), SR(psi) and Q chi still vanish pointwise, so r_phi
    # vanishes, while r_psi is the O(h^2) leak of the conformal conjugation inside the
    # discrete Dirac operator (L2 4.7e-2, 1.4e-2 and 3.6e-3 at 16^2, 32^2 and 64^2, orders
    # 1.78 and 1.95).  A conformal exponent of -1.4 for -3/2 in dirac_conformal leaves
    # r_psi an O(1) error: order 0.41 from 32^2 to 64^2
    l2 = []
    for n in (16, 32, 64):
        g, phi, psi, chi, u = _exact_coupled_critical_point(n)
        u_smooth = smooth_scalar_field(g, 11, 0.3)
        psi = np.exp(u - u_smooth)[..., None, None] * psi
        res = residuals(phi, psi, chi, u_smooth, g, TG)
        assert np.max(np.abs(res.r_phi)) <= 1e-11
        l2.append(np.sqrt(np.sum(res.r_psi * res.r_psi) * g.cell_area))
    assert np.log2(l2[1] / l2[2]) >= 1.8
