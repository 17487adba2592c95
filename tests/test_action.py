"""The five action terms, the curvature contractions, and the exact symmetries."""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmalab import clifford as cl
from sigmalab._planes import to_planes
from oracles import curvature_operator, nabla_A, second_fund_form, sr_of
from sigmalab.action import (FieldData, _densities, dphi_densities, gamma_chi, local_densities,
                             pointwise_densities, snr_of, target_data, total_action)
from sigmalab.clifford import sigma_lift
from sigmalab.euler_lagrange import residual_phi, residual_psi
from sigmalab.fields import conformal_rescale, tangency_project
from sigmalab.geometry import Grid, SphereTarget, ellipsoid_target
from sigmalab.presets import (
    equator_map,
    smooth_gravitino,
    smooth_map_field,
    smooth_scalar_field,
    smooth_vector_spinor,
)

TG = SphereTarget(3)


def _fields(n=16, a_psi=0.5, a_chi=0.5, modes=2):
    g = Grid(n, n)
    phi = smooth_map_field(g, TG, seed=10, amplitude=0.4, modes=modes)
    psi = smooth_vector_spinor(g, phi, TG, seed=11, amplitude=a_psi, modes=modes)
    chi = smooth_gravitino(g, seed=12, amplitude=a_chi, modes=modes)
    u = np.zeros(g.shape)
    return g, phi, psi, chi, u


def zeros_for(g, K=3):
    return (
        np.zeros(g.shape + (K, 4)),
        np.zeros(g.shape + (2, 4)),
        np.zeros(g.shape),
    )


# ---- term I -------------------------------------------------------------------


def test_dirichlet_constant_map_is_zero():
    g = Grid(8, 8)
    phi = np.broadcast_to(np.array([0.0, 0.0, 1.0]), g.shape + (3,)).copy()
    psi0, chi0, u0 = zeros_for(g)
    assert total_action(phi, psi0, u0, chi0, g, TG).I_dirichlet == 0.0


def test_dirichlet_equator_closed_form_and_convergence():
    values = []
    for n in (16, 32, 64):
        g = Grid(n, n)
        psi0, chi0, u0 = zeros_for(g)
        e = total_action(equator_map(g), psi0, u0, chi0, g, TG).I_dirichlet
        exact_discrete = (np.sin(2 * np.pi * g.h1) / g.h1) ** 2
        assert abs(e - exact_discrete) < 1e-10
        values.append(e)
    cont = (2 * np.pi) ** 2
    errs = [abs(v - cont) for v in values]
    assert np.log2(errs[0] / errs[1]) > 1.9
    assert np.log2(errs[1] / errs[2]) > 1.9


def test_dirichlet_invariant_under_constant_rescaling():
    g, phi, psi, chi, u = _fields(8)
    u_const = np.full(g.shape, 0.8)
    assert (total_action(phi, psi, u_const, chi, g, TG).I_dirichlet
            == total_action(phi, psi, u, chi, g, TG).I_dirichlet)


# ---- term II ------------------------------------------------------------------


def test_dirac_term_zero_spinor():
    g, phi, _, chi, u = _fields(8)
    psi0 = np.zeros(g.shape + (3, 4))
    assert total_action(phi, psi0, u, chi, g, TG).II_dirac == 0.0


def test_dirac_term_seeded_regression_value():
    g, phi, psi, chi, u = _fields(16)
    val = total_action(phi, psi, u, chi, g, TG).II_dirac
    assert val != 0.0
    assert abs(val - 0.8307908050533621) < 1e-12


# ---- term III -----------------------------------------------------------------


def test_gravitino_term_zeros():
    g, phi, psi, chi, u = _fields(8)
    assert total_action(phi, psi, u, np.zeros_like(chi), g, TG).III_gravitino == 0.0
    point = TG.project(np.array([1.0, 0.2, -0.1]))
    phi_const = np.broadcast_to(point, g.shape + (3,)).copy()
    psi_const = tangency_project(psi, phi_const, TG)
    assert abs(total_action(phi_const, psi_const, u, chi, g, TG).III_gravitino) < 1e-12


def test_gravitino_term_depends_only_on_q_part():
    g, phi, psi, chi, u = _fields(8)
    spin = np.random.default_rng(3).standard_normal(g.shape + (4,))
    shifted = chi + sigma_lift(spin)
    base = total_action(phi, psi, u, chi, g, TG).III_gravitino
    shifted_term = total_action(phi, psi, u, shifted, g, TG).III_gravitino
    assert abs(shifted_term - base) < 1e-12 * (1 + abs(base))
    # a pure sigma-lift gravitino contributes nothing
    pure = np.zeros_like(chi) + sigma_lift(spin)
    assert abs(total_action(phi, psi, u, pure, g, TG).III_gravitino) < 1e-12


def test_gamma_chi_is_minus_twice_q_chi():
    # the action reads chi only through Q chi: Gamma chi = -2 Q chi, bit for bit
    chi = np.random.default_rng(4).standard_normal((6, 8, 2, 4))
    assert np.array_equal(gamma_chi(chi), -2.0 * cl.q_project(chi))


# ---- term IV ------------------------------------------------------------------


def test_qchi_term_sign_and_zeros():
    g, phi, psi, chi, u = _fields(8)
    assert total_action(phi, np.zeros_like(psi), u, chi, g, TG).IV_qchi == 0.0
    assert total_action(phi, psi, u, np.zeros_like(chi), g, TG).IV_qchi == 0.0
    assert total_action(phi, psi, u, chi, g, TG).IV_qchi <= 0.0
    spin = np.random.default_rng(4).standard_normal(g.shape + (4,))
    pure = np.zeros_like(chi) + sigma_lift(spin)
    assert total_action(phi, psi, u, pure, g, TG).IV_qchi == 0.0


# ---- curvature contractions ----------------------------------------------------


def test_sr_zero_and_cubic_scaling():
    g, phi, psi, _, _ = _fields(8)
    assert np.all(sr_of(np.zeros_like(psi), phi, TG) == 0.0)
    sr1 = sr_of(psi, phi, TG)
    sr3 = sr_of(3.0 * psi, phi, TG)
    assert np.max(np.abs(sr3 - 27.0 * sr1)) < 1e-9 * np.max(np.abs(sr1))


def test_sr_sphere_single_slot_vanishes():
    # hand derivation on the unit sphere: SR^d = |psi|^2 psi^d - <psi^d, psi^b> psi^b,
    # which cancels identically when only one slot is populated
    g = Grid(8, 8)
    point = np.array([0.0, 0.0, 1.0])
    phi = np.broadcast_to(point, g.shape + (3,)).copy()
    psi = np.zeros(g.shape + (3, 4))
    psi[..., 0, :] = np.random.default_rng(5).standard_normal(g.shape + (4,))
    assert np.max(np.abs(sr_of(psi, phi, TG))) < 1e-13


def test_sr_sphere_closed_form():
    g, phi, psi, _, _ = _fields(8)
    sr = sr_of(psi, phi, TG)
    n2 = np.einsum("xyai,xyai->xy", psi, psi)
    inner = np.einsum("xydi,xybi->xydb", psi, psi)
    expected = n2[..., None, None] * psi - np.einsum("xydb,xybi->xydi", inner, psi)
    assert np.max(np.abs(sr - expected)) < 1e-12


def test_sr_pairing_equals_brute_force_contraction():
    g, phi, psi, chi, u = _fields(8)
    tdata = target_data(TG, phi)
    flat_p = phi.reshape(-1, 3)
    pi = tdata.pi.reshape(-1, 3, 3)
    K = 3
    rt = np.zeros((flat_p.shape[0], K, K, K, K))
    for b in range(K):
        for c in range(K):
            for d in range(K):
                vec = curvature_operator(TG, flat_p, pi[:, :, c], pi[:, :, d], pi[:, :, b])
                rt[:, :, b, c, d] = vec
    psi_flat = psi.reshape(-1, 3, 4)
    r_psi = np.zeros(flat_p.shape[0])
    for a in range(K):
        for b in range(K):
            for c in range(K):
                for d in range(K):
                    r_psi += (
                        rt[:, a, b, c, d]
                        * np.einsum("si,si->s", psi_flat[:, a], psi_flat[:, c])
                        * np.einsum("si,si->s", psi_flat[:, b], psi_flat[:, d])
                    )
    direct = np.einsum("xyai,xyai->xy", sr_of(psi, phi, TG), psi).reshape(-1)
    assert np.max(np.abs(direct - r_psi)) < 1e-10 * (1.0 + np.max(np.abs(r_psi)))

    oracle_term = float(-np.sum(r_psi) * g.cell_area / 6.0)
    assert abs(total_action(phi, psi, u, chi, g, TG, tdata=tdata).V_curvature
               - oracle_term) < 1e-10


def test_curvature_term_quartic_scaling():
    g, phi, psi, chi, u = _fields(8)
    v1 = total_action(phi, psi, u, chi, g, TG).V_curvature
    v2 = total_action(phi, 2.0 * psi, u, chi, g, TG).V_curvature
    assert abs(v2 - 16.0 * v1) < 1e-9 * abs(v1)
    assert total_action(phi, np.zeros_like(psi), u, chi, g, TG).V_curvature == 0.0


def test_snr_zero_on_sphere_and_zero_spinor():
    g, phi, psi, _, _ = _fields(8)
    assert np.all(snr_of(psi, target_data(TG, phi)) == 0.0)
    te = ellipsoid_target([1.0, 1.2, 0.9])
    phie = smooth_map_field(g, te, seed=20, amplitude=0.2)
    assert np.all(snr_of(np.zeros_like(psi), target_data(te, phie)) == 0.0)


def test_snr_matches_brute_force_on_ellipsoid():
    te = ellipsoid_target([1.0, 1.2, 0.9])
    g = Grid(6, 6)
    phi = smooth_map_field(g, te, seed=20, amplitude=0.2)
    psi = smooth_vector_spinor(g, phi, te, seed=21, amplitude=0.7)
    out = snr_of(psi, target_data(te, phi))

    flat_p = phi.reshape(-1, 3)
    pi = te.tangent_projector(flat_p)
    K = 3
    a_vec = np.zeros((flat_p.shape[0], K, K, 3))
    for a in range(K):
        for b in range(K):
            a_vec[:, a, b] = second_fund_form(te, flat_p, pi[:, :, a], pi[:, :, b])
    na_vec = np.zeros((flat_p.shape[0], K, K, K, 3))
    for e in range(K):
        for a in range(K):
            for b in range(K):
                na_vec[:, e, a, b] = nabla_A(
                    te, flat_p, pi[:, :, a], pi[:, :, b], pi[:, :, e]
                )
    psi_flat = psi.reshape(-1, 3, 4)
    inner = np.einsum("sai,sbi->sab", psi_flat, psi_flat)
    oracle = np.zeros((flat_p.shape[0], 3))
    for e in range(K):
        for a in range(K):
            for b in range(K):
                for c in range(K):
                    for d in range(K):
                        nr = 2.0 * (
                            np.einsum("sv,sv->s", na_vec[:, e, a, c], a_vec[:, b, d])
                            - np.einsum("sv,sv->s", na_vec[:, e, a, d], a_vec[:, b, c])
                        )
                        oracle[:, e] += nr * inner[:, a, c] * inner[:, b, d]
    scale = np.max(np.abs(oracle)) + 1e-12
    assert np.max(np.abs(out.reshape(-1, 3) - oracle)) / scale < 1e-6


def test_snr_matrix_products_match_five_index_sum():
    # same five-index sum, but on the closed-form nabla A that snr_of reads, so
    # only the contraction algebra is compared (no finite-difference error)
    te = ellipsoid_target([1.0, 1.2, 0.9])
    g = Grid(6, 6)
    phi = smooth_map_field(g, te, seed=20, amplitude=0.2)
    psi = smooth_vector_spinor(g, phi, te, seed=21, amplitude=0.7)
    out = snr_of(psi, target_data(te, phi))

    flat_p = phi.reshape(-1, 3)
    pi = te.tangent_projector(flat_p)
    nu = te.normal_frame(flat_p)
    K = 3
    a_vec = np.zeros((flat_p.shape[0], K, K, 3))
    for a in range(K):
        for b in range(K):
            a_vec[:, a, b] = second_fund_form(te, flat_p, pi[:, :, a], pi[:, :, b])
    na_vec = np.einsum("seabl,slv->seabv", te.nabla_a_tensor(target_data(te, flat_p)), nu)
    psi_flat = psi.reshape(-1, 3, 4)
    inner = np.einsum("sai,sbi->sab", psi_flat, psi_flat)
    oracle = np.zeros((flat_p.shape[0], 3))
    for e in range(K):
        for a in range(K):
            for b in range(K):
                for c in range(K):
                    for d in range(K):
                        nr = 2.0 * (
                            np.einsum("sv,sv->s", na_vec[:, e, a, c], a_vec[:, b, d])
                            - np.einsum("sv,sv->s", na_vec[:, e, a, d], a_vec[:, b, c])
                        )
                        oracle[:, e] += nr * inner[:, a, c] * inner[:, b, d]
    scale = np.max(np.abs(oracle))
    assert scale > 0.0
    assert np.max(np.abs(out.reshape(-1, 3) - oracle)) / scale < 1e-12


def test_reading_c_after_a_m_builds_m_once(monkeypatch):
    # A_l M and c_l both read the one M their FieldData keeps
    te = ellipsoid_target([1.0, 1.2, 0.9])
    g = Grid(6, 6)
    phi = smooth_map_field(g, te, seed=20, amplitude=0.2)
    psi = smooth_vector_spinor(g, phi, te, seed=21, amplitude=0.7)
    builds = []
    build = FieldData.__dict__["m"].func

    @functools.cached_property
    def m(self):
        builds.append(1)
        return build(self)

    m.__set_name__(FieldData, "m")
    monkeypatch.setattr(FieldData, "m", m)
    fd = FieldData(phi, psi, tdata=target_data(te, phi))
    a_m, c = fd.a_m, fd.c
    assert len(builds) == 1
    a_l = fd.tdata.asym_c
    ref_m = np.einsum("xyai,xyci->acxy", psi, psi)
    ref_c = np.einsum("lbdxy,bdxy->lxy", a_l, ref_m)
    ref_a_m = np.einsum("labxy,bcxy->lacxy", a_l, ref_m)
    assert np.max(np.abs(c - ref_c)) <= 1e-13 * np.max(np.abs(ref_c))
    assert np.max(np.abs(a_m - ref_a_m)) <= 1e-13 * np.max(np.abs(ref_a_m))


# ---- shared parts and gathered sites -----------------------------------------------


def _ellipsoid_fields(n=8):
    te = ellipsoid_target([1.0, 1.3, 0.8])
    g = Grid(n, n)
    phi = smooth_map_field(g, te, seed=10, amplitude=0.4)
    psi = smooth_vector_spinor(g, phi, te, seed=11, amplitude=0.3)
    chi = smooth_gravitino(g, seed=12, amplitude=0.3)
    u = smooth_scalar_field(g, seed=16, amplitude=0.3)
    return te, g, phi, psi, chi, u


def test_with_psi_shares_the_psi_free_parts_read_only():
    te, g, phi, psi, chi, u = _ellipsoid_fields()
    psi2 = smooth_vector_spinor(g, phi, te, seed=13, amplitude=0.3)
    base = FieldData(phi, psi, chi, u, g, tdata=target_data(te, phi))
    shared = base.with_psi(psi2)
    for name in ("dphi", "dphi_gamma_chi", "q_chi2"):
        part = shared.__dict__[name]
        assert part is base.__dict__[name]
        with pytest.raises(ValueError, match="read-only"):
            part[0] += 1.0
    fresh = FieldData(phi, psi2, chi, u, g, tdata=target_data(te, phi))
    for a, b in zip(_densities(shared), _densities(fresh), strict=True):
        assert a is not None and np.array_equal(a, b)
    assert {"dphi", "dphi_gamma_chi", "q_chi2"} <= base.__dict__.keys()


@pytest.mark.parametrize("ellipsoid", [False, True])
def test_pointwise_densities_at_gathered_sites_are_the_grid_ones(ellipsoid):
    # P probes of psi stacked on a leading axis, (P, m, 3, 4), against the gathered
    # site axes (1, m): each probe's III, IV and V are the grid's at the sites, bit for bit
    te, g, phi, psi, chi, u = _ellipsoid_fields()
    if not ellipsoid:
        te, phi = TG, TG.project(phi)
        psi = tangency_project(psi, phi, TG)
    sites = np.array([5, 0, 63, 5, 17, 40, 0])          # any order, repeats allowed
    local = FieldData(phi, psi, chi, u, g, tdata=target_data(te, phi)).at_sites(sites)
    rng = np.random.default_rng(17)
    for count in (1, 8):
        psis = [psi] + [tangency_project(rng.standard_normal(psi.shape), phi, te)
                        for _ in range(count - 1)]
        probes = np.stack([p.reshape(-1, 3, 4)[sites] for p in psis])
        gathered = pointwise_densities(local.with_psi(probes))
        for k, psi_k in enumerate(psis):
            fd = FieldData(phi, psi_k, chi, u, g, tdata=target_data(te, phi))
            for a, b in zip(gathered, pointwise_densities(fd), strict=True):
                assert a.shape == (count, len(sites))
                assert np.array_equal(a[k], b.reshape(-1)[sites])


def test_with_map_shares_the_chi_parts_on_the_grid_and_gathers_them_at_sites():
    # another map and psi beside the same chi and u: on the grid I and III read no frame,
    # and two maps stacked against the gathered site axes (1, m) give IV and V of each
    # map's grid evaluation there, bit for bit
    te, g, phi, psi, chi, u = _ellipsoid_fields()
    phi2 = te.project(smooth_map_field(g, te, seed=13, amplitude=0.3))
    psi2 = smooth_vector_spinor(g, phi2, te, seed=14, amplitude=0.3)
    base = FieldData(phi, psi, chi, u, g, tdata=target_data(te, phi))
    shared = base.with_map(phi2, psi2)
    for name in ("gamma_chi", "q_chi2"):
        part = shared.__dict__[name]
        assert part is base.__dict__[name]
        with pytest.raises(ValueError, match="read-only"):
            part[0] += 1.0
    fresh = FieldData(phi2, psi2, chi, u, g, tdata=target_data(te, phi2))
    for a, b in zip(dphi_densities(shared), dphi_densities(fresh), strict=True):
        assert a is not None and np.array_equal(a, b)
    assert shared.tdata is None
    phi3 = te.project(smooth_map_field(g, te, seed=15, amplitude=0.3))
    psi3 = smooth_vector_spinor(g, phi3, te, seed=16, amplitude=0.3)
    sites = np.array([5, 0, 63, 5, 17])                 # any order, repeats allowed
    maps = [(phi2, psi2), (phi3, psi3)]
    phi_s = np.stack([p.reshape(-1, 3)[sites] for p, _ in maps])
    psi_s = np.stack([q.reshape(-1, 3, 4)[sites] for _, q in maps])
    local = local_densities(base.at_sites(sites).with_map(phi_s, psi_s, target_data(te, phi_s)))
    for k, (phi_k, psi_k) in enumerate(maps):
        fd = FieldData(phi_k, psi_k, chi, u, g, tdata=target_data(te, phi_k))
        for a, b in zip(local, local_densities(fd), strict=True):
            assert a.shape == (2, len(sites))
            assert np.array_equal(a[k], b.reshape(-1)[sites])


@pytest.mark.parametrize("target", [TG, ellipsoid_target([1.0, 1.3, 0.8])],
                         ids=["sphere", "ellipsoid"])
def test_component_major_parts_are_c_contiguous_and_converted_without_copies(target):
    # README, Layout: the parts of one evaluation are component-major, sites last and
    # C-contiguous, and the site-major results and A are views of such arrays
    g = Grid(8, 8)
    phi = smooth_map_field(g, target, seed=30, amplitude=0.4)
    psi = smooth_vector_spinor(g, phi, target, seed=31, amplitude=0.3)
    chi = smooth_gravitino(g, seed=32, amplitude=0.3)
    u = smooth_scalar_field(g, seed=33, amplitude=0.2)
    fd = FieldData(phi, psi, chi, u, g, tdata=target_data(target, phi))
    K, L, sites = 3, 1, g.shape
    shapes = {"psi_c": (K, 4), "dphi": (2, K), "gamma_chi": (2, 4),
              "dphi_gamma_chi": (K, 4), "m": (K, K), "c": (L,), "a_m": (L, K, K)}
    for name, comps in shapes.items():
        part = getattr(fd, name)
        assert part.shape == comps + sites, name
        assert part.flags.c_contiguous, name
    assert np.shares_memory(fd.tdata.asym_c, fd.tdata.asym)
    r_phi = residual_phi(phi, psi, chi, u, g, target)
    r_psi = residual_psi(phi, psi, chi, u, g, target)
    assert np.shares_memory(to_planes(r_phi, 1), r_phi)
    assert np.shares_memory(to_planes(r_psi, 2), r_psi)


# ---- totals and symmetries ------------------------------------------------------


def test_breakdown_to_dict_is_its_fields_in_order():
    # a plain dict of the fields, item for item what dataclasses.asdict gave
    g, phi, psi, chi, u = _fields(8)
    b = total_action(phi, psi, u, chi, g, TG)
    assert list(b.to_dict().items()) == list(dataclasses.asdict(b).items())
    assert all(type(v) is float for v in b.to_dict().values())


def test_total_action_decoupling():
    g = Grid(8, 8)
    psi0, chi0, u0 = zeros_for(g)
    point = TG.project(np.array([0.2, 0.5, 1.0]))
    phi_const = np.broadcast_to(point, g.shape + (3,)).copy()
    breakdown = total_action(phi_const, psi0, u0, chi0, g, TG)
    assert all(v == 0.0 for v in breakdown.to_dict().values())

    phi_eq = equator_map(g)
    b2 = total_action(phi_eq, psi0, u0, chi0, g, TG)
    assert b2.total == b2.I_dirichlet
    assert b2.II_dirac == b2.III_gravitino == b2.IV_qchi == b2.V_curvature == 0.0


def test_total_uses_fixed_summation_order():
    g, phi, psi, chi, u = _fields(8)
    b = total_action(phi, psi, u, chi, g, TG)
    assert b.total == (
        ((b.I_dirichlet + b.II_dirac) + b.III_gravitino + b.IV_qchi) + b.V_curvature
    )


def test_sign_flip_symmetry_exact():
    g, phi, psi, chi, u = _fields(16)
    base = total_action(phi, psi, u, chi, g, TG)
    flip = total_action(phi, -psi, u, -chi, g, TG)
    for a, b in zip(base.to_dict().values(), flip.to_dict().values()):
        assert a == b


def test_super_weyl_invariance_exact():
    g, phi, psi, chi, u = _fields(16)
    base = total_action(phi, psi, u, chi, g, TG)
    spin = np.random.default_rng(6).standard_normal(g.shape + (4,))
    shifted = total_action(phi, psi, u, chi + sigma_lift(spin), g, TG)
    scale = 1.0 + max(abs(v) for v in base.to_dict().values())
    for a, b in zip(base.to_dict().values(), shifted.to_dict().values()):
        assert abs(a - b) / scale < 1e-12


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_sign_flip_and_super_weyl_on_ellipsoid_property(seed):
    et = ellipsoid_target([1.0, 1.3, 0.8])
    g = Grid(8, 8)
    phi = smooth_map_field(g, et, seed=seed, amplitude=0.4)
    psi = smooth_vector_spinor(g, phi, et, seed=seed + 1, amplitude=0.5)
    chi = smooth_gravitino(g, seed=seed + 2, amplitude=0.5)
    u = smooth_scalar_field(g, seed=seed + 3, amplitude=0.3)
    base = total_action(phi, psi, u, chi, g, et).to_dict()
    flip = total_action(phi, -psi, u, -chi, g, et).to_dict()
    assert flip == base
    spin = np.random.default_rng(seed).standard_normal(g.shape + (4,))
    shifted = total_action(phi, psi, u, chi + sigma_lift(spin), g, et).to_dict()
    scale = 1.0 + max(abs(v) for v in base.values())
    for key, value in base.items():
        assert abs(shifted[key] - value) / scale <= 1e-12


def test_conformal_invariance_second_order():
    diffs = []
    for n in (8, 16, 32):
        g = Grid(n, n)
        phi = smooth_map_field(g, TG, seed=10, amplitude=0.4)
        psi = smooth_vector_spinor(g, phi, TG, seed=11, amplitude=0.5)
        chi = smooth_gravitino(g, seed=12, amplitude=0.5)
        uu = smooth_scalar_field(g, seed=13, amplitude=0.35)
        flat = total_action(phi, psi, np.zeros(g.shape), chi, g, TG)
        psi_c, chi_c = conformal_rescale(psi, chi, uu)
        conf = total_action(phi, psi_c, uu, chi_c, g, TG)
        diffs.append(abs(conf.total - flat.total))
        # the non-Dirac terms are invariant to roundoff (pointwise algebra)
        assert conf.I_dirichlet == flat.I_dirichlet
        assert abs(conf.III_gravitino - flat.III_gravitino) < 1e-12
        assert abs(conf.IV_qchi - flat.IV_qchi) < 1e-12
        assert abs(conf.V_curvature - flat.V_curvature) < 1e-12
    assert np.log2(diffs[0] / diffs[1]) > 1.6
    assert np.log2(diffs[1] / diffs[2]) > 1.6


def test_degree_counting_scalings():
    g, phi, psi, chi, u = _fields(8)
    lam, mu = 1.7, 0.6
    b = total_action(phi, psi, u, chi, g, TG)
    s = total_action(phi, lam * psi, u, mu * chi, g, TG)
    assert abs(s.II_dirac - lam**2 * b.II_dirac) < 1e-10
    assert abs(s.III_gravitino - lam * mu * b.III_gravitino) < 1e-10
    assert abs(s.IV_qchi - lam**2 * mu**2 * b.IV_qchi) < 1e-10
    assert abs(s.V_curvature - lam**4 * b.V_curvature) < 1e-9
