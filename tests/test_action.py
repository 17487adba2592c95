"""The five action terms, the curvature contractions, and the exact symmetries."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmalab.action import (
    snr_of,
    sr_of,
    target_data,
    term_curvature,
    term_dirac,
    term_dirichlet,
    term_gravitino,
    term_qchi,
    total_action,
)
from sigmalab.clifford import sigma_lift
from sigmalab.fields import conformal_rescale, tangency_project
from sigmalab.geometry import (
    Grid,
    SphereTarget,
    curvature_operator,
    ellipsoid_target,
    nabla_A,
    second_fund_form,
)
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
    assert term_dirichlet(phi, np.zeros(g.shape), g) == 0.0


def test_dirichlet_equator_closed_form_and_convergence():
    values = []
    for n in (16, 32, 64):
        g = Grid(n, n)
        e = term_dirichlet(equator_map(g), np.zeros(g.shape), g)
        exact_discrete = (np.sin(2 * np.pi * g.h1) / g.h1) ** 2
        assert abs(e - exact_discrete) < 1e-10
        values.append(e)
    cont = (2 * np.pi) ** 2
    errs = [abs(v - cont) for v in values]
    assert np.log2(errs[0] / errs[1]) > 1.9
    assert np.log2(errs[1] / errs[2]) > 1.9


def test_dirichlet_invariant_under_constant_rescaling():
    g, phi, psi, chi, _ = _fields(8)
    u_const = np.full(g.shape, 0.8)
    assert term_dirichlet(phi, u_const, g) == term_dirichlet(phi, np.zeros(g.shape), g)


# ---- term II ------------------------------------------------------------------


def test_dirac_term_zero_spinor():
    g, phi, _, _, u = _fields(8)
    psi0 = np.zeros(g.shape + (3, 4))
    assert term_dirac(psi0, phi, u, g, TG) == 0.0


def test_dirac_term_seeded_regression_value():
    g, phi, psi, _, u = _fields(16)
    val = term_dirac(psi, phi, u, g, TG)
    assert val != 0.0
    assert abs(val - 0.8307908050533621) < 1e-12


# ---- term III -----------------------------------------------------------------


def test_gravitino_term_zeros():
    g, phi, psi, chi, u = _fields(8)
    assert term_gravitino(phi, psi, np.zeros_like(chi), u, g) == 0.0
    point = TG.project(np.array([1.0, 0.2, -0.1]))
    phi_const = np.broadcast_to(point, g.shape + (3,)).copy()
    psi_const = tangency_project(psi, phi_const, TG)
    assert abs(term_gravitino(phi_const, psi_const, chi, u, g)) < 1e-12


def test_gravitino_term_depends_only_on_q_part():
    g, phi, psi, chi, u = _fields(8)
    spin = np.random.default_rng(3).standard_normal(g.shape + (4,))
    shifted = chi + sigma_lift(spin)
    base = term_gravitino(phi, psi, chi, u, g)
    assert abs(term_gravitino(phi, psi, shifted, u, g) - base) < 1e-12 * (1 + abs(base))
    # a pure sigma-lift gravitino contributes nothing
    pure = np.zeros_like(chi) + sigma_lift(spin)
    assert abs(term_gravitino(phi, psi, pure, u, g)) < 1e-12


# ---- term IV ------------------------------------------------------------------


def test_qchi_term_sign_and_zeros():
    g, phi, psi, chi, u = _fields(8)
    assert term_qchi(chi, np.zeros_like(psi), u, g) == 0.0
    assert term_qchi(np.zeros_like(chi), psi, u, g) == 0.0
    assert term_qchi(chi, psi, u, g) <= 0.0
    spin = np.random.default_rng(4).standard_normal(g.shape + (4,))
    pure = np.zeros_like(chi) + sigma_lift(spin)
    assert term_qchi(pure, psi, u, g) == 0.0


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
    g, phi, psi, _, u = _fields(8)
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
    assert abs(term_curvature(psi, phi, u, g, TG) - oracle_term) < 1e-10


def test_curvature_term_quartic_scaling():
    g, phi, psi, _, u = _fields(8)
    v1 = term_curvature(psi, phi, u, g, TG)
    v2 = term_curvature(2.0 * psi, phi, u, g, TG)
    assert abs(v2 - 16.0 * v1) < 1e-9 * abs(v1)
    assert term_curvature(np.zeros_like(psi), phi, u, g, TG) == 0.0


def test_snr_zero_on_sphere_and_zero_spinor():
    g, phi, psi, _, _ = _fields(8)
    assert np.all(snr_of(psi, phi, TG) == 0.0)
    te = ellipsoid_target([1.0, 1.2, 0.9])
    phie = smooth_map_field(g, te, seed=20, amplitude=0.2)
    assert np.all(snr_of(np.zeros_like(psi), phie, te) == 0.0)


def test_snr_matches_brute_force_on_ellipsoid():
    te = ellipsoid_target([1.0, 1.2, 0.9])
    g = Grid(6, 6)
    phi = smooth_map_field(g, te, seed=20, amplitude=0.2)
    psi = smooth_vector_spinor(g, phi, te, seed=21, amplitude=0.7)
    out = snr_of(psi, phi, te)

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


# ---- totals and symmetries ------------------------------------------------------


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
    t2, t3, t4, t5 = (
        term_dirac(psi, phi, u, g, TG),
        term_gravitino(phi, psi, chi, u, g),
        term_qchi(chi, psi, u, g),
        term_curvature(psi, phi, u, g, TG),
    )
    assert abs(term_dirac(lam * psi, phi, u, g, TG) - lam**2 * t2) < 1e-10
    assert abs(term_gravitino(phi, lam * psi, mu * chi, u, g) - lam * mu * t3) < 1e-10
    assert abs(term_qchi(mu * chi, lam * psi, u, g) - lam**2 * mu**2 * t4) < 1e-10
    assert abs(term_curvature(lam * psi, phi, u, g, TG) - lam**4 * t5) < 1e-9
