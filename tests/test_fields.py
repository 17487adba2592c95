"""Dirac operators and field constraints."""

import numpy as np
import pytest

from sigmalab.errors import ConstraintError
from sigmalab.fields import (
    conformal_rescale,
    dirac_conformal,
    dirac_conformal_adjoint,
    dirac_conformal_sym,
    dirac_flat,
    dirac_flat_sigma,
    field_p_project,
    field_q_project,
    q_norm2_field,
    tangency_project,
    tangency_violation,
    twisted_dirac,
)
from sigmalab import clifford as cl
from sigmalab import fields
from sigmalab.geometry import Grid, SphereTarget
from sigmalab.presets import smooth_map_field, smooth_scalar_field, smooth_vector_spinor


def test_dirac_flat_annihilates_constants():
    g = Grid(8, 8)
    s = np.ones(g.shape + (4,))
    assert np.all(dirac_flat(s, g) == 0.0)


def test_dirac_flat_exactly_symmetric():
    g = Grid(16, 16)
    r = np.random.default_rng(0)
    s = r.standard_normal(g.shape + (4,))
    t = r.standard_normal(g.shape + (4,))
    lhs = np.sum(np.einsum("xyi,xyi->xy", s, dirac_flat(t, g)))
    rhs = np.sum(np.einsum("xyi,xyi->xy", dirac_flat(s, g), t))
    scale = np.sum(np.abs(s * dirac_flat(t, g)))
    assert abs(lhs - rhs) / scale < 1e-13


def test_rank2_dirac_action_vanishes_rank4_does_not():
    g = Grid(32, 32)
    r = np.random.default_rng(1)
    s2 = r.standard_normal(g.shape + (2,))
    act2 = np.sum(np.einsum("xyi,xyi->xy", s2, dirac_flat_sigma(s2, g)))
    scale2 = np.sum(np.abs(s2 * dirac_flat_sigma(s2, g)))
    assert abs(act2) / scale2 < 1e-12

    s4 = r.standard_normal(g.shape + (4,))
    act4 = np.sum(np.einsum("xyi,xyi->xy", s4, dirac_flat(s4, g)))
    scale4 = np.sum(np.abs(s4 * dirac_flat(s4, g)))
    assert abs(act4) / scale4 > 1e-6


def test_dirac_conformal_reductions():
    g = Grid(12, 12)
    r = np.random.default_rng(2)
    s = r.standard_normal(g.shape + (4,))
    u0 = np.zeros(g.shape)
    assert np.array_equal(dirac_conformal(s, u0, g), dirac_flat(s, g))
    uc = np.full(g.shape, 0.7)
    out = dirac_conformal(s, uc, g)
    assert np.max(np.abs(out - np.exp(-0.7) * dirac_flat(s, g))) < 1e-12


def test_dirac_conformal_adjoint_pairing_exact():
    g = Grid(12, 12)
    r = np.random.default_rng(3)
    s = r.standard_normal(g.shape + (4,))
    t = r.standard_normal(g.shape + (4,))
    u = smooth_scalar_field(g, seed=4, amplitude=0.4)
    w = np.exp(3.0 * u)
    lhs = np.sum(np.einsum("xyi,xyi->xy", s, dirac_conformal(t, u, g)) * w)
    rhs = np.sum(np.einsum("xyi,xyi->xy", dirac_conformal_adjoint(s, u, g), t) * w)
    assert abs(lhs - rhs) / (abs(lhs) + 1.0) < 1e-13
    sym = dirac_conformal_sym(s, u, g)
    lhs2 = np.sum(np.einsum("xyi,xyi->xy", t, sym) * w)
    rhs2 = np.sum(np.einsum("xyi,xyi->xy", dirac_conformal_sym(t, u, g), s) * w)
    assert abs(lhs2 - rhs2) / (abs(lhs2) + 1.0) < 1e-13


def test_dirac_conformal_reads_a_component_major_psi_like_its_copy(monkeypatch):
    # the flow's psi is a site-major view of component-major planes; the flat operator
    # gets e^{u/2} psi (e^{3u/2} psi) written site-major, with the copy's bits
    g = Grid(12, 12)
    planes = np.random.default_rng(5).standard_normal((3, 4) + g.shape)
    psi = planes.transpose(2, 3, 0, 1)
    copy = np.ascontiguousarray(psi)
    u = smooth_scalar_field(g, seed=6, amplitude=0.4)
    flat = fields.dirac_flat
    layouts = []

    def recorded(s, grid):
        layouts.append(s.flags.c_contiguous)
        return flat(s, grid)

    monkeypatch.setattr(fields, "dirac_flat", recorded)
    for op in (dirac_conformal, dirac_conformal_adjoint, dirac_conformal_sym):
        assert np.array_equal(op(psi, u, g), op(copy, u, g))
    assert layouts and all(layouts)


def test_conformal_law_in_quadratic_form_refines_at_second_order():
    # the composite claim behind the conformal transformation law: the Dirac
    # form of (e^{-u} s) under the e^{3u}-weighted pairing returns the flat form
    diffs = []
    for n in (16, 32, 64):
        g = Grid(n, n)
        u = smooth_scalar_field(g, seed=5, amplitude=0.4)
        s = np.stack(
            [smooth_scalar_field(g, seed=6 + i, amplitude=1.0) for i in range(4)],
            axis=-1,
        )
        flat = np.sum(np.einsum("xyi,xyi->xy", s, dirac_flat(s, g))) * g.cell_area
        sc = np.exp(-u)[..., None] * s
        conf = (
            np.sum(np.einsum("xyi,xyi->xy", sc, dirac_conformal(sc, u, g)) * np.exp(3 * u))
            * g.cell_area
        )
        diffs.append(abs(conf - flat))
    assert np.log2(diffs[0] / diffs[1]) > 1.6
    assert np.log2(diffs[1] / diffs[2]) > 1.8


def _setup(n=8, a_psi=0.5):
    g = Grid(n, n)
    tg = SphereTarget(3)
    phi = smooth_map_field(g, tg, seed=10, amplitude=0.4)
    psi = smooth_vector_spinor(g, phi, tg, seed=11, amplitude=a_psi)
    return g, tg, phi, psi


def test_tangency_project_properties():
    g, tg, phi, psi = _setup()
    assert tangency_violation(psi, phi, tg) < 1e-12
    again = tangency_project(psi, phi, tg)
    assert np.max(np.abs(again - psi)) < 1e-13
    raw = np.random.default_rng(12).standard_normal(g.shape + (3, 4))
    proj = tangency_project(raw, phi, tg)
    assert tangency_violation(proj, phi, tg) < 1e-12
    assert np.max(np.abs(tangency_project(proj, phi, tg) - proj)) < 1e-13


def test_twisted_dirac_constant_map_reduces_to_projected_componentwise():
    g = Grid(8, 8)
    tg = SphereTarget(3)
    point = tg.project(np.array([0.3, -1.0, 0.5]))
    phi = np.broadcast_to(point, g.shape + (3,)).copy()
    raw = np.random.default_rng(13).standard_normal(g.shape + (3, 4))
    psi = tangency_project(raw, phi, tg)
    u0 = np.zeros(g.shape)
    out = twisted_dirac(psi, phi, u0, g, tg)
    expected = tangency_project(dirac_conformal(psi, u0, g), phi, tg)
    assert np.max(np.abs(out - expected)) < 1e-12


def test_twisted_dirac_zero_and_linearity():
    g, tg, phi, psi = _setup()
    u0 = np.zeros(g.shape)
    assert np.all(twisted_dirac(np.zeros_like(psi), phi, u0, g, tg) == 0.0)
    out2 = twisted_dirac(2.5 * psi, phi, u0, g, tg)
    out1 = twisted_dirac(psi, phi, u0, g, tg)
    assert np.max(np.abs(out2 - 2.5 * out1)) < 1e-12
    assert tangency_violation(out1, phi, tg) < 1e-12


def test_twisted_dirac_symmetric_on_flat_metric():
    g, tg, phi, _ = _setup(n=12)
    r = np.random.default_rng(14)
    psi = tangency_project(r.standard_normal(g.shape + (3, 4)), phi, tg)
    xi = tangency_project(r.standard_normal(g.shape + (3, 4)), phi, tg)
    u0 = np.zeros(g.shape)
    lhs = np.sum(np.einsum("xyai,xyai->xy", psi, twisted_dirac(xi, phi, u0, g, tg)))
    rhs = np.sum(np.einsum("xyai,xyai->xy", twisted_dirac(psi, phi, u0, g, tg), xi))
    assert abs(lhs - rhs) / (abs(lhs) + 1.0) < 1e-8


def test_twisted_dirac_signals_tangency_violation():
    g, tg, phi, psi = _setup()
    bad = psi.copy()
    bad[0, 0, :, 0] += phi[0, 0] * 10.0
    with pytest.raises(ConstraintError):
        twisted_dirac(bad, phi, np.zeros(g.shape), g, tg)


def test_field_projectors_match_pointwise_algebra():
    g = Grid(8, 8)
    chi = np.random.default_rng(15).standard_normal(g.shape + (2, 4))
    assert np.array_equal(field_q_project(chi), cl.q_project(chi))
    assert np.array_equal(field_p_project(chi), cl.p_project(chi))
    qn = q_norm2_field(chi)
    q = cl.q_project(chi)
    assert np.max(np.abs(qn - np.einsum("xyai,xyai->xy", q, q))) < 1e-12


def test_conformal_rescale_scales_components():
    g = Grid(8, 8)
    r = np.random.default_rng(16)
    psi = r.standard_normal(g.shape + (3, 4))
    chi = r.standard_normal(g.shape + (2, 4))
    u = smooth_scalar_field(g, seed=17, amplitude=0.3)
    psi_c, chi_c = conformal_rescale(psi, chi, u)
    w = np.exp(-u)[..., None, None]
    assert np.array_equal(psi_c, w * psi)
    assert np.array_equal(chi_c, w * chi)
