"""Every matrix-product contraction against its einsum definition, index by index.

The inputs are random and neither tangent nor symmetric: TargetData's frame
and frame derivative (and, where a test says so, A) are replaced by random
arrays, so that exchanging two axes of any contraction changes its value.
Pi is I - sum_l nu_l nu_l^T of the random frame, its own definition: the
kernels apply it as the projection along nu (_planes.tangent), which is that
matrix for any frame, orthonormal or not.  The grid is not square, and a codimension-2 target
(K = 4, L = 2) exercises the frame index l.  _planes.contract itself is checked bit for
bit against the sum of its terms added in index order.
"""

import tracemalloc

import numpy as np
import pytest

from sigmalab import clifford as cl
from sigmalab._planes import contract
from oracles import q_norm2_field, sr_of
from sigmalab.action import (FieldData, _curvature_density, _densities, dirac_density,
                             field_data, gamma_chi, snr_of)
from sigmalab.euler_lagrange import (
    _frame_derivative,
    residual_phi,
    residual_psi,
    v_fields,
)
from sigmalab.fields import dirac_flat, dirac_flat_sigma, site_inner, twisted_dirac
from sigmalab.geometry import (
    Grid,
    SphereTarget,
    TargetData,
    TargetManifold,
    div,
    ellipsoid_target,
    grad,
    tangent_part,
    tangent_part_slots,
)

RTOL = 1e-13
GRID = Grid(6, 8)

# gamma_a gamma_b products, indexed [a, b, i, j]
GG = np.einsum("aik,bkj->abij", cl.GAMMA, cl.GAMMA)


class PlaneSphere(TargetManifold):
    """Unit S^2 in the 3-plane x^4 = 0 of R^4: nu_1 radial in the plane, nu_2 = e_4."""

    ambient_dim = 4
    codim = 2
    parallel_second_fund = True

    def project(self, p):
        q = np.array(p, dtype=np.float64)
        q[..., 3] = 0.0
        return q / np.linalg.norm(q, axis=-1, keepdims=True)

    def normal_frame(self, p):
        nu = np.zeros(p.shape[:-1] + (2, 4))
        nu[..., 0, :3] = p[..., :3] / np.linalg.norm(p[..., :3], axis=-1, keepdims=True)
        nu[..., 1, 3] = 1.0
        return nu

    def normal_frame_derivative(self, p):
        r = np.linalg.norm(p[..., :3], axis=-1)[..., None, None]
        h = p[..., :3] / r[..., 0]
        dnu = np.zeros(p.shape[:-1] + (2, 4, 4))
        dnu[..., 0, :3, :3] = (np.eye(3) - h[..., :, None] * h[..., None, :]) / r
        return dnu


TARGETS = [SphereTarget(3), PlaneSphere()]
IDS = ["sphere-L1", "plane-sphere-L2"]


def _relerr(new, ref) -> float:
    scale = np.max(np.abs(ref))
    assert scale > 0.0
    return float(np.max(np.abs(new - ref)) / scale)


def _fields(target, seed):
    """phi on N, and psi, chi, u random (psi not tangent)."""
    rng = np.random.default_rng(seed)
    K = target.ambient_dim
    phi = target.project(rng.standard_normal(GRID.shape + (K,)))
    psi = rng.standard_normal(GRID.shape + (K, 4))
    chi = rng.standard_normal(GRID.shape + (2, 4))
    u = 0.3 * rng.standard_normal(GRID.shape)
    return phi, psi, chi, u


def _random_tdata(target, phi, seed):
    """TargetData of phi with nu and dnu replaced by random arrays, and Pi by
    I - sum_l nu_l nu_l^T of that nu."""
    rng = np.random.default_rng(seed)
    td = TargetData(target, phi)
    lead, (L, K) = phi.shape[:-1], td.nu.shape[-2:]
    td.nu = rng.standard_normal(lead + (L, K))
    td.dnu = rng.standard_normal(lead + (L, K, K))
    td.pi = np.eye(K) - np.einsum("...la,...lb->...ab", td.nu, td.nu)
    return td


# ---- the einsum definitions ------------------------------------------------------


def ref_clifford_derivative(gammas, s):
    return np.einsum("aij,a...j->...i", gammas, grad(s, GRID))


def ref_dirac_sym(s, u):
    w = u[..., None, None]
    fwd = np.exp(-1.5 * w) * ref_clifford_derivative(cl.GAMMA, np.exp(0.5 * w) * s)
    adj = np.exp(-2.5 * w) * ref_clifford_derivative(cl.GAMMA, np.exp(1.5 * w) * s)
    return 0.5 * (fwd + adj)


def ref_gamma_chi(chi):
    return np.einsum("beij,xybj->xyei", GG, chi)


def ref_q_norm2(chi):
    return np.einsum("...ai,...ai->...", chi, np.einsum("biaj,...aj->...bi", cl._Q_TENSOR, chi))


def ref_asym(pi, dnu):
    raw = -np.einsum("...ac,...bd,...lcd->...abl", pi, pi, dnu)
    return 0.5 * (raw + np.swapaxes(raw, -3, -2))


def ref_rtensor(asym):
    return (np.einsum("...cal,...dbl->...abcd", asym, asym)
            - np.einsum("...cbl,...dal->...abcd", asym, asym))


def ref_sr(psi, asym):
    inner = np.einsum("xydi,xybi->xydb", psi, psi)
    m = np.einsum("xyabcd,xydb->xyac", ref_rtensor(asym), inner)
    return np.einsum("xyac,xyci->xyai", m, psi)


def ref_v_fields(chi, psi):
    return np.einsum("xyei,xyai->xyae", ref_gamma_chi(chi), psi)


def ref_frame_derivative(dt, td):
    return np.einsum("exyc,xylcb->exylb", dt, td.dnu)


def ref_tproj_dnu(td):
    return np.einsum("xylcf,xyfa->xylca", td.dnu, td.pi)


def ref_densities(phi, psi, u, chi, td):
    # II is e^{3u} <psi, D_u psi>, which pairs like the twisted operator only at tangent psi
    dphi = grad(phi, GRID)
    du = np.exp(-1.5 * u[..., None, None]) * ref_clifford_derivative(
        cl.GAMMA, np.exp(0.5 * u[..., None, None]) * psi)
    return (
        np.einsum("xyai,xyai->xy", psi, du) * np.exp(3.0 * u),
        2.0 * np.einsum("xybi,xyki,bxyk->xy", ref_gamma_chi(chi), psi, dphi) * np.exp(2.0 * u),
        -ref_q_norm2(chi) * np.einsum("xyai,xyai->xy", psi, psi) * np.exp(4.0 * u),
        -np.einsum("xyai,xyai->xy", ref_sr(psi, td.asym), psi) * np.exp(4.0 * u) / 6.0,
    )


def ref_residual_phi(phi, psi, chi, u, td):
    e2u = np.exp(2.0 * u)
    dphi = grad(phi, GRID)
    dt = tangent_part(td.nu, dphi)
    s = ref_frame_derivative(dt, td)
    ev = np.moveaxis(e2u[..., None, None] * ref_v_fields(chi, psi), -1, 0)
    r = div(dphi + ev, GRID)
    r += np.einsum("xyl,xyla->xya", np.einsum("exylb,exyb->xyl", s, dt + ev), td.nu)
    s_gpsi = np.einsum("exylb,eij,xybj->xyli", s, cl.GAMMA, psi)
    rc = np.einsum("xyci,xyli,xylca->xya", psi, s_gpsi, ref_tproj_dnu(td))
    return r - e2u[..., None] * rc


def ref_residual_psi(phi, psi, chi, u, td):
    w = u[..., None, None]
    out = np.exp(3.0 * w) * ref_dirac_sym(psi, u)
    out -= np.exp(4.0 * w) * ref_sr(psi, td.asym) / 3.0
    out += np.exp(2.0 * w) * np.einsum("bxya,xybi->xyai", grad(phi, GRID), ref_gamma_chi(chi))
    out -= np.exp(4.0 * w) * ref_q_norm2(chi)[..., None, None] * psi
    return tangent_part_slots(td.nu, out)


# ---- the plane algebra ------------------------------------------------------------


def _sum_in_index_order(x, y, axes):
    """sum_k x[k] * y[k] over the leading `axes` axes, added left to right, k row-major."""
    total = None
    for k in np.ndindex(x.shape[:axes]):
        term = x[k] * y[k]
        total = term if total is None else total + term
    return total


def test_contract_allocates_the_terms_broadcast_shape_c_contiguous():
    rng = np.random.default_rng(40)
    x = rng.standard_normal((6, 3, 5, 1)).transpose(1, 2, 3, 0)     # (3, 5, 1, 6), strided
    y = rng.standard_normal((3, 1, 4, 6))
    out = contract(x, y)
    assert out.shape == (5, 4, 6)
    assert out.flags.c_contiguous
    assert out.dtype == np.float64


@pytest.mark.parametrize("dtype", [np.float32, np.complex128])
def test_contract_result_dtype_follows_the_inputs(dtype):
    rng = np.random.default_rng(41)
    x, y = rng.standard_normal((2, 3, 4, 5)).astype(dtype)
    if dtype == np.complex128:
        x += 1j * rng.standard_normal(x.shape)
        y -= 2j * rng.standard_normal(y.shape)
    out = contract(x, y)
    assert out.dtype == dtype
    assert np.array_equal(out, _sum_in_index_order(x, y, 1))
    if dtype == np.complex128:
        assert np.all(out.imag != 0.0)


@pytest.mark.parametrize("axes", [1, 2, 3])
def test_contract_sums_the_terms_in_index_order(axes):
    rng = np.random.default_rng(42 + axes)
    x = rng.standard_normal((3, 2, 4, 1, 5, 6)[:axes] + (1, 5, 6))
    y = rng.standard_normal((3, 2, 4, 1, 5, 6)[:axes] + (7, 1, 6))
    out = contract(x, y, axes=axes)
    assert out.tobytes() == _sum_in_index_order(x, y, axes).tobytes()


@pytest.mark.parametrize("where", ["first-term", "later-term", "sum"])
def test_contract_reports_overflow(where):
    x = np.ones((3, 4))
    y = np.ones((3, 4))
    if where == "sum":
        x[:, 1] = 1e308
    else:
        x[0 if where == "first-term" else 2, 1] = 1e200
        y[0 if where == "first-term" else 2, 1] = 1e200
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        contract(x, y)


def test_contract_reads_strided_operands_in_place():
    # the operands are every other entry of larger arrays: a copy of either would be
    # 64 times the result, which with its one temporary takes twice the result
    rng = np.random.default_rng(45)
    big_x, big_y = rng.standard_normal((2, 8, 8, 32, 16))
    x, y = big_x[:, :, ::2, ::2], np.moveaxis(big_y, 0, 1)[:, :, ::2, ::2]
    assert not (x.flags.c_contiguous or y.flags.c_contiguous)
    tracemalloc.start()
    try:
        out = contract(x, y, axes=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * out.nbytes + 4096
    assert out.tobytes() == _sum_in_index_order(x, y, 2).tobytes()


# ---- fields and clifford -----------------------------------------------------------


@pytest.mark.parametrize("K", [3, 4])
def test_dirac_flat_matches_einsum(K):
    s = np.random.default_rng(1).standard_normal(GRID.shape + (K, 4))
    assert _relerr(dirac_flat(s, GRID), ref_clifford_derivative(cl.GAMMA, s)) < RTOL


def test_dirac_flat_sigma_matches_einsum():
    s = np.random.default_rng(2).standard_normal(GRID.shape + (3, 2))
    assert _relerr(dirac_flat_sigma(s, GRID), ref_clifford_derivative(cl.GAMMA_PLUS, s)) < RTOL


def test_slot_maps_match_einsum():
    chi = np.random.default_rng(3).standard_normal((5, 3, 2, 4))
    for project, tensor in ((cl.p_project, cl._P_TENSOR), (cl.q_project, cl._Q_TENSOR)):
        assert _relerr(project(chi), np.einsum("biaj,...aj->...bi", tensor, chi)) < RTOL
    chi = np.random.default_rng(4).standard_normal(GRID.shape + (2, 4))
    assert _relerr(gamma_chi(chi), ref_gamma_chi(chi)) < RTOL
    assert _relerr(q_norm2_field(chi), ref_q_norm2(chi)) < RTOL


def test_site_inner_matches_einsum():
    rng = np.random.default_rng(5)
    f, g = rng.standard_normal((2,) + GRID.shape + (4, 4))
    assert _relerr(site_inner(f, g), np.einsum("xyai,xyai->xy", f, g)) < RTOL


# ---- target data and the curvature contractions ---------------------------------------


@pytest.mark.parametrize("target", TARGETS, ids=IDS)
def test_target_data_matches_einsum(target):
    phi = _fields(target, 6)[0]
    td = _random_tdata(target, phi, 7)
    assert _relerr(td.asym, ref_asym(td.pi, td.dnu)) < RTOL


@pytest.mark.parametrize("target", TARGETS, ids=IDS)
def test_sr_of_matches_einsum(target):
    phi, psi = _fields(target, 8)[:2]
    td = _random_tdata(target, phi, 9)
    assert _relerr(sr_of(psi, phi, target, td), ref_sr(psi, td.asym)) < RTOL


@pytest.mark.parametrize("target", [SphereTarget(3), ellipsoid_target([1.0, 1.3, 0.8]),
                                    PlaneSphere()], ids=["sphere", "ellipsoid", "plane-sphere"])
def test_curvature_density_is_the_sr_pairing(target):
    # the density reads sum_l (c_l^2 - <A_l M, M A_l>), not <SR(psi), psi>
    phi, psi, _, u = _fields(target, 20)
    td = TargetData(target, phi)
    ref = -site_inner(sr_of(psi, phi, target, td), psi) * np.exp(4.0 * u) / 6.0
    assert _relerr(_curvature_density(FieldData(phi, psi, u=u, tdata=td)), ref) < RTOL


class _RandomNablaA(PlaneSphere):
    """PlaneSphere's frame with a random nabla A tensor, so snr_of does not vanish."""

    parallel_second_fund = False

    def __init__(self, natensor):
        self.natensor = natensor

    def nabla_a_tensor(self, tdata):
        return self.natensor


def test_snr_of_matches_einsum():
    rng = np.random.default_rng(10)
    phi, psi = _fields(PlaneSphere(), 11)[:2]
    K, L = 4, 2
    target = _RandomNablaA(rng.standard_normal(GRID.shape + (K, K, K, L)))
    td = _random_tdata(target, phi, 12)
    td.asym = rng.standard_normal(GRID.shape + (K, K, L))
    m = np.einsum("xyai,xyci->xyac", psi, psi)
    a_l = np.moveaxis(td.asym, -1, -3)
    c = np.einsum("xylbd,xybd->xyl", a_l, m)
    w = c[..., None, None] * m[..., None, :, :] - np.einsum("xyab,xylbc,xycd->xylad", m, a_l, m)
    ref = 2.0 * np.einsum("xyeacl,xylac->xye", target.natensor, w)
    assert _relerr(snr_of(psi, td), ref) < RTOL


# ---- euler_lagrange kernels, densities and residuals --------------------------------------


@pytest.mark.parametrize("target", TARGETS, ids=IDS)
def test_frame_kernels_match_einsum(target):
    phi, psi, chi, _ = _fields(target, 13)
    td = _random_tdata(target, phi, 14)
    dt = np.random.default_rng(15).standard_normal((2,) + phi.shape)
    s = _frame_derivative(np.moveaxis(dt, -1, 1), td)      # [e, l, b, ...]
    assert _relerr(np.moveaxis(s, (1, 2), (-2, -1)), ref_frame_derivative(dt, td)) < RTOL
    assert _relerr(v_fields(chi, psi), ref_v_fields(chi, psi)) < RTOL


@pytest.mark.parametrize("target", TARGETS, ids=IDS)
def test_densities_match_einsum(target):
    phi, psi, chi, u = _fields(target, 16)
    td = _random_tdata(target, phi, 17)
    densities = _densities(FieldData(phi, psi, chi, u, GRID, tdata=td))[1:]
    for new, ref in zip(densities, ref_densities(phi, psi, u, chi, td)):
        assert _relerr(new, ref) < RTOL


@pytest.mark.parametrize("target", [SphereTarget(3), ellipsoid_target([1.0, 1.3, 0.8]),
                                    PlaneSphere()], ids=["sphere", "ellipsoid", "plane-sphere"])
def test_dirac_density_pairs_tangent_psi_with_the_twisted_operator(target):
    # the density pairs psi with D_u psi unprojected; at tangent psi that is its pairing
    # with the twisted operator Pi D_u psi
    phi, psi, chi, u = _fields(target, 21)
    psi = tangent_part_slots(target.normal_frame(phi), psi)
    density = dirac_density(field_data(phi, psi, chi, u, GRID, target))
    ref = np.exp(3.0 * u) * site_inner(psi, twisted_dirac(psi, phi, u, GRID, target))
    assert _relerr(density, ref) < RTOL


@pytest.mark.parametrize("target", TARGETS, ids=IDS)
def test_residuals_match_einsum(target):
    phi, psi, chi, u = _fields(target, 18)
    td = _random_tdata(target, phi, 19)
    new = residual_phi(phi, psi, chi, u, GRID, target, td)
    assert _relerr(new, ref_residual_phi(phi, psi, chi, u, td)) < RTOL
    new = residual_psi(phi, psi, chi, u, GRID, target, td)
    assert _relerr(new, ref_residual_psi(phi, psi, chi, u, td)) < RTOL
