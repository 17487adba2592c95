"""Variational residuals of the action, their antisymmetric rewriting, and the
finite-difference gradient oracle that validates both.

Residuals are LHS - RHS of the extrinsic critical-point equations.  For the
map field (per ambient component a, with D = tangent-projected centered
difference, raw centered differences elsewhere, and S_{e,l} = d_{D_e phi} nu_l
the normal frame differentiated along D phi) it is in divergence form:

    r_phi^a = div^h( grad phi^a + e^{2u} V^a ) + sum_l <S_l, D phi + e^{2u} V> nu_l^a
            - e^{2u} C(psi)^a + (1/12) e^{4u} SnR(psi)^a,
    C(psi)^a = sum_{l,c,i} psi^c_i <S_l, gamma psi>_i (Pi dnu_l/du^c)^a,

and for the vector-spinor (tangent-projected at the end, which also removes
the normal twisting term A(d phi, psi) of the Dirac operator):

    r_psi^a = e^{3u} (D_sym psi)^a
            + e^{2u} d^h_b phi^a gamma_e gamma_b chi^e
            - e^{4u} ( |Q chi|^2 psi^a + (1/3) SR(psi)^a ).

Up to the volume/cell normalization r_psi is exactly the constrained gradient
of the discrete action, grad_psi A = +2 h1 h2 r_psi.  r_phi approximates
grad_phi A = -2 h1 h2 r_phi (tangentially) only to second order in h: its
Dirac coupling C(psi) discretizes the continuum coupling and is not the exact
derivative of the discrete Dirac term.  action_gradient_fd checks both by
central differences with per-site tangent-space perturbations (the
vector-spinor is reprojected when the base point moves, i.e.
parallel-transported to first order).

Both residuals read the intermediates they share with each other and with the
action (d phi, D_u psi, d phi . Gamma chi, |Q chi|^2 and the Gauss parts M,
c_l and A_l M of psi) from one action.FieldData: the flow builds one per
evaluation and hands it to residual_phi, residual_psi and total_action in that
order, so each part is computed once.

The coupling chunks use the tangent-projected difference so that the
antisymmetric rewriting of the critical-point equation,

    div^h( grad phi^a + e^{2u} V^a ) = sum (omega + F + T)^{ab}_e D_e phi^b
                                       - (1/12) e^{4u} SnR^a,

is exact discrete algebra, not merely exact in the continuum: the orthogonality
identities it relies on (<d phi, nu> = 0 and the effective symmetry of dnu on
tangent slots) then hold at machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import clifford as cl
from ._planes import contract, tangent, to_planes, to_sites
from .action import (FieldData, action_density, checked_target_data, field_data, gamma_chi,
                     snr_of, snr_planes, sr_planes, target_data)
from .fields import dirac_conformal_sym, tangency_project
from .geometry import Grid, TargetData, div, grad, tangent_basis, tangent_part

__all__ = [
    "ELResidual",
    "AntisymPotentials",
    "v_fields",
    "residual_phi",
    "residual_psi",
    "residuals",
    "potentials",
    "assemble_map_residual",
    "action_gradient_fd",
    "residual_norms",
    "tangent_residual_norms",
]


@dataclass(frozen=True)
class ELResidual:
    """Map and vector-spinor residual fields; r_psi is tangent along phi."""

    r_phi: np.ndarray   # (n1, n2, K)
    r_psi: np.ndarray   # (n1, n2, K, 4)


@dataclass(frozen=True)
class AntisymPotentials:
    """Per-site, per-direction antisymmetric K x K coefficient matrices."""

    omega: np.ndarray   # (n1, n2, 2, K, K)
    f: np.ndarray       # (n1, n2, 2, K, K)
    t: np.ndarray       # (n1, n2, 2, K, K)


def _v_c(gchi: np.ndarray, psi_c: np.ndarray) -> np.ndarray:
    """V[e, a, ...] = sum_i (Gamma chi)[e, i] psi^a_i from the component-major Gamma chi
    (2, 4, ...) and psi_c (K, 4, ...)."""
    g, p = gchi.swapaxes(0, 1), psi_c.swapaxes(0, 1)                  # [i, e], [i, a]
    return contract(g[:, :, None], p[:, None], np.empty(g.shape[1:2] + p.shape[1:]))


def v_fields(chi: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """V[..., a, e] = sum_b <gamma_b gamma_e chi^b, psi^a>, one 2-vector per slot."""
    v = _v_c(to_planes(gamma_chi(chi), 2), to_planes(psi, 2))
    return np.moveaxis(v, (0, 1), (-1, -2))


def _tproj_dnu(tdata):
    """Tp[l, c, a, ...] = (Pi dnu_l/du^c)^a, component-major."""
    dnu = tdata.dnu_c
    return contract(np.moveaxis(dnu, 2, 0)[:, :, :, None], tdata.pi_c[:, None, None],
                    np.empty_like(dnu))


def _frame_derivative(dt, tdata):
    """S[e, l, b, ...] = sum_c D_e phi^c dnu_l^b/du^c, the frame derivative along D phi,
    from the component-major dt[e, c, ...] = D_e phi^c."""
    dnu = tdata.dnu_c
    return contract(dt.swapaxes(0, 1)[:, :, None, None], dnu.swapaxes(0, 1)[:, None],
                    np.empty(dt.shape[:1] + dnu.shape[:1] + dnu.shape[2:]))


def _tangent_dphi(fdata: FieldData) -> np.ndarray:
    """D phi, the tangent part of d phi along phi, component-major (2, K, ...)."""
    return tangent(fdata.tdata.nu_c, fdata.dphi.swapaxes(0, 1)).swapaxes(0, 1)


def residual_phi(phi, psi, chi, u, grid, target, tdata: TargetData | None = None,
                 fdata: FieldData | None = None) -> np.ndarray:
    """Map-equation residual; vanishes to discretization order at critical points.

    r_phi = div(d phi + e^{2u} V) + sum_l <S_l, D phi + e^{2u} V> nu_l
            - e^{2u} C(psi) + (1/12) e^{4u} SnR(psi),  S = _frame_derivative.
    For psi = chi = 0 on a unit sphere this is div grad phi + |D phi|^2 phi.
    """
    fdata = field_data(phi, psi, chi, u, grid, target, tdata, fdata)
    r = _residual_phi_without_snr(fdata)
    # curvature-derivative coupling (zero for round spheres); the temporaries of the
    # terms above are freed by now, as the K^3 arrays of nabla A set the peak memory
    if fdata.has_psi and not fdata.tdata.target.parallel_second_fund:
        r += (np.exp(4.0 * fdata.u) / 12.0) * snr_planes(fdata)
    return to_sites(r, 1)


def _residual_phi_without_snr(fdata: FieldData) -> np.ndarray:
    """r_phi but its SnR term, component-major (K, ...), from the fields and parts
    that fdata holds."""
    tdata, grid = fdata.tdata, fdata.grid
    nu = tdata.nu_c
    e2u = np.exp(2.0 * fdata.u)
    dphi = fdata.dphi
    dt = _tangent_dphi(fdata)
    s = _frame_derivative(dt, tdata)                                # [e, l, b]
    flux, pair = dphi, dt
    if fdata.has_psi and fdata.has_chi:
        # gravitino couplings ride along with d phi
        ev = _v_c(fdata.gamma_chi(), fdata.psi_c)
        ev *= e2u
        flux = dphi + ev
        pair += ev                                                  # D phi is spent
        del ev
    r = to_planes(div(np.moveaxis(flux, 1, -1), grid), 1)
    del flux
    # second fundamental form on (D phi, D phi + e^{2u} V), normal valued
    sites = r.shape[1:]
    coeff = contract(s.swapaxes(1, 2), pair, np.empty(nu.shape[:1] + sites), axes=2)  # <S_l, pair>
    del dt, pair
    buf = np.empty_like(r)
    r += contract(coeff[:, None], nu, buf)

    if fdata.has_psi:
        # curvature coupling from the Dirac term: <S_l, gamma psi>_i, then C(psi)
        psi = fdata.psi_c
        gpsi = np.matmul(cl.GAMMA[:, None], psi.reshape(psi.shape[:2] + (-1,))).reshape(
            (2,) + psi.shape)                                        # (gamma_e psi^b)_i
        s_gpsi = contract(s.swapaxes(1, 2)[:, :, :, None], gpsi[:, :, None],
                          np.empty(nu.shape[:1] + psi.shape[1:]), axes=2)    # [l, i]
        del gpsi
        w = contract(s_gpsi.swapaxes(0, 1)[:, :, None], psi.swapaxes(0, 1)[:, None],
                     np.empty(nu.shape[:2] + sites))                         # [l, c]
        del s_gpsi
        rc = contract(w[:, :, None], _tproj_dnu(tdata), buf, axes=2)
        rc *= e2u
        r -= rc
    return r


def residual_psi(phi, psi, chi, u, grid, target, tdata: TargetData | None = None,
                 fdata: FieldData | None = None) -> np.ndarray:
    """Vector-spinor residual, tangent along phi.

    With chi = 0 it is the Dirac-harmonic spinor equation (twisted Dirac
    operator minus the cubic curvature coupling); the cubic survives even at
    constant phi and drops only where SR(psi) vanishes.  At u = 0 the
    slot-wise operator is the flat one.
    """
    fdata = field_data(phi, psi, chi, u, grid, target, tdata, fdata)
    psi, u, grid = fdata.psi, fdata.u, fdata.grid
    has_psi, has_chi = fdata.has_psi, fdata.has_chi
    if not (has_psi or has_chi):
        return np.zeros_like(psi)
    if has_psi:
        sym = dirac_conformal_sym(psi, u, grid, forward=fdata.dirac)
        out = np.empty(fdata.psi_c.shape)     # e^{3u} D_sym psi, written component-major
        np.multiply(np.exp(3.0 * u)[..., None, None], sym, out=to_sites(out, 2))
        del sym
        sr = sr_planes(fdata)
        sr *= np.exp(4.0 * u)
        sr /= 3.0
        out -= sr
        del sr
    else:
        out = np.zeros(fdata.dphi_gamma_chi.shape)
    if has_chi:
        out += np.exp(2.0 * u) * fdata.dphi_gamma_chi
        if has_psi:
            out -= (np.exp(4.0 * u) * fdata.q_chi2) * fdata.psi_c
    return to_sites(tangent(fdata.tdata.nu_c, out), 2)


def residuals(phi, psi, chi, u, grid, target,
              tdata: TargetData | None = None) -> ELResidual:
    """Both residuals from one FieldData."""
    fdata = field_data(phi, psi, chi, u, grid, target, tdata)
    return ELResidual(
        r_phi=residual_phi(phi, psi, chi, u, grid, target, fdata=fdata),
        r_psi=residual_psi(phi, psi, chi, u, grid, target, fdata=fdata),
    )


def potentials(phi, psi, chi, u, grid, target,
               tdata: TargetData | None = None) -> AntisymPotentials:
    """Antisymmetric coefficient matrices of the rewritten map equation.

    omega carries the second-fundamental-form trace, F (with the factor 1/2
    from the spinor antisymmetrization, weighted e^{2u}) the curvature
    coupling, and T (weighted e^{2u}) the V-field coupling.
    """
    fdata = field_data(phi, psi, chi, u, grid, target, tdata)
    tdata = fdata.tdata
    e2u = np.exp(2.0 * u)[..., None, None, None]

    s = np.moveaxis(_frame_derivative(_tangent_dphi(fdata), tdata), (0, 1, 2), (-2, -3, -1))
    omega = np.einsum("xylea,xylb->xyeab", s, tdata.nu)
    omega -= np.swapaxes(omega, -1, -2)

    tp = np.moveaxis(_tproj_dnu(tdata), (0, 1, 2), (-3, -2, -1))
    x = np.einsum("xyci,eij,xydj->xyecd", psi, cl.GAMMA, psi)
    f = np.einsum("xyecd,xyldb,xylca->xyeab", x, tp, tp)
    f = 0.5 * e2u * (f - np.swapaxes(f, -1, -2))

    v = v_fields(chi, psi)
    t = -np.einsum("xylbc,xyce,xyla->xyeab", tdata.dnu, v, tdata.nu)
    t = e2u * (t - np.swapaxes(t, -1, -2))
    return AntisymPotentials(omega=omega, f=f, t=t)


def assemble_map_residual(phi, psi, chi, u, grid, target) -> np.ndarray:
    """Rebuild r_phi from the rewritten equation; equal to residual_phi to
    machine precision (cross-implementation check)."""
    tdata = checked_target_data(target, phi, psi)
    pots = potentials(phi, psi, chi, u, grid, target, tdata=tdata)
    dphi = grad(phi, grid)
    dt = tangent_part(tdata.nu, dphi)
    coeff = pots.omega + pots.f + pots.t

    ev = np.moveaxis(np.exp(2.0 * u)[..., None, None] * v_fields(chi, psi), -1, 0)
    r = div(dphi + ev, grid)
    r -= np.einsum("xyeab,exyb->xya", coeff, dt)
    r += (np.exp(4.0 * u)[..., None] / 12.0) * snr_of(psi, tdata)
    return r


# ---- finite-difference oracle ----------------------------------------------------


def _cross_sum(d: np.ndarray) -> np.ndarray:
    """Sum of a density delta over the 5-point cross around each site."""
    out = d.copy()
    for axis in (0, 1):
        out += np.roll(d, 1, axis) + np.roll(d, -1, axis)
    return out


def _fd_colors(grid: Grid) -> np.ndarray:
    """Colour class of each site for the FD oracle, labels 0..count-1, shape (n1, n2).

    Sites of one class are at torus Manhattan distance >= 3.  The classes are
    c = (i + 2 j) mod m, with m the smallest m >= 5 dividing n1 and 2 n2 (so
    that c is periodic): on the offsets 0 < |di| + |dj| <= 2, di + 2 dj takes
    the values +-1..+-4, none of them 0 mod m.  That gives 8 classes on 2^k
    grids from 8^2 up, 6 at 12^2 and 5 at 10^2.  Grids with no such m take
    (i mod a, j mod b), with a and b the smallest divisors >= 3 of n1 and n2:
    15 classes at 5x6, and one per site where both sides have no smaller
    divisor, as at 4^2.
    """
    n1, n2 = grid.shape
    i, j = np.ogrid[:n1, :n2]
    m = next((m for m in range(5, n1 + 1) if n1 % m == 0 and 2 * n2 % m == 0), None)
    if m is not None:
        return (i + 2 * j) % m
    a, b = (next(d for d in range(3, n + 1) if n % d == 0) for n in (n1, n2))
    return (i % a) * b + j % b


def action_gradient_fd(phi, psi, u, chi, grid, target, step: float = 1e-5):
    """Central finite differences of the discrete action, per site.

    phi is perturbed within the tangent space of N (the perturbed point is
    reprojected onto N and the vector-spinor at that site is reprojected onto
    the new tangent space, i.e. parallel-transported to first order); psi is
    perturbed along a tangent basis in every spinor slot.  phi's TargetData is
    built once: the tangent bases, the base density and every psi probe read it.
    Returns (grad_phi, grad_psi) in ambient coordinates, i.e. the
    tangent-projected coordinate gradients.  Validation only.

    The sites of one colour class (_fd_colors) are perturbed simultaneously:
    the action density only reaches one stencil step, so the per-site action
    change is the density change summed over the 5-point cross, and one grid
    evaluation serves a whole class.  Same-class sites are at least 3 apart,
    so no density in one perturbed site's cross reads another perturbed site.
    """
    if step <= 0:
        raise ValueError("finite-difference step must be positive")

    n1, n2, K = phi.shape
    tdata0 = target_data(target, phi)
    tb = tangent_basis(tdata0)                # (n1, n2, dimN, K)
    grad_phi = np.zeros_like(phi)
    grad_psi = np.zeros_like(psi)
    base = action_density(phi, psi, u, chi, grid, target, tdata0)
    hstep = step * (1.0 + np.linalg.norm(phi, axis=-1))          # (n1, n2)
    sstep = step * (1.0 + np.linalg.norm(psi.reshape(n1, n2, -1), axis=-1))

    def central(mask, h, probe):
        """Central difference of the action at mask's sites (h the per-site step) between
        probe(+1) and probe(-1), each (phi, psi, phi's TargetData)."""
        plus, minus = (_cross_sum(action_density(p, s, u, chi, grid, target, td) - base)[mask]
                       for p, s, td in map(probe, (1.0, -1.0)))
        return (plus - minus) / (2.0 * h[mask]) * grid.cell_area

    def move_phi(mask, direction, sign):
        phi_w, psi_w = phi.copy(), psi.copy(order="K")
        phi_w[mask] = target.project(phi[mask] + sign * hstep[mask][:, None] * direction)
        psi_w[mask] = tangency_project(psi[mask], phi_w[mask], target)
        return phi_w, psi_w, target_data(target, phi_w)

    def move_psi(mask, direction, slot, sign):
        psi_w = psi.copy(order="K")
        psi_w[mask, :, slot] = psi[mask][:, :, slot] + sign * sstep[mask][:, None] * direction
        return phi, psi_w, tdata0

    colors = _fd_colors(grid)
    for color in range(int(colors.max()) + 1):
        mask = colors == color
        for t in range(tb.shape[2]):
            d = tb[:, :, t, :][mask]
            grad_phi[mask] += central(mask, hstep, lambda s: move_phi(mask, d, s))[:, None] * d
            for slot in range(4):
                fd = central(mask, sstep, lambda s: move_psi(mask, d, slot, s))
                grad_psi[mask, :, slot] += fd[:, None] * d
    return grad_phi, grad_psi


def residual_norms(res: ELResidual, grid: Grid, tdata: TargetData) -> dict:
    """(L2, Linf) pairs of the tangent parts along tdata's phi, for the diagnostics report."""
    return tangent_residual_norms(tangent_part(tdata.nu, res.r_phi), res.r_psi, grid)


def tangent_residual_norms(rp: np.ndarray, r_psi: np.ndarray, grid: Grid) -> dict:
    """residual_norms from the tangent part rp of r_phi, taken by the caller."""
    cell = grid.cell_area
    l2_phi = float(np.sqrt(np.sum(rp * rp) * cell))
    l2_psi = float(np.sqrt(np.sum(r_psi * r_psi) * cell))
    out = {
        "phi": {"l2": l2_phi, "linf": float(np.max(np.abs(rp)))},
        "psi": {"l2": l2_psi, "linf": float(np.max(np.abs(r_psi)))},
    }
    out["combined"] = {
        "l2": float(np.sqrt(l2_phi**2 + l2_psi**2)),
        "linf": max(out["phi"]["linf"], out["psi"]["linf"]),
    }
    return out
