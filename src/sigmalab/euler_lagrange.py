"""Variational residuals of the action, their antisymmetric rewriting, and the
finite-difference gradient oracle that validates both.

Residuals are LHS - RHS of the extrinsic critical-point equations.  For the
map field (per ambient component a, with D = tangent-projected centered
difference and raw centered differences elsewhere):

    r_phi^a = div grad phi^a
            + sum_e D_e phi^c D_e phi^b (dnu_l^b/du^c) nu_l^a
            - e^{2u} <psi^c, D_e phi^d gamma_e psi^b> (dnu_l^b/du^d) (Pi dnu_l/du^c)^a
            + (1/12) e^{4u} SnR(psi)^a
            + div^h ( e^{2u} V^a )
            + e^{2u} <V^b, D phi^c> (dnu_l^b/du^c) nu_l^a

and for the vector-spinor (tangent-projected at the end, which also removes
the normal twisting term A(d phi, psi) of the Dirac operator):

    r_psi^a = e^{3u} (D_sym psi)^a
            + e^{2u} d^h_b phi^a gamma_e gamma_b chi^e
            - e^{4u} ( |Q chi|^2 psi^a + (1/3) SR(psi)^a ).

Up to the volume/cell normalization these are exactly the constrained
gradients of the discrete action: grad_phi A = -2 h1 h2 r_phi (tangentially)
and grad_psi A = +2 h1 h2 r_psi, which action_gradient_fd checks by central
differences with per-site tangent-space perturbations (the vector-spinor is
reprojected when the base point moves, i.e. parallel-transported to first
order).

The coupling chunks use the tangent-projected difference so that the
antisymmetric rewriting of the critical-point equation,

    div grad phi^a = sum (omega + F + T)^{ab}_e D_e phi^b
                     - (1/12) e^{4u} SnR^a - div^h(e^{2u} V^a),

is exact discrete algebra, not merely exact in the continuum: the orthogonality
identities it relies on (<d phi, nu> = 0 and the effective symmetry of dnu on
tangent slots) then hold at machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import clifford as cl
from .action import TargetData, action_density, action_value, gamma_chi, snr_of, sr_of, target_data
from .fields import dirac_conformal_sym, q_norm2_field, require_tangent, tangency_project
from .geometry import (
    Grid,
    TargetManifold,
    div,
    grad,
    require_on_manifold,
    tangent_basis,
)

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


def v_fields(chi: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """V[..., a, e] = sum_b <gamma_b gamma_e chi^b, psi^a>, one 2-vector per slot."""
    return np.einsum("xyei,xyai->xyae", gamma_chi(chi), psi)


def _prepare(phi, psi, target, check: bool, tdata: TargetData | None) -> TargetData:
    """Check the constraints if asked; build the target data unless passed."""
    if check:
        require_on_manifold(target, phi)
        require_tangent(psi, phi, target)
    return target_data(target, phi) if tdata is None else tdata


def _tproj_dnu(tdata):
    """Tp[..., l, c, a] = (Pi dnu_l/du^c)^a."""
    return np.einsum("xylcf,xyfa->xylca", tdata.dnu, tdata.pi)


def residual_phi(phi, psi, chi, u, grid, target, check: bool = True,
                 tdata: TargetData | None = None) -> np.ndarray:
    """Map-equation residual; vanishes to discretization order at critical points.

    For psi = chi = 0 on a unit sphere this is the harmonic-map residual
    div grad phi + |d phi|^2 phi.
    """
    tdata = _prepare(phi, psi, target, check, tdata)
    e2u = np.exp(2.0 * u)
    e4u = np.exp(4.0 * u)
    has_psi = bool(np.any(psi))
    has_chi = bool(np.any(chi))

    dphi = grad(phi, grid)
    dt = target.tangent_project(phi, dphi)
    r = div(dphi, grid)

    # second-fundamental-form trace (normal valued)
    r += np.einsum("exyc,exyb,xylcb,xyla->xya", dt, dt, tdata.dnu, tdata.nu)

    if has_psi:
        # curvature coupling from the Dirac term
        gpsi = np.einsum("eij,xybj->exybi", cl.GAMMA, psi)
        mid = np.einsum("exyd,exybi->xydbi", dt, gpsi)
        tp = _tproj_dnu(tdata)
        rc = np.einsum("xyci,xydbi,xyldb,xylca->xya", psi, mid, tdata.dnu, tp)
        r -= e2u[..., None] * rc

        # curvature-derivative coupling (zero for round spheres)
        if not target.parallel_second_fund:
            r += (e4u[..., None] / 12.0) * snr_of(psi, phi, target, tdata)

    if has_psi and has_chi:
        # gravitino couplings
        v = v_fields(chi, psi)
        flux = np.moveaxis(e2u[..., None, None] * v, -1, 0)  # (2, n1, n2, K)
        r += div(flux, grid)
        vt_coeff = np.einsum("xybe,exyc->xybc", v, dt)
        vt = np.einsum("xybc,xylcb,xyla->xya", vt_coeff, tdata.dnu, tdata.nu)
        r += e2u[..., None] * vt
    return r


def residual_psi(phi, psi, chi, u, grid, target, check: bool = True,
                 tdata: TargetData | None = None) -> np.ndarray:
    """Vector-spinor residual, tangent along phi.

    With chi = 0 it is the Dirac-harmonic spinor equation (twisted Dirac
    operator minus the cubic curvature coupling); the cubic survives even at
    constant phi and drops only where SR(psi) vanishes.  At u = 0 the
    slot-wise operator is the flat one.
    """
    tdata = _prepare(phi, psi, target, check, tdata)
    has_psi = bool(np.any(psi))
    has_chi = bool(np.any(chi))
    out = np.zeros_like(psi)
    if not (has_psi or has_chi):
        return out
    e2u = np.exp(2.0 * u)[..., None, None]
    e3u = np.exp(3.0 * u)[..., None, None]
    e4u = np.exp(4.0 * u)[..., None, None]

    if has_psi:
        out += e3u * dirac_conformal_sym(psi, u, grid)
        out -= e4u * sr_of(psi, phi, target, tdata) / 3.0
    if has_chi:
        dphi = grad(phi, grid)
        out += e2u * np.einsum("bxya,xybi->xyai", dphi, gamma_chi(chi))
        if has_psi:
            out -= e4u * q_norm2_field(chi)[..., None, None] * psi
    return tangency_project(out, phi, target)


def residuals(phi, psi, chi, u, grid, target, check: bool = True,
              tdata: TargetData | None = None) -> ELResidual:
    tdata = _prepare(phi, psi, target, check, tdata)
    return ELResidual(
        r_phi=residual_phi(phi, psi, chi, u, grid, target, check=False, tdata=tdata),
        r_psi=residual_psi(phi, psi, chi, u, grid, target, check=False, tdata=tdata),
    )


def potentials(phi, psi, chi, u, grid, target, check: bool = True,
               tdata: TargetData | None = None) -> AntisymPotentials:
    """Antisymmetric coefficient matrices of the rewritten map equation.

    omega carries the second-fundamental-form trace, F (with the factor 1/2
    from the spinor antisymmetrization, weighted e^{2u}) the curvature
    coupling, and T (weighted e^{2u}) the V-field coupling.
    """
    tdata = _prepare(phi, psi, target, check, tdata)
    e2u = np.exp(2.0 * u)[..., None, None, None]

    dt = target.tangent_project(phi, grad(phi, grid))
    s = np.einsum("exyc,xylca->exyla", dt, tdata.dnu)
    omega = np.einsum("exyla,xylb->xyeab", s, tdata.nu)
    omega -= np.swapaxes(omega, -1, -2)

    tp = _tproj_dnu(tdata)
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
    tdata = target_data(target, phi)
    pots = potentials(phi, psi, chi, u, grid, target, check=False, tdata=tdata)
    dphi = grad(phi, grid)
    dt = target.tangent_project(phi, dphi)
    coeff = pots.omega + pots.f + pots.t

    r = div(dphi, grid)
    r -= np.einsum("xyeab,exyb->xya", coeff, dt)
    r += (np.exp(4.0 * u)[..., None] / 12.0) * snr_of(psi, phi, target, tdata)
    v = v_fields(chi, psi)
    flux = np.moveaxis(np.exp(2.0 * u)[..., None, None] * v, -1, 0)
    r += div(flux, grid)
    return r


# ---- finite-difference oracle ----------------------------------------------------


def _cross_sum(d: np.ndarray) -> np.ndarray:
    """Sum of a density delta over the 5-point cross around each site."""
    out = d.copy()
    for axis in (0, 1):
        out += np.roll(d, 1, axis) + np.roll(d, -1, axis)
    return out


def action_gradient_fd(phi, psi, u, chi, grid, target, step: float = 1e-5):
    """Central finite differences of the discrete action, per site.

    phi is perturbed within the tangent space of N (the perturbed point is
    reprojected onto N and the vector-spinor at that site is reprojected onto
    the new tangent space, i.e. parallel-transported to first order); psi is
    perturbed along a tangent basis in every spinor slot.  Returns
    (grad_phi, grad_psi) in ambient coordinates, i.e. the tangent-projected
    coordinate gradients.  Validation only.

    Sites a fixed spacing apart are perturbed simultaneously: the action
    density only reaches one stencil step, so the per-site action change is
    the density change summed over the 5-point cross, and one grid evaluation
    serves a whole color class.  Grids not divisible by the spacing fall back
    to the site-by-site loop.
    """
    if step <= 0:
        raise ValueError("finite-difference step must be positive")
    spacing = 4
    if grid.n1 % spacing or grid.n2 % spacing:
        return _action_gradient_fd_sitewise(phi, psi, u, chi, grid, target, step)

    n1, n2, K = phi.shape
    tb = tangent_basis(target, phi)           # (n1, n2, dimN, K)
    dim_n = tb.shape[2]
    grad_phi = np.zeros_like(phi)
    grad_psi = np.zeros_like(psi)

    tdata0 = target_data(target, phi)
    base = action_density(phi, psi, u, chi, grid, target, tdata0)
    hstep = step * (1.0 + np.linalg.norm(phi, axis=-1))          # (n1, n2)
    sstep = step * (1.0 + np.linalg.norm(psi.reshape(n1, n2, -1), axis=-1))

    colors = [
        (np.arange(n1) % spacing == a)[:, None] & (np.arange(n2) % spacing == b)[None, :]
        for a in range(spacing)
        for b in range(spacing)
    ]

    for mask in colors:
        for t in range(dim_n):
            direction = tb[:, :, t, :]
            deltas = []
            for sign in (+1.0, -1.0):
                phi_w = phi.copy()
                psi_w = psi.copy()
                moved = target.project(
                    phi[mask] + sign * hstep[mask][:, None] * direction[mask]
                )
                phi_w[mask] = moved
                psi_w[mask] = tangency_project(psi[mask], moved, target)
                dens = action_density(phi_w, psi_w, u, chi, grid, target)
                deltas.append(_cross_sum(dens - base)[mask])
            fd = (deltas[0] - deltas[1]) / (2.0 * hstep[mask]) * grid.cell_area
            grad_phi[mask] += fd[:, None] * direction[mask]

        for t in range(dim_n):
            direction = tb[:, :, t, :]
            for c in range(4):
                deltas = []
                for sign in (+1.0, -1.0):
                    psi_w = psi.copy()
                    psi_w[mask, :, c] = psi[mask][:, :, c] + (
                        sign * sstep[mask][:, None] * direction[mask]
                    )
                    dens = action_density(phi, psi_w, u, chi, grid, target, tdata0)
                    deltas.append(_cross_sum(dens - base)[mask])
                fd = (deltas[0] - deltas[1]) / (2.0 * sstep[mask]) * grid.cell_area
                grad_psi[mask, :, c] += fd[:, None] * direction[mask]
    return grad_phi, grad_psi


def _action_gradient_fd_sitewise(phi, psi, u, chi, grid, target, step):
    """Reference site-by-site loop (full action re-evaluation per probe)."""
    n1, n2, K = phi.shape
    tb = tangent_basis(target, phi)
    dim_n = tb.shape[2]
    grad_phi = np.zeros_like(phi)
    grad_psi = np.zeros_like(psi)

    phi_w = phi.copy()
    psi_w = psi.copy()
    tdata0 = target_data(target, phi)

    for i in range(n1):
        for j in range(n2):
            p0 = phi_w[i, j].copy()
            s0 = psi_w[i, j].copy()
            hstep = step * (1.0 + float(np.linalg.norm(p0)))
            for t in range(dim_n):
                direction = tb[i, j, t]
                vals = []
                for sign in (+1.0, -1.0):
                    pnew = target.project(p0 + sign * hstep * direction)
                    phi_w[i, j] = pnew
                    psi_w[i, j] = tangency_project(s0, pnew, target)
                    vals.append(action_value(phi_w, psi_w, u, chi, grid, target))
                grad_phi[i, j] += ((vals[0] - vals[1]) / (2.0 * hstep)) * direction
                phi_w[i, j] = p0
                psi_w[i, j] = s0

            sstep = step * (1.0 + float(np.linalg.norm(s0)))
            for t in range(dim_n):
                direction = tb[i, j, t]
                for c in range(4):
                    vals = []
                    for sign in (+1.0, -1.0):
                        psi_w[i, j, :, c] = s0[:, c] + sign * sstep * direction
                        vals.append(
                            action_value(phi_w, psi_w, u, chi, grid, target, tdata=tdata0)
                        )
                        psi_w[i, j, :, c] = s0[:, c]
                    grad_psi[i, j, :, c] += ((vals[0] - vals[1]) / (2.0 * sstep)) * direction
    return grad_phi, grad_psi


def residual_norms(res: ELResidual, grid: Grid, target: TargetManifold,
                   phi: np.ndarray) -> dict:
    """(L2, Linf) pairs of the tangent parts, for the diagnostics report."""
    rp = target.tangent_project(phi, res.r_phi)
    cell = grid.cell_area
    l2_phi = float(np.sqrt(np.sum(rp * rp) * cell))
    l2_psi = float(np.sqrt(np.sum(res.r_psi * res.r_psi) * cell))
    out = {
        "phi": {"l2": l2_phi, "linf": float(np.max(np.abs(rp)))},
        "psi": {"l2": l2_psi, "linf": float(np.max(np.abs(res.r_psi)))},
    }
    out["combined"] = {
        "l2": float(np.sqrt(l2_phi**2 + l2_psi**2)),
        "linf": max(out["phi"]["linf"], out["psi"]["linf"]),
    }
    return out
