"""Variational residuals of the action, their antisymmetric rewriting, and the
finite-difference gradient oracle that validates both.

Residuals are LHS - RHS of the extrinsic critical-point equations.  For the
map field (per ambient component a, with D = tangent-projected centered
difference, raw centered differences elsewhere, and S_{e,l} = d_{D_e phi} nu_l
the normal frame differentiated along D phi) it is in divergence form:

    r_phi^a = div^h( grad phi^a + e^{2u} V^a ) + sum_l <S_l, D phi + e^{2u} V> nu_l^a
            - e^{2u} C(psi)^a + (1/12) e^{4u} SnR(psi)^a,
    C(psi)^a = (Pi sum_{l,c,i} psi^c_i <S_l, gamma psi>_i dnu_l/du^c)^a,

with Pi applied once, as the projection along nu (no residual forms Pi as a
matrix).  The second part, the normal term, is normal valued: the tangent
projection annihilates it, and in the continuum it cancels the normal part of
div(d phi + e^{2u} V), so the normal component of r_phi is an O(h^2)
artifact.  The other three parts are the map source (_map_source), added in
their order; residual_phi adds the normal term to it last.  The flow reads
only the tangent part of r_phi, and _tangent_residual_phi takes it as the
projection along nu of the source alone: it forms S only where C(psi) reads
it.  For the vector-spinor (tangent-projected at the end, which also removes
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
parallel-transported to first order).  A probe re-evaluates only the summands
its move changes: the Dirac summand's change by polarization, one D_u per pair
of probes, taken on component planes with the D_u weights of phi's FieldData;
the summands that read phi through d phi on the grid; and those that read the
moved field only at its own site at the probed sites alone.  Each colour class
takes one pass: there the probes of all tangent directions are stacked, and the
5-point cross sums are read at the class's sites alone.

Both residuals read the intermediates they share with each other and with the
action (d phi, D_u psi, Gamma chi, d phi . Gamma chi, |Q chi|^2, the conformal
weights and the Gauss parts M, c_l and A_l M of psi) from one action.FieldData:
the flow builds one per evaluation and hands it to _tangent_residual_phi,
residual_psi and total_action, so each part is computed once, and the parts
that read chi and u alone once per solve.  r_psi takes the symmetrized D_u on
component planes (fields.dirac_sym_planes), and C(psi) gamma psi as signed
planes (fields.gamma_planes).

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
from .action import (FieldData, checked_target_data, dirac_change, dphi_densities, field_data,
                     gamma_chi, local_densities, pointwise_densities, snr_of, snr_planes,
                     sr_operator, summed, target_data)
from .fields import dirac_planes, dirac_sym_planes, gamma_planes
from .geometry import (Grid, TargetData, div, div_planes, grad, tangent_basis, tangent_part,
                       tangent_part_slots)

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
    return contract(g[:, :, None], p[:, None])


def v_fields(chi: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """V[..., a, e] = sum_b <gamma_b gamma_e chi^b, psi^a>, one 2-vector per slot."""
    v = _v_c(to_planes(gamma_chi(chi), 2), to_planes(psi, 2))
    return np.moveaxis(v, (0, 1), (-1, -2))


def _frame_derivative(dt, tdata):
    """S[e, l, b, ...] = sum_c D_e phi^c dnu_l^b/du^c, the frame derivative along D phi,
    from the component-major dt[e, c, ...] = D_e phi^c."""
    dnu = tdata.dnu_c
    return contract(dt.swapaxes(0, 1)[:, :, None, None], dnu.swapaxes(0, 1)[:, None])


def _tangent_dphi(fdata: FieldData) -> np.ndarray:
    """D phi, the tangent part of d phi along phi, component-major (2, K, ...): a view of
    the C-contiguous (K, 2, ...) tangent part."""
    return tangent(fdata.tdata.nu_c, fdata.dphi.swapaxes(0, 1)).swapaxes(0, 1)


def residual_phi(phi, psi, chi, u, grid, target, tdata: TargetData | None = None,
                 fdata: FieldData | None = None) -> np.ndarray:
    """Map-equation residual; vanishes to discretization order at critical points.

    r_phi = div(d phi + e^{2u} V) + sum_l <S_l, D phi + e^{2u} V> nu_l
            - e^{2u} C(psi) + (1/12) e^{4u} SnR(psi),  S = _frame_derivative:
    the map source (_map_source) plus the normal term.  For psi = chi = 0 on a unit
    sphere this is div grad phi + |D phi|^2 phi.
    """
    fdata = field_data(phi, psi, chi, u, grid, target, tdata, fdata)
    ev = _gravitino_flux(fdata)
    dt = _tangent_dphi(fdata)
    s = _frame_derivative(dt, fdata.tdata)                          # [e, l, b]
    r = _map_source(fdata, ev, s)
    r += _normal_term(fdata, s, dt, ev)
    return to_sites(r, 1)


def _tangent_residual_phi(fdata: FieldData) -> np.ndarray:
    """The tangent part of r_phi along fdata's phi, site-major: the projection along nu
    of the map source.  The normal term of r_phi is left out, as the projection
    annihilates it, so the frame derivative S (and with it dnu) is formed only where
    C(psi) reads it, at psi nonzero."""
    return to_sites(tangent(fdata.tdata.nu_c, _map_source(fdata, _gravitino_flux(fdata))), 1)


def _map_source(fdata: FieldData, ev: np.ndarray | None,
                s: np.ndarray | None = None) -> np.ndarray:
    """div(d phi + e^{2u} V) - e^{2u} C(psi) + (1/12) e^{4u} SnR(psi), added in this
    order, component-major (K, ...), with ev = _gravitino_flux(fdata) and s the frame
    derivative (built here if C(psi) reads it and s is not given).  SnR is left out
    where it vanishes: at psi = 0, and on targets whose second fundamental form is
    parallel, as on round spheres."""
    flux = fdata.dphi if ev is None else fdata.dphi + ev
    r = div_planes(flux, fdata.grid)
    del flux
    if fdata.has_psi:
        if s is None:
            s = _frame_derivative(_tangent_dphi(fdata), fdata.tdata)
        r -= _dirac_coupling(fdata, s)
        del s
        if not fdata.tdata.target.parallel_second_fund:
            r += (fdata.e4u / 12.0) * snr_planes(fdata)
    return r


def _gravitino_flux(fdata: FieldData) -> np.ndarray | None:
    """e^{2u} V, the gravitino coupling that rides along with d phi, component-major
    (2, K, ...); None unless psi and chi are both nonzero."""
    if not (fdata.has_psi and fdata.has_chi):
        return None
    ev = _v_c(fdata.gamma_chi, fdata.psi_c)
    ev *= fdata.e2u
    return ev


def _normal_term(fdata: FieldData, s: np.ndarray, dt: np.ndarray,
                 ev: np.ndarray | None) -> np.ndarray:
    """sum_l <S_l, D phi + e^{2u} V> nu_l, the second fundamental form on (D phi,
    D phi + e^{2u} V), normal valued, component-major (K, ...).  dt = D phi is spent."""
    nu = fdata.tdata.nu_c
    pair = dt if ev is None else np.add(dt, ev, out=dt)
    coeff = contract(s.swapaxes(1, 2), pair, axes=2)                # <S_l, pair>
    return contract(coeff[:, None], nu)


def _dirac_coupling(fdata: FieldData, s: np.ndarray) -> np.ndarray:
    """e^{2u} C(psi), the curvature coupling from the Dirac term, component-major
    (K, ...): <S_l, gamma psi>_i, then the tangent part of sum_{l,c} w[l, c] dnu_l/du^c."""
    tdata = fdata.tdata
    nu, psi = tdata.nu_c, fdata.psi_c
    gpsi = gamma_planes(psi)                                        # (gamma_e psi^b)_i
    s_gpsi = contract(s.swapaxes(1, 2)[:, :, :, None], gpsi[:, :, None], axes=2)  # [l, i]
    del gpsi
    w = contract(s_gpsi.swapaxes(0, 1)[:, :, None], psi.swapaxes(0, 1)[:, None])  # [l, c]
    del s_gpsi
    rc = tangent(nu, contract(w[:, :, None], tdata.dnu_c, axes=2))
    rc *= fdata.e2u
    return rc


def residual_psi(phi, psi, chi, u, grid, target, tdata: TargetData | None = None,
                 fdata: FieldData | None = None) -> np.ndarray:
    """Vector-spinor residual, tangent along phi.

    With chi = 0 it is the Dirac-harmonic spinor equation (twisted Dirac
    operator minus the cubic curvature coupling); the cubic survives even at
    constant phi and drops only where SR(psi) vanishes.  At u = 0 the
    slot-wise operator is the flat one.
    """
    fdata = field_data(phi, psi, chi, u, grid, target, tdata, fdata)
    has_psi, has_chi = fdata.has_psi, fdata.has_chi
    if not (has_psi or has_chi):
        return np.zeros_like(fdata.psi)
    if has_psi:
        out = dirac_sym_planes(fdata.psi_c, fdata.dirac_weights, fdata.grid, fdata.dirac)
        out *= fdata.e3u                        # e^{3u} D_sym psi
        w = sr_operator(fdata).swapaxes(0, 1)
        # (1/3) e^{4u} SR(psi), one spinor component at a time: no psi-sized temporary
        for i in range(out.shape[1]):
            sr = contract(w, fdata.psi_c[:, None, i])
            sr *= fdata.e4u
            sr /= 3.0
            out[:, i] -= sr
        del w, sr
    else:
        out = np.zeros(fdata.dphi_gamma_chi.shape)
    if has_chi:
        out += fdata.e2u * fdata.dphi_gamma_chi
        if has_psi:
            out -= (fdata.e4u * fdata.q_chi2) * fdata.psi_c
    return to_sites(tangent(fdata.tdata.nu_c, out, in_place=True), 2)


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
    coupling, and T (weighted e^{2u}) the V-field coupling.  F reads its own Pi dnu,
    an einsum on tdata.pi, so that the rewriting does not share the projection
    residual_phi applies.
    """
    fdata = field_data(phi, psi, chi, u, grid, target, tdata)
    tdata = fdata.tdata
    e2u = np.exp(2.0 * u)[..., None, None, None]

    s = np.moveaxis(_frame_derivative(_tangent_dphi(fdata), tdata), (0, 1, 2), (-2, -3, -1))
    omega = np.einsum("xylea,xylb->xyeab", s, tdata.nu)
    omega -= np.swapaxes(omega, -1, -2)

    tp = np.einsum("xylcf,xyfa->xylca", tdata.dnu, tdata.pi)
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


def _cross_sum(d: np.ndarray, sites: tuple) -> np.ndarray:
    """Sum of a density delta d (n1, n2) over the 5-point cross around each of the sites
    (i, j), two index arrays: (d + (d[i - 1] + d[i + 1])) + (d[j - 1] + d[j + 1]), read at
    the sites alone."""
    i, j = sites
    n1, n2 = d.shape
    return (d[i, j] + (d[i - 1, j] + d[(i + 1) % n1, j])) + (d[i, j - 1] + d[i, (j + 1) % n2])


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
    perturbed along a tangent basis in every spinor slot.  Returns (grad_phi,
    grad_psi) in ambient coordinates, i.e. the tangent-projected coordinate
    gradients.  Validation only.

    The sites of one colour class (_fd_colors) are perturbed simultaneously:
    the action density only reaches one stencil step, so the per-site action
    change is the density change between the + and - probes summed over the
    5-point cross (_cross_sum, read at the class's sites alone), and one grid
    evaluation serves a whole class.  Same-class sites are at least 3 apart, so
    no density in one perturbed site's cross reads another perturbed site.

    phi's TargetData and FieldData are built once, after checking phi on N and
    psi tangent along phi's frame (ConstraintError otherwise), and so are D_u psi
    and D_u's weights, which every probe's Dirac change reads.  A probe
    re-evaluates only the summands that its move changes, each on the sites it
    reads, and each class takes one pass: the probes of all its tangent
    directions are stacked wherever a summand reads them only at their own site.
    The oracle differences the action's own summand code alone and reads no
    residual and no adjoint of D_u, so it stays an independent check of both
    residuals.

    - The Dirac summand II is a quadratic form in psi.  The + and - probes move
      psi by a and b on one class only, and D_u reads a site's neighbours, never
      the site itself, so <a, D_u a> and <b, D_u b> vanish and II changes by
      e^{3u} (<a - b, D_u psi> + <psi, D_u (a - b)>) (action.dirac_change): one
      D_u of a - b per pair of probes, on the grid, with a - b written into zeroed
      component planes and D_u taken there on phi's weights (fields.dirac_planes).
    - A phi probe moves psi too (reprojected) and evaluates I + III
      (action.dphi_densities) on the grid, as they read phi one step away
      through d phi; its FieldData shares Gamma chi and |Q chi|^2 with phi's one
      (FieldData.with_map) and builds no TargetData.  IV + V
      (action.local_densities) read every field only at their own site: they run
      at the class's m sites, on its one gathered FieldData (FieldData.at_sites,
      site axes (1, m)), the moved maps of both signs and every tangent direction
      stacked as (2 dimN, m, K) on one TargetData.  The retraction onto N runs once
      per direction, as the level-set Newton loop tests convergence over all the
      points it is given.
    - A psi probe re-evaluates III + IV + V (action.pointwise_densities), which
      read psi only at their own site, at the probed sites alone: per class they
      run once, on the tangent directions x 4 slots x 2 signs of probed psi
      stacked as (8 dimN, m, K, 4) against the same gathered FieldData and its
      one frame of phi at the m sites; the stack is the site-major view of
      component-major planes, which that FieldData reads without a copy.
    """
    if not (np.isfinite(step) and step > 0):
        raise ValueError("finite-difference step must be positive and finite")

    n1, n2 = grid.shape
    tdata0 = checked_target_data(target, phi, psi)
    tb = tangent_basis(tdata0)                # (n1, n2, dimN, K)
    fdata0 = field_data(phi, psi, chi, u, grid, target, tdata0)
    grad_phi = np.zeros_like(phi)
    grad_psi = np.zeros_like(psi)
    hstep = step * (1.0 + np.linalg.norm(phi, axis=-1))          # (n1, n2)
    sstep = step * (1.0 + np.linalg.norm(psi.reshape(n1, n2, -1), axis=-1))

    def central(mask, h, delta):
        """The central difference at mask's sites (h the per-site step) from delta, the
        action change there between the + and the - probe."""
        return (delta / (2.0 * h[mask]) * grid.cell_area)[:, None]

    def dirac_between(ij, slots, delta_m):
        """The Dirac density's change between two probes whose psi differ by delta_m in
        the spinor slots `slots` at the sites ij = (i, j) and agree elsewhere; delta_m is
        component-major, (K, 4, m) for every slot or (K, m) for one."""
        i, j = ij
        delta = np.zeros(psi.shape[2:] + grid.shape)
        delta[:, slots, i, j] = delta_m
        d_delta = dirac_planes(delta, fdata0.dirac_weights, grid)
        return dirac_change(fdata0, to_sites(delta, 2), to_sites(d_delta, 2))

    def phi_changes(mask, ij, here, dirs):
        """The action change at mask's sites (ij = np.nonzero(mask), here = fdata0.at_sites
        there) for each direction of dirs between the probes that move phi there by
        +- hstep direction, psi reprojected onto the moved tangent spaces."""
        phi_m, h_m = phi[mask], hstep[mask][:, None]
        moves = [h_m * d for d in dirs]
        moved = target_data(target, np.concatenate(
            [target.project(phi_m + np.stack((move, -move))) for move in moves]))
        psi_s = tangent_part_slots(moved.nu, psi[mask][None])       # (2 dimN, m, K, 4)
        at_sites = summed(local_densities(here.with_map(moved.phi, psi_s, moved)))
        changes = []
        for t in range(0, 2 * len(dirs), 2):
            on_grid = []
            for phi_k, psi_k in zip(moved.phi[t:t + 2], psi_s[t:t + 2]):
                phi_w, psi_w = phi.copy(), psi.copy(order="K")
                phi_w[mask], psi_w[mask] = phi_k, psi_k
                on_grid.append(summed(dphi_densities(fdata0.with_map(phi_w, psi_w))))
            change = on_grid[0] - on_grid[1]
            change += dirac_between(ij, slice(None), to_planes(psi_s[t] - psi_s[t + 1], 2))
            delta = _cross_sum(change, ij)
            if at_sites is not None:
                delta += at_sites[t] - at_sites[t + 1]
            changes.append(delta)
        return changes

    colors = _fd_colors(grid)
    for color in range(int(colors.max()) + 1):
        mask = colors == color
        ij = np.nonzero(mask)
        here = fdata0.at_sites(np.flatnonzero(mask))                 # site axes (1, m)
        dirs = [tb[:, :, t, :][mask] for t in range(tb.shape[2])]
        for d, delta in zip(dirs, phi_changes(mask, ij, here, dirs)):
            grad_phi[mask] += central(mask, hstep, delta) * d
        psi_mc, s_m = to_planes(psi[mask], 2), sstep[mask][:, None]  # (K, 4, m)
        # the psi probes component-major, [b, i, (dir, slot, sign), m], so that their
        # FieldData reads them without a copy
        probes = np.repeat(psi_mc[:, :, None], 8 * len(dirs), axis=2)
        gaps = np.empty((len(dirs), 4, len(psi_mc), psi_mc.shape[2]))  # [dir, slot, K, m]
        for t, d in enumerate(dirs):
            move = (s_m * d).T
            for slot in range(4):
                k = 8 * t + 2 * slot
                plus, minus = probes[:, slot, k], probes[:, slot, k + 1]
                plus += move
                minus -= move
                np.subtract(plus, minus, out=gaps[t, slot])
        pw = summed(pointwise_densities(here.with_psi(to_sites(probes, 2))))
        del probes
        for t, d in enumerate(dirs):
            for slot in range(4):
                delta = _cross_sum(dirac_between(ij, slot, gaps[t, slot]), ij)
                delta += pw[8 * t + 2 * slot] - pw[8 * t + 2 * slot + 1]
                grad_psi[mask, :, slot] += central(mask, sstep, delta) * d
    return grad_phi, grad_psi


def residual_norms(res: ELResidual, grid: Grid, tdata: TargetData) -> dict:
    """(L2, Linf) pairs of the tangent parts along tdata's phi, for the diagnostics report."""
    return tangent_residual_norms(tangent_part(tdata.nu, res.r_phi), res.r_psi, grid)


def tangent_residual_norms(rp: np.ndarray, r_psi: np.ndarray | None, grid: Grid) -> dict:
    """residual_norms from the tangent part rp of r_phi, taken by the caller; r_psi is None
    where it vanishes identically, and its norms then read 0.0 without an array."""
    cell = grid.cell_area
    l2_phi = float(np.sqrt(np.sum(rp * rp) * cell))
    if r_psi is None:
        l2_psi = linf_psi = 0.0
    else:
        l2_psi = float(np.sqrt(np.sum(r_psi * r_psi) * cell))
        linf_psi = float(np.max(np.abs(r_psi)))
    out = {
        "phi": {"l2": l2_phi, "linf": float(np.max(np.abs(rp)))},
        "psi": {"l2": l2_psi, "linf": linf_psi},
    }
    out["combined"] = {
        "l2": float(np.sqrt(l2_phi**2 + l2_psi**2)),
        "linf": max(out["phi"]["linf"], out["psi"]["linf"]),
    }
    return out
