"""Independent reference implementations that the tests check the package against.

None of them runs in a command or the flow.  Each evaluates a quantity the
slow, direct way, pointwise or site by site:

* the extrinsic curvature data of geometry's module docstring, from the normal
  frame and its derivative at single points: second_fund_form (A),
  shape_operator (P), curvature_operator (R, by the Gauss equation) and nabla_A,
  a transport finite difference of the covariant derivative of A, which checks
  the closed form TargetManifold.nabla_a_tensor;
* _action_gradient_fd_sitewise, the finite-difference gradient of the action
  with one full re-evaluation per probe, which checks the coloured
  euler_lagrange.action_gradient_fd;
* dirac_changes_on_grid and moved_map_summands_on_grid, a colour class's probe
  changes of the summands that read a site's neighbours evaluated on the whole
  grid, one probe at a time, which check the oracle's evaluation at the
  classes' 5-point crosses bit for bit;
* sr_planes and sr_of, the cubic contraction SR(psi) on component planes and in
  the site-major layout of psi, and q_norm2_field, |Q chi|^2 as <chi, Q chi>;
* clifford_derivative_matmul and gamma_matmul, the gamma matrices applied as
  batched @ products on the site-major and the component-major layout, which
  check the signed plane sums of fields.clifford_planes and fields.gamma_planes
  bit for bit.
"""

import numpy as np

from sigmalab._planes import contract, to_sites
from sigmalab.action import (FieldData, action_density, dirac_change, dphi_densities,
                             sr_operator, summed, target_data)
from sigmalab.clifford import GAMMA, q_project
from sigmalab.fields import dirac_planes, site_inner, tangency_project
from sigmalab.geometry import (TargetData, grad, require_on_manifold, tangent_basis,
                               tangent_part)


def sr_planes(fd: FieldData) -> np.ndarray:
    """SR(psi) = sr_operator(fd) psi, shaped like fd.psi_c."""
    return contract(sr_operator(fd).swapaxes(0, 1)[:, :, None], fd.psi_c[:, None])


def sr_of(psi, phi, target, tdata: TargetData | None = None) -> np.ndarray:
    """Cubic curvature contraction SR(psi) = sum_l (c_l A_l - A_l M A_l) psi, tangent."""
    if tdata is None:
        tdata = target_data(target, phi)
    return to_sites(sr_planes(FieldData(phi, psi, tdata=tdata)), 2)


def q_norm2_field(chi: np.ndarray) -> np.ndarray:
    """|Q chi|^2 per site, evaluated as <chi, Q chi> (orthogonal projector)."""
    return site_inner(chi, q_project(chi))


def clifford_derivative_matmul(gammas, s, grid) -> np.ndarray:
    """sum_a gammas[a] d^h_a s on a site-major field s (n1, n2, ..., m): one
    (sites * slots, m) @ (m, m) product per direction a."""
    ds = grad(s, grid).reshape(2, -1, s.shape[-1])
    out = ds[0] @ gammas[0].T
    out += np.matmul(ds[1], gammas[1].T, out=ds[0])   # ds[0] is spent; reuse it
    return out.reshape(s.shape)


def gamma_matmul(psi_c) -> np.ndarray:
    """(gamma_a psi^b)_i on component-major planes psi_c (K, 4, ...): one (4, 4) @ (4, sites)
    product per direction a and slot b, shaped (2,) + psi_c.shape."""
    flat = psi_c.reshape(psi_c.shape[:2] + (-1,))
    return np.matmul(GAMMA[:, None], flat).reshape((2,) + psi_c.shape)


# ---- criterion 5: the curvature data at single points ----------------------------


def second_fund_form(target, p, X, Y) -> np.ndarray:
    """A(X, Y), a normal-space vector; symmetric and bilinear in (X, Y)."""
    require_on_manifold(target, p)
    tdata = TargetData(target, p)
    coeff = -np.einsum("...a,...b,...lab->...l", X, Y, tdata.dnu)
    return np.einsum("...l,...la->...a", coeff, tdata.nu)


def shape_operator(target, p, xi, Z) -> np.ndarray:
    """P(xi; Z) = -(d_Z nu-extension of xi)^tangent; dual to A."""
    require_on_manifold(target, p)
    tdata = TargetData(target, p)
    xi_l = np.einsum("...la,...a->...l", tdata.nu, xi)
    dz = np.einsum("...a,...lab->...lb", Z, tdata.dnu)
    raw = -np.einsum("...l,...lb->...b", xi_l, dz)
    return tangent_part(tdata.nu, raw)


def curvature_operator(target, p, X, Y, Z) -> np.ndarray:
    """R(X, Y) Z = P(A(Y, Z); X) - P(A(X, Z); Y)  (Gauss equation)."""
    ayz = second_fund_form(target, p, Y, Z)
    axz = second_fund_form(target, p, X, Z)
    return shape_operator(target, p, ayz, X) - shape_operator(target, p, axz, Y)


def nabla_A(target, p, X, Y, Z, step: float | None = None) -> np.ndarray:
    """(nabla_Z A)(X, Y) by the transport finite difference (the oracle for
    nabla_a_tensor); identically zero for round spheres.  step must be positive."""
    if step is not None and not (step > 0.0 and np.isfinite(step)):
        raise ValueError(f"nabla_A step must be positive and finite, got {step}")
    require_on_manifold(target, p)
    if target.parallel_second_fund:
        return np.zeros(np.broadcast(X, Y).shape)
    tdata = TargetData(target, p)
    coeff = _nabla_a_fd(tdata, np.stack(np.broadcast_arrays(X, Y), axis=-1), Z, step)
    return np.einsum("...l,...la->...a", coeff[..., 0, 1, :], tdata.nu)


def _nabla_a_fd(tdata, basis, z, step):
    """Transport finite difference for the covariant derivative of A.

    Returns coeff[..., a, b, l] = <(nabla_z A)(b_a, b_b), nu_l(p)> for the
    tangent columns b_a of basis (..., K, n), with tdata the TargetData at p.
    The columns are reprojected onto the tangent spaces at p +- eps z (equal
    to parallel transport to first order), A is evaluated there from one
    TargetData each, and the centered difference is read off in the normal
    frame at p.  The default step is eps = 1e-4 (1 + |p|).
    """
    target, p = tdata.target, tdata.phi
    eps = step if step is not None else 1e-4 * (1.0 + np.linalg.norm(p, axis=-1))
    eps = np.asarray(eps)[..., None]

    def a_at(q):
        tq = TargetData(target, target.project(q))
        bq = np.einsum("...ac,...cb->...ab", tq.pi, basis)
        coeff = -np.einsum("...ca,...db,...lcd->...abl", bq, bq, tq.dnu)
        return np.einsum("...abl,...lv->...abv", coeff, tq.nu)

    diff = a_at(p + eps * z) - a_at(p - eps * z)
    coeff = np.einsum("...lv,...abv->...abl", tdata.nu, diff)
    return coeff / (2.0 * eps[..., None, None])


# ---- the finite-difference gradient, site by site ----------------------------------


def _action_gradient_fd_sitewise(phi, psi, u, chi, grid, target, step):
    """Reference site-by-site loop (full action re-evaluation per probe)."""
    n1, n2, K = phi.shape
    tb = tangent_basis(target_data(target, phi))
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
                    dens = action_density(phi_w, psi_w, u, chi, grid, target)
                    vals.append(float(np.sum(dens) * grid.cell_area))
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
                        dens = action_density(phi_w, psi_w, u, chi, grid, target, tdata=tdata0)
                        vals.append(float(np.sum(dens) * grid.cell_area))
                        psi_w[i, j, :, c] = s0[:, c]
                    grad_psi[i, j, :, c] += ((vals[0] - vals[1]) / (2.0 * sstep)) * direction
    return grad_phi, grad_psi


def dirac_changes_on_grid(fdata: FieldData, sites, delta) -> np.ndarray:
    """The Dirac summand's change (P, n1, n2) between the P pairs of probes whose psi differ
    by delta (K, 4, P, m), component-major, at the flat grid-site indices sites and agree
    elsewhere, on fdata's grid: per pair, delta written into zeroed planes, its D_u taken
    there on fdata's weights and the change read by polarization (action.dirac_change)."""
    i, j = np.divmod(sites, fdata.grid.n2)
    out = []
    for p in range(delta.shape[2]):
        d = np.zeros(fdata.psi_c.shape)
        d[:, :, i, j] = delta[:, :, p]
        d_delta = dirac_planes(d, fdata.dirac_weights, fdata.grid)
        out.append(dirac_change(fdata, to_sites(d, 2), to_sites(d_delta, 2)))
    return np.stack(out)


def moved_map_summands_on_grid(fdata: FieldData, sites, phi_m, psi_m) -> np.ndarray:
    """I + III (P, n1, n2) of P probes that move fdata's phi to phi_m (P, m, K) and its psi to
    psi_m (P, m, K, 4) at the flat grid-site indices sites and leave both elsewhere, on
    fdata's grid: per probe, copies of phi and psi moved there (FieldData.with_map)."""
    i, j = np.divmod(sites, fdata.grid.n2)
    out = []
    for phi_k, psi_k in zip(phi_m, psi_m):
        phi_w, psi_w = fdata.phi.copy(), fdata.psi.copy()
        phi_w[i, j], psi_w[i, j] = phi_k, psi_k
        out.append(summed(dphi_densities(fdata.with_map(phi_w, psi_w))))
    return np.stack(out)
