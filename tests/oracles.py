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
* sr_of, the cubic contraction SR(psi) in the site-major layout of psi;
* clifford_derivative_matmul and gamma_matmul, the gamma matrices applied as
  batched @ products on the site-major and the component-major layout, which
  check the signed plane sums of fields.clifford_planes and fields.gamma_planes
  bit for bit.
"""

import numpy as np

from sigmalab._planes import to_sites
from sigmalab.action import FieldData, action_density, sr_planes, target_data
from sigmalab.clifford import GAMMA
from sigmalab.fields import tangency_project
from sigmalab.geometry import (TargetData, grad, require_on_manifold, tangent_basis,
                               tangent_part)


def sr_of(psi, phi, target, tdata: TargetData | None = None) -> np.ndarray:
    """Cubic curvature contraction SR(psi) = sum_l (c_l A_l - A_l M A_l) psi, tangent."""
    if tdata is None:
        tdata = target_data(target, phi)
    return to_sites(sr_planes(FieldData(phi, psi, tdata=tdata)), 2)


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
