"""Grid-wide fields, their constraints, and the flat/conformal/twisted Dirac operators.

Array layouts (sites always lead, row-major (n1, n2)):

* map field phi            -- (n1, n2, K), every site on the target N
* vector-spinor field psi  -- (n1, n2, K, 4), tangent along phi:
                              sum_b psi[..., b, c] nu_l^b(phi) = 0 per slot c
* gravitino field chi      -- (n1, n2, 2, 4), unconstrained; the two leading
                              slots are frame components w.r.t. the orthonormal
                              frame e_a = e^{-u} d/dx^a of the current metric
* conformal factor u       -- (n1, n2), u = 0 is the flat metric

The flat Dirac operator is gamma(e1) d1 + gamma(e2) d2 with centered
differences; since the gamma matrices are skew and the stencil antisymmetric
it is exactly symmetric under the plain grid sum.  The conformal operator is
the conjugation

    D_u s = e^{-3u/2} D_flat(e^{u/2} s),

symmetric under the e^{2u}-weighted sum; the action pairs it with the weight
e^{3u} (spinor-metric rescale e^{u} times volume e^{2u}), and the exact
adjoint / symmetrization with respect to that pairing are provided for the
variational residuals.

The twisted operator on psi is the tangential part of D_u: the conformal
operator applied slot-wise, then with the normal components along phi
removed.  In the extrinsic picture the twisting term A(d phi, psi) is normal
to N, so taking the tangential part removes it and it is never formed.
"""

from __future__ import annotations

import numpy as np

from . import clifford as cl
from .errors import ConstraintError
from .geometry import Grid, TargetManifold, grad

__all__ = [
    "tangency_violation",
    "require_tangent",
    "tangency_project",
    "dirac_flat",
    "dirac_flat_sigma",
    "dirac_conformal",
    "dirac_conformal_adjoint",
    "dirac_conformal_sym",
    "twisted_dirac",
    "field_p_project",
    "field_q_project",
    "q_norm2_field",
    "conformal_rescale",
]

TANGENCY_TOL = 1e-9


def _expand(u: np.ndarray, ndim: int) -> np.ndarray:
    """View u (n1, n2) broadcastable against a field with ndim axes."""
    return u.reshape(u.shape + (1,) * (ndim - 2))


# ---- constraints --------------------------------------------------------------


def tangency_violation(psi: np.ndarray, phi: np.ndarray, target: TargetManifold) -> float:
    """max over sites/slots of |sum_b psi^b nu_l^b| / (1 + |psi|)."""
    nu = target.normal_frame(phi)
    coeff = np.einsum("...lb,...bc->...lc", nu, psi)
    scale = 1.0 + np.sqrt(np.einsum("...bc,...bc->...", psi, psi))
    return float(np.max(np.abs(coeff) / scale[..., None, None]))


def require_tangent(psi, phi, target, tol: float = TANGENCY_TOL):
    v = tangency_violation(psi, phi, target)
    if v > tol:
        raise ConstraintError(f"vector-spinor not tangent along phi: violation {v:.3e} > {tol:.1e}")


def tangency_project(psi: np.ndarray, phi: np.ndarray, target: TargetManifold) -> np.ndarray:
    """Remove the normal components nu_l(phi) of every spinor slot; idempotent.

    Its own einsum pair rather than TargetManifold.tangent_project on swapped
    axes, so that the result keeps psi's contiguous layout.
    """
    nu = target.normal_frame(phi)
    coeff = np.einsum("...lb,...bc->...lc", nu, psi)
    return psi - np.einsum("...lc,...lb->...bc", coeff, nu)


# ---- Dirac operators ----------------------------------------------------------


def dirac_flat(s: np.ndarray, grid: Grid) -> np.ndarray:
    """Flat operator gamma(e_a) d^h_a on (n1, n2, ..., 4) spinor fields."""
    ds = grad(s, grid)
    return np.einsum("aij,a...j->...i", cl.GAMMA, ds)


def dirac_flat_sigma(s: np.ndarray, grid: Grid) -> np.ndarray:
    """Positive-signature counterpart on rank-2 spinors (n1, n2, ..., 2).

    Built from the symmetric gamma_plus matrices, it is exactly antisymmetric
    under the grid sum, so its Dirac action vanishes identically.
    """
    ds = grad(s, grid)
    return np.einsum("aij,a...j->...i", cl.GAMMA_PLUS, ds)


def dirac_conformal(s: np.ndarray, u: np.ndarray, grid: Grid) -> np.ndarray:
    """e^{-3u/2} D_flat(e^{u/2} s); reduces to dirac_flat at u = 0."""
    w = _expand(u, s.ndim)
    return np.exp(-1.5 * w) * dirac_flat(np.exp(0.5 * w) * s, grid)


def dirac_conformal_adjoint(s: np.ndarray, u: np.ndarray, grid: Grid) -> np.ndarray:
    """Exact adjoint of dirac_conformal for the sum <s, t> e^{3u} h1 h2."""
    w = _expand(u, s.ndim)
    return np.exp(-2.5 * w) * dirac_flat(np.exp(1.5 * w) * s, grid)


def dirac_conformal_sym(s: np.ndarray, u: np.ndarray, grid: Grid) -> np.ndarray:
    """Symmetrization of dirac_conformal w.r.t. the e^{3u}-weighted pairing.

    This is the exact variational operator of the Dirac term of the action;
    it coincides with dirac_conformal at u = 0.
    """
    return 0.5 * (dirac_conformal(s, u, grid) + dirac_conformal_adjoint(s, u, grid))


def twisted_dirac(psi: np.ndarray, phi: np.ndarray, u: np.ndarray, grid: Grid,
                  target: TargetManifold, check: bool = True) -> np.ndarray:
    """Dirac operator twisted by the pullback of TN, in the extrinsic picture.

    The conformal operator on each of the K spinor slots followed by
    tangency_project along phi, so the output satisfies the tangency
    constraint.
    """
    if check:
        require_tangent(psi, phi, target)
    return tangency_project(dirac_conformal(psi, u, grid), phi, target)


# ---- pointwise projectors and rescalings ---------------------------------------


def field_p_project(chi: np.ndarray) -> np.ndarray:
    """Site-wise spin-1/2 projector on a gravitino field."""
    return cl.p_project(chi)


def field_q_project(chi: np.ndarray) -> np.ndarray:
    """Site-wise spin-3/2 projector on a gravitino field."""
    return cl.q_project(chi)


def q_norm2_field(chi: np.ndarray) -> np.ndarray:
    """|Q chi|^2 per site, evaluated as <chi, Q chi> (orthogonal projector)."""
    return np.einsum("...ai,...ai->...", chi, cl.q_project(chi))


def conformal_rescale(psi: np.ndarray, chi: np.ndarray, u: np.ndarray):
    """Companion field rescaling of the conformal change delta -> e^{2u} delta.

    psi -> e^{-u} psi slot-wise.  The gravitino scales as a section by
    e^{-2u}; since the stored components are frame components and the frame
    itself rescales by e^{-u}, the stored array scales by e^{-u}.
    """
    wp = np.exp(-u)[..., None, None]
    return wp * psi, wp * chi
