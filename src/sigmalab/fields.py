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

The gamma matrices act as one (sites * slots, 4) @ (4, 4) product per frame
direction, in the site-major layout above, and site_inner pairs two fields as
a sum of products of their component planes (_planes.pair), reading them in
place; an overflow in either raises under np.errstate (einsum would not report
it).  The action and the residuals hold psi component-major, (K, 4, n1, n2), and
convert the Dirac operator's result once (README, Layout).
"""

from __future__ import annotations

import numpy as np

from . import clifford as cl
from ._planes import pair
from .errors import ConstraintError
from .geometry import Grid, TargetManifold, grad, tangent_part_slots

__all__ = [
    "frame_violation",
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
    "site_inner",
    "q_norm2_field",
    "conformal_rescale",
]

TANGENCY_TOL = 1e-9


def _expand(u: np.ndarray, ndim: int) -> np.ndarray:
    """View u (n1, n2) broadcastable against a field with ndim axes."""
    return u.reshape(u.shape + (1,) * (ndim - 2))


# ---- constraints --------------------------------------------------------------


def frame_violation(psi: np.ndarray, nu: np.ndarray) -> float:
    """max over sites/slots of |sum_b psi^b nu_l^b| / (1 + |psi|) for the frame nu.

    einsum does not report overflow, so where |psi|^2 overflows the ratio is
    taken again on psi divided per site by a power of two s that brings its
    entries below 2, as |nu . psi/s| / (1/s + |psi/s|): scaling by a power of
    two is exact, and a psi too large to square still shows its normal part.
    """
    norm2 = np.einsum("...bc,...bc->...", psi, psi)
    if not float(np.max(norm2)) < np.inf:
        big = np.maximum(np.max(psi, axis=(-2, -1)), -np.min(psi, axis=(-2, -1)))
        s = np.ldexp(1.0, np.maximum(np.frexp(big)[1] - 1, 0))
        psi = psi / s[..., None, None]
        scale = 1.0 / s + np.sqrt(np.einsum("...bc,...bc->...", psi, psi))
    else:
        scale = 1.0 + np.sqrt(norm2)
    coeff = np.einsum("...lb,...bc->...lc", nu, psi)
    return float(np.max(np.abs(coeff) / scale[..., None, None]))


def tangency_violation(psi: np.ndarray, phi: np.ndarray, target: TargetManifold) -> float:
    """The violation require_tangent checks, on the normal frame of phi."""
    return frame_violation(psi, target.normal_frame(phi))


def require_tangent(psi: np.ndarray, nu: np.ndarray):
    """ConstraintError unless psi is tangent along the normal frame nu (..., L, K);
    a NaN in psi makes the violation NaN, which fails too."""
    v = frame_violation(psi, nu)
    if not v <= TANGENCY_TOL:
        raise ConstraintError(f"vector-spinor not tangent along phi: violation {v:.3e} "
                              f"> {TANGENCY_TOL:.1e}")


def tangency_project(psi: np.ndarray, phi: np.ndarray, target: TargetManifold) -> np.ndarray:
    """Remove the normal components nu_l(phi) of every spinor slot; idempotent.

    geometry.tangent_part_slots on the frame of phi; callers holding the
    TargetData of phi pass its nu to that instead of computing the frame again.
    """
    return tangent_part_slots(target.normal_frame(phi), psi)


# ---- Dirac operators ----------------------------------------------------------


def _clifford_derivative(gammas: np.ndarray, s: np.ndarray, grid: Grid) -> np.ndarray:
    """sum_a gammas[a] d^h_a s: one (sites * slots, m) @ (m, m) product per direction a."""
    ds = grad(s, grid).reshape(2, -1, s.shape[-1])
    out = ds[0] @ gammas[0].T
    out += np.matmul(ds[1], gammas[1].T, out=ds[0])   # ds[0] is spent; reuse it
    return out.reshape(s.shape)


def dirac_flat(s: np.ndarray, grid: Grid) -> np.ndarray:
    """Flat operator gamma(e_a) d^h_a on (n1, n2, ..., 4) spinor fields."""
    return _clifford_derivative(cl.GAMMA, s, grid)


def dirac_flat_sigma(s: np.ndarray, grid: Grid) -> np.ndarray:
    """Positive-signature counterpart on rank-2 spinors (n1, n2, ..., 2).

    Built from the symmetric gamma_plus matrices, it is exactly antisymmetric
    under the grid sum, so its Dirac action vanishes identically.
    """
    return _clifford_derivative(cl.GAMMA_PLUS, s, grid)


def dirac_conformal(s: np.ndarray, u: np.ndarray, grid: Grid) -> np.ndarray:
    """e^{-3u/2} D_flat(e^{u/2} s); reduces to dirac_flat at u = 0."""
    w = _expand(u, s.ndim)
    # site-major whatever the memory order of s, so that D_flat's differences read it contiguously
    scaled = np.multiply(np.exp(0.5 * w), s, out=np.empty(s.shape))
    return np.exp(-1.5 * w) * dirac_flat(scaled, grid)


def dirac_conformal_adjoint(s: np.ndarray, u: np.ndarray, grid: Grid) -> np.ndarray:
    """Exact adjoint of dirac_conformal for the sum <s, t> e^{3u} h1 h2."""
    w = _expand(u, s.ndim)
    scaled = np.multiply(np.exp(1.5 * w), s, out=np.empty(s.shape))  # site-major, as above
    return np.exp(-2.5 * w) * dirac_flat(scaled, grid)


def dirac_conformal_sym(s: np.ndarray, u: np.ndarray, grid: Grid,
                        forward: np.ndarray | None = None) -> np.ndarray:
    """Symmetrization of dirac_conformal w.r.t. the e^{3u}-weighted pairing.

    This is the exact variational operator of the Dirac term of the action;
    it coincides with dirac_conformal at u = 0.  forward, when given, is
    dirac_conformal(s, u, grid), already computed by the caller.
    """
    if forward is None:
        forward = dirac_conformal(s, u, grid)
    out = dirac_conformal_adjoint(s, u, grid)
    out += forward
    out *= 0.5
    return out


def twisted_dirac(psi: np.ndarray, phi: np.ndarray, u: np.ndarray, grid: Grid,
                  target: TargetManifold) -> np.ndarray:
    """Dirac operator twisted by the pullback of TN, in the extrinsic picture.

    The conformal operator on each of the K spinor slots followed by the
    tangential part along phi, so the output satisfies the tangency
    constraint.  psi is checked tangent against the same normal frame of phi.
    """
    nu = target.normal_frame(phi)
    require_tangent(psi, nu)
    return tangent_part_slots(nu, dirac_conformal(psi, u, grid))


# ---- pointwise projectors and rescalings ---------------------------------------


def field_p_project(chi: np.ndarray) -> np.ndarray:
    """Site-wise spin-1/2 projector on a gravitino field."""
    return cl.p_project(chi)


def field_q_project(chi: np.ndarray) -> np.ndarray:
    """Site-wise spin-3/2 projector on a gravitino field."""
    return cl.q_project(chi)


def site_inner(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Per-site Euclidean pairing of two (n1, n2, ...) fields over all their component axes."""
    return pair(np.moveaxis(f, (0, 1), (-2, -1)), np.moveaxis(g, (0, 1), (-2, -1)), f.ndim - 2)


def q_norm2_field(chi: np.ndarray) -> np.ndarray:
    """|Q chi|^2 per site, evaluated as <chi, Q chi> (orthogonal projector)."""
    return site_inner(chi, cl.q_project(chi))


def conformal_rescale(psi: np.ndarray, chi: np.ndarray, u: np.ndarray):
    """Companion field rescaling of the conformal change delta -> e^{2u} delta.

    psi -> e^{-u} psi slot-wise.  The gravitino scales as a section by
    e^{-2u}; since the stored components are frame components and the frame
    itself rescales by e^{-u}, the stored array scales by e^{-u}.
    """
    wp = np.exp(-u)[..., None, None]
    return wp * psi, wp * chi
