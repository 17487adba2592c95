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

The Dirac operators have one kernel, clifford_planes, on component-major spinor
planes (..., 4, n1, n2), the site axes last (_planes): each row of a gamma
matrix has one entry +-1, so gamma(e1) d1 s + gamma(e2) d2 s is, per spinor
component, a sum or difference of two planes of grad_planes(s), with the bits
of a batched @.  The action and the residuals hold psi component-major,
(K, 4, n1, n2), and take D_u, its symmetrization and gamma psi on planes
(dirac_planes, dirac_sym_planes, gamma_planes), with D_u's weights e^{k u}
(dirac_weights) built once for the fixed u and handed in.  dirac_flat,
dirac_flat_sigma, dirac_conformal, dirac_conformal_adjoint, dirac_conformal_sym
and twisted_dirac keep the site-major layouts above: they convert to planes and
return site-major views.  site_inner pairs two fields as a sum of products of
their component planes (_planes.contract), reading them in place; an overflow
raises under np.errstate (einsum would not report it).
"""

from __future__ import annotations

import numpy as np

from . import clifford as cl
from ._planes import contract, to_planes, to_sites
from .errors import ConstraintError
from .geometry import Grid, TargetManifold, grad_planes, require_on_manifold, tangent_part_slots

__all__ = [
    "frame_violation",
    "require_tangent",
    "tangency_project",
    "dirac_flat",
    "dirac_flat_sigma",
    "dirac_conformal",
    "dirac_conformal_adjoint",
    "dirac_conformal_sym",
    "twisted_dirac",
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

    einsum does not report overflow, so the ratio is taken on psi divided per
    site by the power of two s that brings its entries below 2 (s = 1 where they
    are), as |nu . psi/s| / (1/s + |psi/s|): scaling by a power of two is exact,
    and a psi too large to square still shows its normal part.
    """
    big = np.maximum(np.max(psi, axis=(-2, -1)), -np.min(psi, axis=(-2, -1)))
    s = np.ldexp(1.0, np.maximum(np.frexp(big)[1] - 1, 0))
    psi = psi / s[..., None, None]
    scale = 1.0 / s + np.sqrt(np.einsum("...bc,...bc->...", psi, psi))
    coeff = np.einsum("...lb,...bc->...lc", nu, psi)
    return float(np.max(np.abs(coeff) / scale[..., None, None]))


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


def _signed_entries(gammas: np.ndarray) -> list:
    """[(j0, s0 > 0, j1, s1 > 0) per row i]: row i of gammas[a] is s_a = +-1 at column j_a
    and 0 elsewhere, as in every gamma matrix of clifford."""
    entries = []
    for row0, row1 in zip(gammas[0], gammas[1]):
        (j0,), (j1,) = np.flatnonzero(row0), np.flatnonzero(row1)
        if not abs(row0[j0]) == abs(row1[j1]) == 1.0:
            raise ValueError("each row of a gamma matrix must have one entry +-1")
        entries.append((int(j0), row0[j0] > 0, int(j1), row1[j1] > 0))
    return entries


_ENTRIES = {id(g): _signed_entries(g) for g in (cl.GAMMA, cl.GAMMA_PLUS)}


def clifford_planes(gammas: np.ndarray, d: np.ndarray) -> np.ndarray:
    """sum_a gammas[a] d[a] for the centered differences d = grad_planes(s) (2, ..., m, n1, n2)
    of a component-major spinor field s, sites last: the flat Dirac operator's one kernel.

    Row i of gammas[a] has one entry +-1, so component i of the result is a sum or a
    difference of two planes of d.  That is exact, so the result has the bits of the
    batched (sites * slots, m) @ (m, m) product, zeros included: a row whose entries are
    both -1 is taken as (0 - a) - b, which is +0, like @, where a and b are +0.
    """
    out = np.empty(d.shape[1:])
    for i, (j0, pos0, j1, pos1) in enumerate(_ENTRIES.get(id(gammas)) or _signed_entries(gammas)):
        a, b, o = d[0, ..., j0, :, :], d[1, ..., j1, :, :], out[..., i, :, :]
        if pos0:
            (np.add if pos1 else np.subtract)(a, b, out=o)
        elif pos1:
            np.subtract(b, a, out=o)
        else:
            np.subtract(0.0, a, out=o)
            o -= b
    return out


def gamma_planes(s_c: np.ndarray) -> np.ndarray:
    """gamma_a s for a = 0, 1 on component-major spinor planes s_c (..., 4, n1, n2):
    (2,) + s_c.shape, each component one plane of s, or 0 - that plane, so with the bits
    of the batched gamma_a @ s."""
    out = np.empty((2,) + s_c.shape)
    for i, (j0, pos0, j1, pos1) in enumerate(_ENTRIES[id(cl.GAMMA)]):
        for a, j, pos in ((0, j0, pos0), (1, j1, pos1)):
            if pos:
                out[a, ..., i, :, :] = s_c[..., j, :, :]
            else:
                np.subtract(0.0, s_c[..., j, :, :], out=out[a, ..., i, :, :])
    return out


def dirac_weights(u: np.ndarray) -> np.ndarray:
    """D_u's four conformal weights e^{k u}, k = 1/2, -3/2, 3/2, -5/2, stacked (4, n1, n2):
    D_u = e^{-3u/2} D_flat e^{u/2} and its adjoint e^{-5u/2} D_flat e^{3u/2}."""
    return np.exp(np.multiply.outer(_DIRAC_EXPONENTS, u))


_DIRAC_EXPONENTS = np.array([0.5, -1.5, 1.5, -2.5])


def _conjugated(s_c: np.ndarray, w_in: np.ndarray, w_out: np.ndarray, grid: Grid) -> np.ndarray:
    """w_out D_flat(w_in s) on planes; w_in s is freed before the result is allocated."""
    out = clifford_planes(cl.GAMMA, grad_planes(w_in * s_c, grid))
    out *= w_out
    return out


def dirac_planes(s_c: np.ndarray, weights: np.ndarray, grid: Grid) -> np.ndarray:
    """D_u s = e^{-3u/2} D_flat(e^{u/2} s) on component-major spinor planes s_c
    (..., 4, n1, n2), with weights = dirac_weights(u); dirac_conformal's bits."""
    return _conjugated(s_c, weights[0], weights[1], grid)


def dirac_sym_planes(s_c: np.ndarray, weights: np.ndarray, grid: Grid,
                     forward: np.ndarray) -> np.ndarray:
    """(D_u + D_u^*) s / 2 on planes, the adjoint e^{-5u/2} D_flat(e^{3u/2} s) taken here,
    with forward = dirac_planes(s_c, weights, grid); dirac_conformal_sym's bits."""
    out = _conjugated(s_c, weights[2], weights[3], grid)
    out += forward
    out *= 0.5
    return out


def _clifford_derivative(gammas: np.ndarray, s: np.ndarray, grid: Grid) -> np.ndarray:
    """clifford_planes on a site-major field (n1, n2, ..., m), returned as a site-major view."""
    k = s.ndim - 2
    return to_sites(clifford_planes(gammas, grad_planes(to_planes(s, k), grid)), k)


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
    # written C-contiguous whatever the memory order of s, so that a component-major s gives
    # its copy's bits
    scaled = np.multiply(np.exp(0.5 * w), s, out=np.empty(s.shape))
    out = dirac_flat(scaled, grid)
    out *= np.exp(-1.5 * w)
    return out


def dirac_conformal_adjoint(s: np.ndarray, u: np.ndarray, grid: Grid) -> np.ndarray:
    """Exact adjoint of dirac_conformal for the sum <s, t> e^{3u} h1 h2."""
    w = _expand(u, s.ndim)
    scaled = np.multiply(np.exp(1.5 * w), s, out=np.empty(s.shape))  # site-major, as above
    out = dirac_flat(scaled, grid)
    out *= np.exp(-2.5 * w)
    return out


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
    constraint.
    """
    require_on_manifold(target, phi)
    nu = target.normal_frame(phi)
    require_tangent(psi, nu)
    return tangent_part_slots(nu, dirac_conformal(psi, u, grid))


# ---- pointwise projectors and rescalings ---------------------------------------


def site_inner(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Per-site Euclidean pairing of two (n1, n2, ...) fields over all their component axes."""
    return contract(np.moveaxis(f, (0, 1), (-2, -1)), np.moveaxis(g, (0, 1), (-2, -1)),
                    axes=f.ndim - 2)


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
