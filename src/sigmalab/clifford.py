"""Pointwise algebra of the real rank-4 spinor module over Cl(0,2).

The two-dimensional frame acts through a fixed, frozen representation.  On the
rank-2 module ``Sigma`` the positive-signature Clifford generators are

    gamma_plus(e1) = [[1, 0], [0, -1]],      gamma_plus(e2) = [[0, 1], [1, 0]],

which satisfy gamma_plus(a) gamma_plus(b) + gamma_plus(b) gamma_plus(a) =
2 delta_ab and are symmetric.  The rank-4 module splits as an even/odd pair
``(s0, s1)`` of Sigma-spinors, and a tangent vector acts oddly:

    gamma(v) = [[0, -gamma_plus(v)], [gamma_plus(v), 0]],

so gamma(v)^2 = -|v|^2 and gamma(v) is skew with respect to the Euclidean
inner product of the four components.  ``J_SIGMA = gamma_plus(e1) gamma_plus(e2)``
is the complex structure on Sigma (left multiplication by the area element).

Array conventions (everything broadcasts over leading axes):

* spinor           -- shape (..., 4), components (s0_1, s0_2, s1_1, s1_2)
* tangent 2-vector -- shape (..., 2), coefficients in the orthonormal frame
* spinor-tangent   -- shape (..., 2, 4), the two frame slots of chi = chi^a ⊗ e_a

All functions are pure and total; there is no hidden state.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "GAMMA_PLUS",
    "GAMMA",
    "J_SIGMA",
    "VOLUME",
    "QUATERNION",
    "clifford_mul",
    "spinor_inner",
    "volume_mul",
    "quaternionic_structure",
    "gamma_contract",
    "sigma_lift",
    "p_project",
    "q_project",
]


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


GAMMA_PLUS = _frozen([[[1.0, 0.0], [0.0, -1.0]],
                      [[0.0, 1.0], [1.0, 0.0]]])

J_SIGMA = _frozen(GAMMA_PLUS[0] @ GAMMA_PLUS[1])

_G = np.zeros((2, 4, 4))
for _a in range(2):
    _G[_a, :2, 2:] = -GAMMA_PLUS[_a]
    _G[_a, 2:, :2] = GAMMA_PLUS[_a]
GAMMA = _frozen(_G)

VOLUME = _frozen(GAMMA[0] @ GAMMA[1])

# Quaternionic structures on (s0, s1):
#   I(s0, s1) = (-s1, s0)
#   J(s0, s1) = (J_SIGMA s0, -J_SIGMA s1)
#   K(s0, s1) = (J_SIGMA s1,  J_SIGMA s0)
_I = np.zeros((4, 4))
_I[:2, 2:] = -np.eye(2)
_I[2:, :2] = np.eye(2)
_J = np.zeros((4, 4))
_J[:2, :2] = J_SIGMA
_J[2:, 2:] = -J_SIGMA
_K = np.zeros((4, 4))
_K[:2, 2:] = J_SIGMA
_K[2:, :2] = J_SIGMA
QUATERNION = {"I": _frozen(_I), "J": _frozen(_J), "K": _frozen(_K)}

# P chi = -1/2 e_b . e_a . chi^a ⊗ e_b  and  Q chi = -1/2 e_a . e_b . chi^a ⊗ e_b,
# stored as (b, i, a, j) tensors acting on chi[..., a, j], and applied as one
# (sites, 8) @ (8, 8) product on the flattened (a, j) slots.
_PT = np.zeros((2, 4, 2, 4))
_QT = np.zeros((2, 4, 2, 4))
for _b in range(2):
    for _a in range(2):
        _PT[_b, :, _a, :] = -0.5 * GAMMA[_b] @ GAMMA[_a]
        _QT[_b, :, _a, :] = -0.5 * GAMMA[_a] @ GAMMA[_b]
_P_TENSOR = _frozen(_PT)
_Q_TENSOR = _frozen(_QT)


def _slot_map(tensor: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """out[..., b, i] = sum_{a, j} tensor[b, i, a, j] chi[..., a, j]."""
    return (chi.reshape(-1, 8) @ tensor.reshape(8, 8).T).reshape(chi.shape)


def clifford_mul(v: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Clifford action gamma(v) s of a tangent 2-vector on a spinor."""
    return np.einsum("aij,...a,...j->...i", GAMMA, v, s)


def spinor_inner(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Fiber metric: the Euclidean dot product of the four components."""
    return np.einsum("...i,...i->...", s, t)


def volume_mul(s: np.ndarray) -> np.ndarray:
    """Action of the volume element e1.e2; squares to -Id."""
    return np.einsum("ij,...j->...i", VOLUME, s)


def quaternionic_structure(which: str, s: np.ndarray) -> np.ndarray:
    """Apply one of the structures I, J, K; each commutes with clifford_mul."""
    return np.einsum("ij,...j->...i", QUATERNION[which], s)


def gamma_contract(chi: np.ndarray) -> np.ndarray:
    """gamma(chi) = e_a . chi^a, the surjection from spinor-tangents to spinors."""
    return np.einsum("aij,...aj->...i", GAMMA, chi)


def sigma_lift(s: np.ndarray) -> np.ndarray:
    """Canonical right inverse of gamma_contract: s -> -1/2 e_a . s ⊗ e_a."""
    return np.einsum("aij,...j->...ai", -0.5 * GAMMA, s)


def p_project(chi: np.ndarray) -> np.ndarray:
    """Projector onto the image of sigma_lift (the spin-1/2 part)."""
    return _slot_map(_P_TENSOR, chi)


def q_project(chi: np.ndarray) -> np.ndarray:
    """Projector onto ker(gamma_contract) (the spin-3/2 part); P + Q = Id."""
    return _slot_map(_Q_TENSOR, chi)
