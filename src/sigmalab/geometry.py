"""Discrete domain and embedded target geometry.

The domain is the flat torus [0,1)^2 sampled on a periodic n1 x n2 grid with
spacings h_a = 1/n_a; a conformal metric e^{2u}(dx^2 + dy^2) is carried as a
scalar field u elsewhere in the package.  First derivatives are centered
differences, so grad and -div are exact adjoints under the plain grid sum.

Embedded targets are described extrinsically: a retraction onto N, an
orthonormal normal frame nu_l with its ambient derivative, and the curvature
data derived from them,

    A(X, Y)    = -sum_l X^a Y^b (d nu_l^b / d u^a) nu_l        (normal valued)
    P(xi; Z)   = -sum_l <xi, nu_l> Pi(Z^a d nu_l / d u^a)      (shape operator)
    R(X, Y) Z  = P(A(Y, Z); X) - P(A(X, Z); Y)                 (Gauss equation)

Derivative tensors use the index order dnu[..., l, a, b] = d nu_l^b / d u^a.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConstraintError

__all__ = [
    "Grid",
    "shift",
    "grad",
    "div",
    "laplacian",
    "wide_laplacian",
    "TargetManifold",
    "SphereTarget",
    "ImplicitSurfaceTarget",
    "ellipsoid_target",
    "on_manifold_violation",
    "require_on_manifold",
    "tangent_basis",
    "second_fund_form",
    "shape_operator",
    "curvature_operator",
    "nabla_A",
]

ON_MANIFOLD_TOL = 1e-9
FRAME_FD_STEP = 1e-5  # relative step of the finite-difference normal-frame derivative
PROJECT_TOL = 1e-14   # |F| at which the level-set retraction stops


@dataclass(frozen=True)
class Grid:
    """Periodic grid on the unit torus; indices wrap modulo (n1, n2)."""

    n1: int
    n2: int

    def __post_init__(self):
        if self.n1 < 4 or self.n2 < 4:
            raise ValueError(f"grid must be at least 4x4, got {self.n1}x{self.n2}")

    @property
    def h1(self) -> float:
        return 1.0 / self.n1

    @property
    def h2(self) -> float:
        return 1.0 / self.n2

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n1, self.n2)

    @property
    def cell_area(self) -> float:
        return self.h1 * self.h2

    def coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Site coordinates (X, Y), each shaped (n1, n2)."""
        x = np.arange(self.n1) * self.h1
        y = np.arange(self.n2) * self.h2
        return np.meshgrid(x, y, indexing="ij")


def shift(f: np.ndarray, axis: int, by: int) -> np.ndarray:
    """Periodic shift: result at site i equals f at site i + by along axis."""
    return np.roll(f, -by, axis=axis)


def grad(field: np.ndarray, grid: Grid) -> np.ndarray:
    """Centered first derivatives, stacked on a new leading axis of length 2.

    Works for any field shaped (n1, n2, ...); the component axes ride along.
    """
    out = np.empty((2,) + field.shape, dtype=field.dtype)
    out[0] = (shift(field, 0, +1) - shift(field, 0, -1)) / (2.0 * grid.h1)
    out[1] = (shift(field, 1, +1) - shift(field, 1, -1)) / (2.0 * grid.h2)
    return out


def div(vec: np.ndarray, grid: Grid) -> np.ndarray:
    """Centered divergence of a (2, n1, n2, ...) field; adjoint of -grad."""
    d0 = (shift(vec[0], 0, +1) - shift(vec[0], 0, -1)) / (2.0 * grid.h1)
    d1 = (shift(vec[1], 1, +1) - shift(vec[1], 1, -1)) / (2.0 * grid.h2)
    return d0 + d1


def laplacian(field: np.ndarray, grid: Grid) -> np.ndarray:
    """Compact 5-point Laplacian (anisotropic for rectangular cells)."""
    out = (shift(field, 0, +1) - 2.0 * field + shift(field, 0, -1)) / grid.h1**2
    out += (shift(field, 1, +1) - 2.0 * field + shift(field, 1, -1)) / grid.h2**2
    return out


def wide_laplacian(field: np.ndarray, grid: Grid) -> np.ndarray:
    """div(grad(field)): the wide 5-point stencil with spacing 2h.

    This is the exact gradient stencil of the discrete Dirichlet energy built
    from centered first differences.
    """
    return div(grad(field, grid), grid)


def _frame_norm(v: np.ndarray, where: str) -> np.ndarray:
    """|v| along the last axis (kept); ConstraintError where it is 0."""
    norm = np.linalg.norm(v, axis=-1, keepdims=True)
    if np.any(norm == 0.0):
        raise ConstraintError(f"the normal frame is undefined {where}")
    return norm


class TargetManifold:
    """Extrinsic descriptor of an embedded target N in R^K.

    Subclasses provide project / normal_frame / normal_frame_derivative;
    everything else is derived.  All methods broadcast over leading axes of
    the point array p (..., K).
    """

    ambient_dim: int
    codim: int
    # True when (nabla A) vanishes identically (round spheres)
    parallel_second_fund: bool = False

    def project(self, p: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def normal_frame(self, p: np.ndarray) -> np.ndarray:
        """Orthonormal normal frame, shaped (..., codim, K)."""
        raise NotImplementedError

    def normal_frame_derivative(self, p: np.ndarray) -> np.ndarray:
        """dnu[..., l, a, b] = d nu_l^b / d u^a of the extended frame."""
        raise NotImplementedError

    # ---- derived quantities -------------------------------------------------

    def tangent_projector(self, p: np.ndarray) -> np.ndarray:
        nu = self.normal_frame(p)
        eye = np.eye(self.ambient_dim)
        return eye - np.einsum("...la,...lb->...ab", nu, nu)

    def tangent_project(self, p: np.ndarray, w: np.ndarray) -> np.ndarray:
        nu = self.normal_frame(p)
        coeff = np.einsum("...lb,...b->...l", nu, w)
        return w - np.einsum("...l,...la->...a", coeff, nu)

    def nabla_a_tensor(self, p: np.ndarray) -> np.ndarray:
        """nablaA[..., e, a, b, l] = <(nabla_{Pi e_e} A)(Pi e_a, Pi e_b), nu_l(p)>."""
        K = self.ambient_dim
        if self.parallel_second_fund:
            return np.zeros(p.shape[:-1] + (K, K, K, self.codim))
        pi = self.tangent_projector(p)
        return np.stack([_nabla_a_fd(self, p, pi, pi[..., :, e], None) for e in range(K)],
                        axis=-4)


class SphereTarget(TargetManifold):
    """Round sphere of given radius in R^K, with closed-form extrinsic data."""

    parallel_second_fund = True

    def __init__(self, ambient_dim: int = 3, radius: float = 1.0):
        if ambient_dim < 2:
            raise ValueError("sphere target needs ambient dimension >= 2")
        if not (radius > 0.0 and np.isfinite(radius)):
            raise ValueError(f"sphere radius must be positive and finite, got {radius}")
        self.ambient_dim = ambient_dim
        self.codim = 1
        self.radius = float(radius)

    def project(self, p: np.ndarray) -> np.ndarray:
        norm = np.linalg.norm(p, axis=-1, keepdims=True)
        if np.any(norm == 0.0):
            raise ConstraintError("cannot project the origin onto the sphere")
        return self.radius * p / norm

    def normal_frame(self, p: np.ndarray) -> np.ndarray:
        return (p / _frame_norm(p, "at the origin"))[..., None, :]

    def normal_frame_derivative(self, p: np.ndarray) -> np.ndarray:
        norm = _frame_norm(p, "at the origin")
        ph = p / norm
        eye = np.eye(self.ambient_dim)
        dnu = (eye - ph[..., :, None] * ph[..., None, :]) / norm[..., None]
        return dnu[..., None, :, :]


class ImplicitSurfaceTarget(TargetManifold):
    """Codimension-1 target given as a level set F = 0 with d F != 0 on it.

    The retraction is a Newton iteration along grad F (agrees with the
    nearest-point projection to second order and fixes points of N).  The
    normal frame is grad F normalized; its derivative is analytic when a
    Hessian is supplied, otherwise a centered difference with relative step
    FRAME_FD_STEP.  nabla_A is always a transport finite difference.
    """

    def __init__(
        self,
        value: Callable[[np.ndarray], np.ndarray],
        gradient: Callable[[np.ndarray], np.ndarray],
        ambient_dim: int,
        hessian: Callable[[np.ndarray], np.ndarray] | None = None,
    ):
        self.value = value
        self.gradient = gradient
        self.hessian = hessian
        self.ambient_dim = ambient_dim
        self.codim = 1
        self.mode = "analytic-frame" if hessian is not None else "finite-difference"

    def project(self, p: np.ndarray) -> np.ndarray:
        q = np.array(p, dtype=np.float64)
        for _ in range(60):
            f = np.asarray(self.value(q))
            if np.max(np.abs(f)) < PROJECT_TOL:
                return q
            g = self.gradient(q)
            g2 = np.einsum("...a,...a->...", g, g)
            if np.any(g2 == 0.0):
                raise ConstraintError("cannot project a critical point of F onto the level set")
            q = q - (f / g2)[..., None] * g
        f = np.max(np.abs(self.value(q)))
        if not f < PROJECT_TOL:
            raise ConstraintError(f"level-set projection did not converge: max |F| = {f:.3e} "
                                  f"after 60 Newton steps")
        return q

    def normal_frame(self, p: np.ndarray) -> np.ndarray:
        g = self.gradient(p)
        return (g / _frame_norm(g, "where grad F = 0"))[..., None, :]

    def normal_frame_derivative(self, p: np.ndarray) -> np.ndarray:
        K = self.ambient_dim
        g = self.gradient(p)
        norm = _frame_norm(g, "where grad F = 0")
        if self.hessian is not None:
            # nu = g/|g| with g = grad F:  d_a nu^b = H_ab/|g| - g_b (Hg)_a / |g|^3
            h = self.hessian(p)
            hg = np.einsum("...ab,...b->...a", h, g)
            dnu = h / norm[..., None] - (
                np.einsum("...a,...b->...ab", hg, g) / norm[..., None] ** 3
            )
            return dnu[..., None, :, :]
        eps = FRAME_FD_STEP * (1.0 + np.linalg.norm(p, axis=-1, keepdims=True))
        dnu = np.zeros(p.shape[:-1] + (K, K))
        for a in range(K):
            dp = np.zeros_like(p)
            dp[..., a] = eps[..., 0]
            nup = self.normal_frame(p + dp)[..., 0, :]
            num = self.normal_frame(p - dp)[..., 0, :]
            dnu[..., a, :] = (nup - num) / (2.0 * eps)
        return dnu[..., None, :, :]


def ellipsoid_target(semi_axes) -> ImplicitSurfaceTarget:
    """Ellipsoid sum (x_a / r_a)^2 = 1 with analytic frame derivatives."""
    r = np.asarray(semi_axes, dtype=np.float64)
    if r.ndim != 1 or r.size < 2 or not np.all((r > 0.0) & np.isfinite(r)):
        raise ValueError(f"ellipsoid needs >= 2 positive finite semi-axes, got {semi_axes}")
    w = 1.0 / r**2

    def value(p):
        return np.einsum("...a,a,...a->...", p, w, p) - 1.0

    def gradient(p):
        return 2.0 * w * p

    def hessian(p):
        h = np.diag(2.0 * w)
        return np.broadcast_to(h, p.shape[:-1] + h.shape)

    return ImplicitSurfaceTarget(value, gradient, ambient_dim=len(r), hessian=hessian)


# ---- module-level operations (spec surface) ----------------------------------


def on_manifold_violation(target: TargetManifold, p: np.ndarray) -> float:
    """max |p - project(p)| / (1 + |p|) over all leading axes."""
    q = target.project(p)
    num = np.linalg.norm(p - q, axis=-1)
    den = 1.0 + np.linalg.norm(p, axis=-1)
    return float(np.max(num / den))


def require_on_manifold(target: TargetManifold, p: np.ndarray):
    v = on_manifold_violation(target, p)
    if v > ON_MANIFOLD_TOL:
        raise ConstraintError(f"point off the target manifold: violation {v:.3e} "
                              f"> {ON_MANIFOLD_TOL:.1e}")


def tangent_basis(target: TargetManifold, p: np.ndarray) -> np.ndarray:
    """Orthonormal tangent bases, shaped (..., dim_N, K) (rows are vectors)."""
    pi = target.tangent_projector(p)
    vals, vecs = np.linalg.eigh(pi)
    dim = target.ambient_dim - target.codim
    # eigenvalues ascend; tangent directions carry eigenvalue 1
    return np.swapaxes(vecs[..., -dim:], -1, -2)


def second_fund_form(target, p, X, Y) -> np.ndarray:
    """A(X, Y), a normal-space vector; symmetric and bilinear in (X, Y)."""
    require_on_manifold(target, p)
    dnu = target.normal_frame_derivative(p)
    nu = target.normal_frame(p)
    coeff = -np.einsum("...a,...b,...lab->...l", X, Y, dnu)
    return np.einsum("...l,...la->...a", coeff, nu)


def shape_operator(target, p, xi, Z) -> np.ndarray:
    """P(xi; Z) = -(d_Z nu-extension of xi)^tangent; dual to A."""
    require_on_manifold(target, p)
    dnu = target.normal_frame_derivative(p)
    nu = target.normal_frame(p)
    xi_l = np.einsum("...la,...a->...l", nu, xi)
    dz = np.einsum("...a,...lab->...lb", Z, dnu)
    raw = -np.einsum("...l,...lb->...b", xi_l, dz)
    return target.tangent_project(p, raw)


def curvature_operator(target, p, X, Y, Z) -> np.ndarray:
    """R(X, Y) Z = P(A(Y, Z); X) - P(A(X, Z); Y)  (Gauss equation)."""
    ayz = second_fund_form(target, p, Y, Z)
    axz = second_fund_form(target, p, X, Z)
    return shape_operator(target, p, ayz, X) - shape_operator(target, p, axz, Y)


def nabla_A(target, p, X, Y, Z, step: float | None = None) -> np.ndarray:
    """(nabla_Z A)(X, Y); identically zero for round spheres."""
    require_on_manifold(target, p)
    if target.parallel_second_fund:
        return np.zeros(np.broadcast(X, Y).shape)
    coeff = _nabla_a_fd(target, p, np.stack(np.broadcast_arrays(X, Y), axis=-1), Z, step)
    return np.einsum("...l,...la->...a", coeff[..., 0, 1, :], target.normal_frame(p))


def _nabla_a_fd(target, p, basis, z, step):
    """Transport finite difference for the covariant derivative of A.

    Returns coeff[..., a, b, l] = <(nabla_z A)(b_a, b_b), nu_l(p)> for the
    tangent columns b_a of basis (..., K, n).  The columns are reprojected onto
    the tangent spaces at p +- eps z (equal to parallel transport to first
    order), A is evaluated there, and the centered difference is read off in
    the normal frame at p.  The default step is eps = 1e-4 (1 + |p|).
    """
    eps = step if step is not None else 1e-4 * (1.0 + np.linalg.norm(p, axis=-1))
    eps = np.asarray(eps)[..., None]

    def a_at(q):
        bq = np.einsum("...ac,...cb->...ab", target.tangent_projector(q), basis)
        coeff = -np.einsum("...ca,...db,...lcd->...abl", bq, bq,
                           target.normal_frame_derivative(q))
        return np.einsum("...abl,...lv->...abv", coeff, target.normal_frame(q))

    diff = a_at(target.project(p + eps * z)) - a_at(target.project(p - eps * z))
    coeff = np.einsum("...lv,...abv->...abl", target.normal_frame(p), diff)
    return coeff / (2.0 * eps[..., None, None])
