"""Discrete domain and embedded target geometry.

The domain is the flat torus [0,1)^2 sampled on a periodic n1 x n2 grid with
spacings h_a = 1/n_a; a conformal metric e^{2u}(dx^2 + dy^2) is carried as a
scalar field u elsewhere in the package.  First derivatives are centered
differences, so grad and -div are exact adjoints under the plain grid sum.
grad and div take site-major fields (n1, n2, ...), and grad_planes and
div_planes the component-major ones of an evaluation (..., n1, n2), with the
same bits.

Embedded targets are described extrinsically: a retraction onto N, an
orthonormal normal frame nu_l with its ambient derivative, and the curvature
data derived from them,

    A(X, Y)    = -sum_l X^a Y^b (d nu_l^b / d u^a) nu_l        (normal valued)
    P(xi; Z)   = -sum_l <xi, nu_l> Pi(Z^a d nu_l / d u^a)      (shape operator)
    R(X, Y) Z  = P(A(Y, Z); X) - P(A(X, Z); Y)                 (Gauss equation)

Derivative tensors use the index order dnu[..., l, a, b] = d nu_l^b / d u^a,
in closed form for every target (level sets from the Hessian of F).  So is
nabla A (nabla_a_tensor): zero on round spheres, and on level sets built from
the Hessian and the third derivative D^3 F.  The package reads A through
TargetData and never forms P or R; tests/oracles.py evaluates A, P, R and a
transport finite difference of nabla A pointwise from these formulas, as
independent oracles.  Along phi one TargetData computes nu once; the
tangential parts along phi (tangent_part, tangent_part_slots), A, the
tangency check of psi, nabla A and the tangent bases all take it, not
(target, phi).  Pi is applied as the projection along nu, w - sum_l <nu_l, w>
nu_l; only the tangent bases, tangent_projector and euler_lagrange.potentials
read it as a matrix.
TargetData holds its parts component-major (sites last) and the tangential
parts are taken on component planes (_planes), so overflow raises under
np.errstate; their site-major results are views of component-major arrays.
The targets build dnu on component planes too and return its site-major view,
so TargetData converts it without a copy; their per-site norms (_checked_norm)
sum the squares plane by plane.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable

import numpy as np

from ._planes import contract, tangent, to_planes, to_sites
from .errors import ConstraintError

__all__ = [
    "Grid",
    "grad",
    "div",
    "grad_planes",
    "div_planes",
    "wide_laplacian_symbol",
    "tangent_part",
    "tangent_part_slots",
    "TargetData",
    "TargetManifold",
    "SphereTarget",
    "ImplicitSurfaceTarget",
    "ellipsoid_target",
    "on_manifold_violation",
    "require_on_manifold",
    "tangent_basis",
]

ON_MANIFOLD_TOL = 1e-9
PROJECT_TOL = 1e-14   # |F| at which the level-set retraction stops
MAX_GRID_SITES = 2**20  # about 2.3 GB for the joint flow at 2.2 KB per site


@dataclass(frozen=True)
class Grid:
    """Periodic grid on the unit torus; indices wrap modulo (n1, n2).

    At most MAX_GRID_SITES sites, so that no field array exhausts memory.
    """

    n1: int
    n2: int

    def __post_init__(self):
        if self.n1 < 4 or self.n2 < 4:
            raise ValueError(f"grid must be at least 4x4, got {self.n1}x{self.n2}")
        if self.n1 * self.n2 > MAX_GRID_SITES:
            raise ValueError(f"grid must have at most {MAX_GRID_SITES} sites, "
                             f"got {self.n1}x{self.n2}")

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


def _centered(f: np.ndarray, axis: int, h: float, out: np.ndarray) -> np.ndarray:
    """(f[i + 1] - f[i - 1]) / (2 h) along axis, periodic, written into out.

    Slices of f instead of shifted copies, so no temporary is allocated.
    """
    a, o = np.moveaxis(f, axis, 0), np.moveaxis(out, axis, 0)
    np.subtract(a[2:], a[:-2], out=o[1:-1])
    np.subtract(a[1], a[-1], out=o[0])
    np.subtract(a[0], a[-2], out=o[-1])
    out /= 2.0 * h
    return out


def grad(field: np.ndarray, grid: Grid) -> np.ndarray:
    """Centered first derivatives, stacked on a new leading axis of length 2.

    Works for any field shaped (n1, n2, ...); the component axes ride along.
    """
    out = np.empty((2,) + field.shape, dtype=field.dtype)
    _centered(field, 0, grid.h1, out[0])
    _centered(field, 1, grid.h2, out[1])
    return out


def div(vec: np.ndarray, grid: Grid) -> np.ndarray:
    """Centered divergence of a (2, n1, n2, ...) field; adjoint of -grad."""
    d0 = _centered(vec[0], 0, grid.h1, np.empty_like(vec[0]))
    d0 += _centered(vec[1], 1, grid.h2, np.empty_like(vec[1]))
    return d0


def _centered_planes(f: np.ndarray, axis: int, h: float, out: np.ndarray) -> np.ndarray:
    """_centered along the site axis 0 or 1 of component-major planes f (..., n1, n2), the
    site axes last, written into the C-contiguous out, with _centered's bits.

    The differences are one subtraction over the flattened planes, shifted by one step
    along axis (n2 sites for axis 0, one site for axis 1); then the rows (axis 0) or
    columns (axis 1) where that shift leaves its plane or its row are overwritten with
    their periodic differences, indexed directly as (..., k, :) or (..., k).  One long
    contiguous subtraction is several times faster than the same one over rows of a
    strided view.
    """
    s = f.shape[-1] if axis == 0 else 1
    a, o = f.reshape(-1), out.reshape(-1)
    np.subtract(a[2 * s:], a[:-2 * s], out=o[s:-s])
    cols = (slice(None),) if axis == 0 else ()
    np.subtract(f[(..., 1) + cols], f[(..., -1) + cols], out=out[(..., 0) + cols])
    np.subtract(f[(..., 0) + cols], f[(..., -2) + cols], out=out[(..., -1) + cols])
    out /= 2.0 * h
    return out


def grad_planes(field: np.ndarray, grid: Grid) -> np.ndarray:
    """grad of a component-major field (..., n1, n2), its site axes last: (2, ..., n1, n2),
    C-contiguous, with grad's bits."""
    out = np.empty((2,) + field.shape, dtype=field.dtype)
    _centered_planes(field, 0, grid.h1, out[0])
    _centered_planes(field, 1, grid.h2, out[1])
    return out


def div_planes(vec: np.ndarray, grid: Grid) -> np.ndarray:
    """div of a component-major (2, ..., n1, n2) field, its site axes last, with div's bits."""
    d0 = _centered_planes(vec[0], 0, grid.h1, np.empty(vec.shape[1:]))
    d0 += _centered_planes(vec[1], 1, grid.h2, np.empty(vec.shape[1:]))
    return d0


@cache
def wide_laplacian_symbol(grid: Grid) -> np.ndarray:
    """-div grad, the wide 5-point stencil with spacing 2h, in the rfft2 basis of the
    grid axes, shaped (n1, n2 // 2 + 1); built once per grid and read-only.

    sum_a sin^2(theta_a) / h_a^2 with theta_a = 2 pi fftfreq(n_a): each centered
    difference has the symbol i sin(theta_a) / h_a.  It vanishes on the null
    modes of the wide stencil, the constant and (on even axes) the checkerboard.
    """
    s1 = np.sin(2.0 * np.pi * np.fft.fftfreq(grid.n1)) ** 2 / grid.h1**2
    s2 = np.sin(2.0 * np.pi * np.fft.rfftfreq(grid.n2)) ** 2 / grid.h2**2
    symbol = s1[:, None] + s2[None, :]
    symbol.flags.writeable = False
    return symbol


def _checked_norm(v: np.ndarray, message: str) -> np.ndarray:
    """|v| along the last axis (kept); ConstraintError where it is 0 or not finite.

    v is (..., K) with K >= 2, a single point (K,) included.  The squares are summed
    plane by plane from the left, one ufunc call per component, so overflow raises
    under np.errstate.  NumPy sums an axis shorter than 8 from the left as well, so
    for K <= 7 this is bit for bit np.linalg.norm(v, axis=-1, keepdims=True).
    """
    sq = np.multiply(v, v, dtype=np.float64)
    norm = np.add(sq[..., :1], sq[..., 1:2])
    for k in range(2, v.shape[-1]):
        norm += sq[..., k:k + 1]
    np.sqrt(norm, out=norm)
    if not np.all((norm > 0.0) & (norm < np.inf)):
        raise ConstraintError(message)
    return norm


_SPHERE_FRAME = "the normal frame is undefined at the origin and at non-finite points"
_LEVEL_SET_FRAME = "the normal frame is undefined where grad F is 0 or not finite"


def tangent_part(nu: np.ndarray, w: np.ndarray) -> np.ndarray:
    """w (..., K) minus its components along the normal frame nu (..., L, K).

    Computed on component planes (_planes.tangent): any leading axes, overflow raises
    under np.errstate, and the result is the site-major view of a component-major array.
    """
    return to_sites(tangent(to_planes(nu, 2), to_planes(w, 1)), 1)


def tangent_part_slots(nu: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """tangent_part of every spinor slot of psi (..., K, 4), in psi's own layout."""
    return to_sites(tangent(to_planes(nu, 2), to_planes(psi, 2)), 2)


class TargetData:
    """Per-site target data along a map field phi: the normal frame nu, computed
    once on construction, and dnu and A on first use.  The curvature
    contractions read A alone; no Gauss tensor is formed.  Pi, the matrix of the
    projection along nu, is built on first use too, but no evaluation reads it.

    Each part is held component-major (the site axes of phi last, C-contiguous):
    nu_c (L, K, ...), dnu_c (L, K, K, ...) and asym_c (L, K, K, ...), indexed as
    [l, a, b].  nu, dnu and asym are their site-major views, in the layouts
    documented on each, and so is pi; a part assigned in site-major layout is
    converted on first read of its component-major form.
    """

    def __init__(self, target: TargetManifold, phi: np.ndarray):
        self.target = target
        self.phi = phi
        self.nu = to_sites(to_planes(target.normal_frame(phi), 2), 2)     # (..., L, K)

    @cached_property
    def nu_c(self) -> np.ndarray:
        return to_planes(self.nu, 2)

    @cached_property
    def dnu(self) -> np.ndarray:
        """dnu[..., l, a, b] = d nu_l^b / d u^a."""
        return to_sites(to_planes(self.target.normal_frame_derivative(self.phi), 3), 3)

    @cached_property
    def dnu_c(self) -> np.ndarray:
        return to_planes(self.dnu, 3)

    @cached_property
    def pi(self) -> np.ndarray:
        """Pi[..., a, b] = delta_ab - sum_l nu_l^a nu_l^b."""
        nu = self.nu_c
        pi = contract(nu[:, :, None], nu[:, None])
        np.negative(pi, out=pi)
        for a in range(pi.shape[0]):
            pi[a, a] += 1.0
        return to_sites(pi, 2)

    @cached_property
    def asym(self) -> np.ndarray:
        """Asym[..., a, b, l] = <A(Pi e_a, Pi e_b), nu_l>, exactly symmetric.

        -(Pi dnu_l Pi^T)_ab: the tangent part of each index of dnu_l in turn.
        """
        nu, dnu = self.nu_c, self.dnu_c
        # t[b, l, a] = (dnu_l Pi^T)_ab, raw[l, a, b] = (Pi dnu_l Pi^T)_ab, held [a, b, l]
        # in memory as tangent returns it; then Asym_l = -(raw_l + raw_l^T) / 2
        t = tangent(nu, np.moveaxis(dnu, 2, 0))
        raw = np.moveaxis(tangent(nu, np.moveaxis(t, 2, 0)), 2, 0)
        del t
        raw += raw.swapaxes(1, 2)
        raw *= -0.5
        return np.moveaxis(raw, (0, 1, 2), (-1, -3, -2))

    @cached_property
    def asym_c(self) -> np.ndarray:
        """asym_c[l, a, b, ...] = Asym[..., a, b, l]."""
        return np.ascontiguousarray(np.moveaxis(self.asym, (-1, -3, -2), (0, 1, 2)))


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
        """dnu[..., l, a, b] = d nu_l^b / d u^a of the extended frame.

        Both targets build it component-major, (L, K, K, ...) C-contiguous, and
        return its site-major view, so that TargetData.dnu_c converts it without a
        copy; any other site-major array is converted once.
        """
        raise NotImplementedError

    # ---- derived quantities -------------------------------------------------

    def tangent_projector(self, p: np.ndarray) -> np.ndarray:
        return TargetData(self, p).pi

    def nabla_a_tensor(self, tdata: TargetData) -> np.ndarray:
        """nablaA[..., e, a, b, l] = <(nabla_{Pi e_e} A)(Pi e_a, Pi e_b), nu_l> along phi."""
        if not self.parallel_second_fund:
            raise NotImplementedError
        K = self.ambient_dim
        return np.zeros(tdata.phi.shape[:-1] + (K, K, K, self.codim))


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
        return self.radius * p / _checked_norm(
            p, "cannot project the origin or a non-finite point onto the sphere")

    def normal_frame(self, p: np.ndarray) -> np.ndarray:
        return (p / _checked_norm(p, _SPHERE_FRAME))[..., None, :]

    def normal_frame_derivative(self, p: np.ndarray) -> np.ndarray:
        # (delta_ab - ph_a ph_b) / |p| with ph = p / |p|, on component planes
        norm = _checked_norm(p, _SPHERE_FRAME)[..., 0]
        ph = np.divide(np.moveaxis(p, -1, 0), norm, order="C")
        K = self.ambient_dim
        dnu = np.empty((1, K, K) + norm.shape)
        np.multiply(ph[:, None], ph[None], out=dnu[0])
        np.subtract(np.eye(K).reshape((K, K) + (1,) * norm.ndim), dnu[0], out=dnu[0])
        dnu /= norm
        return to_sites(dnu, 3)


class ImplicitSurfaceTarget(TargetManifold):
    """Codimension-1 target given as a level set F = 0 with d F != 0 on it.

    The retraction is a Newton iteration along grad F (agrees with the
    nearest-point projection to second order and fixes points of N).  The
    normal frame is grad F normalized and its derivative is analytic, from
    the gradient and the Hessian of F; nabla A is analytic too, from the
    Hessian and the third derivative D^3 F (shaped (..., K, K, K)).  third is
    None where D^3 F vanishes (quadrics), and nabla A then skips its T term.
    """

    def __init__(
        self,
        value: Callable[[np.ndarray], np.ndarray],
        gradient: Callable[[np.ndarray], np.ndarray],
        ambient_dim: int,
        hessian: Callable[[np.ndarray], np.ndarray],
        third: Callable[[np.ndarray], np.ndarray] | None,
    ):
        self.value = value
        self.gradient = gradient
        self.hessian = hessian
        self.third = third
        self.ambient_dim = ambient_dim
        self.codim = 1

    def project(self, p: np.ndarray) -> np.ndarray:
        # a C-ordered copy, so that p gives the same bits whatever its memory order: an
        # einsum, as in F and |grad F|^2, may sum in an order that follows the layout
        q = np.array(p, dtype=np.float64, order="C")
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
        return (g / _checked_norm(g, _LEVEL_SET_FRAME))[..., None, :]

    def normal_frame_derivative(self, p: np.ndarray) -> np.ndarray:
        g = self.gradient(p)
        norm = _checked_norm(g, _LEVEL_SET_FRAME)[..., 0]
        # nu = g/|g| with g = grad F:  d_a nu^b = H_ab/|g| - g_b (Hg)_a / |g|^3, on
        # component planes; H is read in place (a broadcast view for quadrics)
        h, g = np.moveaxis(self.hessian(p), (-2, -1), (0, 1)), to_planes(g, 1)
        hg = contract(h.swapaxes(0, 1), g[:, None])                      # (Hg)_a
        dnu = np.empty((1,) + h.shape)
        np.divide(h, norm, out=dnu[0])
        ggh = hg[:, None] * g[None]                                       # (Hg)_a g_b
        ggh /= norm**3
        dnu[0] -= ggh
        return to_sites(dnu, 3)

    def nabla_a_tensor(self, tdata: TargetData) -> np.ndarray:
        """nabla A in closed form along tdata's phi.  With X, Y, Z tangent, g = grad F,
        n = g/|g|, H = D^2 F and T = D^3 F (Codazzi: symmetric in X, Y, Z):

            <(nabla_Z A)(X, Y), n> = [H(X,Y) H(Z,n) + H(Y,Z) H(X,n) + H(Z,X) H(Y,n)] / |g|^2
                                     - T(X, Y, Z) / |g|

        H(Pi e_a, Pi e_b) = -|g| <A(Pi e_a, Pi e_b), n> is read from tdata's A (its
        Asym) rather than rebuilt from H, and n from its frame; Pi is the projection
        along that frame (tangent_part, and _planes.tangent on each slot of T).
        """
        p, n = tdata.phi, tdata.nu[..., 0, :]
        norm = _checked_norm(self.gradient(p), _LEVEL_SET_FRAME)[..., None, None]
        h = self.hessian(p)
        php = tdata.asym[..., 0] * -norm[..., 0]            # H(Pi e_a, Pi e_b)
        phn = tangent_part(tdata.nu, (h @ n[..., None])[..., 0])   # H(Pi e_a, n)
        # K^3 entries per site each: these arrays set residual_phi's peak memory, so every
        # step below writes in place or drops its input before the next one is allocated
        x = php[..., :, :, None] * phn[..., None, None, :]   # x[a, b, e] = H(a,b) H(e,n)
        del php
        hh = x + np.moveaxis(x, -1, -3)
        hh += np.moveaxis(x, -3, -1)
        del x
        hh /= norm**2
        if self.third is None:
            return hh[..., None]
        # Pi on each slot of T, component-major: the tangent part of the first slot, then
        # rotate the slots
        t = to_planes(self.third(p), 3)
        for _ in range(3):
            t = np.moveaxis(tangent(tdata.nu_c, t), 0, 2)
        t = to_sites(t, 3)
        t /= norm
        hh -= t
        return hh[..., None]


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

    return ImplicitSurfaceTarget(value, gradient, ambient_dim=len(r), hessian=hessian,
                                 third=None)


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


def tangent_basis(tdata: TargetData) -> np.ndarray:
    """Orthonormal tangent bases of N along tdata's phi, from the eigenvectors of its
    Pi, shaped (..., dim_N, K) (rows are vectors)."""
    vals, vecs = np.linalg.eigh(tdata.pi)
    dim = tdata.target.ambient_dim - tdata.target.codim
    # eigenvalues ascend; tangent directions carry eigenvalue 1
    return np.swapaxes(vecs[..., -dim:], -1, -2)

