"""Morrey-norm and Riesz-potential diagnostics on the unit disc.

Fields live on a regular square grid of cell centers covering [-1, 1]^2 with
spacing h = 2/resolution; cells whose center lies in the closed unit disc make
up the domain U.  The (p, lambda) Morrey norm in dimension n = 2 is the sup
over cell centers x and the supplied radii r of

    ( r^{lambda - 2}  sum_{y in U, |y - x| <= r} |u(y)|^p h^2 )^{1/p},

a lower bound of the continuum sup (finitely many centers and radii).  With
lambda = 2 and a radius covering U this is the discrete L^p norm; with small
radii and lambda = 0 it recovers the sup norm up to cell quadrature.

The Riesz potential I_1 f (x) = sum_y |x - y|^{-1} f(y) h^2 uses the midpoint
kernel off the singular cell and the exact integral of 1/|z| over one h x h
cell, 4 h ln(1 + sqrt 2), in its place.  The overall constant is 1; every
check built on it is ratio- or scaling-based.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DiscGrid",
    "MorreyParams",
    "check_radii",
    "morrey_norm",
    "decay_profile",
    "riesz_i1",
    "write_decay_profile",
]


@dataclass(frozen=True)
class DiscGrid:
    """Cell-centered square grid over [-1, 1]^2 masked to the unit disc."""

    resolution: int

    def __post_init__(self):
        if self.resolution < 4:
            raise ValueError("disc grid needs at least 4 cells per axis")

    @property
    def h(self) -> float:
        return 2.0 / self.resolution

    def centers(self) -> tuple[np.ndarray, np.ndarray]:
        c = -1.0 + (np.arange(self.resolution) + 0.5) * self.h
        return np.meshgrid(c, c, indexing="ij")

    def mask(self) -> np.ndarray:
        x, y = self.centers()
        return x * x + y * y <= 1.0


@dataclass(frozen=True)
class MorreyParams:
    """Exponents of the local scaled integrals; n = 2 is fixed."""

    p: float
    lam: float

    def __post_init__(self):
        if self.p < 1.0:
            raise ValueError("p must be >= 1")
        if not (0.0 <= self.lam <= 2.0):
            raise ValueError("lambda must lie in [0, 2]")


PAIRS_PER_BLOCK = 1 << 20


def _local_integrals(values: np.ndarray, grid: DiscGrid, centers_xy, p: float,
                     radii: np.ndarray) -> np.ndarray:
    """sum over B_r(x) of |u|^p h^2, shaped (n_centers, n_radii).

    Centers are processed in blocks of at most PAIRS_PER_BLOCK (center, point)
    pairs, so memory stays O(R^2) while each center's sum is unchanged.
    """
    mask = grid.mask()
    x, y = grid.centers()
    pts = np.stack([x[mask], y[mask]], axis=-1)
    dens = (np.abs(values[mask]) ** p) * grid.h**2
    cx = np.asarray(centers_xy, dtype=np.float64)
    out = np.empty((len(cx), len(radii)))
    block = max(1, PAIRS_PER_BLOCK // len(pts))
    for start in range(0, len(cx), block):
        rows = slice(start, start + block)
        d2 = np.sum((cx[rows, None, :] - pts[None, :, :]) ** 2, axis=-1)
        for k, r in enumerate(radii):
            out[rows, k] = np.where(d2 <= r * r, dens[None, :], 0.0).sum(axis=1)
    return out


def check_radii(radii) -> np.ndarray:
    """The radii as a float array; raises ValueError unless all lie in (0, 1]."""
    radii = np.asarray(radii, dtype=np.float64)
    if radii.size == 0:
        raise ValueError("radii list must not be empty")
    if np.any(radii <= 0.0) or np.any(radii > 1.0):
        raise ValueError("radii must lie in (0, domain radius]")
    return radii


def morrey_norm(values: np.ndarray, params: MorreyParams, radii, grid: DiscGrid) -> float:
    """Discrete (p, lambda) Morrey norm: max over in-disc centers and radii."""
    radii = check_radii(radii)
    mask = grid.mask()
    x, y = grid.centers()
    centers = np.stack([x[mask], y[mask]], axis=-1)
    integrals = _local_integrals(values, grid, centers, params.p, radii)
    scaled = integrals * radii[None, :] ** (params.lam - 2.0)
    return float(np.max(scaled) ** (1.0 / params.p))


def decay_profile(values: np.ndarray, grid: DiscGrid, center, params: MorreyParams,
                  radii) -> list[tuple[float, float]]:
    """(r, scaled local norm) pairs around one center; purely observational."""
    radii = np.asarray(radii, dtype=np.float64)
    integrals = _local_integrals(values, grid, [center], params.p, radii)[0]
    vals = (integrals * radii ** (params.lam - 2.0)) ** (1.0 / params.p)
    return list(zip(radii.tolist(), vals.tolist()))


def riesz_i1(values: np.ndarray, grid: DiscGrid) -> np.ndarray:
    """Discrete convolution with |x - y|^{-1}; linear and positivity-preserving.

    FFTs zero-padded to the full convolution size 3m-2 avoid wrap-around.
    """
    m = grid.resolution
    h = grid.h
    field = np.where(grid.mask(), values, 0.0)
    offs = np.arange(-(m - 1), m) * h
    ox, oy = np.meshgrid(offs, offs, indexing="ij")
    dist = np.hypot(ox, oy)
    kernel = np.empty_like(dist)
    nz = dist > 0
    kernel[nz] = 1.0 / dist[nz]
    kernel[~nz] = 4.0 * np.log(1.0 + np.sqrt(2.0)) / h
    n = 3 * m - 2
    full = np.fft.irfft2(np.fft.rfft2(field, (n, n)) * np.fft.rfft2(kernel, (n, n)), (n, n))
    out = full[m - 1:2 * m - 1, m - 1:2 * m - 1] * h**2
    return np.where(grid.mask(), out, 0.0)


def write_decay_profile(path, rows) -> None:
    """Two-column CSV (radius, scaled_norm) for external plotting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["radius", "scaled_norm"])
        for r, v in rows:
            writer.writerow([repr(float(r)), repr(float(v))])
