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


MAX_RESOLUTION = 1024  # the Morrey FFTs are (3 resolution - 2)^2


@dataclass(frozen=True)
class DiscGrid:
    """Cell-centered square grid over [-1, 1]^2 masked to the unit disc."""

    resolution: int

    def __post_init__(self):
        if self.resolution < 4:
            raise ValueError("disc grid needs at least 4 cells per axis")
        if self.resolution > MAX_RESOLUTION:
            raise ValueError(f"disc grid needs at most {MAX_RESOLUTION} cells per axis, "
                             f"got {self.resolution}")

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
        if not self.p >= 1.0:  # NaN fails too
            raise ValueError("p must be >= 1")
        if not (0.0 <= self.lam <= 2.0):
            raise ValueError("lambda must lie in [0, 2]")


def _convolve(field: np.ndarray, kernel, grid: DiscGrid) -> np.ndarray:
    """sum_y field(y) k(x - y) at every cell x, with k = kernel(di, dj).

    kernel maps the integer cell offsets (di, dj), each in [-(m-1), m-1], to
    values; FFTs zero-padded to the full convolution size 3m-2 avoid wrap-around.
    """
    m = grid.resolution
    offs = np.arange(1 - m, m)
    k = kernel(*np.meshgrid(offs, offs, indexing="ij"))
    n = 3 * m - 2
    full = np.fft.irfft2(np.fft.rfft2(field, (n, n)) * np.fft.rfft2(k, (n, n)), (n, n))
    return full[m - 1:2 * m - 1, m - 1:2 * m - 1]


def check_radii(radii) -> np.ndarray:
    """The radii as a float array; raises ValueError unless all lie in (0, 1]."""
    radii = np.asarray(radii, dtype=np.float64)
    if radii.size == 0:
        raise ValueError("radii list must not be empty")
    if not np.all((radii > 0.0) & (radii <= 1.0)):  # NaN fails too
        raise ValueError("radii must lie in (0, domain radius]")
    return radii


def morrey_norm(values: np.ndarray, params: MorreyParams, radii, grid: DiscGrid) -> float:
    """Discrete (p, lambda) Morrey norm: max over in-disc centers and radii.

    The closed ball |y - x| <= r is decided on integer offsets,
    di^2 + dj^2 <= (r/h)^2, so each radius is one convolution.
    """
    radii = check_radii(radii)
    mask = grid.mask()
    dens = np.where(mask, np.abs(values) ** params.p, 0.0) * grid.h**2
    best = 0.0
    for r in radii:
        local = _convolve(dens, lambda di, dj: di * di + dj * dj <= (r / grid.h) ** 2, grid)
        best = max(best, r ** (params.lam - 2.0) * np.max(local[mask]))
    return float(best ** (1.0 / params.p))


def decay_profile(values: np.ndarray, grid: DiscGrid, center, params: MorreyParams,
                  radii) -> list[tuple[float, float]]:
    """(r, scaled local norm) pairs around one center; purely observational.

    The center is an arbitrary point, so each local integral is a direct sum.
    """
    radii = check_radii(radii)
    mask = grid.mask()
    x, y = grid.centers()
    d2 = (center[0] - x[mask]) ** 2 + (center[1] - y[mask]) ** 2
    dens = (np.abs(values[mask]) ** params.p) * grid.h**2
    integrals = np.array([np.where(d2 <= r * r, dens, 0.0).sum() for r in radii])
    vals = (integrals * radii ** (params.lam - 2.0)) ** (1.0 / params.p)
    return list(zip(radii.tolist(), vals.tolist()))


def riesz_i1(values: np.ndarray, grid: DiscGrid) -> np.ndarray:
    """Discrete convolution with |x - y|^{-1}; linear and positivity-preserving."""
    h = grid.h

    def kernel(di, dj):
        dist = np.hypot(di * h, dj * h)
        cell = np.full_like(dist, 4.0 * np.log(1.0 + np.sqrt(2.0)) / h)
        return np.divide(1.0, dist, out=cell, where=dist > 0)

    out = _convolve(np.where(grid.mask(), values, 0.0), kernel, grid) * h**2
    return np.where(grid.mask(), out, 0.0)


def write_decay_profile(path, rows) -> None:
    """Two-column CSV (radius, scaled_norm) for external plotting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["radius", "scaled_norm"])
        for r, v in rows:
            writer.writerow([repr(float(r)), repr(float(v))])
