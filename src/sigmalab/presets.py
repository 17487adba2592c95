"""Deterministic field families for tests, benchmarks, and the CLI.

Smooth fields are trigonometric sums, taken as separable matrix products, whose
coefficients depend only on the seed, never on the grid, so the same field can be
sampled at several resolutions for refinement studies.  Random fields are seeded normals.
"""

from __future__ import annotations

import numpy as np

from .fields import tangency_project
from .geometry import Grid, TargetManifold

__all__ = [
    "smooth_scalar_field",
    "smooth_map_field",
    "smooth_vector_spinor",
    "smooth_gravitino",
    "equator_map",
    "perturbed_equator_map",
    "random_vector_spinor",
    "random_gravitino",
]


def smooth_scalar_field(grid: Grid, seed: int, amplitude: float = 1.0,
                        modes: int = 2) -> np.ndarray:
    """Low-frequency trigonometric field with unit-normalized random coefficients."""
    return _smooth_stack(grid, seed, 1, amplitude, modes)[..., 0]


def _smooth_stack(grid, seed, count, amplitude, modes):
    """(n1, n2, count) smooth fields, component i drawn from default_rng(seed + 101 i).

    Each is amplitude / sqrt(sum c^2) times the sum over |k|, |l| <= modes, (k, l) != (0, 0)
    (row-major; c normal, then theta uniform) of c cos(2 pi (k x + l y) + theta), which is
    Re(E1 C E2) = [Re E1, Im E1] [[Re C, -Im C], [-Im C, -Re C]] [Re E2; Im E2] for
    E1[x, k] = e^{2 pi i k x}, C[k, l] = c e^{i theta} and E2[l, y] = e^{2 pi i l y}.
    """
    freqs = 2.0 * np.pi * np.arange(-modes, modes + 1)
    x, y = grid.coords()
    e1 = np.hstack([np.cos(x[:, :1] * freqs), np.sin(x[:, :1] * freqs)])
    e2 = np.vstack([np.cos(freqs[:, None] * y[:1]), np.sin(freqs[:, None] * y[:1])])
    out = np.empty(grid.shape + (count,))
    for i in range(count):
        rng = np.random.default_rng(seed + 101 * i)
        draws = [(rng.standard_normal(), rng.uniform(0.0, 2.0 * np.pi))
                 for _ in range(freqs.size ** 2 - 1)]
        c, theta = np.insert(draws, len(draws) // 2, 0.0, axis=0).T.reshape(2, freqs.size, -1)
        re, im = c * np.cos(theta), c * np.sin(theta)
        out[..., i] = e1 @ np.block([[re, -im], [-im, -re]]) @ e2 * (amplitude / np.linalg.norm(c))
    return out


def smooth_map_field(grid: Grid, target: TargetManifold, seed: int,
                     amplitude: float = 0.4, modes: int = 2) -> np.ndarray:
    """Projection of a smooth ambient field anchored away from the origin."""
    field = _smooth_stack(grid, seed, target.ambient_dim, amplitude, modes)
    field[..., 0] += 1.0
    return target.project(field)


def smooth_vector_spinor(grid: Grid, phi: np.ndarray, target: TargetManifold,
                         seed: int, amplitude: float = 0.5, modes: int = 2) -> np.ndarray:
    """Smooth tangent vector-spinor along phi."""
    raw = _smooth_stack(grid, seed, 4 * target.ambient_dim, amplitude, modes)
    return tangency_project(raw.reshape(grid.shape + (-1, 4)), phi, target)


def smooth_gravitino(grid: Grid, seed: int, amplitude: float = 0.5, modes: int = 2) -> np.ndarray:
    """Smooth unconstrained gravitino field."""
    return _smooth_stack(grid, seed, 8, amplitude, modes).reshape(grid.shape + (2, 4))


def _circle(grid: Grid, ambient_dim: int, perturbation=0.0) -> np.ndarray:
    """(cos phase, sin phase, 0, ...) with phase = 2 pi x + perturbation at every site."""
    phase = 2.0 * np.pi * grid.coords()[0] + perturbation
    out = np.zeros(grid.shape + (ambient_dim,))
    out[..., 0], out[..., 1] = np.cos(phase), np.sin(phase)
    return out


def equator_map(grid: Grid, ambient_dim: int = 3) -> np.ndarray:
    """The closed geodesic (cos 2 pi x, sin 2 pi x, 0, ...) into the unit sphere.

    An exact critical point of the discrete Dirichlet term: the wide Laplacian
    acts on it with eigenvalue -(sin(2 pi h1)/h1)^2, which equals minus its
    discrete energy density.
    """
    return _circle(grid, ambient_dim)


def perturbed_equator_map(grid: Grid, amplitude: float = 0.05, seed: int = 0,
                          ambient_dim: int = 3) -> np.ndarray:
    """Equator map with an in-plane smooth phase perturbation.

    The perturbation stays inside the equatorial circle, so the projected flow
    reduces to the winding-one heat flow and converges back to a rotated
    equator (transverse perturbations would instead slide off toward a point
    map, great circles being unstable harmonic maps).
    """
    return _circle(grid, ambient_dim, smooth_scalar_field(grid, seed, amplitude))


def random_vector_spinor(grid: Grid, phi: np.ndarray, target: TargetManifold,
                         rng: np.random.Generator, amplitude: float = 1.0) -> np.ndarray:
    raw = amplitude * rng.standard_normal(grid.shape + (target.ambient_dim, 4))
    return tangency_project(raw, phi, target)


def random_gravitino(grid: Grid, rng: np.random.Generator,
                     amplitude: float = 1.0) -> np.ndarray:
    return amplitude * rng.standard_normal(grid.shape + (2, 4))
