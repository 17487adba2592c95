"""Seeded smooth fields: the separable evaluation against the per-mode cosine sum."""

import numpy as np
import pytest

from sigmalab.geometry import Grid
from sigmalab.presets import _smooth_stack, smooth_scalar_field


def reference_scalar_field(grid, seed, amplitude=1.0, modes=2):
    """The defining sum, one full-grid cosine per mode (k, l) != (0, 0)."""
    rng = np.random.default_rng(seed)
    x, y = grid.coords()
    out = np.zeros(grid.shape)
    total = 0.0
    for k in range(-modes, modes + 1):
        for l in range(-modes, modes + 1):
            if k == 0 and l == 0:
                continue
            c = rng.standard_normal()
            theta = rng.uniform(0.0, 2.0 * np.pi)
            out += c * np.cos(2.0 * np.pi * (k * x + l * y) + theta)
            total += c * c
    return amplitude * out / np.sqrt(total)


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("shape", [(6, 10), (16, 16), (64, 64)], ids=str)
@pytest.mark.parametrize("modes", [1, 2])
def test_scalar_field_matches_the_cosine_sum(shape, modes):
    grid = Grid(*shape)
    for seed in (0, 7, 1234):
        assert _rel(smooth_scalar_field(grid, seed, 0.3, modes),
                    reference_scalar_field(grid, seed, 0.3, modes)) < 1e-13


@pytest.mark.parametrize("shape", [(6, 10), (16, 16), (64, 64)], ids=str)
@pytest.mark.parametrize("modes", [1, 2])
@pytest.mark.parametrize("count", [1, 12])
def test_stack_component_i_is_the_field_of_seed_plus_101_i(shape, modes, count):
    grid = Grid(*shape)
    stack = _smooth_stack(grid, 5, count, 0.5, modes)
    assert stack.shape == grid.shape + (count,)
    for i in range(count):
        assert _rel(stack[..., i], reference_scalar_field(grid, 5 + 101 * i, 0.5, modes)) < 1e-13


@pytest.mark.parametrize("modes", [1, 2])
def test_coefficients_do_not_depend_on_the_grid(modes):
    coarse = _smooth_stack(Grid(16, 16), 3, 12, 0.5, modes)
    fine = _smooth_stack(Grid(32, 32), 3, 12, 0.5, modes)
    assert np.max(np.abs(fine[::2, ::2] - coarse)) < 1e-13
