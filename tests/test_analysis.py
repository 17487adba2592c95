"""Morrey-norm and Riesz-potential diagnostics."""

import tracemalloc

import numpy as np
import pytest

from sigmalab.analysis import (
    DiscGrid,
    MorreyParams,
    decay_profile,
    morrey_norm,
    riesz_i1,
)


def disc_area(grid: DiscGrid) -> float:
    return float(np.sum(grid.mask()) * grid.h**2)


def test_morrey_lambda_n_is_lp_norm():
    # odd resolution puts a cell center at the origin; the unit ball then
    # covers the whole disc and the identification with L^p is exact
    g = DiscGrid(33)
    r = np.random.default_rng(0)
    values = r.standard_normal((g.resolution, g.resolution))
    p = 4.0
    norm = morrey_norm(values, MorreyParams(p=p, lam=2.0), [0.25, 0.5, 1.0], g)
    mask = g.mask()
    lp = (np.sum(np.abs(values[mask]) ** p) * g.h**2) ** (1 / p)
    assert abs(norm - lp) / lp < 1e-12


def test_morrey_constant_field_closed_form():
    g = DiscGrid(33)
    c = 1.7
    values = np.full((g.resolution, g.resolution), c)
    norm = morrey_norm(values, MorreyParams(p=4.0, lam=2.0), [1.0], g)
    assert abs(norm - c * disc_area(g) ** 0.25) / norm < 1e-12


def test_morrey_lambda_zero_recovers_sup_norm():
    g = DiscGrid(32)
    c = 2.5
    values = np.full((g.resolution, g.resolution), c)
    # a radius just under the spacing captures exactly one cell, so the scaled
    # local integral is c (h/r)^{2/p}; this is the discrete sup-norm reading
    r = 0.999 * g.h
    norm = morrey_norm(values, MorreyParams(p=4.0, lam=0.0), [r], g)
    assert abs(norm - c) / c < 1e-2


def test_morrey_nesting_in_lambda():
    g = DiscGrid(24)
    r = np.random.default_rng(1)
    radii = [g.h, 0.125, 0.25, 0.5, 1.0]
    p = 4.0
    for _ in range(20):
        values = r.standard_normal((g.resolution, g.resolution))
        n0 = morrey_norm(values, MorreyParams(p=p, lam=0.0), radii, g)
        n1 = morrey_norm(values, MorreyParams(p=p, lam=1.0), radii, g)
        n2 = morrey_norm(values, MorreyParams(p=p, lam=2.0), radii, g)
        assert n0 >= n1 * (1 - 1e-12)
        assert n1 >= n2 * (1 - 1e-12)


def test_morrey_monotone_in_radii_set():
    g = DiscGrid(24)
    values = np.random.default_rng(2).standard_normal((g.resolution, g.resolution))
    params = MorreyParams(p=2.0, lam=1.0)
    few = morrey_norm(values, params, [0.25], g)
    more = morrey_norm(values, params, [0.25, 0.5, 1.0], g)
    assert more >= few


def test_morrey_validation():
    g = DiscGrid(16)
    values = np.zeros((16, 16))
    with pytest.raises(ValueError):
        MorreyParams(p=0.5, lam=1.0)
    with pytest.raises(ValueError):
        MorreyParams(p=2.0, lam=3.0)
    with pytest.raises(ValueError):
        morrey_norm(values, MorreyParams(p=2.0, lam=1.0), [], g)
    with pytest.raises(ValueError):
        morrey_norm(values, MorreyParams(p=2.0, lam=1.0), [1.5], g)


def test_morrey_memory_is_bounded():
    g = DiscGrid(64)
    x, y = g.centers()
    values = np.sin(3.0 * x) * np.cos(2.0 * y) + x * y
    radii = [0.0625, 0.125, 0.25, 0.5, 1.0]
    tracemalloc.start()
    try:
        morrey_norm(values, MorreyParams(p=2.0, lam=1.0), radii, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


@pytest.mark.parametrize("resolution", [16, 25, 33])
def test_morrey_matches_per_center_direct_sum(resolution):
    # every in-disc center against every in-disc cell; the radii are no whole
    # multiple of h at these resolutions, so float distances decide no tie
    g = DiscGrid(resolution)
    x, y = g.centers()
    mask = g.mask()
    values = np.random.default_rng(resolution).standard_normal(x.shape)
    p, lam = 3.0, 0.5
    radii = [0.13, 0.3, 0.61, 0.97]
    pts = np.stack([x[mask], y[mask]], axis=-1)
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    dens = np.abs(values[mask]) ** p * g.h**2
    expected = max(r ** (lam - 2.0) * np.max(np.where(d2 <= r * r, dens, 0.0).sum(axis=1))
                   for r in radii) ** (1.0 / p)
    norm = morrey_norm(values, MorreyParams(p=p, lam=lam), radii, g)
    assert abs(norm - expected) / expected < 1e-12


def test_morrey_ball_is_closed():
    # with r = h the closed ball around a cell holds its four neighbours
    g = DiscGrid(25)
    mask = g.mask()
    params = MorreyParams(p=1.0, lam=2.0)
    placements = 0
    for i in range(1, g.resolution - 1):
        for j in range(1, g.resolution - 1):
            cells = ([i - 1, i + 1, i, i], [j, j, j - 1, j + 1])
            if not np.all(mask[cells]):
                continue
            values = np.zeros(mask.shape)
            values[cells] = 1.0
            norm = morrey_norm(values, params, [g.h], g)
            assert abs(norm - 4.0 * g.h**2) < 1e-12 * g.h**2
            placements += 1
    assert placements > 300


def test_riesz_far_field_of_point_source():
    g = DiscGrid(64)
    x, y = g.centers()
    values = np.zeros_like(x)
    i0 = g.resolution // 2
    values[i0, i0] = 1.0
    out = riesz_i1(values, g)
    y0 = np.array([x[i0, i0], y[i0, i0]])
    d = np.hypot(x - y0[0], y - y0[1])
    far = (d >= 10 * g.h) & g.mask()
    expected = g.h**2 / d[far]
    assert np.max(np.abs(out[far] - expected) / expected) < 1e-10


def test_riesz_far_field_vs_cell_integral_oracle():
    g = DiscGrid(64)
    x, y = g.centers()
    values = np.zeros_like(x)
    i0 = g.resolution // 2
    values[i0, i0] = 1.0
    out = riesz_i1(values, g)
    y0 = np.array([x[i0, i0], y[i0, i0]])
    # 4x4 Gauss-Legendre integration of 1/|x - y| over the source cell
    nodes, weights = np.polynomial.legendre.leggauss(4)
    nodes = nodes * g.h / 2.0
    weights = weights * g.h / 2.0
    probes = [(i0 + 12, i0), (i0, i0 + 15), (i0 + 10, i0 + 10)]
    for (i, j) in probes:
        px, py = x[i, j], y[i, j]
        integral = 0.0
        for a, wa in zip(nodes, weights):
            for b, wb in zip(nodes, weights):
                integral += wa * wb / np.hypot(px - (y0[0] + a), py - (y0[1] + b))
        assert abs(out[i, j] - integral) / integral < 1e-2


@pytest.mark.parametrize("resolution", [8, 13, 20])
def test_riesz_matches_direct_sum(resolution):
    # O(R^4) reference: h^2 sum_y f(y) k(x - y) over the in-disc cells, with
    # the exact cell integral 4 ln(1 + sqrt 2) / h at y = x
    g = DiscGrid(resolution)
    x, y = g.centers()
    mask = g.mask()
    values = np.random.default_rng(resolution).standard_normal(x.shape) + 2.0
    pts = np.stack([x[mask], y[mask]], axis=-1)
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    kernel = np.full_like(dist, 4.0 * np.log(1.0 + np.sqrt(2.0)) / g.h)
    off = dist > 0
    kernel[off] = 1.0 / dist[off]
    expected = np.zeros_like(x)
    expected[mask] = kernel @ values[mask] * g.h**2
    out = riesz_i1(values, g)
    assert np.all(out[~mask] == 0.0)
    assert np.max(np.abs(out - expected)) / np.max(np.abs(expected)) < 1e-12


def test_riesz_linearity_and_positivity():
    g = DiscGrid(32)
    r = np.random.default_rng(3)
    f1 = r.standard_normal((g.resolution, g.resolution))
    f2 = r.standard_normal((g.resolution, g.resolution))
    lhs = riesz_i1(2.0 * f1 - 3.0 * f2, g)
    rhs = 2.0 * riesz_i1(f1, g) - 3.0 * riesz_i1(f2, g)
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * (np.max(np.abs(rhs)) + 1)
    pos = riesz_i1(np.abs(f1), g)
    assert np.min(pos[g.mask()]) >= 0.0


def test_riesz_dilation_scaling_with_refined_oracle():
    # I_1[f(./2)](x) = 2 I_1[f](x/2) in the continuum; check on a narrow bump
    # using a doubled-resolution grid as the oracle for the half-coordinates
    coarse = DiscGrid(48)
    fine = DiscGrid(96)

    def bump(grid, width):
        x, y = grid.centers()
        return np.exp(-(x**2 + y**2) / width**2)

    lhs = riesz_i1(bump(coarse, 0.3), coarse)          # f(./2), width doubled from 0.15
    rhs_field = riesz_i1(bump(fine, 0.15), fine)
    # compare at a ring of sample points x with |x| ~ 0.4
    xc, yc = coarse.centers()
    xf, yf = fine.centers()
    samples = [(0.4, 0.0), (0.0, 0.4), (-0.4, 0.0), (0.3, 0.3)]
    for sx, sy in samples:
        ic = np.unravel_index(np.argmin((xc - sx) ** 2 + (yc - sy) ** 2), xc.shape)
        jf = np.unravel_index(
            np.argmin((xf - sx / 2) ** 2 + (yf - sy / 2) ** 2), xf.shape
        )
        ratio = lhs[ic] / rhs_field[jf]
        assert abs(ratio - 2.0) < 0.05


def test_decay_profile_constant_field_power_law():
    g = DiscGrid(48)
    c = 1.3
    values = np.full((g.resolution, g.resolution), c)
    p, lam = 4.0, 2.0
    radii = [0.125, 0.25, 0.5]
    rows = decay_profile(values, g, (0.0, 0.0), MorreyParams(p=p, lam=lam), radii)
    for r, v in rows:
        expected = c * (np.pi * r**lam) ** (1 / p)
        assert abs(v - expected) / expected < 0.05


def test_decay_profile_borderline_field_bounded():
    g = DiscGrid(64)
    x, y = g.centers()
    r = np.hypot(x, y)
    values = np.where(r > g.h, r, g.h) ** (-0.5)
    rows = decay_profile(values, g, (0.0, 0.0), MorreyParams(p=4.0, lam=2.0),
                         [0.0625, 0.125, 0.25, 0.5])
    vals = [v for _, v in rows]
    assert max(vals) / min(vals) < 2.0  # bounded profile as r -> 0


def test_decay_profile_validates_radii():
    g = DiscGrid(16)
    values = np.ones((16, 16))
    params = MorreyParams(p=2.0, lam=1.0)
    for radii in ([], [0.0, 0.5], [0.5, 2.0], [-0.25]):
        with pytest.raises(ValueError, match="radii"):
            decay_profile(values, g, (0.0, 0.0), params, radii)


def test_decay_profile_zero_field():
    g = DiscGrid(16)
    rows = decay_profile(np.zeros((16, 16)), g, (0.0, 0.0),
                         MorreyParams(p=2.0, lam=1.0), [0.25, 0.5])
    assert all(v == 0.0 for _, v in rows)


def test_nan_fails_the_input_checks():
    from sigmalab.analysis import check_radii

    nan = float("nan")
    g = DiscGrid(8)
    values = np.ones((8, 8))
    params = MorreyParams(p=4.0, lam=2.0)
    for radii in ([nan], [0.5, nan]):
        with pytest.raises(ValueError):
            check_radii(radii)
        with pytest.raises(ValueError):
            morrey_norm(values, params, radii, g)
        with pytest.raises(ValueError):
            decay_profile(values, g, (0.0, 0.0), params, radii)
    for p, lam in [(nan, 2.0), (4.0, nan)]:
        with pytest.raises(ValueError):
            MorreyParams(p=p, lam=lam)


def test_disc_grid_resolution_limit():
    from sigmalab.analysis import MAX_RESOLUTION

    assert DiscGrid(MAX_RESOLUTION).resolution == 1024
    with pytest.raises(ValueError, match="at most"):
        DiscGrid(MAX_RESOLUTION + 1)
