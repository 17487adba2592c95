"""Acceptance criteria, one test per criterion, with stated tolerances and
runtime bounds.  Each test prints a single PASS/FAIL line."""

import time

import numpy as np

from sigmalab import clifford as cl
from oracles import curvature_operator
from sigmalab.action import target_data, total_action
from sigmalab.clifford import sigma_lift
from sigmalab.euler_lagrange import (
    action_gradient_fd,
    assemble_map_residual,
    potentials,
    residual_phi,
    residual_psi,
)
from sigmalab.fields import (
    conformal_rescale,
    dirac_flat,
    dirac_flat_sigma,
    tangency_project,
)
from sigmalab.analysis import DiscGrid, MorreyParams, morrey_norm, riesz_i1
from sigmalab.geometry import Grid, SphereTarget, tangent_part
from sigmalab.presets import (
    perturbed_equator_map,
    smooth_gravitino,
    smooth_map_field,
    smooth_scalar_field,
    smooth_vector_spinor,
)
from sigmalab.solver import SolverConfig, solve

TG = SphereTarget(3)


def _report(num: int, label: str, passed: bool, detail: str, elapsed: float, limit: float):
    status = "PASS" if passed and elapsed < limit else "FAIL"
    print(f"{status} criterion {num} ({label}): {detail} [{elapsed:.2f}s < {limit:.0f}s]")
    assert passed, f"criterion {num}: {detail}"
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.2f}s)"


def test_criterion_1_clifford_identity_suite():
    t0 = time.perf_counter()
    tol = 1e-12
    r = np.random.default_rng(101)
    fibers = np.concatenate([np.eye(4), r.standard_normal((1000, 4))], axis=0)
    chis = np.concatenate(
        [np.eye(8).reshape(8, 2, 4), r.standard_normal((1000, 2, 4))], axis=0
    )
    e = np.eye(2)
    worst = 0.0

    for a in range(2):
        for b in range(2):
            lhs = cl.clifford_mul(e[a], cl.clifford_mul(e[b], fibers)) + cl.clifford_mul(
                e[b], cl.clifford_mul(e[a], fibers)
            )
            worst = max(worst, np.max(np.abs(lhs + 2.0 * (a == b) * fibers)))

    v = r.standard_normal((fibers.shape[0], 2))
    t = r.standard_normal(fibers.shape)
    worst = max(
        worst,
        np.max(np.abs(cl.spinor_inner(cl.clifford_mul(v, fibers), t)
                      + cl.spinor_inner(fibers, cl.clifford_mul(v, t)))),
    )

    for w in "IJK":
        worst = max(worst, np.max(np.abs(
            cl.quaternionic_structure(w, cl.quaternionic_structure(w, fibers)) + fibers)))
    jk = cl.quaternionic_structure("J", cl.quaternionic_structure("K", fibers))
    worst = max(worst, np.max(np.abs(jk - cl.quaternionic_structure("I", fibers))))

    worst = max(worst, np.max(np.abs(cl.gamma_contract(cl.sigma_lift(fibers)) - fibers)))

    p, q = cl.p_project(chis), cl.q_project(chis)
    worst = max(worst, np.max(np.abs(p + q - chis)))
    worst = max(worst, np.max(np.abs(cl.p_project(p) - p)))
    worst = max(worst, np.max(np.abs(cl.q_project(q) - q)))
    worst = max(worst, np.max(np.abs(cl.gamma_contract(q))))

    def n2(x):
        return np.einsum("...ai,...ai->...", x, x)

    worst = max(worst, np.max(np.abs(n2(p) + n2(q) - n2(chis))))

    _report(1, "clifford identities", worst <= tol,
            f"max deviation {worst:.2e} <= {tol:.0e}", time.perf_counter() - t0, 1.0)


def test_criterion_2_dirac_suite():
    t0 = time.perf_counter()
    g = Grid(32, 32)
    r = np.random.default_rng(102)
    s = r.standard_normal(g.shape + (4,))
    t = r.standard_normal(g.shape + (4,))
    cell = g.cell_area

    ds = dirac_flat(s, g)
    sym = abs(
        np.sum(np.einsum("xyi,xyi->xy", s, dirac_flat(t, g)))
        - np.sum(np.einsum("xyi,xyi->xy", ds, t))
    ) / (np.sum(np.abs(s * dirac_flat(t, g))) + 1e-30)

    s2 = r.standard_normal(g.shape + (2,))
    d2 = dirac_flat_sigma(s2, g)
    vanish = abs(np.sum(np.einsum("xyi,xyi->xy", s2, d2))) / np.sum(np.abs(s2 * d2))

    act4 = abs(np.sum(np.einsum("xyi,xyi->xy", s, ds)) * cell)
    nonzero = act4 > 1e-6

    passed = sym <= 1e-12 and vanish <= 1e-12 and nonzero
    _report(2, "dirac operator suite", passed,
            f"symmetry {sym:.2e}, rank-2 action {vanish:.2e}, rank-4 action {act4:.3e} != 0",
            time.perf_counter() - t0, 1.0)


def test_criterion_3_exact_symmetry_suite():
    t0 = time.perf_counter()
    g = Grid(32, 32)
    r = np.random.default_rng(103)
    phi = TG.project(r.standard_normal(g.shape + (3,)))
    psi = tangency_project(r.standard_normal(g.shape + (3, 4)), phi, TG)
    chi = r.standard_normal(g.shape + (2, 4))
    u = r.standard_normal(g.shape) * 0.3

    base = total_action(phi, psi, u, chi, g, TG)
    scale = 1.0 + max(abs(v) for v in base.to_dict().values())

    spin = r.standard_normal(g.shape + (4,))
    weyl = total_action(phi, psi, u, chi + sigma_lift(spin), g, TG)
    err_weyl = max(abs(a - b) for a, b in
                   zip(base.to_dict().values(), weyl.to_dict().values())) / scale

    flip = total_action(phi, -psi, u, -chi, g, TG)
    err_flip = max(abs(a - b) for a, b in
                   zip(base.to_dict().values(), flip.to_dict().values())) / scale

    passed = err_weyl <= 1e-12 and err_flip <= 1e-12
    _report(3, "super-Weyl and sign-flip invariance", passed,
            f"super-Weyl {err_weyl:.2e}, sign flip {err_flip:.2e} <= 1e-12",
            time.perf_counter() - t0, 5.0)


def test_criterion_4_conformal_invariance_refinement():
    t0 = time.perf_counter()
    diffs = []
    for n in (16, 32, 64):
        g = Grid(n, n)
        phi = smooth_map_field(g, TG, seed=300, amplitude=0.4)
        psi = smooth_vector_spinor(g, phi, TG, seed=302, amplitude=0.5)
        chi = smooth_gravitino(g, seed=304, amplitude=0.5)
        uu = smooth_scalar_field(g, seed=308, amplitude=0.35)
        flat = total_action(phi, psi, np.zeros(g.shape), chi, g, TG)
        psi_c, chi_c = conformal_rescale(psi, chi, uu)
        conf = total_action(phi, psi_c, uu, chi_c, g, TG)
        diffs.append(abs(conf.total - flat.total))
    o1 = np.log2(diffs[0] / diffs[1])
    o2 = np.log2(diffs[1] / diffs[2])
    passed = o1 >= 1.8 and o2 >= 1.8
    _report(4, "conformal invariance refinement", passed,
            f"diffs {diffs[0]:.2e} -> {diffs[1]:.2e} -> {diffs[2]:.2e}, "
            f"orders {o1:.2f}, {o2:.2f} >= 1.8",
            time.perf_counter() - t0, 30.0)


def test_criterion_5_gauss_equation_oracle():
    t0 = time.perf_counter()
    r = np.random.default_rng(105)
    p = TG.project(r.standard_normal((1000, 3)))
    X = tangent_part(TG.normal_frame(p), r.standard_normal(p.shape))
    Y = tangent_part(TG.normal_frame(p), r.standard_normal(p.shape))
    Z = tangent_part(TG.normal_frame(p), r.standard_normal(p.shape))
    out = curvature_operator(TG, p, X, Y, Z)
    expected = (np.einsum("ka,ka->k", Y, Z)[:, None] * X
                - np.einsum("ka,ka->k", X, Z)[:, None] * Y)
    err_gauss = float(np.max(np.abs(out - expected)))

    g = Grid(8, 8)
    phi = smooth_map_field(g, TG, seed=10, amplitude=0.4)
    psi = smooth_vector_spinor(g, phi, TG, seed=11, amplitude=0.5)
    u0 = np.zeros(g.shape)
    tdata = target_data(TG, phi)
    flat_p = phi.reshape(-1, 3)
    pi = tdata.pi.reshape(-1, 3, 3)
    psi_flat = psi.reshape(-1, 3, 4)
    r_quad = np.zeros(flat_p.shape[0])
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    vec = curvature_operator(
                        TG, flat_p, pi[:, :, c], pi[:, :, d], pi[:, :, b]
                    )[:, a]
                    r_quad += (
                        vec
                        * np.einsum("si,si->s", psi_flat[:, a], psi_flat[:, c])
                        * np.einsum("si,si->s", psi_flat[:, b], psi_flat[:, d])
                    )
    oracle = float(-np.sum(r_quad) * g.cell_area / 6.0)
    chi0 = np.zeros(g.shape + (2, 4))
    direct = total_action(phi, psi, u0, chi0, g, TG, tdata=tdata).V_curvature
    err_term = abs(direct - oracle) / (1.0 + abs(oracle))

    passed = err_gauss <= 1e-10 and err_term <= 1e-10
    _report(5, "Gauss equation oracle", passed,
            f"constant-curvature match {err_gauss:.2e}, "
            f"quadruple-loop contraction {err_term:.2e} <= 1e-10",
            time.perf_counter() - t0, 5.0)


def test_criterion_6_el_gradient_consistency():
    t0 = time.perf_counter()
    errs = {}
    for n in (16, 32):
        g = Grid(n, n)
        phi = smooth_map_field(g, TG, seed=5, amplitude=0.4, modes=1)
        psi = smooth_vector_spinor(g, phi, TG, seed=7, amplitude=0.1, modes=1)
        chi = smooth_gravitino(g, seed=9, amplitude=0.1, modes=1)
        u0 = np.zeros(g.shape)
        rp = residual_phi(phi, psi, chi, u0, g, TG)
        rs = residual_psi(phi, psi, chi, u0, g, TG)
        gp, gs = action_gradient_fd(phi, psi, u0, chi, g, TG, step=1e-5)
        cell = g.cell_area
        pit = TG.tangent_projector(phi)
        rp_t = np.einsum("xyab,xyb->xya", pit, rp)
        errs[n] = (
            float(np.linalg.norm(gp / (-2 * cell) - rp_t) / np.linalg.norm(rp_t)),
            float(np.linalg.norm(gs / (2 * cell) - rs) / np.linalg.norm(rs)),
        )
    err_phi, err_psi = errs[32]
    improving = errs[32][0] < errs[16][0]
    passed = err_phi <= 1e-4 and err_psi <= 1e-4 and improving
    _report(6, "EL-gradient consistency", passed,
            f"h=1/32: phi {err_phi:.2e}, psi {err_psi:.2e} <= 1e-4; "
            f"improving from h=1/16 ({errs[16][0]:.2e})",
            time.perf_counter() - t0, 60.0)


def test_criterion_7_antisymmetric_rewriting():
    t0 = time.perf_counter()
    g = Grid(16, 16)
    r = np.random.default_rng(107)
    phi = TG.project(r.standard_normal(g.shape + (3,)))
    psi = tangency_project(r.standard_normal(g.shape + (3, 4)), phi, TG)
    chi = r.standard_normal(g.shape + (2, 4))
    u = 0.3 * r.standard_normal(g.shape)

    pots = potentials(phi, psi, chi, u, g, TG)
    asym = max(
        float(np.max(np.abs(m + np.swapaxes(m, -1, -2))))
        for m in (pots.omega, pots.f, pots.t)
    )
    res = residual_phi(phi, psi, chi, u, g, TG)
    ass = assemble_map_residual(phi, psi, chi, u, g, TG)
    err = float(np.max(np.abs(res - ass)))

    passed = asym <= 1e-12 and err <= 1e-10
    _report(7, "antisymmetric rewriting", passed,
            f"antisymmetry {asym:.2e} <= 1e-12, assembly {err:.2e} <= 1e-10",
            time.perf_counter() - t0, 10.0)


def test_criterion_8_harmonic_benchmark():
    t0 = time.perf_counter()
    g = Grid(64, 64)
    phi0 = perturbed_equator_map(g, amplitude=0.05, seed=3)
    psi0 = np.zeros(g.shape + (3, 4))
    chi0 = np.zeros(g.shape + (2, 4))
    u0 = np.zeros(g.shape)
    cfg = SolverConfig(max_iterations=100_000, tolerance=1e-6, initial_step=1e-5)
    state, report = solve(phi0, psi0, chi0, u0, g, TG, cfg)
    energy = total_action(state.phi, psi0, u0, chi0, g, TG).I_dirichlet
    exact = (np.sin(2 * np.pi * g.h1) / g.h1) ** 2
    rel_e = abs(energy - exact) / exact
    passed = (
        report.converged
        and report.iterations <= 100_000
        and state.residual_norms[0] < 1e-6
        and rel_e < 1e-2
    )
    _report(8, "harmonic benchmark", passed,
            f"converged in {report.iterations} iterations, residual "
            f"{state.residual_norms[0]:.2e} < 1e-6, energy error {rel_e:.2e} < 1e-2",
            time.perf_counter() - t0, 300.0)


def test_criterion_9_morrey_riesz_diagnostics():
    t0 = time.perf_counter()
    # odd resolution: a cell sits exactly at the origin, so the unit ball covers U
    g = DiscGrid(25)
    r = np.random.default_rng(109)
    radii = [g.h, 0.125, 0.25, 0.5, 1.0]

    values = r.standard_normal((25, 25))
    p = 4.0
    norm = morrey_norm(values, MorreyParams(p=p, lam=2.0), radii, g)
    mask = g.mask()
    lp = (np.sum(np.abs(values[mask]) ** p) * g.h**2) ** (1 / p)
    err_lp = abs(norm - lp) / lp

    fine = DiscGrid(64)
    x, y = fine.centers()
    src = np.zeros_like(x)
    i0 = fine.resolution // 2
    src[i0, i0] = 1.0
    out = riesz_i1(src, fine)
    d = np.hypot(x - x[i0, i0], y - y[i0, i0])
    far = (d >= 10 * fine.h) & fine.mask()
    err_far = float(np.max(np.abs(out[far] - fine.h**2 / d[far]) / (fine.h**2 / d[far])))

    ordered = True
    for _ in range(100):
        f = r.standard_normal((25, 25))
        n0 = morrey_norm(f, MorreyParams(p=p, lam=0.0), radii, g)
        n1 = morrey_norm(f, MorreyParams(p=p, lam=1.0), radii, g)
        n2 = morrey_norm(f, MorreyParams(p=p, lam=2.0), radii, g)
        ordered = ordered and n0 >= n1 * (1 - 1e-12) and n1 >= n2 * (1 - 1e-12)

    passed = err_lp <= 1e-3 and err_far <= 1e-2 and ordered
    _report(9, "Morrey/Riesz diagnostics", passed,
            f"Lp identification {err_lp:.2e} <= 1e-3, far field {err_far:.2e} <= 1e-2, "
            f"inclusion ordering on 100 fields: {ordered}",
            time.perf_counter() - t0, 10.0)
