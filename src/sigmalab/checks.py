"""Identity and symmetry suites with pass/fail reporting.

Each suite evaluates a family of exact discrete identities on basis fibers
and seeded random data and reports the worst deviation against its tolerance.
Used by the command-line ``check`` command and by the acceptance tests.  The
symmetry suite checks the constraints once: its five actions share phi and only
negate or rescale psi, which stays tangent, so all read one TargetData.
run_all_checks builds no frame: it measures the constraint suite's two
violations on the TargetData of phi it is handed (the command line hands it the
one parse_config built), then hands that to the symmetry suite where they hold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import clifford as cl
from .action import checked_target_data, total_action
from .fields import (
    TANGENCY_TOL,
    conformal_rescale,
    dirac_flat,
    dirac_flat_sigma,
    frame_violation,
    q_norm2_field,
)
from .clifford import sigma_lift
from .geometry import ON_MANIFOLD_TOL, Grid, TargetData, on_manifold_violation

__all__ = ["CheckResult", "clifford_suite", "dirac_suite", "projector_suite",
           "symmetry_suite", "constraint_suite", "run_all_checks"]

EXACT_TOL = 1e-12   # tolerance of the identities that hold to rounding
FIBERS = 1000       # random fibers (besides the four basis spinors) of the Clifford suite


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(self.error <= self.tolerance)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "name": self.name,
            "error": self.error,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def _fibers(rng: np.random.Generator):
    """Exhaustive basis spinors plus FIBERS seeded random fibers."""
    basis = np.eye(4)
    rand = rng.standard_normal((FIBERS, 4))
    return np.concatenate([basis, rand], axis=0)


def clifford_suite(rng: np.random.Generator):
    """Clifford relation, skewness, quaternion algebra, projector algebra."""
    out = []
    s = _fibers(rng)
    t = _fibers(rng)
    chi = rng.standard_normal((FIBERS, 2, 4))

    def rec(name, err):
        out.append(CheckResult("clifford", name, float(err), EXACT_TOL))

    e = np.eye(2)
    err = 0.0
    for a in range(2):
        for b in range(2):
            lhs = cl.clifford_mul(e[a], cl.clifford_mul(e[b], s)) + cl.clifford_mul(
                e[b], cl.clifford_mul(e[a], s)
            )
            err = max(err, np.max(np.abs(lhs + 2.0 * (a == b) * s)))
    rec("clifford_relation", err)

    v = rng.standard_normal((FIBERS, 2))
    lhs = cl.spinor_inner(cl.clifford_mul(v, s[:FIBERS]), t[:FIBERS])
    rhs = cl.spinor_inner(s[:FIBERS], cl.clifford_mul(v, t[:FIBERS]))
    rec("clifford_skew_symmetry", np.max(np.abs(lhs + rhs)))

    err = 0.0
    for w in "IJK":
        err = max(
            err,
            np.max(np.abs(cl.quaternionic_structure(w, cl.quaternionic_structure(w, s)) + s)),
        )
    jk = cl.quaternionic_structure("J", cl.quaternionic_structure("K", s))
    err = max(err, np.max(np.abs(jk - cl.quaternionic_structure("I", s))))
    for w in "IJK":
        for a in range(2):
            lhs = cl.quaternionic_structure(w, cl.clifford_mul(e[a], s))
            rhs = cl.clifford_mul(e[a], cl.quaternionic_structure(w, s))
            err = max(err, np.max(np.abs(lhs - rhs)))
    rec("quaternion_relations", err)

    rec("volume_squares_to_minus_id",
        np.max(np.abs(cl.volume_mul(cl.volume_mul(s)) + s)))
    rec("gamma_sigma_identity", np.max(np.abs(cl.gamma_contract(cl.sigma_lift(s)) - s)))

    p = cl.p_project(chi)
    q = cl.q_project(chi)
    rec("projector_sum", np.max(np.abs(p + q - chi)))
    rec("p_idempotent", np.max(np.abs(cl.p_project(p) - p)))
    rec("q_idempotent", np.max(np.abs(cl.q_project(q) - q)))
    rec("gamma_kills_q", np.max(np.abs(cl.gamma_contract(q))))
    n2 = np.einsum("...ai,...ai->...", chi, chi)
    rec("norm_split",
        np.max(np.abs(np.einsum("...ai,...ai->...", p, p)
                      + np.einsum("...ai,...ai->...", q, q) - n2)))
    return out


def dirac_suite(grid: Grid, rng: np.random.Generator):
    """Symmetry of the rank-4 operator; vanishing of the rank-2 Dirac action.
    Each operator is applied once per field."""
    out = []
    s = rng.standard_normal(grid.shape + (4,))
    t = rng.standard_normal(grid.shape + (4,))
    cell = grid.cell_area
    ds, dt = dirac_flat(s, grid), dirac_flat(t, grid)

    lhs = np.sum(np.einsum("xyi,xyi->xy", s, dt)) * cell
    rhs = np.sum(np.einsum("xyi,xyi->xy", ds, t)) * cell
    scale = np.sum(np.abs(s * dt)) * cell + 1e-30
    out.append(CheckResult("dirac", "flat_symmetry", abs(lhs - rhs) / scale, EXACT_TOL))

    s2 = rng.standard_normal(grid.shape + (2,))
    ds2 = dirac_flat_sigma(s2, grid)
    act2 = np.sum(np.einsum("xyi,xyi->xy", s2, ds2)) * cell
    scale2 = np.sum(np.abs(s2 * ds2)) * cell + 1e-30
    out.append(CheckResult("dirac", "rank2_action_vanishes", abs(act2) / scale2, EXACT_TOL))

    act4 = np.sum(np.einsum("xyi,xyi->xy", s, ds)) * cell
    scale4 = np.sum(np.abs(s * ds)) * cell
    nonzero = abs(act4) / scale4
    # reported "error" is the shortfall below the nonzero-ness threshold
    out.append(CheckResult("dirac", "rank4_action_nonzero", max(0.0, 1e-6 - nonzero), 0.0))
    return out


def projector_suite(grid: Grid, rng: np.random.Generator):
    """Grid-wide projector algebra on random gravitino fields."""
    out = []
    chi1 = rng.standard_normal(grid.shape + (2, 4))
    chi2 = rng.standard_normal(grid.shape + (2, 4))
    p1 = cl.p_project(chi1)
    q1 = cl.q_project(chi1)
    q2 = cl.q_project(chi2)
    out.append(CheckResult("projector", "p_plus_q", float(np.max(np.abs(p1 + q1 - chi1))), EXACT_TOL))
    cross = np.einsum("xyai,xyai->xy", p1, q2)
    out.append(CheckResult("projector", "p_q_orthogonal", float(np.max(np.abs(cross))), EXACT_TOL))
    qn = q_norm2_field(chi1)
    qq = np.einsum("xyai,xyai->xy", q1, q1)
    out.append(CheckResult("projector", "qnorm_identity", float(np.max(np.abs(qn - qq))), EXACT_TOL))
    return out


def symmetry_suite(phi, psi, chi, u, grid, target, rng, tdata=None):
    """Super-Weyl shift and the sign flip, term by term; checked unless given tdata.

    The five actions share phi, so they read one TargetData.
    """
    out = []
    if tdata is None:
        tdata = checked_target_data(target, phi, psi)
    spin = rng.standard_normal(grid.shape + (4,))
    psi_r, chi_r = conformal_rescale(psi, chi, u)
    chi_s, zero = chi + sigma_lift(spin), np.zeros(grid.shape)

    base = total_action(phi, psi, u, chi, grid, target, tdata=tdata)
    scale = 1.0 + max(abs(v) for v in base.to_dict().values())

    shifted = total_action(phi, psi, u, chi_s, grid, target, tdata=tdata)
    err = max(abs(a - b) for a, b in zip(base.to_dict().values(), shifted.to_dict().values()))
    out.append(CheckResult("symmetry", "super_weyl_shift", err / scale, EXACT_TOL))

    flipped = total_action(phi, -psi, u, -chi, grid, target, tdata=tdata)
    err = max(abs(a - b) for a, b in zip(base.to_dict().values(), flipped.to_dict().values()))
    out.append(CheckResult("symmetry", "sign_flip", err / scale, EXACT_TOL))

    # not exact at finite h (the Dirac conjugation leaks O(h^2)); generous bound
    conf = total_action(phi, psi_r, u, chi_r, grid, target, tdata=tdata)
    flat = total_action(phi, psi, zero, chi, grid, target, tdata=tdata)
    out.append(
        CheckResult("symmetry", "conformal_total", abs(conf.total - flat.total) / scale, 1e-1)
    )
    return out


def constraint_suite(psi, tdata: TargetData):
    """On-manifold violation of tdata's phi, and tangency violation of psi along its frame."""
    return [
        CheckResult("constraints", "on_manifold",
                    on_manifold_violation(tdata.target, tdata.phi), ON_MANIFOLD_TOL),
        CheckResult("constraints", "tangency", frame_violation(psi, tdata.nu), TANGENCY_TOL),
    ]


def run_all_checks(psi, chi, u, grid, tdata: TargetData, seed: int = 0):
    rng = np.random.default_rng(seed)
    constraints = constraint_suite(psi, tdata)
    # where a constraint fails, the symmetry suite checks again and raises ConstraintError
    checked = tdata if all(r.passed for r in constraints) else None
    results = []
    results += clifford_suite(rng)
    results += dirac_suite(grid, rng)
    results += projector_suite(grid, rng)
    results += symmetry_suite(tdata.phi, psi, chi, u, grid, tdata.target, rng, tdata=checked)
    results += constraints
    return results
