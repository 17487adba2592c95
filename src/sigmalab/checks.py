"""The constraint and symmetry suites behind ``sigmalab check``, with pass/fail reporting.

Each suite reads the config's own fields and reports the worst deviation
against its tolerance: the constraint suite measures phi on N and psi tangent
along phi's frame, and the symmetry suite compares the five-term action under
the super-Weyl shift, the sign flip (psi, chi) -> (-psi, -chi) and the
conformal change.  The only random draw is the spinor of the super-Weyl shift.
run_all_checks builds no frame: every suite reads the TargetData of phi it is
handed (the command line hands it the one parse_config built).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .action import checked_target_data, total_action
from .clifford import sigma_lift
from .fields import TANGENCY_TOL, conformal_rescale, frame_violation
from .geometry import ON_MANIFOLD_TOL, TargetData, on_manifold_violation

__all__ = ["CheckResult", "symmetry_suite", "constraint_suite", "run_all_checks"]

EXACT_TOL = 1e-12   # tolerance of the identities that hold to rounding


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


def symmetry_suite(psi, chi, u, grid, tdata: TargetData, rng):
    """Super-Weyl shift and the sign flip, term by term, at phi's TargetData tdata.

    The five actions share phi and only negate or rescale psi, so they read tdata.
    """
    out = []
    phi, target = tdata.phi, tdata.target
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
    if not all(r.passed for r in constraints):
        checked_target_data(tdata.target, tdata.phi, psi)   # raises the ConstraintError
    return symmetry_suite(psi, chi, u, grid, tdata, rng) + constraints
