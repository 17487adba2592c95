"""The action functional: five summands plus the curvature contractions.

With site quadrature (cell weight h1 h2), orthonormal-frame factors e^{-u},
volume factor e^{2u}, and the spinor-metric rescale e^{u} per spinor inner
product, the discrete summands carry the net conformal weights

    I   sum_a |d^h_a phi|^2                                   (weight 1)
    II  <psi, D psi>                                          e^{3u}
    III 2 <gamma_a gamma_b chi^a, psi^k> d^h_b phi^k          e^{2u}
    IV  -|Q chi|^2 |psi|^2                                    e^{4u}
    V   -(1/6) R(psi)                                         e^{4u}

These weights make the super-Weyl shift chi -> chi + sigma(s), the sign flip
(psi, chi) -> (-psi, -chi), and the generalized conformal change
(psi, chi, u) -> (e^{-u} psi, e^{-u} chi, u) exact or second-order-exact at
the discrete level (the only O(h^2) leak is the conformal conjugation inside
the Dirac term).

Curvature enters extrinsically through the Gauss tensor built from the second
fundamental form,

    R_{abcd} = sum_l (A_{ca,l} A_{db,l} - A_{cb,l} A_{da,l}),
    SR(psi)^a = R_{abcd} psi^c <psi^d, psi^b>,   R(psi) = <SR(psi), psi>,

quartic derivative couplings through nabla A,

    SnR(psi)^e = 2 (<(nabla_e A)_{ac}, A_{bd}> - <(nabla_e A)_{ad}, A_{bc}>)
                 <psi^a, psi^c> <psi^b, psi^d>,

which vanishes identically for round spheres.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from . import clifford as cl
from .fields import q_norm2_field, require_tangent, twisted_dirac
from .geometry import Grid, TargetManifold, grad, require_on_manifold

__all__ = [
    "ActionBreakdown",
    "TargetData",
    "target_data",
    "gamma_chi",
    "term_dirichlet",
    "term_dirac",
    "term_gravitino",
    "term_qchi",
    "term_curvature",
    "sr_of",
    "snr_of",
    "total_action",
    "action_density",
    "action_value",
]

# gamma_a gamma_b products, indexed [a, b, i, j]
GG = np.einsum("aik,bkj->abij", cl.GAMMA, cl.GAMMA)
GG.setflags(write=False)


def gamma_chi(chi: np.ndarray) -> np.ndarray:
    """Gamma chi[..., e, i] = sum_b (gamma_b gamma_e chi^b)_i, shaped like chi."""
    return np.einsum("beij,xybj->xyei", GG, chi)


@dataclass(frozen=True)
class ActionBreakdown:
    """The five summands and their total (fixed summation order)."""

    I_dirichlet: float
    II_dirac: float
    III_gravitino: float
    IV_qchi: float
    V_curvature: float
    total: float

    def to_dict(self) -> dict:
        return asdict(self)


class TargetData:
    """Per-site extrinsic data of the target along a map field.

    The normal frame and its derivative are computed eagerly; the tangent
    projector, the symmetrized second-fundamental-form tensor and the Gauss
    tensor only on first use, by the contractions that need them (tangential
    parts of fields are taken from nu, so the zero-spinor paths never do).
    """

    def __init__(self, target: TargetManifold, phi: np.ndarray):
        self._target = target
        self._phi = phi
        self.nu = target.normal_frame(phi)              # (n1, n2, L, K)
        self.dnu = target.normal_frame_derivative(phi)  # (n1, n2, L, K, K)

    @cached_property
    def pi(self) -> np.ndarray:
        """Pi[..., a, b] = delta_ab - sum_l nu_l^a nu_l^b."""
        return self._target.tangent_projector(self._phi)

    @cached_property
    def asym(self) -> np.ndarray:
        """Asym[..., a, b, l] = <A(Pi e_a, Pi e_b), nu_l>, exactly symmetric."""
        raw = -np.einsum("...ac,...bd,...lcd->...abl", self.pi, self.pi, self.dnu)
        return 0.5 * (raw + np.swapaxes(raw, -3, -2))

    @cached_property
    def rtensor(self) -> np.ndarray:
        """Gauss tensor R_{abcd} = sum_l (A_{ca} A_{db} - A_{cb} A_{da})_l."""
        return np.einsum("...cal,...dbl->...abcd", self.asym, self.asym) - np.einsum(
            "...cbl,...dal->...abcd", self.asym, self.asym
        )


def target_data(target: TargetManifold, phi: np.ndarray) -> TargetData:
    return TargetData(target, phi)


# ---- per-site densities (sum * cell_area = term; None where a term vanishes) ----


def _dirichlet_density(dphi: np.ndarray) -> np.ndarray:
    return np.sum(dphi * dphi, axis=(0, -1))


def _dirac_density(psi, phi, u, grid, target) -> np.ndarray | None:
    if not np.any(psi):
        return None
    tw = twisted_dirac(psi, phi, u, grid, target, check=False)
    return np.einsum("xyai,xyai->xy", psi, tw) * np.exp(3.0 * u)


def _gravitino_density(dphi, psi, chi, u) -> np.ndarray | None:
    if not (np.any(psi) and np.any(chi)):
        return None
    return 2.0 * np.einsum("xybi,xyki,bxyk->xy", gamma_chi(chi), psi, dphi) * np.exp(2.0 * u)


def _qchi_density(psi, chi, u) -> np.ndarray | None:
    if not (np.any(psi) and np.any(chi)):
        return None
    pn2 = np.einsum("xyai,xyai->xy", psi, psi)
    return -(q_norm2_field(chi) * pn2 * np.exp(4.0 * u))


def _curvature_density(psi, phi, u, target, tdata) -> np.ndarray | None:
    if not np.any(psi):
        return None
    sr = sr_of(psi, phi, target, tdata)
    return -np.einsum("xyai,xyai->xy", sr, psi) * np.exp(4.0 * u) / 6.0


def _densities(phi, psi, u, chi, grid, target, tdata=None) -> tuple:
    """Densities of the summands I..V, in order; None where a term vanishes."""
    if tdata is None and np.any(psi):
        tdata = target_data(target, phi)
    dphi = grad(phi, grid)
    return (
        _dirichlet_density(dphi),
        _dirac_density(psi, phi, u, grid, target),
        _gravitino_density(dphi, psi, chi, u),
        _qchi_density(psi, chi, u),
        _curvature_density(psi, phi, u, target, tdata),
    )


def _integral(density: np.ndarray | None, grid: Grid) -> float:
    return 0.0 if density is None else float(np.sum(density) * grid.cell_area)


# ---- individual terms ----------------------------------------------------------


def term_dirichlet(phi: np.ndarray, u: np.ndarray, grid: Grid) -> float:
    """Map kinetic term; conformally invariant in 2d, so u never enters."""
    return _integral(_dirichlet_density(grad(phi, grid)), grid)


def term_dirac(psi, phi, u, grid, target, check: bool = True) -> float:
    """sum <psi, D psi> e^{3u} h1 h2 with the twisted conformal operator."""
    if check:
        require_tangent(psi, phi, target)
    return _integral(_dirac_density(psi, phi, u, grid, target), grid)


def term_gravitino(phi, psi, chi, u, grid) -> float:
    """Linear gravitino-spinor coupling; depends on chi only through Q chi."""
    return _integral(_gravitino_density(grad(phi, grid), psi, chi, u), grid)


def term_qchi(chi, psi, u, grid) -> float:
    """-|Q chi|^2 |psi|^2 weighted by e^{4u}; never positive."""
    return _integral(_qchi_density(psi, chi, u), grid)


def sr_of(psi, phi, target, tdata: TargetData | None = None) -> np.ndarray:
    """Cubic curvature contraction SR(psi); tangent, with <SR, psi> = R(psi)."""
    if tdata is None:
        tdata = target_data(target, phi)
    inner = np.einsum("xydi,xybi->xydb", psi, psi)
    m = np.einsum("xyabcd,xydb->xyac", tdata.rtensor, inner)
    return np.einsum("xyac,xyci->xyai", m, psi)


def term_curvature(psi, phi, u, grid, target, tdata: TargetData | None = None) -> float:
    """-(1/6) sum <SR(psi), psi> e^{4u} h1 h2."""
    return _integral(_curvature_density(psi, phi, u, target, tdata), grid)


def snr_of(psi, phi, target, tdata: TargetData | None = None) -> np.ndarray:
    """Quartic contraction of the curvature derivative; zero on round spheres."""
    if target.parallel_second_fund:
        return np.zeros_like(phi)
    if tdata is None:
        tdata = target_data(target, phi)
    natensor = target.nabla_a_tensor(phi)
    inner = np.einsum("xyai,xyci->xyac", psi, psi)
    c1 = np.einsum("xyeacl,xyac->xyel", natensor, inner)
    c2 = np.einsum("xybdl,xybd->xyl", tdata.asym, inner)
    t1 = np.einsum("xyel,xyl->xye", c1, c2)
    x1 = np.einsum("xyeadl,xyac->xyecdl", natensor, inner)
    t2 = np.einsum("xyecdl,xybcl,xybd->xye", x1, tdata.asym, inner)
    return 2.0 * (t1 - t2)


# ---- totals ---------------------------------------------------------------------


def total_action(phi, psi, u, chi, grid, target, check: bool = True,
                 tdata: TargetData | None = None) -> ActionBreakdown:
    """All five terms plus their total, summed in a fixed order."""
    if check:
        require_on_manifold(target, phi)
        require_tangent(psi, phi, target)
    densities = _densities(phi, psi, u, chi, grid, target, tdata)
    t1, t2, t3, t4, t5 = (_integral(d, grid) for d in densities)
    total = ((t1 + t2) + t3 + t4) + t5
    return ActionBreakdown(t1, t2, t3, t4, t5, total)


def action_density(phi, psi, u, chi, grid, target,
                   tdata: TargetData | None = None) -> np.ndarray:
    """Per-site integrand of the total action (sum * cell_area = total).

    Every site's density depends on the fields only within one stencil step,
    which the finite-difference oracle exploits for local delta evaluation.
    """
    dens, *rest = _densities(phi, psi, u, chi, grid, target, tdata)
    for d in rest:
        if d is not None:
            dens = dens + d
    return dens


def action_value(phi, psi, u, chi, grid, target, tdata: TargetData | None = None) -> float:
    """Lean total for the finite-difference oracle; no constraint checks."""
    return _integral(action_density(phi, psi, u, chi, grid, target, tdata), grid)
