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

Curvature enters extrinsically through the second fundamental form A alone.
The Gauss tensor

    R_{abcd} = sum_l (A_{ca,l} A_{db,l} - A_{cb,l} A_{da,l}),
    SR(psi)^a = R_{abcd} psi^c <psi^d, psi^b>,   R(psi) = <SR(psi), psi>,

is never formed: with M_ac = <psi^a, psi^c>, A_l = A_{..,l} as a K x K
matrix and c_l = sum_bd A_bd,l M_bd, the two contractions are

    SR(psi) = sum_l (c_l A_l - A_l M A_l) psi,
    R(psi)  = sum_l (c_l^2 - <A_l M, M A_l>),

so the curvature density needs no SR (geometry.curvature_operator is the
independent oracle for R).  Quartic derivative couplings enter through nabla A,

    SnR(psi)^e = 2 (<(nabla_e A)_{ac}, A_{bd}> - <(nabla_e A)_{ad}, A_{bc}>)
                 <psi^a, psi^c> <psi^b, psi^d>,

which vanishes identically for round spheres.  nabla A is the target's closed
form (geometry nabla_a_tensor), and snr_of evaluates it from the same M, c_l
and A_l as matrix products,

    SnR^e = 2 sum_{a,c,l} (nabla_e A)_{ac,l} (c_l M_ac - (M A_l M)_ac).

Every term reads the target along phi from one geometry.TargetData: the
Dirac term is the conformal operator with its normal part along that frame
removed.  checked_target_data checks phi on N and psi tangent along that same
frame; a caller that passes tdata instead vouches for both constraints.

Contractions are matrix products (@) on site-major arrays, reshaped so that
the contracted spinor, frame or K axes form one matrix dimension (site_inner
for per-site pairings); unlike einsum, they report overflow under np.errstate.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import clifford as cl
from .fields import dirac_conformal, q_norm2_field, require_tangent, site_inner
from .geometry import (Grid, TargetData, TargetManifold, grad, require_on_manifold,
                       tangent_part_slots)

__all__ = [
    "ActionBreakdown",
    "TargetData",
    "target_data",
    "checked_target_data",
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
# the same as an (8, 8) matrix from the flattened slots (b, j) of chi to (e, i)
_GAMMA_CHI = np.ascontiguousarray(GG.transpose(0, 3, 1, 2).reshape(8, 8))
_GAMMA_CHI.setflags(write=False)


def gamma_chi(chi: np.ndarray) -> np.ndarray:
    """Gamma chi[..., e, i] = sum_b (gamma_b gamma_e chi^b)_i, shaped like chi."""
    return (chi.reshape(-1, 8) @ _GAMMA_CHI).reshape(chi.shape)


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


def target_data(target: TargetManifold, phi: np.ndarray) -> TargetData:
    return TargetData(target, phi)


def checked_target_data(target: TargetManifold, phi: np.ndarray, psi: np.ndarray) -> TargetData:
    """target_data of phi after checking phi on N and psi tangent along its frame."""
    require_on_manifold(target, phi)
    tdata = target_data(target, phi)
    require_tangent(psi, tdata.nu)
    return tdata


# ---- per-site densities (sum * cell_area = term; None where a term vanishes) ----


def _dirichlet_density(dphi: np.ndarray) -> np.ndarray:
    return np.sum(dphi * dphi, axis=(0, -1))


def _dirac_density(psi, u, grid, tdata) -> np.ndarray | None:
    if not np.any(psi):
        return None
    tw = tangent_part_slots(tdata.nu, dirac_conformal(psi, u, grid))
    return site_inner(psi, tw) * np.exp(3.0 * u)


def _gravitino_density(dphi, psi, chi, u) -> np.ndarray | None:
    if not (np.any(psi) and np.any(chi)):
        return None
    # sum_b d_b phi^k (Gamma chi)[b] is the coefficient of psi^k
    return 2.0 * site_inner(psi, np.moveaxis(dphi, 0, -1) @ gamma_chi(chi)) * np.exp(2.0 * u)


def _qchi_density(psi, chi, u) -> np.ndarray | None:
    if not (np.any(psi) and np.any(chi)):
        return None
    return -(q_norm2_field(chi) * site_inner(psi, psi) * np.exp(4.0 * u))


def _gauss_parts(psi, tdata: TargetData) -> tuple:
    """M_ac = <psi^a, psi^c>, A_l as (..., L, K, K) and c_l = sum_bd A_bd,l M_bd, (..., L, 1)."""
    m = psi @ np.swapaxes(psi, -1, -2)
    a_l = np.moveaxis(tdata.asym, -1, -3)
    lead, L, K = a_l.shape[:-3], a_l.shape[-3], a_l.shape[-1]
    c = a_l.reshape(lead + (L, K * K)) @ m.reshape(lead + (K * K, 1))
    return m, a_l, c


def _curvature_density(psi, u, tdata) -> np.ndarray | None:
    if not np.any(psi):
        return None
    m, a_l, c = _gauss_parts(psi, tdata)
    am = a_l @ m[..., None, :, :]                             # A_l M, the transpose of M A_l
    r = site_inner(c, c) - site_inner(am, np.swapaxes(am, -1, -2))
    return -r * np.exp(4.0 * u) / 6.0


def _densities(phi, psi, u, chi, grid, target, tdata=None) -> tuple:
    """Densities of the summands I..V, in order; None where a term vanishes."""
    if tdata is None and np.any(psi):
        tdata = target_data(target, phi)
    dphi = grad(phi, grid)
    return (
        _dirichlet_density(dphi),
        _dirac_density(psi, u, grid, tdata),
        _gravitino_density(dphi, psi, chi, u),
        _qchi_density(psi, chi, u),
        _curvature_density(psi, u, tdata),
    )


def _integral(density: np.ndarray | None, grid: Grid) -> float:
    return 0.0 if density is None else float(np.sum(density) * grid.cell_area)


# ---- individual terms ----------------------------------------------------------


def term_dirichlet(phi: np.ndarray, u: np.ndarray, grid: Grid) -> float:
    """Map kinetic term; conformally invariant in 2d, so u never enters."""
    return _integral(_dirichlet_density(grad(phi, grid)), grid)


def term_dirac(psi, phi, u, grid, target) -> float:
    """sum <psi, D psi> e^{3u} h1 h2 with the twisted conformal operator."""
    tdata = target_data(target, phi)
    require_tangent(psi, tdata.nu)
    return _integral(_dirac_density(psi, u, grid, tdata), grid)


def term_gravitino(phi, psi, chi, u, grid) -> float:
    """Linear gravitino-spinor coupling; depends on chi only through Q chi."""
    return _integral(_gravitino_density(grad(phi, grid), psi, chi, u), grid)


def term_qchi(chi, psi, u, grid) -> float:
    """-|Q chi|^2 |psi|^2 weighted by e^{4u}; never positive."""
    return _integral(_qchi_density(psi, chi, u), grid)


def sr_of(psi, phi, target, tdata: TargetData | None = None) -> np.ndarray:
    """Cubic curvature contraction SR(psi) = sum_l (c_l A_l - A_l M A_l) psi, tangent."""
    if tdata is None:
        tdata = target_data(target, phi)
    m, a_l, c = _gauss_parts(psi, tdata)
    w = np.sum(c[..., None] * a_l - (a_l @ m[..., None, :, :]) @ a_l, axis=-3)
    return w @ psi


def term_curvature(psi, phi, u, grid, target) -> float:
    """-(1/6) sum <SR(psi), psi> e^{4u} h1 h2."""
    return _integral(_curvature_density(psi, u, target_data(target, phi)), grid)


def snr_of(psi, phi, target, tdata: TargetData | None = None) -> np.ndarray:
    """Quartic contraction of the curvature derivative; zero on round spheres."""
    if target.parallel_second_fund:
        return np.zeros_like(phi)
    if tdata is None:
        tdata = target_data(target, phi)
    natensor = target.nabla_a_tensor(phi, tdata)              # (x, y, e, a, c, l)
    m, a_l, c = _gauss_parts(psi, tdata)
    w = c[..., None] * m[..., None, :, :] - m[..., None, :, :] @ a_l @ m[..., None, :, :]
    w = np.moveaxis(w, -3, -1)                                # (x, y, a, c, l)
    return 2.0 * (natensor.reshape(phi.shape + (-1,)) @ w.reshape(phi.shape[:-1] + (-1, 1)))[..., 0]


# ---- totals ---------------------------------------------------------------------


def total_action(phi, psi, u, chi, grid, target,
                 tdata: TargetData | None = None) -> ActionBreakdown:
    """All five terms and their total, summed in a fixed order; checked unless given tdata."""
    if tdata is None:
        tdata = checked_target_data(target, phi, psi)
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
