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

The intermediates that the action shares with both residuals at one
(phi, psi, chi, u) live in one FieldData beside that TargetData, each built on
first use: d phi, D_u psi, d phi . Gamma chi, |Q chi|^2 and the Gauss parts
(M, A_l, c_l and A_l M).  A joint evaluation hands one FieldData to
residual_phi, residual_psi and total_action, in that order; total_action is the
last reader and takes each part out as it reads it, so none outlives its
density.  A caller that passes fdata vouches for the constraints as with tdata;
one that passes neither gets the parts computed afresh, so every standalone
value is unchanged.

Contractions are matrix products (@) on site-major arrays, reshaped so that
the contracted spinor, frame or K axes form one matrix dimension (site_inner
for per-site pairings); unlike einsum, they report overflow under np.errstate.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property

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
    "GaussParts",
    "FieldData",
    "field_data",
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


class GaussParts:
    """M_ac = <psi^a, psi^c>, A_l as (..., L, K, K) and c_l = sum_bd A_bd,l M_bd, (..., L, 1),
    read by sr_of, snr_of and the curvature density; A_l M on first use."""

    def __init__(self, psi: np.ndarray, tdata: TargetData):
        self.psi = psi
        self.a_l = np.moveaxis(tdata.asym, -1, -3)
        lead, L, K = self.a_l.shape[:-3], self.a_l.shape[-3], self.a_l.shape[-1]
        self.c = self.a_l.reshape(lead + (L, K * K)) @ self.m.reshape(lead + (K * K, 1))

    @cached_property
    def m(self) -> np.ndarray:
        return self.psi @ np.swapaxes(self.psi, -1, -2)

    @cached_property
    def a_m(self) -> np.ndarray:
        """A_l M, the transpose of M A_l.  M is dropped once A_l M is built (reading it
        again recomputes it): SR and the curvature density read c_l and A_l M alone."""
        a_m = self.a_l @ self.m[..., None, :, :]
        del self.__dict__["m"]
        return a_m


class FieldData:
    """The intermediates one evaluation of both residuals and the action shares
    at (phi, psi, chi, u), each built on first use: d phi, D_u psi, the
    gravitino coefficient d phi . Gamma chi of psi, |Q chi|^2 and the Gauss
    parts of psi.  tdata is the TargetData of phi, built from target on first
    use when not given; the other arguments are needed only by the parts that
    read them.  take(name) hands a part to its last reader and drops it."""

    def __init__(self, phi, psi, chi=None, u=None, grid: Grid | None = None, *,
                 target: TargetManifold | None = None, tdata: TargetData | None = None):
        self.phi, self.psi, self.chi, self.u, self.grid = phi, psi, chi, u, grid
        self.target = target
        if tdata is not None:
            self.tdata = tdata

    @cached_property
    def tdata(self) -> TargetData:
        return target_data(self.target, self.phi)

    @cached_property
    def has_psi(self) -> bool:
        return bool(np.any(self.psi))

    @cached_property
    def has_chi(self) -> bool:
        return bool(np.any(self.chi))

    @cached_property
    def dphi(self) -> np.ndarray:
        return grad(self.phi, self.grid)

    @cached_property
    def dirac(self) -> np.ndarray:
        """D_u psi, slot-wise (not yet tangent)."""
        return dirac_conformal(self.psi, self.u, self.grid)

    @cached_property
    def dphi_gamma_chi(self) -> np.ndarray:
        """sum_b d_b phi^k (Gamma chi)[b], the coefficient of psi^k, shaped like psi."""
        return np.moveaxis(self.dphi, 0, -1) @ gamma_chi(self.chi)

    @cached_property
    def q_chi2(self) -> np.ndarray:
        return q_norm2_field(self.chi)

    @cached_property
    def gauss(self) -> GaussParts:
        return GaussParts(self.psi, self.tdata)

    def take(self, name: str):
        """The part name, computed if need be and no longer kept (reading it again recomputes it)."""
        value = getattr(self, name)
        del self.__dict__[name]
        return value


def field_data(phi, psi, chi, u, grid, target, tdata: TargetData | None = None) -> FieldData:
    """FieldData of the fields on tdata, or on checked_target_data(target, phi, psi)."""
    if tdata is None:
        tdata = checked_target_data(target, phi, psi)
    return FieldData(phi, psi, chi, u, grid, tdata=tdata)


# ---- per-site densities (sum * cell_area = term; None where a term vanishes) ----
# Each reads its parts from a FieldData and takes them: the action reads them last.


def _dirichlet_density(dphi: np.ndarray) -> np.ndarray:
    return np.sum(dphi * dphi, axis=(0, -1))


def _dirac_density(fd: FieldData) -> np.ndarray | None:
    if not fd.has_psi:
        return None
    tw = tangent_part_slots(fd.tdata.nu, fd.take("dirac"))
    return site_inner(fd.psi, tw) * np.exp(3.0 * fd.u)


def _gravitino_density(fd: FieldData) -> np.ndarray | None:
    if not (fd.has_psi and fd.has_chi):
        return None
    return 2.0 * site_inner(fd.psi, fd.take("dphi_gamma_chi")) * np.exp(2.0 * fd.u)


def _qchi_density(fd: FieldData) -> np.ndarray | None:
    if not (fd.has_psi and fd.has_chi):
        return None
    return -(fd.take("q_chi2") * site_inner(fd.psi, fd.psi) * np.exp(4.0 * fd.u))


def _curvature_density(psi, u, tdata, gauss: GaussParts | None = None) -> np.ndarray | None:
    if not np.any(psi):
        return None
    if gauss is None:
        gauss = GaussParts(psi, tdata)
    c, am = gauss.c, gauss.a_m
    r = site_inner(c, c) - site_inner(am, np.swapaxes(am, -1, -2))
    return -r * np.exp(4.0 * u) / 6.0


def _densities(phi, psi, u, chi, grid, target, tdata=None,
               fdata: FieldData | None = None) -> tuple:
    """Densities of the summands I..V, in order; None where a term vanishes.

    The parts come from fdata, or from a fresh FieldData when it is None.
    """
    fd = fdata if fdata is not None else FieldData(phi, psi, chi, u, grid, target=target,
                                                   tdata=tdata)
    ii, iii, iv = _dirac_density(fd), _gravitino_density(fd), _qchi_density(fd)
    v = _curvature_density(psi, u, fd.tdata, fd.take("gauss")) if fd.has_psi else None
    # d phi last: the gravitino coefficient is built from it when fd does not hold it yet
    return _dirichlet_density(fd.take("dphi")), ii, iii, iv, v


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
    return _integral(_dirac_density(FieldData(phi, psi, u=u, grid=grid, tdata=tdata)), grid)


def term_gravitino(phi, psi, chi, u, grid) -> float:
    """Linear gravitino-spinor coupling; depends on chi only through Q chi."""
    return _integral(_gravitino_density(FieldData(phi, psi, chi, u, grid)), grid)


def term_qchi(chi, psi, u, grid) -> float:
    """-|Q chi|^2 |psi|^2 weighted by e^{4u}; never positive."""
    return _integral(_qchi_density(FieldData(None, psi, chi, u)), grid)


def sr_of(psi, phi, target, tdata: TargetData | None = None,
          fdata: FieldData | None = None) -> np.ndarray:
    """Cubic curvature contraction SR(psi) = sum_l (c_l A_l - A_l M A_l) psi, tangent.

    fdata, when given, is the FieldData of (phi, psi) and supplies the Gauss parts.
    """
    if fdata is None:
        fdata = FieldData(phi, psi, target=target, tdata=tdata)
    g = fdata.gauss
    w = np.sum(g.c[..., None] * g.a_l - g.a_m @ g.a_l, axis=-3)
    return w @ psi


def term_curvature(psi, phi, u, grid, target) -> float:
    """-(1/6) sum <SR(psi), psi> e^{4u} h1 h2."""
    return _integral(_curvature_density(psi, u, target_data(target, phi)), grid)


def snr_of(psi, phi, target, tdata: TargetData | None = None,
           fdata: FieldData | None = None) -> np.ndarray:
    """Quartic contraction of the curvature derivative; zero on round spheres.

    fdata, when given, is the FieldData of (phi, psi) and supplies the Gauss
    parts, built after nabla A when it does not hold them yet.
    """
    if target.parallel_second_fund:
        return np.zeros_like(phi)
    if fdata is None:
        fdata = FieldData(phi, psi, target=target, tdata=tdata)
    natensor = target.nabla_a_tensor(phi, fdata.tdata)        # (x, y, e, a, c, l)
    g = fdata.gauss
    m, a_l, c = g.m, g.a_l, g.c
    w = c[..., None] * m[..., None, :, :] - m[..., None, :, :] @ a_l @ m[..., None, :, :]
    w = np.moveaxis(w, -3, -1)                                # (x, y, a, c, l)
    return 2.0 * (natensor.reshape(phi.shape + (-1,)) @ w.reshape(phi.shape[:-1] + (-1, 1)))[..., 0]


# ---- totals ---------------------------------------------------------------------


def total_action(phi, psi, u, chi, grid, target, tdata: TargetData | None = None,
                 fdata: FieldData | None = None) -> ActionBreakdown:
    """All five terms and their total, summed in a fixed order; checked unless given
    tdata or fdata.  fdata, when given, is the FieldData of these fields; the
    action reads its parts last and takes them out."""
    if fdata is None:
        fdata = field_data(phi, psi, chi, u, grid, target, tdata)
    densities = _densities(phi, psi, u, chi, grid, target, fdata=fdata)
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
