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

Term III reads chi through Gamma chi = sum_b gamma_b gamma_e chi^b, which is
exactly -2 Q chi (gamma_chi reads clifford.q_project): the action depends on
chi only through Q chi.

Curvature enters extrinsically through the second fundamental form A alone.
The Gauss tensor

    R_{abcd} = sum_l (A_{ca,l} A_{db,l} - A_{cb,l} A_{da,l}),
    SR(psi)^a = R_{abcd} psi^c <psi^d, psi^b>,   R(psi) = <SR(psi), psi>,

is never formed: with M_ac = <psi^a, psi^c>, A_l = A_{..,l} as a K x K
matrix and c_l = sum_bd A_bd,l M_bd, the two contractions are

    SR(psi) = sum_l (c_l A_l - A_l M A_l) psi,
    R(psi)  = sum_l (c_l^2 - <A_l M, M A_l>),

so the curvature density needs no SR (tests/oracles.py holds curvature_operator,
the independent oracle for R).  Quartic derivative couplings enter through nabla A,

    SnR(psi)^e = 2 (<(nabla_e A)_{ac}, A_{bd}> - <(nabla_e A)_{ad}, A_{bc}>)
                 <psi^a, psi^c> <psi^b, psi^d>,

which vanishes identically for round spheres.  nabla A is the target's closed
form along phi's TargetData (geometry nabla_a_tensor), and snr_of evaluates it
from the same M, c_l and A_l M as matrix products,

    SnR^e = 2 sum_{a,c,l} (nabla_e A)_{ac,l} (c_l M_ac - (M (A_l M))_ac).

Every term reads the target along phi from one geometry.TargetData: the
Dirac term is the conformal operator with its normal part along that frame
removed.

The intermediates that the action shares with both residuals at one
(phi, psi, chi, u) live in one FieldData beside that TargetData, each built on
first use: d phi, D_u psi, d phi . Gamma chi, |Q chi|^2 and the Gauss parts M,
c_l and A_l M (A_l is the TargetData's).  A part's last reader takes it
(FieldData.take), so none outlives its use: A_l M takes M, after building c_l
from it, and total_action, the last reader of a joint evaluation (residual_phi,
residual_psi, then total_action on one FieldData), takes each part it reads.
Every evaluation takes its FieldData from field_data, which states when the
constraints are checked.

The parts and the contractions are component-major (see _planes): psi as
(K, 4, n1, n2), d phi as (2, K, n1, n2), and M, A_l, c_l and A_l M as (K, K, ...),
(L, K, K, ...), (L, ...) and (L, K, K, ...), sites last.  Each per-site product
is a short sum of elementwise products of whole site planes (_planes.contract),
so there is no einsum and no product per site, and overflow raises under
np.errstate.  FieldData converts each field once; the public functions keep the
site-major layouts and return site-major views.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from . import clifford as cl
from ._planes import contract, pair, tangent, to_planes, to_sites
from .fields import dirac_conformal, q_norm2_field, require_tangent
from .geometry import Grid, TargetData, TargetManifold, grad, require_on_manifold

__all__ = [
    "ActionBreakdown",
    "TargetData",
    "target_data",
    "checked_target_data",
    "FieldData",
    "field_data",
    "gamma_chi",
    "snr_of",
    "total_action",
    "action_density",
]

def gamma_chi(chi: np.ndarray) -> np.ndarray:
    """Gamma chi[..., e, i] = sum_b (gamma_b gamma_e chi^b)_i = -2 (Q chi)[..., e, i],
    shaped like chi."""
    g = cl.q_project(chi)
    g *= -2.0
    return g


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


class FieldData:
    """The intermediates one evaluation of both residuals and the action shares
    at (phi, psi, chi, u), each built on first use: psi_c (K, 4, ...), d phi
    (2, K, ...), D_u psi, the gravitino coefficient d phi . Gamma chi of psi
    (K, 4, ...), |Q chi|^2 and the Gauss parts of psi along tdata: M (K, K, ...),
    c_l (L, ...) and A_l M (L, K, K, ...), with A_l = tdata.asym_c (L, K, K, ...).
    All but D_u psi, which keeps the flat Dirac operator's site-major layout, are
    component-major; the fields themselves stay as given.  tdata is the TargetData
    of phi; the other arguments are needed only by the parts that read them.
    take(name) hands a part to its last reader and drops it."""

    def __init__(self, phi, psi, chi=None, u=None, grid: Grid | None = None, *,
                 tdata: TargetData):
        self.phi, self.psi, self.chi, self.u, self.grid = phi, psi, chi, u, grid
        self.tdata = tdata

    @cached_property
    def has_psi(self) -> bool:
        return bool(np.any(self.psi))

    @cached_property
    def has_chi(self) -> bool:
        return bool(np.any(self.chi))

    @cached_property
    def psi_c(self) -> np.ndarray:
        return to_planes(self.psi, 2)

    @cached_property
    def dphi(self) -> np.ndarray:
        """d phi[e, b, ...] = d_e phi^b."""
        return to_planes(np.moveaxis(grad(self.phi, self.grid), 0, -2), 2)

    @cached_property
    def dirac(self) -> np.ndarray:
        """D_u psi, slot-wise (not yet tangent), site-major like psi: the flat Dirac
        operator's own layout."""
        return dirac_conformal(self.psi, self.u, self.grid)

    def gamma_chi(self) -> np.ndarray:
        """Gamma chi, component-major (2, 4, ...); recomputed on each call, not kept."""
        return to_planes(gamma_chi(self.chi), 2)

    @cached_property
    def dphi_gamma_chi(self) -> np.ndarray:
        """sum_b d_b phi^k (Gamma chi)[b], the coefficient of psi^k, shaped like psi_c."""
        d, g = self.dphi, self.gamma_chi()
        out, tmp = np.empty(d.shape[1:2] + g.shape[1:]), np.empty(g.shape[1:])
        for k in range(d.shape[1]):     # row by row, so that the temporary is one row
            contract(d[:, k], g, out[k], tmp=tmp)
        return out

    @cached_property
    def q_chi2(self) -> np.ndarray:
        return q_norm2_field(self.chi)

    @cached_property
    def m(self) -> np.ndarray:
        """M[a, c] = <psi^a, psi^c>."""
        p = self.psi_c.swapaxes(0, 1)                       # p[i] = (psi^a_i)_a
        return contract(p[:, :, None], p[:, None], np.empty(p.shape[1:2] + p.shape[1:]))

    @cached_property
    def c(self) -> np.ndarray:
        """c_l = sum_bd A_l[b, d] M[b, d]."""
        a_l = self.tdata.asym_c
        L, K, sites = a_l.shape[0], a_l.shape[1], a_l.shape[3:]
        flat = a_l.reshape((L, K * K) + sites).swapaxes(0, 1)
        return contract(flat, self.m.reshape((K * K,) + sites), np.empty((L,) + sites))

    @cached_property
    def a_m(self) -> np.ndarray:
        """A_l M, the transpose of M A_l.  It takes M, after building c_l from it: SR and
        the curvature density read c_l and A_l M alone."""
        self.c                          # c_l reads M, which A_l M takes
        a_l, m = self.tdata.asym_c, self.take("m")
        a_m, tmp = np.empty_like(a_l), np.empty(a_l.shape[:1] + a_l.shape[2:])
        for a in range(a_l.shape[1]):   # row by row, so that the temporary is one row
            contract(np.moveaxis(a_l[:, a], 1, 0)[:, :, None], m[:, None], a_m[:, a], tmp=tmp)
        return a_m

    def take(self, name: str):
        """The part name, computed if need be and no longer kept (reading it again recomputes it)."""
        value = getattr(self, name)
        del self.__dict__[name]
        return value


def field_data(phi, psi, chi, u, grid, target, tdata: TargetData | None = None,
               fdata: FieldData | None = None) -> FieldData:
    """The FieldData every evaluation reads: fdata when given, else that of the fields on
    tdata, else on checked_target_data(target, phi, psi).  So the constraints are checked
    exactly when neither tdata nor fdata is handed in, and a caller that hands one vouches
    for them.  A handed fdata is the whole input: the other arguments are not read."""
    if fdata is not None:
        return fdata
    if tdata is None:
        tdata = checked_target_data(target, phi, psi)
    return FieldData(phi, psi, chi, u, grid, tdata=tdata)


# ---- per-site densities (sum * cell_area = term; None where a term vanishes) ----
# Each reads its parts from a FieldData and takes them: the action reads them last.


def _dirichlet_density(dphi: np.ndarray) -> np.ndarray:
    return pair(dphi, dphi, 2)


def _dirac_density(fd: FieldData) -> np.ndarray | None:
    if not fd.has_psi:
        return None
    tw = tangent(fd.tdata.nu_c, to_planes(fd.take("dirac"), 2))
    return pair(fd.psi_c, tw, 2) * np.exp(3.0 * fd.u)


def _gravitino_density(fd: FieldData) -> np.ndarray | None:
    if not (fd.has_psi and fd.has_chi):
        return None
    return 2.0 * pair(fd.psi_c, fd.take("dphi_gamma_chi"), 2) * np.exp(2.0 * fd.u)


def _qchi_density(fd: FieldData) -> np.ndarray | None:
    if not (fd.has_psi and fd.has_chi):
        return None
    return -(fd.take("q_chi2") * pair(fd.psi_c, fd.psi_c, 2) * np.exp(4.0 * fd.u))


def _curvature_density(fd: FieldData) -> np.ndarray | None:
    if not fd.has_psi:
        return None
    am = fd.take("a_m")                 # before c_l, which A_l M builds
    c = fd.take("c")
    r = contract(c, c, np.empty(c.shape[1:]))
    r -= contract(am, am.swapaxes(1, 2), np.empty(c.shape[1:]), axes=3)
    return -r * np.exp(4.0 * fd.u) / 6.0


def _densities(fd: FieldData) -> tuple:
    """Densities of the summands I..V of fd's fields, in order; None where a term vanishes."""
    ii, iii, iv = _dirac_density(fd), _gravitino_density(fd), _qchi_density(fd)
    # d phi after the gravitino coefficient, which is built from it when fd does not hold
    # it yet, and before the Gauss parts, which a fresh fd builds last
    i = _dirichlet_density(fd.take("dphi"))
    return i, ii, iii, iv, _curvature_density(fd)


def _integral(density: np.ndarray | None, grid: Grid) -> float:
    return 0.0 if density is None else float(np.sum(density) * grid.cell_area)


# ---- curvature contractions ----------------------------------------------------


def sr_planes(fd: FieldData) -> np.ndarray:
    """SR(psi) = sum_l (c_l A_l - A_l M A_l) psi from fd's Gauss parts, shaped like fd.psi_c."""
    a_l, a_m = fd.tdata.asym_c, fd.a_m
    buf = np.empty(a_l.shape[1:])
    ama = contract(a_m.swapaxes(1, 2)[:, :, :, None], a_l[:, :, None],    # sum_l A_l M A_l
                   np.empty_like(buf), axes=2, tmp=buf)
    w = contract(fd.c[:, None, None], a_l, buf)
    w -= ama
    del ama
    psi = fd.psi_c
    out, tmp = np.empty_like(psi), np.empty(psi.shape[1:])
    for a in range(psi.shape[0]):       # row by row, so that the temporary is one row
        contract(w[a], psi, out[a], tmp=tmp)
    return out


def snr_of(psi, tdata: TargetData) -> np.ndarray:
    """Quartic contraction of the curvature derivative along tdata; zero on round spheres."""
    if tdata.target.parallel_second_fund:
        return np.zeros_like(tdata.phi)
    return to_sites(snr_planes(FieldData(tdata.phi, psi, tdata=tdata)), 1)


def snr_planes(fdata: FieldData) -> np.ndarray:
    """SnR of fdata's psi, component-major (K, ...); the Gauss parts are built after
    nabla A when fdata does not hold them yet."""
    natensor = fdata.tdata.target.nabla_a_tensor(fdata.tdata)       # (..., e, a, c, l)
    m = fdata.m                             # before A_l M, which takes M
    a_m, c = fdata.a_m, fdata.c
    # w[l, a, c] = c_l M_ac - (M (A_l M))_ac
    w = contract(m.swapaxes(0, 1)[:, None, :, None], a_m.swapaxes(0, 1)[:, :, None],
                 np.empty_like(a_m))
    np.subtract(c[:, None, None] * m, w, out=w)
    # SnR^e = 2 sum_{a,c,l} (nabla_e A)_{ac,l} w[l, a, c], read in place from nabla A's planes
    n = natensor.ndim
    nat = np.moveaxis(natensor, (n - 4, n - 3, n - 2, n - 1), (3, 0, 1, 2))   # [a, c, l, e, ...]
    out = contract(nat, np.moveaxis(w, 0, 2), np.empty(nat.shape[3:]), axes=3)
    out *= 2.0
    return out


# ---- totals ---------------------------------------------------------------------


def total_action(phi, psi, u, chi, grid, target, tdata: TargetData | None = None,
                 fdata: FieldData | None = None) -> ActionBreakdown:
    """All five terms and their total, summed in a fixed order.  The action reads the
    parts of its FieldData last and takes them out."""
    fdata = field_data(phi, psi, chi, u, grid, target, tdata, fdata)
    t1, t2, t3, t4, t5 = (_integral(d, fdata.grid) for d in _densities(fdata))
    total = ((t1 + t2) + t3 + t4) + t5
    return ActionBreakdown(t1, t2, t3, t4, t5, total)


def action_density(phi, psi, u, chi, grid, target,
                   tdata: TargetData | None = None) -> np.ndarray:
    """Per-site integrand of the total action (sum * cell_area = total).

    Every site's density depends on the fields only within one stencil step,
    which the finite-difference oracle exploits for local delta evaluation.
    """
    dens, *rest = _densities(field_data(phi, psi, chi, u, grid, target, tdata))
    for d in rest:
        if d is not None:
            dens = dens + d
    return dens

