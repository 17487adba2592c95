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

The action reads the target along phi from one geometry.TargetData only through
A (summand V) and the constraint check: psi is tangent, so the Dirac term pairs
it with D_u psi itself, as it would with the twisted operator Pi D_u psi.

The intermediates that the action shares with both residuals at one
(phi, psi, chi, u) live in one FieldData beside that TargetData: d phi, D_u psi,
Gamma chi, d phi . Gamma chi, |Q chi|^2, the conformal weights e^{2u}, e^{3u}
and e^{4u}, D_u's four weights and the Gauss parts M, c_l and A_l M (A_l is the
TargetData's).  A part is built on first use and lives as long as its
FieldData, so its readers may come in any order, and each weight has one home
that the action, both residuals and D_u read.  An evaluation takes its
FieldData from field_data, which states when the constraints are checked, or,
in a solve, from the parameter FieldData of chi and u (parameters): chi and u
are parameters of the functional, so their parts (Gamma chi, |Q chi|^2 and the
weights) are built once per solve, and each evaluation's with_map shares them.
The FD oracle's probes read FieldData that share parts with phi's one, and
each evaluates only the summands its move changes, on the sites they read:

* at_sites, the one gather, takes phi, psi, chi, u, D_u psi and the parts that
  do not read psi at chosen sites, with site axes (1, m), on phi's frame and A
  gathered there from phi's TargetData (A built on the grid once, however many
  gathers read it), or at the neighbours of those sites, (1, 4, m), with none;
* with_psi shares the parts that do not read psi with a FieldData of another
  psi: on gathered sites, probes stacked as (P, m, K, 4) for the summands
  III, IV and V (pointwise_densities), which read psi only at their own site;
* with_map shares the parts that read chi and u alone with a FieldData of
  another map and psi: on the grid, and on gathered sites, maps stacked as
  (P, m, K), for IV and V (local_densities), which read every field only at
  their own site; at gathered neighbours, the FieldData of probes stacked as
  (P, 4, m) takes the d phi that its caller recomputed there, for the summands
  I and III (dphi_densities), which read phi one stencil step away;
* the Dirac summand II reads psi one stencil step away: dirac_density
  evaluates it on the grid, and dirac_change its change between two psi by
  polarization, from the D_u of their difference, on the grid or at gathered
  sites.  Both read the one form e^{3u} <f, D_u g> (_dirac_form).

The parts and the contractions are component-major (see _planes): psi and D_u psi
as (K, 4, n1, n2), d phi as (2, K, n1, n2), and M, A_l, c_l and A_l M as (K, K, ...),
(L, K, K, ...), (L, ...) and (L, K, K, ...), sites last.  Each per-site product
is a short sum of elementwise products of whole site planes (_planes.contract),
so there is no einsum and no product per site, and overflow raises under
np.errstate.  FieldData converts each field once; the public functions keep the
site-major layouts and return site-major views.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import clifford as cl
from ._planes import contract, to_planes, to_sites
from .fields import dirac_planes, dirac_weights, require_tangent, site_inner
from .geometry import Grid, TargetData, TargetManifold, grad_planes, require_on_manifold

__all__ = [
    "ActionBreakdown",
    "TargetData",
    "target_data",
    "checked_target_data",
    "FieldData",
    "field_data",
    "parameters",
    "gamma_chi",
    "dirac_density",
    "dirac_change",
    "dphi_densities",
    "local_densities",
    "pointwise_densities",
    "summed",
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
        """The fields in order, in a plain dict; unlike dataclasses.asdict, no deep copy."""
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


def target_data(target: TargetManifold, phi: np.ndarray) -> TargetData:
    return TargetData(target, phi)


def checked_target_data(target: TargetManifold, phi: np.ndarray, psi: np.ndarray) -> TargetData:
    """target_data of phi after checking phi on N and psi tangent along its frame."""
    require_on_manifold(target, phi)
    tdata = target_data(target, phi)
    require_tangent(psi, tdata.nu)
    return tdata


# the parts of a FieldData that read the parameters chi and u alone, which FieldData.with_map
# shares, those that do not read psi, which FieldData.with_psi shares, and those that at_sites
# gathers: beside these, psi and D_u psi, which reads a site's neighbours
_PARAMETERS = ("gamma_chi", "q_chi2", "has_chi", "e2u", "e3u", "e4u", "dirac_weights")
_PSI_FREE = ("dphi", "dphi_gamma_chi") + _PARAMETERS
_GATHERED = ("psi_c", "dirac") + _PSI_FREE


class FieldData:
    """The intermediates one evaluation of both residuals and the action shares
    at (phi, psi, chi, u): psi_c (K, 4, ...), d phi (2, K, ...), D_u psi (K, 4, ...),
    Gamma chi (2, 4, ...), the gravitino coefficient d phi . Gamma chi of psi
    (K, 4, ...), |Q chi|^2, the conformal weights e^{2u}, e^{3u} and e^{4u}, D_u's
    weights (4, ...) and the Gauss parts of psi along tdata: M (K, K, ...), c_l
    (L, ...) and A_l M (L, K, K, ...), with A_l = tdata.asym_c (L, K, K, ...).
    All are component-major; the fields themselves stay as given.  tdata is the
    TargetData of phi; the other arguments are needed only by the parts that read
    them.  A part is built on first use and lives as long as its FieldData."""

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
        return grad_planes(to_planes(self.phi, 1), self.grid)

    @cached_property
    def dirac(self) -> np.ndarray:
        """D_u psi, slot-wise and not tangent (r_psi projects it; the Dirac density pairs
        it with tangent psi), shaped like psi_c."""
        return dirac_planes(self.psi_c, self.dirac_weights, self.grid)

    @cached_property
    def gamma_chi(self) -> np.ndarray:
        """Gamma chi, component-major (2, 4, ...)."""
        return to_planes(gamma_chi(self.chi), 2)

    @cached_property
    def dphi_gamma_chi(self) -> np.ndarray:
        """sum_b d_b phi^k (Gamma chi)[b], the coefficient of psi^k, shaped like psi_c."""
        d, g = self.dphi, self.gamma_chi
        return contract(d[:, :, None], g[:, None])

    @cached_property
    def q_chi2(self) -> np.ndarray:
        """|Q chi|^2 = <chi, Q chi> = -<chi, Gamma chi> / 2, so Q chi is formed once: scaling
        by -1/2 is exact, so this has the bits of site_inner(chi, clifford.q_project(chi))."""
        out = site_inner(self.chi, to_sites(self.gamma_chi, 2))
        out *= -0.5
        return out

    @cached_property
    def e2u(self) -> np.ndarray:
        """e^{2u}, the weight of summand III and of the gravitino couplings."""
        return np.exp(2.0 * self.u)

    @cached_property
    def e3u(self) -> np.ndarray:
        """e^{3u}, the weight of the Dirac summand II."""
        return np.exp(3.0 * self.u)

    @cached_property
    def e4u(self) -> np.ndarray:
        """e^{4u}, the weight of the summands IV and V."""
        return np.exp(4.0 * self.u)

    @cached_property
    def dirac_weights(self) -> np.ndarray:
        """D_u's weights (fields.dirac_weights), (4, ...)."""
        return dirac_weights(self.u)

    @cached_property
    def m(self) -> np.ndarray:
        """M[a, c] = <psi^a, psi^c>."""
        p = self.psi_c.swapaxes(0, 1)                       # p[i] = (psi^a_i)_a
        return contract(p[:, :, None], p[:, None])

    @cached_property
    def c(self) -> np.ndarray:
        """c_l = sum_bd A_l[b, d] M[b, d]."""
        return contract(np.moveaxis(self.tdata.asym_c, 0, 2), self.m, axes=2)

    @cached_property
    def a_m(self) -> np.ndarray:
        """A_l M, the transpose of M A_l."""
        a_l = self.tdata.asym_c
        return contract(np.moveaxis(a_l, 2, 0)[:, :, :, None], self.m[:, None, None])

    def _sharing(self, fd: FieldData, names, ij: tuple | None = None) -> FieldData:
        """fd holding self's parts names, built here if need be: gathered at the grid sites
        ij, a pair of index arrays, when given, as (...,) + their shape, else shared and made
        read-only, so that an in-place write raises.  A shared part lives as long as the
        longer-lived of the two."""
        for name in names:
            value = getattr(self, name)
            if name != "has_chi":
                if ij is None:
                    value.flags.writeable = False
                else:                   # component-major: the site axes last
                    value = value[(...,) + ij]
            fd.__dict__[name] = value
        return fd

    def with_psi(self, psi) -> FieldData:
        """The FieldData of psi beside self's phi, chi and u on self's TargetData, sharing
        self's parts that do not read psi (d phi, d phi . Gamma chi and the chi parts)."""
        fd = FieldData(self.phi, psi, self.chi, self.u, self.grid, tdata=self.tdata)
        return self._sharing(fd, _PSI_FREE)

    def with_map(self, phi, psi, tdata: TargetData | None = None,
                 dphi: np.ndarray | None = None) -> FieldData:
        """The FieldData of another map phi and a psi beside self's chi and u, on tdata, the
        TargetData of phi (None where no summand that reads it runs), sharing self's parts
        that read chi and u alone (Gamma chi, |Q chi|^2, has_chi and the conformal weights),
        on the grid or at_sites.  self may be a parameter FieldData (parameters).  Where psi
        and chi both vanish no summand and no residual reads those parts, so only has_chi
        is shared and the others are not built.  dphi, when given, is d phi of the map
        (2, K, ...), which a FieldData at gathered sites cannot take: phi may then be None."""
        fd = FieldData(phi, psi, self.chi, self.u, self.grid, tdata=tdata)
        if dphi is not None:
            fd.__dict__["dphi"] = dphi
        return self._sharing(fd, _PARAMETERS if self.has_chi or fd.has_psi else ("has_chi",))

    def at_sites(self, sites: np.ndarray, framed: bool = True) -> FieldData:
        """self's phi, psi, chi, u, D_u psi and parts that do not read psi at the flat
        grid-site indices sites (repeats allowed), with site axes (1,) + sites.shape: a
        FieldData with no grid, on the TargetData of phi there unless framed is False,
        whose frame nu and A are gathered from self's (_GatheredTargetData), so that no
        frame is computed and A is built on the grid once, by the first framed gather
        (which may take no sites).  Each field and part is gathered by its two site
        indices, so no grid-sized array is copied whatever the fields' memory order.

        With m sites, (1, m): fields stacked on a leading axis, as (P, m, ...), go to its
        with_psi and with_map, for the summands that read them only at their own site
        (pointwise_densities, local_densities) and for I + III of probes that keep d phi
        there (dphi_densities), and psi changes to dirac_change.  With the neighbours of m
        sites, (4, m), unframed, as no summand evaluated there reads the target: the D_u of
        probes' psi changes goes to dirac_change, and d phi recomputed there to with_map,
        for dphi_densities."""
        ij = np.divmod(sites[None], self.grid.n2)
        phi = self.phi[ij]
        tdata = _GatheredTargetData(self.tdata, phi, ij) if framed else None
        fd = self._sharing(FieldData(phi, None, self.chi[ij], self.u[ij], tdata=tdata),
                           _GATHERED, ij)
        fd.psi = to_sites(fd.psi_c, 2)
        return fd


class _GatheredTargetData(TargetData):
    """The TargetData of phi at the grid sites ij, a pair of index arrays, read from
    grid_data, the TargetData of phi on the grid: its frame nu and A gathered there on
    construction, which builds grid_data's A if need be, so that A is built on the grid
    once whatever the number of gathers, and dnu gathered on first use.  No frame or
    frame derivative is computed at the sites, and each part has the grid's bits; pi is
    built from the gathered nu, as on any TargetData."""

    def __init__(self, grid_data: TargetData, phi: np.ndarray, ij: tuple):
        self.target, self.phi = grid_data.target, phi
        self.nu = to_sites(grid_data.nu_c[(...,) + ij], 2)
        self.asym_c = grid_data.asym_c[(...,) + ij]
        self._grid_data, self._ij = grid_data, ij

    @cached_property
    def dnu_c(self) -> np.ndarray:
        return self._grid_data.dnu_c[(...,) + self._ij]

    @cached_property
    def dnu(self) -> np.ndarray:
        return to_sites(self.dnu_c, 3)

    @cached_property
    def asym(self) -> np.ndarray:
        return np.moveaxis(self.asym_c, (0, 1, 2), (-1, -3, -2))


def parameters(chi, u, grid: Grid) -> FieldData:
    """A FieldData of the parameters chi and u alone, with no map, psi or TargetData: its
    with_map gives each evaluation's FieldData, which shares the parts built here once."""
    return FieldData(None, None, chi, u, grid, tdata=None)


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


def _dirichlet_density(dphi: np.ndarray) -> np.ndarray:
    return contract(dphi, dphi, axes=2)


def _dirac_form(fd: FieldData, pairs) -> np.ndarray:
    """e^{3u} sum <f, D_u g> per site over pairs of f and D_u g, both component-major
    (K, 4, ...): the form of summand II, which dirac_density and dirac_change read."""
    out = summed(contract(f, dg, axes=2) for f, dg in pairs)
    out *= fd.e3u
    return out


def dirac_density(fd: FieldData) -> np.ndarray | None:
    """Summand II, e^{3u} <psi, D_u psi>, which reads psi one stencil step away: grid only."""
    if not fd.has_psi:
        return None
    return _dirac_form(fd, [(fd.psi_c, fd.dirac)])


def dirac_change(fd: FieldData, delta: np.ndarray, d_delta: np.ndarray) -> np.ndarray:
    """II(psi + a) - II(psi + b) per site, at fd's sites and psi, from delta = a - b and
    d_delta = D_u delta (site-major; in the FD oracle, views of planes at gathered sites,
    probes stacked on a leading axis): by polarization e^{3u} (<delta, D_u psi> +
    <psi, D_u delta>), which holds where <a, D_u a> and <b, D_u b> vanish at every site.
    They do when a and b are supported on sites at least 3 apart: D_u a reads a site's
    neighbours, never the site itself."""
    return _dirac_form(fd, [(to_planes(delta, 2), fd.dirac), (fd.psi_c, to_planes(d_delta, 2))])


def _gravitino_density(fd: FieldData) -> np.ndarray | None:
    if not (fd.has_psi and fd.has_chi):
        return None
    return 2.0 * contract(fd.psi_c, fd.dphi_gamma_chi, axes=2) * fd.e2u


def _qchi_density(fd: FieldData) -> np.ndarray | None:
    if not (fd.has_psi and fd.has_chi):
        return None
    return -(fd.q_chi2 * contract(fd.psi_c, fd.psi_c, axes=2) * fd.e4u)


def _curvature_density(fd: FieldData) -> np.ndarray | None:
    if not fd.has_psi:
        return None
    am, c = fd.a_m, fd.c
    r = contract(c, c)
    r -= contract(am, am.swapaxes(1, 2), axes=3)
    return -r * fd.e4u / 6.0


def dphi_densities(fd: FieldData) -> tuple:
    """Summands I and III, which read phi one stencil step away, through d phi: on the grid,
    or at gathered sites whose d phi fd was handed (FieldData.with_map); None where a term
    vanishes."""
    return _dirichlet_density(fd.dphi), _gravitino_density(fd)


def local_densities(fd: FieldData) -> tuple:
    """Summands IV and V, which read every field only at their own site, so that fd may
    hold its fields at any sites (FieldData.with_map); None where a term vanishes."""
    return _qchi_density(fd), _curvature_density(fd)


def pointwise_densities(fd: FieldData) -> tuple:
    """Summands III, IV and V, which read psi only at their own site, so that fd may
    hold its fields at any sites (FieldData.at_sites); None where a term vanishes."""
    return (_gravitino_density(fd), *local_densities(fd))


def _densities(fd: FieldData) -> tuple:
    """Densities of the summands I..V of fd's fields, in order; None where a term vanishes."""
    return (_dirichlet_density(fd.dphi), dirac_density(fd), *pointwise_densities(fd))


def summed(densities) -> np.ndarray | None:
    """The sum of the densities that do not vanish, added in order; None if all vanish."""
    total = None
    for d in densities:
        if d is not None:
            total = d if total is None else total + d
    return total


def _integral(density: np.ndarray | None, grid: Grid) -> float:
    return 0.0 if density is None else float(np.sum(density) * grid.cell_area)


# ---- curvature contractions ----------------------------------------------------


def sr_operator(fd: FieldData) -> np.ndarray:
    """sum_l (c_l A_l - A_l M A_l) from fd's Gauss parts, (K, K, ...): SR(psi) is this
    matrix applied to each spinor component of psi."""
    a_l, a_m = fd.tdata.asym_c, fd.a_m
    ama = contract(a_m.swapaxes(1, 2)[:, :, :, None], a_l[:, :, None], axes=2)  # sum_l A_l M A_l
    w = contract(fd.c[:, None, None], a_l)
    w -= ama
    return w


def snr_of(psi, tdata: TargetData) -> np.ndarray:
    """Quartic contraction of the curvature derivative along tdata; zero on round spheres."""
    if tdata.target.parallel_second_fund:
        return np.zeros_like(tdata.phi)
    return to_sites(snr_planes(FieldData(tdata.phi, psi, tdata=tdata)), 1)


def snr_planes(fdata: FieldData) -> np.ndarray:
    """SnR of fdata's psi, component-major (K, ...)."""
    natensor = fdata.tdata.target.nabla_a_tensor(fdata.tdata)       # (..., e, a, c, l)
    m, a_m, c = fdata.m, fdata.a_m, fdata.c
    # w[l, a, c] = c_l M_ac - (M (A_l M))_ac
    w = contract(m.swapaxes(0, 1)[:, None, :, None], a_m.swapaxes(0, 1)[:, :, None])
    np.subtract(c[:, None, None] * m, w, out=w)
    # SnR^e = 2 sum_{a,c,l} (nabla_e A)_{ac,l} w[l, a, c], read in place from nabla A's planes
    n = natensor.ndim
    nat = np.moveaxis(natensor, (n - 4, n - 3, n - 2, n - 1), (3, 0, 1, 2))   # [a, c, l, e, ...]
    out = contract(nat, np.moveaxis(w, 0, 2), axes=3)
    out *= 2.0
    return out


# ---- totals ---------------------------------------------------------------------


def total_action(phi, psi, u, chi, grid, target, tdata: TargetData | None = None,
                 fdata: FieldData | None = None) -> ActionBreakdown:
    """All five terms and their total, summed in a fixed order."""
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
    return summed(_densities(field_data(phi, psi, chi, u, grid, target, tdata)))

