"""Component-major plane algebra: the per-site products of one evaluation.

A site-major array has the site axes first and its component axes last, as
(n1, n2, K, 4) for psi; its component-major form (to_planes) has them the
other way round, (K, 4, n1, n2), C-contiguous, so that each component is one
contiguous plane over the sites.  A per-site matrix or vector product is then
a short sum of elementwise products of whole planes (contract): a few ufunc
calls over all sites at once instead of one small product per site, and unlike
einsum they report overflow under np.errstate.  contract allocates each result
from its terms, C-contiguous in their broadcast shape and dtype, so no caller
sizes an output.  to_sites is the inverse view; a site-major view of a
component-major array converts back for free.
"""

from __future__ import annotations

from itertools import product

import numpy as np


def to_planes(x: np.ndarray, ncomp: int) -> np.ndarray:
    """Component-major form of a site-major array: its last ncomp (component) axes first,
    the site axes last, C-contiguous.  A copy, except when x is the to_sites view of such
    an array: then it is that array again, so converting back costs nothing."""
    n = x.ndim
    return np.ascontiguousarray(x.transpose(tuple(range(n - ncomp, n)) + tuple(range(n - ncomp))))


def to_sites(x: np.ndarray, ncomp: int) -> np.ndarray:
    """Site-major view of a component-major array: the inverse of to_planes, no copy."""
    n = x.ndim
    return x.transpose(tuple(range(ncomp, n)) + tuple(range(ncomp)))


def contract(x: np.ndarray, y: np.ndarray, axes: int = 1) -> np.ndarray:
    """sum_k x[k] * y[k], with k over the leading `axes` axes of x and y, as a new array.

    The per-site products of component-major fields: each term is one elementwise
    product of whole site planes.  The first product allocates the result, C-contiguous
    in the terms' broadcast shape and dtype; the later ones go through one temporary of
    that shape and are added into it in index order, so each element's sum has a fixed
    order whatever the broadcast.  Unlike einsum and batched @ over the sites, this
    makes no call per site and reports overflow under np.errstate.
    """
    keys = iter(range(x.shape[0]) if axes == 1 else product(*map(range, x.shape[:axes])))
    k = next(keys)
    out = np.multiply(x[k], y[k], order="C")
    tmp = None
    for k in keys:
        if tmp is None:
            tmp = np.empty_like(out)
        out += np.multiply(x[k], y[k], out=tmp)
    return out


def tangent(nu_c: np.ndarray, w_c: np.ndarray, in_place: bool = False) -> np.ndarray:
    """w_c (K, ..., sites) less its components along the frame nu_c (L, K, sites), both
    component-major; the axes between K and the sites of w_c ride along.  The result is
    C-contiguous in w_c's axes; in_place writes it into w_c, one component of K at a time,
    so that no array of w_c's size is allocated."""
    nu_b = nu_c.reshape(nu_c.shape[:2] + (1,) * (w_c.ndim - nu_c.ndim + 1) + nu_c.shape[2:])
    coeff = contract(nu_b.swapaxes(0, 1), w_c[:, None])     # [l, ...] = <nu_l, w>
    if in_place:
        for b in range(w_c.shape[0]):
            w_c[b] -= contract(nu_b[:, b], coeff)
        return w_c
    normal = contract(nu_b, coeff[:, None])                 # sum_l coeff_l nu_l
    return np.subtract(w_c, normal, out=normal)
