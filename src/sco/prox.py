"""Closed-form norm proximal maps and unit-ball projections.

Everything here is stateless and elementwise-deterministic. The dual rows
are short (d entries) and many, so no row sum over them is numpy's
per-row ``sum(axis=1)``. The squared l2 norms are one ``np.einsum``
call; einsum's order of additions is numpy's own, checked on numpy 2.4,
and follows the memory layout, so the rows are read in C order. The l1
norms of the q = 1 row test are one BLAS matrix-vector product
``|lam| @ 1``, whose order of additions, and so its last bits, follows
the BLAS build; repeated runs on one machine give the same bits. The
l1-ball threshold is the largest of the sorted-prefix candidates and 0.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ParameterError
from .norms import as_norm


@lru_cache(maxsize=64)
def _ranks(d: int) -> np.ndarray:
    """The read-only float ranks 1, 2, ..., d."""
    ranks = np.arange(1.0, d + 1.0)
    ranks.flags.writeable = False
    return ranks


@lru_cache(maxsize=64)
def _ones(d: int) -> np.ndarray:
    """The read-only vector of d ones: ``a @ _ones(d)`` sums the rows of a."""
    ones = np.ones(d)
    ones.flags.writeable = False
    return ones


def _project_l1_rows(V: np.ndarray, radius: float, a: np.ndarray) -> np.ndarray:
    """Project every row of V, each with l1 norm over radius, onto the l1 ball.

    The sort-based method of Duchi et al. (2008) in one pass for all rows:
    sort each row's magnitudes u in decreasing order, turn their running
    sums into the candidates (css_k - radius)/k in place, and shrink the
    row by the largest candidate. The largest is the threshold exactly
    (Condat 2016, "Fast projection onto the simplex and the l1 ball"):
    every candidate is at most the threshold, and the one at the index
    Duchi's test u_k > (css_k - radius)/k finds last is equal to it. No
    index is looked up, so a test that rounding breaks at a tie, or at
    a magnitude so large that subtracting the radius rounds away, cannot
    pick a wrong one: such a finite row lands in the ball (at zero, the
    radius lost to rounding). A row holding an infinity gets NaN there.
    The shrink is never below 0: a row the caller's test put over the ball
    only by rounding, whose largest candidate is at or under 0, comes out
    as it went in instead of growing.

    ``a`` is ``np.abs(V)``, which the caller has already; it is
    overwritten with the result.
    """
    thresholds = np.sort(a, axis=1)[:, ::-1].cumsum(axis=1)
    thresholds -= radius
    thresholds /= _ranks(V.shape[1])
    a -= thresholds.max(axis=1, keepdims=True, initial=0.0)
    np.maximum(a, 0.0, out=a)
    return np.multiply(np.sign(V), a, out=a)


def project_l1_ball(v: np.ndarray, radius: float = 1.0) -> np.ndarray:
    """Euclidean projection of a vector onto the l1 ball of the given radius.

    Exact sort-based algorithm, O(d log d). Only magnitudes are sorted, not
    indices, so the order among ties cannot change the result.
    """
    if radius <= 0:
        raise ParameterError(f"radius must be positive, got {radius}")
    v = np.ascontiguousarray(v, dtype=float)
    a = np.abs(v)
    if np.einsum("i->", a) <= radius:
        return v.copy()
    return _project_l1_rows(v[None, :], radius, a[None, :])[0]


def project_rows(lam: np.ndarray, q) -> np.ndarray:
    """Project every row of an m-by-d matrix onto the unit q-norm ball.

    q = inf clips every entry. q = 2 scales each row by 1/max(norm, 1), with
    the squared norms from ``np.einsum("ij,ij->i")``. q = 1 selects the rows
    whose l1 norm, one BLAS product ``|lam| @ 1`` for the whole block, is
    over 1, projects exactly those by the sort-based method, and copies the
    others bit for bit. A row whose l1 norm is within rounding of 1 may be
    selected or not depending on the BLAS build's order of additions; on
    one machine the choice repeats. ``lam`` is read in C order: einsum's
    order of additions follows the memory layout, so an F-ordered or
    strided block is copied first and gives its C copy's bits. The result
    is a fresh array; ``lam`` is never written.
    """
    q = as_norm(q)
    lam = np.ascontiguousarray(lam, dtype=float)
    if lam.ndim != 2:
        lam = np.atleast_2d(lam)
    if q == np.inf:
        # np.clip's bits (NaN and -0.0 kept) without its dispatch overhead
        out = np.maximum(lam, -1.0)
        return np.minimum(out, 1.0, out=out)
    if q == 2.0:
        # 1/max(nrm, 1) is 1/nrm over the ball and exactly 1 inside it; fmax
        # also maps a NaN norm to 1, so a NaN row passes through unscaled
        scale = np.sqrt(np.einsum("ij,ij->i", lam, lam))
        np.fmax(scale, 1.0, out=scale)
        np.divide(1.0, scale, out=scale)
        return lam * scale[:, None]
    a = np.abs(lam)
    # integer row indices: two takes and one scatter cost less than three
    # boolean-mask passes
    over = (a @ _ones(lam.shape[1]) > 1.0).nonzero()[0]
    out = lam.copy()
    if over.size:
        out[over] = _project_l1_rows(lam.take(over, 0), 1.0, a.take(over, 0))
    return out


def prox_norm(omega: np.ndarray, t: float, s) -> np.ndarray:
    """Proximal map of t * ||.||_s at omega: argmin_v t*||v||_s + 0.5*||v - omega||^2.

    The norm is taken over all entries of omega, whatever its shape (for a
    matrix, the s-norm of its flattened entries), and the result has
    omega's shape. s = 1 soft-thresholds each entry at t; s = 2 shrinks
    the whole array by max(0, 1 - t/||omega||); s = inf subtracts the
    projection onto the l1 ball of radius t (Moreau decomposition against
    the dual norm).
    """
    s = as_norm(s)
    t = float(t)
    if not (np.isfinite(t) and t > 0):
        raise ParameterError(f"prox threshold must be positive, got {t}")
    omega = np.asarray(omega, dtype=float)
    if s == 1.0:
        return np.sign(omega) * np.maximum(np.abs(omega) - t, 0.0)
    if s == 2.0:
        nrm = np.linalg.norm(omega)
        if nrm <= t:
            return np.zeros_like(omega)
        return (1.0 - t / nrm) * omega
    if np.abs(omega).sum() <= t:
        return np.zeros_like(omega)
    return omega - t * project_l1_ball((omega / t).ravel(), 1.0).reshape(omega.shape)
