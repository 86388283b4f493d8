"""Closed-form norm proximal maps and unit-ball projections.

Everything here is stateless and elementwise-deterministic. The dual rows
are short (d entries) and many, so the row reductions avoid numpy's
per-row reduction cost where that keeps every bit: row sums go through
``norms._row_sums`` (column passes for rows of fewer than 8 entries), and
the l1-ball threshold is read from the running sums in one gather.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ParameterError
from .norms import _row_sums, as_norm


@lru_cache(maxsize=64)
def _ranks(d: int) -> np.ndarray:
    """The read-only float ranks 1, 2, ..., d."""
    ranks = np.arange(1.0, d + 1.0)
    ranks.flags.writeable = False
    return ranks


def _project_l1_rows(V: np.ndarray, radius: float, a: np.ndarray | None = None) -> np.ndarray:
    """Project every row of V, each with l1 norm over radius, onto the l1 ball.

    The sort-based method of Duchi et al. (2008) in one pass for all rows:
    sort each row's magnitudes in decreasing order, turn their running sums
    into the thresholds (sum - radius)/k in place, and shrink the row by the
    threshold at the last index where the sorted magnitude exceeds it. In
    floating point that test can fail at a tie and hold again after it, so
    the index is the last true one, not the count. At the first index the
    test holds in exact arithmetic (u_1 > u_1 - radius) but fails when the
    largest magnitude is infinite or so large that subtracting the radius
    rounds away; it is taken as true there, so such a finite row lands in
    the ball (at zero, the radius lost to rounding).

    ``a`` is ``np.abs(V)`` when the caller has it already; it is
    overwritten with the result.
    """
    if a is None:
        a = np.abs(V)
    m, d = V.shape
    u = np.sort(a, axis=1)[:, ::-1]
    thresholds = np.cumsum(u, axis=1)
    thresholds -= radius
    thresholds /= _ranks(d)
    holds = u > thresholds
    holds[:, 0] = True
    from_end = np.argmax(holds[:, ::-1], axis=1)
    # flat index of row k's last true column: k*d + (d - 1) - from_end[k]
    theta = thresholds.take(np.arange(d - 1, m * d, d) - from_end)
    a -= theta[:, None]
    np.maximum(a, 0.0, out=a)
    return np.multiply(np.sign(V), a, out=a)


def project_l1_ball(v: np.ndarray, radius: float = 1.0) -> np.ndarray:
    """Euclidean projection of a vector onto the l1 ball of the given radius.

    Exact sort-based algorithm, O(d log d). Only magnitudes are sorted, not
    indices, so the order among ties cannot change the result.
    """
    if radius <= 0:
        raise ParameterError(f"radius must be positive, got {radius}")
    v = np.asarray(v, dtype=float)
    if np.abs(v).sum() <= radius:
        return v.copy()
    return _project_l1_rows(v[None, :], radius)[0]


def project_rows(lam: np.ndarray, q) -> np.ndarray:
    """Project every row of an m-by-d matrix onto the unit q-norm ball.

    q = inf clips every entry. q = 2 scales each row by 1/max(norm, 1), with
    the squared norms summed by ``norms._row_sums``. q = 1 selects the rows
    whose l1 norm (also by ``_row_sums``) is over 1, projects only those by
    the sort-based method, and copies the others. The row sums have the bits
    of ``sum(axis=1)`` on a numpy that sums short rows in the order
    ``_row_sums`` repeats (see there). The result is a fresh array; ``lam``
    is never written.
    """
    q = as_norm(q)
    lam = np.asarray(lam, dtype=float)
    if lam.ndim != 2:
        lam = np.atleast_2d(lam)
    if lam.shape[0] == 0:
        return lam.copy()
    if q == np.inf:
        # np.clip's bits (NaN and -0.0 kept) without its dispatch overhead
        out = np.maximum(lam, -1.0)
        return np.minimum(out, 1.0, out=out)
    if q == 2.0:
        # 1/max(nrm, 1) is 1/nrm over the ball and exactly 1 inside it; fmax
        # also maps a NaN norm to 1, so a NaN row passes through unscaled
        scale = np.sqrt(_row_sums(lam * lam))
        np.fmax(scale, 1.0, out=scale)
        np.divide(1.0, scale, out=scale)
        return lam * scale[:, None]
    a = np.abs(lam)
    # integer row indices: two takes and one scatter cost less than three
    # boolean-mask passes
    over = np.flatnonzero(_row_sums(a) > 1.0)
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
