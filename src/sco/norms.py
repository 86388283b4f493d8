"""Norm selectors and the row-sum (mixed) norms used by the dual solver.

Selectors are restricted to {1, 2, inf}; a selector and its dual pair up
as 1<->inf and 2<->2. The squared row norms of the (1, 2) mixed norm come
from one ``np.einsum`` call on the rows read in C order, as in the row
projections of :mod:`sco.prox`.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, ParameterError

SUPPORTED_NORMS = (1.0, 2.0, np.inf)

_DUAL = {1.0: np.inf, 2.0: 2.0, np.inf: 1.0}


def as_norm(value) -> float:
    """Coerce a norm selector to 1.0, 2.0 or inf, rejecting anything else.

    Accepts ints, floats and the strings "1", "2", "inf".
    """
    if isinstance(value, str):
        text = value.strip().lower()
        if text in ("inf", "infinity"):
            return np.inf
        try:
            value = float(text)
        except ValueError:
            raise ParameterError(f"invalid norm selector {value!r}") from None
    try:
        v = float(value)
    except (TypeError, ValueError):
        raise ParameterError(f"invalid norm selector {value!r}") from None
    if v not in SUPPORTED_NORMS:
        raise ParameterError(f"norm selector must be 1, 2 or inf, got {value!r}")
    return v


def dual_norm(p) -> float:
    """Return q with 1/p + 1/q = 1 for p in {1, 2, inf}."""
    return _DUAL[as_norm(p)]


def vec_norm(v: np.ndarray, s) -> float:
    """s-norm over all entries of an array (a vector or a matrix), s in {1, 2, inf}."""
    s = as_norm(s)
    v = np.asarray(v, dtype=float).ravel()
    if v.size == 0:
        return 0.0
    if s == 1.0:
        return float(np.abs(v).sum())
    if s == 2.0:
        return float(np.linalg.norm(v))
    return float(np.abs(v).max())


def sum_norms(M: np.ndarray, p) -> float:
    """Sum of the p-norms of the rows of M (the (1, p) mixed norm).

    M is an m-by-d matrix whose rows typically hold per-edge differences.
    """
    p = as_norm(p)
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise DimensionError(f"expected a 2-d array, got shape {M.shape}")
    if p == 1.0:
        return float(np.abs(M).sum())
    if p == 2.0:
        M = np.ascontiguousarray(M)
        return float(np.sqrt(np.einsum("ij,ij->i", M, M)).sum())
    return float(np.abs(M).max(axis=1, initial=0.0).sum())
