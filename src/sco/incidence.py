"""Scaled edge-incidence operator and its structure-exploiting linear maps.

Row k of the operator Q carries +alpha*w_ij at column i and -alpha*w_ij
at column j for edge (i, j). The operator is kept as an edge list. It acts
on n-by-d matrices (one row per instance), and its transpose on m-by-d
matrices (one row per edge), through the edge ends; Q is never
materialised, and neither is any lift of it to flattened matrices.

The transpose map is a flat scatter: the scaled m-by-d dual rows are
read as one vector of length m*d, and entry (k, c) is summed into bin
``head[k]*d + c`` (and, with the opposite sign, ``tail[k]*d + c``) of an
n*d vector by ``np.bincount``. Each bin accumulates its entries in
increasing edge order, so the sums are the same, bit for bit, as a
per-column accumulation, and they do not depend on any schedule.

The forward map is flat too: the gathered head rows become the output
block, the gathered tail rows are subtracted from it in place, and its
raveled entries are scaled in place by the row coefficients repeated d
times, the same products coef[k] * diff[k, c] a broadcast over rows
computes, in one flat pass.

The edge arrays are fixed at construction and every map here is pure.
The only state that changes is in two caches, filled on first use: the
flat scatter indices, one pair per feature count d (the pair for d=1,
the edge ends themselves, is also the forward map's gather), and the row
coefficients repeated d times, which scale the raveled rows of both
maps. Filling them is idempotent (a second thread that races the first
stores equal arrays), so concurrent use is safe.
:meth:`EdgeIncidence.with_coef` makes an operator on the same edges with
other row coefficients; it shares the edge arrays and the scatter
indices, not the repeated coefficients.
"""

from __future__ import annotations

import copy

import numpy as np

from .errors import DimensionError, ParameterError
from .graph import VariableGraph


def _strength(alpha: float) -> float:
    alpha = float(alpha)
    if not (np.isfinite(alpha) and alpha >= 0):
        raise ParameterError(f"alpha must be a nonnegative finite real, got {alpha}")
    return alpha


class EdgeIncidence:
    """Edge-difference operator with entries +/- alpha * w per edge row;
    the strength alpha is kept only as a factor of the coefficients ``coef``."""

    def __init__(self, graph: VariableGraph, alpha: float):
        self.col_count = graph.vertex_count
        self.head = graph.head
        self.tail = graph.tail
        self.coef = _strength(alpha) * graph.weight
        self.row_count = graph.edge_count
        self._flat_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._flat_coef: dict[int, np.ndarray] = {}

    def with_coef(self, coef: np.ndarray) -> "EdgeIncidence":
        """The operator on the same edges with row coefficients ``coef``
        (one per edge). It shares the edge arrays and the scatter-index
        cache."""
        coef = np.asarray(coef, dtype=float)
        if coef.shape != (self.row_count,):
            raise DimensionError(f"expected {self.row_count} coefficients, got shape {coef.shape}")
        other = copy.copy(self)
        other.coef = coef
        other._flat_coef = {}
        return other

    def _flat_index(self, d: int) -> tuple[np.ndarray, np.ndarray]:
        """Scatter bins ``head*d + c`` and ``tail*d + c`` of the flattened
        m-by-d block, built once per feature count d."""
        index = self._flat_cache.get(d)
        if index is None:
            cols = np.arange(d)
            index = ((self.head[:, None] * d + cols).ravel(),
                     (self.tail[:, None] * d + cols).ravel())
            self._flat_cache[d] = index
        return index

    def _repeated_coef(self, d: int) -> np.ndarray:
        """The row coefficients repeated d times, ``np.repeat(coef, d)``:
        entry k*d + c scales entry (k, c) of a raveled m-by-d block."""
        coef = self._flat_coef.get(d)
        if coef is None:
            coef = self._flat_coef[d] = np.repeat(self.coef, d)
        return coef

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Map an n-by-d matrix to the m-by-d matrix of scaled row differences.

        Row k of the result is alpha * w_ij * (X_i - X_j): the product Q X.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            X = np.atleast_2d(X)
        if X.shape[0] != self.col_count:
            raise DimensionError(f"expected {self.col_count} rows, got {X.shape[0]}")
        # take() copies a read-only index array, the graph's edge ends, on
        # every call; the scatter bins for d=1 are the same ends, writable
        head, tail = self._flat_index(1)
        diff = X.take(head, 0)
        diff -= X.take(tail, 0)
        # the products coef[k] * diff[k, c] of a broadcast multiply, in raveled
        # order; the result is the raveled block, so a ravel that had to copy
        # still carries the scaling
        flat = diff.ravel()
        np.multiply(self._repeated_coef(X.shape[1]), flat, out=flat)
        return flat.reshape(diff.shape)

    def apply_t(self, lam: np.ndarray) -> np.ndarray:
        """Transpose map Q^T lam: m-by-d dual rows back to an n-by-d matrix.

        One flat scatter per edge end over the m*d scaled entries (see the
        module docstring): bin (v, c) sums its entries in increasing edge
        order, the order of a per-column accumulation, so the result is
        fixed and does not depend on any execution schedule.
        """
        lam = np.asarray(lam, dtype=float)
        if lam.ndim != 2:
            lam = np.atleast_2d(lam)
        if lam.shape[0] != self.row_count:
            raise DimensionError(f"expected {self.row_count} rows, got {lam.shape[0]}")
        d = lam.shape[1]
        if self.row_count == 0:  # bincount of no weights gives int64 zeros
            return np.zeros((self.col_count, d))
        head, tail = self._flat_index(d)
        # the products coef[k] * lam[k, c] of a broadcast multiply, in raveled order
        scaled = lam.ravel() * self._repeated_coef(d)
        size = self.col_count * d
        out = np.bincount(head, weights=scaled, minlength=size)
        out -= np.bincount(tail, weights=scaled, minlength=size)
        return out.reshape(self.col_count, d)


def operator_norm_estimate(Q: EdgeIncidence, iterations: int = 50, safety: float = 1.01,
                           rng: np.random.Generator | None = None) -> float:
    """Upper estimate of the largest singular value via power iteration.

    Runs ``iterations`` rounds on the normal operator and inflates the
    final Rayleigh estimate by ``safety``; the inflation keeps the result
    usable as a Lipschitz constant. Deterministic for a fixed generator
    (a fixed default seed is used when none is supplied).
    """
    if Q.row_count < 1:
        raise ParameterError("operator norm estimate needs at least one edge")
    if rng is None:
        rng = np.random.default_rng(0)
    v = rng.standard_normal(Q.col_count)
    nv = np.linalg.norm(v)
    if nv == 0.0:
        v = np.ones(Q.col_count)
        nv = np.linalg.norm(v)
    v /= nv
    sigma = 0.0
    # Q^T w in one scatter: every head term in edge order, then every tail
    # term, the sequence two successive unbuffered adds would sum in.
    ends = np.concatenate([Q.head, Q.tail])
    for _ in range(int(iterations)):
        w = Q.coef * (v[Q.head] - v[Q.tail])
        cw = Q.coef * w
        z = np.bincount(ends, weights=np.concatenate([cw, -cw]), minlength=Q.col_count)
        nz = np.linalg.norm(z)
        if nz == 0.0:
            return 0.0
        sigma = np.sqrt(nz)  # ||Q^T Q v|| ~ sigma^2 for normalized v
        v = z / nz
    w = Q.coef * (v[Q.head] - v[Q.tail])
    sigma = float(np.linalg.norm(w))
    return sigma * float(safety)
