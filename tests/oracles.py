"""Independent oracles used by the test suite.

Each oracle reaches the quantity under test by a different route than the
library: dense Kronecker products instead of edge lists, exact quadratic
reconstruction from function values instead of conjugate formulas, long
plain (sub)gradient runs instead of the accelerated solver, and 1-d
golden-section searches instead of closed-form proximal maps. The
batched l1-ball row projection is checked against the plain sort-based
method on one row at a time, the blocked kNN graph build against a
dense n-by-n distance matrix and a sorted scan of each row, and bit for
bit against its earlier full-row partition and cumsum selection, the
vectorised cluster extraction against one norm per edge, and the
closed-form ridge sandwich norm against the SVD of the dense matrix.
The relative-error inner stopping rule is held to the Fenchel duality
gap that the fixed rule reaches, and the over-relaxed outer loop to that
of the unrelaxed one.

The inner dual-step kernels are pinned bit for bit to plainer versions of
the same arithmetic: a per-column transposed incidence map, a
fancy-indexed forward map, an unbuffered-add power iteration and vertex
sums for the per-row step constants, ``np.clip`` for the box projection,
the l2 projection written out with a ``np.where`` scale, the l1 one row
by row, and the ridge curvature on column-stacked vectors. The row
projections reduce their rows with the library's ``np.einsum`` calls,
whose order of additions is numpy's own (checked on numpy 2.4), on rows
read in C order, and take the l1 threshold as the largest candidate;
Duchi's last-true-index rule is kept apart as an independent reference
that the kernel is held to within a measured tolerance. The outer
sweep's over-relaxed u- and mu-updates are pinned the same way to their
textbook form. The CSV reader's one finiteness check per file is held
to a reader that checks each line as it goes.

The library keeps every per-instance quantity as an n-by-d matrix. The
dense oracles work on column-stacked vectors instead, through the
``stack_columns``/``unstack_columns`` pair defined here: vec(M) stacks
the columns of M, so the lift of Q to stacked matrices is I_d (x) Q
(``kron_lift``). The unit-ball projection ``project_ball`` and the
conjugate gradient ``conjugate_gradient`` are kept here too; the library
calls neither. ``DataSymmetry`` draws a map of an instance that the
problems are invariant under, for the equivariance tests, which check
the library against itself on mapped data rather than against its
history.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

import sco.graph
from sco import (ConvexClusteringProblem, DataValidationError, Dataset, ParameterError,
                 RidgeProblem, VariableGraph, as_norm, project_l1_ball, prox_norm,
                 sum_norms, vec_norm)
from sco.admm import _INNER_REL
from sco.graph import DEFAULT_WEIGHT_CAP

from helpers import edge_triples, graph_of


def stack_columns(M: np.ndarray) -> np.ndarray:
    """Column-stacking vectorisation vec(M) of a matrix."""
    return np.asarray(M, dtype=float).reshape(-1, order="F")


def unstack_columns(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`stack_columns`."""
    return np.asarray(v, dtype=float).reshape((rows, cols), order="F")


def project_ball(v: np.ndarray, q) -> np.ndarray:
    """Euclidean projection of v onto the unit q-norm ball, q in {1, 2, inf}."""
    q = as_norm(q)
    v = np.asarray(v, dtype=float)
    if q == np.inf:
        return np.clip(v, -1.0, 1.0)
    if q == 2.0:
        nrm = np.linalg.norm(v)
        return v.copy() if nrm <= 1.0 else v / nrm
    return project_l1_ball(v, 1.0)


def conjugate_gradient(problem, Q, lam: np.ndarray) -> np.ndarray:
    """Gradient of ``problem.conjugate_value(Q.apply_t(.))`` at the dual rows lam."""
    V = Q.apply_t(lam)
    return Q.apply(problem.conjugate_linear_term() + problem.conjugate_curvature(V))


def dense_incidence(graph, alpha: float) -> np.ndarray:
    """Materialise the scaled incidence matrix row by row."""
    Q = np.zeros((graph.edge_count, graph.vertex_count))
    for k, (i, j, w) in enumerate(edge_triples(graph)):
        Q[k, i] = alpha * w
        Q[k, j] = -alpha * w
    return Q


def dense_ridge_sandwich(values: np.ndarray, delta: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Dense omega^{-1} C omega^{-1} for the ridge cross operator
    C = 2 diag(vec D) (11' (x) I_n) diag(vec A), with omega the diagonal
    matrix of vec(omega) for an n-by-d weight matrix omega."""
    n, d = values.shape
    cross = (2.0 * np.diag(stack_columns(delta))
             @ np.kron(np.ones((d, d)), np.eye(n))
             @ np.diag(stack_columns(values)))
    w = stack_columns(omega)
    return cross / np.outer(w, w)


def kron_lift(Qd: np.ndarray, d: int) -> np.ndarray:
    """Dense I_d (x) Q."""
    return np.kron(np.eye(d), Qd)


def golden_section(fn, lo: float, hi: float, iters: int = 160) -> float:
    """Minimise a unimodal scalar function on [lo, hi]."""
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def prox_argmin_oracle(omega: np.ndarray, t: float, s) -> np.ndarray:
    """Numeric argmin of t*||v||_s + 0.5*||v - omega||^2.

    s = 1: independent per-coordinate golden-section searches.
    s = 2: golden-section over the radius; for a fixed radius the closest
           point on the sphere lies along omega.
    s = inf: golden-section over the max-magnitude bound tau; for fixed
           tau the inner minimisation clips each coordinate to [-tau, tau].
    """
    omega = np.asarray(omega, dtype=float)
    t = float(t)
    if s == 1:
        out = np.empty_like(omega)
        for k, w in enumerate(omega):
            span = abs(w) + t + 1.0
            out[k] = golden_section(lambda v: t * abs(v) + 0.5 * (v - w) ** 2, -span, span)
        return out
    if s == 2:
        nrm = np.linalg.norm(omega)
        if nrm == 0.0:
            return np.zeros_like(omega)
        r = golden_section(lambda r: t * r + 0.5 * (nrm - r) ** 2, 0.0, nrm)
        return (r / nrm) * omega
    # s = inf
    mx = np.abs(omega).max()
    if mx == 0.0:
        return np.zeros_like(omega)

    def clipped_cost(tau):
        excess = np.maximum(np.abs(omega) - tau, 0.0)
        return t * tau + 0.5 * float(excess @ excess)

    tau = golden_section(clipped_cost, 0.0, mx)
    return np.clip(omega, -tau, tau)


def quadratic_from_values(fn, dim: int):
    """Exact (H, b, c0) with fn(x) = 0.5 x'Hx + b'x + c0, recovered from
    function values only; exact for any quadratic because second
    differences of quadratics carry no truncation error."""
    e = np.eye(dim)
    c0 = fn(np.zeros(dim))
    fp = np.array([fn(e[i]) for i in range(dim)])
    fm = np.array([fn(-e[i]) for i in range(dim)])
    b = 0.5 * (fp - fm)
    H = np.zeros((dim, dim))
    for i in range(dim):
        H[i, i] = fp[i] + fm[i] - 2.0 * c0
    for i in range(dim):
        for j in range(i + 1, dim):
            H[i, j] = H[j, i] = fn(e[i] + e[j]) - fp[i] - fp[j] + c0
    return H, b, c0


def conjugate_sup_oracle(fn, dim: int, v: np.ndarray) -> float:
    """sup_x <v, x> - fn(x) for a strictly convex quadratic fn, via exact
    quadratic reconstruction and a dense solve."""
    H, b, c0 = quadratic_from_values(fn, dim)
    x = np.linalg.solve(H, v - b)
    return float(v @ x - (0.5 * x @ H @ x + b @ x + c0))


def clustering_subgradient_oracle(values: np.ndarray, graph, alpha: float, p: float,
                                  iters: int) -> np.ndarray:
    """Long-run subgradient descent on the full clustering objective.

    The loss is 2-strongly convex, so steps 1/(k+1) with iterate averaging
    weighted by k give the standard O(1/T) suboptimality decay.
    """
    n, d = values.shape
    head, tail, coef = graph.head, graph.tail, alpha * graph.weight
    X = values.copy()
    average = np.zeros_like(X)
    weight_sum = 0.0
    for k in range(1, int(iters) + 1):
        diff = X[head] - X[tail]
        if p == 2:
            nrm = np.sqrt((diff * diff).sum(axis=1))
            scale = np.where(nrm > 0, 1.0 / np.maximum(nrm, 1e-300), 0.0)
            sub = diff * scale[:, None]
        elif p == 1:
            sub = np.sign(diff)
        else:  # p = inf: route the sign through the first max-magnitude entry
            sub = np.zeros_like(diff)
            if diff.size:
                arg = np.abs(diff).argmax(axis=1)
                rows = np.arange(diff.shape[0])
                sub[rows, arg] = np.sign(diff[rows, arg])
        grad = 2.0 * (X - values)
        scaled = coef[:, None] * sub
        for c in range(d):
            grad[:, c] += np.bincount(head, weights=scaled[:, c], minlength=n)
            grad[:, c] -= np.bincount(tail, weights=scaled[:, c], minlength=n)
        X = X - (1.0 / (k + 1.0)) * grad
        weight_sum += k
        average += (k / weight_sum) * (X - average)
    return average


def clustering_objective(values: np.ndarray, graph, alpha: float, p: float,
                         X: np.ndarray) -> float:
    total = float(((X - values) ** 2).sum())
    for i, j, w in edge_triples(graph):
        diff = X[i] - X[j]
        if p == 2:
            total += alpha * w * float(np.linalg.norm(diff))
        elif p == 1:
            total += alpha * w * float(np.abs(diff).sum())
        else:
            total += alpha * w * float(np.abs(diff).max())
    return total


def dual_subproblem_objective(problem, Q, lam: np.ndarray, u: np.ndarray,
                              mu: np.ndarray, rho: float) -> float:
    """Value of the smooth dual-row subproblem: conjugate + multiplier
    coupling + quadratic penalty, with u and mu n-by-d matrices."""
    coupling = float((lam * Q.apply(mu)).sum())
    penalty = 0.5 * rho * float(np.sum((Q.apply_t(lam) - u) ** 2))
    return problem.conjugate_value(Q.apply_t(lam)) + coupling + penalty


def column_problem(problem, c: int):
    """The task rebuilt on feature column c alone."""
    column = problem.values[:, c:c + 1]
    if isinstance(problem, RidgeProblem):
        return RidgeProblem(Dataset(column, problem.dataset.targets), problem.gamma)
    return ConvexClusteringProblem(Dataset(column))


def l1_ball_sort_reference(v: np.ndarray, radius: float) -> np.ndarray:
    """Projection of one vector onto the l1 ball of the given radius by the
    sort-based method of Duchi et al. (2008), with no batching: the
    threshold is the largest candidate (css_k - radius)/k, and the
    inside-the-ball test sums the magnitudes with ``np.einsum``."""
    v = np.ascontiguousarray(v, dtype=float)
    if np.einsum("i->", np.abs(v)) <= radius:
        return v.copy()
    return l1_sort_shrink(v, radius)


def l1_sort_shrink(v: np.ndarray, radius: float) -> np.ndarray:
    """:func:`l1_ball_sort_reference` without its inside-the-ball test:
    ``v`` shrunk by the largest candidate (css_k - radius)/k, or by 0 when
    no candidate is positive (a row put over the ball only by rounding)."""
    a = np.abs(v)
    css = np.cumsum(np.sort(a)[::-1])
    theta = np.max((css - radius) / np.arange(1, v.size + 1), initial=0.0)
    return np.sign(v) * np.maximum(a - theta, 0.0)


def duchi_l1_ball_projection(v: np.ndarray, radius: float) -> np.ndarray:
    """Projection of one vector onto the l1 ball by the last-true-index
    form of Duchi et al. (2008): the threshold is the candidate at the
    last index where the sorted magnitude u_k exceeds (css_k - radius)/k,
    the first index counted as true (it is in exact arithmetic). It
    shares no reduction with the library, so it checks the kernel only to
    rounding."""
    v = np.asarray(v, dtype=float)
    a = np.abs(v)
    if a.sum() <= radius:
        return v.copy()
    u = np.sort(a)[::-1]
    css = np.cumsum(u)
    mask = u > (css - radius) / np.arange(1, v.size + 1)
    # the test holds at the first index in exact arithmetic; rounding loses
    # it when a magnitude is infinite or so large that subtracting the
    # radius rounds away
    mask[0] = True
    rho = np.nonzero(mask)[0][-1]
    theta = (css[rho] - radius) / (rho + 1.0)
    return np.sign(v) * np.maximum(a - theta, 0.0)


def per_row_l1_projection(lam: np.ndarray, q=1.0) -> np.ndarray:
    """``project_rows(lam, 1)`` one row at a time: :func:`l1_sort_shrink`
    on each row of the C-ordered block whose l1 norm is over 1. The norms
    are the same BLAS product ``|lam| @ 1`` over the whole block that
    ``project_rows`` takes, so a row within rounding of the boundary is
    chosen alike; the BLAS build sets their last bits. A drop-in for
    ``project_rows`` when q = 1."""
    assert float(q) == 1.0
    lam = np.atleast_2d(np.ascontiguousarray(lam, dtype=float))
    out = lam.copy()
    for k in np.nonzero(np.abs(lam) @ np.ones(lam.shape[1]) > 1.0)[0]:
        out[k] = l1_sort_shrink(lam[k], 1.0)
    return out


def per_column_apply_t(Q, lam: np.ndarray) -> np.ndarray:
    """``Q.apply_t`` one feature column at a time: two bincounts per column,
    each summing its edges in increasing order."""
    lam = np.atleast_2d(np.asarray(lam, dtype=float))
    out = np.zeros((Q.col_count, lam.shape[1]))
    if Q.row_count == 0:
        return out
    for c in range(lam.shape[1]):
        scaled = Q.coef * lam[:, c]
        out[:, c] = np.bincount(Q.head, weights=scaled, minlength=Q.col_count)
        out[:, c] -= np.bincount(Q.tail, weights=scaled, minlength=Q.col_count)
    return out


def fancy_index_apply(Q, X: np.ndarray) -> np.ndarray:
    """``Q.apply`` by fancy indexing of the edge ends."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if Q.row_count == 0:
        return np.zeros((0, X.shape[1]))
    return Q.coef[:, None] * (X[Q.head] - X[Q.tail])


def add_at_norm_estimate(Q, iterations: int = 50, safety: float = 1.01,
                         rng: np.random.Generator | None = None) -> float:
    """``operator_norm_estimate`` with the normal map accumulated by two
    unbuffered ``np.add.at`` calls, heads first."""
    if rng is None:
        rng = np.random.default_rng(0)
    v = rng.standard_normal(Q.col_count)
    nv = np.linalg.norm(v)
    if nv == 0.0:
        v = np.ones(Q.col_count)
        nv = np.linalg.norm(v)
    v /= nv
    for _ in range(int(iterations)):
        w = Q.coef * (v[Q.head] - v[Q.tail])
        z = np.zeros(Q.col_count)
        np.add.at(z, Q.head, Q.coef * w)
        np.add.at(z, Q.tail, -Q.coef * w)
        nz = np.linalg.norm(z)
        if nz == 0.0:
            return 0.0
        v = z / nz
    w = Q.coef * (v[Q.head] - v[Q.tail])
    return float(np.linalg.norm(w)) * float(safety)


def where_project_rows_l2(lam: np.ndarray) -> np.ndarray:
    """``project_rows(lam, 2)`` written out: the row norms of the C-ordered
    block by ``np.einsum("ij,ij->i")``, a scale of 1/norm where the norm is
    over 1 and 1 elsewhere (a NaN norm included), and one broadcast
    multiply."""
    lam = np.atleast_2d(np.ascontiguousarray(lam, dtype=float))
    nrm = np.sqrt(np.einsum("ij,ij->i", lam, lam))
    scale = np.where(nrm > 1.0, 1.0 / np.maximum(nrm, 1e-300), 1.0)
    return lam * scale[:, None]


def clip_project_rows(lam: np.ndarray, q) -> np.ndarray:
    """``project_rows`` with the box (q = inf) case done by ``np.clip``, the
    l2 case (q = 2) by :func:`where_project_rows_l2` and the l1 case (q = 1)
    by :func:`per_row_l1_projection`."""
    if float(q) == np.inf:
        return np.clip(np.atleast_2d(np.asarray(lam, dtype=float)), -1.0, 1.0)
    if float(q) == 2.0:
        return where_project_rows_l2(lam)
    return per_row_l1_projection(lam)


def stacked_ridge_curvature(problem, V: np.ndarray) -> np.ndarray:
    """``RidgeProblem.conjugate_curvature`` on the column-stacked vector."""
    n, d = problem.values.shape
    return unstack_columns(0.5 * stack_columns(V) / stack_columns(problem.omega_diagonal),
                           n, d)


def reference_row_lipschitz(problem, Q, config,
                            rng: np.random.Generator | None = None) -> np.ndarray:
    """``admm._row_lipschitz``: the vertex sums s = |Q|^T 1 and t = |Q|^T w
    accumulated by unbuffered ``np.add.at`` calls, heads first, and the
    norm of J^{-1/2} Q by ``add_at_norm_estimate``, its square clamped at
    the exact bound 1."""
    c = np.abs(Q.coef)
    s = np.zeros(Q.col_count)
    np.add.at(s, Q.head, c)
    np.add.at(s, Q.tail, c)
    s_row = s[Q.head] + s[Q.tail]
    cw = c * (c * s_row)
    t = np.zeros(Q.col_count)
    np.add.at(t, Q.head, cw)
    np.add.at(t, Q.tail, cw)
    linked = s_row > 0
    J = np.where(linked, (t[Q.head] + t[Q.tail]) / np.where(linked, s_row, 1.0), 1.0)
    rescaled = SimpleNamespace(head=Q.head, tail=Q.tail, coef=Q.coef / np.sqrt(J),
                               col_count=Q.col_count)
    sigma = add_at_norm_estimate(rescaled, rng=rng)
    return (min(sigma ** 2, 1.0) * (problem.curvature_bound() + config.rho)) * J


def reference_lambda_step(problem, Q, state, config, lipschitz,
                          tol: float | None = None) -> np.ndarray:
    """``lambda_step`` built from the reference kernels above: row k steps
    by 1/L_k through a fancy-indexed forward map with coefficients
    coef_k / L_k, and the stop test takes ``np.linalg.norm`` of
    diag(L) (y - lam+). It stops at ``max(config.inner_tol, tol)``; with
    ``tol=None``, at ``_INNER_REL`` times the first iteration's norm."""
    q = config.q
    fixed = problem.conjugate_linear_term() + state.mu - config.rho * state.u
    step_coef = (Q.coef / lipschitz)[:, None]
    lam = clip_project_rows(state.lam, q)
    y = lam
    t_k = 1.0
    for iterations in range(1, config.inner_max_iters + 1):
        V = Q.apply_t(y)
        Z = fixed + problem.conjugate_curvature(V) + config.rho * V
        lam_next = clip_project_rows(y - step_coef * (Z[Q.head] - Z[Q.tail]), q)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_k * t_k))
        y_next = lam_next + ((t_k - 1.0) / t_next) * (lam_next - lam)
        residual = float(np.linalg.norm(lipschitz[:, None] * (y - lam_next)))
        if tol is None:
            tol = _INNER_REL * residual
        stop = residual <= max(config.inner_tol, tol)
        y, lam, t_k = y_next, lam_next, t_next
        if stop:
            break
    state.inner += iterations
    return lam


def reference_relaxed_sweep(image: np.ndarray, u_prev: np.ndarray, mu_prev: np.ndarray,
                            config, relax: float) -> tuple[np.ndarray, np.ndarray]:
    """The u- and mu-updates of over-relaxed ADMM (Boyd et al. 2011,
    sec. 3.4.3) written out for the constraint Q^T lam - u = 0: the relaxed
    image h = r Q^T lam + (1 - r) u_prev replaces Q^T lam in both,
    u = prox of (beta/rho)||.||_s at h + mu/rho, mu+ = mu + rho (h - u)."""
    h = relax * image + (1.0 - relax) * u_prev
    v = h + mu_prev / config.rho
    u = v if config.beta == 0.0 else prox_norm(v, config.beta / config.rho, config.s)
    return u, mu_prev + config.rho * (h - u)


def fenchel_gap(problem, Q, config, result) -> float:
    """Duality gap P + D of a solve, with D the full dual objective
    ``conjugate_value_full(Q^T lam) + beta * ||Q^T lam||_s`` and P the primal
    value ``f(x_star) + sum_e ||(Q X)_e||_p`` at the fused point
    X = x_star - mu. The loss of that primal is the infimal
    convolution of f with the indicator of the beta-ball of the dual norm
    of s; mu lies in that ball after every multiplier step, so
    f(x_star) bounds the loss at X and the gap is nonnegative."""
    lam = result.state.lam
    X = result.x_star - result.state.mu
    primal = problem.primal_value(result.x_star) + sum_norms(Q.apply(X), config.p)
    V = Q.apply_t(lam)
    dual = problem.conjugate_value_full(V) + config.beta * vec_norm(V, config.s)
    return primal + dual


class DataSymmetry:
    """A map of an n-by-d instance that both problems are invariant under,
    and convex clustering also with a translation: row i of the image is
    row ``rows[i]``, feature c is feature ``cols[c]`` times ``signs[c]``,
    then ``shift`` is added (zero unless ``translate``). Drawn from ``rng``
    in that order."""

    def __init__(self, rng: np.random.Generator, n: int, d: int, translate: bool):
        self.rows, self.cols = rng.permutation(n), rng.permutation(d)
        self.signs = rng.choice([-1.0, 1.0], d)
        self.shift = rng.uniform(-2.0, 2.0, d) if translate else np.zeros(d)

    def forward(self, M: np.ndarray) -> np.ndarray:
        return M[self.rows][:, self.cols] * self.signs + self.shift

    def graph(self, graph: VariableGraph, rng: np.random.Generator) -> VariableGraph:
        """The graph on the relabelled vertices, its edges in a random order."""
        label = np.argsort(self.rows)  # base vertex -> its row in the image
        edges = [(*sorted((int(label[i]), int(label[j]))), w) for i, j, w in edge_triples(graph)]
        return graph_of(graph.vertex_count,
                        tuple(edges[k] for k in rng.permutation(len(edges))))


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes and equal bit patterns: tells -0.0 from 0.0 and
    compares NaNs by payload."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def per_line_read_matrix_csv(path: str):
    """``read_matrix_csv`` without targets, checking each line for
    non-numeric and then non-finite cells as it is read, and the widths
    once the whole file is in."""
    rows = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            try:
                if "_" in line or not line.isascii():
                    raise ValueError(line)
                row = [float(c) for c in cells]
            except ValueError:
                raise DataValidationError(
                    f"{path}:{lineno}: non-numeric cell in {cells!r}") from None
            if not all(np.isfinite(row)):
                raise DataValidationError(f"{path}:{lineno}: non-finite value")
            rows.append(row)
    if not rows:
        raise DataValidationError(f"{path}: empty dataset")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise DataValidationError(f"{path}: ragged rows with widths {sorted(widths)}")
    return np.array(rows, dtype=float)


def pairwise_distances(values: np.ndarray) -> np.ndarray:
    """Dense matrix of Euclidean distances between rows."""
    gram = values @ values.T
    sq = np.diag(gram)
    d2 = sq[:, None] + sq[None, :] - 2.0 * gram
    np.maximum(d2, 0.0, out=d2)
    return np.sqrt(d2)


def per_row_knn_graph(data: Dataset, k: int, weight_cap: float = DEFAULT_WEIGHT_CAP) -> VariableGraph:
    """``build_knn_graph`` from a dense n-by-n distance matrix and one
    (distance, index) sort per row; the weights come from the same matrix."""
    n = data.row_count
    if n < 2:
        raise ParameterError("need at least two instances to build a graph")
    k = int(k)
    if not 1 <= k <= n - 1:
        raise ParameterError(f"k must satisfy 1 <= k <= n-1 = {n - 1}, got {k}")
    if not (np.isfinite(weight_cap) and weight_cap > 0):
        raise ParameterError(f"weight_cap must be a positive finite real, got {weight_cap}")

    dist = pairwise_distances(data.values)
    if not np.all(np.isfinite(dist)):
        raise DataValidationError("data magnitudes overflow the distance computation")
    order_keys = np.arange(n)
    pairs = set()
    for i in range(n):
        # sort by (distance, index); drop self before keeping k entries
        order = np.lexsort((order_keys, dist[i]))
        picked = 0
        for j in order:
            if j == i:
                continue
            pairs.add((min(i, j), max(i, j)))
            picked += 1
            if picked == k:
                break

    edges = []
    for i, j in sorted(pairs):
        d = dist[i, j]
        w = weight_cap if d == 0.0 else min(1.0 / d, weight_cap)
        edges.append((int(i), int(j), float(w)))
    return graph_of(n, edges)


def partition_knn_graph(data: Dataset, k: int,
                        weight_cap: float = DEFAULT_WEIGHT_CAP) -> VariableGraph:
    """``build_knn_graph`` with its earlier selection: the same blocks of
    ``sco.graph._BLOCK_ENTRIES`` keys and the same ranking keys, then
    ``np.partition`` over every full row for the k-th key and, in rows with
    ties at it, a cumsum over the whole row for the smallest tied indices.
    The weights are the direct differences of all kept pairs at once."""
    values = data.values
    n = values.shape[0]
    sq = np.einsum("ij,ij->i", values, values)
    rows = max(1, sco.graph._BLOCK_ENTRIES // n)
    keys = []
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        rank = (-2.0 * values[start:stop]) @ values.T
        rank += sq
        local = np.arange(stop - start)
        rank[local, start + local] = np.inf
        kth = np.partition(rank, k - 1, axis=1)[:, k - 1:k]
        keep = rank <= kth
        over = np.flatnonzero(np.count_nonzero(keep, axis=1) > k)
        if over.size:
            closer = rank[over] < kth[over]
            tied = keep[over] & ~closer
            room = k - np.count_nonzero(closer, axis=1, keepdims=True)
            keep[over] = closer | (tied & (np.cumsum(tied, axis=1) <= room))
        i, j = np.divmod(np.flatnonzero(keep), n)
        i += start
        keys.append(np.minimum(i, j) * n + np.maximum(i, j))
    heads, tails = np.divmod(np.unique(np.concatenate(keys)), n)
    with np.errstate(divide="ignore"):
        weights = np.minimum(1.0 / np.linalg.norm(values[heads] - values[tails], axis=1),
                             weight_cap)
    return VariableGraph(n, heads, tails, weights)


def per_edge_extract_clusters(X: np.ndarray, graph, eps_fuse: float) -> np.ndarray:
    """``extract_clusters`` with one ``np.linalg.norm`` fuse test per edge
    in a Python loop, unioning as it goes."""
    if not eps_fuse > 0:
        raise ParameterError(f"eps_fuse must be positive, got {eps_fuse}")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = graph.vertex_count
    parent = np.arange(n)

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i, j, _ in edge_triples(graph):
        if np.linalg.norm(X[i] - X[j]) <= eps_fuse:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)

    labels = np.empty(n, dtype=int)
    smallest: dict[int, int] = {}
    for v in range(n):
        root = find(v)
        if root not in smallest:
            smallest[root] = v  # vertices visited in order: first hit is the minimum
        labels[v] = smallest[root]
    return labels
