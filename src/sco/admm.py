"""Splitting solver for the constrained, regularised dual problem.

The dual objective is the loss conjugate along the negated transposed
incidence directions plus ``beta`` times the s-norm of that image, with
every dual row constrained to the unit q-norm ball. The dual rows lam are
an m-by-d matrix and their image Q^T lam an n-by-d one; the s-norm is
taken over all entries of the image. Splitting the norm term over an
n-by-d consensus matrix u with an n-by-d multiplier mu gives three
updates per sweep:

1. the dual rows solve a smooth constrained subproblem (accelerated
   projected gradient with one step 1/L_k per dual row),
2. u has a closed-form norm proximal update with threshold beta/rho,
3. mu takes the usual scaled residual step, mu + rho (h - u).

Steps 2 and 3 are over-relaxed (Boyd et al. 2011, "Distributed
Optimization and Statistical Learning via ADMM", sec. 3.4.3; Eckstein &
Bertsekas 1992, Math. Prog. 55): both take the same relaxed image
h = r Q^T lam + (1 - r) u_prev in place of Q^T lam, with r = 1.4. Using one
h in both keeps mu in the beta-ball of the dual s-norm after every sweep.

Convergence is tracked through the primal/dual residual pair (the
Frobenius norms of the unrelaxed Q^T lam - u and of rho Q (u - u_prev))
and the weighted step norm that decays like 1/T for this family of
methods (blocks: zero weight on the dual rows, rho on u, 1/rho on mu).

The dual-row steps are diagonally preconditioned (Pock & Chambolle 2011,
"Diagonal preconditioning for first order primal-dual algorithms"): one
scalar L would be set by the heaviest edges of the graph, while
L_k = (kappa + rho) lt J_k, with J the scaled diagonal-dominance bound
of QQ^T and lt <= 1 the squared norm of J^{-1/2} Q, lets the rows of
light edges take longer steps. Every row's constraint is a ball and its
metric weight a scalar, so the row projections stay exact in the
diag(L) metric.

The dual-row subproblems are solved inexactly, with a relative error
(Eckstein & Yao 2018, relative-error approximate ADMM): each sweep stops
its inner loop once the L-weighted gradient-mapping norm
||diag(L) (y - lam+)||_F is at most 1% of the larger outer residual of
the sweep before, and never asks for less than ``inner_tol``. The first
sweep of every solve, cold or warm-started, has no sweep before it and
stops at 1% of that norm at its starting dual rows instead. Early
sweeps, whose residuals are large, take a few inner iterations; the
tolerance tightens as the outer residuals fall.

A solve owns its state exclusively. With box constraints (q = inf) the
dual-row subproblem splits into one independent block per feature
column, and the one vectorised loop already solves them all at once, so
the ``parallel`` update is the same loop under another name.
"""

from __future__ import annotations

import math
import numbers
import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, NumericFailure, ParameterError
from .incidence import EdgeIncidence, operator_norm_estimate
from .norms import as_norm, dual_norm, sum_norms, vec_norm
from .problems import Problem
from .prox import project_rows, prox_norm

# A sweep's inner tolerance as a fraction of the larger outer residual of
# the sweep before it; for the first sweep, a fraction of the
# gradient-mapping norm at the starting dual rows. On the benchmark
# workloads 1.0 left a p = inf path model 7.6e-4 from its tight reference
# and ran a monitor re-solve into the outer cap, 0.1 left an 18% larger
# duality gap, and 1e-3 ran 1.7-2.6x the inner iterations of this value.
_INNER_REL = 0.01

# The over-relaxation factor r of the u- and mu-steps' image,
# r Q^T lam + (1 - r) u_prev. Against r = 1 it cut traced seed-1 outer/inner
# iterations on the benchmark from 18/353 to 12/246 (solve-cc), 45/3717 to
# 31/2571 (path-pinf) and 92/2306 to 69/2072 (monitor-ridge). At 1.5 the
# relative-error inner rule's duality gap on the 4-blob test instance rose
# past 1.25x the fixed rule's; at 1.6 it reached 17x.
_OVER_RELAX = 1.4

# Q's own factor (lt, J) of the per-row constants, one per operator object:
# an operator's edges and coefficients are fixed at construction, and
# monitor and bound solve several times on one. Weak keys, so an entry
# goes with its operator.
_ROW_FACTORS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _finite_real(value) -> bool:
    """Whether value is a finite real number; a string or None is not."""
    return isinstance(value, numbers.Real) and math.isfinite(value)


@dataclass
class SolverConfig:
    """Solver hyperparameters and tolerances.

    ``p`` selects the regulariser row norm; its dual ``q`` (the row
    constraint geometry) is derived, never set directly. ``s`` selects the
    norm of the dual-image regulariser weighted by ``beta``. ``parallel``
    selects :func:`parallel_lambda_step`, which runs the same loop as the
    serial update; it is kept for compatibility and still needs q = inf.
    """

    beta: float = 5.0
    rho: float = 1.0
    p: float = 2.0
    s: float = 1.0
    outer_max_iters: int = 500
    inner_max_iters: int = 200
    eps_abs: float = 1e-6
    eps_rel: float = 1e-4
    inner_tol: float = 1e-8
    parallel: bool = False

    def __post_init__(self):
        self.p = as_norm(self.p)
        self.s = as_norm(self.s)
        if not (_finite_real(self.beta) and self.beta >= 0):
            raise ParameterError(f"beta must be nonnegative, got {self.beta!r}")
        for name in ("rho", "eps_abs", "eps_rel", "inner_tol"):
            value = getattr(self, name)
            if not (_finite_real(value) and value > 0):
                raise ParameterError(f"{name} must be positive, got {value!r}")
        for name in ("outer_max_iters", "inner_max_iters"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and value >= 1 and value % 1 == 0):
                raise ParameterError(f"{name} must be a whole number >= 1, got {value!r}")
            setattr(self, name, int(value))
        if self.parallel and self.q != np.inf:
            raise ParameterError("parallel dual updates need box constraints (p = 1, q = inf)")

    @property
    def q(self) -> float:
        return dual_norm(self.p)


@dataclass
class DualState:
    """Dual rows (m-by-d), consensus matrix u and multiplier mu (both
    n-by-d), plus the inner dual-row iterations summed over every sweep
    that produced them, warm-started solves included."""

    lam: np.ndarray
    u: np.ndarray
    mu: np.ndarray
    inner: int = 0

    def copy(self) -> "DualState":
        return DualState(self.lam.copy(), self.u.copy(), self.mu.copy(), self.inner)


def zero_state(m: int, n: int, d: int) -> DualState:
    """All-zero state: always feasible for every constraint geometry."""
    return DualState(np.zeros((m, d)), np.zeros((n, d)), np.zeros((n, d)))


@dataclass
class ConvergenceTrace:
    """Per-sweep primal residual, dual residual and weighted step norm."""

    primal_res: list = field(default_factory=list)
    dual_res: list = field(default_factory=list)
    h_step: list = field(default_factory=list)

    def append(self, primal: float, dual: float, h: float) -> None:
        self.primal_res.append(float(primal))
        self.dual_res.append(float(dual))
        self.h_step.append(float(h))

    def rows(self):
        """(iter, primal_res, dual_res, h_step) tuples, 1-based iterations."""
        return [(k + 1, p, d, h) for k, (p, d, h) in
                enumerate(zip(self.primal_res, self.dual_res, self.h_step))]


@dataclass
class SolveResult:
    """Outcome of one dual solve. ``iterations`` counts its outer sweeps
    and ``inner_iterations`` the inner dual-row iterations of all of them.

    ``primal_objective`` is ``f(x_star) + sum_k ||(Q x_star)_k||_p``, taken
    at the recovered ``x_star``. It is the primal optimum only at beta = 0;
    at beta > 0 it is not the primal value that ``dual_objective`` bounds,
    so the two do not make a duality gap."""

    state: DualState
    x_star: np.ndarray
    trace: ConvergenceTrace
    converged: bool
    stop_reason: str
    iterations: int
    dual_objective: float
    primal_objective: float
    inner_iterations: int


def h_norm_step(u_prev: np.ndarray, u_next: np.ndarray,
                mu_prev: np.ndarray, mu_next: np.ndarray, rho: float) -> float:
    """Squared weighted norm of one step: rho*||du||^2 + (1/rho)*||dmu||^2,
    with Frobenius norms for matrices.

    The dual-row block carries zero weight, so only u and mu enter.
    """
    du = np.asarray(u_next) - np.asarray(u_prev)
    dmu = np.asarray(mu_next) - np.asarray(mu_prev)
    return float(rho * np.vdot(du, du) + np.vdot(dmu, dmu) / rho)


def _row_lipschitz(problem: Problem, Q: EdgeIncidence, config: SolverConfig,
                   rng: np.random.Generator | None = None) -> np.ndarray:
    """Per-row Lipschitz constants L of the dual-row gradient: diag(L)
    dominates the subproblem's Hessian, so row k may step by 1/L_k.

    On each feature column the Hessian is Q (C + rho I) Q^T, with the
    conjugate curvature C at most kappa = ``problem.curvature_bound()``.
    J_k = (|Q||Q|^T w)_k / w_k with w = |Q||Q|^T 1 gives diag(J) >= QQ^T
    by scaled diagonal dominance. With s = |Q|^T 1 and t = |Q|^T w at the
    vertices, edge k = (i, j) has w_k = |c_k| (s_i + s_j), and its factor
    |c_k| cancels: J_k = (t_i + t_j) / (s_i + s_j). Then QQ^T <= lt J with
    lt the squared norm of J^{-1/2} Q, at most 1, which the power
    iteration estimates; the estimate, inflated for safety, is clamped at
    that exact bound. So L_k = (kappa + rho) lt J_k. Two scatters over
    the edge ends and one norm estimate, no pass over an m-by-d block.

    A zero-weight edge is a zero row of Q, which any positive L_k bounds;
    its J_k is that formula when an end has another edge and 1 when not,
    finite either way.

    lt and J depend on Q alone, so they are computed once per operator
    object and kept; only kappa + rho is taken per call. A call with an
    ``rng`` computes them afresh and keeps nothing.
    """
    factor = _ROW_FACTORS.get(Q) if rng is None else None
    if factor is None:
        c = np.abs(Q.coef)
        ends = np.concatenate([Q.head, Q.tail])
        s = np.bincount(ends, weights=np.concatenate([c, c]), minlength=Q.col_count)
        s_row = s[Q.head] + s[Q.tail]
        cw = c * (c * s_row)
        t = np.bincount(ends, weights=np.concatenate([cw, cw]), minlength=Q.col_count)
        J = np.divide(t[Q.head] + t[Q.tail], s_row, out=np.ones(Q.row_count), where=s_row > 0)
        J.flags.writeable = False
        sigma = operator_norm_estimate(Q.with_coef(Q.coef / np.sqrt(J)), rng=rng)
        factor = (min(sigma ** 2, 1.0), J)
        if rng is None:
            _ROW_FACTORS[Q] = factor
    lt, J = factor
    return (lt * (problem.curvature_bound() + config.rho)) * J


def lambda_step(problem: Problem, Q: EdgeIncidence, state: DualState, config: SolverConfig,
                lipschitz: np.ndarray, tol: float | None = None) -> np.ndarray:
    """One dual-row update: accelerated projected gradient on the smooth
    subproblem (conjugate + multiplier coupling + quadratic penalty) over
    the per-row q-ball constraints, in the metric diag(L) of one Lipschitz
    constant per dual row.

    ``lipschitz`` holds the constants L, one positive entry per dual row:
    the diagonally preconditioned ones of :func:`_row_lipschitz` (Pock &
    Chambolle 2011, "Diagonal preconditioning for first order primal-dual
    algorithms"). Row k steps by 1/L_k. Each row's metric weight is a
    scalar and its constraint a ball, so the diag(L)-projection is the
    plain row projection and the method is exact. The steps are folded
    into the operator diag(1/L) Q, built once per call, so scaling the
    gradient costs no pass over the m-by-d rows.

    One iteration makes no m-by-d block beyond those ``apply_t``,
    ``apply`` and ``project_rows`` return. The step y - G is written over
    the scaled gradient G that ``apply`` returned, the stop residual
    y - lam+ over the step once it is projected, and the momentum point
    lam+ + ((t_k - 1)/t_{k+1}) (lam+ - lam) over the spent residual,
    which becomes the next y while the old y is released. Every pass
    computes the products and sums of those expressions, operands in the
    same order, so the bits are theirs. The returned rows are a fresh array;
    ``state.lam``, ``state.u`` and ``state.mu`` are only read.

    Stops when the L-weighted gradient-mapping norm
    ``||diag(L) (y - lam+)||_F`` falls to ``max(config.inner_tol, tol)`` or
    after ``inner_max_iters`` iterations; the returned rows are feasible.
    With ``tol=None`` the target is 1% (``_INNER_REL``) of that norm at the
    first iteration, measured at the projected starting rows: the rule of
    a solve's first sweep. ``tol=0.0`` runs to the ``inner_tol`` floor.

    Adds the number of iterations run to ``state.inner``.
    """
    q = config.q
    # the part of the gradient's inner argument that the sweep holds fixed
    fixed = problem.conjugate_linear_term() + state.mu - config.rho * state.u
    P = Q.with_coef(Q.coef / lipschitz)
    lipschitz_flat = np.repeat(lipschitz, state.lam.shape[1])
    target = None if tol is None else max(config.inner_tol, tol)

    lam = project_rows(state.lam, q)
    y = lam
    t_k = 1.0
    for performed in range(1, config.inner_max_iters + 1):
        # diag(1/L) times the gradient, with P = diag(1/L) Q: one transpose
        # map through Q and one forward map through P, both fresh. The inner
        # argument (fixed + curvature) + rho V is summed in place; V is
        # scaled only after the curvature, which may return V itself, has
        # been added into a new array.
        V = Q.apply_t(y)
        Z = fixed + problem.conjugate_curvature(V)
        np.multiply(config.rho, V, out=V)
        Z += V
        G = P.apply(Z)
        np.subtract(y, G, out=G)
        lam_next = project_rows(G, q)
        np.subtract(y, lam_next, out=G)
        # ||diag(L) (y - lam+)||_F: the C-contiguous residual's raveled rows
        # are scaled in place by np.repeat(L, d), one flat pass instead of a
        # broadcast over rows of d entries
        z = G.ravel()
        z *= lipschitz_flat
        residual = math.sqrt(np.dot(z, z))
        if target is None:
            target = max(config.inner_tol, _INNER_REL * residual)
        if residual <= target:
            lam = lam_next
            break
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_k * t_k))
        np.subtract(lam_next, lam, out=G)
        np.multiply((t_k - 1.0) / t_next, G, out=G)
        np.add(lam_next, G, out=G)
        y, lam, t_k = G, lam_next, t_next
    state.inner += performed
    return lam


def parallel_lambda_step(problem: Problem, Q: EdgeIncidence, state: DualState,
                         config: SolverConfig, lipschitz: np.ndarray,
                         tol: float | None = None) -> np.ndarray:
    """Dual-row update for box constraints, kept for compatibility.

    With q = inf the subproblem splits into one independent block per
    feature column, but all blocks share the row steps, the momentum
    sequence and the whole-block stopping test, so this is
    :func:`lambda_step`, with the same arguments, and returns the same
    bits. Raises ParameterError unless q = inf.
    """
    if config.q != np.inf:
        raise ParameterError("parallel dual updates need box constraints (p = 1, q = inf)")
    return lambda_step(problem, Q, state, config, lipschitz=lipschitz, tol=tol)


def u_step(state: DualState, config: SolverConfig, image: np.ndarray) -> np.ndarray:
    """Closed-form consensus update: norm prox at threshold beta/rho of
    mu/rho plus ``image``, which stands for Q^T lam of the fresh dual rows
    (:func:`solve_dual` passes the over-relaxed image). With beta = 0 the
    prox is the identity."""
    omega = state.mu / config.rho + image
    if config.beta == 0.0:
        return omega
    return prox_norm(omega, config.beta / config.rho, config.s)


def mu_step(state: DualState, config: SolverConfig, image: np.ndarray) -> np.ndarray:
    """Multiplier update: mu plus rho times the consensus residual, with
    ``image`` standing for Q^T lam: mu + rho (image - u)."""
    return state.mu + config.rho * (image - state.u)


def solve_dual(problem: Problem, Q: EdgeIncidence, config: SolverConfig,
               warm_start: DualState | None = None,
               rng: np.random.Generator | None = None) -> SolveResult:
    """Run the splitting method on the regularised dual and recover the
    primal optimum.

    Terminates when the primal and dual residuals both drop under
    eps_abs * sqrt(n*d) + eps_rel * scale, or at ``outer_max_iters`` (the
    result is then flagged ``"max-iterations"`` rather than raising).
    Each sweep's dual-row solve runs to ``max(inner_tol, 0.01 * r)``,
    where r is ``max(primal_res, dual_res)`` of the sweep before or, for
    the first sweep, the L-weighted gradient-mapping norm at the starting
    dual rows, which :func:`lambda_step` measures at its first iteration.
    The per-row Lipschitz constants L of the dual-row steps are computed
    once per solve, from a factor that depends on ``Q`` alone and is
    computed once per operator object (see :func:`_row_lipschitz`).
    The u- and mu-steps both take the over-relaxed image
    ``r * Q^T lam + (1 - r) * u_prev`` with r = 1.4; the primal residual
    stays ``||Q^T lam - u||_F``, on the unrelaxed image. The primal
    optimum and the dual objective are read from the last sweep's image.

    Parameters
    ----------
    problem : Problem
        Task instance; shapes must match the incidence operator.
    Q : EdgeIncidence
        Scaled incidence operator over the variable graph.
    config : SolverConfig
    warm_start : DualState, optional
        Copied before use; shape-checked against the current sizes. Its
        dual rows are projected onto the q-balls by the first sweep. It
        is ignored when ``Q`` has no coupling (no edges or all-zero
        coefficients): that solve runs no sweep and returns the zero state.
    rng : numpy.random.Generator, optional
        Source of the power-iteration start vector, kept for the benchmark
        harness. The package passes none, so every solve takes one fixed start
        and reuses the operator's kept estimate; with a generator the estimate
        is made afresh for this solve.

    Returns
    -------
    SolveResult
    """
    n, d = problem.values.shape
    if Q.col_count != n:
        raise DimensionError(f"operator columns {Q.col_count} != instance count {n}")
    m = Q.row_count
    # Without coupling the regulariser vanishes and the loss minimiser at the
    # zero image is exact: no sweep runs and a warm start is ignored.
    coupled = bool(Q.coef.any())

    if warm_start is not None and coupled:
        if warm_start.lam.shape != (m, d) or warm_start.u.shape != (n, d) \
                or warm_start.mu.shape != (n, d):
            raise DimensionError("warm start shapes do not match the problem")
        state = warm_start.copy()
    else:
        state = zero_state(m, n, d)

    sweeps = config.outer_max_iters if coupled else 0
    lipschitz = _row_lipschitz(problem, Q, config, rng) if coupled else None
    step = parallel_lambda_step if config.parallel else lambda_step
    trace = ConvergenceTrace()
    sqrt_nd = np.sqrt(n * d)
    image = np.zeros((n, d))
    converged = not coupled
    performed = 0
    inner_start = state.inner
    sweep_tol = None  # the first sweep's target is relative to its own start

    for performed in range(1, sweeps + 1):
        state.lam = step(problem, Q, state, config, lipschitz=lipschitz, tol=sweep_tol)
        image = Q.apply_t(state.lam)
        u_prev, mu_prev = state.u, state.mu
        relaxed = _OVER_RELAX * image + (1.0 - _OVER_RELAX) * u_prev
        state.u = u_step(state, config, image=relaxed)
        state.mu = mu_step(state, config, image=relaxed)

        primal_res = float(np.linalg.norm(image - state.u))
        dual_res = config.rho * float(np.linalg.norm(Q.apply(state.u - u_prev)))
        trace.append(primal_res, dual_res,
                     h_norm_step(u_prev, state.u, mu_prev, state.mu, config.rho))
        if not (np.isfinite(primal_res) and np.isfinite(dual_res)):
            raise NumericFailure(f"non-finite residuals at sweep {performed} of this solve")

        eps_pri = config.eps_abs * sqrt_nd + config.eps_rel * max(
            float(np.linalg.norm(image)), float(np.linalg.norm(state.u)))
        eps_dua = config.eps_abs * sqrt_nd + config.eps_rel * float(
            np.linalg.norm(Q.apply(state.mu)))
        if primal_res <= eps_pri and dual_res <= eps_dua:
            converged = True
            break
        sweep_tol = _INNER_REL * max(primal_res, dual_res)

    # the last sweep's image is Q^T of the final dual rows
    x_star = problem.recover_primal(image)
    if not np.all(np.isfinite(x_star)):
        raise NumericFailure("recovered primal solution is not finite")
    return SolveResult(
        state=state, x_star=x_star, trace=trace, converged=converged,
        stop_reason="converged" if converged else "max-iterations",
        iterations=performed,
        dual_objective=problem.conjugate_value(image) + config.beta * vec_norm(image, config.s),
        primal_objective=problem.primal_value(x_star) + sum_norms(Q.apply(x_star), config.p),
        inner_iterations=state.inner - inner_start,
    )
