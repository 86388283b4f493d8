"""Computable accuracy bounds relating a kept model to the true model on
perturbed data, plus the norm bounds on the regularised dual image that
feed them.

Every quantity is an n-by-d matrix (or the m-by-d dual rows); <M, N> is
the sum of elementwise products, ||M|| the Frobenius norm, and the s-norm
of a matrix is taken over all of its entries.

Clustering task:

* dual-image bound: the s-norm of the transposed-incidence image Q^T lam
  of the perturbed-data dual optimum is at most ||A + D||^2 / beta;
* model bound: the data-weighted inner product of the model difference is
  at most <A, D> + c/2 + ||D|| * ||A + D||^2 / (2 beta).
  The left side is an inner product, not a norm, and may be negative.

Regression task (diagonal quadratic loss; the bounds are stated for
fixed targets and one gamma, so a pair of tasks that differ in either is
rejected):

* dual-image bound: the s-norm is at most the omega-inverse quadratic
  form <b, b / omega> of the target image b divided by 4 beta. The
  target image can be taken from the base or the evolved task; both
  variants are computed and the larger is reported as the operative
  right-hand side.
* model bound: the difference of omega-weighted model energies
  <X, omega * X> is at most the two squared quadratic forms weighted by
  spectral norms of the sandwiched cross operator, plus 4c.

Every check compares two tasks: the base task, on the data A a kept
model was solved on, and the evolved task, the same task on the new data
A + D (``Problem.with_values`` builds it); A, D, the targets, gamma,
omega and b all come from those two. ``reports`` is the one place that
chooses the checks by task.

Bare operator norms are read as spectral norms. The sandwiched cross
operator is block diagonal over instances with rank-one blocks, so its
norm has a closed form; it is exact up to a fixed 1% inflation (see
``_NORM_INFLATION``). Nothing here is estimated: every report is a
deterministic function of its arguments. All functions are pure and
thread-safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .incidence import EdgeIncidence
from .norms import as_norm, vec_norm
from .problems import ConvexClusteringProblem, Problem, RidgeProblem

RELATIVE_SLACK = 1e-9

# The sandwich norm is exact, so this factor only loosens the ridge model
# bound by 1%. It stays because the ridge rhs values in the benchmark
# reference (perfbench/reference/monitor-ridge.json) were computed with it;
# it can go when that reference is regenerated.
_NORM_INFLATION = 1.01


@dataclass
class BoundReport:
    """One evaluated inequality: left side, right side, verdict, inputs."""

    name: str
    lhs: float
    rhs: float
    satisfied: bool
    inputs: dict

    @staticmethod
    def build(name: str, lhs: float, rhs: float, inputs: dict) -> "BoundReport":
        ok = lhs <= rhs + RELATIVE_SLACK * abs(rhs)
        return BoundReport(name=name, lhs=float(lhs), rhs=float(rhs),
                           satisfied=bool(ok), inputs=inputs)

    def as_dict(self) -> dict:
        return {"name": self.name, "lhs": self.lhs, "rhs": self.rhs,
                "satisfied": self.satisfied, "inputs": self.inputs}


def _require_positive(name: str, value: float) -> float:
    value = float(value)
    if not (np.isfinite(value) and value > 0):
        raise ParameterError(f"{name} must be positive, got {value}")
    return value


def dual_image_norm(Q: EdgeIncidence, lam: np.ndarray, s) -> float:
    """s-norm over all entries of the transposed-incidence image of the
    dual rows."""
    return vec_norm(Q.apply_t(lam), as_norm(s))


def clustering_dual_image_bound(new_values: np.ndarray, beta: float) -> float:
    """Clustering dual-image bound: squared Frobenius norm of the evolved
    data over beta."""
    beta = _require_positive("beta", beta)
    v = np.asarray(new_values, dtype=float)
    return float((v * v).sum()) / beta


def clustering_dual_image_check(Q: EdgeIncidence, lam_tilde: np.ndarray, moved: Problem,
                                beta: float, s) -> BoundReport:
    """Dual-image norm bound for the clustering task; lam_tilde is the dual
    optimum on the evolved task ``moved``."""
    lhs = dual_image_norm(Q, lam_tilde, s)
    rhs = clustering_dual_image_bound(moved.values, beta)
    inputs = {"beta": float(beta), "s": _norm_tag(s),
              "new_values_fro": float(np.linalg.norm(moved.values))}
    return BoundReport.build("clustering-dual-image", lhs, rhs, inputs)


def clustering_model_check(base: Problem, moved: Problem, beta: float, c: float,
                           x_star: np.ndarray, x_tilde_star: np.ndarray) -> BoundReport:
    """Model-difference bound for the clustering task.

    x_star is solved on ``base`` and x_tilde_star on ``moved``:
    lhs = <A, X~ - X>;
    rhs = <A, D> + c/2 + ||D|| * ||A + D||^2 / (2 beta).
    """
    beta = _require_positive("beta", beta)
    a, evolved = base.values, moved.values
    x = np.asarray(x_star, dtype=float)
    xt = np.asarray(x_tilde_star, dtype=float)
    if not (a.shape == evolved.shape == x.shape == xt.shape):
        raise ParameterError("all matrices must share one shape")
    dv = evolved - a
    lhs = float((a * (xt - x)).sum())
    rhs = float((a * dv).sum()) + 0.5 * float(c) \
        + float(np.linalg.norm(dv)) * float((evolved * evolved).sum()) / (2.0 * beta)
    inputs = {"beta": beta, "c": float(c),
              "values_fro": float(np.linalg.norm(a)),
              "delta_fro": float(np.linalg.norm(dv))}
    return BoundReport.build("clustering-model-difference", lhs, rhs, inputs)


def _norm_tag(s) -> str:
    s = as_norm(s)
    return "inf" if s == np.inf else str(int(s))


def _sandwich_spectral_norm(values: np.ndarray, delta: np.ndarray, omega: np.ndarray) -> float:
    """Spectral norm of omega^{-1} C omega^{-1}, inflated by ``_NORM_INFLATION``.

    omega is the n-by-d weight matrix of a quadratic form. C is the cross
    operator between the perturbed and the original quadratic forms; it
    maps an n-by-d matrix Z to the matrix with rows 2 d_i <a_i, z_i>, so
    it is block diagonal over instances with the rank-one blocks
    2 d_i a_i' (d_i, a_i and w_i are rows i of D, A and omega). Its
    sandwich by omega^{-1} has the blocks 2 (d_i / w_i)(a_i / w_i)', so
    the norm is 2 max_i ||d_i / w_i|| * ||a_i / w_i||.
    """
    per_row = np.linalg.norm(delta / omega, axis=1) * np.linalg.norm(values / omega, axis=1)
    return 2.0 * float(per_row.max()) * _NORM_INFLATION


def _ridge_perturbation(base: RidgeProblem, moved: RidgeProblem) -> np.ndarray:
    """D = A~ - A of two ridge tasks. The regression bounds are stated for
    one shape, one gamma and fixed targets; any other pair is rejected."""
    if moved.values.shape != base.values.shape or moved.gamma != base.gamma \
            or not np.array_equal(moved.dataset.targets, base.dataset.targets):
        raise ParameterError("the regression bounds need the base task's shape, gamma and targets")
    return moved.values - base.values


def regression_dual_image_check(Q: EdgeIncidence, lam_tilde: np.ndarray, base: RidgeProblem,
                                moved: RidgeProblem, beta: float, s) -> BoundReport:
    """Dual-image norm bound for the regression task; lam_tilde is the dual
    optimum on the evolved task ``moved``. The right side is the
    perturbed-omega-inverse quadratic form of the target image over
    4 beta. The target images of the base and the evolved task are both
    evaluated; the larger is the operative bound and both appear in the
    report inputs.
    """
    beta = _require_positive("beta", beta)
    _ridge_perturbation(base, moved)
    # Target quadratic forms <b, b / omega>; conjugate_constant() is the
    # form of one task's own b and omega.
    b = base.target_adjoint
    rhs_plain = float((b * (b / moved.omega_diagonal)).sum()) / (4.0 * beta)
    rhs_tilde = moved.conjugate_constant() / (4.0 * beta)
    lhs = dual_image_norm(Q, lam_tilde, s)
    inputs = {"beta": beta, "gamma": base.gamma, "s": _norm_tag(s),
              "rhs_plain": float(rhs_plain), "rhs_perturbed": float(rhs_tilde),
              "targets_norm": float(np.linalg.norm(base.dataset.targets))}
    return BoundReport.build("regression-dual-image", lhs, max(rhs_plain, rhs_tilde), inputs)


def regression_model_check(base: RidgeProblem, moved: RidgeProblem, beta: float, c: float,
                           x_star: np.ndarray, x_tilde_star: np.ndarray) -> BoundReport:
    """Model-energy bound for the regression task.

    x_star is solved on ``base`` and x_tilde_star on ``moved``. lhs is
    their omega-weighted energy difference; rhs combines the squared
    target quadratic forms (evolved and base), each weighted by the
    spectral norm of the cross operator sandwiched between the matching
    inverse diagonal, plus 4c. Those norms are computed in closed form
    (``_sandwich_spectral_norm``), so the report depends on its
    arguments only.
    """
    beta = _require_positive("beta", beta)
    delta = _ridge_perturbation(base, moved)
    values = base.values

    x = np.asarray(x_star, dtype=float)
    xt = np.asarray(x_tilde_star, dtype=float)
    omega = base.omega_diagonal
    lhs = float((xt * (omega * xt)).sum()) - float((x * (omega * x)).sum())

    form_tilde = moved.conjugate_constant()  # <b, b / omega>
    form_plain = base.conjugate_constant()
    norm_tilde = _sandwich_spectral_norm(values, delta, moved.omega_diagonal)
    norm_plain = _sandwich_spectral_norm(values, delta, omega)
    scale = 1.0 / (16.0 * beta * beta)
    rhs = scale * form_tilde ** 2 * norm_tilde + scale * form_plain ** 2 * norm_plain \
        + 4.0 * float(c)
    inputs = {"beta": beta, "c": float(c), "gamma": base.gamma,
              "values_fro": float(np.linalg.norm(values)),
              "delta_fro": float(np.linalg.norm(delta)),
              "targets_norm": float(np.linalg.norm(base.dataset.targets))}
    return BoundReport.build("regression-model-energy", lhs, rhs, inputs)


def reports(Q: EdgeIncidence, base: Problem, moved: Problem,
            x_star: np.ndarray, x_tilde_star: np.ndarray, lam_tilde: np.ndarray,
            beta: float, s, c: float) -> list[BoundReport]:
    """Model and dual-image reports for the task of ``base``.

    x_star is the model solved on ``base``; x_tilde_star and lam_tilde are
    the solution on the evolved task ``moved``, the same task on the new
    data (``base.with_values`` builds it). A ridge pair whose targets
    differ raises ParameterError.
    """
    if isinstance(base, RidgeProblem):
        return [regression_model_check(base, moved, beta, c, x_star, x_tilde_star),
                regression_dual_image_check(Q, lam_tilde, base, moved, beta, s)]
    if isinstance(base, ConvexClusteringProblem):
        return [clustering_model_check(base, moved, beta, c, x_star, x_tilde_star),
                clustering_dual_image_check(Q, lam_tilde, moved, beta, s)]
    raise ParameterError(f"no bound checks for {type(base).__name__}")
