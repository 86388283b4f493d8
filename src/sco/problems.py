"""Task definitions: primal losses, their conjugates along the transposed
incidence directions, and primal recovery.

A task supplies two ingredients: the linear term of the conjugate (an
n-by-d matrix) and the curvature action (a positive self-adjoint map on
n-by-d matrices). The methods take V, the n-by-d dual image (the
transposed incidence map applied to the dual rows), never the operator
or the rows, and everything else follows:

* conjugate value   <linear, V> + 0.5 * <V, curvature(V)>
* conjugate gradient   incidence(linear + curvature(V))
* primal recovery      X = -(linear + curvature(V))

Here <M, N> is the sum of the elementwise products of two n-by-d
matrices.

The recovery line is the stationarity condition: the loss gradient at the
optimum cancels the transposed incidence image of the dual variables.

Constant terms that do not depend on the dual variables are dropped from
the conjugate value; ``conjugate_constant`` returns the dropped,
data-dependent part so that full conjugate values (needed by the refresh
metric and duality checks) can be reassembled exactly.

Problem objects are immutable; all methods are pure and thread-safe.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from .errors import DataValidationError, DimensionError, ParameterError
from .graph import Dataset


class Problem(ABC):
    """Contract shared by the concrete tasks."""

    dataset: Dataset

    @property
    def values(self) -> np.ndarray:
        return self.dataset.values

    # --- task-specific ingredients -------------------------------------

    @abstractmethod
    def primal_value(self, X: np.ndarray) -> float:
        """Loss f(X) for the task (regulariser excluded)."""

    @abstractmethod
    def conjugate_linear_term(self) -> np.ndarray:
        """n-by-d linear coefficient of the conjugate in V."""

    @abstractmethod
    def conjugate_curvature(self, V: np.ndarray) -> np.ndarray:
        """Curvature action of the conjugate applied to an n-by-d matrix."""

    @abstractmethod
    def curvature_bound(self) -> float:
        """Largest eigenvalue of the curvature action (for step sizes)."""

    @abstractmethod
    def conjugate_constant(self) -> float:
        """Data-dependent constant dropped from ``conjugate_value``."""

    @abstractmethod
    def with_values(self, values: np.ndarray, targets: np.ndarray | None = None) -> "Problem":
        """Same task rebuilt on new data of identical shape; ``targets``
        None keeps the task's own, and a task that reads none ignores them."""

    # --- shared derived operations -------------------------------------

    def _check_shape(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape != self.values.shape:
            raise DimensionError(f"expected shape {self.values.shape}, got {X.shape}")
        return X

    def conjugate_value(self, V: np.ndarray) -> float:
        """Conjugate of the loss at the dual image V, the transposed
        incidence image of the dual rows (constant terms dropped)."""
        return float((self.conjugate_linear_term() * V).sum()
                     + 0.5 * (V * self.conjugate_curvature(V)).sum())

    def conjugate_value_full(self, V: np.ndarray) -> float:
        """Conjugate value at the dual image V with the dropped
        data-dependent constant restored."""
        return self.conjugate_value(V) + self.conjugate_constant()

    def recover_primal(self, V: np.ndarray) -> np.ndarray:
        """Primal optimum implied by the dual image V via stationarity."""
        return -(self.conjugate_linear_term() + self.conjugate_curvature(V))


class ConvexClusteringProblem(Problem):
    """Squared Frobenius distance to the data matrix. The loss reads no
    targets, so the task keeps none: its dataset holds the values only."""

    def __init__(self, dataset: Dataset):
        self.dataset = dataset if dataset.targets is None else Dataset(dataset.values)

    def primal_value(self, X: np.ndarray) -> float:
        X = self._check_shape(X)
        diff = X - self.values
        return float((diff * diff).sum())

    def conjugate_linear_term(self) -> np.ndarray:
        return -self.values

    def conjugate_curvature(self, V: np.ndarray) -> np.ndarray:
        return 0.5 * V

    def curvature_bound(self) -> float:
        return 0.5

    def conjugate_constant(self) -> float:
        return 0.0

    def with_values(self, values, targets=None) -> "ConvexClusteringProblem":
        return ConvexClusteringProblem(Dataset(values))


class RidgeProblem(Problem):
    """Separable quadratic regression loss with l2 shrinkage.

    The loss is <X, omega * X> - 2 <b, X> on the n-by-d model X, with the
    n-by-d matrices ``omega = A**2 + gamma`` and ``b = A * y[:, None]``
    (each row of the data weighted by its target); products are
    elementwise. Both are exposed as ``omega_diagonal`` (the weights of
    the quadratic form, one per model entry) and ``target_adjoint``.
    The target-only constant is dropped throughout and restored by
    ``conjugate_constant`` where exact conjugate values are needed.
    """

    def __init__(self, dataset: Dataset, gamma: float):
        if dataset.targets is None:
            raise DataValidationError("regression task needs targets")
        gamma = float(gamma)
        if not (np.isfinite(gamma) and gamma > 0):
            raise ParameterError(f"gamma must be positive, got {gamma}")
        self.dataset = dataset
        self.gamma = gamma
        a = dataset.values
        self._omega = a ** 2 + gamma
        self._b = a * dataset.targets[:, None]

    @property
    def omega_diagonal(self) -> np.ndarray:
        return self._omega

    @property
    def target_adjoint(self) -> np.ndarray:
        """Adjoint image of the targets, n-by-d (the conjugate shift)."""
        return self._b

    def primal_value(self, X: np.ndarray) -> float:
        X = self._check_shape(X)
        return float((X * (self._omega * X)).sum() - 2.0 * (self._b * X).sum())

    def conjugate_linear_term(self) -> np.ndarray:
        return -(self._b / self._omega)

    def conjugate_curvature(self, V: np.ndarray) -> np.ndarray:
        return 0.5 * V / self._omega

    def curvature_bound(self) -> float:
        return float(0.5 / self._omega.min())

    def conjugate_constant(self) -> float:
        return float((self._b * (self._b / self._omega)).sum())

    def with_values(self, values, targets=None) -> "RidgeProblem":
        if targets is None:
            targets = self.dataset.targets
        return RidgeProblem(Dataset(values, targets), self.gamma)


TASKS = ("cc", "ridge")


def make_problem(task: str, dataset: Dataset, gamma: float = 5.0) -> Problem:
    """Build a problem instance by task name ("cc" or "ridge")."""
    if task == "cc":
        return ConvexClusteringProblem(dataset)
    if task == "ridge":
        return RidgeProblem(dataset, gamma)
    raise ParameterError(f"unknown task {task!r}; expected one of {TASKS}")
