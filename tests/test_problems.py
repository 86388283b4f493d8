import numpy as np
import pytest

from sco import (ConvexClusteringProblem, DataValidationError, Dataset,
                 DimensionError, EdgeIncidence, ParameterError, RidgeProblem,
                 make_problem)

from helpers import graph_of
from oracles import (conjugate_gradient, conjugate_sup_oracle, same_bits, stack_columns,
                     stacked_ridge_curvature, unstack_columns)


def two_point_instance():
    data = Dataset([[0.0], [2.0]])
    graph = graph_of(2, ((0, 1, 1.0),))
    return ConvexClusteringProblem(data), EdgeIncidence(graph, 1.0)


def random_setup(rng, n, d, task="cc"):
    edges = tuple((i, i + 1, float(rng.uniform(0.3, 1.5))) for i in range(n - 1))
    graph = graph_of(n, edges)
    values = rng.standard_normal((n, d))
    if task == "cc":
        problem = ConvexClusteringProblem(Dataset(values))
    else:
        problem = RidgeProblem(Dataset(values, targets=rng.standard_normal(n)),
                               gamma=float(rng.uniform(1.0, 5.0)))
    return problem, EdgeIncidence(graph, float(rng.uniform(0.3, 1.5))), graph


def test_clustering_primal_examples():
    problem, Q = two_point_instance()
    assert problem.primal_value(problem.values) == 0.0
    assert problem.primal_value(np.array([[0.5], [1.5]])) == 0.5


def test_ridge_primal_at_zero():
    problem = RidgeProblem(Dataset([[1.0, 2.0], [3.0, 4.0]], targets=[1.0, -1.0]), gamma=2.0)
    assert problem.primal_value(np.zeros((2, 2))) == 0.0


def test_ridge_needs_targets_and_positive_gamma():
    with pytest.raises(DataValidationError):
        RidgeProblem(Dataset([[1.0], [2.0]]), gamma=1.0)
    with pytest.raises(ParameterError):
        RidgeProblem(Dataset([[1.0], [2.0]], targets=[0.0, 1.0]), gamma=0.0)


def test_conjugate_hand_value():
    problem, Q = two_point_instance()
    assert problem.conjugate_value(Q.apply_t(np.array([[1.0]]))) == 2.5
    assert problem.conjugate_value(np.zeros((2, 1))) == 0.0


def test_conjugate_matches_sup_oracle():
    rng = np.random.default_rng(0)
    for task in ("cc", "ridge"):
        for _ in range(8):
            n, d = int(rng.integers(2, 5)), int(rng.integers(1, 3))
            problem, Q, _ = random_setup(rng, n, d, task)
            lam = rng.standard_normal((Q.row_count, d))
            v = -stack_columns(Q.apply_t(lam))

            def primal_flat(x):
                return problem.primal_value(unstack_columns(x, n, d))

            expected = conjugate_sup_oracle(primal_flat, n * d, v)
            assert abs(problem.conjugate_value_full(Q.apply_t(lam)) - expected) <= 1e-8 * (1 + abs(expected))


def test_conjugate_gradient_zero_dual():
    rng = np.random.default_rng(1)
    problem, Q, _ = random_setup(rng, 4, 2, "cc")
    lam0 = np.zeros((Q.row_count, 2))
    np.testing.assert_allclose(conjugate_gradient(problem, Q, lam0),
                               -Q.apply(problem.values), atol=1e-14)


def test_conjugate_gradient_zero_dataset():
    graph = graph_of(3, ((0, 1, 1.0), (1, 2, 1.0)))
    Q = EdgeIncidence(graph, 1.0)
    problem = ConvexClusteringProblem(Dataset(np.zeros((3, 2))))
    lam = np.random.default_rng(2).standard_normal((2, 2))
    np.testing.assert_allclose(conjugate_gradient(problem, Q, lam),
                               0.5 * Q.apply(Q.apply_t(lam)), atol=1e-14)


def test_conjugate_gradient_finite_differences():
    rng = np.random.default_rng(3)
    h = 1e-5
    for task in ("cc", "ridge"):
        for _ in range(10):
            n, d = int(rng.integers(2, 5)), int(rng.integers(1, 3))
            problem, Q, _ = random_setup(rng, n, d, task)
            lam = rng.standard_normal((Q.row_count, d))
            grad = conjugate_gradient(problem, Q, lam)
            numeric = np.zeros_like(grad)
            for a in range(lam.shape[0]):
                for b in range(lam.shape[1]):
                    bump = np.zeros_like(lam)
                    bump[a, b] = h
                    numeric[a, b] = (problem.conjugate_value(Q.apply_t(lam + bump))
                                     - problem.conjugate_value(Q.apply_t(lam - bump))) / (2 * h)
            scale = max(1.0, float(np.abs(numeric).max()))
            assert np.abs(grad - numeric).max() <= 1e-5 * scale


def test_recover_primal_examples():
    problem, Q = two_point_instance()
    np.testing.assert_allclose(problem.recover_primal(np.zeros((2, 1))), problem.values)
    np.testing.assert_allclose(problem.recover_primal(Q.apply_t(np.array([[1.0]]))),
                               [[-0.5], [2.5]])


def test_ridge_recovery_zero_dual_is_diagonal_solve():
    rng = np.random.default_rng(4)
    problem, Q, _ = random_setup(rng, 5, 2, "ridge")
    x = problem.recover_primal(np.zeros((5, 2)))
    b = problem.target_adjoint
    np.testing.assert_allclose(x, b / problem.omega_diagonal, atol=1e-12)


def test_fenchel_equality_at_recovered_point():
    # f(x) + <dual image, x> = -conjugate_full at the stationarity point
    rng = np.random.default_rng(5)
    for task in ("cc", "ridge"):
        for _ in range(10):
            n, d = int(rng.integers(2, 6)), int(rng.integers(1, 3))
            problem, Q, _ = random_setup(rng, n, d, task)
            lam = rng.standard_normal((Q.row_count, d))
            V = Q.apply_t(lam)
            x = problem.recover_primal(V)
            lhs = problem.primal_value(x) + float((V * x).sum())
            rhs = -problem.conjugate_value_full(V)
            assert abs(lhs - rhs) <= 1e-8 * (1 + abs(rhs))


@pytest.mark.parametrize("d", [1, 3, 10])
def test_ridge_curvature_bit_identical_to_stacked_reference(d):
    rng = np.random.default_rng(30 + d)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        problem, Q, _ = random_setup(rng, n, d, task="ridge")
        V = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3, (n, d))
        for block in (V, np.asfortranarray(V), Q.apply_t(rng.standard_normal((n - 1, d)))):
            assert same_bits(problem.conjugate_curvature(block),
                             stacked_ridge_curvature(problem, block))


def test_omega_diagonal_bounded_below_by_gamma():
    rng = np.random.default_rng(6)
    problem, _, _ = random_setup(rng, 5, 3, "ridge")
    assert problem.omega_diagonal.min() >= problem.gamma


def test_ridge_operators_match_dense_definitions():
    rng = np.random.default_rng(7)
    n, d = 4, 3
    problem, _, _ = random_setup(rng, n, d, "ridge")
    block = np.kron(np.ones((1, d)), np.eye(n))
    dense_lam = block @ np.diag(stack_columns(problem.values))
    np.testing.assert_allclose(stack_columns(problem.target_adjoint),
                               dense_lam.T @ problem.dataset.targets, atol=1e-12)
    np.testing.assert_allclose(stack_columns(problem.omega_diagonal),
                               np.diag(dense_lam.T @ dense_lam) + problem.gamma, atol=1e-12)


def test_make_problem_dispatch():
    data = Dataset([[0.0], [1.0]], targets=[0.5, 1.5])
    assert isinstance(make_problem("cc", data), ConvexClusteringProblem)
    assert isinstance(make_problem("ridge", data, gamma=1.0), RidgeProblem)
    with pytest.raises(ParameterError):
        make_problem("other", data)


def test_primal_value_shape_check():
    problem, Q = two_point_instance()
    with pytest.raises(DimensionError):
        problem.primal_value(np.zeros((3, 1)))
