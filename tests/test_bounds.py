import numpy as np
import pytest

from sco import (ConvexClusteringProblem, Dataset, EdgeIncidence, ParameterError,
                 Problem, RidgeProblem, SolverConfig, build_knn_graph,
                 clustering_dual_image_bound, clustering_dual_image_check,
                 clustering_model_check, regression_dual_image_check,
                 regression_model_check, solve_dual)
from sco.bounds import _NORM_INFLATION, _sandwich_spectral_norm, dual_image_norm, reports

from oracles import dense_ridge_sandwich, stack_columns


def test_clustering_dual_image_bound_examples():
    assert clustering_dual_image_bound(np.zeros((3, 2)), 2.0) == 0.0
    assert clustering_dual_image_bound(np.array([[1.0], [2.0]]), 5.0) == 1.0
    with pytest.raises(ParameterError):
        clustering_dual_image_bound(np.ones((2, 1)), 0.0)


def test_clustering_dual_image_zero_data_zero_dual():
    graph = build_knn_graph(Dataset([[0.0], [1.0], [2.0]]), k=1)
    Q = EdgeIncidence(graph, 1.0)
    zero = ConvexClusteringProblem(Dataset(np.zeros((3, 1))))
    report = clustering_dual_image_check(Q, np.zeros((Q.row_count, 1)), zero, beta=2.0, s=1)
    assert report.lhs == 0.0 and report.rhs == 0.0 and report.satisfied


def test_clustering_dual_image_holds_on_converged_solve():
    rng = np.random.default_rng(0)
    values = rng.standard_normal((4, 2))
    delta = 0.1 * rng.standard_normal((4, 2))
    data = Dataset(values)
    graph = build_knn_graph(data, k=2)
    config = SolverConfig(beta=5.0, p=2, s=1)
    evolved = ConvexClusteringProblem(Dataset(values + delta))
    Q = EdgeIncidence(graph, 1.0)
    result = solve_dual(evolved, Q, config)
    assert result.converged
    report = clustering_dual_image_check(Q, result.state.lam, evolved, config.beta, config.s)
    assert report.satisfied


def test_clustering_model_trivial_perturbation():
    values = np.array([[1.0], [2.0]])
    x = np.array([[0.5], [1.5]])
    base = ConvexClusteringProblem(Dataset(values))
    report = clustering_model_check(base, base, beta=5.0, c=10.0, x_star=x, x_tilde_star=x)
    assert report.lhs == 0.0 and report.rhs == 5.0 and report.satisfied


def test_clustering_model_rhs_arithmetic():
    # third term scales linearly in the perturbation magnitude when the
    # evolved matrix is held fixed (values = -delta/2 keeps values+delta = delta/2... )
    values = np.array([[1.0, -1.0]])
    delta = np.array([[2.0, 0.5]])
    beta, c = 4.0, 6.0
    x = np.zeros_like(values)
    base = ConvexClusteringProblem(Dataset(values))
    report = clustering_model_check(base, base.with_values(values + delta), beta, c, x, x)
    a = values.ravel()
    dv = delta.ravel()
    expected = float(a @ dv) + c / 2.0 \
        + np.linalg.norm(dv) * float((a + dv) @ (a + dv)) / (2.0 * beta)
    assert abs(report.rhs - expected) <= 1e-12
    double = clustering_model_check(base, base.with_values(values + 2 * delta), beta, c, x, x)
    term = report.rhs - float(a @ dv) - c / 2.0
    term2 = double.rhs - float(a @ (2 * dv)) - c / 2.0
    ratio = term2 / term
    norm_ratio = (np.linalg.norm(2 * dv) * float((a + 2 * dv) @ (a + 2 * dv))) / \
                 (np.linalg.norm(dv) * float((a + dv) @ (a + dv)))
    assert abs(ratio - norm_ratio) <= 1e-12


def test_regression_model_trivial_cases():
    rng = np.random.default_rng(1)
    values = rng.standard_normal((3, 2))
    y = rng.standard_normal(3)
    x = rng.standard_normal((3, 2))
    # no perturbation: cross operator vanishes, rhs = 4c
    base = RidgeProblem(Dataset(values, y), gamma=2.0)
    report = regression_model_check(base, base, beta=1.0, c=3.0, x_star=x, x_tilde_star=x)
    assert abs(report.rhs - 12.0) <= 1e-12 and report.lhs == 0.0
    # zero targets: both quadratic forms vanish, rhs = 4c
    base = RidgeProblem(Dataset(values, np.zeros(3)), gamma=2.0)
    report = regression_model_check(base, base.with_values(values + 0.1), beta=1.0, c=3.0,
                                    x_star=x, x_tilde_star=x)
    assert abs(report.rhs - 12.0) <= 1e-12


@pytest.mark.parametrize("n, d", [(1, 1), (1, 4), (5, 1), (4, 3), (7, 2)])
def test_sandwich_norm_matches_dense(n, d):
    rng = np.random.default_rng(10 * n + d)
    for trial in range(6):
        values = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-2, 2)
        delta = np.zeros((n, d)) if trial == 0 else rng.standard_normal((n, d))
        omega = values ** 2 + rng.uniform(0.1, 5.0)
        expected = np.linalg.norm(dense_ridge_sandwich(values, delta, omega), 2)
        got = _sandwich_spectral_norm(values, delta, omega) / _NORM_INFLATION
        assert abs(got - expected) <= 1e-12 * expected, (trial, got, expected)


def test_regression_model_rhs_uses_the_exact_norm():
    # one dominant block among 199 at 0.985 of its norm: 100 power steps
    # from a random start stay near the crowd, over 1% under the norm
    n, d, gamma, beta, c = 200, 2, 1.0, 2.0, 0.5
    values = np.ones((n, d))
    delta = np.full((n, d), 0.985)
    delta[0] = 1.0
    y = np.random.default_rng(11).standard_normal(n)
    x = np.zeros((n, d))
    base = RidgeProblem(Dataset(values, y), gamma)
    report = regression_model_check(base, base.with_values(values + delta), beta, c, x, x)
    block = np.kron(np.ones((1, d)), np.eye(n))
    expected = 4.0 * c
    for data in (values + delta, values):
        omega = data ** 2 + gamma
        b = (block @ np.diag(stack_columns(data))).T @ y
        norm = np.linalg.norm(dense_ridge_sandwich(values, delta, omega), 2)
        expected += float(b @ (b / stack_columns(omega))) ** 2 * norm * _NORM_INFLATION \
            / (16.0 * beta ** 2)
    assert abs(report.rhs - expected) <= 1e-12 * expected


def test_regression_dual_image_trivial_and_homogeneity():
    rng = np.random.default_rng(2)
    values = rng.standard_normal((4, 1))
    delta = 0.1 * rng.standard_normal((4, 1))
    graph = build_knn_graph(Dataset(values), k=1)
    Q = EdgeIncidence(graph, 1.0)
    lam0 = np.zeros((Q.row_count, 1))
    base = RidgeProblem(Dataset(values, np.zeros(4)), gamma=2.0)
    report = regression_dual_image_check(Q, lam0, base, base.with_values(values + delta),
                                         beta=1.0, s=1)
    assert report.lhs == 0.0 and report.rhs == 0.0 and report.satisfied
    base = RidgeProblem(Dataset(values, rng.standard_normal(4)), gamma=2.0)
    moved = base.with_values(values + delta)
    r1 = regression_dual_image_check(Q, lam0, base, moved, beta=1.0, s=1)
    r2 = regression_dual_image_check(Q, lam0, base, moved, beta=2.0, s=1)
    assert abs(r1.rhs - 2.0 * r2.rhs) <= 1e-12 * (1 + r1.rhs)


def test_regression_dual_image_reports_both_variants():
    rng = np.random.default_rng(3)
    values = rng.standard_normal((4, 2))
    delta = 0.2 * rng.standard_normal((4, 2))
    graph = build_knn_graph(Dataset(values), k=1)
    Q = EdgeIncidence(graph, 1.0)
    base = RidgeProblem(Dataset(values, rng.standard_normal(4)), gamma=2.0)
    report = regression_dual_image_check(Q, np.zeros((Q.row_count, 2)), base,
                                         base.with_values(values + delta), beta=1.0, s=1)
    assert "rhs_plain" in report.inputs and "rhs_perturbed" in report.inputs
    assert report.rhs == max(report.inputs["rhs_plain"], report.inputs["rhs_perturbed"])


def test_ridge_bounds_hold_on_converged_solves():
    rng = np.random.default_rng(4)
    values = rng.standard_normal((5, 2))
    y = rng.standard_normal(5)
    delta = 0.1 * rng.standard_normal((5, 2))
    data = Dataset(values, targets=y)
    graph = build_knn_graph(data, k=2)
    config = SolverConfig(beta=5.0, p=2, s=1)
    Q = EdgeIncidence(graph, 1.0)
    problem = RidgeProblem(data, gamma=5.0)
    base = solve_dual(problem, Q, config)
    evolved = problem.with_values(values + delta)
    moved = solve_dual(evolved, Q, config, warm_start=base.state)
    assert base.converged and moved.converged

    from sco import delta_metric

    score = delta_metric(problem, Q, base.state.lam, evolved)
    c = max(score * 1.1, 1e-6)  # a keep decision: the threshold was not crossed
    t4 = regression_model_check(problem, evolved, beta=config.beta, c=c,
                                x_star=base.x_star, x_tilde_star=moved.x_star)
    l2 = regression_dual_image_check(Q, moved.state.lam, problem, evolved,
                                     beta=config.beta, s=config.s)
    assert t4.satisfied, (t4.lhs, t4.rhs)
    assert l2.satisfied, (l2.lhs, l2.rhs)


def test_reports_on_a_ridge_problem_are_the_two_regression_checks():
    rng = np.random.default_rng(5)
    values, y = rng.standard_normal((6, 2)), rng.standard_normal(6)
    new_values = values + 0.1 * rng.standard_normal((6, 2))
    graph = build_knn_graph(Dataset(values), k=2)
    Q = EdgeIncidence(graph, 1.0)
    problem = RidgeProblem(Dataset(values, y), gamma=3.0)
    config = SolverConfig(beta=2.0, p=2, s=2)
    evolved = problem.with_values(new_values)
    base = solve_dual(problem, Q, config)
    moved = solve_dual(evolved, Q, config, warm_start=base.state)
    got = reports(Q, problem, evolved, base.x_star, moved.x_star, moved.state.lam,
                  config.beta, config.s, c=0.7)
    want = [regression_model_check(problem, evolved, config.beta, 0.7,
                                   base.x_star, moved.x_star),
            regression_dual_image_check(Q, moved.state.lam, problem, evolved,
                                        config.beta, config.s)]
    assert [r.as_dict() for r in got] == [r.as_dict() for r in want]


def test_reports_reject_a_task_without_bound_checks():
    class Other(Problem):
        primal_value = conjugate_linear_term = conjugate_curvature = None
        curvature_bound = conjugate_constant = with_values = None

        def __init__(self, dataset):
            self.dataset = dataset

    zeros = np.zeros((2, 1))
    graph = build_knn_graph(Dataset([[0.0], [1.0]]), k=1)
    with pytest.raises(ParameterError):
        reports(EdgeIncidence(graph, 1.0), Other(Dataset(zeros)), Other(Dataset(zeros)),
                zeros, zeros, np.zeros((1, 1)), 1.0, 1, 0.0)


@pytest.mark.parametrize("shift", [0.0, 0.1])
def test_ridge_bounds_reject_moved_targets(shift):
    # the regression bounds are stated for fixed targets: a pair whose
    # targets differ gets no report, whether the values moved or not
    rng = np.random.default_rng(6)
    values, y = rng.standard_normal((6, 2)), rng.standard_normal(6)
    Q = EdgeIncidence(build_knn_graph(Dataset(values), k=2), 1.0)
    problem = RidgeProblem(Dataset(values, y), gamma=3.0)
    x, lam = np.zeros((6, 2)), np.zeros((Q.row_count, 2))
    moved = problem.with_values(values + shift, y + 1e-9)
    with pytest.raises(ParameterError, match="targets"):
        reports(Q, problem, moved, x, x, lam, 2.0, 1, 0.5)
    with pytest.raises(ParameterError, match="targets"):
        regression_dual_image_check(Q, lam, problem, moved, 2.0, 1)
    # the same targets in another array are fixed targets
    kept = problem.with_values(values + shift, y.copy())
    assert [r.name for r in reports(Q, problem, kept, x, x, lam, 2.0, 1, 0.5)] == \
        ["regression-model-energy", "regression-dual-image"]


def test_bound_report_serialisation():
    base = ConvexClusteringProblem(Dataset(np.ones((2, 1))))
    report = clustering_model_check(base, base, 1.0, 2.0, np.zeros((2, 1)), np.zeros((2, 1)))
    payload = report.as_dict()
    assert set(payload) == {"name", "lhs", "rhs", "satisfied", "inputs"}
    assert payload["satisfied"] is True


def test_dual_image_norm_selectors():
    graph = build_knn_graph(Dataset([[0.0], [1.0]]), k=1)
    Q = EdgeIncidence(graph, 1.0)
    lam = np.array([[0.5]])
    image = Q.apply_t(lam)
    assert dual_image_norm(Q, lam, 1) == np.abs(image).sum()
    assert dual_image_norm(Q, lam, np.inf) == np.abs(image).max()
