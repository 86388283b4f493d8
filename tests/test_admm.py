from dataclasses import replace

import numpy as np
import pytest

from sco import (ConvexClusteringProblem, Dataset, DimensionError, DualState,
                 EdgeIncidence, ParameterError, RidgeProblem, SolverConfig, VariableGraph,
                 build_knn_graph, dual_norm, project_rows, solve_dual, vec_norm)
from sco.admm import (h_norm_step, lambda_step, mu_step, parallel_lambda_step, u_step,
                      zero_state)

import sco.admm
from helpers import edge_triples, graph_of
from oracles import (DataSymmetry, clustering_subgradient_oracle, column_problem,
                     dense_incidence, dual_subproblem_objective, fenchel_gap,
                     quadratic_from_values, reference_lambda_step, reference_relaxed_sweep,
                     reference_row_lipschitz, same_bits)


def two_point(alpha_w, beta=0.0, **kwargs):
    data = Dataset([[0.0], [2.0]])
    graph = graph_of(2, ((0, 1, 1.0),))
    problem = ConvexClusteringProblem(data)
    Q = EdgeIncidence(graph, alpha_w)
    defaults = dict(beta=beta, p=2, s=1, eps_abs=1e-9, eps_rel=1e-7, outer_max_iters=3000)
    defaults.update(kwargs)
    return problem, Q, SolverConfig(**defaults)


def random_clustering(rng, n, d, alpha=1.0, beta=0.0, k=2, **kwargs):
    values = rng.standard_normal((n, d))
    data = Dataset(values)
    graph = build_knn_graph(data, k=min(k, n - 1))
    problem = ConvexClusteringProblem(data)
    Q = EdgeIncidence(graph, alpha)
    defaults = dict(beta=beta, p=2, s=1)
    defaults.update(kwargs)
    return problem, graph, Q, SolverConfig(**defaults)


def four_blobs(rng):
    # 4 Gaussian blobs of 15 points in 3-d with centres 6 apart: n=60, d=3
    centres = 6.0 * np.vstack([np.zeros(3), np.eye(3)])
    return np.vstack([c + rng.standard_normal((15, 3)) for c in centres])


def blob_regression(rng):
    # the 4 blobs with targets from one linear model per blob, plus noise
    values = four_blobs(rng)
    weights = rng.standard_normal((4, 3))
    targets = np.einsum("ij,ij->i", values, weights[np.arange(60) // 15]) \
        + 0.1 * rng.standard_normal(60)
    return values, targets


def test_empty_graph_returns_loss_minimiser():
    data = Dataset([[1.0, 2.0], [3.0, 4.0]])
    problem = ConvexClusteringProblem(data)
    Q = EdgeIncidence(graph_of(2, ()), 1.0)
    result = solve_dual(problem, Q, SolverConfig(beta=0.0))
    np.testing.assert_array_equal(result.x_star, data.values)
    assert result.converged and result.iterations == 0


def test_zero_alpha_returns_loss_minimiser():
    data = Dataset([[1.0], [5.0], [2.0]])
    problem = ConvexClusteringProblem(data)
    Q = EdgeIncidence(graph_of(3, ((0, 1, 1.0), (1, 2, 1.0))), 0.0)
    result = solve_dual(problem, Q, SolverConfig(beta=0.0))
    np.testing.assert_array_equal(result.x_star, data.values)


def test_hand_instance_partial_shrink():
    problem, Q, config = two_point(1.0)
    result = solve_dual(problem, Q, config)
    np.testing.assert_allclose(result.x_star, [[0.5], [1.5]], atol=1e-3)
    assert result.converged


def test_hand_instance_fused():
    problem, Q, config = two_point(2.0)
    result = solve_dual(problem, Q, config)
    np.testing.assert_allclose(result.x_star, [[1.0], [1.0]], atol=1e-3)


def test_lambda_step_fixed_point():
    # a feasible dual point with vanishing gradient stays put
    data = Dataset([[0.0], [0.0]])  # zero data: gradient at lam=0 is zero
    problem = ConvexClusteringProblem(data)
    Q = EdgeIncidence(graph_of(2, ((0, 1, 1.0),)), 1.0)
    config = SolverConfig(beta=0.0, p=2)
    state = zero_state(1, 2, 1)
    lipschitz = reference_row_lipschitz(problem, Q, config)
    np.testing.assert_array_equal(lambda_step(problem, Q, state, config, lipschitz, tol=0.0),
                                  state.lam)


def test_lambda_step_matches_longrun_projected_gradient():
    # dense brute-force oracle for the inner subproblem, n=3, d=1, m=2
    rng = np.random.default_rng(10)
    graph = graph_of(3, ((0, 1, 0.8), (1, 2, 1.2)))
    problem = ConvexClusteringProblem(Dataset(rng.standard_normal((3, 1))))
    Q = EdgeIncidence(graph, 1.0)
    config = SolverConfig(beta=1.0, p=2, s=1,
                          inner_max_iters=5000, inner_tol=1e-12)
    state = DualState(lam=rng.standard_normal((2, 1)) * 0.3,
                      u=rng.standard_normal((3, 1)), mu=rng.standard_normal((3, 1)))

    def objective_flat(lam_flat):
        return dual_subproblem_objective(problem, Q, lam_flat.reshape(2, 1),
                                         state.u, state.mu, config.rho)

    H, b, _ = quadratic_from_values(objective_flat, 2)
    step = 1.0 / np.linalg.norm(H, 2)
    lam = np.zeros(2)
    for _ in range(100_000):
        lam = np.clip(lam - step * (H @ lam + b), -1.0, 1.0)  # d=1: every q-ball is a box
    ours = lambda_step(problem, Q, state, config, reference_row_lipschitz(problem, Q, config),
                       tol=0.0)
    np.testing.assert_allclose(ours.ravel(), lam, atol=1e-4)


def test_u_step_identity_when_beta_zero():
    rng = np.random.default_rng(1)
    problem, graph, Q, config = random_clustering(rng, 4, 2, beta=0.0)
    state = zero_state(Q.row_count, 4, 2)
    state.lam = project_rows(rng.standard_normal(state.lam.shape), config.q)
    state.mu = rng.standard_normal((4, 2))
    omega = state.mu / config.rho + Q.apply_t(state.lam)
    np.testing.assert_array_equal(u_step(state, config, Q.apply_t(state.lam)), omega)


def test_u_step_zero_input():
    problem, Q, config = two_point(1.0, beta=1.0)
    state = zero_state(1, 2, 1)
    assert np.all(u_step(state, config, Q.apply_t(state.lam)) == 0.0)


def test_u_step_reproduces_hadamard_form_at_unit_threshold():
    # with threshold beta/rho = 1 and s = 1 the update is w+ * w elementwise
    rng = np.random.default_rng(2)
    problem, graph, Q, config = random_clustering(rng, 5, 2, beta=1.0, rho=1.0, s=1)
    state = zero_state(Q.row_count, 5, 2)
    state.lam = project_rows(rng.standard_normal(state.lam.shape), config.q)
    state.mu = rng.standard_normal((5, 2))
    omega = state.mu / config.rho + Q.apply_t(state.lam)
    with np.errstate(divide="ignore"):
        plus = np.where(omega != 0.0, np.maximum(0.0, 1.0 - 1.0 / np.abs(omega)), 0.0)
    np.testing.assert_allclose(u_step(state, config, Q.apply_t(state.lam)), plus * omega,
                               atol=1e-12)


def test_mu_step_definition_and_consensus():
    rng = np.random.default_rng(3)
    problem, graph, Q, config = random_clustering(rng, 4, 1, beta=0.5, rho=1.0)
    state = zero_state(Q.row_count, 4, 1)
    state.lam = project_rows(rng.standard_normal(state.lam.shape), config.q)
    image = Q.apply_t(state.lam)
    state.u = image.copy()
    np.testing.assert_array_equal(mu_step(state, config, image), state.mu)  # exact consensus
    state.u = image - 0.25
    np.testing.assert_allclose(mu_step(state, config, image), state.mu + 0.25, atol=1e-14)


def test_mu_movement_bounded_by_primal_tolerance_after_convergence():
    rng = np.random.default_rng(4)
    problem, graph, Q, config = random_clustering(rng, 6, 2, alpha=0.8, beta=1.0,
                                                  eps_abs=1e-7, eps_rel=1e-6,
                                                  outer_max_iters=5000)
    result = solve_dual(problem, Q, config)
    assert result.converged
    n, d = 6, 2
    sqrt_nd = np.sqrt(n * d)
    image = Q.apply_t(result.state.lam)
    eps_pri = config.eps_abs * sqrt_nd + config.eps_rel * max(
        np.linalg.norm(image), np.linalg.norm(result.state.u))
    # the final multiplier displacement is rho times the final primal residual
    assert config.rho * result.trace.primal_res[-1] <= config.rho * eps_pri + 1e-15


def test_h_norm_step_examples():
    u = np.array([1.0, 2.0])
    mu = np.array([0.5, -0.5])
    assert h_norm_step(u, u, mu, mu, 1.0) == 0.0
    assert h_norm_step(np.zeros(2), np.array([1.0, 0.0]), mu, mu, 1.0) == 1.0
    assert abs(h_norm_step(np.zeros(1), np.ones(1), np.zeros(1), np.ones(1), 2.0)
               - (2.0 + 0.5)) <= 1e-15


def test_feasibility_after_every_iteration():
    rng = np.random.default_rng(5)
    for p in (1, 2, np.inf):
        problem, graph, Q, config = random_clustering(rng, 6, 2, alpha=1.5, beta=0.5,
                                                      p=p, outer_max_iters=30)
        result = solve_dual(problem, Q, config)
        lam = result.state.lam
        q = config.q
        if q == np.inf:
            worst = np.abs(lam).max()
        elif q == 2:
            worst = np.sqrt((lam * lam).sum(axis=1)).max()
        else:
            worst = np.abs(lam).sum(axis=1).max()
        assert worst <= 1.0 + 1e-9


def test_strong_duality_small_instances():
    rng = np.random.default_rng(6)
    for task in ("cc", "ridge"):
        for _ in range(5):
            n, d = int(rng.integers(3, 7)), int(rng.integers(1, 3))
            if task == "cc":
                problem, graph, Q, config = random_clustering(
                    rng, n, d, alpha=float(rng.choice([0.5, 1.0])), beta=0.0,
                    eps_abs=1e-9, eps_rel=1e-7, outer_max_iters=5000)
            else:
                from sco import build_knn_graph

                values = rng.standard_normal((n, d))
                data = Dataset(values, targets=rng.standard_normal(n))
                graph = build_knn_graph(data, k=2)
                problem = RidgeProblem(data, gamma=2.0)
                Q = EdgeIncidence(graph, 0.7)
                config = SolverConfig(beta=0.0, p=2, s=1,
                                      eps_abs=1e-9, eps_rel=1e-7, outer_max_iters=5000)
            result = solve_dual(problem, Q, config)
            assert result.converged
            full_primal = result.primal_objective
            dual_value = problem.conjugate_value_full(Q.apply_t(result.state.lam))
            gap = abs(full_primal + dual_value)
            assert gap <= 1e-4 * (1.0 + abs(full_primal))


@pytest.mark.slow
def test_oracle_equivalence_long_subgradient_run():
    # million-iteration diminishing-step subgradient descent on the primal
    rng = np.random.default_rng(7)
    problem, graph, Q, config = random_clustering(rng, 5, 1, alpha=1.0, beta=0.0,
                                                  eps_abs=1e-9, eps_rel=1e-7,
                                                  outer_max_iters=5000)
    result = solve_dual(problem, Q, config)
    oracle = clustering_subgradient_oracle(problem.values, graph, 1.0, 2.0, 1_000_000)
    rel = np.linalg.norm(result.x_star - oracle) / np.linalg.norm(oracle)
    assert rel <= 1e-2


def test_hnorm_steps_trend_downward():
    rng = np.random.default_rng(8)
    problem, graph, Q, config = random_clustering(rng, 8, 2, alpha=1.0, beta=1.0,
                                                  eps_abs=1e-12, eps_rel=1e-12,
                                                  outer_max_iters=200)
    result = solve_dual(problem, Q, config)
    h = np.array(result.trace.h_step)
    burn = len(h) // 4
    tail = h[burn:]
    running_min = np.minimum.accumulate(tail)
    # after burn-in the sequence tracks its running minimum within 10%
    assert np.all(tail <= np.maximum(running_min * 1.1, running_min + 1e-18))


def test_parallel_requires_box_constraints():
    rng = np.random.default_rng(9)
    problem, graph, Q, config = random_clustering(rng, 4, 2, p=2)
    state = zero_state(Q.row_count, 4, 2)
    with pytest.raises(ParameterError):
        parallel_lambda_step(problem, Q, state, config,
                             reference_row_lipschitz(problem, Q, config))
    with pytest.raises(ParameterError):
        SolverConfig(p=2, parallel=True)


def test_parallel_single_column_identical():
    # the box-constrained update is the serial loop: the same bits for one
    # feature column or several, for both tasks
    rng = np.random.default_rng(10)
    n = 6
    for task in ("cc", "ridge"):
        for d in (1, 4):
            values = rng.standard_normal((n, d)) * np.array([1.0, 0.5, 3.0, 0.1])[:d]
            targets = rng.standard_normal(n) if task == "ridge" else None
            data = Dataset(values, targets)
            Q = EdgeIncidence(build_knn_graph(data, k=2), 1.0)
            problem = ConvexClusteringProblem(data) if task == "cc" \
                else RidgeProblem(data, gamma=2.0)
            config = SolverConfig(beta=0.5, p=1, inner_max_iters=3000)
            state = zero_state(Q.row_count, n, d)
            state.lam = np.clip(rng.standard_normal(state.lam.shape) * 0.4, -1, 1)
            state.u = rng.standard_normal((n, d))
            state.mu = rng.standard_normal((n, d))
            serial_state, parallel_state = state.copy(), state.copy()
            lipschitz = reference_row_lipschitz(problem, Q, config)
            serial = lambda_step(problem, Q, serial_state, config, lipschitz, tol=0.0)
            parallel = parallel_lambda_step(problem, Q, parallel_state, config, lipschitz,
                                            tol=0.0)
            assert same_bits(serial, parallel), (task, d)
            assert 0 < serial_state.inner == parallel_state.inner < 3000, (task, d)


def test_parallel_block_objectives_sum_to_full():
    rng = np.random.default_rng(11)
    d = 4
    problem, graph, Q, config = random_clustering(rng, 6, d, p=1, beta=0.5)
    n = 6
    lam = np.clip(rng.standard_normal((Q.row_count, d)), -1, 1)
    u = rng.standard_normal((n, d))
    mu = rng.standard_normal((n, d))
    full = dual_subproblem_objective(problem, Q, lam, u, mu, config.rho)
    parts = 0.0
    for c in range(d):
        sub = column_problem(problem, c)
        parts += dual_subproblem_objective(sub, Q, lam[:, c:c + 1], u[:, c:c + 1],
                                           mu[:, c:c + 1], config.rho)
    assert abs(full - parts) <= 1e-10 * max(1.0, abs(full))


@pytest.mark.parametrize("task", ["cc", "ridge"])
def test_lambda_step_bit_identical_to_reference_kernels(task):
    # serial steps at every p, and parallel steps at two tolerances, each
    # run to the floor and at the relative first-sweep target
    rng = np.random.default_rng(14)
    n, d = 7, 3
    values = rng.standard_normal((n, d)) * np.array([0.05, 1.0, 4.0])
    targets = rng.standard_normal(n) if task == "ridge" else None
    data = Dataset(values, targets)
    Q = EdgeIncidence(build_knn_graph(data, k=2), 1.3)
    problem = ConvexClusteringProblem(data) if task == "cc" else RidgeProblem(data, gamma=2.0)
    for p, parallel, inner_tol, cap in ((2, False, 1e-8, 200), (1, False, 1e-8, 200),
                                        ("inf", False, 1e-8, 200), (1, True, 1e-8, 200),
                                        (1, True, 1e-6, 3000)):
        config = SolverConfig(beta=0.5, p=p, parallel=parallel,
                              inner_tol=inner_tol, inner_max_iters=cap)
        state = zero_state(Q.row_count, n, d)
        state.lam = rng.standard_normal(state.lam.shape) * 0.6
        state.u = rng.standard_normal((n, d))
        state.mu = rng.standard_normal((n, d))
        lipschitz = reference_row_lipschitz(problem, Q, config)
        for tol in (0.0, None):
            ours, theirs = state.copy(), state.copy()
            assert same_bits(lambda_step(problem, Q, ours, config, lipschitz, tol=tol),
                             reference_lambda_step(problem, Q, theirs, config, lipschitz,
                                                   tol=tol)), (p, tol)
            assert ours.inner == theirs.inner, (p, tol)


def ten_d_blobs(rng):
    # 5 Gaussian blobs of 50 points in 10-d with centres 6 apart: n=250, d=10
    centres = 6.0 * np.vstack([np.zeros(10), np.eye(10)[:4]])
    return np.vstack([c + rng.standard_normal((50, 10)) for c in centres])


@pytest.mark.parametrize("task", ["cc", "ridge"])
def test_lambda_step_bit_identical_to_reference_kernels_on_blobs(task):
    # the whole-block passes at the benchmark's size: about 1800 dual rows of
    # 10 entries, each q, stopping at a sweep tolerance and at the cap
    rng = np.random.default_rng(18)
    values = ten_d_blobs(rng)
    targets = rng.standard_normal(len(values)) if task == "ridge" else None
    data = Dataset(values, targets)
    Q = EdgeIncidence(build_knn_graph(data, k=10), 0.7)
    problem = ConvexClusteringProblem(data) if task == "cc" else RidgeProblem(data, gamma=2.0)
    n, d = values.shape
    assert Q.row_count > 1500
    for p, parallel, tol, cap in ((2, False, 1e-3, 200), (2, False, 0.0, 15),
                                  ("inf", False, 1e-3, 200), (1, True, 1e-3, 200)):
        config = SolverConfig(beta=0.5, p=p, parallel=parallel,
                              inner_max_iters=cap)
        state = zero_state(Q.row_count, n, d)
        state.lam = rng.standard_normal(state.lam.shape) * 0.6
        state.u = rng.standard_normal((n, d))
        state.mu = rng.standard_normal((n, d))
        ours, theirs = state.copy(), state.copy()
        lipschitz = reference_row_lipschitz(problem, Q, config)
        assert same_bits(lambda_step(problem, Q, ours, config, lipschitz, tol=tol),
                         reference_lambda_step(problem, Q, theirs, config, lipschitz,
                                               tol=tol)), p
        assert ours.inner == theirs.inner
        assert (ours.inner == cap) == (tol == 0.0), (p, ours.inner)


@pytest.mark.parametrize("p", [2, 1, "inf"])
def test_lambda_step_returns_fresh_rows_and_only_reads_the_state(p):
    rng = np.random.default_rng(19)
    n, d = 12, 3
    problem, graph, Q, config = random_clustering(rng, n, d, beta=0.5, k=3, p=p)
    state = zero_state(Q.row_count, n, d)
    # rows inside their ball, so the starting projection could return them as they are
    state.lam = project_rows(rng.standard_normal(state.lam.shape) * 0.3, config.q)
    state.u = rng.standard_normal((n, d))
    state.mu = rng.standard_normal((n, d))
    before = state.copy()
    lipschitz = reference_row_lipschitz(problem, Q, config)
    first = lambda_step(problem, Q, state, config, lipschitz, tol=0.0)
    first_bits = first.copy()
    second = lambda_step(problem, Q, state, config, lipschitz, tol=0.0)
    for name in ("lam", "u", "mu"):
        assert same_bits(getattr(state, name), getattr(before, name)), name
        assert not np.shares_memory(first, getattr(state, name))
        assert not np.shares_memory(second, getattr(state, name))
    assert same_bits(first, first_bits) and same_bits(second, first_bits)
    assert not np.shares_memory(first, second)
    assert state.inner > 0


def test_sweep_tolerance_matches_reference_and_stops_earlier():
    # a sweep tolerance above the floor ends the loop before the floor
    # would, serial and parallel alike
    rng = np.random.default_rng(17)
    n, d = 7, 3
    data = Dataset(rng.standard_normal((n, d)) * np.array([0.05, 1.0, 4.0]))
    problem = ConvexClusteringProblem(data)
    Q = EdgeIncidence(build_knn_graph(data, k=2), 1.3)
    for p, parallel in ((2, False), (1, False), (1, True)):
        config = SolverConfig(beta=0.5, p=p, parallel=parallel,
                              inner_tol=1e-8, inner_max_iters=3000)
        state = zero_state(Q.row_count, n, d)
        state.lam = rng.standard_normal(state.lam.shape) * 0.6
        state.u = rng.standard_normal((n, d))
        state.mu = rng.standard_normal((n, d))
        lipschitz = reference_row_lipschitz(problem, Q, config)
        runs = {}
        for label, step, tol in (("floor", lambda_step, 0.0), ("sweep", lambda_step, 1e-3),
                                 ("reference", reference_lambda_step, 1e-3)):
            run_state = state.copy()
            runs[label] = (step(problem, Q, run_state, config, lipschitz, tol=tol),
                           run_state.inner)
        assert same_bits(runs["sweep"][0], runs["reference"][0])
        assert runs["sweep"][1] == runs["reference"][1]
        assert 0 < runs["sweep"][1] < runs["floor"][1] < 3000


@pytest.mark.parametrize("p", [2, np.inf])
@pytest.mark.parametrize("beta", [0.0, 0.5])
def test_relative_inner_tolerance_keeps_the_duality_gap(beta, p, monkeypatch):
    # the same solve with every sweep held to the fixed floor: the
    # relative-error rule must not buy its inner iterations with the gap
    data = Dataset(four_blobs(np.random.default_rng(21)))
    problem = ConvexClusteringProblem(data)
    Q = EdgeIncidence(build_knn_graph(data, k=5), 1.0)
    config = SolverConfig(beta=beta, p=p, s=1)
    adaptive = solve_dual(problem, Q, config)
    floor_step = sco.admm.lambda_step
    monkeypatch.setattr("sco.admm.lambda_step",
                        lambda *args, tol=None, **kwargs: floor_step(*args, tol=0.0, **kwargs))
    fixed = solve_dual(problem, Q, config)
    assert adaptive.converged and fixed.converged
    gaps = [fenchel_gap(problem, Q, config, r) for r in (adaptive, fixed)]
    for gap, result in zip(gaps, (adaptive, fixed)):
        assert gap >= -1e-9 * abs(result.dual_objective)
    assert gaps[0] <= 1.25 * gaps[1]
    assert adaptive.inner_iterations < fixed.inner_iterations


@pytest.mark.parametrize("s", [1, 2, "inf"])
@pytest.mark.parametrize("p", [1, 2, "inf"])
@pytest.mark.parametrize("task", ["cc", "ridge"])
def test_relaxed_sweeps_match_reference(task, p, s):
    # one to three sweeps of solve_dual, bit for bit against a loop of
    # reference_lambda_step and the written-out over-relaxed u/mu updates
    rng = np.random.default_rng(19)
    n, d = 7, 3
    values = rng.standard_normal((n, d)) * np.array([0.05, 1.0, 4.0])
    targets = rng.standard_normal(n) if task == "ridge" else None
    data = Dataset(values, targets)
    Q = EdgeIncidence(build_knn_graph(data, k=2), 1.3)
    problem = ConvexClusteringProblem(data) if task == "cc" else RidgeProblem(data, gamma=2.0)
    config = SolverConfig(beta=0.5, p=p, s=s)
    lipschitz = reference_row_lipschitz(problem, Q, config)
    state = zero_state(Q.row_count, n, d)
    tol = None  # the first sweep: relative to the gradient-mapping norm at the start
    for sweeps in (1, 2, 3):
        state.lam = reference_lambda_step(problem, Q, state, config, lipschitz=lipschitz,
                                          tol=tol)
        image = Q.apply_t(state.lam)
        u_prev = state.u
        state.u, state.mu = reference_relaxed_sweep(image, u_prev, state.mu, config,
                                                    sco.admm._OVER_RELAX)
        result = solve_dual(problem, Q, replace(config, outer_max_iters=sweeps))
        assert result.iterations == sweeps and result.inner_iterations == state.inner
        for name in ("lam", "u", "mu"):
            assert same_bits(getattr(result.state, name), getattr(state, name)), (sweeps, name)
        primal = np.linalg.norm(image - state.u)
        dual = config.rho * np.linalg.norm(Q.apply(state.u - u_prev))
        tol = sco.admm._INNER_REL * max(primal, dual)


@pytest.mark.parametrize("task, beta, p, rho, inner_ratio", [
    ("cc", 0.0, 2, 1.0, 1.0), ("cc", 0.0, np.inf, 1.0, 1.0), ("cc", 0.5, 2, 1.0, 1.0),
    ("cc", 0.5, np.inf, 1.0, 1.0), ("ridge", 0.5, 1, 0.1, 1.0),
    ("ridge", 0.5, 2, 1.0, 1.01)])
def test_over_relaxation_cuts_work_and_keeps_the_model(task, beta, p, rho, inner_ratio,
                                                       monkeypatch):
    # against the same solve with the relaxation factor at 1: fewer sweeps,
    # a model within X_RTOL = 3e-4 of a tight solve, mu inside the beta-ball
    # of the dual s-norm after every sweep (the premise of the gap's sign),
    # and for cc a gap no larger. Inner iterations fall too, except on
    # ridge at p = 2, rho = 1, where 91 sweeps against 93 take 4878 inner
    # iterations against 4851.
    rng = np.random.default_rng(21)
    if task == "cc":
        values = four_blobs(rng)
        problem = ConvexClusteringProblem(Dataset(values))
    else:
        values, targets = blob_regression(rng)
        problem = RidgeProblem(Dataset(values, targets), gamma=5.0)
    Q = EdgeIncidence(build_knn_graph(Dataset(values), k=5), 1.0)
    config = SolverConfig(beta=beta, p=p, s=1, rho=rho)
    tight = solve_dual(problem, Q, replace(config, eps_abs=1e-10, eps_rel=1e-8,
                                           inner_tol=1e-12, inner_max_iters=5000,
                                           outer_max_iters=50000))
    mu_norms = []
    library_mu_step = sco.admm.mu_step

    def recording_mu_step(*args, **kwargs):
        mu = library_mu_step(*args, **kwargs)
        mu_norms.append(vec_norm(mu, dual_norm(config.s)))
        return mu

    monkeypatch.setattr("sco.admm.mu_step", recording_mu_step)
    relaxed = solve_dual(problem, Q, config)
    assert len(mu_norms) == relaxed.iterations and max(mu_norms) <= beta + 1e-9
    monkeypatch.setattr("sco.admm._OVER_RELAX", 1.0)
    plain = solve_dual(problem, Q, config)
    assert tight.converged and relaxed.converged and plain.converged
    assert relaxed.iterations < plain.iterations
    assert relaxed.inner_iterations < inner_ratio * plain.inner_iterations
    assert np.linalg.norm(relaxed.x_star - tight.x_star) \
        <= 3e-4 * np.linalg.norm(tight.x_star - values)
    gaps = [fenchel_gap(problem, Q, config, r) for r in (relaxed, plain)]
    for gap, result in zip(gaps, (relaxed, plain)):
        assert gap >= -1e-9 * abs(result.dual_objective)
    if task == "cc":
        assert gaps[0] <= gaps[1]


@pytest.mark.parametrize("p", [2, np.inf])
def test_first_sweep_stops_at_a_relative_tolerance(p, monkeypatch):
    # a cold start's first sweep stops at 1% of the gradient-mapping norm
    # at its starting rows: under the cap, and with fewer inner iterations
    # in all than the same solve with that one sweep held at the floor
    data = Dataset(four_blobs(np.random.default_rng(21)))
    problem = ConvexClusteringProblem(data)
    Q = EdgeIncidence(build_knn_graph(data, k=5), 1.0)
    config = SolverConfig(beta=0.5, p=p, s=1)
    floor_step = sco.admm.lambda_step
    sweeps = {}
    for label in ("relative", "floor first"):
        counts = sweeps[label] = []

        def step(problem, Q, state, config, tol=None, **kwargs):
            if label == "floor first" and not counts:
                tol = 0.0
            before = state.inner
            lam = floor_step(problem, Q, state, config, tol=tol, **kwargs)
            counts.append(state.inner - before)
            return lam

        monkeypatch.setattr("sco.admm.lambda_step", step)
        result = solve_dual(problem, Q, config)
        assert result.converged and result.inner_iterations == sum(counts)
    assert sweeps["relative"][0] < config.inner_max_iters
    assert sum(sweeps["relative"]) < sum(sweeps["floor first"])


@pytest.mark.parametrize("task, p, rho", [("cc", 2, 1.0), ("ridge", 1, 0.1)])
def test_solve_evaluates_one_gradient_per_inner_iteration(task, p, rho, monkeypatch):
    # each conjugate_curvature call is one dual-row gradient, except the
    # one in recover_primal and the one in conjugate_value: the first
    # sweep's relative target is measured inside the loop, not by an extra
    # gradient, for cold and warm starts alike. The dual rows are mapped by
    # apply_t once per inner iteration and once per sweep: recovery and the
    # dual objective read the last sweep's image, and a solve without
    # coupling maps nothing and ignores its warm start
    rng = np.random.default_rng(21)
    values, targets = blob_regression(rng)
    moved = values + 0.01 * rng.standard_normal(values.shape)
    problem = ConvexClusteringProblem(Dataset(values)) if task == "cc" \
        else RidgeProblem(Dataset(values, targets), gamma=5.0)
    Q = EdgeIncidence(build_knn_graph(Dataset(values), k=5), 1.0)
    config = SolverConfig(beta=0.5, p=p, s=1, rho=rho)
    curvature = type(problem).conjugate_curvature
    apply_t = EdgeIncidence.apply_t
    calls, maps = [], []

    def counting_curvature(self, V):
        calls.append(V.shape)
        return curvature(self, V)

    def counting_apply_t(self, lam):
        maps.append(lam.shape)
        return apply_t(self, lam)

    monkeypatch.setattr(type(problem), "conjugate_curvature", counting_curvature)
    monkeypatch.setattr(EdgeIncidence, "apply_t", counting_apply_t)
    cold = solve_dual(problem, Q, config)
    cold_calls, cold_maps = len(calls), len(maps)
    warm = solve_dual(problem.with_values(moved), Q, config, warm_start=cold.state)
    assert cold.converged and warm.converged and warm.inner_iterations > 0
    assert cold_calls == cold.inner_iterations + 2
    assert len(calls) - cold_calls == warm.inner_iterations + 2
    assert cold_maps == cold.inner_iterations + cold.iterations
    assert len(maps) - cold_maps == warm.inner_iterations + warm.iterations
    for uncoupled in (Q.with_coef(np.zeros(Q.row_count)),
                      EdgeIncidence(graph_of(Q.col_count, ()), 1.0)):
        del calls[:], maps[:]
        result = solve_dual(problem, uncoupled, config, warm_start=cold.state)
        assert (len(calls), maps) == (2, [])
        assert result.converged and (result.iterations, result.inner_iterations) == (0, 0)
        assert not (result.state.lam.any() or result.state.u.any() or result.state.mu.any())
        assert same_bits(result.x_star, problem.recover_primal(np.zeros_like(values)))


@pytest.mark.parametrize("task, p", [("cc", 2), ("cc", np.inf),
                                     ("ridge", 1), ("ridge", 2), ("ridge", np.inf)])
def test_warm_start_first_sweep_keeps_the_model_accurate(task, p):
    # a warm start's first sweep also stops at a relative tolerance; from
    # the base optimum, on data moved by sigma, the model must stay within
    # the benchmark's X_RTOL = 3e-4 of a tight solve, relative to that
    # solve's distance from the data
    rng = np.random.default_rng(21)
    base_values, targets = blob_regression(rng)
    noise = rng.standard_normal(base_values.shape)

    def instance(values):
        if task == "cc":
            return ConvexClusteringProblem(Dataset(values))
        return RidgeProblem(Dataset(values, targets), gamma=5.0)

    Q = EdgeIncidence(build_knn_graph(Dataset(base_values), k=5), 1.0)
    config = SolverConfig(beta=0.5, p=p, s=1, rho=1.0 if task == "cc" else 0.1)
    tight = replace(config, eps_abs=1e-10, eps_rel=1e-8, inner_tol=1e-12,
                    inner_max_iters=5000, outer_max_iters=50000)
    base = solve_dual(instance(base_values), Q, config)
    for sigma in (0.0, 1e-4, 1e-2, 0.1):
        values = base_values + sigma * noise
        problem = instance(values)
        warm = solve_dual(problem, Q, config, warm_start=base.state)
        reference = solve_dual(problem, Q, tight, warm_start=base.state)
        assert warm.converged and reference.converged
        assert np.linalg.norm(warm.x_star - reference.x_star) \
            <= 3e-4 * np.linalg.norm(reference.x_star - values), sigma


def test_parallel_solve_matches_serial_solve():
    rng = np.random.default_rng(13)
    problem, graph, Q, config = random_clustering(rng, 7, 3, p=1, beta=1.0,
                                                  alpha=0.8, inner_tol=1e-10)
    serial = solve_dual(problem, Q, config)
    parallel = solve_dual(problem, Q, replace(config, parallel=True))
    assert same_bits(serial.x_star, parallel.x_star)
    assert same_bits(serial.state.lam, parallel.state.lam)
    assert (serial.iterations, serial.inner_iterations) == \
        (parallel.iterations, parallel.inner_iterations)


def test_warm_start_reaches_same_solution():
    rng = np.random.default_rng(14)
    problem, graph, Q, config = random_clustering(rng, 6, 2, alpha=1.0, beta=1.0,
                                                  eps_abs=1e-9, eps_rel=1e-7,
                                                  outer_max_iters=5000)
    cold = solve_dual(problem, Q, config)
    warm = solve_dual(problem, Q, config, warm_start=cold.state)
    assert warm.iterations <= cold.iterations
    assert np.abs(cold.x_star - warm.x_star).max() <= 1e-5


def test_warm_start_with_flat_consensus_or_multiplier_rejected():
    # u and mu are n-by-d matrices; their n*d entries as a flat vector do
    # not fit
    rng = np.random.default_rng(18)
    problem, graph, Q, config = random_clustering(rng, 6, 2, beta=1.0, outer_max_iters=5)
    state = solve_dual(problem, Q, config).state
    assert state.u.shape == state.mu.shape == (6, 2)
    for flat in ("u", "mu"):
        warm = state.copy()
        setattr(warm, flat, getattr(warm, flat).ravel())
        with pytest.raises(DimensionError):
            solve_dual(problem, Q, config, warm_start=warm)


def test_max_iterations_flagged_not_raised():
    rng = np.random.default_rng(15)
    problem, graph, Q, config = random_clustering(rng, 6, 2, alpha=1.0, beta=1.0,
                                                  eps_abs=1e-300, eps_rel=1e-300,
                                                  outer_max_iters=5)
    result = solve_dual(problem, Q, config)
    assert not result.converged
    assert result.stop_reason == "max-iterations"
    assert result.iterations == 5


def test_invalid_config_rejected():
    with pytest.raises(ParameterError):
        SolverConfig(rho=0.0)
    with pytest.raises(ParameterError):
        SolverConfig(beta=-1.0)
    with pytest.raises(ParameterError):
        SolverConfig(p=4)
    with pytest.raises(ParameterError):
        SolverConfig(eps_abs=0.0)
    # a fractional cap used to pass here and fail inside the solve, as a
    # TypeError from range()
    for name in ("outer_max_iters", "inner_max_iters"):
        for value in (0, -3, 1.5, 2.5, float("nan"), float("inf"), "3", None):
            with pytest.raises(ParameterError, match=name):
                SolverConfig(**{name: value})


def test_whole_float_iteration_caps_are_stored_as_int():
    config = SolverConfig(outer_max_iters=3.0, inner_max_iters=np.int64(7))
    assert (config.outer_max_iters, config.inner_max_iters) == (3, 7)
    assert type(config.outer_max_iters) is int and type(config.inner_max_iters) is int
    assert SolverConfig(outer_max_iters=10 ** 400).outer_max_iters == 10 ** 400
    rng = np.random.default_rng(15)
    problem, graph, Q, config = random_clustering(rng, 6, 2, beta=1.0, eps_abs=1e-300,
                                                  eps_rel=1e-300, outer_max_iters=3.0,
                                                  inner_max_iters=2.0)
    result = solve_dual(problem, Q, config)
    assert result.iterations == 3 and result.inner_iterations <= 6


def test_trace_rows_shape():
    rng = np.random.default_rng(16)
    problem, graph, Q, config = random_clustering(rng, 5, 2, outer_max_iters=7,
                                                  eps_abs=1e-300, eps_rel=1e-300)
    result = solve_dual(problem, Q, config)
    rows = result.trace.rows()
    assert len(rows) == 7 and rows[0][0] == 1 and rows[-1][0] == 7
    assert all(np.isfinite(r[1:]).all() for r in [np.array(r) for r in rows])


def uniform_lipschitz(problem, Q, config, rng=None):
    # the one scalar constant sigma^2 (kappa + rho) for every dual row
    sigma = sco.admm.operator_norm_estimate(Q, rng=rng)
    return np.full(Q.row_count, sigma ** 2 * (problem.curvature_bound() + config.rho))


def weighted_graph(rng, n, pairs):
    return graph_of(n, tuple((i, j, float(w)) for (i, j), w in
                             zip(pairs, rng.uniform(0.05, 5.0, len(pairs)))))


def preconditioner_graphs(rng):
    # duplicated and near points: several kNN weights sit at the cap of 2
    values = rng.standard_normal((30, 2))
    values[20:25] = values[:5]
    capped = build_knn_graph(Dataset(values), k=4, weight_cap=2.0)
    assert np.count_nonzero(capped.weight == 2.0) >= 5
    star = weighted_graph(rng, 12, [(0, j) for j in range(1, 12)])
    path = weighted_graph(rng, 25, [(i, i + 1) for i in range(24)])
    two = weighted_graph(rng, 14, [(i, j) for i in range(7) for j in range(i + 1, 7)]
                         + [(i, i + 1) for i in range(7, 13)])
    return {"capped knn": capped, "star": star, "path": path, "two components": two}


@pytest.mark.parametrize("task", ["cc", "ridge"])
@pytest.mark.parametrize("name", ["capped knn", "star", "path", "two components"])
def test_row_lipschitz_dominates_the_hessian(task, name):
    # diag(L) - (kappa + rho) QQ^T is positive semidefinite on the dense matrix
    rng = np.random.default_rng(31)
    graph = preconditioner_graphs(rng)[name]
    n = graph.vertex_count
    values = rng.standard_normal((n, 2)) * np.array([0.3, 2.0])
    problem = ConvexClusteringProblem(Dataset(values)) if task == "cc" else \
        RidgeProblem(Dataset(values, rng.standard_normal(n)), gamma=0.5)
    alpha = 1.7
    config = SolverConfig(rho=0.3)
    L = sco.admm._row_lipschitz(problem, EdgeIncidence(graph, alpha), config)
    Qd = dense_incidence(graph, alpha)
    kappa = problem.curvature_bound()
    slack = np.diag(L) - (kappa + config.rho) * Qd @ Qd.T
    assert np.all(np.isfinite(L)) and np.all(L > 0)
    assert np.linalg.eigvalsh(slack).min() >= -1e-9 * L.max()


@pytest.mark.parametrize("task", ["cc", "ridge"])
def test_row_lipschitz_clamps_the_norm_estimate_at_its_exact_bound(task):
    # on a 4-cycle of unit weights J_k = 4 and J^{-1/2} Q = Q / 2 has norm
    # exactly 1, which the inflated power iteration reads as more: the
    # clamp leaves L = (kappa + rho) J, bit for bit, here and in the oracle
    graph = graph_of(4, ((0, 1, 1.0), (0, 3, 1.0), (1, 2, 1.0), (2, 3, 1.0)))
    Q = EdgeIncidence(graph, 1.0)
    assert sco.admm.operator_norm_estimate(Q.with_coef(Q.coef / 2.0)) > 1.0
    rng = np.random.default_rng(32)
    values = rng.standard_normal((4, 2))
    problem = ConvexClusteringProblem(Dataset(values)) if task == "cc" else \
        RidgeProblem(Dataset(values, rng.standard_normal(4)), gamma=0.5)
    config = SolverConfig(rho=0.3)
    expected = (problem.curvature_bound() + config.rho) * np.full(4, 4.0)
    assert same_bits(sco.admm._row_lipschitz(problem, Q, config), expected)
    assert same_bits(reference_row_lipschitz(problem, Q, config), expected)


def test_zero_weight_edges_leave_the_solve_unchanged():
    # a zero-weight edge is a zero row of Q: finite constants, and x_star
    # as without it, whether its ends have other edges or not
    rng = np.random.default_rng(33)
    values = np.vstack([four_blobs(rng)[:30], [[20.0, 0.0, 0.0], [0.0, 20.0, 0.0]]])
    data = Dataset(values)
    base = build_knn_graph(Dataset(values[:30]), k=4)
    plain = VariableGraph(32, base.head, base.tail, base.weight)
    zero_edges = [(0, 29, 0.0), (30, 31, 0.0)]
    assert not {e[:2] for e in zero_edges} & {e[:2] for e in edge_triples(base)}
    padded = graph_of(32, sorted(edge_triples(base) + zero_edges))
    problem = ConvexClusteringProblem(data)
    for p in (2, np.inf):
        config = SolverConfig(beta=0.5, p=p, s=1)
        Q_zero = EdgeIncidence(padded, 1.0)
        L = sco.admm._row_lipschitz(problem, Q_zero, config)
        assert np.all(np.isfinite(L)) and np.all(L > 0)
        with_zero = solve_dual(problem, Q_zero, config)
        without = solve_dual(problem, EdgeIncidence(plain, 1.0), config)
        assert with_zero.converged and without.converged
        np.testing.assert_allclose(with_zero.x_star, without.x_star, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(with_zero.x_star[30:], values[30:])


@pytest.mark.parametrize("task, p, rho", [("cc", 2, 1.0), ("cc", np.inf, 1.0),
                                          ("ridge", 1, 0.1)])
def test_row_steps_cut_inner_work_and_keep_the_model(task, p, rho, monkeypatch):
    # against the same solve with one scalar constant for every row: fewer
    # inner iterations, and a model within X_RTOL = 3e-4 of a tight solve
    rng = np.random.default_rng(21)
    if task == "cc":
        values = four_blobs(rng)
        problem = ConvexClusteringProblem(Dataset(values))
    else:
        values, targets = blob_regression(rng)
        problem = RidgeProblem(Dataset(values, targets), gamma=5.0)
    Q = EdgeIncidence(build_knn_graph(Dataset(values), k=5), 1.0)
    config = SolverConfig(beta=0.5, p=p, s=1, rho=rho)
    tight = solve_dual(problem, Q, replace(config, eps_abs=1e-10, eps_rel=1e-8,
                                           inner_tol=1e-12, inner_max_iters=5000,
                                           outer_max_iters=50000))
    per_row = solve_dual(problem, Q, config)
    monkeypatch.setattr("sco.admm._row_lipschitz", uniform_lipschitz)
    uniform = solve_dual(problem, Q, config)
    assert tight.converged and per_row.converged and uniform.converged
    assert per_row.inner_iterations < uniform.inner_iterations
    scale = np.linalg.norm(tight.x_star - values)
    for result in (per_row, uniform):
        assert np.linalg.norm(result.x_star - tight.x_star) <= 3e-4 * scale
    # the gaps are reported in CHANGES.md; both must keep their sign
    for result in (per_row, uniform):
        assert fenchel_gap(problem, Q, config, result) >= -1e-9 * abs(result.dual_objective)


def mapped_solves(task, p, seed):
    """Solve 40 blob points in 4-d and their image under a row permutation,
    a signed feature permutation and, for cc, a translation, on the mapped
    graph with its edges in a random order. Returns the base model mapped
    forward, the model of the mapped problem and the base ||X - A||_F."""
    n, d = 40, 4
    rng = np.random.default_rng(seed)
    values = 4.0 * rng.standard_normal((4, d))[np.arange(n) % 4] + rng.standard_normal((n, d))
    targets = values @ rng.standard_normal(d) + 0.1 * rng.standard_normal(n)
    sym = DataSymmetry(rng, n, d, translate=task == "cc")

    def problem(A, y):
        data = Dataset(A, y)
        return ConvexClusteringProblem(data) if task == "cc" else RidgeProblem(data, gamma=2.0)

    graph = build_knn_graph(Dataset(values), k=5)
    mapped = sym.graph(graph, rng)
    config = SolverConfig(beta=0.5, p=p, s=1, eps_abs=1e-9, eps_rel=1e-7,
                          outer_max_iters=5000)
    base = solve_dual(problem(values, targets), EdgeIncidence(graph, 1.0), config)
    image = solve_dual(problem(sym.forward(values), targets[sym.rows]),
                       EdgeIncidence(mapped, 1.0), config)
    assert base.converged and image.converged
    return sym.forward(base.x_star), image.x_star, np.linalg.norm(base.x_star - values)


@pytest.mark.parametrize("p", [1, 2, "inf"])
@pytest.mark.parametrize("task", ["cc", "ridge"])
def test_solve_is_equivariant_under_the_data_symmetries(task, p):
    # the problems are invariant under relabelling the instances and signed
    # relabelling of the features (and, for cc, translation), so the model
    # must map with the data. Over seeds 0-49 of this construction and all
    # six settings the largest error was 6.0e-9 of ||X - A||_F and the
    # median 5.6e-12, so the bound leaves a margin of 16x over the largest
    expected, got, scale = mapped_solves(task, p, seed=0)
    assert np.linalg.norm(got - expected) <= 1e-7 * scale
