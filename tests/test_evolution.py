import numpy as np
import pytest

import sco.admm
import sco.evolution
from sco import (ConvexClusteringProblem, Dataset, DimensionError, EdgeIncidence,
                 NumericFailure, ParameterError, RidgeProblem, Snapshot, SolverConfig,
                 build_knn_graph, delta_metric, run_session)

from helpers import edge_triples
from oracles import same_bits


def clustering_setup(rng, n=6, d=2, beta=1.0, **kwargs):
    values = rng.standard_normal((n, d))
    data = Dataset(values)
    graph = build_knn_graph(data, k=2)
    problem = ConvexClusteringProblem(data)
    defaults = dict(beta=beta, p=2, s=1)
    defaults.update(kwargs)
    return problem, graph, SolverConfig(**defaults)


def test_delta_metric_zero_for_identical_data():
    rng = np.random.default_rng(0)
    problem, graph, config = clustering_setup(rng)
    Q = EdgeIncidence(graph, 1.0)
    lam = np.clip(rng.standard_normal((Q.row_count, 2)), -1, 1)
    assert delta_metric(problem, Q, lam, problem.with_values(problem.values.copy())) == 0.0


def test_delta_metric_clustering_reduces_to_linear_term():
    rng = np.random.default_rng(1)
    problem, graph, config = clustering_setup(rng)
    Q = EdgeIncidence(graph, 1.0)
    lam = np.clip(rng.standard_normal((Q.row_count, 2)), -1, 1)
    delta = 0.1 * rng.standard_normal(problem.values.shape)
    expected = abs(float((delta * Q.apply_t(lam)).sum()))
    got = delta_metric(problem, Q, lam, problem.with_values(problem.values + delta))
    assert abs(got - expected) <= 1e-10 * (1 + expected)


def test_delta_metric_orthogonal_perturbation_is_invisible():
    rng = np.random.default_rng(2)
    problem, graph, config = clustering_setup(rng, n=5, d=1)
    Q = EdgeIncidence(graph, 1.0)
    lam = np.clip(rng.standard_normal((Q.row_count, 1)), -1, 1)
    image = Q.apply_t(lam)
    delta = rng.standard_normal(image.shape)
    delta -= image * float((delta * image).sum()) / float((image * image).sum())
    got = delta_metric(problem, Q, lam, problem.with_values(problem.values + delta))
    assert got <= 1e-10


def test_delta_metric_is_one_homogeneous_for_clustering():
    rng = np.random.default_rng(3)
    problem, graph, config = clustering_setup(rng)
    Q = EdgeIncidence(graph, 1.0)
    lam = np.clip(rng.standard_normal((Q.row_count, 2)), -1, 1)
    delta = 0.05 * rng.standard_normal(problem.values.shape)
    one = delta_metric(problem, Q, lam, problem.with_values(problem.values + delta))
    two = delta_metric(problem, Q, lam, problem.with_values(problem.values + 2.0 * delta))
    assert abs(two - 2.0 * one) <= 1e-10 * (1 + two)


def test_delta_metric_ridge_includes_constant_term():
    # a perturbation with zero transposed-incidence coupling still moves the
    # dropped target constant, and the metric must see it
    rng = np.random.default_rng(4)
    values = rng.standard_normal((5, 1))
    data = Dataset(values, targets=rng.standard_normal(5))
    graph = build_knn_graph(data, k=2)
    problem = RidgeProblem(data, gamma=2.0)
    Q = EdgeIncidence(graph, 1.0)
    lam = np.zeros((Q.row_count, 1))  # kill every dual-dependent term
    delta = 0.3 * rng.standard_normal(values.shape)
    changed = problem.with_values(values + delta)
    got = delta_metric(problem, Q, lam, changed)
    expected = abs(changed.conjugate_constant() - problem.conjugate_constant())
    assert abs(got - expected) <= 1e-12
    assert got > 0


@pytest.mark.parametrize("task", ["cc", "ridge"])
def test_delta_metric_maps_the_dual_rows_once(task, monkeypatch):
    # both conjugates are taken at one image Q^T lam
    rng = np.random.default_rng(6)
    values = rng.standard_normal((8, 2))
    data = Dataset(values, targets=rng.standard_normal(8))
    problem = ConvexClusteringProblem(data) if task == "cc" else RidgeProblem(data, gamma=2.0)
    Q = EdgeIncidence(build_knn_graph(data, k=2), 1.0)
    lam = np.clip(rng.standard_normal((Q.row_count, 2)), -1, 1)
    evolved = problem.with_values(values + 0.1)
    apply_t = EdgeIncidence.apply_t
    maps = []

    def counting_apply_t(self, lam):
        maps.append(lam.shape)
        return apply_t(self, lam)

    monkeypatch.setattr(EdgeIncidence, "apply_t", counting_apply_t)
    assert delta_metric(problem, Q, lam, evolved) > 0
    assert maps == [lam.shape]


def test_delta_metric_shape_mismatch():
    rng = np.random.default_rng(5)
    problem, graph, config = clustering_setup(rng)
    Q = EdgeIncidence(graph, 1.0)
    with pytest.raises(DimensionError):
        delta_metric(problem, Q, np.zeros((Q.row_count, 2)), problem.with_values(np.zeros((2, 2))))


def test_identical_stream_one_solve_all_keep():
    rng = np.random.default_rng(6)
    problem, graph, config = clustering_setup(rng)
    stream = [Snapshot(index=i, values=problem.values.copy()) for i in range(4)]
    calls = []
    decisions, session = run_session(problem, graph, stream, config, threshold=10.0,
                                     on_decision=lambda *args: calls.append(args))
    assert [d.action for d in decisions] == ["keep"] * 4
    assert all(d.solve_iters is None for d in decisions)
    # no task is built and the first state is kept throughout
    assert all(evolved is None and before is after is session
               for _, before, after, evolved in calls)


def test_zero_threshold_resolves_every_changed_snapshot():
    rng = np.random.default_rng(7)
    problem, graph, config = clustering_setup(rng)
    stream = [Snapshot(index=i, values=problem.values + 0.01 * rng.standard_normal(problem.values.shape))
              for i in range(3)]
    decisions, _ = run_session(problem, graph, stream, config, threshold=0.0)
    assert [d.action for d in decisions] == ["resolve"] * 3
    assert all(d.solve_iters is not None for d in decisions)


def test_solves_on_one_operator_share_one_norm_estimate(monkeypatch):
    # the power iteration depends on Q alone: a session of three solves on
    # one operator runs it once, and the kept factor gives the bits of a
    # fresh estimate; an operator with other coefficients gets its own
    rng = np.random.default_rng(7)
    problem, graph, config = clustering_setup(rng)
    stream = [Snapshot(index=i, values=problem.values + 0.01 * rng.standard_normal(problem.values.shape))
              for i in range(2)]
    estimates = []
    estimate = sco.admm.operator_norm_estimate

    def counted(*args, **kwargs):
        estimates.append(args)
        return estimate(*args, **kwargs)

    monkeypatch.setattr("sco.admm.operator_norm_estimate", counted)
    decisions, session = run_session(problem, graph, stream, config, threshold=0.0)
    assert [d.action for d in decisions] == ["resolve"] * 2
    assert len(estimates) == 1
    Q = session.Q
    kept = sco.admm._row_lipschitz(session.problem, Q, config)
    fresh = sco.admm._row_lipschitz(session.problem, Q, config, rng=np.random.default_rng(0))
    assert len(estimates) == 2 and same_bits(kept, fresh)
    sco.admm._row_lipschitz(session.problem, Q.with_coef(2.0 * Q.coef), config)
    assert len(estimates) == 3


def test_two_phase_stream_keeps_then_resolves():
    rng = np.random.default_rng(8)
    problem, graph, config = clustering_setup(rng, beta=1.0)
    Q = EdgeIncidence(graph, 1.0)

    tiny = [1e-4 * rng.standard_normal(problem.values.shape) for _ in range(3)]
    # constant shifts are invisible to the metric (edge differences kill
    # them), so the large phase must move instances relative to each other
    big = 5.0 * rng.standard_normal(problem.values.shape)

    # calibrate the threshold strictly between the two perturbation scales
    from sco import solve_dual

    base = solve_dual(problem, Q, config)
    tiny_scores = [delta_metric(problem, Q, base.state.lam, problem.with_values(problem.values + t))
                   for t in tiny]
    big_score = delta_metric(problem, Q, base.state.lam, problem.with_values(problem.values + big))
    assert max(tiny_scores) < big_score
    threshold = 0.5 * (max(tiny_scores) + big_score)

    stream = [Snapshot(index=i, values=problem.values + t) for i, t in enumerate(tiny)]
    stream.append(Snapshot(index=3, values=problem.values + big))
    decisions, session = run_session(problem, graph, stream, config, threshold=threshold)
    assert [d.action for d in decisions] == ["keep", "keep", "keep", "resolve"]
    np.testing.assert_array_equal(session.problem.values, problem.values + big)


def test_decision_log_replays_identically():
    rng = np.random.default_rng(9)
    problem, graph, config = clustering_setup(rng)
    stream = [Snapshot(index=i, values=problem.values + 0.05 * rng.standard_normal(problem.values.shape))
              for i in range(5)]
    first, _ = run_session(problem, graph, stream, config, threshold=0.05)
    second, _ = run_session(problem, graph, stream, config, threshold=0.05)
    assert [(d.index, d.action, d.delta_metric) for d in first] == \
           [(d.index, d.action, d.delta_metric) for d in second]


def test_negative_threshold_rejected():
    rng = np.random.default_rng(10)
    problem, graph, config = clustering_setup(rng)
    with pytest.raises(ParameterError):
        run_session(problem, graph, [], config, threshold=-1.0)


def test_nan_threshold_rejected():
    # no score is ever >= NaN, so a NaN threshold would never refresh
    rng = np.random.default_rng(10)
    problem, graph, config = clustering_setup(rng)
    with pytest.raises(ParameterError):
        run_session(problem, graph, [], config, threshold=float("nan"))


def test_rebuild_graph_on_resolve():
    rng = np.random.default_rng(11)
    problem, graph, config = clustering_setup(rng)
    moved = problem.values + 2.0 * rng.standard_normal(problem.values.shape)
    stream = [Snapshot(index=0, values=moved)]
    decisions, session = run_session(problem, graph, stream, config, threshold=0.0,
                                     rebuild_k=2)
    assert decisions[0].action == "resolve"
    rebuilt = EdgeIncidence(build_knn_graph(Dataset(moved), 2), 1.0)
    for name in ("head", "tail", "coef"):
        np.testing.assert_array_equal(getattr(session.Q, name), getattr(rebuilt, name))


@pytest.mark.parametrize("rebuild_k", [None, 2])
def test_every_operator_of_a_session_has_its_coupling_strength(rebuild_k):
    # the first operator and each one after an accepted change, rebuilt or
    # kept, carry alpha * w: the same bits as a fresh operator at alpha
    rng = np.random.default_rng(11)
    problem, graph, config = clustering_setup(rng)
    moved = problem.values + 2.0 * rng.standard_normal(problem.values.shape)
    seen = []
    run_session(problem, graph, [Snapshot(index=0, values=moved)], config, threshold=0.0,
                alpha=2.5, rebuild_k=rebuild_k,
                on_decision=lambda decision, before, after, evolved: seen.append((before, after)))
    (before, after), = seen
    after_graph = graph if rebuild_k is None else build_knn_graph(Dataset(moved), rebuild_k)
    assert same_bits(before.Q.coef, EdgeIncidence(graph, 2.5).coef)
    assert same_bits(after.Q.coef, EdgeIncidence(after_graph, 2.5).coef)


@pytest.mark.parametrize("seed, shift, warm", [(6, 0.0, False), (8, 0.0, False),
                                               (6, 1.0, True)])
def test_rebuild_warm_starts_only_on_the_same_edges(seed, shift, warm, monkeypatch):
    # dual row k is edge k's multiplier: a rebuilt graph with as many edges
    # as the old one but other ends starts cold (30 points, d=2, k=3, noise
    # 0.3 at seeds 6 and 8), and a translated snapshot, whose kNN edges are
    # the old ones, warm-starts from the kept state
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((30, 2))
    moved = values + shift if shift else values + 0.3 * rng.standard_normal(values.shape)
    graph = build_knn_graph(Dataset(values), 3)
    rebuilt = build_knn_graph(Dataset(moved), 3)
    assert rebuilt.edge_count == graph.edge_count
    assert ([e[:2] for e in edge_triples(rebuilt)] == [e[:2] for e in edge_triples(graph)]) == warm
    solve = sco.evolution.solve_dual
    seen = []

    def recording(problem, Q, config, warm_start=None, **kwargs):
        result = solve(problem, Q, config, warm_start=warm_start, **kwargs)
        seen.append((warm_start, result.state))
        return result

    monkeypatch.setattr("sco.evolution.solve_dual", recording)
    run_session(ConvexClusteringProblem(Dataset(values)), graph,
                [Snapshot(index=0, values=moved)], SolverConfig(beta=1.0, p=2, s=1),
                threshold=0.0, rebuild_k=3)
    (first_warm, kept), (resolve_warm, _) = seen
    assert first_warm is None
    assert resolve_warm is (kept if warm else None)


@pytest.mark.parametrize("rebuild_k", [0, 6, 2.5, "3"])
def test_bad_rebuild_count_fails_before_the_first_solve(rebuild_k, monkeypatch):
    # checked against n by build_knn_graph's own rule, before any solve,
    # and reported as a bad argument, not as a fault of a snapshot
    rng = np.random.default_rng(12)
    problem, graph, config = clustering_setup(rng)
    moved = problem.values + 2.0 * rng.standard_normal(problem.values.shape)
    calls = []
    monkeypatch.setattr("sco.evolution.solve_dual", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ParameterError) as caught:
        run_session(problem, graph, [Snapshot(index=0, values=moved)], config, threshold=0.0,
                    rebuild_k=rebuild_k)
    assert calls == []
    assert str(caught.value) == (
        f"rebuild_k must be an integer with 1 <= k <= n-1 = 5, got {rebuild_k!r}")
    assert "snapshot" not in str(caught.value)


def test_solver_failure_carries_snapshot_index(monkeypatch):
    rng = np.random.default_rng(12)
    problem, graph, config = clustering_setup(rng)
    moved = problem.values + 2.0 * rng.standard_normal(problem.values.shape)
    solve = sco.evolution.solve_dual

    def failing_resolve(problem, Q, config, warm_start=None, **kwargs):
        if warm_start is not None:
            raise NumericFailure("non-finite dual rows")
        return solve(problem, Q, config, **kwargs)

    monkeypatch.setattr("sco.evolution.solve_dual", failing_resolve)
    with pytest.raises(NumericFailure, match="snapshot 7: non-finite dual rows"):
        run_session(problem, graph, [Snapshot(index=7, values=moved)], config, threshold=0.0)


@pytest.mark.parametrize("task", ["cc", "ridge"])
@pytest.mark.parametrize("shape", [(4, 2), (6, 3)])
def test_snapshot_of_another_shape_raises_dimension_error(task, shape):
    # a ridge snapshot without targets keeps the accepted targets, which do
    # not fit 4 rows: the shape is checked before the snapshot's task is built
    rng = np.random.default_rng(13)
    problem, graph, config = clustering_setup(rng)
    if task == "ridge":
        problem = RidgeProblem(Dataset(problem.values, rng.standard_normal(6)), gamma=2.0)
    stream = [Snapshot(index=3, values=np.ones(shape))]
    with pytest.raises(DimensionError, match="snapshot 3"):
        run_session(problem, graph, stream, config, threshold=0.0)


def test_hook_sees_the_state_each_snapshot_met_and_its_task(monkeypatch):
    # resolve, repeat of the accepted data, small change kept: the hook gets
    # the state before and after each snapshot and the task that the score
    # and the re-solve took
    rng = np.random.default_rng(14)
    problem, graph, config = clustering_setup(rng)
    moved = problem.values + 0.5 * rng.standard_normal(problem.values.shape)
    stream = [Snapshot(index=0, values=moved), Snapshot(index=1, values=moved.copy()),
              Snapshot(index=2, values=moved + 1e-3)]
    scored, solved = [], []
    score, solve = sco.evolution.delta_metric, sco.evolution.solve_dual

    def recording_score(problem, Q, lam, evolved):
        scored.append(evolved)
        return score(problem, Q, lam, evolved)

    def recording_solve(problem, *args, **kwargs):
        solved.append(problem)
        return solve(problem, *args, **kwargs)

    monkeypatch.setattr("sco.evolution.delta_metric", recording_score)
    monkeypatch.setattr("sco.evolution.solve_dual", recording_solve)
    calls = []
    decisions, session = run_session(problem, graph, stream, config, threshold=1e-2,
                                     on_decision=lambda *args: calls.append(args))
    assert [d.action for d in decisions] == ["resolve", "keep", "keep"]
    (d0, before0, after0, evolved0), (d1, before1, after1, evolved1), \
        (d2, before2, after2, evolved2) = calls
    assert before0.problem is problem and after0 is not before0
    assert scored == [evolved0, evolved2] and solved == [problem, evolved0]
    assert after0.problem is evolved0 and after0.x_star is not before0.x_star
    np.testing.assert_array_equal(evolved0.values, moved)
    assert evolved1 is None and before1 is after1 is after0
    assert evolved2 is not None and before2 is after2 is session is after0
