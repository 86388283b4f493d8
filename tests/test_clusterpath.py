import numpy as np
import pytest

import sco.clusterpath
from sco import (ConvexClusteringProblem, Dataset, DimensionError, EdgeIncidence,
                 ParameterError, SolverConfig, build_knn_graph, canonical_labels,
                 default_fuse_tolerance, extract_clusters, sweep)

from helpers import graph_of
from oracles import DataSymmetry, per_edge_extract_clusters, same_bits


def chain_graph(n):
    return graph_of(n, tuple((i, i + 1, 1.0) for i in range(n - 1)))


def test_extract_all_singletons():
    X = np.array([[0.0], [10.0], [20.0]])
    labels = extract_clusters(X, chain_graph(3), eps_fuse=0.5)
    np.testing.assert_array_equal(labels, [0, 1, 2])


def test_extract_single_cluster():
    X = np.zeros((4, 2))
    labels = extract_clusters(X, chain_graph(4), eps_fuse=0.5)
    np.testing.assert_array_equal(labels, [0, 0, 0, 0])


def test_extract_partial_chain_uses_smallest_member():
    X = np.array([[0.0], [0.1], [5.0], [9.0]])
    labels = extract_clusters(X, chain_graph(4), eps_fuse=0.5)
    np.testing.assert_array_equal(labels, [0, 0, 2, 3])


def test_extract_matches_per_edge_oracle():
    rng = np.random.default_rng(5)
    cases = []
    for n, d, k in ((30, 2, 3), (200, 5, 8)):
        values = rng.standard_normal((n, d))
        graph = build_knn_graph(Dataset(values), k=k)
        cases += [(values, graph, eps) for eps in (0.05, 0.3, 1.0, 10.0)]
    # integer grid with duplicated rows: coincident pairs, and edges whose
    # length equals the tolerance exactly (fused, since the test is <=)
    grid = rng.integers(0, 4, size=(60, 2)).astype(float)
    grid_graph = build_knn_graph(Dataset(grid), k=4)
    cases += [(grid, grid_graph, eps) for eps in (1e-9, 1.0, np.sqrt(2.0), 2.0)]
    cases.append((rng.standard_normal((5, 2)), graph_of(5, ()), 1.0))
    data = Dataset(np.vstack([rng.standard_normal((10, 2)) + shift for shift in (0.0, 5.0)]))
    path_graph = build_knn_graph(data, k=4)
    path = sweep(data, path_graph, [0.1, 1.0, 4.0], SolverConfig(beta=0.0, p=np.inf))
    assert len(set(path.cluster_counts)) == 3
    cases += [(X, path_graph, path.fuse_tolerance) for X in path.solutions]
    for X, graph, eps in cases:
        np.testing.assert_array_equal(extract_clusters(X, graph, eps),
                                      per_edge_extract_clusters(X, graph, eps))


def test_sweep_labels_match_per_edge_oracle():
    # the sweep's labels are those of the per-edge oracle on the graph's
    # edge tuples
    rng = np.random.default_rng(9)
    data = Dataset(np.vstack([rng.standard_normal((12, 2)) + shift for shift in (0.0, 6.0)]))
    graph = build_knn_graph(data, k=4)
    path = sweep(data, graph, [0.1, 1.0, 4.0], SolverConfig(beta=0.0, p=2))
    for X, labels in zip(path.solutions, path.memberships):
        expected = per_edge_extract_clusters(X, graph, path.fuse_tolerance)
        np.testing.assert_array_equal(labels, canonical_labels(expected))


def test_extract_requires_positive_tolerance():
    with pytest.raises(ParameterError):
        extract_clusters(np.zeros((2, 1)), chain_graph(2), eps_fuse=0.0)


@pytest.mark.parametrize("rows", [3, 5, 30])
def test_extract_requires_one_row_per_vertex(rows):
    # too few rows used to fail as a bare IndexError, too many to label the
    # first n rows silently
    with pytest.raises(DimensionError, match="one per vertex"):
        extract_clusters(np.zeros((rows, 2)), chain_graph(4), eps_fuse=0.5)


def test_canonical_labels_round():
    np.testing.assert_array_equal(canonical_labels(np.array([0, 0, 2, 3])), [0, 0, 1, 2])
    np.testing.assert_array_equal(canonical_labels(np.array([5, 5, 5])), [0, 0, 0])


def test_canonical_labels_invariant_under_relabeling():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 4, size=12)
    shuffled = (labels * 7 + 3) % 11  # an injective relabeling
    a = canonical_labels(labels)
    b = canonical_labels(shuffled)
    np.testing.assert_array_equal(a, b)


def test_default_fuse_tolerance_scales_with_data():
    values = np.array([[0.0, 0.0], [10.0, 1.0]])
    assert default_fuse_tolerance(values) == 1e-2
    assert default_fuse_tolerance(np.zeros((3, 2))) > 0


def test_sweep_alpha_zero_gives_identity_and_singletons():
    rng = np.random.default_rng(1)
    data = Dataset(rng.standard_normal((5, 2)))
    graph = build_knn_graph(data, k=2)
    config = SolverConfig(beta=0.0, p=2, s=1)
    path = sweep(data, graph, [0.0], config)
    np.testing.assert_array_equal(path.solutions[0], data.values)
    assert path.cluster_counts == [5]
    np.testing.assert_array_equal(path.memberships[0], np.arange(5))


def test_sweep_two_point_fusion_transition():
    data = Dataset([[0.0], [2.0]])
    graph = graph_of(2, ((0, 1, 1.0),))
    config = SolverConfig(beta=0.0, p=2, s=1, eps_abs=1e-9, eps_rel=1e-7,
                          outer_max_iters=4000)
    path = sweep(data, graph, [1.0, 2.0], config)
    assert path.cluster_counts == [2, 1]
    np.testing.assert_array_equal(path.memberships[0], [0, 1])
    np.testing.assert_array_equal(path.memberships[1], [0, 0])


def test_sweep_large_alpha_reaches_centroid():
    rng = np.random.default_rng(2)
    data = Dataset(rng.standard_normal((6, 2)))
    graph = build_knn_graph(data, k=5)  # complete graph keeps fusion global
    config = SolverConfig(beta=0.0, p=2, s=1, eps_abs=1e-9, eps_rel=1e-7,
                          outer_max_iters=5000)
    path = sweep(data, graph, [50.0], config)
    assert path.cluster_counts == [1]
    centroid = data.values.mean(axis=0)
    np.testing.assert_allclose(path.solutions[0], np.tile(centroid, (6, 1)), atol=1e-3)


def test_sweep_validates_grid():
    data = Dataset([[0.0], [1.0]])
    graph = graph_of(2, ((0, 1, 1.0),))
    config = SolverConfig()
    with pytest.raises(ParameterError):
        sweep(data, graph, [], config)
    with pytest.raises(ParameterError):
        sweep(data, graph, [1.0, 1.0], config)
    with pytest.raises(ParameterError):
        sweep(data, graph, [-1.0, 1.0], config)
    for grid in ([1.0, np.nan], [np.nan, 1.0], [0.5, np.inf], [-np.inf, 1.0]):
        with pytest.raises(ParameterError, match="finite"):
            sweep(data, graph, grid, config)


def test_sweep_warm_equals_cold():
    rng = np.random.default_rng(3)
    data = Dataset(rng.standard_normal((6, 2)))
    graph = build_knn_graph(data, k=2)
    config = SolverConfig(beta=0.5, p=2, s=1, eps_abs=1e-9, eps_rel=1e-7,
                          outer_max_iters=5000)
    alphas = [0.2, 0.6, 1.2]
    warm = sweep(data, graph, alphas, config, warm_start=True)
    cold = sweep(data, graph, alphas, config, warm_start=False)
    for Xw, Xc in zip(warm.solutions, cold.solutions):
        assert np.abs(Xw - Xc).max() <= 1e-5


def test_fused_rows_stay_within_chained_tolerance():
    rng = np.random.default_rng(4)
    data = Dataset(rng.standard_normal((8, 2)))
    graph = build_knn_graph(data, k=3)
    config = SolverConfig(beta=0.0, p=2, s=1)
    path = sweep(data, graph, [2.0], config)
    X = path.solutions[0]
    labels = path.memberships[0]
    n = len(labels)
    for lab in np.unique(labels):
        members = np.nonzero(labels == lab)[0]
        for a in members:
            for b in members:
                # fused edges chain: pairwise spread is capped by the
                # tolerance times the longest possible path
                assert np.linalg.norm(X[a] - X[b]) <= path.fuse_tolerance * (n - 1) + 1e-12


def test_sweep_rescales_one_operator_to_the_bits_of_fresh_ones(monkeypatch):
    # one operator per path, rescaled per strength: every solve sees the
    # coefficients alpha * w of a fresh operator at its strength, and the
    # path equals warm-started solves on fresh operators, bit for bit
    rng = np.random.default_rng(9)
    data = Dataset(np.vstack([rng.standard_normal((10, 2)) + shift for shift in (0.0, 5.0)]))
    graph = build_knn_graph(data, k=4)
    alphas = [0.1, 0.3, 1.7, 4.0]
    config = SolverConfig(beta=0.5, p=2)
    seen = []
    solve = sco.clusterpath.solve_dual

    def recording(problem, Q, cfg, **kwargs):
        seen.append(Q)
        return solve(problem, Q, cfg, **kwargs)

    monkeypatch.setattr("sco.clusterpath.solve_dual", recording)
    path = sweep(data, graph, alphas, config)
    assert len(seen) == len(alphas)
    previous = None
    for alpha, Q, X in zip(alphas, seen, path.solutions):
        fresh = EdgeIncidence(graph, alpha)
        assert same_bits(Q.coef, fresh.coef)
        assert np.array_equal(Q.head, fresh.head) and np.array_equal(Q.tail, fresh.tail)
        result = solve(ConvexClusteringProblem(data), fresh, config, warm_start=previous)
        previous = result.state
        assert same_bits(result.x_star, X)


def test_sweep_memberships_are_equivariant_under_the_data_symmetries():
    # convex clustering is invariant under relabelling the instances, signed
    # relabelling of the features and translation, so every strength's
    # memberships must be the base ones relabelled. Over seeds 0-19 of this
    # construction every path matched, the models mapped within 1.3e-7 (largest
    # entry), and no base edge's row distance came within 4.1e-3 of the fuse
    # tolerance: a margin of over 3e4x
    n, d = 40, 3
    rng = np.random.default_rng(0)
    values = 4.0 * rng.standard_normal((4, d))[np.arange(n) % 4] + rng.standard_normal((n, d))
    sym = DataSymmetry(rng, n, d, translate=True)
    graph = build_knn_graph(Dataset(values), k=5)
    config = SolverConfig(beta=0.5, p=2, s=1, eps_abs=1e-9, eps_rel=1e-7, outer_max_iters=5000)
    alphas = [0.5, 2.0, 8.0, 32.0]
    base = sweep(Dataset(values), graph, alphas, config)
    image = sweep(Dataset(sym.forward(values)), sym.graph(graph, rng), alphas, config)
    assert all(base.converged) and all(image.converged)
    assert base.cluster_counts[-1] < n
    assert image.cluster_counts == base.cluster_counts
    for before, after in zip(base.memberships, image.memberships):
        assert np.array_equal(canonical_labels(before[sym.rows]), after)
