import tracemalloc

import numpy as np
import pytest

import sco.graph
from sco import (DataValidationError, Dataset, EdgeIncidence, ParameterError, VariableGraph,
                 build_knn_graph, validate_graph)

from helpers import edge_triples, graph_of
from oracles import partition_knn_graph, per_row_knn_graph


def test_three_points_k1():
    # exhaustive check: 0-1 distance 1, 1-2 distance 2, 0-2 distance 3
    g = build_knn_graph(Dataset([[0.0], [1.0], [3.0]]), k=1)
    assert edge_triples(g) == [(0, 1, 1.0), (1, 2, 0.5)]
    assert (g.head.dtype, g.tail.dtype, g.weight.dtype) == (np.intp, np.intp, np.float64)


def test_full_k_gives_complete_graph():
    rng = np.random.default_rng(3)
    data = Dataset(rng.standard_normal((6, 3)))
    g = build_knn_graph(data, k=5)
    assert g.edge_count == 6 * 5 // 2


def test_identical_points_hit_weight_cap():
    g = build_knn_graph(Dataset([[1.0, 2.0], [1.0, 2.0]]), k=1, weight_cap=1e6)
    assert edge_triples(g) == [(0, 1, 1e6)]


def test_k_out_of_range():
    data = Dataset([[0.0], [1.0], [2.0]])
    with pytest.raises(ParameterError):
        build_knn_graph(data, k=0)
    with pytest.raises(ParameterError):
        build_knn_graph(data, k=3)


def test_single_instance_rejected():
    with pytest.raises(ParameterError):
        build_knn_graph(Dataset([[0.0]]), k=1)


def test_non_finite_data_rejected():
    with pytest.raises(DataValidationError):
        Dataset([[0.0], [np.nan]])
    with pytest.raises(DataValidationError):
        Dataset([[np.inf, 1.0]])


def test_targets_length_checked():
    with pytest.raises(DataValidationError):
        Dataset([[0.0], [1.0]], targets=[1.0])


def test_permutation_invariance_up_to_relabeling():
    rng = np.random.default_rng(7)
    values = rng.standard_normal((9, 2))
    g = build_knn_graph(Dataset(values), k=3)
    perm = rng.permutation(9)
    g_perm = build_knn_graph(Dataset(values[perm]), k=3)
    # map permuted edges back to original vertex ids
    mapped = set()
    for i, j, w in edge_triples(g_perm):
        a, b = int(perm[i]), int(perm[j])
        mapped.add((min(a, b), max(a, b), round(w, 9)))
    original = {(i, j, round(w, 9)) for i, j, w in edge_triples(g)}
    assert mapped == original


def test_every_vertex_has_degree_at_least_one():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        g = build_knn_graph(Dataset(rng.standard_normal((n, 3))), k=1)
        touched = set()
        for i, j, _ in edge_triples(g):
            touched.add(i)
            touched.add(j)
        assert touched == set(range(n))


def test_determinism_bit_identical():
    rng = np.random.default_rng(11)
    values = rng.standard_normal((8, 2))
    g1 = build_knn_graph(Dataset(values), k=2)
    g2 = build_knn_graph(Dataset(values.copy()), k=2)
    assert edge_triples(g1) == edge_triples(g2)


def test_validate_graph_accepts_builder_output():
    rng = np.random.default_rng(2)
    g = build_knn_graph(Dataset(rng.standard_normal((7, 2))), k=2)
    assert validate_graph(g) == []


def test_validate_graph_flags_bad_ordering():
    g = graph_of(3, [(2, 1, 1.0)])
    report = validate_graph(g)
    assert len(report) == 1 and "edge 0" in report[0]


def test_validate_graph_flags_duplicates():
    g = graph_of(3, [(0, 1, 1.0), (0, 1, 2.0)])
    report = validate_graph(g)
    assert any("duplicate" in line for line in report)


def test_validate_graph_flags_bad_weight():
    g = graph_of(3, [(0, 1, -1.0)])
    assert any("weight" in line for line in validate_graph(g))


def test_validate_graph_messages_run_in_edge_order():
    # every repeat after the first copy, wherever the copies sit, and an
    # edge's own faults in the order endpoints, weight, duplicate
    # (the file-level order is pinned in test_cli.py)
    g = graph_of(3, [(1, 2, 1.0), (0, 1, 1.0), (1, 2, 1.0), (0, 0, 1.0), (1, 2, np.nan),
                     (0, 0, 0.0), (0, 2, np.inf)])
    assert validate_graph(g) == ["edge 2: duplicate pair (1, 2)",
                                 "edge 3: endpoints (0, 0) violate 0 <= i < j < 3",
                                 "edge 4: weight nan is not a positive finite real",
                                 "edge 4: duplicate pair (1, 2)",
                                 "edge 5: endpoints (0, 0) violate 0 <= i < j < 3",
                                 "edge 5: weight 0.0 is not a positive finite real",
                                 "edge 5: duplicate pair (0, 0)",
                                 "edge 6: weight inf is not a positive finite real"]
    assert validate_graph(graph_of(0, [])) == ["graph: vertex_count must be >= 1"]


def test_graph_edges_are_read_only_arrays():
    graph = build_knn_graph(Dataset(np.random.default_rng(1).standard_normal((20, 2))), 3)
    for edge_array in (graph.head, graph.tail, graph.weight):
        with pytest.raises(ValueError):
            edge_array[0] = 1
    assert np.shares_memory(EdgeIncidence(graph, 2.0).head, graph.head)
    # a caller's array is shared but not frozen
    head = np.array([0, 1], dtype=np.intp)
    graph = VariableGraph(3, head, np.array([1, 2]), np.array([1.0, 0.5]))
    assert np.shares_memory(graph.head, head) and head.flags.writeable
    with pytest.raises(DataValidationError):
        VariableGraph(3, head, np.array([1, 2, 2]), np.array([1.0, 0.5]))


def test_graph_rejects_endpoints_that_are_not_integers():
    # a cast to intp would truncate 0.5 and 1.7 to the edge (0, 1), and turn
    # NaN into the most negative integer
    for head, tail in (([0.5], [1.7]), (np.array([0.0, np.nan]), [1, 2]),
                       (np.array([0, np.nan], dtype=object), [1, 2]),
                       ([0], np.array([np.inf])), ([0], [1e30])):
        with pytest.raises(DataValidationError):
            VariableGraph(3, head, tail, np.ones(len(head)))
    # whole numbers of any dtype are endpoints, object arrays included
    for head, tail in ((np.array([0.0, 1.0]), np.array([1, 2], dtype=np.int32)),
                       (np.array([0, 1], dtype=object), np.array([1.0, 2.0], dtype=object)),
                       ([0, 1], np.array([1, 2], dtype=np.uint8))):
        graph = VariableGraph(3, head, tail, [1.0, 0.5])
        assert edge_triples(graph) == [(0, 1, 1.0), (1, 2, 0.5)]
        assert graph.head.dtype == graph.tail.dtype == np.intp


def test_k_must_be_a_whole_number():
    data = Dataset(np.random.default_rng(8).standard_normal((10, 2)))
    for k in (2.7, np.float64(1.5), float("nan"), float("inf"), "3", None):
        with pytest.raises(ParameterError):
            build_knn_graph(data, k)
    expected = edge_triples(build_knn_graph(data, 2))
    for k in (2.0, np.int32(2), np.float32(2.0)):
        assert edge_triples(build_knn_graph(data, k)) == expected


def test_built_graph_holds_at_most_32_bytes_per_edge():
    # three 8-byte arrays need 24; Python (i, j, w) tuples took 152
    data = Dataset(np.random.default_rng(6).standard_normal((2000, 10)))
    tracemalloc.start()
    try:
        graph = build_knn_graph(data, 10)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 32 * graph.edge_count, (held, graph.edge_count)


def test_overflowing_magnitudes_fail_fast():
    data = Dataset([[1e200], [-1e200], [3e200]])
    with np.errstate(all="ignore"):
        for build in (build_knn_graph, per_row_knn_graph):
            with pytest.raises(DataValidationError):
                build(data, k=1)


def oracle_cases():
    """(name, values, k, weight_cap) inputs for the blocked build."""
    rng = np.random.default_rng(17)
    # centred data: the oracle's Gram-identity distances lose about
    # eps*|v|^2/dist^2 relative, so points far from the origin would
    # measure the oracle's error, not the builder's
    for n, d, k in ((5, 1, 1), (12, 2, 3), (40, 3, 5), (9, 2, 8), (250, 5, 10), (300, 10, 20)):
        yield f"random-{n}x{d}-k{k}", rng.standard_normal((n, d)), k, 1e6
    # 15 blocks of 65 rows and a last one of 25 at the default block size
    yield "multi-block", rng.standard_normal((1000, 5)), 8, 1e6
    yield "two-points", np.array([[0.0, 1.0], [2.0, -1.0]]), 1, 1e6
    for k in (1, 3, 5, 8, 20):
        # 16 grid positions for 60 points: duplicated rows and exact ties
        yield f"grid-k{k}", rng.integers(0, 4, size=(60, 2)).astype(float), k, 1e6
    coincident = np.repeat(rng.standard_normal((6, 3)), 3, axis=0)[rng.permutation(18)]
    yield "coincident", coincident, 4, 1e6
    yield "low-cap", rng.standard_normal((30, 2)), 3, 2.0
    # the key's one product on more widths; at the default block size n is
    # not a multiple of the block's rows (93, 100 and 123), so the last
    # block is shorter
    for n, d in ((700, 1), (650, 11), (530, 40)):
        yield f"blobs-{n}x{d}", blobs(rng, n, d), 10, 1e6


@pytest.mark.parametrize("block_entries", [None, 250])
def test_matches_per_row_oracle(monkeypatch, block_entries):
    if block_entries is not None:
        # blocks of one to a few rows, the last one often shorter
        monkeypatch.setattr(sco.graph, "_BLOCK_ENTRIES", block_entries)
    for name, values, k, cap in oracle_cases():
        data = Dataset(values)
        got, ref = build_knn_graph(data, k, cap), per_row_knn_graph(data, k, cap)
        got_pairs = [(i, j) for i, j, _ in edge_triples(got)]
        assert got_pairs == [(i, j) for i, j, _ in edge_triples(ref)], name
        w = np.array([e[2] for e in edge_triples(got)])
        w_ref = np.array([e[2] for e in edge_triples(ref)])
        if name.startswith(("grid", "two-points")):
            assert np.array_equal(w, w_ref), name
        elif name.startswith("blobs") and values.shape[1] == 1:
            # hundreds of points on a line sit closer than the oracle's
            # Gram-identity distances resolve (its weights err by up to
            # 5.5e-7 relative here); the direct check below holds every bit
            np.testing.assert_allclose(w, w_ref, rtol=1e-6, atol=0, err_msg=name)
        else:
            np.testing.assert_allclose(w, w_ref, rtol=1e-12, atol=0, err_msg=name)
        # the weights come from the direct differences, bit for bit
        i, j = np.array(got_pairs).T
        direct = np.linalg.norm(values[i] - values[j], axis=1)
        with np.errstate(divide="ignore"):
            assert np.array_equal(w, np.minimum(1.0 / direct, cap)), name
        if name in ("coincident", "grid-k1"):
            assert np.count_nonzero(w == cap) > 0, name


def partition_reference_cases():
    """(name, values, k) inputs on which the build is held to its earlier
    full-row partition selection, bit for bit."""
    rng = np.random.default_rng(29)
    yield "blobs-2500x10-k10", blobs(rng, 2500, 10), 10
    yield "blobs-2500x10-k100", blobs(rng, 2500, 10), 100
    # every key ties, so every row keeps its k smallest indices
    yield "coincident-2500x10", np.ones((2500, 10)), 10
    for n, side, k in ((2500, 10, 10), (3000, 8, 5), (400, 4, 3)):
        yield f"grid-{n}-side{side}-k{k}", rng.integers(0, side, size=(n, 2)).astype(float), k
    yield "sorted-1d", np.sort(rng.standard_normal((2500, 1)), axis=0), 10
    yield "k-is-n-1", rng.standard_normal((70, 3)), 69
    yield "two-points", rng.standard_normal((2, 4)), 1


@pytest.mark.parametrize("block_entries", [None, 250])
def test_matches_partition_reference(monkeypatch, block_entries):
    if block_entries is not None:
        # one-row blocks from n = 126 on (the grids and the blobs)
        monkeypatch.setattr(sco.graph, "_BLOCK_ENTRIES", block_entries)
    for name, values, k in partition_reference_cases():
        data = Dataset(values)
        got, ref = build_knn_graph(data, k), partition_knn_graph(data, k)
        for field in ("head", "tail", "weight"):
            assert np.array_equal(getattr(got, field), getattr(ref, field)), (name, field)


def test_build_peak_above_its_graph_is_at_most_2_75_blocks():
    # beyond the graph it returns, the build holds one block of ranking keys,
    # the pair keys and the weight chunks, and frees the block's buffers
    # before the weights: 2.62 blocks at n=2500, d=10 (the full-row partition
    # build peaked at 2.95, and 3.72 with the buffers kept to the end)
    data = Dataset(np.random.default_rng(5).standard_normal((2500, 10)))
    tracemalloc.start()
    try:
        graph = build_knn_graph(data, 10)
        returned, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    blocks = (peak - returned) / (8 * sco.graph._BLOCK_ENTRIES)
    assert blocks <= 2.75, (blocks, graph.edge_count)


def test_build_memory_is_below_a_dense_matrix():
    # one dense 4000 x 4000 float64 distance matrix is 128 MB
    data = Dataset(np.random.default_rng(4).standard_normal((4000, 3)))
    tracemalloc.start()
    try:
        graph = build_knn_graph(data, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert graph.edge_count >= 4000 * 10 // 2
    assert peak < 40e6, peak


def test_build_holds_less_than_one_edge_by_feature_array():
    # the weights are computed in chunks: beyond the graph it returns, the
    # build never holds as much as one m-by-d float64 array (the gathered
    # endpoint rows of every edge at once took three of them)
    data = Dataset(np.random.default_rng(5).standard_normal((2000, 32)))
    tracemalloc.start()
    try:
        graph = build_knn_graph(data, 10)
        returned, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    edge_by_feature = graph.edge_count * 32 * 8
    assert peak - returned < edge_by_feature, (peak - returned, edge_by_feature)


def blobs(rng, n, d):
    """Four Gaussian blobs with unit spread around well separated centres,
    as in the benchmark's workloads."""
    centres = 4.0 * rng.standard_normal((4, d))
    return centres[np.arange(n) % 4] + rng.standard_normal((n, d))


@pytest.mark.parametrize("seed", range(5))
def test_ranking_key_is_equivariant_on_blobs(seed):
    # The key |v_j|^2 - 2 v_i.v_j rounds differently from the clamped
    # distance, and a translation changes |v|^2; the pairs must not move.
    # Over seeds 0-19 of this construction, before and after the maps, the
    # smallest gap between a row's k-th and (k+1)-th squared distance was
    # 2.2e7 times eps * 3 max|v|^2, the rounding scale of a key, and the
    # weights of mapped pairs differed by at most 1.1e-15 relative.
    rng = np.random.default_rng(seed)
    n, d, k = 600, 10, 10  # 109 rows per block: six blocks, the last shorter
    base = blobs(rng, n, d)
    rows, cols = rng.permutation(n), rng.permutation(d)
    signs, shift = rng.choice([-1.0, 1.0], d), rng.uniform(-2.0, 2.0, d)
    graph = build_knn_graph(Dataset(base), k)
    oracle = per_row_knn_graph(Dataset(base), k)
    assert [e[:2] for e in edge_triples(graph)] == [e[:2] for e in edge_triples(oracle)]
    expected = {(i, j): w for i, j, w in edge_triples(graph)}
    identity = np.arange(n)
    for name, mapped, order in (
            ("rows", base[rows], rows),
            ("signed features", base[:, cols] * signs, identity),
            ("translation", base + shift, identity),
            ("all three", base[rows][:, cols] * signs + shift, rows)):
        got = {}
        for i, j, w in edge_triples(build_knn_graph(Dataset(mapped), k)):
            a, b = sorted((int(order[i]), int(order[j])))
            got[a, b] = w
        assert sorted(got) == sorted(expected), name
        np.testing.assert_allclose([got[pair] for pair in expected], list(expected.values()),
                                   rtol=1e-12, atol=0, err_msg=name)


OVERFLOW = "data magnitudes overflow the distance computation"


@pytest.mark.parametrize("huge", [
    [1e160, 0.0, 0.0],          # one huge row: |v|^2 itself overflows
    [1e154, 8e153, 0.0],        # |v|^2 = 1.64e308, within 2x of the float limit
])
def test_one_huge_row_among_small_ones_fails(huge):
    values = np.random.default_rng(5).standard_normal((20, 3))
    values[7] = huge
    with pytest.raises(DataValidationError, match=f"^{OVERFLOW}$"):
        build_knn_graph(Dataset(values), k=3)


def test_overflowing_distance_fails_where_twice_the_norm_does_not():
    # |v|^2 = 4.9e307: 2 |v|^2 is finite, but the pair's squared distance,
    # 4 |v|^2, and its ranking key, 3 |v|^2, overflow. A check on 2 max|v|^2
    # alone would keep the pair with weight 1/inf = 0.
    values = np.array([[7e153], [-7e153], [0.0]])
    with pytest.raises(DataValidationError, match=f"^{OVERFLOW}$"):
        build_knn_graph(Dataset(values), k=1)
    # the bound is on the magnitudes, so a row alone in that band fails too
    with pytest.raises(DataValidationError, match=f"^{OVERFLOW}$"):
        build_knn_graph(Dataset([[7e153], [1.0], [2.0]]), k=1)
