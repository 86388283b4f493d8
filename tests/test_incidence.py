import numpy as np
import pytest

from sco import DimensionError, EdgeIncidence, ParameterError, project_rows, sum_norms, vec_norm
from sco.incidence import operator_norm_estimate

from helpers import graph_of
from oracles import (add_at_norm_estimate, dense_incidence, fancy_index_apply, kron_lift,
                     per_column_apply_t, same_bits, stack_columns, unstack_columns)


def single_edge(alpha_w=1.0):
    return EdgeIncidence(graph_of(2, ((0, 1, alpha_w),)), 1.0)


def random_instance(rng, n, d, extra_edges=3):
    edges = [(i, i + 1, float(rng.uniform(0.2, 2.0))) for i in range(n - 1)]
    for _ in range(extra_edges):
        i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
        if all((i, j) != (a, b) for a, b, _ in edges):
            edges.append((i, j, float(rng.uniform(0.2, 2.0))))
    graph = graph_of(n, tuple(sorted(edges)))
    return graph, rng.standard_normal((n, d))


def scatter_instance(rng, n, m):
    """m distinct edges in shuffled order among the first n-1 vertices, so
    vertex n-1 has none, with weights over four decades."""
    pairs = set()
    while len(pairs) < m:
        pairs.add(tuple(sorted(rng.choice(n - 1, size=2, replace=False).tolist())))
    edges = [(i, j, float(10.0 ** rng.uniform(-2, 2))) for i, j in sorted(pairs)]
    return graph_of(n, tuple(edges[k] for k in rng.permutation(m)))


def wide_block(rng, rows, d):
    """Entries over six decades, so the summation order shows in the bits."""
    return rng.standard_normal((rows, d)) * 10.0 ** rng.uniform(-3, 3, (rows, d))


def test_apply_single_edge():
    Q = EdgeIncidence(graph_of(2, ((0, 1, 3.0),)), 1.0)
    out = Q.apply(np.array([[1.0], [0.0]]))
    assert out.shape == (1, 1) and out[0, 0] == 3.0


def test_apply_constant_rows_vanish():
    graph = graph_of(4, ((0, 1, 1.0), (1, 2, 0.5), (2, 3, 2.0)))
    Q = EdgeIncidence(graph, 1.5)
    X = np.tile([2.0, -1.0], (4, 1))
    assert np.all(Q.apply(X) == 0.0)


def test_apply_t_single_edge():
    Q = single_edge()
    out = Q.apply_t(np.array([[1.0]]))
    np.testing.assert_array_equal(out, [[1.0], [-1.0]])
    assert np.all(Q.apply_t(np.zeros((1, 1))) == 0.0)


def test_kronecker_consistency_small_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        d = int(rng.integers(1, 4))
        graph, X = random_instance(rng, n, d)
        alpha = float(rng.uniform(0.1, 2.0))
        Q = EdgeIncidence(graph, alpha)
        lifted = kron_lift(dense_incidence(graph, alpha), d)
        np.testing.assert_allclose(stack_columns(Q.apply(X)), lifted @ stack_columns(X),
                                   atol=1e-12)
        lam = rng.standard_normal((graph.edge_count, d))
        np.testing.assert_allclose(stack_columns(Q.apply_t(lam)),
                                   lifted.T @ stack_columns(lam), atol=1e-12)


def test_adjoint_identity():
    rng = np.random.default_rng(4)
    graph, X = random_instance(rng, 5, 3)
    Q = EdgeIncidence(graph, 1.3)
    lam = rng.standard_normal((graph.edge_count, 3))
    lhs = float((Q.apply(X) * lam).sum())
    rhs = float((X * Q.apply_t(lam)).sum())
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_normal_operator_is_positive_semidefinite():
    rng = np.random.default_rng(5)
    for _ in range(10):
        graph, X = random_instance(rng, 6, 2)
        Q = EdgeIncidence(graph, 0.7)
        quad = float((Q.apply(X) ** 2).sum())
        direct = float((X * Q.apply_t(Q.apply(X))).sum())
        assert quad >= -1e-12
        assert abs(quad - direct) <= 1e-10 * max(1.0, quad)


def test_shape_mismatch_raises():
    Q = single_edge()
    # a vector or a scalar is read as one row, too few for the 2 vertices
    for bad in (np.zeros((3, 1)), [[0.0], [1.0], [2.0]], [1.0, 2.0], np.zeros(2), 1.0):
        with pytest.raises(DimensionError, match="expected 2 rows, got"):
            Q.apply(bad)
    for bad in (np.zeros((2, 1)), [[0.0], [1.0]], np.zeros((0, 3))):
        with pytest.raises(DimensionError, match="expected 1 rows, got"):
            Q.apply_t(bad)


def test_lists_vectors_and_scalars_read_as_row_blocks():
    Q = single_edge(2.0)
    X = [[1.0, 2.0], [0.5, -1.0]]
    assert same_bits(Q.apply(X), Q.apply(np.array(X)))
    assert same_bits(Q.apply([[1], [0]]), np.array([[2.0]]))
    # one edge: a length-d vector is its one dual row, a scalar a 1 x 1 block
    assert same_bits(Q.apply_t([0.5, -1.0]), np.array([[1.0, -2.0], [-1.0, 2.0]]))
    assert same_bits(Q.apply_t(0.5), np.array([[1.0], [-1.0]]))
    lone = EdgeIncidence(graph_of(1, ()), 1.0)
    assert lone.apply([3.0, 4.0]).shape == (0, 2)


def test_row_structure():
    graph = graph_of(3, ((0, 1, 0.5), (1, 2, 2.0)))
    Q = EdgeIncidence(graph, 2.0)
    dense = dense_incidence(graph, 2.0)
    # one positive and one negative entry of equal magnitude per row
    for row in dense:
        nonzero = row[row != 0]
        assert len(nonzero) == 2 and nonzero.sum() == 0.0
    assert np.allclose(dense.sum(axis=1), 0.0)
    np.testing.assert_array_equal(Q.coef, [1.0, 4.0])


def test_sum_norms_examples():
    assert sum_norms(np.array([[3.0, 4.0]]), 2) == 5.0
    assert sum_norms(np.array([[1.0, -2.0], [0.0, 3.0]]), 1) == 6.0
    assert sum_norms(np.array([[1.0, -2.0], [0.0, 3.0]]), np.inf) == 5.0
    assert sum_norms(np.zeros((0, 2)), 2) == 0.0
    # rows without entries have norm 0 in every geometry
    for p in (1, 2, np.inf):
        assert sum_norms(np.zeros((0, 0)), p) == sum_norms(np.zeros((2, 0)), p) == 0.0
    with pytest.raises(ParameterError):
        sum_norms(np.ones((1, 2)), 3)


def test_sum_norms_l2_bit_identical_to_row_sum_formula():
    # the (1, 2) norm takes its squared rows from one einsum on the C copy
    rng = np.random.default_rng(24)
    blocks = [rng.standard_normal((m, d)) * 10.0 ** rng.uniform(-3, 3, size=(m, 1))
              for d in (1, 2, 3, 7, 8, 10, 15, 16, 40) for m in (1, 9, 64 * d + 5)]
    blocks += [np.asfortranarray(M) for M in blocks] + [np.full((200, 3), -0.0)]
    for M in blocks:
        C = np.array(M, order="C")
        assert same_bits(sum_norms(M, 2), np.sqrt(np.einsum("ij,ij->i", C, C)).sum()), M.shape


def test_vec_norm_selectors():
    v = np.array([1.0, -2.0, 0.5])
    assert vec_norm(v, 1) == 3.5
    assert vec_norm(v, np.inf) == 2.0
    assert abs(vec_norm(v, 2) - np.linalg.norm(v)) < 1e-15


def test_stack_unstack_roundtrip():
    rng = np.random.default_rng(9)
    M = rng.standard_normal((4, 3))
    v = stack_columns(M)
    # column stacking: first block is the first column
    np.testing.assert_array_equal(v[:4], M[:, 0])
    np.testing.assert_array_equal(unstack_columns(v, 4, 3), M)


def test_operator_norm_single_edge():
    est = operator_norm_estimate(single_edge())
    assert np.sqrt(2.0) <= est <= 1.01 * np.sqrt(2.0) + 1e-12


def test_operator_norm_homogeneity():
    graph = graph_of(3, ((0, 1, 1.0), (1, 2, 1.0)))
    est1 = operator_norm_estimate(EdgeIncidence(graph, 1.0))
    est2 = operator_norm_estimate(EdgeIncidence(graph, 2.0))
    assert abs(est2 - 2.0 * est1) <= 0.01 * est2


def test_operator_norm_path_graph():
    # largest singular value of the unit path incidence on 3 vertices
    graph = graph_of(3, ((0, 1, 1.0), (1, 2, 1.0)))
    est = operator_norm_estimate(EdgeIncidence(graph, 1.0))
    assert abs(est - np.sqrt(3.0)) <= 0.015 * np.sqrt(3.0)


def test_operator_norm_requires_edges():
    with pytest.raises(ParameterError):
        operator_norm_estimate(EdgeIncidence(graph_of(2, ()), 1.0))


@pytest.mark.parametrize("d", [1, 3, 10])
def test_maps_bit_identical_to_per_column_reference(d):
    rng = np.random.default_rng(d)
    order_visible = False
    for _ in range(40):
        n = int(rng.integers(3, 14))
        pairs = (n - 1) * (n - 2) // 2
        graph = scatter_instance(rng, n, int(rng.integers(1, pairs + 1)))
        Q = EdgeIncidence(graph, float(rng.uniform(0.1, 3.0)))
        lam = wide_block(rng, Q.row_count, d)
        X = wide_block(rng, n, d)
        out = Q.apply_t(lam)
        assert same_bits(out, per_column_apply_t(Q, lam))
        assert same_bits(Q.apply(X), fancy_index_apply(Q, X))
        assert np.all(out[n - 1] == 0.0)  # the vertex with no edges
        # one scatter over heads and negated tails sums in another order;
        # the data must be able to tell the two apart
        scaled = (Q.coef[:, None] * lam).ravel()
        cols = np.arange(d)
        ends = np.concatenate([(Q.head[:, None] * d + cols).ravel(),
                               (Q.tail[:, None] * d + cols).ravel()])
        mixed = np.bincount(ends, weights=np.concatenate([scaled, -scaled]), minlength=n * d)
        order_visible |= not same_bits(mixed.reshape(n, d), out)
    assert order_visible


def test_flat_index_cache_with_alternating_feature_counts():
    rng = np.random.default_rng(11)
    Q = EdgeIncidence(scatter_instance(rng, 9, 14), 0.8)
    for d in (3, 1, 10, 3, 1, 10, 1):
        lam = wide_block(rng, Q.row_count, d)
        assert same_bits(Q.apply_t(lam), per_column_apply_t(Q, lam))
        X = wide_block(rng, 9, d)
        assert same_bits(Q.apply(X), fancy_index_apply(Q, X))
    assert sorted(Q._flat_cache) == [1, 3, 10]


def test_with_coef_shares_the_edges_but_not_the_coefficients():
    # a rescaled operator maps with its own coefficients, bit for bit, after
    # either operator has filled the shared scatter-index cache
    rng = np.random.default_rng(13)
    Q = EdgeIncidence(scatter_instance(rng, 9, 14), 0.8)
    lam = wide_block(rng, Q.row_count, 3)
    X = wide_block(rng, 9, 3)
    Q.apply_t(lam)
    R = Q.with_coef(rng.uniform(0.1, 5.0, Q.row_count))
    assert R.head is Q.head and R.tail is Q.tail
    assert R._flat_cache is Q._flat_cache
    for op in (R, Q):
        assert same_bits(op.apply_t(lam), per_column_apply_t(op, lam))
        assert same_bits(op.apply(X), fancy_index_apply(op, X))


@pytest.mark.parametrize("shape", [(4,), (6,), (5, 1), ()])
def test_with_coef_needs_one_coefficient_per_edge(shape):
    # a wrong length used to pass and fail at the next map, as a numpy
    # broadcast ValueError
    Q = EdgeIncidence(graph_of(6, tuple((i, i + 1, 1.0) for i in range(5))), 1.0)
    with pytest.raises(DimensionError, match="5 coefficients"):
        Q.with_coef(np.ones(shape))


def test_maps_bit_identical_on_fortran_ordered_and_sliced_inputs():
    # the forward map scales its gathered rows in place through a ravel; a
    # ravel that copied would lose the scaling on any of these layouts
    rng = np.random.default_rng(15)
    Q = EdgeIncidence(scatter_instance(rng, 12, 30), 1.7)
    X = wide_block(rng, 24, 14)
    lam = wide_block(rng, 2 * Q.row_count, 14)
    blocks = [(np.asfortranarray(X[:12, :5]), np.asfortranarray(lam[:Q.row_count, :5])),
              (X[::2, 1:6], lam[::2, 1:6]),
              (X[:12, ::3], lam[:Q.row_count, ::3]),
              (X[12:, :][::-1, ::-1][:, :4], lam[1::2, 10:])]
    for Xb, lamb in blocks:
        assert not Xb.flags.c_contiguous and not lamb.flags.c_contiguous
        assert same_bits(Q.apply(Xb), fancy_index_apply(Q, Xb))
        assert same_bits(Q.apply(Xb), Q.apply(np.ascontiguousarray(Xb)))
        assert same_bits(Q.apply_t(lamb), per_column_apply_t(Q, lamb))
        assert same_bits(Q.apply_t(lamb), Q.apply_t(np.ascontiguousarray(lamb)))


def test_maps_return_fresh_arrays_and_leave_their_input():
    rng = np.random.default_rng(16)
    Q = EdgeIncidence(scatter_instance(rng, 10, 20), 0.9)
    X, lam = wide_block(rng, 10, 4), wide_block(rng, Q.row_count, 4)
    X_before, lam_before = X.copy(), lam.copy()
    for apply, block, before in ((Q.apply, X, X_before), (Q.apply_t, lam, lam_before)):
        first = apply(block)
        first_bits = first.copy()
        second = apply(block)
        assert same_bits(block, before)
        assert same_bits(first, first_bits) and same_bits(second, first_bits)
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, block) and not np.shares_memory(second, block)


def test_maps_without_edges():
    # only apply_t keeps a branch for m = 0 (bincount of no weights gives
    # int64 zeros); elsewhere the general code gives the empty block of dual
    # rows, its projection and a zero sum of row norms
    Q = EdgeIncidence(graph_of(4, ()), 1.0)
    for d in (1, 3):
        lam = np.zeros((0, d))
        image = Q.apply_t(lam)
        assert image.dtype == np.float64 and same_bits(image, np.zeros((4, d)))
        assert same_bits(image, per_column_apply_t(Q, lam))
        rows = Q.apply(np.ones((4, d)))
        assert rows.shape == (0, d) and rows.dtype == np.float64
        for q in (1, 2, np.inf):
            projected = project_rows(rows, q)
            assert projected.shape == (0, d) and projected.dtype == np.float64
            assert not np.shares_memory(projected, rows)
            total = sum_norms(rows, q)
            assert type(total) is float and total == 0.0


def test_operator_norm_bit_identical_to_add_at_reference():
    rng = np.random.default_rng(12)
    for _ in range(30):
        n = int(rng.integers(3, 14))
        pairs = (n - 1) * (n - 2) // 2
        Q = EdgeIncidence(scatter_instance(rng, n, int(rng.integers(1, min(n + 4, pairs) + 1))),
                          float(rng.uniform(0.1, 3.0)))
        seed = int(rng.integers(1 << 30))
        iterations = int(rng.integers(1, 60))
        assert operator_norm_estimate(Q, iterations=iterations,
                                      rng=np.random.default_rng(seed)) == \
            add_at_norm_estimate(Q, iterations=iterations, rng=np.random.default_rng(seed))
        assert operator_norm_estimate(Q) == add_at_norm_estimate(Q)
