import numpy as np
import pytest

from sco import ParameterError, project_l1_ball, project_rows, prox_norm

from oracles import (clip_project_rows, duchi_l1_ball_projection, l1_ball_sort_reference,
                     l1_sort_shrink, per_row_l1_projection, project_ball, prox_argmin_oracle,
                     same_bits, where_project_rows_l2)


def sample_feasible(rng, d, q):
    """A point strictly inside the unit q-ball."""
    if q == np.inf:
        return rng.uniform(-1.0, 1.0, size=d)
    if q == 2:
        direction = rng.standard_normal(d)
        direction /= max(np.linalg.norm(direction), 1e-12)
        return direction * rng.uniform(0.0, 1.0) ** (1.0 / d)
    weights = rng.dirichlet(np.ones(d))
    signs = rng.choice([-1.0, 1.0], size=d)
    return signs * weights * rng.uniform(0.0, 1.0)


def test_projection_examples():
    np.testing.assert_allclose(project_ball(np.array([2.0, -0.5]), np.inf), [1.0, -0.5])
    np.testing.assert_allclose(project_ball(np.array([3.0, 4.0]), 2), [0.6, 0.8])
    np.testing.assert_allclose(project_ball(np.array([1.0, 1.0]), 1), [0.5, 0.5])


def test_projection_feasible_and_idempotent():
    rng = np.random.default_rng(0)
    for q in (1, 2, np.inf):
        for _ in range(200):
            v = rng.standard_normal(int(rng.integers(1, 7))) * 3.0
            proj = project_ball(v, q)
            qq = np.inf if q == np.inf else q
            assert np.linalg.norm(proj, ord=qq) <= 1.0 + 1e-12
            np.testing.assert_allclose(project_ball(proj, q), proj, atol=1e-12)


def test_projection_optimality_against_sampled_points():
    rng = np.random.default_rng(1)
    for q in (1, 2, np.inf):
        v = rng.standard_normal(5) * 2.0
        proj = project_ball(v, q)
        best = np.linalg.norm(proj - v)
        for _ in range(1000):
            z = sample_feasible(rng, 5, q)
            assert best <= np.linalg.norm(z - v) + 1e-12


def test_projection_rejects_bad_selector():
    with pytest.raises(ParameterError):
        project_ball(np.ones(2), 3)


def test_project_rows_matches_per_row():
    rng = np.random.default_rng(2)
    lam = rng.standard_normal((6, 3)) * 2.0
    for q in (1, 2, np.inf):
        rows = project_rows(lam, q)
        for k in range(lam.shape[0]):
            np.testing.assert_allclose(rows[k], project_ball(lam[k], q), atol=1e-12)


def test_project_rows_reads_lists_vectors_and_scalars_as_rows():
    assert same_bits(project_rows([0.0, -2.0], 2), np.array([[0.0, -1.0]]))
    assert same_bits(project_rows(-5, np.inf), np.array([[-1.0]]))
    assert same_bits(project_rows([3.0, -1.0], 1), np.array([[1.0, -0.0]]))
    lam = [[2.0, -1.0], [0.25, 0.25], [0.0, 3.0]]
    for q in (1, 2, np.inf):
        assert same_bits(project_rows(lam, q), project_rows(np.array(lam), q)), q


def l1_cases():
    """Matrices for the batched l1 projection, named by what they cover."""
    rng = np.random.default_rng(5)
    for t in range(300):
        m, d = int(rng.integers(1, 30)), int(rng.integers(1, 8))
        lam = rng.standard_normal((m, d)) * rng.uniform(0.2, 3.0)
        # rounding to one decimal forces ties inside rows
        yield f"random-{t}", np.round(lam, 1) if t % 2 else lam
    on_budget = np.array([[0.5, -0.25, 0.125, 0.125], [1.0, 0.0, 0.0, 0.0],
                          [-0.25, 0.25, -0.25, 0.25]])
    yield "on-budget", np.vstack([on_budget, 2.0 * on_budget])
    yield "zero-rows", np.vstack([np.zeros((2, 3)), rng.standard_normal((3, 3)) * 2.0,
                                  np.zeros((1, 3))])
    yield "ties", np.array([[1.0, 1.0, 1.0], [-2.0, 2.0, 0.5], [0.7, -0.7, 0.7]])
    # rounding makes the sorted test u > (css - 1)/k false at a tie and true
    # again after it, so a count of true indices would pick a wrong threshold
    yield "broken-mask", np.array([[-0.2, 3.3, -3.3, -4.3, 0.6, 0.0, 0.0],
                                   [-4.8, -3.8, -2.2, -1.8, 3.8, 3.2, 1.8],
                                   [0.5, 0.25, 0.0, 0.0, 0.0, 0.0, 0.0]])
    # magnitudes so large that subtracting the radius rounds away: the sorted
    # test fails even at the first index, where it holds in exact arithmetic
    yield "huge", np.array([[1e20, 1.0, -1.0], [-3e17, 2.0, 0.5], [0.5, 0.25, 0.0],
                            [1e17, 3.0, -2.0], [2.0 ** 53, 1.0, 0.0]])
    yield "d1", rng.standard_normal((20, 1)) * 2.0
    yield "none-over", rng.uniform(-0.2, 0.2, size=(8, 4))
    yield "empty-rows", np.zeros((0, 3))
    yield "empty-cols", np.zeros((4, 0))
    # 8 or more columns: einsum sums C-contiguous rows in interleaved lanes
    for d in (8, 9, 16, 17):
        lam = rng.standard_normal((25, d)) * rng.uniform(0.05, 0.6, size=(25, 1))
        yield f"wide-{d}", lam
        yield f"wide-{d}-special", with_special_entries(rng, lam)
    for d in (2, 3, 5, 7):
        yield f"special-{d}", with_special_entries(rng, rng.standard_normal((40, d)))


def with_special_entries(rng, lam):
    """A copy of lam with about a fifth of its entries replaced by NaN, +-inf,
    -0.0 or subnormals, and its first row all -0.0."""
    lam = lam.copy()
    picks = rng.random(lam.shape) < 0.2
    lam[picks] = rng.choice([np.nan, np.inf, -np.inf, -0.0, 5e-324, -5e-324, 2.2e-310],
                            size=int(picks.sum()))
    lam[0] = -0.0
    return lam


def test_project_rows_l1_bit_identical_to_per_row():
    for name, lam in l1_cases():
        with np.errstate(invalid="ignore"):  # inf - inf in the rows holding infinities
            batched, expected = project_rows(lam, 1), per_row_l1_projection(lam)
        assert same_bits(batched, expected), name
        # every finite row lands in the ball, the "huge" ones included; a
        # NaN row is copied, and a row holding an infinity has no projection
        finite = np.isfinite(lam).all(axis=1)
        if finite.any():
            assert np.abs(batched[finite]).sum(axis=1).max() <= 1.0 + 1e-12, name


@pytest.mark.parametrize("d", [3, 5, 10])
def test_project_rows_l1_projects_exactly_the_rows_the_blas_product_puts_over(d):
    # rows scaled to an einsum l1 norm of 1: the BLAS product |lam| @ 1 adds
    # in another order, so it puts some of them over 1 and some under, each
    # way round from einsum; the projected rows are exactly those the
    # product puts over, and every other row, NaN, +-inf and -0.0 ones
    # included, is copied bit for bit
    rng = np.random.default_rng(26)
    lam = rng.standard_normal((400, d))
    lam /= np.einsum("ij->i", np.abs(lam))[:, None]
    lam = np.vstack([lam, with_special_entries(rng, rng.standard_normal((40, d))),
                     np.full((1, d), np.nan), np.full((1, d), -np.inf), np.full((1, d), -0.0)])
    over = np.abs(lam) @ np.ones(d) > 1.0
    by_einsum = np.einsum("ij->i", np.abs(lam)) > 1.0
    assert (over & ~by_einsum).any() and (by_einsum & ~over).any()
    with np.errstate(invalid="ignore"):  # inf - inf in the rows holding infinities
        out = project_rows(lam, 1)
        shrunk = np.array([l1_sort_shrink(row, 1.0) for row in lam[over]])
    assert same_bits(out[~over], lam[~over])
    assert same_bits(out[over], shrunk)


def test_l1_rows_over_the_ball_only_by_rounding_do_not_grow():
    # rows scaled to an einsum l1 norm of 1: the BLAS row test puts some of
    # them over 1, where the sorted running sum can end at or under 1 and no
    # shrink candidate is positive; no magnitude may grow, and such a row
    # comes out as it went in
    rng = np.random.default_rng(47)
    lam = rng.standard_normal((20000, 10))
    lam /= np.einsum("ij->i", np.abs(lam))[:, None]
    out = project_rows(lam, 1)
    assert (np.abs(out) <= np.abs(lam)).all()
    over = np.abs(lam) @ np.ones(10) > 1.0
    css = np.cumsum(-np.sort(-np.abs(lam[over]), axis=1), axis=1)
    unshrunk = ((css - 1.0) / np.arange(1.0, 11.0)).max(axis=1) <= 0.0
    assert unshrunk.any()
    assert same_bits(out[over][unshrunk], lam[over][unshrunk])


def test_project_rows_box_bit_identical_to_clip():
    rng = np.random.default_rng(21)
    special = np.array([[0.0, -0.0, np.nan, -np.nan],
                        [1.0, -1.0, np.inf, -np.inf],
                        [np.nextafter(1.0, 2.0), -np.nextafter(1.0, 2.0), 5e-324, -5e-324]])
    cases = [special, special.T, np.zeros((0, 3)), np.full((2, 2), -0.0)]
    for _ in range(200):
        m, d = int(rng.integers(1, 30)), int(rng.integers(1, 8))
        block = rng.standard_normal((m, d)) * 10.0 ** rng.uniform(-2, 1, (m, d))
        picks = rng.random((m, d))
        block[picks < 0.1] = 0.0
        block[(picks >= 0.1) & (picks < 0.2)] = -0.0
        block[(picks >= 0.2) & (picks < 0.25)] = np.nan
        cases.append(block)
    for lam in cases:
        assert same_bits(project_rows(lam, np.inf), clip_project_rows(lam, np.inf))
        assert same_bits(project_rows(lam.T, np.inf), clip_project_rows(lam.T, np.inf))


def test_project_rows_l2_bit_identical_to_where_form():
    rng = np.random.default_rng(22)
    one_up = np.nextafter(1.0, 2.0)
    special = np.array([[0.0, -0.0, 0.0], [np.nan, 0.5, -0.5], [np.inf, 1.0, 0.0],
                        [-np.inf, np.nan, 0.0], [1.0, 0.0, -0.0], [one_up, 0.0, 0.0],
                        [0.6, -0.8, 0.0], [5e-324, -5e-324, 0.0], [1e200, -1e200, 1.0],
                        [1e-200, 3e-200, 0.0], [-0.0, -0.0, -0.0]])
    cases = [special, special.T, np.zeros((0, 3)), np.zeros((3, 0))]
    for _ in range(200):
        m, d = int(rng.integers(1, 30)), int(rng.integers(1, 12))
        block = rng.standard_normal((m, d)) * 10.0 ** rng.uniform(-2, 1, (m, 1))
        picks = rng.random((m, d))
        block[picks < 0.1] = -0.0
        block[(picks >= 0.1) & (picks < 0.12)] = np.nan
        cases.append(block)
    for lam in cases:
        before = lam.copy()
        with np.errstate(over="ignore", invalid="ignore"):  # the 1e200 and inf rows
            out, expected = project_rows(lam, 2), where_project_rows_l2(lam)
        assert same_bits(out, expected)
        assert same_bits(lam, before) and not np.shares_memory(out, lam)


def test_l1_ball_matches_reference_at_any_radius():
    rng = np.random.default_rng(6)
    vectors = [row for _, lam in l1_cases() for row in lam if row.size]
    vectors += [rng.standard_normal(int(rng.integers(1, 9))) * 3.0 for _ in range(100)]
    for t, v in enumerate(vectors):
        for radius in (0.3, 1.0, 2.5, 7.0):
            with np.errstate(invalid="ignore"):  # inf - inf in the rows holding infinities
                got, expected = project_l1_ball(v, radius), l1_ball_sort_reference(v, radius)
            assert same_bits(got, expected), (t, radius)
            if np.isfinite(v).all():
                assert np.abs(got).sum() <= radius * (1.0 + 1e-12), (t, radius)


def row_sum_blocks(rng, d, rows=(0, 1, 7, 300)):
    """m-by-d blocks for each m in rows, with NaN, +-inf, -0.0 and all -0.0
    rows: in C order, in F order, as every other row of a C block and as a
    C-contiguous view that starts one element into its buffer."""
    tall = rng.standard_normal((2 * max(rows), d)) * 10.0 ** rng.uniform(-3, 3, size=(1, d))
    picks = rng.random(tall.shape)
    tall[picks < 0.05] = np.nan
    tall[(picks >= 0.05) & (picks < 0.08)] = np.inf
    tall[(picks >= 0.08) & (picks < 0.11)] = -np.inf
    tall[(picks >= 0.11) & (picks < 0.3)] = -0.0
    tall[::5] = -0.0
    for m in rows:
        block = tall[:m].copy()
        yield m, "C", block
        yield m, "F", np.asfortranarray(block)
        yield m, "row-sliced", tall[:2 * m:2]
        yield m, "offset", tall.ravel()[1:1 + m * d].reshape(m, d)


@pytest.mark.parametrize("d", [1, 3, 8, 10, 16])
def test_project_rows_gives_the_c_copys_bits_in_any_layout(d):
    # einsum's order of additions follows the memory layout, so the rows
    # are read in C order; a wide F-ordered block used to differ
    rng = np.random.default_rng(23)
    with np.errstate(invalid="ignore"):  # inf - inf in the rows holding infinities
        for m, layout, M in row_sum_blocks(rng, d):
            copy = np.array(M, order="C")
            for q in (1, 2, np.inf):
                assert same_bits(project_rows(M, q), project_rows(copy, q)), (m, layout, q)


def test_l1_kernel_within_rounding_of_the_last_true_index_rule():
    # Duchi's last-true-index form shares no reduction with the kernel, so
    # the two agree to a few rounding steps: the largest difference over
    # these rows, scaled by the row's largest finite magnitude (at least 1),
    # measured 1.4e-16, 6x under the tolerance of 4 float64 epsilons (8.9e-16);
    # NaN must come out at the same entries
    tol = 4 * np.finfo(float).eps
    rng = np.random.default_rng(25)
    rows = [row for _, lam in l1_cases() for row in lam if row.size]
    for _ in range(1000):
        # one decimal and few distinct magnitudes: ties inside most rows
        d = int(rng.integers(1, 12))
        rows.append(np.round(rng.choice([-1.0, 1.0], d) * rng.integers(0, 4, d)
                             * rng.uniform(0.1, 1.5), 1))
    for t, v in enumerate(rows):
        with np.errstate(invalid="ignore"):  # inf - inf in the rows holding infinities
            got, expected = project_l1_ball(v, 1.0), duchi_l1_ball_projection(v, 1.0)
        nan = np.isnan(got)
        assert np.array_equal(nan, np.isnan(expected)), (t, v)
        finite = np.abs(v[np.isfinite(v)])
        scale = max(1.0, float(finite.max()) if finite.size else 1.0)
        assert np.abs(got[~nan] - expected[~nan]).max(initial=0.0) <= tol * scale, (t, v)


def test_l1_ball_radius_scaling():
    v = np.array([3.0, -1.0])
    proj = project_l1_ball(v, 2.0)
    assert abs(np.abs(proj).sum() - 2.0) <= 1e-12


def test_prox_examples():
    # unit threshold soft-thresholding matches the max(0, 1 - 1/|w|) form
    np.testing.assert_allclose(prox_norm(np.array([2.0]), 1.0, 1), [1.0])
    for s in (1, 2, np.inf):
        assert np.all(prox_norm(np.zeros(3), 0.7, s) == 0.0)
    np.testing.assert_allclose(prox_norm(np.array([3.0, 4.0]), 0.5, 2), [2.7, 3.6])
    # omega / t near 1e17, where subtracting the unit radius rounds away: the
    # exact prox moves omega by at most t
    omega = np.array([[3.0, 1.0], [-2.0, 0.5]])
    np.testing.assert_allclose(prox_norm(omega, 1e-17, np.inf), omega, rtol=0, atol=1e-15)


def test_prox_invalid_arguments():
    with pytest.raises(ParameterError):
        prox_norm(np.ones(2), 0.0, 1)
    with pytest.raises(ParameterError):
        prox_norm(np.ones(2), -1.0, 2)
    with pytest.raises(ParameterError):
        prox_norm(np.ones(2), 1.0, 0)


def test_prox_matches_numeric_argmin():
    rng = np.random.default_rng(3)
    for s in (1, 2, np.inf):
        for _ in range(60):
            d = int(rng.integers(1, 6))
            omega = rng.standard_normal(d) * 2.5
            t = float(rng.uniform(0.05, 2.0))
            np.testing.assert_allclose(prox_norm(omega, t, s),
                                       prox_argmin_oracle(omega, t, s), atol=1e-6)


def test_moreau_identity_for_max_norm():
    rng = np.random.default_rng(4)
    for _ in range(100):
        omega = rng.standard_normal(5) * 3.0
        t = float(rng.uniform(0.1, 2.0))
        reconstructed = prox_norm(omega, t, np.inf) + t * project_l1_ball(omega / t, 1.0)
        np.testing.assert_allclose(reconstructed, omega, atol=1e-10)


@pytest.mark.parametrize("s", [1, 2, np.inf])
def test_prox_norm_of_a_matrix_is_the_prox_of_its_entries(s):
    # the norm runs over all entries, and the result keeps the input's shape
    rng = np.random.default_rng(21)
    for shape in ((4, 3), (1, 5), (6, 1)):
        omega = rng.standard_normal(shape) * 2.0
        for t in (0.3, 1.5, 1e3):
            expected = prox_norm(omega.ravel(), t, s).reshape(shape)
            assert same_bits(prox_norm(omega, t, s), expected), (shape, t)
