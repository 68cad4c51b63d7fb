import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import gram_singular_values
from tensorpls import (
    DegenerateDataError,
    HooiSettings,
    RankError,
    ShapeMismatchError,
    cross_cov_mode1,
    fro_norm,
    hooi,
    hosvd,
    leading_left_singular_vector,
    mode_n_product,
    truncated_svd,
    tucker_assemble,
)
from tensorpls.decomp import validate_ranks


def rand_orth(rng, n, k):
    q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return q[:, :k]


def assert_column_orthonormal(f, tol=1e-10):
    gram = f.T @ f
    assert np.abs(gram - np.eye(f.shape[1])).max() <= tol


class TestTruncatedSvd:
    def test_diagonal(self):
        u, s, v = truncated_svd(np.diag([3.0, 1.0]), 2)
        np.testing.assert_allclose(s, [3.0, 1.0])
        np.testing.assert_allclose(np.abs(u), np.eye(2), atol=1e-14)
        np.testing.assert_allclose(np.abs(v), np.eye(2), atol=1e-14)
        # sign rule: the dominant entry of each left vector is positive
        np.testing.assert_allclose(u, np.eye(2), atol=1e-14)

    def test_rank_one_outer(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(5)
        b = rng.standard_normal(4)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        m = np.outer(a, b)
        u, s, v = truncated_svd(m, 1)
        assert s[0] == pytest.approx(1.0, abs=1e-12)
        assert fro_norm(m - s[0] * np.outer(u[:, 0], v[:, 0])) <= 1e-12

    def test_gram_oracle(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((5, 3))
        u, s, v = truncated_svd(m, 3)
        recon = u @ np.diag(s) @ v.T
        assert fro_norm(m - recon) <= 1e-10 * fro_norm(m)
        oracle = gram_singular_values(m)
        np.testing.assert_allclose(s, oracle, rtol=0, atol=1e-8 * oracle[0])

    def test_gram_oracle_20x20(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((20, 20))
        _, s, _ = truncated_svd(m, 20)
        oracle = gram_singular_values(m)
        np.testing.assert_allclose(s, oracle, rtol=0, atol=1e-8 * oracle[0])

    def test_optimal_truncation_residual(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((6, 5))
        u, s, v = truncated_svd(m, 2)
        tail = gram_singular_values(m)[2:]
        optimal = float(np.sqrt((tail**2).sum()))
        actual = fro_norm(m - u @ np.diag(s) @ v.T)
        assert actual == pytest.approx(optimal, rel=1e-8)

    def test_sign_convention(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            m = rng.standard_normal((6, 4))
            u, _, _ = truncated_svd(m, 3)
            for j in range(u.shape[1]):
                assert u[np.argmax(np.abs(u[:, j])), j] > 0

    def test_deterministic_and_scale_free_directions(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((7, 4))
        u1, s1, v1 = truncated_svd(m, 2)
        u2, s2, v2 = truncated_svd(m.copy(), 2)
        assert (u1 == u2).all() and (s1 == s2).all() and (v1 == v2).all()

    def test_k_out_of_range(self):
        with pytest.raises(RankError):
            truncated_svd(np.eye(3), 0)
        with pytest.raises(RankError):
            truncated_svd(np.eye(3), 4)


class TestLeadingLeftSingularVector:
    def test_axis_aligned(self):
        v = np.array([2.0, 1.0, 0.0])
        m = np.outer(np.array([1.0, 0.0]), v)
        out = leading_left_singular_vector(m)
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-14)

    def test_two_by_two(self):
        out = leading_left_singular_vector(np.array([[2.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-14)

    def test_scale_invariant(self):
        # bitwise equality holds for power-of-two scales (exact arithmetic);
        # arbitrary scales agree to rounding error
        rng = np.random.default_rng(6)
        m = rng.standard_normal((5, 3))
        v = leading_left_singular_vector(m)
        assert (v == leading_left_singular_vector(4.0 * m)).all()
        np.testing.assert_allclose(
            v, leading_left_singular_vector(5.0 * m), atol=1e-12
        )

    def test_zero_matrix(self):
        with pytest.raises(DegenerateDataError):
            leading_left_singular_vector(np.zeros((3, 2)))


class TestValidateRanks:
    def test_ok(self):
        assert validate_ranks([1, 2], (3, 2)) == (1, 2)

    def test_too_large(self):
        with pytest.raises(RankError):
            validate_ranks([4], (3,))

    def test_wrong_length(self):
        with pytest.raises(RankError):
            validate_ranks([1], (3, 3))


class TestHosvd:
    def test_rank_one_tensor(self):
        rng = np.random.default_rng(7)
        vs = [rng.standard_normal(d) for d in (4, 3, 5)]
        vs = [v / np.linalg.norm(v) for v in vs]
        t = np.multiply.outer(np.multiply.outer(vs[0], vs[1]), vs[2])
        out = hosvd(t, (1, 1, 1))
        assert abs(abs(out.core.ravel()[0]) - 1.0) <= 1e-12
        assert fro_norm(t - tucker_assemble(out.core, out.factors)) <= 1e-12

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(8)
        t = rng.standard_normal((3, 4, 5))
        out = hosvd(t, (3, 4, 5))
        assert fro_norm(t - tucker_assemble(out.core, out.factors)) <= 1e-10 * fro_norm(t)
        for f in out.factors:
            assert_column_orthonormal(f)

    def test_truncation_between_hooi_and_random_projections(self):
        rng = np.random.default_rng(9)
        t = rng.standard_normal((4, 4, 4))
        ranks = (2, 2, 2)
        init, best = hosvd(t, ranks), hooi(t, ranks)
        err_hosvd = fro_norm(t - tucker_assemble(init.core, init.factors))
        err_hooi = fro_norm(t - tucker_assemble(best.core, best.factors))
        assert err_hosvd >= err_hooi - 1e-12
        for _ in range(100):
            factors = [rand_orth(rng, 4, 2) for _ in range(3)]
            core = t
            for mode, f in enumerate(factors):
                core = mode_n_product(core, f.T, mode)
            err_rand = fro_norm(t - tucker_assemble(core, factors))
            assert err_hosvd <= err_rand + 1e-12


class TestHooi:
    def test_exact_rank_recovery_fast(self):
        rng = np.random.default_rng(10)
        core = rng.standard_normal((2, 2, 2))
        factors = [rand_orth(rng, d, 2) for d in (6, 5, 4)]
        t = tucker_assemble(core, factors)
        out = hooi(t, (2, 2, 2))
        assert fro_norm(t - tucker_assemble(out.core, out.factors)) <= 1e-10 * fro_norm(t)
        assert out.converged
        # history holds the init value plus one entry per sweep
        assert len(out.objective_history) - 1 <= 5

    def test_full_rank_matches_hosvd(self):
        rng = np.random.default_rng(11)
        t = rng.standard_normal((3, 4, 3))
        out = hooi(t, (3, 4, 3))
        assert fro_norm(t - tucker_assemble(out.core, out.factors)) <= 1e-10 * fro_norm(t)

    def test_improves_on_hosvd_init(self):
        rng = np.random.default_rng(12)
        t = rng.standard_normal((5, 4, 3))
        ranks = (2, 2, 2)
        hosvd_core = fro_norm(hosvd(t, ranks).core) ** 2
        hooi_core = fro_norm(hooi(t, ranks).core) ** 2
        assert hooi_core >= hosvd_core - 1e-12

    def test_monotone_objective(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            shape = tuple(rng.integers(3, 6, size=3))
            ranks = tuple(int(rng.integers(1, d + 1)) for d in shape)
            t = rng.standard_normal(shape)
            hist = hooi(t, ranks).objective_history
            diffs = np.diff(hist)
            assert (diffs >= -1e-12).all()

    def test_orthonormal_factors(self):
        rng = np.random.default_rng(14)
        t = rng.standard_normal((5, 5, 5))
        out = hooi(t, (3, 2, 4))
        for f in out.factors:
            assert_column_orthonormal(f)

    def test_pythagoras_identity(self):
        # |t - recon|^2 + |core|^2 == |t|^2 for orthonormal factors
        rng = np.random.default_rng(15)
        t = rng.standard_normal((5, 4, 4))
        out = hooi(t, (2, 3, 2))
        lhs = fro_norm(t - tucker_assemble(out.core, out.factors)) ** 2 + fro_norm(out.core) ** 2
        assert lhs == pytest.approx(fro_norm(t) ** 2, rel=1e-8)

    def test_deterministic(self):
        rng = np.random.default_rng(16)
        t = rng.standard_normal((4, 4, 4))
        a = hooi(t, (2, 2, 2))
        b = hooi(t.copy(), (2, 2, 2))
        assert (a.core == b.core).all()
        for fa, fb in zip(a.factors, b.factors):
            assert (fa == fb).all()

    def test_rank_errors(self):
        with pytest.raises(RankError):
            hooi(np.zeros((3, 3, 3)) + 1.0, (4, 1, 1))

    def test_rank_exceeding_other_ranks_product(self):
        # requested (4,1,1) on a (5,4,3) tensor: the mode-0 projected
        # unfolding has a single column, so the factor is padded with an
        # orthonormal complement and stays the requested size
        rng = np.random.default_rng(17)
        t = rng.standard_normal((5, 4, 3))
        out = hooi(t, (4, 1, 1))
        assert out.core.shape == (4, 1, 1)
        assert out.factors[0].shape == (5, 4)
        for f in out.factors:
            assert_column_orthonormal(f)
        diffs = np.diff(out.objective_history)
        assert (diffs >= -1e-12).all()

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            HooiSettings(max_iters=0)
        with pytest.raises(ValueError):
            HooiSettings(rel_tol=0.0)


def well_posed(n, x_dims, y_dims, ranks):
    """Whether every HOOI factor of C = <e, f>_1 is unique (up to sign).

    The projected mode-n unfolding that a sweep decomposes has rank at most
    min(I_n, N * K_same, K_same * K_other), K being the product of the ranks
    of the other modes on the same side and on the other side. A rank above
    that leaves columns that any orthonormal completion fills, and later
    updates see them: the optimum is not unique, so two correct
    contraction orders may end at different points.
    """
    dims = tuple(x_dims) + tuple(y_dims)
    for m, r in enumerate(ranks):
        same = range(len(x_dims)) if m < len(x_dims) else range(len(x_dims), len(dims))
        k_same = math.prod(ranks[j] for j in same if j != m)
        k_other = math.prod(ranks[j] for j in range(len(dims)) if j not in same)
        if r > min(dims[m], n * k_same, k_same * k_other):
            return False
    return True


def pair_problem(seed, n, x_dims, y_dims, ranks, max_iters=30, rel_tol=1e-10):
    rng = np.random.default_rng(seed)
    e = rng.standard_normal((n, *x_dims))
    f = rng.standard_normal((n, *y_dims))
    return e, f, tuple(ranks), HooiSettings(max_iters, rel_tol)


@st.composite
def pair_problems(draw):
    """Residual pairs with sides of order 1-3, N in 1..8, dims in 1..5, any
    ranks (the full rank included) for which HOOI is well posed."""
    n = draw(st.integers(1, 8))
    x_dims = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    y_dims = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    dims = x_dims + y_dims
    if draw(st.booleans()):
        ranks = dims
    else:
        ranks = [draw(st.integers(1, d)) for d in dims]
    assume(well_posed(n, x_dims, y_dims, ranks))
    return pair_problem(
        draw(st.integers(0, 2**32 - 1)),
        n,
        x_dims,
        y_dims,
        ranks,
        draw(st.integers(1, 30)),
        10.0 ** -draw(st.integers(4, 10)),
    )


@settings(max_examples=30, deadline=None)
@given(problem=pair_problems())
# a matrix side, as in HOPLS2 (response mode first)
@example(problem=pair_problem(1, 6, (4,), (5, 5), (1, 2, 2)))
# a narrow unfolding (mode 0) next to wide ones
@example(problem=pair_problem(2, 2, (6, 2), (3,), (2, 2, 1)))
# rank-deficient C: N = 2 below every rank
@example(problem=pair_problem(3, 2, (5, 5), (5, 5), (3, 3, 3, 3)))
# the full-rank shortcut
@example(problem=pair_problem(4, 3, (2, 3), (2,), (2, 3, 2)))
# sides of order 3
@example(problem=pair_problem(5, 4, (3, 3, 2), (2, 3, 3), (2, 2, 1, 1, 2, 2)))
# tall data: N^2 above the size of C, which is then formed
@example(problem=pair_problem(6, 8, (2, 2), (3,), (2, 2, 2)))
def test_factored_pair_matches_dense_cross_covariance(problem):
    """HOSVD and HOOI of the pair (e, f) are those of C = <e, f>_1 formed."""
    e, f, ranks, hooi_settings = problem
    c = cross_cov_mode1(e, f)
    for dense, factored in (
        (hosvd(c, ranks), hosvd(e, ranks, b=f)),
        (hooi(c, ranks, hooi_settings), hooi(e, ranks, hooi_settings, b=f)),
    ):
        assert len(factored.objective_history) == len(dense.objective_history)
        assert factored.converged == dense.converged
        np.testing.assert_allclose(
            factored.objective_history, dense.objective_history, rtol=1e-12, atol=0
        )
        for u, v in zip(factored.factors, dense.factors):
            assert np.abs(u - v).max() <= 1e-10
        assert np.abs(factored.core - dense.core).max() <= 1e-10 * fro_norm(c)


def test_pair_needs_a_shared_sample_mode():
    with pytest.raises(ShapeMismatchError):
        hooi(np.ones((3, 2)), (1,), b=np.ones((4, 2)))
