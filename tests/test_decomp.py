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
    tucker_contract,
)
from tensorpls.decomp import _hooi, _left_singular_factor, validate_ranks


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

    @pytest.mark.parametrize(
        "kwargs", [{"rel_tol": float("nan")}, {"rel_tol": -1e-8}, {"max_iters": 2.5}]
    )
    def test_settings_no_sweep_could_honour_are_rejected(self, kwargs):
        # a NaN tolerance used to run every call to the cap unconverged, and a
        # fractional count failed with a TypeError inside hooi
        with pytest.raises(ValueError):
            HooiSettings(**kwargs)

    def test_settings_keep_counts_as_python_ints(self):
        settings = HooiSettings(max_iters=np.int64(3))
        assert type(settings.max_iters) is int and settings.max_iters == 3


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
# a tall sweep unfolding (mode 0, 6 x 2: its SVD) next to wide ones; the
# HOSVD's mode-0 unfolding is square (6 x 6), on the Gram route
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
    """HOSVD and HOOI of the pair (e, f) are those of C = <e, f>_1 formed,
    and each obeys the sign rule with the core that its factors give."""
    e, f, ranks, hooi_settings = problem
    c = cross_cov_mode1(e, f)
    for dense, factored in (
        (hosvd(c, ranks), hosvd(e, ranks, b=f)),
        (hooi(c, ranks, hooi_settings), hooi(e, ranks, hooi_settings, b=f)),
    ):
        for tuck in (dense, factored):
            assert_signed_decomposition(c, tuck.core, tuck.factors)
        assert len(factored.objective_history) == len(dense.objective_history)
        assert factored.converged == dense.converged
        np.testing.assert_allclose(
            factored.objective_history, dense.objective_history, rtol=1e-12, atol=0
        )
        for u, v in zip(factored.factors, dense.factors):
            assert np.abs(u - v).max() <= 1e-10
        assert np.abs(factored.core - dense.core).max() <= 1e-10 * fro_norm(c)


def assert_signed_decomposition(c, core, factors):
    """Every factor column has its largest-magnitude entry positive, and the
    core is C projected on the factors (the signs fixed on exit reach both)."""
    for u in factors:
        lead = u[np.abs(u).argmax(axis=0), np.arange(u.shape[1])]
        assert (lead > 0).all()
    assert np.abs(core - tucker_contract(c, factors)).max() <= 1e-12 * max(fro_norm(c), 1.0)


def test_pair_needs_a_shared_sample_mode():
    with pytest.raises(ShapeMismatchError):
        hooi(np.ones((3, 2)), (1,), b=np.ones((4, 2)))


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def pair_stack(seed, count, a_dims, b_dims, ranks, max_iters, rel_tol, exact_first=False):
    """``count`` random pairs with N samples stacked along a leading axis
    (``b_dims`` None: plain tensors of shape ``a_dims``, each the one-sample
    pair (t[None], ones(1))). With ``exact_first`` the first pair's C has
    multilinear rank ``ranks``, so its HOSVD is already the optimum and it
    converges on the first sweep while the others sweep on."""
    rng = np.random.default_rng(seed)
    if b_dims is None:
        a = rng.standard_normal((count, 1) + tuple(a_dims))
        b = np.ones((count, 1))
    else:
        a = rng.standard_normal((count,) + tuple(a_dims))
        b = rng.standard_normal((count,) + tuple(b_dims))
    if exact_first:
        sides = ((a, 0),) if b_dims is None else ((a, 0), (b, a.ndim - 2))
        for side, first in sides:
            dims = side.shape[2:]
            core = rng.standard_normal(side.shape[1:2] + tuple(ranks[first:first + len(dims)]))
            mats = [np.eye(side.shape[1])] + [
                rng.standard_normal((d, r)) for d, r in zip(dims, ranks[first:])
            ]
            side[0] = tucker_assemble(core, mats)
    return a, b, tuple(ranks), HooiSettings(max_iters, rel_tol)


@st.composite
def pair_stacks(draw):
    """Stacks of 2-4 pairs (or plain tensors) with N in 1..9, sides of order
    1-3 and 1-2, dims in 1..5, any ranks, 1-6 sweeps and a loose to tight
    tolerance."""
    count = draw(st.integers(2, 4))
    n = draw(st.integers(1, 9))
    a_dims = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    b_dims = draw(st.none() | st.lists(st.integers(1, 4), min_size=1, max_size=2))
    dims = a_dims + (b_dims or [])
    ranks = [draw(st.integers(1, d)) for d in dims]
    return pair_stack(
        draw(st.integers(0, 2**32 - 1)),
        count,
        ([n] + a_dims) if b_dims is not None else a_dims,
        ([n] + b_dims) if b_dims is not None else None,
        ranks,
        draw(st.integers(1, 6)),
        draw(st.sampled_from([1e-2, 1e-6, 1e-12])),
        draw(st.booleans()),
    )


@settings(max_examples=100, deadline=None)
@given(problem=pair_stacks())
# sample-space Grams: N^2 below the size of C, and every HOSVD and sweep
# unfolding at least as wide as tall, so each factor is a Gram's eigenvectors
@example(problem=pair_stack(1, 3, (3, 2, 5, 5), (3, 4), (2, 3, 3, 2), 6, 1e-12))
# C formed: tall data, N^2 above the size of C
@example(problem=pair_stack(2, 3, (30, 2, 2), (30, 2), (1, 2, 1), 6, 1e-12))
# a tall unfolding (mode 0, fewer than I^2 entries): its SVD
@example(problem=pair_stack(3, 2, (2, 6), (2, 2), (3, 2), 6, 1e-12))
# ranks above a sweep unfolding's columns: the padded orthonormal complement
@example(problem=pair_stack(4, 3, (4, 3, 2), (4, 2), (3, 1, 1), 6, 1e-12))
# plain tensors
@example(problem=pair_stack(5, 3, (5, 4, 3), None, (2, 2, 2), 6, 1e-12))
# the first item converges on the first sweep, the others stop at the cap
@example(problem=pair_stack(6, 4, (6, 4, 5), (6, 3), (2, 2, 2), 4, 1e-12, exact_first=True))
# the full-rank shortcut: no sweep
@example(problem=pair_stack(7, 3, (3, 2, 3), (3, 2), (2, 3, 2), 4, 1e-12))
def test_lockstep_hooi_has_the_bits_of_each_single_call(problem):
    """The lockstep HOOI of a stack of pairs gives every item the core,
    factors, objective history and converged flag of its own hooi call,
    bit for bit, and every item leaves under the sign rule, whichever sweep
    it stopped at."""
    a, b, ranks, hooi_settings = problem
    core, factors, history, converged = _hooi(a, b, ranks, hooi_settings)
    for i in range(len(a)):
        if b.ndim == 2:
            c = a[i, 0]
            one = hooi(c, ranks, hooi_settings)
        else:
            c = cross_cov_mode1(a[i], b[i])
            one = hooi(a[i], ranks, hooi_settings, b=b[i])
        assert_signed_decomposition(c, core[i], [f[i] for f in factors])
        assert same_bits(core[i], one.core)
        assert len(factors) == len(one.factors)
        assert all(same_bits(f[i], g) for f, g in zip(factors, one.factors))
        assert same_bits(history[i], one.objective_history)
        assert converged[i] == one.converged


def principal_sine(u, v):
    """Sine of the largest principal angle between two column-orthonormal
    bases of the same dimension."""
    return np.linalg.norm(v - u @ (u.T @ v), 2)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(1, 10),
    widen=st.floats(1.0, 3.99),
    seed=st.integers(0, 2**32 - 1),
    tie=st.integers(0, 12),
)
# a 10 x 27 sweep unfolding at lambda = 3, and a square one
@example(rows=10, widen=2.7, seed=0, tie=0)
@example(rows=5, widen=1.0, seed=1, tie=6)
def test_gram_route_factor_is_the_svd_subspace_to_the_gap_bound(rows, widen, seed, tie):
    """On unfoldings with rows <= cols < 4 rows (taken through their Gram's
    eigendecomposition), the leading-k factor spans the SVD's subspace: the
    sine of the largest principal angle between the two stays within
    8 (rows + cols) eps ||M||_F^2 / (sigma_k^2 - sigma_{k+1}^2), the
    first-order perturbation bound of the Gram's rounding (Golub & Van Loan,
    8.6). The singular values may nearly tie at k, 10^-tie apart."""
    cols = max(rows, min(int(rows * widen), 4 * rows - 1))
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, rows + 1))
    sigma = np.sort(rng.uniform(0.1, 10.0, rows))[::-1]
    if k < rows and tie:
        sigma[k] = sigma[k - 1] * (1 - 10.0**-tie)
        sigma = np.sort(sigma)[::-1]
    m = rand_orth(rng, rows, rows) @ np.diag(sigma) @ rand_orth(rng, cols, rows).T
    u_gram, s_gram = _left_singular_factor(m, k)
    u_svd, s_svd, _ = np.linalg.svd(m)
    assert_column_orthonormal(u_gram)
    below = s_svd[k] if k < rows else 0.0
    gap = s_svd[k - 1] ** 2 - below**2
    assume(gap > 0)
    rounding = 8 * (rows + cols) * np.finfo(float).eps * fro_norm(m) ** 2
    assert principal_sine(u_gram, u_svd[:, :k]) <= rounding / gap
    np.testing.assert_allclose(s_gram**2, s_svd[:k] ** 2, rtol=0, atol=rounding)
