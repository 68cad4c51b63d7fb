import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    cross_cov_loops,
    kron_loops,
    matricize_loops,
    mode_n_product_loops,
    tucker_reconstruct_loops,
)
from tensorpls import (
    ShapeMismatchError,
    astensor,
    cross_cov_mode1,
    fold,
    fro_norm,
    kron_all,
    matricize,
    mode_n_product,
    tucker_assemble,
)

# The worked 2x2x2 example: entry (i, j, k) = 1 + i + 2j + 4k (0-based).
CUBE = np.array([[[1.0, 5.0], [3.0, 7.0]], [[2.0, 6.0], [4.0, 8.0]]])


def rand_orth(rng, n, k):
    q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return q[:, :k]


shapes = st.lists(st.integers(1, 5), min_size=1, max_size=4)


class TestAstensor:
    def test_rejects_nan(self):
        with pytest.raises(ShapeMismatchError):
            astensor([1.0, np.nan])

    def test_rejects_inf(self):
        with pytest.raises(ShapeMismatchError):
            astensor([np.inf, 0.0])

    def test_reshape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            astensor([1.0, 2.0, 3.0], shape=(2, 2))

    def test_scalar_becomes_order_one(self):
        assert astensor(3.0).shape == (1,)


class TestMatricize:
    def test_order_one_is_column(self):
        v = astensor([1.0, 2.0, 3.0])
        m = matricize(v, 0)
        assert m.shape == (3, 1)
        np.testing.assert_array_equal(m.ravel(), [1.0, 2.0, 3.0])

    def test_cube_mode0(self):
        np.testing.assert_array_equal(
            matricize(CUBE, 0), [[1, 3, 5, 7], [2, 4, 6, 8]]
        )

    def test_cube_mode2(self):
        np.testing.assert_array_equal(
            matricize(CUBE, 2), [[1, 2, 3, 4], [5, 6, 7, 8]]
        )

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            order = rng.integers(1, 5)
            shape = tuple(rng.integers(1, 6, size=order))
            t = rng.standard_normal(shape)
            mode = int(rng.integers(0, order))
            np.testing.assert_array_equal(
                matricize(t, mode), matricize_loops(t, mode)
            )

    def test_mode_out_of_range(self):
        with pytest.raises(ShapeMismatchError):
            matricize(CUBE, 3)


class TestFold:
    def test_scalar(self):
        t = fold(np.array([[2.0]]), 0, (1,))
        np.testing.assert_array_equal(t, [2.0])

    def test_inverse_of_cube_example(self):
        m = np.array([[1.0, 3, 5, 7], [2, 4, 6, 8]])
        np.testing.assert_array_equal(fold(m, 0, (2, 2, 2)), CUBE)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            fold(np.zeros((2, 5)), 0, (2, 2, 2))

    @settings(max_examples=60, deadline=None)
    @given(shapes, st.integers(0, 10), st.integers())
    def test_round_trip_bit_exact(self, shape, mode_raw, seed):
        mode = mode_raw % len(shape)
        rng = np.random.default_rng(seed % 2**32)
        t = rng.standard_normal(tuple(shape))
        back = fold(matricize(t, mode), mode, t.shape)
        assert (back == t).all()


class TestModeNProduct:
    def test_identity(self):
        rng = np.random.default_rng(0)
        t = rng.standard_normal((3, 4, 2))
        for mode in range(3):
            np.testing.assert_array_equal(
                mode_n_product(t, np.eye(t.shape[mode]), mode), t
            )

    def test_zero_matrix(self):
        t = np.ones((2, 3, 2))
        out = mode_n_product(t, np.zeros((4, 3)), 1)
        assert out.shape == (2, 4, 2)
        assert not out.any()

    def test_cube_row_sum_example(self):
        out = mode_n_product(CUBE, np.array([[1.0, 1.0]]), 0)
        assert out.shape == (1, 2, 2)
        assert out[0, 0, 0] == 3.0
        assert out[0, 1, 0] == 7.0
        assert out[0, 0, 1] == 11.0
        assert out[0, 1, 1] == 15.0
        np.testing.assert_array_equal(
            out, mode_n_product_loops(CUBE, np.array([[1.0, 1.0]]), 0)
        )

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            order = rng.integers(2, 5)
            shape = tuple(rng.integers(1, 5, size=order))
            t = rng.standard_normal(shape)
            mode = int(rng.integers(0, order))
            a = rng.standard_normal((int(rng.integers(1, 5)), shape[mode]))
            np.testing.assert_allclose(
                mode_n_product(t, a, mode),
                mode_n_product_loops(t, a, mode),
                atol=1e-12,
            )

    def test_equals_fold_matricize_route(self):
        rng = np.random.default_rng(6)
        t = rng.standard_normal((3, 4, 5))
        a = rng.standard_normal((2, 4))
        direct = mode_n_product(t, a, 1)
        via_mat = fold(a @ matricize(t, 1), 1, (3, 2, 5))
        np.testing.assert_allclose(direct, via_mat, atol=1e-12)

    def test_associativity_across_modes(self):
        rng = np.random.default_rng(7)
        t = rng.standard_normal((3, 4, 5))
        a = rng.standard_normal((6, 3))
        b = rng.standard_normal((2, 5))
        left = mode_n_product(mode_n_product(t, a, 0), b, 2)
        right = mode_n_product(mode_n_product(t, b, 2), a, 0)
        np.testing.assert_allclose(
            left, right, rtol=1e-12, atol=1e-12 * fro_norm(left)
        )

    def test_dim_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            mode_n_product(CUBE, np.zeros((2, 3)), 0)


class TestMode1VectorProduct:
    # G x_1 t for a singleton first mode: mode_n_product with t as a column,
    # the form the regression deflation uses
    def test_unit_vector_places_slice(self):
        rng = np.random.default_rng(1)
        g = rng.standard_normal((1, 3, 2))
        e1 = np.array([[1.0], [0.0], [0.0]])
        out = mode_n_product(g, e1, 0)
        np.testing.assert_array_equal(out[0], g[0])
        assert not out[1:].any()

    def test_scalar_case(self):
        out = mode_n_product(np.array([2.0]), np.array([[1.0], [3.0]]), 0)
        np.testing.assert_array_equal(out, [2.0, 6.0])

    def test_zero_vector(self):
        g = np.ones((1, 2, 2))
        assert not mode_n_product(g, np.zeros((4, 1)), 0).any()

    def test_requires_singleton_first_mode(self):
        with pytest.raises(ShapeMismatchError):
            mode_n_product(np.ones((2, 2)), np.ones((3, 1)), 0)


class TestCrossCov:
    def test_matrix_case_is_xty(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((6, 3))
        y = rng.standard_normal((6, 4))
        np.testing.assert_allclose(cross_cov_mode1(x, y), x.T @ y, atol=1e-12)

    def test_self_column_case(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((5, 3, 2))
        out = cross_cov_mode1(x, x)
        np.testing.assert_allclose(out, cross_cov_loops(x, x), atol=1e-12)
        flat = matricize(x, 0)
        np.testing.assert_allclose(
            out.reshape(6, 6, order="F"), flat.T @ flat, atol=1e-12
        )

    def test_zero_input(self):
        assert not cross_cov_mode1(np.zeros((3, 2, 2)), np.ones((3, 4))).any()

    def test_matches_loop_oracle_spec_shapes(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((4, 3, 2))
        y = rng.standard_normal((4, 2, 2))
        assert (
            np.abs(cross_cov_mode1(x, y) - cross_cov_loops(x, y)).max() <= 1e-12
        )

    def test_first_mode_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            cross_cov_mode1(np.ones((3, 2)), np.ones((4, 2)))


class TestKron:
    def test_identities(self):
        np.testing.assert_array_equal(kron_all([np.eye(2), np.eye(3)]), np.eye(6))

    def test_hand_example(self):
        out = kron_all([np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]])])
        np.testing.assert_array_equal(out, [[3.0, 6.0], [4.0, 8.0]])
        np.testing.assert_array_equal(
            out, kron_loops(np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]))
        )

    def test_zero(self):
        assert not kron_all([np.ones((2, 2)), np.zeros((2, 2))]).any()

    def test_orthonormality_preserved(self):
        rng = np.random.default_rng(9)
        a = rand_orth(rng, 5, 2)
        b = rand_orth(rng, 4, 3)
        k = kron_all([a, b])
        np.testing.assert_allclose(k.T @ k, np.eye(6), atol=1e-12)


class TestTuckerOps:
    def test_assemble_matches_loop_oracle(self):
        rng = np.random.default_rng(12)
        core = rng.standard_normal((2, 3, 2))
        factors = [rng.standard_normal((d, r)) for d, r in [(4, 2), (5, 3), (3, 2)]]
        np.testing.assert_allclose(
            tucker_assemble(core, factors),
            tucker_reconstruct_loops(core, factors),
            atol=1e-12,
        )

    def test_matricized_form_identity(self):
        # matricize([[G; A1..AN]], 0) == A1 G_(0) (AN kron ... kron A2)^T
        rng = np.random.default_rng(13)
        core = rng.standard_normal((2, 3, 2, 2))
        factors = [
            rng.standard_normal((d, r)) for d, r in [(5, 2), (4, 3), (3, 2), (4, 2)]
        ]
        full = tucker_assemble(core, factors)
        lhs = matricize(full, 0)
        rhs = factors[0] @ matricize(core, 0) @ kron_all(factors[:0:-1]).T
        assert fro_norm(lhs - rhs) <= 1e-10 * fro_norm(lhs)
