import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocks import orthonormal, separated_block_data
from oracles import pls_predict_sequential, predict_by_components, rank_one_block
from tensorpls import (
    DegenerateDataError,
    FitConfig,
    HooiSettings,
    RankError,
    ShapeMismatchError,
    center_mode1,
    fit_hopls,
    fit_hopls2,
    fit_pls_nipals,
    fro_norm,
    matricize,
    predict_hopls,
    predict_hopls2,
    predict_pls,
    q_squared,
    tucker_assemble,
)
from tensorpls import regression
from tensorpls.regression import ALGORITHMS, _fit_stack, algorithm


def assert_column_orthonormal(f, tol=1e-10):
    gram = f.T @ f
    assert np.abs(gram - np.eye(f.shape[1])).max() <= tol


@pytest.fixture(scope="module")
def exact_block_fit():
    """Noise-free separated-block data with the matching fit (center off)."""
    rng = np.random.default_rng(0)
    data = separated_block_data(rng, 20, (10, 10), (10, 10), 3, (2, 2), (2, 2))
    cfg = FitConfig(3, (2, 2), (2, 2), center=False)
    model = fit_hopls(data.x, data.y, cfg)
    return data, model


@pytest.fixture(scope="module")
def noisy_fit():
    """Generic correlated data fit, used for the invariant checks."""
    rng = np.random.default_rng(42)
    t = rng.standard_normal((15, 4))
    x = np.einsum("ir,jr,kr->ijk", t, rng.standard_normal((8, 4)), rng.standard_normal((6, 4)))
    y = np.einsum("ir,jr,kr->ijk", t, rng.standard_normal((7, 4)), rng.standard_normal((5, 4)))
    x += 0.1 * rng.standard_normal(x.shape)
    y += 0.1 * rng.standard_normal(y.shape)
    model = fit_hopls(x, y, FitConfig(3, (2, 2), (2, 2)))
    return x, y, model


class TestFitConfig:
    def test_uniform_constructor(self):
        cfg = FitConfig.uniform(4, 3, x_order=4, y_order=3)
        assert cfg.x_ranks == (3, 3, 3) and cfg.y_ranks == (3, 3)
        assert cfg.lam == 3

    def test_lam_requires_uniform_counts(self):
        with pytest.raises(ValueError):
            FitConfig(2, (2, 3)).lam

    def test_validation(self):
        with pytest.raises(RankError):
            FitConfig(0, (1, 1))
        with pytest.raises(RankError):
            FitConfig(1, (0, 1))
        with pytest.raises(RankError):
            FitConfig(1, (1, 1), epsilon=-1.0)

    def test_nan_epsilon_rejected(self):
        # NaN compares false with everything, so it would never stop a fit
        with pytest.raises(RankError):
            FitConfig(1, (1, 1), epsilon=float("nan"))

    @pytest.mark.parametrize(
        "args",
        [
            ((1.5, (2, 2), (2, 2)), "n_components"),
            ((2, (2.7, 2)), "x_ranks"),
            ((2, (2, 2), (np.float64(2),)), "y_ranks"),
        ],
    )
    def test_fractional_counts_rejected(self, args):
        args, field = args  # the error names the field that is not whole
        with pytest.raises(RankError, match=field):
            FitConfig(*args)

    def test_numpy_scalars_are_stored_as_python_values(self):
        cfg = FitConfig(np.int64(2), (np.int32(2), 2), (np.uint8(1),), np.float32(0.5), np.bool_(0))
        assert cfg == FitConfig(2, (2, 2), (1,), 0.5, False)
        values = (cfg.n_components, *cfg.x_ranks, *cfg.y_ranks, cfg.epsilon, cfg.center)
        assert [type(v) for v in values] == [int] * 4 + [float, bool]


class TestCenterMode1:
    def test_constant_along_mode0(self):
        t = np.tile(np.arange(6.0).reshape(1, 2, 3), (4, 1, 1))
        centered, mean = center_mode1(t)
        assert not centered.any()
        np.testing.assert_array_equal(mean, t[0])

    def test_dyadic_round_trip_bit_exact(self):
        # entries and means are dyadic rationals, so the arithmetic is exact
        rng = np.random.default_rng(1)
        t = rng.integers(-8, 8, size=(4, 3, 2)).astype(float) / 4.0
        centered, mean = center_mode1(t)
        assert ((centered + mean) == t).all()

    def test_random_round_trip_close(self):
        rng = np.random.default_rng(2)
        t = rng.standard_normal((6, 4))
        centered, mean = center_mode1(t)
        np.testing.assert_allclose(centered + mean, t, rtol=0, atol=1e-14)

    def test_output_mean_is_zero(self):
        rng = np.random.default_rng(3)
        t = rng.standard_normal((7, 3, 2))
        centered, _ = center_mode1(t)
        assert np.abs(centered.mean(axis=0)).max() <= 1e-12


class TestPlsNipals:
    @pytest.mark.parametrize("epsilon", [-1.0, float("nan")], ids=["negative", "nan"])
    def test_invalid_epsilon_rejected(self, epsilon):
        rng = np.random.default_rng(3)
        with pytest.raises(RankError):
            fit_pls_nipals(rng.standard_normal((6, 4)), rng.standard_normal((6, 2)), 3, epsilon=epsilon)

    def test_identity_relation(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((8, 8))
        model = fit_pls_nipals(x, x, 8)
        assert q_squared(x, predict_pls(model, x)) >= 0.999

    def test_pls1_weight_direction(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((12, 6))
        y = rng.standard_normal((12, 1))
        model = fit_pls_nipals(x, y, 1, center=False)
        expected = x.T @ y.ravel()
        expected /= np.linalg.norm(expected)
        w = model.x_weights[:, 0]
        assert min(np.linalg.norm(w - expected), np.linalg.norm(w + expected)) <= 1e-8

    def test_scores_orthogonal(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((10, 7))
        y = rng.standard_normal((10, 3))
        model = fit_pls_nipals(x, y, 5)
        scores = (x - model.x_mean) @ model.score_operator
        gram = scores.T @ scores
        off = np.abs(gram - np.diag(np.diag(gram))).max()
        assert off <= 1e-8 * np.diag(gram).max()

    def test_unit_weights(self):
        rng = np.random.default_rng(7)
        model = fit_pls_nipals(
            rng.standard_normal((9, 5)), rng.standard_normal((9, 2)), 3
        )
        np.testing.assert_allclose(
            np.linalg.norm(model.x_weights, axis=0), 1.0, atol=1e-12
        )

    def test_r_out_of_range(self):
        with pytest.raises(RankError):
            fit_pls_nipals(np.ones((4, 3)), np.ones((4, 2)), 5)

    def test_fractional_count_rejected(self):
        rng = np.random.default_rng(9)
        with pytest.raises(RankError, match="n_components"):
            fit_pls_nipals(rng.standard_normal((6, 4)), rng.standard_normal((6, 2)), 2.5)

    def test_all_zero_response(self):
        rng = np.random.default_rng(8)
        with pytest.raises(DegenerateDataError):
            fit_pls_nipals(rng.standard_normal((5, 4)), np.zeros((5, 2)), 2)

    def test_early_stop_records_achieved(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 5))  # rank 2
        y = x @ rng.standard_normal((5, 2))
        model = fit_pls_nipals(x, y, 5, center=False)
        assert model.n_components <= 3
        assert predict_pls(model, x).shape == y.shape

    def test_stop_reason(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 5))  # rank 2
        y = x @ rng.standard_normal((5, 2))
        model = fit_pls_nipals(x, y, 5)
        assert (model.n_components, model.stop_reason) == (2, "epsilon")
        model = fit_pls_nipals(x, y, 2)
        assert (model.n_components, model.stop_reason) == (2, "completed")

    def test_zero_residual_is_zero_cross_cov(self):
        # X constant along mode 0: nothing is left once it is centred
        y = np.random.default_rng(10).standard_normal((5, 2))
        model = fit_pls_nipals(np.ones((5, 4)), y, 2)
        assert (model.n_components, model.stop_reason) == (0, "zero_cross_cov")

    @pytest.mark.parametrize("center", [True, False])
    def test_prefix_predictions_match_sequential_oracle(self, center):
        rng = np.random.default_rng(22)
        x = rng.standard_normal((14, 9))
        y = x @ rng.standard_normal((9, 4)) + 0.3 * rng.standard_normal((14, 4))
        x_new = rng.standard_normal((6, 9))
        model = fit_pls_nipals(x, y, 7, center=center)
        assert model.n_components == 7
        for r in range(model.n_components + 1):
            want = pls_predict_sequential(model, x_new, r)
            got = predict_pls(model, x_new, n_components=r)
            assert fro_norm(got - want) <= 1e-12 * fro_norm(want)

    def test_tensor_data_is_regressed_through_unfoldings(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal((10, 3, 4))
        y = rng.standard_normal((10, 2, 3))
        x_new = rng.standard_normal((5, 3, 4))
        model = fit_pls_nipals(x, y, 4)
        assert (model.x_shape, model.y_shape) == ((3, 4), (2, 3))
        flat = fit_pls_nipals(matricize(x, 0), matricize(y, 0), 4)
        want = predict_pls(flat, matricize(x_new, 0))
        np.testing.assert_allclose(matricize(predict_pls(model, x_new), 0), want, rtol=0, atol=1e-12)

    def test_weights_follow_the_row_major_reshape(self):
        rng = np.random.default_rng(24)
        x = rng.standard_normal((10, 3, 4))
        y = rng.standard_normal((10, 2, 3))
        model = fit_pls_nipals(x, y, 4)
        flat = fit_pls_nipals(x.reshape(10, -1), y.reshape(10, -1), 4)
        for name in ("x_weights", "x_loadings", "y_loadings", "coefs"):
            np.testing.assert_array_equal(getattr(model, name), getattr(flat, name))


class TestFitHopls:
    def test_exact_model_recovery(self, exact_block_fit):
        data, model = exact_block_fit
        assert model.n_components == 3
        rel_e = model.x_residual_norms[-1] / model.x_residual_norms[0]
        assert rel_e <= 1e-6
        assert q_squared(data.y, predict_hopls(model, data.x)) >= 0.999

    def test_zero_response_flags_no_shared_variance(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((6, 4, 3))
        model = fit_hopls(x, np.zeros((6, 3, 3)), FitConfig(2, (2, 2), (2, 2)))
        assert model.n_components == 0
        assert model.stop_reason == "zero_cross_cov"
        pred = predict_hopls(model, x)
        np.testing.assert_allclose(pred, np.broadcast_to(model.y_mean, pred.shape))

    @pytest.mark.parametrize("n", [4, 12])
    def test_exactly_zero_cross_covariance_of_nonzero_residuals(self, n):
        # X lives on sample 0 and Y on sample 1, so C = <X, Y>_1 is exactly
        # zero while neither residual is; N = 12 puts N^2 above the size of
        # C, where the check forms C instead of the sample Grams
        rng = np.random.default_rng(14)
        x = np.zeros((n, 3, 3))
        y = np.zeros((n, 3, 3))
        x[0] = rng.standard_normal((3, 3))
        y[1] = rng.standard_normal((3, 3))
        for model in (
            fit_hopls(x, y, FitConfig(2, (2, 2), (2, 2), center=False)),
            fit_hopls2(x, y[:, :, 0], FitConfig(2, (2, 2), center=False)),
        ):
            assert (model.n_components, model.stop_reason) == (0, "zero_cross_cov")

    def test_rank_one_reduction_structure(self):
        # all loading counts 1: every block is an outer product of vectors
        rng = np.random.default_rng(11)
        x = rng.standard_normal((9, 5, 4))
        y = rng.standard_normal((9, 4, 3))
        model = fit_hopls(x, y, FitConfig(3, (1, 1), (1, 1)))
        for comp in model.components:
            assert comp.x_core.shape == (1, 1, 1)
            assert comp.y_core.shape == (1, 1, 1)
            block = comp.x_block()
            outer = rank_one_block(
                comp.x_core.ravel()[0],
                [comp.t] + [p[:, 0] for p in comp.x_loadings],
            )
            assert fro_norm(block - outer) <= 1e-10 * max(fro_norm(block), 1.0)

    def test_orthonormal_loadings_unit_latents(self, noisy_fit):
        _, _, model = noisy_fit
        for comp in model.components:
            assert np.linalg.norm(comp.t) == pytest.approx(1.0, abs=1e-10)
            for p in comp.x_loadings + comp.y_loadings:
                assert_column_orthonormal(p)

    def test_deflation_monotone(self, noisy_fit):
        _, _, model = noisy_fit
        assert (np.diff(model.x_residual_norms) <= 1e-12).all()
        assert (np.diff(model.y_residual_norms) <= 1e-12).all()

    def test_latents_not_forced_orthogonal(self):
        # no orthogonality constraint is imposed on the latent vectors:
        # exhibit a fit where |t_1 . t_2| is clearly nonzero
        rng = np.random.default_rng(12)
        t = rng.standard_normal((12, 3))
        x = np.einsum("ir,jr,kr->ijk", t, rng.standard_normal((6, 3)), rng.standard_normal((5, 3)))
        y = np.einsum("ir,jr,kr->ijk", t, rng.standard_normal((6, 3)), rng.standard_normal((4, 3)))
        model = fit_hopls(x, y, FitConfig(2, (2, 2), (2, 2)))
        t1, t2 = model.components[0].t, model.components[1].t
        assert abs(float(t1 @ t2)) > 1e-3

    def test_shape_and_rank_errors(self):
        x = np.zeros((5, 3, 3)) + 1.0
        y = np.zeros((6, 3, 3)) + 1.0
        with pytest.raises(ShapeMismatchError):
            fit_hopls(x, y, FitConfig(1, (1, 1), (1, 1)))
        with pytest.raises(RankError):
            fit_hopls(x, x, FitConfig(1, (4, 1), (1, 1)))
        with pytest.raises(RankError):
            fit_hopls(x, x, FitConfig(1, (1,), (1, 1)))

    def test_core_contraction_norm_factorizes(self, noisy_fit):
        # |<G, D>_{0;0}|_F^2 == |G|_F^2 |D|_F^2 for leading-singleton cores
        _, _, model = noisy_fit
        for comp in model.components:
            g = comp.x_core
            d = comp.y_core
            contraction = np.tensordot(g, d, axes=(0, 0))
            lhs = fro_norm(contraction) ** 2
            rhs = fro_norm(g) ** 2 * fro_norm(d) ** 2
            assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_fitted_core_is_least_squares_optimum(self, noisy_fit):
        x, _, model = noisy_fit
        rng = np.random.default_rng(13)
        residual = x - model.x_mean
        for comp in model.components:
            factors = (comp.t[:, None],) + comp.x_loadings
            block = tucker_assemble(comp.x_core, factors)
            base = fro_norm(residual - block)
            for _ in range(100):
                delta = rng.standard_normal(comp.x_core.shape)
                delta *= 1e-3 * fro_norm(comp.x_core) / fro_norm(delta)
                perturbed = tucker_assemble(comp.x_core + delta, factors)
                assert fro_norm(residual - perturbed) >= base - 1e-15
            residual = residual - block

    def test_unit_loading_projection_is_least_squares(self):
        rng = np.random.default_rng(14)
        y = rng.standard_normal((9, 4))
        q = rng.standard_normal(4)
        q /= np.linalg.norm(q)
        t = y @ q
        # independent least-squares oracle, one row at a time
        oracle = np.array(
            [np.linalg.lstsq(q[:, None], y[i], rcond=None)[0][0] for i in range(9)]
        )
        np.testing.assert_allclose(t, oracle, atol=1e-10)
        base = fro_norm(y - np.outer(t, q))
        for _ in range(50):
            other = t + rng.standard_normal(9) * 0.01
            assert fro_norm(y - np.outer(other, q)) >= base - 1e-12


class TestPredictHopls:
    def test_training_reproduction_matches_model_sum(self, exact_block_fit):
        data, model = exact_block_fit
        pred = predict_hopls(model, data.x)
        model_sum = sum(c.y_block() for c in model.components)
        assert fro_norm(pred - model_sum) <= 1e-10 * fro_norm(model_sum)

    def test_validation_prediction(self, exact_block_fit):
        data, model = exact_block_fit
        assert q_squared(data.y_val, predict_hopls(model, data.x_val)) >= 0.999

    def test_zero_input_gives_mean_field(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((8, 4, 3))
        y = rng.standard_normal((8, 3, 2))
        model = fit_hopls(x, y, FitConfig(2, (2, 2), (2, 2)))
        pred = predict_hopls(model, np.broadcast_to(model.x_mean, (5, 4, 3)).copy())
        np.testing.assert_allclose(
            pred, np.broadcast_to(model.y_mean, (5, 3, 2)), atol=1e-10
        )

    def test_zero_y_cores_predict_mean(self):
        # the operators are derived from the components, so editing them
        # edits the predictor
        rng = np.random.default_rng(24)
        x = rng.standard_normal((8, 4, 3))
        y = rng.standard_normal((8, 3, 2))
        model = fit_hopls(x, y, FitConfig(2, (2, 2), (2, 2)))
        zeroed = replace(
            model,
            components=tuple(replace(c, y_core=np.zeros_like(c.y_core)) for c in model.components),
        )
        pred = predict_hopls(zeroed, x)
        assert (pred == np.broadcast_to(model.y_mean, pred.shape)).all()

    def test_single_sample_shape(self, exact_block_fit):
        data, model = exact_block_fit
        pred = predict_hopls(model, data.x_val[:1])
        assert pred.shape == (1, 10, 10)

    def test_trailing_shape_mismatch(self, exact_block_fit):
        _, model = exact_block_fit
        with pytest.raises(ShapeMismatchError):
            predict_hopls(model, np.zeros((2, 10, 9)))


@pytest.fixture(scope="module")
def hopls2_block_fit():
    """Matrix-response analogue of the separated-block construction."""
    rng = np.random.default_rng(20)
    n, n_blocks = 16, 3
    t = orthonormal(rng, n, n_blocks)
    t_val = rng.standard_normal((n, n_blocks))
    px = [orthonormal(rng, d, n_blocks * 2) for d in (8, 7)]
    qm = orthonormal(rng, 5, n_blocks)
    x = np.zeros((n, 8, 7))
    x_val = np.zeros((n, 8, 7))
    y = np.zeros((n, 5))
    y_val = np.zeros((n, 5))
    for r in range(n_blocks):
        scale = 0.4**r
        g = rng.standard_normal((1, 2, 2))
        g *= scale / fro_norm(g)
        loadings = [p[:, 2 * r : 2 * r + 2] for p in px]
        x += tucker_assemble(g, [t[:, r][:, None]] + loadings)
        x_val += tucker_assemble(g, [t_val[:, r][:, None]] + loadings)
        d = 1.5 * scale
        y += d * np.outer(t[:, r], qm[:, r])
        y_val += d * np.outer(t_val[:, r], qm[:, r])
    cfg = FitConfig(3, (2, 2), center=False)
    model = fit_hopls2(x, y, cfg)
    return x, y, x_val, y_val, model


class TestFitHopls2:
    def test_rank_one_single_column(self):
        rng = np.random.default_rng(16)
        t = rng.standard_normal(10)
        t /= np.linalg.norm(t)
        p2 = rng.standard_normal(6)
        p2 /= np.linalg.norm(p2)
        p3 = rng.standard_normal(5)
        p3 /= np.linalg.norm(p3)
        x = 2.0 * rank_one_block(1.0, [t, p2, p3])
        y = (3.0 * t)[:, None]
        model = fit_hopls2(x, y, FitConfig(1, (1, 1), center=False))
        recon = model.components[0].y_block()
        assert fro_norm(recon - y) <= 1e-8 * fro_norm(y)

    def test_single_response_q_is_sign(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((8, 4, 3))
        y = rng.standard_normal((8, 1))
        model = fit_hopls2(x, y, FitConfig(2, (2, 2)))
        for comp in model.components:
            assert abs(comp.y_loadings[0][0, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_linear_response_training_fit(self):
        # X (5,5,5,5) ~ N(0,1), Y = X_(0) W: the fitted decomposition
        # explains the response essentially exactly
        rng = np.random.default_rng(18)
        x = rng.standard_normal((5, 5, 5, 5))
        w = rng.standard_normal((125, 2))
        y = matricize(x, 0) @ w
        model = fit_hopls2(x, y, FitConfig(5, (5, 5, 5)))
        fit_q2 = 1.0 - model.y_residual_norms[-1] ** 2 / fro_norm(y) ** 2
        assert fit_q2 >= 0.999

    def test_unit_norms_and_diagnostics(self, hopls2_block_fit):
        *_, model = hopls2_block_fit
        assert model.n_components == 3
        for comp in model.components:
            assert np.linalg.norm(comp.t) == pytest.approx(1.0, abs=1e-10)
            assert np.linalg.norm(comp.y_loadings[0]) == pytest.approx(1.0, abs=1e-10)
        assert (np.diff(model.x_residual_norms) <= 1e-12).all()
        assert (np.diff(model.y_residual_norms) <= 1e-12).all()


class TestPredictHopls2:
    def test_training_self_consistency(self, hopls2_block_fit):
        x, y, *_ , model = hopls2_block_fit
        assert q_squared(y, predict_hopls2(model, x)) >= 0.999

    def test_validation(self, hopls2_block_fit):
        _, _, x_val, y_val, model = hopls2_block_fit
        assert q_squared(y_val, predict_hopls2(model, x_val)) >= 0.999

    def test_zero_coefficients_predict_mean(self):
        rng = np.random.default_rng(19)
        x = rng.standard_normal((7, 4, 3))
        y = rng.standard_normal((7, 2))
        model = fit_hopls2(x, y, FitConfig(2, (2, 2)))
        zeroed = replace(
            model,
            components=tuple(replace(c, y_core=np.zeros((1, 1))) for c in model.components),
        )
        pred = predict_hopls2(zeroed, x)
        np.testing.assert_allclose(pred, np.broadcast_to(model.y_mean, pred.shape))

    def test_single_component_loop_oracle(self, hopls2_block_fit):
        x, *_ , model = hopls2_block_fit
        pred = predict_hopls2(model, x, n_components=1)
        comp = model.components[0]
        q, d = comp.y_loadings[0][:, 0], comp.y_core[0, 0]
        scores = x.reshape(len(x), -1) @ model.score_operator[:, 0]
        by_hand = np.zeros_like(pred)
        for i in range(x.shape[0]):
            for j in range(len(q)):
                by_hand[i, j] = d * scores[i] * q[j]
        np.testing.assert_allclose(pred, by_hand, atol=1e-12)


# ---------------------------------------------------------------------------
# the one predictor


def distinct_dims(count, largest):
    return st.lists(st.integers(2, largest), min_size=count, max_size=count, unique=True)


@st.composite
def predict_problems(draw, name):
    """A model fitted by table entry ``name`` and a batch for it to predict.

    X has order 2 (PLS only) to 5 and Y order 2 (always for HOPLS2) to 4,
    with distinct mode sizes on each side, so that a feature order mixed
    up between the unfolding and the row-major layout shows. The fit is
    centred or not, and may stop before its first component (a huge
    epsilon). The batch may be a strided, non-C-contiguous view.
    """
    n = draw(st.integers(3, 8))
    x_order = draw(st.integers(2 if name == "pls" else 3, 5))
    y_order = 2 if name == "hopls2" else draw(st.integers(2, 4))
    x_dims = draw(distinct_dims(x_order - 1, 5))
    y_dims = draw(distinct_dims(y_order - 1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n, *x_dims)) + rng.standard_normal(x_dims)
    y = rng.standard_normal((n, *y_dims)) + rng.standard_normal(y_dims)
    algo = algorithm(name, y_order)
    cfg = algo.config(
        draw(st.integers(1, 4)),
        draw(st.integers(1, algo.lam_cap(x.shape, y.shape))),
        x_order,
        y_order,
        center=draw(st.booleans()),
        epsilon=draw(st.sampled_from([None, None, None, 1e300])),
    )
    wide = rng.standard_normal((draw(st.integers(1, 5)), *x_dims[:-1], 2 * x_dims[-1]))
    x_new = wide[..., ::2] if draw(st.booleans()) else np.ascontiguousarray(wide[..., ::2])
    return algo, algo.fit(x, y, cfg), x_new


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_predictor_matches_unfolded_formula(name, data):
    """The predictor agrees with the component-wise oracle, which fixes no feature order."""
    algo, model, x_new = data.draw(predict_problems(name))
    for r in range(model.n_components + 1):
        want = predict_by_components(model, x_new, r)
        got = algo.predict(model, x_new, r)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_score_operator_scores_the_row_major_batch():
    """W's first column maps the centred training data, read row-major, to t_1."""
    rng = np.random.default_rng(25)
    x = rng.standard_normal((12, 3, 4, 5))
    y = rng.standard_normal((12, 2, 6))
    model = fit_hopls(x, y, FitConfig(2, (2, 2, 2), (2, 2)))
    scores = (x - model.x_mean).reshape(12, -1) @ model.score_operator[:, 0]
    np.testing.assert_allclose(scores, model.components[0].t, rtol=0, atol=1e-12)


def peak_bytes(call):
    """``call()``'s result and the peak of traced allocation during it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = call()
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_predict_allocates_only_its_output():
    """No batch-sized temporary: the peak is the output plus operator-sized change."""
    rng = np.random.default_rng(21)
    x = rng.standard_normal((20, 16, 16))
    y = rng.standard_normal((20, 16, 16))
    model = fit_hopls(x, y, FitConfig(3, (2, 2), (2, 2)))
    batch = rng.standard_normal((4000, 16, 16))
    out, peak = peak_bytes(lambda: predict_hopls(model, batch))
    assert peak <= 1.25 * out.nbytes


@pytest.mark.parametrize("name", ["hopls", "hopls2", "pls"])
def test_prediction_of_block_aligned_rows_is_a_slice(monkeypatch, name):
    """Rows i:j of a batch's prediction, i and j on block boundaries, are the
    bits of predicting those rows alone: the batch is cut at the same rows."""
    monkeypatch.setattr(regression, "PREDICT_BLOCK_BYTES", 4 * 8 * 30)  # 4 rows of (5, 6)
    rng = np.random.default_rng(26)
    x = rng.standard_normal((12, 5, 6)) + rng.standard_normal((5, 6))
    y = rng.standard_normal((12, 4, 3)) + rng.standard_normal((4, 3))
    if name == "hopls2":
        y = y[:, :, 0]
    algo = algorithm(name, y.ndim)
    model = algo.fit(x, y, algo.config(3, algo.fixed_lam or 2, x.ndim, y.ndim))
    batch = rng.standard_normal((27, 5, 6))
    whole = algo.predict(model, batch)
    for i, j in ((0, 4), (4, 12), (8, 27), (24, 27), (0, 27)):
        assert whole[i:j].tobytes() == algo.predict(model, batch[i:j]).tobytes(), (i, j)


def test_fit_never_forms_the_cross_covariance():
    rng = np.random.default_rng(22)
    x = rng.standard_normal((20, 24, 24))
    y = rng.standard_normal((20, 24, 24))
    cross_cov_bytes = 8 * 24**4  # 2.65 MB
    _, peak = peak_bytes(lambda: fit_hopls(x, y, FitConfig(3, (2, 2), (2, 2))))
    assert peak < cross_cov_bytes / 4


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_uncentred_fit_does_not_copy_its_inputs(name):
    # a centred fit makes centred copies of X and Y; an uncentred one starts
    # from X and Y themselves, so its peak is lower by about their size
    rng = np.random.default_rng(25)
    x = rng.standard_normal((40, 30, 30))
    y = rng.standard_normal((40, 3) if name == "hopls2" else (40, 30, 30))
    algo = algorithm(name, y.ndim)
    peaks = [
        peak_bytes(lambda: algo.fit(x, y, algo.config(1, 1, x.ndim, y.ndim, center=c)))[1]
        for c in (True, False)
    ]
    assert peaks[1] < peaks[0] - 0.75 * (x.nbytes + y.nbytes)


@pytest.mark.parametrize("r, limit", [(1, 2.8), (3, 5.0)])
def test_pls_deflates_into_its_fitted_blocks(r, limit):
    # each new residual is written into its fitted block's buffer, so a step
    # holds no third data-sized array per side; the limits sit between the
    # peaks with (about 2.54 and 4.70 times X's bytes) and without that
    # (3.09 and 5.24)
    rng = np.random.default_rng(25)
    x = rng.standard_normal((40, 30, 30))
    y = rng.standard_normal((40, 30, 30))
    _, peak = peak_bytes(lambda: fit_pls_nipals(x, y, r, center=False))
    assert peak < limit * x.nbytes


def test_tall_fit_builds_no_sample_gram():
    # an N x N Gram here would be 128 MB; C is 648 bytes
    rng = np.random.default_rng(23)
    x = rng.standard_normal((4000, 3, 3))
    y = rng.standard_normal((4000, 3, 3))
    _, peak = peak_bytes(lambda: fit_hopls(x, y, FitConfig(2, (2, 2), (2, 2))))
    assert peak < 4 * (x.nbytes + y.nbytes)


@pytest.mark.parametrize("name", ["hopls", "hopls2", "npls"])
def test_lockstep_fits_are_the_single_fits(name):
    # stacks of three training sets fitted in lockstep: an ordinary one, one
    # that stops with 'zero_cross_cov' and a noiseless rank-1 one (it stops
    # with 'epsilon' after one component); each model has the bits of its own
    # single fit. Centred, the middle Y is constant, so its residual is zero
    # and it stops before the first step. Uncentred, its X lives on sample 0
    # and its Y on sample 1: C is exactly zero while neither residual is, so
    # it stops inside the step and rides along with the others to its end.
    rng = np.random.default_rng(31)
    for center in (True, False):
        x = rng.standard_normal((3, 12, 4, 5))
        y = rng.standard_normal((3, 12, 3) if name == "hopls2" else (3, 12, 3, 2))
        if center:
            y[1] = 2.0
        else:
            x[1, 1:] = 0.0
            y[1, 0] = 0.0
            y[1, 2:] = 0.0
        t = rng.standard_normal(12)
        x[2] = np.multiply.outer(t, rng.standard_normal((4, 5)))
        y[2] = np.multiply.outer(t, rng.standard_normal(y.shape[2:]))
        algo = algorithm(name, y.ndim - 1)
        cfg = algo.config(3, 1 if name == "npls" else 2, x.ndim - 1, y.ndim - 1, center=center)
        hooi_settings = HooiSettings(max_iters=10, rel_tol=1e-6)
        models = _fit_stack(algo, x, y, cfg, hooi_settings)
        singles = [algo.fit(x[i], y[i], cfg, hooi_settings) for i in range(3)]
        assert [m.stop_reason for m in models] == ["completed", "zero_cross_cov", "epsilon"]
        if not center:  # no residual was zero: the stop came from the step
            assert models[1].x_residual_norms[0] > 0 and models[1].y_residual_norms[0] > 0
        for model, one in zip(models, singles):
            assert model.stop_reason == one.stop_reason
            assert model.x_residual_norms == one.x_residual_norms
            assert model.y_residual_norms == one.y_residual_norms
            assert model.n_components == one.n_components
            for c, d in zip(model.components, one.components):
                for u, v in zip(
                    (c.t, c.x_core, c.y_core, *c.x_loadings, *c.y_loadings),
                    (d.t, d.x_core, d.y_core, *d.x_loadings, *d.y_loadings),
                ):
                    assert u.shape == v.shape and u.tobytes() == v.tobytes()
            assert algo.predict(model, x[0]).tobytes() == algo.predict(one, x[0]).tobytes()
