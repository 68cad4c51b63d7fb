import numpy as np
import pytest
from dataclasses import replace

from blocks import orthonormal, separated_block_data
from oracles import pls_predict_sequential, rank_one_block
from tensorpls import (
    DegenerateDataError,
    FitConfig,
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

    def test_variance_fraction_constructor(self):
        cfg = FitConfig.variance_fraction(2, 0.5, (10, 8, 6), (10, 4))
        assert cfg.x_ranks == (4, 3) and cfg.y_ranks == (2,)
        cfg = FitConfig.variance_fraction(2, 0.05, (10, 8, 6))
        assert cfg.x_ranks == (1, 1)
        with pytest.raises(RankError):
            FitConfig.variance_fraction(2, 1.5, (10, 8))

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
        comp = model.components[0]
        recon = comp.d * np.outer(comp.t, comp.q)
        assert fro_norm(recon - y) <= 1e-8 * fro_norm(y)

    def test_single_response_q_is_sign(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((8, 4, 3))
        y = rng.standard_normal((8, 1))
        model = fit_hopls2(x, y, FitConfig(2, (2, 2)))
        for comp in model.components:
            assert abs(comp.q[0]) == pytest.approx(1.0, abs=1e-12)

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
            assert np.linalg.norm(comp.q) == pytest.approx(1.0, abs=1e-10)
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
            components=tuple(replace(c, d=0.0) for c in model.components),
        )
        pred = predict_hopls2(zeroed, x)
        np.testing.assert_allclose(pred, np.broadcast_to(model.y_mean, pred.shape))

    def test_single_component_loop_oracle(self, hopls2_block_fit):
        x, *_ , model = hopls2_block_fit
        pred = predict_hopls2(model, x, n_components=1)
        comp = model.components[0]
        scores = matricize(x, 0) @ model.score_operator[:, 0]
        by_hand = np.zeros_like(pred)
        for i in range(x.shape[0]):
            for j in range(len(comp.q)):
                by_hand[i, j] = comp.d * scores[i] * comp.q[j]
        np.testing.assert_allclose(pred, by_hand, atol=1e-12)
