import math
from dataclasses import replace

import numpy as np
import pytest

from tensorpls import (
    DegenerateDataError,
    FitConfig,
    HooiSettings,
    ShapeMismatchError,
    SynthSpec,
    benchmark_case,
    corr_per_column,
    fit_hopls,
    fro_norm,
    generate,
    grid_candidates,
    kfold_cv,
    matricize,
    predict_hopls,
    q_squared,
    q_squared_per_column,
    rmsep,
)
from tensorpls.evaluate import _derive_seed, _fold_slices, _split
from tensorpls.regression import ALGORITHMS, _fit_stack, algorithm

FAST = HooiSettings(max_iters=15, rel_tol=1e-6)


def _cv_problem(problem: str, matrix_y: bool):
    """X and Y for the fold tests: the 2m (or, for a matrix response, mr)
    case at 5 dB, the same kind with 11 samples, or noiseless rank-2 data
    whose second latent column is nonzero on samples 0 and 1 only."""
    case = "mr" if matrix_y else "2m"
    if problem == "generated":
        data = generate(SynthSpec.from_case(case, 5.0, seed=4))
        return data.x, data.y
    if problem == "n11":
        spec = SynthSpec.from_case(case, 5.0, seed=4)
        spec = replace(spec, x_shape=(11,) + spec.x_shape[1:], y_shape=(11,) + spec.y_shape[1:])
        data = generate(spec)
        return data.x, data.y
    rng = np.random.default_rng(0)
    t = rng.standard_normal((10, 2))
    t[2:, 1] = 0.0
    if matrix_y:
        x = np.einsum("nr,ir,jr,kr->nijk", t, *(rng.standard_normal((5, 2)) for _ in range(3)))
        return x, t @ rng.standard_normal((2, 2))
    x = np.einsum("nr,ir,jr->nij", t, rng.standard_normal((4, 2)), rng.standard_normal((5, 2)))
    y = np.einsum("nr,ir,jr->nij", t, rng.standard_normal((3, 2)), rng.standard_normal((3, 2)))
    return x, y


class TestMetrics:
    def test_q2_perfect(self):
        y = np.arange(1.0, 7.0).reshape(2, 3)
        assert q_squared(y, y) == 1.0

    def test_q2_zero_prediction(self):
        y = np.arange(1.0, 7.0).reshape(2, 3)
        assert q_squared(y, np.zeros_like(y)) == pytest.approx(0.0, abs=1e-15)

    def test_q2_hand_case(self):
        assert q_squared([1.0, 1.0], [1.0, 0.0]) == pytest.approx(0.5)

    def test_q2_zero_reference(self):
        with pytest.raises(DegenerateDataError):
            q_squared(np.zeros(3), np.ones(3))

    def test_q2_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            q_squared(np.ones(3), np.ones(4))

    @pytest.mark.parametrize("metric", [q_squared, rmsep, q_squared_per_column, corr_per_column])
    def test_full_shapes_must_match(self, metric):
        y = np.random.default_rng(3).standard_normal((4, 6))
        with pytest.raises(ShapeMismatchError):
            metric(np.ones((3, 1)), np.ones((4, 1)))
        # equal mode-0 unfolding shapes, but the columns are in different orders
        with pytest.raises(ShapeMismatchError):
            metric(y, y.reshape(4, 2, 3))

    def test_rmsep_identical(self):
        y = np.ones((3, 2))
        assert rmsep(y, y) == 0.0

    def test_rmsep_hand_case(self):
        assert rmsep([0.0, 0.0], [3.0, 4.0]) == pytest.approx(math.sqrt(12.5))

    def test_rmsep_homogeneous(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal((4, 3))
        p = rng.standard_normal((4, 3))
        assert rmsep(2.5 * y, 2.5 * p) == pytest.approx(2.5 * rmsep(y, p))

    def test_corr_perfect(self):
        rng = np.random.default_rng(1)
        y = rng.standard_normal((6, 4))
        np.testing.assert_allclose(corr_per_column(y, y), 1.0, atol=1e-12)

    def test_corr_constant_column_is_zero(self):
        y = np.ones((5, 2))
        y[:, 1] = np.arange(5.0)
        out = corr_per_column(y, y)
        assert out[0] == 0.0
        assert out[1] == pytest.approx(1.0)

    def test_q2_per_column_hand_case(self):
        # column 0: error 1 against energy 2; column 1 is all zero, so nan
        out = q_squared_per_column([[1.0, 0.0], [1.0, 0.0]], [[1.0, 1.0], [0.0, 0.0]])
        assert out[0] == 0.5
        assert np.isnan(out[1])

    def test_q2_rmsep_order_agree(self):
        rng = np.random.default_rng(2)
        y = rng.standard_normal((5, 4))
        p1 = y + 0.1 * rng.standard_normal(y.shape)
        p2 = y + 0.5 * rng.standard_normal(y.shape)
        assert rmsep(y, p1) < rmsep(y, p2)
        assert q_squared(y, p1) > q_squared(y, p2)


class TestSynthSpec:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            SynthSpec("weird", (4, 3), (4, 3))

    def test_sample_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            SynthSpec("matrix-structured", (4, 3), (5, 3))

    def test_matrix_response_shape_guard(self):
        with pytest.raises(ShapeMismatchError):
            SynthSpec("matrix-response", (5, 5, 5), (5, 2))

    @pytest.mark.parametrize("snr", [-math.inf, math.nan])
    def test_snr_must_be_a_number_or_plus_inf(self, snr):
        # -inf once passed as noiseless: the noise step tested isinf only
        with pytest.raises(ValueError):
            SynthSpec.from_case("2m", snr, 0)

    def test_case_shapes(self):
        assert SynthSpec.from_case("1m", 10.0, 0).x_shape == (20, 10, 10)
        assert SynthSpec.from_case("2m", 10.0, 0).x_shape == (10, 10, 10)
        spec = SynthSpec.from_case("3m", 10.0, 0)
        assert spec.loading_dist == "uniform01"
        spec = SynthSpec.from_case("mr", 10.0, 0)
        assert spec.x_shape == (5, 5, 5, 5) and spec.y_shape == (5, 2)


def realized_snr(noisy, clean):
    return 10.0 * math.log10(fro_norm(clean) ** 2 / fro_norm(noisy - clean) ** 2)


class TestGenerators:
    def test_noiseless_sentinel_is_exact(self):
        data = generate(SynthSpec.from_case("2m", math.inf, seed=5))
        assert (data.x == data.x_clean).all()
        assert (data.y == data.y_clean).all()
        assert math.isinf(data.snr_x_db)

    @pytest.mark.parametrize("case", ["2m", "2t", "mr"])
    @pytest.mark.parametrize("snr", [7.3, -2.5])
    def test_realized_snr_matches_request(self, case, snr):
        data = generate(SynthSpec.from_case(case, snr, seed=8))
        assert abs(realized_snr(data.x, data.x_clean) - snr) <= 0.01
        assert abs(realized_snr(data.y, data.y_clean) - snr) <= 0.01
        assert abs(realized_snr(data.x_val, data.x_val_clean) - snr) <= 0.01

    def test_same_seed_bit_identical(self):
        a = generate(SynthSpec.from_case("2t", 5.0, seed=3))
        b = generate(SynthSpec.from_case("2t", 5.0, seed=3))
        assert (a.x == b.x).all() and (a.y_val == b.y_val).all()

    def test_noise_seed_only_changes_noise(self):
        a = generate(SynthSpec.from_case("2m", 5.0, seed=3))
        b = generate(SynthSpec.from_case("2m", 5.0, seed=3, noise_seed=99))
        assert (a.x_clean == b.x_clean).all()
        assert (a.y_val_clean == b.y_val_clean).all()
        assert not (a.x == b.x).all()

    def test_validation_shares_loadings(self):
        # calibration and validation rows live in the same 5-dim loading span
        data = generate(SynthSpec.from_case("2m", math.inf, seed=4))
        stacked = np.vstack([matricize(data.x_clean, 0), matricize(data.x_val_clean, 0)])
        assert np.linalg.matrix_rank(stacked) == 5

    def test_matrix_response_exact_relation(self):
        data = generate(SynthSpec.from_case("mr", math.inf, seed=6))
        assert (data.y == matricize(data.x, 0) @ data.coef).all()
        assert (data.y_val == matricize(data.x_val, 0) @ data.coef).all()

    def test_matrix_response_distinct_seeds_distinct_coef(self):
        a = generate(SynthSpec.from_case("mr", math.inf, seed=1))
        b = generate(SynthSpec.from_case("mr", math.inf, seed=2))
        assert not (a.coef == b.coef).all()

    def test_tucker_noiseless_recovery(self):
        data = generate(SynthSpec.from_case("2t", math.inf, seed=9))
        model = fit_hopls(data.x, data.y, FitConfig.uniform(5, 5, 3, 3))
        assert q_squared(data.y_val, predict_hopls(model, data.x_val)) >= 0.99


class TestKfoldCv:
    def test_single_candidate(self):
        # a one-cell grid
        data = generate(SynthSpec.from_case("2m", 10.0, seed=1))
        report = kfold_cv(data.x, data.y, 5, "hopls", 1, 1, hooi_settings=FAST)
        assert report.best == (1, 1)
        assert set(report.grid) == {(1, 1)}
        assert len(report.per_fold[(1, 1)]) == 5

    @pytest.mark.parametrize("r_max, lambda_max", [(0, 3), (3, 0), (-1, -1)])
    def test_empty_grid_is_rejected(self, r_max, lambda_max):
        data = generate(SynthSpec.from_case("2m", 10.0, seed=1))
        with pytest.raises(ValueError, match="r_max and lambda_max"):
            kfold_cv(data.x, data.y, 5, "hopls", r_max, lambda_max)

    @pytest.mark.parametrize("case, name", [
        ("2t", "hopls"), ("2t", "npls"), ("2t", "pls"), ("mr", "hopls"), ("mr", "npls"),
    ])  # fmt: skip
    def test_scanned_cells_lie_in_the_grid(self, case, name):
        # the benchmark's output check and N-PLS's read-off of the HOPLS
        # lambda = 1 column both rely on these two facts
        data = generate(SynthSpec.from_case(case, 0.0, seed=5))
        report = kfold_cv(data.x, data.y, 5, name, 4, 6, hooi_settings=FAST)
        cands = grid_candidates(data.x.shape, data.y.shape, 4, 6, name)
        assert set(report.grid) <= {(c.n_components, c.lam) for c in cands}
        assert {(r, 1) for r in range(1, 5)} <= set(report.grid)

    def test_deterministic(self):
        data = generate(SynthSpec.from_case("2m", 5.0, seed=2))
        a = kfold_cv(data.x, data.y, 5, "hopls", 3, 3, hooi_settings=FAST)
        b = kfold_cv(data.x, data.y, 5, "hopls", 3, 3, hooi_settings=FAST)
        assert a.grid == b.grid and a.best == b.best and a.per_fold == b.per_fold

    def test_fold_partition_covers_everything_once(self):
        slices = _fold_slices(10, 5)
        seen = [i for sl in slices for i in range(sl.start, sl.stop)]
        assert seen == list(range(10))
        slices = _fold_slices(11, 3)
        seen = [i for sl in slices for i in range(sl.start, sl.stop)]
        assert seen == list(range(11))

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_fold_q2_is_q2_of_the_prediction(self, name):
        # every fold's Q² is that of a one-at-a-time fit's own prediction, bit
        # for bit, and the lockstep fit of each fold stops where and why that
        # fit stops, with its residual norms; hopls2 takes a matrix response,
        # every other entry the tensor one. "n11": 11 samples in 5 folds, so
        # training sets of 9 and 8 samples, fitted as two stacks. "fold_rank":
        # noiseless data whose training sets without samples 0 and 1 have rank
        # 1, so at R = 4 fold 0 stops on epsilon after one component while the
        # others go on (to 4 components at lambda = 1, 2 at lambda >= 2).
        for problem in ("generated", "n11", "fold_rank"):
            x, y = _cv_problem(problem, matrix_y=name == "hopls2")
            algo = algorithm(name, y.ndim)
            report = kfold_cv(x, y, 5, name, 4, 3, hooi_settings=FAST)
            splits = [(_split(x, sl), _split(y, sl)) for sl in _fold_slices(len(x), 5)]
            for lam in {lam for _, lam in report.grid}:
                rs = [r for r, l in report.grid if l == lam]
                cfg = algo.config(max(rs), lam, x.ndim, y.ndim)
                serial = [algo.fit(tx, ty, cfg, FAST) for (tx, _), (ty, _) in splits]
                for size in {len(tx) for (tx, _), _ in splits}:
                    ks = [k for k, ((tx, _), _) in enumerate(splits) if len(tx) == size]
                    xs = np.stack([splits[k][0][0] for k in ks])
                    ys = np.stack([splits[k][1][0] for k in ks])
                    for k, model in zip(ks, _fit_stack(algo, xs, ys, cfg, FAST)):
                        assert model.stop_reason == serial[k].stop_reason
                        assert model.x_residual_norms == serial[k].x_residual_norms
                        assert model.y_residual_norms == serial[k].y_residual_norms
                for f, ((_, test_x), (_, test_y)) in enumerate(splits):
                    for r in rs:
                        want = q_squared(test_y, algo.predict(serial[f], test_x, r))
                        assert report.per_fold[(r, lam)][f] == want

    @pytest.mark.parametrize(
        "kwargs, error",
        [
            ({"folds": 2.5}, DegenerateDataError),
            ({"r_max": 2.5}, ValueError),
            ({"lambda_max": 2.5}, ValueError),
        ],
    )
    def test_fractional_counts_rejected(self, kwargs, error):
        # each used to fail with a TypeError from range()
        data = generate(SynthSpec.from_case("2m", 10.0, seed=1))
        args = {"folds": 5, "r_max": 2, "lambda_max": 2} | kwargs
        with pytest.raises(error):
            kfold_cv(data.x, data.y, algo="hopls", hooi_settings=FAST, **args)

    def test_numpy_counts_accepted(self):
        data = generate(SynthSpec.from_case("2m", 10.0, seed=1))
        report = kfold_cv(data.x, data.y, np.int64(5), "pls", np.int64(2), np.int64(1))
        assert report.folds == 5 and type(report.folds) is int

    def test_too_few_samples(self):
        data = generate(SynthSpec.from_case("2m", 10.0, seed=1))
        with pytest.raises(DegenerateDataError):
            kfold_cv(data.x[:3], data.y[:3], 5, "hopls", 1, 1)

    def test_noiseless_best_is_good(self):
        data = generate(SynthSpec.from_case("2t", math.inf, seed=7))
        report = kfold_cv(data.x, data.y, 5, "hopls", 8, 10, hooi_settings=FAST)
        assert report.best_q2 >= 0.99

    def test_lambda_pruning_leaves_prefixes(self):
        data = generate(SynthSpec.from_case("2t", 0.0, seed=11))
        report = kfold_cv(data.x, data.y, 5, "hopls", 4, 6, hooi_settings=FAST)
        for r in range(1, 5):
            lams = sorted(lam for (rr, lam) in report.grid if rr == r)
            assert lams == list(range(1, len(lams) + 1))
            # a scan that stopped short of the cap must end on a decrease
            if lams and lams[-1] < 6:
                assert report.grid[(r, lams[-1])] < report.grid[(r, lams[-2])]

    def test_pls_and_npls_grids_are_lambda_one(self):
        data = generate(SynthSpec.from_case("2m", 10.0, seed=1))
        for algo in ("pls", "npls"):
            report = kfold_cv(data.x, data.y, 5, algo, 3, 10, hooi_settings=FAST)
            assert all(lam == 1 for (_, lam) in report.grid)

    def test_lambda_shrinks_with_noise(self):
        # CV picks rich loadings on near-clean data and few under heavy noise
        selected = {10.0: [], -5.0: []}
        for seed in range(4):
            for snr in (10.0, -5.0):
                data = generate(SynthSpec.from_case("2m", snr, seed=3000 + seed))
                report = kfold_cv(data.x, data.y, 5, "hopls", 10, 10, hooi_settings=FAST)
                selected[snr].append(report.best[1])
        assert np.median(selected[10.0]) > np.median(selected[-5.0])


class TestBenchmark:
    def test_noiseless_single_repeat(self):
        spec = SynthSpec.from_case("2m", math.inf, seed=11)
        res = benchmark_case(spec, repeats=1, hooi_settings=FAST)
        # structure-free data: the subspace methods recover the linear map
        # exactly; rank-one response loadings (npls) top out much lower
        assert res.q2["hopls"][0] >= 0.95
        assert res.q2["pls"][0] >= 0.95
        assert 0.3 <= res.q2["npls"][0] < 0.95

    def test_output_counts(self):
        spec = SynthSpec.from_case("2m", 10.0, seed=5)
        res = benchmark_case(spec, repeats=2, r_max=2, lambda_max=2, hooi_settings=FAST)
        assert set(res.q2) == {"hopls", "npls", "pls"}
        assert all(len(v) == 2 for v in res.q2.values())
        assert all(len(v) == 2 for v in res.selected.values())

    def test_deterministic(self):
        spec = SynthSpec.from_case("2t", 5.0, seed=6)
        a = benchmark_case(spec, repeats=1, r_max=2, lambda_max=2, hooi_settings=FAST)
        b = benchmark_case(spec, repeats=1, r_max=2, lambda_max=2, hooi_settings=FAST)
        assert a.q2 == b.q2 and a.selected == b.selected

    @pytest.mark.parametrize("case", ["2t", "2m"])
    def test_npls_read_off_hopls_matches_own_cv(self, case):
        # N-PLS takes its cell from HOPLS's lambda = 1 column: the cell and
        # Q² its own scan of each repeat's data would give
        spec = SynthSpec.from_case(case, 0.0, seed=12)
        res = benchmark_case(spec, repeats=2, r_max=4, lambda_max=3, hooi_settings=FAST)
        for i in range(2):
            data = generate(replace(spec, seed=_derive_seed(spec.seed, i)))
            best = kfold_cv(data.x, data.y, 5, "npls", 4, 3, hooi_settings=FAST).best
            algo = algorithm("npls", data.y.ndim)
            model = algo.fit(data.x, data.y, algo.config(*best, data.x.ndim, data.y.ndim), FAST)
            assert res.selected["npls"][i] == best
            assert res.q2["npls"][i] == q_squared(data.y_val, algo.predict(model, data.x_val))

    def test_matrix_response_dispatch(self):
        spec = SynthSpec.from_case("mr", math.inf, seed=3)
        res = benchmark_case(spec, repeats=1, r_max=3, lambda_max=3, hooi_settings=FAST)
        assert set(res.q2) == {"hopls", "npls", "pls"}
        assert all(len(v) == 1 for v in res.q2.values())

    def test_fresh_validation_latents_shared_loadings(self):
        spec = SynthSpec.from_case("2t", math.inf, seed=8)
        data = generate(spec)
        assert not (data.x_clean == data.x_val_clean).all()
        joint = np.hstack(
            [matricize(data.x_clean, 1), matricize(data.x_val_clean, 1)]
        )
        assert np.linalg.matrix_rank(joint) == 5
