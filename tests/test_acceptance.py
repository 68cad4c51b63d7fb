"""Acceptance suite: one test (or sub-test group) per criterion, each
printing a PASS line at its stated tolerance. Run with ``pytest -s`` to see
the lines live; the heavy benchmark behind criterion 6 takes ~10 minutes.
"""

import json
import math
import time

import numpy as np
import pytest

from blocks import separated_block_data
from oracles import (
    cross_cov_loops,
    mode_n_product_loops,
    tucker_reconstruct_loops,
)
from tensorpls import (
    FitConfig,
    HooiSettings,
    SynthSpec,
    benchmark_case,
    cross_cov_mode1,
    fit_hopls,
    fit_hopls2,
    fit_pls_nipals,
    fro_norm,
    generate,
    hooi,
    hosvd,
    kfold_cv,
    load_model,
    matricize,
    mode_n_product,
    predict_hopls,
    predict_hopls2,
    predict_pls,
    q_squared,
    read_tensor,
    save_model,
    tucker_assemble,
    write_tensor,
)
from tensorpls.cli import main as cli_main

# Faster orthogonal-iteration stopping rule for the repeated benchmark
# protocol. It does not reproduce the defaults: on the criterion-6 workload
# (seed 0, 50 repeats) 124 of 400 HOPLS and 114 of 400 N-PLS selections
# differ from those under HooiSettings(), and 14 of the 24 medians differ at
# three decimals, by up to 0.033. Everything else uses the defaults.
BENCH_HOOI = HooiSettings(max_iters=15, rel_tol=1e-6)

# Models fitted inside this module, checked wholesale by criterion 8's
# deflation clause.
FITTED_MODELS = []


def _track(model):
    FITTED_MODELS.append(model)
    return model


def _derive(seed, i):
    return int(np.random.SeedSequence((seed, i)).generate_state(1, np.uint64)[0])


def _report(line):
    print(f"\nACCEPTANCE {line}")


# ---------------------------------------------------------------------------


def test_criterion_1_multilinear_oracles():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    for _ in range(200):
        order = int(rng.integers(3, 5))
        shape = tuple(int(d) for d in rng.integers(2, 6, size=order))
        t = rng.standard_normal(shape)

        mode = int(rng.integers(0, order))
        a = rng.standard_normal((int(rng.integers(1, 6)), shape[mode]))
        assert (
            np.abs(mode_n_product(t, a, mode) - mode_n_product_loops(t, a, mode)).max()
            <= 1e-12
        )

        y_shape = (shape[0],) + tuple(int(d) for d in rng.integers(2, 5, size=2))
        y = rng.standard_normal(y_shape)
        assert np.abs(cross_cov_mode1(t, y) - cross_cov_loops(t, y)).max() <= 1e-12

        ranks = tuple(int(rng.integers(1, min(d, 3) + 1)) for d in shape)
        core = rng.standard_normal(ranks)
        factors = [rng.standard_normal((d, r)) for d, r in zip(shape, ranks)]
        assert (
            np.abs(
                tucker_assemble(core, factors) - tucker_reconstruct_loops(core, factors)
            ).max()
            <= 1e-12
        )
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(f"1 multilinear-oracle equivalence (200 tensors, {elapsed:.1f}s): PASS")


def test_criterion_2_core_product_identity():
    rng = np.random.default_rng(202)
    for _ in range(100):
        lg = tuple(int(d) for d in rng.integers(1, 4, size=int(rng.integers(2, 4))))
        ld = tuple(int(d) for d in rng.integers(1, 4, size=int(rng.integers(2, 4))))
        g = rng.standard_normal((1,) + lg)
        d = rng.standard_normal((1,) + ld)
        lhs = fro_norm(np.tensordot(g, d, axes=(0, 0))) ** 2
        rhs = fro_norm(g) ** 2 * fro_norm(d) ** 2
        assert abs(lhs - rhs) <= 1e-8 * max(rhs, 1e-300)

    t = rng.standard_normal((12, 4))
    x = np.einsum("ir,jr,kr->ijk", t, rng.standard_normal((7, 4)), rng.standard_normal((6, 4)))
    y = np.einsum("ir,jr,kr->ijk", t, rng.standard_normal((5, 4)), rng.standard_normal((6, 4)))
    x += 0.05 * rng.standard_normal(x.shape)
    y += 0.05 * rng.standard_normal(y.shape)
    model = _track(fit_hopls(x, y, FitConfig(3, (2, 2), (2, 2))))
    for comp in model.components:
        lhs = fro_norm(np.tensordot(comp.x_core, comp.y_core, axes=(0, 0))) ** 2
        rhs = fro_norm(comp.x_core) ** 2 * fro_norm(comp.y_core) ** 2
        assert abs(lhs - rhs) <= 1e-8 * rhs
    _report("2 core-product identity (100 random pairs + fitted components): PASS")


def test_criterion_3_hosvd_hooi():
    rng = np.random.default_rng(303)
    for _ in range(20):
        shape = tuple(int(d) for d in rng.integers(2, 6, size=3))
        t = rng.standard_normal(shape)
        out = hosvd(t, shape)
        err = fro_norm(t - tucker_assemble(out.core, out.factors)) / fro_norm(t)
        assert err <= 1e-10
    for _ in range(100):
        shape = tuple(int(d) for d in rng.integers(2, 6, size=3))
        ranks = tuple(int(rng.integers(1, d + 1)) for d in shape)
        t = rng.standard_normal(shape)
        hist = hooi(t, ranks).objective_history
        assert (np.diff(hist) >= -1e-12).all()
    _report("3 HOSVD full-rank 1e-10 + HOOI monotone core norms (100 instances): PASS")


def test_criterion_4_exact_model_recovery():
    start = time.monotonic()
    rng = np.random.default_rng(0)
    data = separated_block_data(rng, 20, (10, 10), (10, 10), 5, (2, 2), (2, 2), decay=0.4)
    model = _track(fit_hopls(data.x, data.y, FitConfig(5, (2, 2), (2, 2), center=False)))
    val_q2 = q_squared(data.y_val, predict_hopls(model, data.x_val))
    elapsed = time.monotonic() - start
    assert val_q2 >= 0.99
    assert elapsed < 30.0
    _report(f"4 exact-model recovery (val Q2={val_q2:.6f}, {elapsed:.1f}s): PASS")


@pytest.fixture(scope="module")
def matrix_response_runs():
    """50 seeds of the exact linear-response setup, both methods, R=5."""
    sample_se_h, sample_se_p = [], []
    train_q2 = None
    for i in range(50):
        spec = SynthSpec.from_case("mr", math.inf, seed=_derive(0, i))
        data = generate(spec)
        model = _track(fit_hopls2(data.x, data.y, FitConfig.uniform(5, 5, 4)))
        if train_q2 is None:
            train_q2 = 1.0 - model.y_residual_norms[-1] ** 2 / fro_norm(data.y) ** 2
        pred_h = predict_hopls2(model, data.x_val)
        x2 = matricize(data.x, 0)
        pls = fit_pls_nipals(x2, data.y, 5)
        pred_p = predict_pls(pls, matricize(data.x_val, 0))
        sample_se_h.extend(((data.y_val - pred_h) ** 2).sum(axis=1))
        sample_se_p.extend(((data.y_val - pred_p) ** 2).sum(axis=1))
    return train_q2, np.array(sample_se_h), np.array(sample_se_p)


def test_criterion_5_linear_response_replication(matrix_response_runs):
    train_q2, se_h, se_p = matrix_response_runs
    assert train_q2 >= 0.999
    med_h = float(np.median(se_h))
    med_p = float(np.median(se_p))
    assert med_h <= med_p
    _report(
        f"5 linear-response replication (train Q2={train_q2:.6f}, "
        f"median SE {med_h:.1f} <= {med_p:.1f}): PASS"
    )


# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def noise_benchmark():
    """Criterion 6 workload: Case-2 scale, both generators, 4 SNRs, 50 repeats."""
    start = time.monotonic()
    medians = {}
    for case in ("2m", "2t"):
        for snr in (10.0, 5.0, 0.0, -5.0):
            spec = SynthSpec.from_case(case, snr, seed=0)
            result = benchmark_case(spec, repeats=50, hooi_settings=BENCH_HOOI)
            for method in result.methods:
                medians[(case, snr, method)] = float(np.median(result.q2[method]))
    return medians, time.monotonic() - start


def test_criterion_6_runtime(noise_benchmark):
    _, elapsed = noise_benchmark
    assert elapsed < 15 * 60
    _report(f"6 noise-robustness benchmark runtime ({elapsed/60:.1f} min < 15 min): PASS")


def test_criterion_6_low_snr_ordering_tucker(noise_benchmark):
    medians, _ = noise_benchmark
    h = medians[("2t", -5.0, "hopls")]
    p = medians[("2t", -5.0, "pls")]
    assert h > p
    _report(f"6 tucker-structured -5dB ordering (HOPLS {h:.4f} > PLS {p:.4f}): PASS")


def test_criterion_6_low_snr_ordering_matrix(noise_benchmark):
    """Known shortfall, kept as stated rather than weakened.

    On matrix-structured data (no multiway structure in the trailing modes)
    the two-way baseline is the right model class, and under the global
    Frobenius SNR definition -5 dB sits past the recoverability threshold
    (an oracle prediction of the clean signal scores at most ~0.24 against
    the observed response). Measured medians over 50 repeats put PLS
    slightly ahead at 0 dB and below, with near-ties above; at -5 dB HOPLS
    wins 5 of the 50 paired repeats (exact sign test p < 0.001). The same
    ordering on the Tucker-structured generator (previous test) is no firmer
    evidence: there HOPLS wins 24 of 50 paired repeats (sign p = 0.89), and
    its median is above PLS's under ``BENCH_HOOI`` (-0.0847 > -0.0875) but
    below it under the default ``HooiSettings()`` (-0.0890 < -0.0875).
    """
    medians, _ = noise_benchmark
    h = medians[("2m", -5.0, "hopls")]
    p = medians[("2m", -5.0, "pls")]
    assert h > p, (
        f"median Q2 at -5dB: HOPLS {h:.4f} vs PLS {p:.4f} - see docstring"
    )
    _report(f"6 matrix-structured -5dB ordering (HOPLS {h:.4f} > PLS {p:.4f}): PASS")


def test_criterion_6_monotone_degradation(noise_benchmark):
    medians, _ = noise_benchmark
    snrs = (10.0, 5.0, 0.0, -5.0)
    for case in ("2m", "2t"):
        for method in ("hopls", "npls", "pls"):
            seq = [medians[(case, snr, method)] for snr in snrs]
            rises = [max(0.0, b - a) for a, b in zip(seq, seq[1:])]
            violations = [r for r in rises if r > 0.0]
            assert len(violations) <= 1, (case, method, seq)
            assert all(r <= 0.02 for r in violations), (case, method, seq)
    _report("6 median Q2 non-increasing as SNR drops (<=1 inversion <=0.02): PASS")


def test_criterion_7_lambda_trend():
    wins = 0
    pairs = []
    for seed in range(10):
        lams = {}
        for snr in (10.0, -5.0):
            spec = SynthSpec.from_case("2t", snr, seed=1000 + seed)
            data = generate(spec)
            report = kfold_cv(data.x, data.y, 5, "hopls", 10, 10, hooi_settings=BENCH_HOOI)
            lams[snr] = report.best[1]
        pairs.append((lams[10.0], lams[-5.0]))
        wins += lams[10.0] >= lams[-5.0]
    assert wins >= 8
    _report(f"7 lambda trend 10dB vs -5dB ({wins}/10 seeds, pairs={pairs}): PASS")


def test_criterion_8_rank_one_reduction_and_deflation():
    rng = np.random.default_rng(808)
    t = rng.standard_normal((10, 3))
    x = np.einsum("ir,jr,kr->ijk", t, rng.standard_normal((6, 3)), rng.standard_normal((5, 3)))
    y = np.einsum("ir,jr,kr->ijk", t, rng.standard_normal((4, 3)), rng.standard_normal((6, 3)))
    model = _track(fit_hopls(x, y, FitConfig(3, (1, 1), (1, 1))))
    for comp in model.components:
        block = comp.x_block()
        outer = comp.x_core.ravel()[0] * np.einsum(
            "i,j,k->ijk", comp.t, comp.x_loadings[0][:, 0], comp.x_loadings[1][:, 0]
        )
        assert fro_norm(block - outer) <= 1e-10 * max(fro_norm(block), 1.0)

    assert FITTED_MODELS, "earlier criteria should have registered fits"
    for m in FITTED_MODELS:
        assert (np.diff(m.x_residual_norms) <= 1e-12).all()
        assert (np.diff(m.y_residual_norms) <= 1e-12).all()
    _report(
        f"8 rank-one block structure + deflation monotone across {len(FITTED_MODELS)} fits: PASS"
    )


def test_criterion_9_serialization(tmp_path):
    rng = np.random.default_rng(909)
    data = separated_block_data(rng, 10, (6, 5), (5, 4), 2, (2, 2), (2, 2))
    arr = data.x
    write_tensor(tmp_path / "x.ten", arr)
    assert (read_tensor(tmp_path / "x.ten") == arr).all()

    model = _track(fit_hopls(data.x, data.y, FitConfig(2, (2, 2), (2, 2))))
    save_model(tmp_path / "m.json", model)
    reloaded = load_model(tmp_path / "m.json")
    direct = predict_hopls(model, data.x_val)
    via_file = predict_hopls(reloaded, data.x_val)
    assert (direct == via_file).all()
    _report("9 tensor/model round-trips bit-exact, reloaded predictions identical: PASS")


def test_criterion_10_cli_determinism(tmp_path):
    for sub in ("a", "b"):
        out = tmp_path / sub
        code = cli_main(
            ["synth", "--case", "2t", "--snr", "0", "--seed", "21", "--out-dir", str(out)]
        )
        assert code == 0
        code = cli_main([
            "fit", "--algo", "hopls", "--x", str(out / "X.ten"), "--y", str(out / "Y.ten"),
            "--r", "3", "--lambda", "2", "--out", str(out / "model.json"),
        ])
        assert code == 0
        code = cli_main([
            "predict", "--model", str(out / "model.json"), "--x", str(out / "Xv.ten"),
            "--out", str(out / "pred.ten"),
        ])
        assert code == 0
        code = cli_main([
            "bench", "--case", "2m", "--repeats", "1", "--snr-list", "5", "--seed", "4",
            "--r-max", "2", "--lambda-max", "2", "--out", str(out / "bench.json"),
        ])
        assert code == 0
    a, b = tmp_path / "a", tmp_path / "b"
    for name in ("X.ten", "Y.ten", "Xv.ten", "Yv.ten", "manifest.json",
                 "model.json", "pred.ten", "bench.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    checksums = [json.loads((d / "model.json").read_bytes())["checksum"] for d in (a, b)]
    assert checksums[0] == checksums[1]
    _report("10 byte-identical artifacts under re-run: PASS")
