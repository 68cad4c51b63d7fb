import base64
import hashlib
import io
import json
import os
import stat
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from tensorpls import (
    FitConfig,
    fit_hopls,
    kfold_cv,
    load_model,
    read_tensor,
    save_model,
    write_tensor,
)
from tensorpls import regression
from tensorpls.cli import EXIT_NUMERIC, EXIT_OK, EXIT_PARSE, EXIT_USAGE, main
from tensorpls.regression import algorithm, algorithm_of


def run(args):
    return main(args)


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    assert run(["synth", "--case", "2m", "--snr", "10", "--seed", "7", "--out-dir", str(out)]) == EXIT_OK
    return out


class TestSynth:
    def test_writes_expected_files(self, synth_dir):
        for name in ("X.ten", "Y.ten", "Xv.ten", "Yv.ten", "manifest.json"):
            assert (synth_dir / name).exists()
        assert read_tensor(synth_dir / "X.ten").shape == (10, 10, 10)

    def test_case_shapes(self, tmp_path):
        out = tmp_path / "c1"
        run(["synth", "--case", "1m", "--snr", "0", "--seed", "1", "--out-dir", str(out)])
        assert read_tensor(out / "X.ten").shape == (20, 10, 10)
        out = tmp_path / "mr"
        run(["synth", "--case", "mr", "--snr", "inf", "--seed", "1", "--out-dir", str(out)])
        assert read_tensor(out / "X.ten").shape == (5, 5, 5, 5)
        assert read_tensor(out / "Y.ten").shape == (5, 2)

    def test_inf_snr_marks_noiseless(self, tmp_path):
        out = tmp_path / "clean"
        run(["synth", "--case", "2m", "--snr", "inf", "--seed", "3", "--out-dir", str(out)])
        manifest = json.loads((out / "manifest.json").read_bytes())
        assert manifest["noiseless"] is True
        assert manifest["snr_db_requested"] == "inf"

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run(["synth", "--case", "2t", "--snr", "5", "--seed", "9", "--out-dir", str(out)])
        for name in ("X.ten", "Y.ten", "Xv.ten", "Yv.ten", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_bad_case_is_usage_error(self, tmp_path):
        assert run(["synth", "--case", "9z", "--snr", "5", "--seed", "1", "--out-dir", str(tmp_path)]) == EXIT_USAGE


class TestFit:
    def test_fit_and_checksum_stable(self, synth_dir, tmp_path):
        m1 = tmp_path / "m1.json"
        m2 = tmp_path / "m2.json"
        base = ["fit", "--algo", "hopls", "--x", str(synth_dir / "X.ten"),
                "--y", str(synth_dir / "Y.ten"), "--r", "3", "--lambda", "2"]
        assert run(base + ["--out", str(m1)]) == EXIT_OK
        assert run(base + ["--out", str(m2)]) == EXIT_OK
        assert json.loads(m1.read_bytes())["checksum"] == json.loads(m2.read_bytes())["checksum"]
        assert m1.read_bytes() == m2.read_bytes()

    def test_npls_rejects_conflicting_lambda(self, synth_dir, tmp_path):
        code = run([
            "fit", "--algo", "npls", "--x", str(synth_dir / "X.ten"),
            "--y", str(synth_dir / "Y.ten"), "--r", "2", "--lambda", "3",
            "--out", str(tmp_path / "m.json"),
        ])
        assert code == EXIT_USAGE

    def test_npls_is_lambda_one(self, synth_dir, tmp_path):
        out = tmp_path / "m.json"
        assert run([
            "fit", "--algo", "npls", "--x", str(synth_dir / "X.ten"),
            "--y", str(synth_dir / "Y.ten"), "--r", "2", "--out", str(out),
        ]) == EXIT_OK
        doc = json.loads(out.read_bytes())
        assert doc["config"]["x_ranks"] == [1, 1]
        assert doc["config"]["y_ranks"] == [1, 1]

    def test_missing_file_is_parse_error(self, synth_dir, tmp_path):
        code = run([
            "fit", "--algo", "hopls", "--x", str(synth_dir / "nope.ten"),
            "--y", str(synth_dir / "Y.ten"), "--r", "2", "--lambda", "2",
            "--out", str(tmp_path / "m.json"),
        ])
        assert code == EXIT_PARSE

    def test_dimension_mismatch_is_numeric_error(self, synth_dir, tmp_path):
        short = tmp_path / "short.ten"
        write_tensor(short, np.zeros((4, 10, 10)) + 1.0)
        code = run([
            "fit", "--algo", "hopls", "--x", str(synth_dir / "X.ten"),
            "--y", str(short), "--r", "2", "--lambda", "2",
            "--out", str(tmp_path / "m.json"),
        ])
        assert code == EXIT_NUMERIC

    def test_rank_out_of_range_is_numeric_error(self, synth_dir, tmp_path):
        code = run([
            "fit", "--algo", "hopls", "--x", str(synth_dir / "X.ten"),
            "--y", str(synth_dir / "Y.ten"), "--r", "2", "--lambda", "11",
            "--out", str(tmp_path / "m.json"),
        ])
        assert code == EXIT_NUMERIC


@pytest.fixture(scope="module")
def model_path(synth_dir, tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "m.json"
    run([
        "fit", "--algo", "hopls", "--x", str(synth_dir / "X.ten"),
        "--y", str(synth_dir / "Y.ten"), "--r", "3", "--lambda", "2",
        "--out", str(path),
    ])
    return path


class TestPredictEval:
    def test_predict_writes_tensor(self, synth_dir, model_path, tmp_path, capsys):
        out = tmp_path / "yhat.ten"
        assert run(["predict", "--model", str(model_path), "--x", str(synth_dir / "Xv.ten"), "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert read_tensor(out).shape == (10, 10, 10)

    def test_predict_single_sample(self, synth_dir, model_path, tmp_path):
        xv = read_tensor(synth_dir / "Xv.ten")[:1]
        xin = tmp_path / "one.ten"
        write_tensor(xin, xv)
        out = tmp_path / "one_out.ten"
        assert run(["predict", "--model", str(model_path), "--x", str(xin), "--out", str(out)]) == EXIT_OK
        assert read_tensor(out).shape == (1, 10, 10)

    def test_predict_inconsistent_model_is_parse_error(self, synth_dir, model_path, tmp_path):
        # a checksum-valid model whose score operator does not fit its shapes
        doc = json.loads(model_path.read_bytes())
        bad = np.ones((7, 2))
        doc["score_operator"] = {
            "shape": [7, 2],
            "data": base64.b64encode(bad.tobytes()).decode(),
        }
        del doc["checksum"]
        canonical = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
        doc["checksum"] = hashlib.sha256(canonical).hexdigest()
        tampered = tmp_path / "tampered.json"
        tampered.write_bytes(json.dumps(doc).encode())
        assert run([
            "predict", "--model", str(tampered), "--x", str(synth_dir / "Xv.ten"),
            "--out", str(tmp_path / "o.ten"),
        ]) == EXIT_PARSE

    def test_predict_shape_mismatch(self, model_path, tmp_path):
        bad = tmp_path / "bad.ten"
        write_tensor(bad, np.ones((2, 10, 9)))
        assert run(["predict", "--model", str(model_path), "--x", str(bad), "--out", str(tmp_path / "o.ten")]) == EXIT_NUMERIC

    def test_eval_identical_files(self, synth_dir, capsys):
        assert run(["eval", "--y-true", str(synth_dir / "Y.ten"), "--y-pred", str(synth_dir / "Y.ten")]) == EXIT_OK
        out = capsys.readouterr().out
        lines = dict(l.split("=", 1) for l in out.strip().splitlines())
        assert float(lines["q2"]) == 1.0
        assert float(lines["rmsep"]) == 0.0

    def test_eval_zero_prediction(self, synth_dir, tmp_path, capsys):
        zero = tmp_path / "zero.ten"
        write_tensor(zero, np.zeros((10, 10, 10)))
        run(["eval", "--y-true", str(synth_dir / "Y.ten"), "--y-pred", str(zero)])
        out = capsys.readouterr().out
        lines = dict(l.split("=", 1) for l in out.strip().splitlines())
        assert float(lines["q2"]) == pytest.approx(0.0, abs=1e-12)

    def test_eval_hand_case(self, tmp_path, capsys):
        a, b = tmp_path / "a.ten", tmp_path / "b.ten"
        write_tensor(a, np.array([1.0, 1.0]))
        write_tensor(b, np.array([1.0, 0.0]))
        run(["eval", "--y-true", str(a), "--y-pred", str(b)])
        lines = dict(
            l.split("=", 1) for l in capsys.readouterr().out.strip().splitlines()
        )
        assert float(lines["q2"]) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# predict streams its batch in row blocks

ROW_FEATURES = (4, 5)  # 160 bytes of input per row
BLOCK_ROWS = 5


@pytest.fixture
def small_blocks(monkeypatch):
    """Prediction blocks of BLOCK_ROWS rows of ROW_FEATURES inputs. The byte
    count is not a multiple of a row: a block holds only whole rows."""
    monkeypatch.setattr(regression, "PREDICT_BLOCK_BYTES", (BLOCK_ROWS * 20 + 7) * 8)


@pytest.fixture(scope="module")
def stream_models(tmp_path_factory):
    """A model file per prediction path: tensor and matrix response, PLS."""
    base = tmp_path_factory.mktemp("stream")
    rng = np.random.default_rng(41)
    x = rng.standard_normal((14, *ROW_FEATURES)) + rng.standard_normal(ROW_FEATURES)
    y3 = rng.standard_normal((14, 3, 2)) + rng.standard_normal((3, 2))
    paths = {}
    for name, y in (("hopls", y3), ("hopls2", y3[:, :, 0]), ("pls", y3)):
        algo = algorithm(name, y.ndim)
        paths[name] = base / f"{name}.json"
        save_model(paths[name], algo.fit(x, y, algo.config(3, algo.fixed_lam or 2, x.ndim, y.ndim)))
    return paths


def batch_file(path, rows, seed=0):
    """A batch of ``rows`` inputs written to ``path``; returns the batch."""
    x = np.random.default_rng(seed).standard_normal((rows, *ROW_FEATURES))
    write_tensor(path, x)
    return x


def cli_predict(model, x, out):
    return run(["predict", "--model", str(model), "--x", str(x), "--out", str(out)])


def in_memory_bytes(model_file, x, tmp_path):
    """The bytes ``write_tensor(predict(model, x))`` writes."""
    model = load_model(model_file)
    path = tmp_path / "in-memory.ten"
    write_tensor(path, algorithm_of(model).predict(model, x))
    return path.read_bytes()


def no_temporary_files(directory):
    return [p.name for p in directory.iterdir() if p.name.endswith(".tmp")] == []


class TestStreamedPredict:
    @pytest.mark.parametrize("name", ["hopls", "hopls2", "pls"])
    def test_file_is_the_in_memory_prediction(self, stream_models, tmp_path, small_blocks, name):
        """Every batch size, multi-block ones with a ragged last block among them."""
        for rows in (1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS, 4 * BLOCK_ROWS + 2):
            x = batch_file(tmp_path / "x.ten", rows, seed=rows)
            assert cli_predict(stream_models[name], tmp_path / "x.ten", tmp_path / "p.ten") == EXIT_OK
            want = in_memory_bytes(stream_models[name], x, tmp_path)
            assert (tmp_path / "p.ten").read_bytes() == want, rows

    def test_non_finite_entry_in_the_last_block_leaves_the_old_output(
        self, stream_models, tmp_path, small_blocks
    ):
        batch_file(tmp_path / "x.ten", 4 * BLOCK_ROWS + 2)
        raw = bytearray((tmp_path / "x.ten").read_bytes())
        raw[-8:] = np.array([np.nan]).astype("<f8").tobytes()
        (tmp_path / "x.ten").write_bytes(bytes(raw))
        old = tmp_path / "old.ten"
        old.write_bytes(b"previous bytes")
        assert cli_predict(stream_models["hopls"], tmp_path / "x.ten", old) == EXIT_PARSE
        assert old.read_bytes() == b"previous bytes"
        assert cli_predict(stream_models["hopls"], tmp_path / "x.ten", tmp_path / "new.ten") == EXIT_PARSE
        assert not (tmp_path / "new.ten").exists()
        assert no_temporary_files(tmp_path)

    def test_short_payload_exits_3(self, stream_models, tmp_path, small_blocks):
        batch_file(tmp_path / "x.ten", 3 * BLOCK_ROWS)
        (tmp_path / "x.ten").write_bytes((tmp_path / "x.ten").read_bytes()[:-8])
        assert cli_predict(stream_models["pls"], tmp_path / "x.ten", tmp_path / "p.ten") == EXIT_PARSE
        assert not (tmp_path / "p.ten").exists()
        assert no_temporary_files(tmp_path)

    def test_trailing_shape_is_checked_before_the_payload(self, stream_models, tmp_path):
        """A wrong trailing shape exits 4 even when the payload would fail to read."""
        bad = tmp_path / "x.ten"
        bad.write_bytes(b"TEN1 3 2,5,4 f64 row-major\n" + np.full(40, np.nan).tobytes())
        assert cli_predict(stream_models["hopls"], bad, tmp_path / "p.ten") == EXIT_NUMERIC
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.ten"]

    def test_out_may_name_the_input(self, stream_models, tmp_path, small_blocks):
        x = batch_file(tmp_path / "x.ten", 3 * BLOCK_ROWS + 1)
        want = in_memory_bytes(stream_models["hopls"], x, tmp_path)
        assert cli_predict(stream_models["hopls"], tmp_path / "x.ten", tmp_path / "x.ten") == EXIT_OK
        assert (tmp_path / "x.ten").read_bytes() == want

    def test_out_naming_a_directory_exits_3(self, stream_models, tmp_path, small_blocks):
        batch_file(tmp_path / "x.ten", 2 * BLOCK_ROWS)
        (tmp_path / "d").mkdir()
        assert cli_predict(stream_models["hopls"], tmp_path / "x.ten", tmp_path / "d") == EXIT_PARSE
        assert (tmp_path / "d").is_dir() and list((tmp_path / "d").iterdir()) == []
        assert no_temporary_files(tmp_path)

    def test_output_mode_is_the_one_open_gives(self, stream_models, tmp_path):
        batch_file(tmp_path / "x.ten", 3)
        umask = os.umask(0o022)
        os.umask(umask)
        assert cli_predict(stream_models["hopls"], tmp_path / "x.ten", tmp_path / "p.ten") == EXIT_OK
        assert stat.S_IMODE((tmp_path / "p.ten").stat().st_mode) == 0o666 & ~umask
        # open(path, "wb") keeps the mode of a file that is there
        os.chmod(tmp_path / "p.ten", 0o600)
        assert cli_predict(stream_models["hopls"], tmp_path / "x.ten", tmp_path / "p.ten") == EXIT_OK
        assert stat.S_IMODE((tmp_path / "p.ten").stat().st_mode) == 0o600

    def test_memory_is_bounded_by_the_block_not_the_batch(self, tmp_path, monkeypatch):
        """The traced peak of a 12-block predict stays under 4 blocks' bytes plus
        the model's operators; holding the batch takes about 2 x 12 blocks.
        Streaming takes about 2.4 blocks, the rest is argument parsing and
        model loading."""
        block = 512 << 10
        monkeypatch.setattr(regression, "PREDICT_BLOCK_BYTES", block)
        rng = np.random.default_rng(43)
        x, y = rng.standard_normal((10, 8, 8)), rng.standard_normal((10, 8, 8))
        model = fit_hopls(x, y, FitConfig(2, (2, 2), (2, 2)))
        save_model(tmp_path / "m.json", model)
        write_tensor(tmp_path / "x.ten", rng.standard_normal((12 * block // (8 * 64), 8, 8)))
        operators = model.score_operator.nbytes + model.response_operator.nbytes
        tracemalloc.start()
        try:
            assert cli_predict(tmp_path / "m.json", tmp_path / "x.ten", tmp_path / "p.ten") == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * block + operators


class TestCv:
    def test_single_cell_grid(self, synth_dir, capsys):
        assert run([
            "cv", "--algo", "hopls", "--x", str(synth_dir / "X.ten"),
            "--y", str(synth_dir / "Y.ten"), "--folds", "5",
            "--r-max", "1", "--lambda-max", "1",
        ]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("r=1 lambda=1 q2=")
        assert "best_r=1 best_lambda=1" in out

    def test_grid_bounded_and_report_written(self, synth_dir, tmp_path, capsys):
        report = tmp_path / "cv.json"
        assert run([
            "cv", "--algo", "hopls", "--x", str(synth_dir / "X.ten"),
            "--y", str(synth_dir / "Y.ten"), "--folds", "5",
            "--r-max", "3", "--lambda-max", "4", "--out", str(report),
        ]) == EXIT_OK
        capsys.readouterr()
        doc = json.loads(report.read_bytes())
        assert 1 <= len(doc["grid"]) <= 12
        assert all(row["r"] <= 3 and row["lambda"] <= 4 for row in doc["grid"])
        assert doc["best"]["q2"] == max(row["q2"] for row in doc["grid"])


class TestFitVariants:
    def test_explicit_loading_lists(self, synth_dir, tmp_path):
        out = tmp_path / "m.json"
        assert run([
            "fit", "--algo", "hopls", "--x", str(synth_dir / "X.ten"),
            "--y", str(synth_dir / "Y.ten"), "--r", "2", "--l", "2,3",
            "--k", "3,2", "--out", str(out),
        ]) == EXIT_OK
        doc = json.loads(out.read_bytes())
        assert doc["config"]["x_ranks"] == [2, 3]
        assert doc["config"]["y_ranks"] == [3, 2]

    def test_lambda_and_l_conflict(self, synth_dir, tmp_path):
        assert run([
            "fit", "--algo", "hopls", "--x", str(synth_dir / "X.ten"),
            "--y", str(synth_dir / "Y.ten"), "--r", "2", "--lambda", "2",
            "--l", "2,2", "--out", str(tmp_path / "m.json"),
        ]) == EXIT_USAGE

    def test_pls_fit_predict_on_tensor_files(self, synth_dir, tmp_path):
        model = tmp_path / "pls.json"
        assert run([
            "fit", "--algo", "pls", "--x", str(synth_dir / "X.ten"),
            "--y", str(synth_dir / "Y.ten"), "--r", "3", "--out", str(model),
        ]) == EXIT_OK
        out = tmp_path / "pred.ten"
        assert run([
            "predict", "--model", str(model), "--x", str(synth_dir / "Xv.ten"),
            "--out", str(out),
        ]) == EXIT_OK
        assert read_tensor(out).shape == (10, 10, 10)

    def test_hopls2_fit_predict_on_matrix_response(self, tmp_path):
        data_dir = tmp_path / "mr"
        run(["synth", "--case", "mr", "--snr", "inf", "--seed", "2", "--out-dir", str(data_dir)])
        model = tmp_path / "h2.json"
        assert run([
            "fit", "--algo", "hopls2", "--x", str(data_dir / "X.ten"),
            "--y", str(data_dir / "Y.ten"), "--r", "3", "--lambda", "3",
            "--epsilon", "1e-10", "--out", str(model),
        ]) == EXIT_OK
        out = tmp_path / "pred.ten"
        assert run([
            "predict", "--model", str(model), "--x", str(data_dir / "Xv.ten"),
            "--out", str(out),
        ]) == EXIT_OK
        assert read_tensor(out).shape == (5, 2)

    def test_pls_reports_stop_reason(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        x = (rng.standard_normal((8, 2)) @ rng.standard_normal((2, 12))).reshape(8, 3, 4)
        y = (x.reshape(8, 12) @ rng.standard_normal((12, 6))).reshape(8, 2, 3)
        write_tensor(tmp_path / "x.ten", x)
        write_tensor(tmp_path / "y.ten", y)
        assert run([
            "fit", "--algo", "pls", "--x", str(tmp_path / "x.ten"),
            "--y", str(tmp_path / "y.ten"), "--r", "5", "--out", str(tmp_path / "m.json"),
        ]) == EXIT_OK
        assert "achieved=2 stop_reason=epsilon" in capsys.readouterr().out

    def test_pls_rejects_lambda(self, synth_dir, tmp_path):
        assert run([
            "fit", "--algo", "pls", "--x", str(synth_dir / "X.ten"),
            "--y", str(synth_dir / "Y.ten"), "--r", "2", "--lambda", "3",
            "--out", str(tmp_path / "m.json"),
        ]) == EXIT_USAGE

    def test_hopls_on_matrix_response_runs_hopls2(self, tmp_path):
        data_dir = tmp_path / "mr"
        run(["synth", "--case", "mr", "--snr", "inf", "--seed", "3", "--out-dir", str(data_dir)])
        model = tmp_path / "h.json"
        assert run([
            "fit", "--algo", "hopls", "--x", str(data_dir / "X.ten"),
            "--y", str(data_dir / "Y.ten"), "--r", "2", "--lambda", "2", "--out", str(model),
        ]) == EXIT_OK
        assert json.loads(model.read_bytes())["algo"] == "hopls2"

    def test_npls_on_matrix_response(self, tmp_path):
        data_dir = tmp_path / "mr"
        run(["synth", "--case", "mr", "--snr", "inf", "--seed", "3", "--out-dir", str(data_dir)])
        model = tmp_path / "npls.json"
        assert run([
            "fit", "--algo", "npls", "--x", str(data_dir / "X.ten"),
            "--y", str(data_dir / "Y.ten"), "--r", "2", "--out", str(model),
        ]) == EXIT_OK
        assert json.loads(model.read_bytes())["algo"] == "hopls2"

    def test_pls_honours_epsilon(self, synth_dir, tmp_path, capsys):
        assert run([
            "fit", "--algo", "pls", "--x", str(synth_dir / "X.ten"),
            "--y", str(synth_dir / "Y.ten"), "--r", "3", "--epsilon", "1e9",
            "--out", str(tmp_path / "m.json"),
        ]) == EXIT_OK
        assert "achieved=0 stop_reason=epsilon" in capsys.readouterr().out

    def test_nan_epsilon_is_numeric_error(self, synth_dir, tmp_path):
        assert run([
            "fit", "--algo", "hopls", "--x", str(synth_dir / "X.ten"),
            "--y", str(synth_dir / "Y.ten"), "--r", "2", "--lambda", "2",
            "--epsilon", "nan", "--out", str(tmp_path / "m.json"),
        ]) == EXIT_NUMERIC

    @pytest.mark.parametrize("extra", [
        ["--algo", "hopls", "--lambda", "2", "--k", "1,1"],
        ["--algo", "npls", "--k", "3,3"],
        ["--algo", "hopls", "--l", "2,2", "--k", ""],
    ], ids=["hopls-lambda", "npls", "hopls-empty"])
    def test_unused_k_is_usage_error(self, synth_dir, tmp_path, extra):
        assert run([
            "fit", "--x", str(synth_dir / "X.ten"), "--y", str(synth_dir / "Y.ten"),
            "--r", "2", "--out", str(tmp_path / "m.json"), *extra,
        ]) == EXIT_USAGE

    @pytest.mark.parametrize("algo", ["hopls", "hopls2"])
    def test_k_on_matrix_response_is_usage_error(self, tmp_path, algo):
        data_dir = tmp_path / "mr"
        run(["synth", "--case", "mr", "--snr", "inf", "--seed", "3", "--out-dir", str(data_dir)])
        assert run([
            "fit", "--algo", algo, "--x", str(data_dir / "X.ten"),
            "--y", str(data_dir / "Y.ten"), "--r", "2", "--l", "2,2,2", "--k", "1",
            "--out", str(tmp_path / "m.json"),
        ]) == EXIT_USAGE

    def test_no_center_round_trips_through_model(self, synth_dir, tmp_path):
        out = tmp_path / "m.json"
        assert run([
            "fit", "--algo", "hopls", "--x", str(synth_dir / "X.ten"),
            "--y", str(synth_dir / "Y.ten"), "--r", "2", "--lambda", "2",
            "--no-center", "--out", str(out),
        ]) == EXIT_OK
        doc = json.loads(out.read_bytes())
        assert doc["config"]["center"] is False
        assert doc["x_mean"] is None


class TestCvVariants:
    def test_no_center_reaches_the_fits(self, tmp_path, capsys):
        data_dir = tmp_path / "2t"
        run(["synth", "--case", "2t", "--snr", "5", "--seed", "9", "--out-dir", str(data_dir)])
        argv = ["cv", "--algo", "hopls", "--x", str(data_dir / "X.ten"),
                "--y", str(data_dir / "Y.ten"), "--r-max", "3", "--lambda-max", "3"]
        grids = {}
        for flag in ((), ("--no-center",)):
            out = tmp_path / f"cv{len(flag)}.json"
            assert run(argv + [*flag, "--out", str(out)]) == EXIT_OK
            rows = json.loads(out.read_bytes())["grid"]
            grids[flag] = {(row["r"], row["lambda"]): row["q2"] for row in rows}
        capsys.readouterr()
        uncentred = grids[("--no-center",)]
        assert uncentred != grids[()]
        report = kfold_cv(
            read_tensor(data_dir / "X.ten"), read_tensor(data_dir / "Y.ten"), 5, "hopls", 3, 3,
            center=False,
        )
        assert uncentred == report.grid

    def test_npls_cv_on_matrix_response(self, tmp_path, capsys):
        data_dir = tmp_path / "mr"
        run(["synth", "--case", "mr", "--snr", "inf", "--seed", "4", "--out-dir", str(data_dir)])
        assert run([
            "cv", "--algo", "npls", "--x", str(data_dir / "X.ten"),
            "--y", str(data_dir / "Y.ten"), "--folds", "5", "--r-max", "2",
        ]) == EXIT_OK
        out = capsys.readouterr().out
        assert "best_lambda=1" in out


class TestBench:
    def test_smoke_and_row_count(self, tmp_path, capsys):
        report = tmp_path / "bench.json"
        assert run([
            "bench", "--case", "2m", "--repeats", "2", "--snr-list", "10",
            "--seed", "5", "--r-max", "3", "--lambda-max", "2",
            "--out", str(report),
        ]) == EXIT_OK
        capsys.readouterr()
        doc = json.loads(report.read_bytes())
        assert len(doc["rows"]) == 2 * 3 * 1  # repeats x methods x snrs
        methods = {row["method"] for row in doc["rows"]}
        assert methods == {"hopls", "npls", "pls"}

    def test_deterministic_report(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["bench", "--case", "2m", "--repeats", "1", "--snr-list", "5",
                "--seed", "3", "--r-max", "2", "--lambda-max", "2"]
        run(args + ["--out", str(a)])
        run(args + ["--out", str(b)])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_two_repeat_default_grid_under_a_minute(self, tmp_path, capsys):
        import time

        start = time.monotonic()
        assert run([
            "bench", "--case", "2t", "--repeats", "2", "--snr-list", "0",
            "--seed", "6", "--out", str(tmp_path / "b.json"),
        ]) == EXIT_OK
        capsys.readouterr()
        assert time.monotonic() - start < 60.0


class TestExitCodes:
    """Inputs that once ended in a traceback get their documented exit code."""

    @pytest.mark.parametrize("argv, code", [
        ("cv --algo hopls --x {x} --y {y} --r-max 0", EXIT_USAGE),
        ("cv --algo hopls --x {x} --y {y} --r-max 2 --lambda-max 0", EXIT_USAGE),
        ("bench --case 2t --seed 1 --r-max 0", EXIT_USAGE),
        ("bench --case 2t --seed 1 --lambda-max 0", EXIT_USAGE),
        ("bench --case 2t --seed 1 --repeats 0", EXIT_USAGE),
        ("synth --case 2t --seed 1 --latent 0 --out-dir {tmp}/z", EXIT_USAGE),
        ("cv --algo hopls --x {vec} --y {vec} --r-max 1", EXIT_NUMERIC),
        ("fit --algo hopls --x {zero} --y {zero} --r 1 --lambda 1 --out {tmp}/m.json",
         EXIT_NUMERIC),
        ("predict --model {x} --x {x} --out {tmp}/p.ten", EXIT_PARSE),
        ("fit --algo hopls --x {x} --y {y} --r 0 --lambda 1 --out {tmp}/m.json", EXIT_USAGE),
        ("cv --algo hopls --x {x} --y {y} --r-max 1 --folds 0", EXIT_USAGE),
        ("cv --algo hopls --x {x} --y {y} --r-max 1 --folds 1", EXIT_USAGE),
        ("bench --case 2t --seed 1 --folds 1", EXIT_USAGE),
        ("synth --case 2t --seed -1 --out-dir {tmp}/z", EXIT_USAGE),
        ("synth --case 2t --seed 1 --noise-seed -3 --out-dir {tmp}/z", EXIT_USAGE),
        ("bench --case 2t --seed -1", EXIT_USAGE),
        ("synth --case 2t --snr=-inf --seed 1 --out-dir {tmp}/z", EXIT_USAGE),
        ("bench --case 2t --seed 1 --snr-list 10,-inf", EXIT_USAGE),
        ("fit --algo hopls --x {x} --y {y} --r 1 --lambda 0 --out {tmp}/m.json", EXIT_USAGE),
        ("fit --algo hopls --x {x} --y {y} --r 1 --l 0,2 --out {tmp}/m.json", EXIT_USAGE),
    ], ids=[
        "cv-r-max", "cv-lambda-max", "bench-r-max", "bench-lambda-max", "bench-repeats",
        "synth-latent", "cv-order-1", "fit-all-zero", "predict-non-utf8-model",
        "fit-r", "cv-folds-0", "cv-folds-1", "bench-folds", "synth-seed",
        "synth-noise-seed", "bench-seed", "synth-snr-minus-inf", "bench-snr-list-minus-inf",
        "fit-lambda-0", "fit-l-entry-0",
    ])
    def test_exit_code(self, synth_dir, tmp_path, capsys, argv, code):
        vec, zero = tmp_path / "vec.ten", tmp_path / "zero.ten"
        write_tensor(vec, np.arange(1.0, 4.0))
        write_tensor(zero, np.zeros((2, 2, 2)))
        paths = {"x": synth_dir / "X.ten", "y": synth_dir / "Y.ten",
                 "vec": vec, "zero": zero, "tmp": tmp_path}
        assert run(argv.format(**paths).split()) == code
        assert "Traceback" not in capsys.readouterr().err


    def test_failed_allocation_exits_4(self, tmp_path, capsys, monkeypatch):
        def generate(spec):
            raise MemoryError("Unable to allocate 72.8 TiB")

        monkeypatch.setattr("tensorpls.cli.generate", generate)
        argv = ["synth", "--case", "2t", "--seed", "0", "--out-dir", str(tmp_path / "e")]
        assert run(argv) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "s"
        proc = subprocess.run(
            [sys.executable, "-m", "tensorpls", "synth", "--case", "2m",
             "--snr", "inf", "--seed", "1", "--out-dir", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert (out / "manifest.json").exists()

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tensorpls", "fit", "--bogus"],
            capture_output=True,
        )
        assert proc.returncode == EXIT_USAGE

    def test_no_command_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tensorpls"], capture_output=True
        )
        assert proc.returncode == EXIT_USAGE


# ---------------------------------------------------------------------------
# property: any argv on tiny inputs ends in a documented exit code


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    """Tiny input files, good and broken, and two fitted models."""
    base = tmp_path_factory.mktemp("argv")
    rng = np.random.default_rng(31)
    files = {name: base / f"{name}.ten" for name in ("x3", "y3", "y2", "x4", "vec", "zero")}
    for name, shape in (("x3", (6, 3, 2)), ("y3", (6, 2, 2)), ("y2", (6, 2)),
                        ("x4", (6, 2, 2, 2)), ("vec", (6,))):
        write_tensor(files[name], rng.standard_normal(shape))
    write_tensor(files["zero"], np.zeros((6, 2, 2)))
    files["garbage"] = base / "garbage.ten"
    files["garbage"].write_bytes(b"TEN1 2 6,3 f64 row-major\n" + b"\x00" * 7)
    files["missing"] = base / "missing.ten"
    for algo, lam in (("hopls", ["--lambda", "1"]), ("pls", [])):
        files[algo] = base / f"{algo}.json"
        assert main(["fit", "--algo", algo, "--x", str(files["x3"]), "--y", str(files["y3"]),
                     "--r", "2", *lam, "--out", str(files[algo])]) == EXIT_OK
    files["broken"] = base / "broken.json"
    files["broken"].write_bytes(files["hopls"].read_bytes()[:-40])
    files["out"] = tmp_path_factory.mktemp("argv-out")
    return files


def argv_table(files):
    """Per subcommand: flag -> (good values, bad values, presence).

    A flag with no values is a switch. A ``"required"`` flag is sometimes
    left out, an ``"optional"`` one often, an ``"always"`` one never.
    """
    path = {k: str(v) for k, v in files.items()}
    bad_tensors = [path[k] for k in ("vec", "zero", "garbage", "missing", "hopls")]
    xs, ys = ([path["x3"], path["x4"]], bad_tensors), ([path["y3"], path["y2"]], bad_tensors)
    outs = ([str(files["out"] / "o")], [path["out"], str(files["out"] / "no" / "o")])
    # a directory apart from the file outputs; an existing file cannot be one
    out_dirs = ([str(files["out"] / "synth")], [path["x3"]])
    switch = ((), (), "optional")
    counts = (["1", "2", "3"], ["0", "-1", "x", "1.5"])
    algos = (["hopls", "hopls2", "npls", "pls"], ["bogus"])
    ranks = (["1", "2,1", "1,2,1"], ["0,1", "a", ""])
    snrs = (["inf", "10", "-5"], ["nan", "-inf", "x"])
    folds = (["2", "3"], ["1", "x"], "optional")
    return {
        "synth": {"--case": (["2t", "mr"], ["9z"], "required"), "--snr": (*snrs, "optional"),
                  "--seed": (*counts, "required"), "--noise-seed": (*counts, "optional"),
                  "--latent": (*counts, "optional"), "--out-dir": (*out_dirs, "required")},
        "fit": {"--algo": (*algos, "required"), "--x": (*xs, "required"),
                "--y": (*ys, "required"), "--r": (*counts, "required"),
                "--lambda": (*counts, "optional"), "--l": (*ranks, "optional"),
                "--k": (*ranks, "optional"),
                "--epsilon": (["0", "1e-3"], ["-1", "nan", "x"], "optional"),
                "--no-center": switch, "--out": (*outs, "required")},
        "predict": {"--model": ([path["hopls"], path["pls"]], [path["broken"], path["x3"]],
                                "required"),
                    "--x": (*xs, "required"), "--out": (*outs, "required")},
        "eval": {"--y-true": (*ys, "required"), "--y-pred": (*ys, "required")},
        "cv": {"--algo": (*algos, "required"), "--x": (*xs, "required"),
               "--y": (*ys, "required"), "--folds": folds, "--r-max": (*counts, "required"),
               "--lambda-max": (*counts, "optional"), "--no-center": switch,
               "--out": (*outs, "optional")},
        # the repeat, SNR and grid flags default to a full benchmark: always bound them
        "bench": {"--case": (["2m", "mr"], ["9z"], "required"), "--seed": (*counts, "required"),
                  "--repeats": (["1"], ["0", "x"], "always"),
                  "--snr-list": (["5", "inf,-5"], ["x", "5,-inf"], "always"),
                  "--folds": folds, "--r-max": (["1", "2"], ["0"], "always"),
                  "--lambda-max": (["1", "2"], ["0"], "always"), "--out": (*outs, "optional")},
    }


@st.composite
def argvs(draw, files):
    """A subcommand with its flags. A required flag is left out, and a value
    is a bad one, one time in 15 each; an optional flag is there half the
    time; now and then an unknown token goes in."""
    table = argv_table(files)
    command = draw(st.sampled_from(sorted(table) + ["bogus"]))
    argv = [command]
    one_in_15 = st.integers(0, 14).map(lambda i: i == 0)
    left_out = {"required": one_in_15, "optional": st.booleans(), "always": st.just(False)}
    for flag, (good, bad, presence) in table.get(command, {}).items():
        if draw(left_out[presence]):
            continue
        argv.append(flag)
        if good:
            argv.append(draw(st.sampled_from(bad if draw(one_in_15) else good)))
    if draw(one_in_15):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus", "-h", "7"])))
    return argv


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_any_argv_ends_in_a_documented_exit_code(argv_files, data):
    argv = data.draw(argvs(argv_files))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    event(f"{argv[0]} exits {code}")
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_PARSE, EXIT_NUMERIC), (argv, code)
    assert "Traceback" not in err.getvalue()
