import base64
import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from tensorpls import read_tensor, write_tensor
from tensorpls.cli import EXIT_NUMERIC, EXIT_OK, EXIT_PARSE, EXIT_USAGE, main
from tensorpls.fileio import model_checksum


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
        assert model_checksum(m1) == model_checksum(m2)
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
