import base64
import hashlib
import json

import numpy as np
import pytest

from blocks import separated_block_data
from tensorpls import (
    ALGORITHMS,
    FileFormatError,
    FitConfig,
    fit_hopls,
    fit_hopls2,
    load_model,
    read_tensor,
    save_model,
    write_tensor,
)
from tensorpls.cli import main as cli_main
from tensorpls.fileio import model_checksum
from tensorpls.regression import algorithm


class TestTensorFile:
    @pytest.mark.parametrize("shape", [(1,), (7,), (3, 4), (2, 3, 4), (2, 2, 2, 2)])
    def test_round_trip_bit_exact(self, tmp_path, shape):
        rng = np.random.default_rng(hash(shape) % 2**32)
        arr = rng.standard_normal(shape)
        path = tmp_path / "t.ten"
        write_tensor(path, arr)
        back = read_tensor(path)
        assert back.shape == arr.shape
        assert (back == arr).all()

    def test_header_is_single_ascii_line(self, tmp_path):
        path = tmp_path / "t.ten"
        write_tensor(path, np.arange(6.0).reshape(2, 3))
        first = path.read_bytes().split(b"\n", 1)[0]
        assert first == b"TEN1 2 2,3 f64 row-major"

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "t.ten"
        path.write_bytes(b"NOPE 1 1 f64 row-major\n" + b"\x00" * 8)
        with pytest.raises(FileFormatError):
            read_tensor(path)

    def test_rejects_order_dims_mismatch(self, tmp_path):
        path = tmp_path / "t.ten"
        path.write_bytes(b"TEN1 2 3 f64 row-major\n" + b"\x00" * 24)
        with pytest.raises(FileFormatError):
            read_tensor(path)

    def test_rejects_trailing_garbage(self, tmp_path):
        path = tmp_path / "t.ten"
        write_tensor(path, np.ones(3))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FileFormatError):
            read_tensor(path)

    def test_rejects_short_payload(self, tmp_path):
        path = tmp_path / "t.ten"
        write_tensor(path, np.ones(3))
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(FileFormatError):
            read_tensor(path)

    def test_rejects_non_finite_payload(self, tmp_path):
        path = tmp_path / "t.ten"
        payload = np.array([1.0, np.nan]).astype("<f8").tobytes()
        path.write_bytes(b"TEN1 1 2 f64 row-major\n" + payload)
        with pytest.raises(FileFormatError):
            read_tensor(path)

    def test_rejects_unknown_tags(self, tmp_path):
        path = tmp_path / "t.ten"
        path.write_bytes(b"TEN1 1 1 f32 row-major\n" + b"\x00" * 4)
        with pytest.raises(FileFormatError):
            read_tensor(path)
        path.write_bytes(b"TEN1 1 1 f64 col-major\n" + b"\x00" * 8)
        with pytest.raises(FileFormatError):
            read_tensor(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileFormatError):
            read_tensor(tmp_path / "absent.ten")

    def test_write_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(3)
        arr = rng.standard_normal((4, 5))
        write_tensor(tmp_path / "a.ten", arr)
        write_tensor(tmp_path / "b.ten", arr)
        assert (tmp_path / "a.ten").read_bytes() == (tmp_path / "b.ten").read_bytes()


@pytest.fixture(scope="module")
def block_data():
    rng = np.random.default_rng(0)
    return separated_block_data(rng, 12, (6, 5), (5, 4), 2, (2, 2), (2, 2))


@pytest.fixture(scope="module")
def hopls_model(block_data):
    return fit_hopls(block_data.x, block_data.y, FitConfig(2, (2, 2), (2, 2)))


class TestModelFile:
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_round_trip_predictions(self, tmp_path, block_data, name):
        # hopls2 takes a matrix response, every other entry the tensor one
        y = block_data.y[:, :, 0] if name == "hopls2" else block_data.y
        algo = algorithm(name, y.ndim)
        lam = algo.fixed_lam or 2
        model = algo.fit(block_data.x, y, algo.config(2, lam, 3, y.ndim))
        path = tmp_path / "m.json"
        save_model(path, model)
        assert json.loads(path.read_bytes())["algo"] == algo.tag
        direct = algo.predict(model, block_data.x_val)
        assert (algo.predict(load_model(path), block_data.x_val) == direct).all()

        files = {"x": tmp_path / "x.ten", "y": tmp_path / "y.ten", "xv": tmp_path / "xv.ten"}
        for key, arr in (("x", block_data.x), ("y", y), ("xv", block_data.x_val)):
            write_tensor(files[key], arr)
        lam_args = [] if algo.fixed_lam else ["--lambda", str(lam)]
        assert cli_main([
            "fit", "--algo", name, "--x", str(files["x"]), "--y", str(files["y"]),
            "--r", "2", *lam_args, "--out", str(tmp_path / "cli.json"),
        ]) == 0
        assert cli_main([
            "predict", "--model", str(tmp_path / "cli.json"), "--x", str(files["xv"]),
            "--out", str(tmp_path / "pred.ten"),
        ]) == 0
        assert (read_tensor(tmp_path / "pred.ten") == direct).all()

    def test_save_is_deterministic(self, tmp_path, hopls_model):
        save_model(tmp_path / "a.json", hopls_model)
        save_model(tmp_path / "b.json", hopls_model)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_checksum_detects_corruption(self, tmp_path, hopls_model):
        path = tmp_path / "m.json"
        save_model(path, hopls_model)
        doc = json.loads(path.read_bytes())
        doc["x_shape"] = [9, 9]
        path.write_bytes(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode())
        with pytest.raises(FileFormatError, match="checksum"):
            load_model(path)

    def test_checksum_matches_stated(self, tmp_path, hopls_model):
        path = tmp_path / "m.json"
        stated = save_model(path, hopls_model)
        assert model_checksum(path) == stated

    def test_rejects_non_model_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_bytes(b'{"hello": 1}')
        with pytest.raises(FileFormatError):
            load_model(path)

    def test_config_echo_preserved(self, tmp_path, hopls_model):
        path = tmp_path / "m.json"
        save_model(path, hopls_model)
        back = load_model(path)
        assert back.config == hopls_model.config
        assert back.stop_reason == hopls_model.stop_reason
        assert back.x_residual_norms == hopls_model.x_residual_norms


def rewrite_model(path, edit):
    """Apply ``edit`` to a saved model document and re-seal its checksum."""
    doc = json.loads(path.read_bytes())
    edit(doc)
    doc.pop("checksum")
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    doc["checksum"] = hashlib.sha256(payload).hexdigest()
    path.write_bytes(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode())


def array_record(arr):
    return {"shape": list(arr.shape), "data": base64.b64encode(arr.tobytes()).decode()}


class TestModelConsistency:
    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d.update(score_operator=array_record(np.ones((7, 2)))),
            lambda d: d.update(response_operator=array_record(np.ones((20, 1)))),
            lambda d: d.update(x_residual_norms=d["x_residual_norms"][:-1]),
            lambda d: d.update(stop_reason="tired"),
            lambda d: d.update(y_mean=array_record(np.ones(3))),
            lambda d: d.update(algo="npls"),
        ],
        ids=["score_operator", "response_operator", "norm_count", "stop_reason", "y_mean", "tag"],
    )
    def test_inconsistent_model_is_rejected(self, tmp_path, hopls_model, edit):
        path = tmp_path / "m.json"
        save_model(path, hopls_model)
        rewrite_model(path, edit)
        with pytest.raises(FileFormatError):
            load_model(path)

    def test_derived_response_operator_is_checked(self, tmp_path, block_data):
        model = fit_hopls2(block_data.x, block_data.y[:, :, 0], FitConfig(2, (2, 2)))
        path = tmp_path / "m.json"
        save_model(path, model)
        rewrite_model(path, lambda d: d["components"][1].update(q=array_record(np.ones(3))))
        with pytest.raises(FileFormatError):
            load_model(path)
