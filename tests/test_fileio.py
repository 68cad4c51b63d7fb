import base64
import errno
import hashlib
import io
import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocks import separated_block_data
from tensorpls import (
    ALGORITHMS,
    FileFormatError,
    FitConfig,
    ShapeMismatchError,
    astensor,
    fit_hopls,
    fit_hopls2,
    fit_pls_nipals,
    load_model,
    predict_hopls,
    read_tensor,
    save_model,
    write_tensor,
)
from tensorpls import fileio, regression
from tensorpls.cli import EXIT_NUMERIC, EXIT_PARSE
from tensorpls.cli import main as cli_main
from tensorpls.fileio import TensorReader, TensorWriter
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


class TestStreams:
    def test_reader_yields_row_blocks_of_one_buffer(self, tmp_path):
        arr = np.random.default_rng(4).standard_normal((7, 2, 3))
        write_tensor(tmp_path / "t.ten", arr)
        with TensorReader(tmp_path / "t.ten") as reader:
            assert reader.shape == (7, 2, 3)
            blocks = [(b.copy(), b) for b in reader.blocks(3)]
        assert [b.shape[0] for b, _ in blocks] == [3, 3, 1]
        assert np.shares_memory(blocks[0][1], blocks[2][1])
        assert np.concatenate([b for b, _ in blocks]).tobytes() == arr.tobytes()

    def test_short_read_is_file_format_error(self, tmp_path):
        # the file shrinks after its size was checked; larger than the
        # reader's buffer, so the last block comes from the file itself
        write_tensor(tmp_path / "t.ten", np.ones((3000, 2)))
        with TensorReader(tmp_path / "t.ten") as reader:
            os.truncate(tmp_path / "t.ten", os.path.getsize(tmp_path / "t.ten") - 8)
            blocks = reader.blocks(1000)
            next(blocks), next(blocks)
            with pytest.raises(FileFormatError, match="ended 8 bytes early"):
                next(blocks)

    def test_non_finite_entry_fails_its_own_block(self, tmp_path):
        payload = np.ones((5, 2))
        payload[4, 1] = np.inf
        (tmp_path / "t.ten").write_bytes(b"TEN1 2 5,2 f64 row-major\n" + payload.tobytes())
        with TensorReader(tmp_path / "t.ten") as reader:
            blocks = reader.blocks(2)
            assert [next(blocks).shape[0], next(blocks).shape[0]] == [2, 2]
            with pytest.raises(FileFormatError, match="non-finite"):
                next(blocks)

    def test_writer_writes_the_bytes_of_write_tensor(self, tmp_path):
        arr = np.random.default_rng(5).standard_normal((5, 3))
        write_tensor(tmp_path / "a.ten", arr)
        with TensorWriter(tmp_path / "b.ten", arr.shape) as writer:
            writer.write(arr[:2])
            writer.write(arr[2:])
        assert (tmp_path / "b.ten").read_bytes() == (tmp_path / "a.ten").read_bytes()

    def test_writer_writes_through_a_symlink(self, tmp_path):
        (tmp_path / "target.ten").write_bytes(b"old")
        (tmp_path / "link.ten").symlink_to("target.ten")
        write_tensor(tmp_path / "link.ten", np.ones(2))
        assert (tmp_path / "link.ten").is_symlink()
        assert read_tensor(tmp_path / "target.ten").tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("fault", ["raise", "non-finite", "missing rows"])
    def test_writer_failure_leaves_the_old_file(self, tmp_path, fault):
        (tmp_path / "t.ten").write_bytes(b"old")
        with pytest.raises((FileFormatError, KeyError)):
            with TensorWriter(tmp_path / "t.ten", (4, 2)) as writer:
                writer.write(np.ones((2, 2)))
                if fault == "raise":
                    raise KeyError("caller failed")
                if fault == "non-finite":
                    writer.write(np.full((2, 2), np.nan))
        assert (tmp_path / "t.ten").read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["t.ten"]

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (2, 0, 4), ()])
    def test_writer_refuses_a_shape_the_reader_rejects(self, tmp_path, shape):
        (tmp_path / "t.ten").write_bytes(b"old")
        with pytest.raises(FileFormatError, match="dimension must be >= 1"):
            TensorWriter(tmp_path / "t.ten", shape)
        if shape:
            with pytest.raises(FileFormatError, match="dimension must be >= 1"):
                write_tensor(tmp_path / "t.ten", np.empty(shape))
        assert (tmp_path / "t.ten").read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["t.ten"]

    def test_failed_header_write_closes_and_removes_the_temporary(self, tmp_path, monkeypatch):
        opened = []

        class FullDisk(io.BufferedWriter):
            def write(self, data):
                raise OSError(errno.ENOSPC, "No space left on device")

        def open_full(fd, mode):
            opened.append(FullDisk(io.FileIO(fd, "w")))
            return opened[-1]

        (tmp_path / "t.ten").write_bytes(b"old")
        monkeypatch.setattr(fileio, "open", open_full, raising=False)
        with pytest.raises(OSError, match="No space"):
            TensorWriter(tmp_path / "t.ten", (2, 3))
        assert len(opened) == 1 and opened[0].closed
        assert (tmp_path / "t.ten").read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["t.ten"]


# Finiteness is checked in chunks of PREDICT_BLOCK_BYTES. The tests below
# shrink the chunk to CHUNK entries, so that a (3, 4, 5) tensor spans nine
# chunks and each of write_tensor's one-row blocks (20 entries) three.
CHUNK = 7


@pytest.fixture
def small_chunks(monkeypatch):
    monkeypatch.setattr(regression, "PREDICT_BLOCK_BYTES", 8 * CHUNK)


class TestChunkedFiniteness:
    """One non-finite entry anywhere is rejected, whatever chunk it falls
    in: every position of the tensor is tried, so the first entry, the last
    and both sides of every chunk boundary are among them."""

    shape = (3, 4, 5)

    def one_bad_entry(self):
        base = np.arange(1.0, 1.0 + math.prod(self.shape)).reshape(self.shape)
        for bad in (np.nan, np.inf, -np.inf):
            for pos in range(base.size):
                arr = base.copy()
                arr.flat[pos] = bad
                yield arr

    def test_astensor(self, small_chunks):
        for arr in self.one_bad_entry():
            with pytest.raises(ShapeMismatchError, match="finite"):
                astensor(arr)

    def test_write_tensor(self, tmp_path, small_chunks):
        path = tmp_path / "t.ten"
        path.write_bytes(b"old")
        for arr in self.one_bad_entry():
            with pytest.raises(FileFormatError, match="non-finite"):
                write_tensor(path, arr)
        assert path.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["t.ten"]

    def test_read_tensor(self, tmp_path, small_chunks):
        path = tmp_path / "t.ten"
        header = b"TEN1 3 3,4,5 f64 row-major\n"
        for arr in self.one_bad_entry():
            path.write_bytes(header + arr.astype("<f8").tobytes())
            with pytest.raises(FileFormatError, match="non-finite"):
                read_tensor(path)

    def test_write_tensor_converts_each_block(self, tmp_path, small_chunks):
        arr = np.arange(60.0).reshape(self.shape)
        strided = np.zeros((3, 4, 10))
        strided[..., ::2] = arr
        for src in (np.asfortranarray(arr), arr.astype(np.float32), arr.astype(">f8"), strided[..., ::2]):
            write_tensor(tmp_path / "t.ten", src)
            assert (tmp_path / "t.ten").read_bytes()[27:] == arr.astype("<f8").tobytes()

    def test_finite_tensor_passes_all_three(self, tmp_path, small_chunks):
        arr = np.arange(60.0).reshape(self.shape)
        assert astensor(arr) is arr
        write_tensor(tmp_path / "t.ten", arr)
        assert read_tensor(tmp_path / "t.ten").tobytes() == arr.tobytes()


def test_validating_reading_and_writing_hold_one_chunk_mask(tmp_path, monkeypatch):
    """Beyond the tensor (and the array read_tensor returns), a call holds
    at most one chunk's boolean mask: an eighth of a chunk, here 8 KiB,
    where a whole-tensor mask is 512 KiB. The slack covers the file
    buffer and small objects."""
    chunk = 64 << 10
    monkeypatch.setattr(regression, "PREDICT_BLOCK_BYTES", chunk)
    arr = np.random.default_rng(6).standard_normal((512, 32, 32))  # 4 MiB
    path = tmp_path / "t.ten"
    write_tensor(path, arr)
    allowed = chunk // 8 + (32 << 10)

    def peak(call):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = call()
            return out, tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    assert peak(lambda: astensor(arr))[1] <= allowed
    assert peak(lambda: write_tensor(path, arr))[1] <= allowed
    back, held = peak(lambda: read_tensor(path))
    assert held <= back.nbytes + allowed
    assert back.tobytes() == arr.tobytes()


@pytest.fixture(scope="module")
def block_data():
    rng = np.random.default_rng(0)
    return separated_block_data(rng, 12, (6, 5), (5, 4), 2, (2, 2), (2, 2))


@pytest.fixture(scope="module")
def hopls_model(block_data):
    return fit_hopls(block_data.x, block_data.y, FitConfig(2, (2, 2), (2, 2)))


@pytest.fixture(scope="module")
def models(block_data, hopls_model):
    """One fitted model per model type, two components each."""
    return {
        "hopls": hopls_model,
        "hopls2": fit_hopls2(block_data.x, block_data.y[:, :, 0], FitConfig(2, (2, 2))),
        "pls": fit_pls_nipals(block_data.x, block_data.y, 2),
    }


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

    def test_config_of_numpy_scalars_saves_and_loads_back(self, tmp_path, block_data):
        eps = np.float32(1e-9)
        cfg = FitConfig(np.int64(2), (np.int64(2), 2), (2, np.int32(2)), eps, np.bool_(True))
        model = fit_hopls(block_data.x, block_data.y, cfg)
        path = tmp_path / "m.json"
        save_model(path, model)
        back = load_model(path)
        assert back.config == model.config == FitConfig(2, (2, 2), (2, 2), float(eps))
        assert (predict_hopls(back, block_data.x_val) == predict_hopls(model, block_data.x_val)).all()

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
        doc = json.loads(path.read_bytes())
        assert doc.pop("checksum") == stated
        canonical = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
        assert hashlib.sha256(canonical).hexdigest() == stated

    def test_rejects_non_model_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_bytes(b'{"hello": 1}')
        with pytest.raises(FileFormatError):
            load_model(path)

    def test_rejects_non_utf8_file(self, tmp_path):
        path = tmp_path / "x.ten"
        write_tensor(path, np.full(3, -1.0))  # the payload bytes are not UTF-8
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

    @pytest.mark.parametrize(
        "name, edit",
        [
            ("hopls", lambda d: d["components"][1]["x_loadings"][0].update(
                array_record(np.ones((6, 3))))),
            ("hopls", lambda d: d["components"][1]["y_loadings"][1].update(
                array_record(np.ones((5, 2))))),
            ("hopls", lambda d: d["components"][1].update(x_core=array_record(np.ones((1, 2, 3))))),
            ("hopls", lambda d: d["components"][0].update(y_core=array_record(np.ones((2, 2))))),
            ("hopls", lambda d: d["config"].update(x_ranks=[2])),
            ("hopls2", lambda d: d["components"][1].update(x_core=array_record(np.ones((1, 3, 2))))),
            ("hopls2", lambda d: d["components"][0]["x_loadings"][1].update(
                array_record(np.ones((4, 2))))),
            ("pls", lambda d: d.update(x_weights=array_record(np.ones((29, 2))))),
            ("pls", lambda d: d.update(x_loadings=array_record(np.ones((31, 2))))),
            ("pls", lambda d: d.update(y_loadings=array_record(np.ones((19, 2))))),
            ("pls", lambda d: d.update(coefs=array_record(np.ones(3)))),
            ("pls", lambda d: d.update(x_weights=array_record(np.ones(30)))),
        ],
        ids=[
            "hopls-x_loadings", "hopls-y_loadings", "hopls-x_core", "hopls-y_core",
            "hopls-x_ranks", "hopls2-x_core", "hopls2-x_loadings", "pls-x_weights",
            "pls-x_loadings", "pls-y_loadings", "pls-coefs", "pls-1d-x_weights",
        ],
    )  # fmt: skip
    def test_part_shapes_are_checked(self, tmp_path, block_data, models, name, edit):
        path, x_path = tmp_path / "m.json", tmp_path / "x.ten"
        save_model(path, models[name])
        rewrite_model(path, edit)
        with pytest.raises(FileFormatError):
            load_model(path)
        write_tensor(x_path, block_data.x_val)
        assert cli_main([
            "predict", "--model", str(path), "--x", str(x_path), "--out", str(tmp_path / "p.ten"),
        ]) == EXIT_PARSE

    def test_derived_response_operator_is_checked(self, tmp_path, models):
        path = tmp_path / "m.json"
        save_model(path, models["hopls2"])
        rewrite_model(path, lambda d: d["components"][1]["y_loadings"][0].update(
            array_record(np.ones((3, 1)))))
        with pytest.raises(FileFormatError):
            load_model(path)

    @pytest.mark.parametrize(
        "name, edit",
        [
            ("hopls", lambda d: d.update(version=2)),
            ("pls", lambda d: d.update(version=3)),
            ("hopls", lambda d: d.update(extra=1)),
            ("hopls", lambda d: d["config"].update(extra=1)),
            ("hopls2", lambda d: d["components"][0].update(q=array_record(np.ones(5)))),
            ("hopls", lambda d: d.update(algo="hopls2")),
            ("hopls2", lambda d: d.update(algo="hopls")),
            ("pls", lambda d: d.update(algo="hopls")),
            # each value must have the JSON type of its field
            ("hopls", lambda d: d["config"].update(center=[])),
            ("hopls", lambda d: d["config"].update(center=0)),
            ("hopls", lambda d: d["config"].update(center="yes")),
            ("hopls", lambda d: d.update(x_shape=[6.7, 5])),
            ("hopls", lambda d: d.update(x_shape="")),
            ("hopls", lambda d: d["config"].update(epsilon="1e-3")),
            ("hopls", lambda d: d["config"].update(n_components=True)),
            ("hopls", lambda d: d["components"][0]["x_core"].update(shape=[1.0, 2, 2])),
            ("pls", lambda d: d.update(y_residual_norms=[True] * 3)),
        ],
        ids=["version-2", "version-3", "extra-key", "extra-config-key", "extra-component-key",
             "hopls2-tag-on-tensor-response", "hopls-tag-on-matrix-response", "pls-as-hopls",
             "center-list", "center-0", "center-string", "x_shape-float", "x_shape-string",
             "epsilon-string", "n_components-true", "array-shape-float", "norms-true"],
    )  # fmt: skip
    def test_schema_violation_exits_3(self, tmp_path, block_data, models, name, edit):
        path, x_path = tmp_path / "m.json", tmp_path / "x.ten"
        save_model(path, models[name])
        rewrite_model(path, edit)
        write_tensor(x_path, block_data.x_val)
        assert cli_main([
            "predict", "--model", str(path), "--x", str(x_path), "--out", str(tmp_path / "p.ten"),
        ]) == EXIT_PARSE

    def test_file_holds_parameters_only(self, tmp_path, models):
        for name, model in models.items():
            path = tmp_path / f"{name}.json"
            save_model(path, model)
            doc = json.loads(path.read_bytes())
            assert doc["version"] == 4
            assert "score_operator" not in doc and "response_operator" not in doc


# ---------------------------------------------------------------------------
# properties


@st.composite
def fit_problems(draw, name):
    """Random X and Y, and an (R, lambda) cell, for the table entry ``name``.

    ``hopls2`` takes a matrix response; the other entries a matrix or a
    tensor one (``hopls`` and ``npls`` then run their matrix variant).
    """
    n = draw(st.integers(3, 7))
    x_dims = draw(st.lists(st.integers(1, 4), min_size=2, max_size=3))
    y_order = 2 if name == "hopls2" else draw(st.sampled_from([2, 3]))
    y_dims = draw(st.lists(st.integers(1, 4), min_size=y_order - 1, max_size=y_order - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n, *x_dims))
    y = rng.standard_normal((n, *y_dims))
    x_new = rng.standard_normal((draw(st.integers(1, 4)), *x_dims))
    algo = algorithm(name, y.ndim)
    lam = draw(st.integers(1, algo.lam_cap(x.shape, y.shape)))
    cfg = algo.config(draw(st.integers(1, 4)), lam, x.ndim, y.ndim, center=draw(st.booleans()))
    return algo, x, y, x_new, cfg


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_save_load_predict_is_bit_exact(tmp_path_factory, name, data):
    algo, x, y, x_new, cfg = data.draw(fit_problems(name))
    model = algo.fit(x, y, cfg)
    path = tmp_path_factory.getbasetemp() / f"property-{name}.json"
    save_model(path, model)
    back = load_model(path)
    assert type(back) is type(model)
    assert back.stop_reason == model.stop_reason
    for r in range(model.n_components + 1):
        assert (algo.predict(back, x_new, r) == algo.predict(model, x_new, r)).all()


@st.composite
def ten_files(draw):
    """A TEN1 header, valid or mutated, followed by random bytes.

    Up to two header fields are replaced by short strings of separators,
    digits and a non-ASCII letter, and one byte may be overwritten. The
    payload has the length the valid header asks for or any length up to
    200 bytes.
    """
    dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    fields = ["TEN1", str(len(dims)), ",".join(map(str, dims)), "f64", "row-major"]
    for _ in range(draw(st.integers(0, 2))):
        fields[draw(st.integers(0, 4))] = draw(st.text(" ,-+_.x09\xe9", max_size=4))
    header = bytearray(" ".join(fields).encode("latin-1") + b"\n")
    if draw(st.booleans()):
        header[draw(st.integers(0, len(header) - 1))] = draw(st.integers(0, 255))
    size = 8 * math.prod(dims)
    payload = draw(st.binary(min_size=size, max_size=size) | st.binary(max_size=200))
    return bytes(header) + payload


@settings(max_examples=30, deadline=None)
@given(blob=ten_files())
def test_malformed_tensor_file_is_file_format_error(tmp_path_factory, blob):
    path = tmp_path_factory.getbasetemp() / "property.ten"
    path.write_bytes(blob)
    try:
        read_tensor(path)
    except FileFormatError:
        assert cli_main(["eval", "--y-true", str(path), "--y-pred", str(path)]) == EXIT_PARSE


def document_paths(node, path=()):
    """Every key and index path in a JSON document, the root excluded."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from document_paths(child, path + (key,))


# Small JSON values: none of them can make the loader allocate much.
# 1e400 parses as inf, which no integer field can hold.
SMALL_JSON_VALUES = ("1e400", "-1", "0", "0.5", "true", '""', "null", "[]", "{}")


def set_field(doc, where, text) -> None:
    """Set the value at key path ``where`` of ``doc`` to the JSON ``text``."""
    for key in where[:-1]:
        doc = doc[key]
    doc[where[-1]] = json.loads(text)


def reseal(path, doc) -> None:
    """Write ``doc`` to ``path`` under a checksum that matches it."""
    doc["checksum"] = hashlib.sha256(
        json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    # json writes inf as Infinity; write the literal 1e400 a file would hold
    path.write_bytes(json.dumps(doc, sort_keys=True).replace("Infinity", "1e400").encode())


def same_json(a, b) -> bool:
    """Equal JSON values, with true and false distinct from the numbers 1 and 0."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(
            same_json(a[k], b[k]) for k in a
        )
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(same_json, a, b))
    return a == b


@pytest.mark.parametrize("name", ["hopls", "hopls2", "pls"])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_one_field_set_to_a_small_value_gives_an_exit_code(
    tmp_path_factory, block_data, models, name, data
):
    base = tmp_path_factory.getbasetemp()
    path, x_path = base / f"field-{name}.json", base / "field-x.ten"
    save_model(path, models[name])
    doc = json.loads(path.read_bytes())
    doc.pop("checksum")
    where = data.draw(st.sampled_from(sorted(document_paths(doc), key=repr)))
    text = data.draw(st.sampled_from(SMALL_JSON_VALUES))
    set_field(doc, where, text)
    reseal(path, doc)
    write_tensor(x_path, block_data.x_val)
    code = cli_main([
        "predict", "--model", str(path), "--x", str(x_path), "--out", str(base / "p.ten"),
    ])
    assert code in (0, EXIT_PARSE, EXIT_NUMERIC)
    # a document that loads is the one its model encodes to
    try:
        model = load_model(path)
    except FileFormatError:
        return
    again = base / f"field-{name}-again.json"
    save_model(again, model)
    encoded = json.loads(again.read_bytes())
    for d in (doc, encoded):
        d.pop("checksum")
    assert same_json(encoded, doc), (where, text)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_several_fields_set_at_once_give_an_exit_code(tmp_path_factory, block_data, models, data):
    # each field is drawn from the document as the earlier edits left it
    name = data.draw(st.sampled_from(sorted(models)))
    base = tmp_path_factory.getbasetemp()
    path, x_path = base / f"fields-{name}.json", base / "fields-x.ten"
    save_model(path, models[name])
    doc = json.loads(path.read_bytes())
    doc.pop("checksum")
    for _ in range(data.draw(st.integers(2, 4))):
        where = data.draw(st.sampled_from(sorted(document_paths(doc), key=repr)))
        set_field(doc, where, data.draw(st.sampled_from(SMALL_JSON_VALUES)))
    reseal(path, doc)
    write_tensor(x_path, block_data.x_val)
    code = cli_main([
        "predict", "--model", str(path), "--x", str(x_path), "--out", str(base / "p.ten"),
    ])
    assert code in (0, EXIT_PARSE, EXIT_NUMERIC)
