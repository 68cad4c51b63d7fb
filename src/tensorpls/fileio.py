"""On-disk formats: .ten tensors and JSON model containers.

Tensor files are a single ASCII header line followed by the raw payload::

    TEN1 <order> <d1,d2,...> f64 row-major\\n
    <8 * prod(dims) bytes of little-endian float64, row-major>

The header parse is strict: unknown tags, inconsistent order/dims, short or
trailing payload bytes, and non-finite entries are all rejected.
:class:`TensorReader` and :class:`TensorWriter` stream a file in row
blocks; :func:`read_tensor` and :func:`write_tensor` move a whole tensor
through them.

Model files are JSON documents with float64 arrays embedded as base64 of
their little-endian bytes, so a load/save round trip preserves predictions
bit-exactly. A sha256 checksum over the canonical serialization (sorted
keys, no whitespace, checksum field excluded) guards integrity. The same
model always serializes to the same bytes.

Every model type shares one schema (version 4): ``format``, ``version``,
the ``algo`` tag, ``checksum``, and one key per field of the model's
dataclass (nested dataclasses become objects, tuples become lists, arrays
become ``{"shape", "data"}`` records). A file holds the model's parameters
only; the prediction operators are derived from them on loading. The tag is
the one :func:`tensorpls.regression.algorithm_of` gives the model:
``hopls`` or ``hopls2`` (a Tucker-block model of a tensor or a matrix
response) or ``pls``. Loading rebuilds the model from its field annotations,
rejects a missing or an extra key, an earlier version and a tag that
disagrees with the response order, and then checks that the model is
internally consistent.
"""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import json
import math
import os
import secrets
import stat
import typing
from pathlib import Path

import numpy as np

from . import regression
from .errors import FileFormatError
from .regression import ALGORITHMS, STOP_REASONS, PlsModel, algorithm_of
from .tensor import _all_finite

__all__ = [
    "TensorReader",
    "TensorWriter",
    "read_tensor",
    "write_tensor",
    "save_model",
    "load_model",
    "write_json",
]

TENSOR_MAGIC = "TEN1"
MODEL_FORMAT = "tensorpls-model"
MODEL_VERSION = 4


class TensorReader:
    """A TEN1 file opened for reading: its shape first, then its payload.

    Opening parses the header and checks the payload size against it, so
    ``shape`` is known before a payload byte is read. Every payload entry
    is read once, with ``readinto``, and checked for finiteness once, in
    the block it arrives in. Any malformation raises FileFormatError.
    """

    def __init__(self, path):
        self.path = path
        try:
            self._fh = open(path, "rb")
        except OSError as exc:
            raise FileFormatError(f"cannot read {path}: {exc}") from exc
        try:
            self.shape = _parse_header(self._fh.readline())
            expected = 8 * math.prod(self.shape)
            size = os.fstat(self._fh.fileno()).st_size - self._fh.tell()
            if size != expected:
                raise FileFormatError(f"payload is {size} bytes, expected {expected}")
        except BaseException:
            self._fh.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._fh.close()

    def read_into(self, out: np.ndarray) -> np.ndarray:
        """Fill ``out``, a C-order ``<f8`` array of whole rows, with the next
        rows of the payload, and return it."""
        try:
            got = self._fh.readinto(out)
        except OSError as exc:
            raise FileFormatError(f"cannot read {self.path}: {exc}") from exc
        if got != out.nbytes:
            raise FileFormatError(f"payload ended {out.nbytes - got} bytes early")
        if not _all_finite(out):
            raise FileFormatError("payload contains non-finite entries")
        return out

    def blocks(self, rows: int):
        """Yield the payload as consecutive blocks of at most ``rows`` rows.

        Every block is a view of one buffer, so a block is valid only until
        the next one is read.
        """
        n = self.shape[0]
        buf = np.empty((min(rows, n),) + self.shape[1:], dtype="<f8")
        for start in range(0, n, rows):
            yield self.read_into(buf[: min(rows, n - start)])


class TensorWriter:
    """A TEN1 file being written: the header, then the payload in row blocks.

    The bytes go to a new temporary file next to ``path``, created with the
    mode ``open(path, "wb")`` gives (an existing ``path`` keeps its own).
    When the block leaves without an error and every row was written, the
    temporary file replaces ``path``; on any failure it is removed, and an
    existing ``path`` keeps its bytes. A symbolic link is written through,
    as ``open`` would. A shape the reader would reject (no dimension, or a
    dimension below 1) raises FileFormatError before any file is made.

    The atomic replace is what makes a write crash-safe: ``path`` holds the
    old bytes or all of the new ones, never a part. On ext4 it is also most
    of the cost of a large write, because a rename over an existing file
    flushes the new file's data to disk: on a 2-core AMD EPYC host, a
    ``tensorpls predict`` of a 164 MB (20000, 32, 32) batch took 46-79 ms
    when its output did not exist yet; replacing that output took
    81-100 ms the first time and 2.1-3.0 s each later time (three trials).
    Removing ``path`` before the rename would skip the flush and give up
    the crash safety, so the replace stays.
    """

    def __init__(self, path, shape: tuple[int, ...]):
        self.path = Path(os.path.realpath(path))
        self.shape = tuple(shape)
        if not self.shape or min(self.shape) < 1:
            raise FileFormatError(
                f"cannot write shape {self.shape}: order and every dimension must be >= 1"
            )
        self._rows = 0
        self._tmp = self.path.with_name(f".{self.path.name}.{secrets.token_hex(4)}.tmp")
        self._fh = open(os.open(self._tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), "wb")
        dims = ",".join(str(d) for d in self.shape)
        header = f"{TENSOR_MAGIC} {len(self.shape)} {dims} f64 row-major\n"
        try:
            self._fh.write(header.encode("ascii"))
        except BaseException:
            self._discard()
            raise

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            self._discard()
            return
        try:
            if self._rows != self.shape[0]:
                raise FileFormatError(f"wrote {self._rows} of {self.shape[0]} rows")
            self._fh.close()
            if self.path.exists():
                os.chmod(self._tmp, stat.S_IMODE(os.stat(self.path).st_mode))
            os.replace(self._tmp, self.path)
        except BaseException:
            self._discard()
            raise

    def write(self, block: np.ndarray) -> None:
        """Append whole rows of the tensor; non-finite entries raise FileFormatError."""
        block = np.ascontiguousarray(block, dtype="<f8")
        if block.shape[1:] != self.shape[1:] or self._rows + len(block) > self.shape[0]:
            raise ValueError(f"block of shape {block.shape} does not fit a {self.shape} tensor")
        if not _all_finite(block):
            raise FileFormatError("refusing to write non-finite entries")
        self._fh.write(block)
        self._rows += len(block)

    def _discard(self) -> None:
        try:
            self._fh.close()
        finally:
            self._tmp.unlink(missing_ok=True)


def write_tensor(path, arr: np.ndarray) -> None:
    """Write a tensor to ``path`` in the TEN1 format.

    The writer takes the rows in blocks of at most
    ``regression.PREDICT_BLOCK_BYTES`` (at least one row), each converted to
    C-order ``<f8`` on its own, so no tensor-sized copy is made.
    """
    arr = np.asarray(arr)
    if arr.ndim < 1:
        arr = arr.reshape(1)
    with TensorWriter(path, arr.shape) as writer:
        rows = max(1, regression.PREDICT_BLOCK_BYTES // (8 * math.prod(arr.shape[1:])))
        for start in range(0, len(arr), rows):
            writer.write(arr[start : start + rows])


def read_tensor(path) -> np.ndarray:
    """Read a TEN1 tensor file; any malformation raises FileFormatError.

    The payload is read once, straight into the returned array.
    """
    with TensorReader(path) as reader:
        arr = reader.read_into(np.empty(reader.shape, dtype="<f8"))
    return arr.astype(np.float64, copy=False)


def _parse_header(line: bytes) -> tuple[int, ...]:
    """The dims of a TEN1 header line (newline included)."""
    if not line.endswith(b"\n"):
        raise FileFormatError("missing header line")
    try:
        header = line[:-1].decode("ascii")
    except UnicodeDecodeError as exc:
        raise FileFormatError("header is not ASCII") from exc
    fields = header.split(" ")
    if len(fields) != 5:
        raise FileFormatError(f"malformed header: {header!r}")
    magic, order_s, dims_s, dtype_tag, layout_tag = fields
    if magic != TENSOR_MAGIC:
        raise FileFormatError(f"bad magic {magic!r}")
    if dtype_tag != "f64":
        raise FileFormatError(f"unsupported dtype tag {dtype_tag!r}")
    if layout_tag != "row-major":
        raise FileFormatError(f"unsupported layout tag {layout_tag!r}")
    try:
        order = int(order_s)
        dims = tuple(int(d) for d in dims_s.split(","))
    except ValueError as exc:
        raise FileFormatError(f"malformed header: {header!r}") from exc
    if order != len(dims) or order < 1 or any(d < 1 for d in dims):
        raise FileFormatError(f"inconsistent order/dims in header: {header!r}")
    return dims


# ---------------------------------------------------------------------------
# model container


def _encode_array(arr: np.ndarray) -> dict:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    return {
        "shape": list(arr.shape),
        "data": base64.b64encode(arr.astype("<f8", copy=False).tobytes(order="C")).decode("ascii"),
    }


def _decode_array(obj: dict) -> np.ndarray:
    try:
        shape = _decode(obj["shape"], tuple[int, ...])
        buf = base64.b64decode(obj["data"], validate=True)
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"malformed array record: {exc}") from exc
    if len(buf) != 8 * math.prod(shape):
        raise FileFormatError("array payload length mismatch")
    return np.frombuffer(buf, dtype="<f8").astype(np.float64).reshape(shape)


def _canonical_bytes(doc: dict) -> bytes:
    doc = {k: v for k, v in doc.items() if k != "checksum"}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("ascii")


def _encode(value):
    """JSON form of a model or of one of its fields."""
    if isinstance(value, np.ndarray):
        return _encode_array(value)
    if dataclasses.is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value


# The JSON values each scalar annotation takes. A JSON true/false decodes as
# a Python bool, which is also an int: only a bool field takes one.
_SCALARS = {bool: bool, int: int, float: (int, float), str: str}


def _decode(obj, hint):
    """Inverse of :func:`_encode`, steered by the type annotation ``hint``.

    A value whose JSON type the annotation does not take raises
    FileFormatError: a tuple is a list, an int an integer, a float any
    number, a bool only true or false.
    """
    if hint is np.ndarray:
        return _decode_array(obj)
    if dataclasses.is_dataclass(hint):
        names = [f.name for f in dataclasses.fields(hint)]
        if not isinstance(obj, dict) or set(obj) != set(names):
            raise FileFormatError(f"{hint.__name__} record does not have the keys {names}")
        hints = typing.get_type_hints(hint)
        return hint(**{name: _decode(obj[name], hints[name]) for name in names})
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        if not isinstance(obj, list):
            raise FileFormatError(f"expected a list, got {type(obj).__name__}")
        return tuple(_decode(v, args[0]) for v in obj)
    if type(None) in args:  # ``T | None``
        return None if obj is None else _decode(obj, args[0])
    if isinstance(obj, bool) != (hint is bool) or not isinstance(obj, _SCALARS[hint]):
        raise FileFormatError(f"expected a JSON {hint.__name__}, got {type(obj).__name__}")
    return hint(obj)


def _model_doc(model) -> dict:
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "algo": algorithm_of(model).tag,
        **_encode(model),
    }


def _model_from_doc(doc: dict):
    tag = doc.get("algo")
    if tag not in ALGORITHMS or ALGORITHMS[tag].tag != tag:
        raise FileFormatError(f"unknown model algo tag {tag!r}")
    body = {k: v for k, v in doc.items() if k not in ("format", "version", "algo", "checksum")}
    model = _decode(body, ALGORITHMS[tag].model_type)
    if algorithm_of(model).tag != tag:
        raise FileFormatError(f"algo tag {tag!r} does not match the response order")
    return model


def _shape_checks(model):
    """Yield ``(what, got, expected)`` for every size a model file fixes.

    First the stored arrays: Tucker-block loadings and cores follow from
    ``x_shape``/``y_shape`` and the config's loading counts (a matrix
    response has one loading); PLS weights and loadings have one row per
    feature and one column per coefficient. Then the operators, which every
    model derives from those arrays (a generator, so that they are derived
    only after the arrays passed), the residual norms and the means.
    """
    n_x, n_y, n = math.prod(model.x_shape), math.prod(model.y_shape), model.n_components
    if isinstance(model, PlsModel):
        yield "x weights", model.x_weights.shape, (n_x, n)
        yield "x loadings", model.x_loadings.shape, (n_x, n)
        yield "y loadings", model.y_loadings.shape, (n_y, n)
        yield "coefs", model.coefs.shape, (n,)
    else:
        cfg = model.config
        y_ranks = cfg.y_ranks if len(model.y_shape) > 1 else (1,)
        yield "x loading count", len(cfg.x_ranks), len(model.x_shape)
        yield "y loading count", len(y_ranks), len(model.y_shape)
        for i, c in enumerate(model.components, 1):
            for side, shape, ranks, loadings, core in (
                ("x", model.x_shape, cfg.x_ranks, c.x_loadings, c.x_core),
                ("y", model.y_shape, y_ranks, c.y_loadings, c.y_core),
            ):
                yield (f"component {i} {side} loadings", tuple(p.shape for p in loadings),
                       tuple(zip(shape, ranks)))  # fmt: skip
                yield f"component {i} {side} core", core.shape, (1,) + ranks
    yield "score operator", model.score_operator.shape, (n_x, n)
    yield "response operator", model.response_operator.shape, (n_y, n)
    yield "x residual norm count", len(model.x_residual_norms), n + 1
    yield "y residual norm count", len(model.y_residual_norms), n + 1
    yield "x mean", model.x_shape if model.x_mean is None else model.x_mean.shape, model.x_shape
    yield "y mean", model.y_shape if model.y_mean is None else model.y_mean.shape, model.y_shape


def _check_consistent(model) -> None:
    """Raise ValueError unless the stored arrays, derived operators, norms and means agree."""
    if model.stop_reason not in STOP_REASONS:
        raise ValueError(f"unknown stop_reason {model.stop_reason!r}")
    for what, got, want in _shape_checks(model):
        if got != want:
            raise ValueError(f"{what} is {got}, expected {want}")


def save_model(path, model) -> str:
    """Write a fitted model; returns the sha256 checksum of the payload."""
    doc = _model_doc(model)
    checksum = hashlib.sha256(_canonical_bytes(doc)).hexdigest()
    doc["checksum"] = checksum
    Path(path).write_bytes(
        json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("ascii")
    )
    return checksum


def _read_doc(path) -> dict:
    """The JSON document of a model file, its format tag and checksum verified."""
    try:
        doc = json.loads(Path(path).read_bytes())
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FileFormatError(f"not a model file: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise FileFormatError("not a tensorpls model file")
    if doc.get("checksum") != hashlib.sha256(_canonical_bytes(doc)).hexdigest():
        raise FileFormatError("model checksum mismatch")
    return doc


def load_model(path):
    """Read a model file back.

    Verifies the format tag, the checksum and the version, and that the
    model is internally consistent; any failure raises FileFormatError.
    The operators are derived here, so a model that loads predicts.
    """
    doc = _read_doc(path)
    if doc.get("version") != MODEL_VERSION:
        raise FileFormatError(f"unsupported model version {doc.get('version')!r}")
    try:
        model = _model_from_doc(doc)
        _check_consistent(model)
    except FileFormatError:
        raise
    # IndexError: an array with too few axes (a 1-D PLS weight matrix, say)
    except (IndexError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise FileFormatError(f"malformed model document: {exc}") from exc
    return model


def write_json(path, doc: dict) -> None:
    """Deterministic JSON writer used for manifests and reports."""
    Path(path).write_bytes(
        (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("ascii")
    )
