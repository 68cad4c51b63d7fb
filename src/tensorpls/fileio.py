"""On-disk formats: .ten tensors and JSON model containers.

Tensor files are a single ASCII header line followed by the raw payload::

    TEN1 <order> <d1,d2,...> f64 row-major\\n
    <8 * prod(dims) bytes of little-endian float64, row-major>

The header parse is strict: unknown tags, inconsistent order/dims, short or
trailing payload bytes, and non-finite entries are all rejected.

Model files are JSON documents with float64 arrays embedded as base64 of
their little-endian bytes, so a load/save round trip preserves predictions
bit-exactly. A sha256 checksum over the canonical serialization (sorted
keys, no whitespace, checksum field excluded) guards integrity. The same
model always serializes to the same bytes.

Every model type shares one schema: ``format``, ``version``, the ``algo``
tag from :data:`tensorpls.regression.ALGORITHMS`, ``checksum``, and one key
per field of the model's dataclass (nested dataclasses become objects,
tuples become lists, arrays become ``{"shape", "data"}`` records). Loading
rebuilds the model from its field annotations and then checks that it is
internally consistent.
"""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import json
import math
import os
import typing
from pathlib import Path

import numpy as np

from .errors import FileFormatError
from .regression import ALGORITHMS, STOP_REASONS, algorithm_of

__all__ = [
    "read_tensor",
    "write_tensor",
    "save_model",
    "load_model",
    "model_checksum",
    "write_json",
]

TENSOR_MAGIC = "TEN1"
MODEL_FORMAT = "tensorpls-model"
MODEL_VERSION = 2


def write_tensor(path, arr: np.ndarray) -> None:
    """Write a tensor to ``path`` in the TEN1 format."""
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    if arr.ndim < 1:
        arr = arr.reshape(1)
    if not np.isfinite(arr).all():
        raise FileFormatError("refusing to write non-finite entries")
    dims = ",".join(str(d) for d in arr.shape)
    header = f"{TENSOR_MAGIC} {arr.ndim} {dims} f64 row-major\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(arr.astype("<f8", copy=False).tobytes(order="C"))


def read_tensor(path) -> np.ndarray:
    """Read a TEN1 tensor file; any malformation raises FileFormatError.

    The payload is read once, straight into the returned array.
    """
    try:
        with open(path, "rb") as fh:
            dims = _parse_header(fh.readline())
            expected = 8 * math.prod(dims)
            size = os.fstat(fh.fileno()).st_size - fh.tell()
            if size != expected:
                raise FileFormatError(f"payload is {size} bytes, expected {expected}")
            arr = np.fromfile(fh, dtype="<f8", count=math.prod(dims))
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    arr = arr.astype(np.float64, copy=False).reshape(dims)
    if not np.isfinite(arr).all():
        raise FileFormatError("payload contains non-finite entries")
    return arr


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
        shape = tuple(int(d) for d in obj["shape"])
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


def _decode(obj, hint):
    """Inverse of :func:`_encode`, steered by the type annotation ``hint``."""
    if hint is np.ndarray:
        return _decode_array(obj)
    if dataclasses.is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        return hint(
            **{f.name: _decode(obj[f.name], hints[f.name]) for f in dataclasses.fields(hint)}
        )
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        return tuple(_decode(v, args[0]) for v in obj)
    if type(None) in args:  # ``T | None``
        return None if obj is None else _decode(obj, args[0])
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
    return _decode(doc, ALGORITHMS[tag].model_type)


def _check_consistent(model) -> None:
    """Raise ValueError unless the operators, norms and means agree."""
    if model.stop_reason not in STOP_REASONS:
        raise ValueError(f"unknown stop_reason {model.stop_reason!r}")
    n = model.n_components
    checks = (
        ("score operator", model.score_operator.shape, (math.prod(model.x_shape), n)),
        ("response operator", model.response_operator.shape, (math.prod(model.y_shape), n)),
        ("x residual norm count", len(model.x_residual_norms), n + 1),
        ("y residual norm count", len(model.y_residual_norms), n + 1),
        ("x mean", model.x_shape if model.x_mean is None else model.x_mean.shape, model.x_shape),
        ("y mean", model.y_shape if model.y_mean is None else model.y_mean.shape, model.y_shape),
    )
    for what, got, want in checks:
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


def load_model(path):
    """Read a model file back.

    Verifies the format tag, the version and the checksum, and that the
    model is internally consistent; any failure raises FileFormatError.
    """
    try:
        doc = json.loads(Path(path).read_bytes())
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"not a model file: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise FileFormatError("not a tensorpls model file")
    if doc.get("version") != MODEL_VERSION:
        raise FileFormatError(f"unsupported model version {doc.get('version')!r}")
    stated = doc.get("checksum")
    actual = hashlib.sha256(_canonical_bytes(doc)).hexdigest()
    if stated != actual:
        raise FileFormatError("model checksum mismatch")
    try:
        model = _model_from_doc(doc)
        _check_consistent(model)
    except FileFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"malformed model document: {exc}") from exc
    return model


def model_checksum(path) -> str:
    """Checksum stated in a model file (verifying it against the payload)."""
    try:
        doc = json.loads(Path(path).read_bytes())
    except (OSError, json.JSONDecodeError) as exc:
        raise FileFormatError(f"cannot read model file {path}: {exc}") from exc
    stated = doc.get("checksum")
    actual = hashlib.sha256(_canonical_bytes(doc)).hexdigest()
    if stated != actual:
        raise FileFormatError("model checksum mismatch")
    return stated


def write_json(path, doc: dict) -> None:
    """Deterministic JSON writer used for manifests and reports."""
    Path(path).write_bytes(
        (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("ascii")
    )
