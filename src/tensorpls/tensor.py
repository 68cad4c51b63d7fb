"""Dense N-way tensors and the multilinear primitives built on them.

Tensors are plain ``numpy.ndarray`` objects: 64-bit floats, C-contiguous,
row-major (last index fastest). :func:`astensor` is the validating
constructor; it rejects NaN/Inf and anything that is not a well-formed
dense array. Modes are 0-based throughout (mode 0 is the sample mode in
the regression code).

Matricization uses the classic unfolding where, among the remaining modes,
the first (lowest) mode varies fastest along the columns. For a 2x2x2
tensor with entries 1..8 laid out row-major, ``matricize(t, 0)`` is::

    [[1, 3, 5, 7],
     [2, 4, 6, 8]]

This is the ordering under which ``matricize(tucker_assemble(g, [A1..AN]), 0)
== A1 @ matricize(g, 0) @ kron_all([AN, ..., A2]).T`` and hence the one the
prediction formulas in :mod:`tensorpls.regression` rely on.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ShapeMismatchError

__all__ = [
    "astensor",
    "as_matrix",
    "check_shape",
    "matricize",
    "fold",
    "mode_n_product",
    "multi_mode_product",
    "fro_norm",
    "cross_cov_mode1",
    "kron_all",
    "tucker_assemble",
    "tucker_contract",
]


def check_shape(dims: Sequence[int]) -> tuple[int, ...]:
    """Validate a tensor shape: order >= 1, every dim a positive integer."""
    dims = tuple(int(d) for d in dims)
    if len(dims) < 1:
        raise ShapeMismatchError("tensor order must be >= 1")
    if any(d < 1 for d in dims):
        raise ShapeMismatchError(f"all dimensions must be >= 1, got {dims}")
    return dims


def astensor(data, shape: Sequence[int] | None = None) -> np.ndarray:
    """Return ``data`` as a float64 C-order array, rejecting non-finite entries.

    Parameters
    ----------
    data : array-like
        Anything numpy can turn into a real-valued array.
    shape : sequence of int, optional
        If given, ``data`` is reshaped (row-major) to this shape; the element
        counts must agree.
    """
    arr = np.ascontiguousarray(data, dtype=np.float64)
    if shape is not None:
        shape = check_shape(shape)
        if arr.size != math.prod(shape):
            raise ShapeMismatchError(
                f"cannot view {arr.size} elements as shape {shape}"
            )
        arr = arr.reshape(shape)
    if arr.ndim < 1:
        arr = arr.reshape(1)
    if not np.isfinite(arr).all():
        raise ShapeMismatchError("tensor entries must be finite (no NaN/Inf)")
    return arr


def as_matrix(data) -> np.ndarray:
    """Like :func:`astensor` but insists on a 2-way array."""
    m = astensor(data)
    if m.ndim != 2:
        raise ShapeMismatchError(f"expected a matrix, got order {m.ndim}")
    return m


def _check_mode(t: np.ndarray, mode: int) -> None:
    if not 0 <= mode < t.ndim:
        raise ShapeMismatchError(
            f"mode {mode} out of range for order-{t.ndim} tensor"
        )


def matricize(t: np.ndarray, mode: int) -> np.ndarray:
    """Unfold ``t`` along ``mode`` into a ``(t.shape[mode], -1)`` matrix.

    Columns enumerate the remaining modes in increasing order with the first
    remaining mode varying fastest (see module docstring).
    """
    t = np.asarray(t)
    _check_mode(t, mode)
    # a plain transpose (cheaper than np.moveaxis on the HOOI hot path)
    axes = (mode,) + tuple(range(mode)) + tuple(range(mode + 1, t.ndim))
    return t.transpose(axes).reshape((t.shape[mode], -1), order="F")


def fold(m: np.ndarray, mode: int, shape: Sequence[int]) -> np.ndarray:
    """Exact inverse of :func:`matricize` for the given target ``shape``."""
    shape = check_shape(shape)
    m = np.asarray(m)
    if m.ndim != 2:
        raise ShapeMismatchError("fold expects a matrix")
    if not 0 <= mode < len(shape):
        raise ShapeMismatchError(f"mode {mode} out of range for shape {shape}")
    rest = shape[:mode] + shape[mode + 1 :]
    if m.shape != (shape[mode], math.prod(rest)):
        raise ShapeMismatchError(
            f"matrix {m.shape} inconsistent with shape {shape} at mode {mode}"
        )
    moved = np.reshape(m, (shape[mode],) + rest, order="F")
    return np.ascontiguousarray(np.moveaxis(moved, 0, mode))


def mode_n_product(t: np.ndarray, a: np.ndarray, mode: int) -> np.ndarray:
    """Contract mode ``mode`` of ``t`` with the columns of matrix ``a``.

    ``a`` has shape (J, t.shape[mode]); the result replaces that dimension
    by J. Equivalent to ``fold(a @ matricize(t, mode), mode, new_shape)``.
    """
    t = np.asarray(t)
    a = np.asarray(a)
    _check_mode(t, mode)
    if a.ndim != 2:
        raise ShapeMismatchError("mode_n_product expects a matrix operand")
    if a.shape[1] != t.shape[mode]:
        raise ShapeMismatchError(
            f"matrix columns {a.shape[1]} != tensor dim {t.shape[mode]} at mode {mode}"
        )
    out_shape = t.shape[:mode] + (a.shape[0],) + t.shape[mode + 1 :]
    t = np.ascontiguousarray(t)
    if mode == 0:
        return (a @ t.reshape(t.shape[0], -1)).reshape(out_shape)
    if mode == t.ndim - 1:
        return (t.reshape(-1, t.shape[-1]) @ a.T).reshape(out_shape)
    pre = math.prod(t.shape[:mode])
    post = math.prod(t.shape[mode + 1 :])
    batched = a @ t.reshape(pre, t.shape[mode], post)
    return batched.reshape(out_shape)


def multi_mode_product(
    t: np.ndarray,
    matrices: Sequence[np.ndarray],
    modes: Sequence[int],
    transpose: bool = False,
) -> np.ndarray:
    """Apply :func:`mode_n_product` for several (matrix, mode) pairs in turn."""
    out = np.asarray(t)
    for a, mode in zip(matrices, modes):
        out = mode_n_product(out, a.T if transpose else a, mode)
    return out


def fro_norm(a: np.ndarray) -> float:
    """Frobenius norm of a tensor of any order."""
    return float(np.linalg.norm(np.asarray(a).ravel()))


def cross_cov_mode1(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cross-covariance tensor: contract ``x`` and ``y`` over the shared mode 0.

    Result shape is ``x.shape[1:] + y.shape[1:]``. The caller is responsible
    for mean-centering along mode 0 beforehand; no centering happens here.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape[0] != y.shape[0]:
        raise ShapeMismatchError(
            f"first-mode sizes differ: {x.shape[0]} vs {y.shape[0]}"
        )
    return np.tensordot(x, y, axes=(0, 0))


def kron_all(matrices: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of a list of matrices, left to right."""
    if not matrices:
        raise ShapeMismatchError("kron_all needs at least one matrix")
    out = as_matrix(matrices[0])
    for m in matrices[1:]:
        out = np.kron(out, as_matrix(m))
    return out


def tucker_assemble(core: np.ndarray, factors: Sequence[np.ndarray]) -> np.ndarray:
    """Multiply ``core`` by one factor matrix per mode: [[core; F0, ..., FN-1]]."""
    core = np.asarray(core)
    if len(factors) != core.ndim:
        raise ShapeMismatchError(
            f"need {core.ndim} factors, got {len(factors)}"
        )
    out = core
    for mode, f in enumerate(factors):
        out = mode_n_product(out, f, mode)
    return out


def tucker_contract(t: np.ndarray, factors: Sequence[np.ndarray]) -> np.ndarray:
    """Project ``t`` onto the factors: [[t; F0^T, ..., FN-1^T]] (the core)."""
    t = np.asarray(t)
    if len(factors) != t.ndim:
        raise ShapeMismatchError(f"need {t.ndim} factors, got {len(factors)}")
    out = t
    for mode, f in enumerate(factors):
        out = mode_n_product(out, np.asarray(f).T, mode)
    return out
