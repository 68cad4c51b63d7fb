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
== A1 @ matricize(g, 0) @ kron_all([AN, ..., A2]).T``. The row-major view
``t.reshape(len(t), -1)`` orders the same columns with the last mode
fastest, and there the Kronecker factors run forwards:
``tucker_assemble(g, [A1..AN]).reshape(len(A1), -1) == A1 @
g.reshape(len(g), -1) @ kron_all([A2, ..., AN]).T``. The operators of
:mod:`tensorpls.regression` index their rows in that row-major order.

Each operation has one body, written for a stack of tensors that share a
shape (a leading batch axis, so that HOOI and the fits can run several
folds in lockstep). The public functions check their operands and call
that body on a stack of one: the Tucker products are
:func:`multi_mode_product` over every mode, and :func:`cross_cov_mode1`
runs the mode-0 contraction the HOOI sweeps use. Per item, a stack's
products go through the same BLAS calls on the same memory layout as a
single tensor's, so an item's result has the bits of its own call.
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
    return _unfold(t[None], mode + 1)[0]


def _unfold(t: np.ndarray, axis: int) -> np.ndarray:
    """:func:`matricize` of every item of the stack ``t`` along its ``axis``
    (item mode ``axis - 1``), as a ``(len(t), t.shape[axis], -1)`` stack.

    Per C-order item the layout is the one an F-order reshape of the item
    gives: a view when at most one remaining mode is longer than 1, else an
    F-order copy, here each item's C-order (rest reversed, I) block with
    its last two axes swapped (an F-order reshape of the whole stack would
    interleave the items, and matmul would leave BLAS).
    """
    rest = tuple(range(1, axis)) + tuple(range(axis + 1, t.ndim))
    long = sum(t.shape[a] > 1 for a in rest)
    if long < 2 and long + (t.shape[axis] > 1) > 0:
        view = t.transpose((0, axis) + rest)
        return view.reshape((len(t), t.shape[axis], -1), order="F")
    block = np.ascontiguousarray(t.transpose((0,) + rest[::-1] + (axis,)))
    return block.reshape((len(t), -1, t.shape[axis])).swapaxes(1, 2)


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
    _check_operand(t.shape, a, mode)
    return _mode_product(np.ascontiguousarray(t)[None], a, mode + 1)[0]


def _check_operand(shape: tuple[int, ...], a: np.ndarray, mode: int) -> None:
    if not 0 <= mode < len(shape):
        raise ShapeMismatchError(
            f"mode {mode} out of range for order-{len(shape)} tensor"
        )
    if a.ndim != 2:
        raise ShapeMismatchError("mode_n_product expects a matrix operand")
    if a.shape[1] != shape[mode]:
        raise ShapeMismatchError(
            f"matrix columns {a.shape[1]} != tensor dim {shape[mode]} at mode {mode}"
        )


def _mode_product(t: np.ndarray, a: np.ndarray, axis: int) -> np.ndarray:
    """:func:`mode_n_product` of every item of the C-order stack ``t`` along
    its ``axis``, unchecked. ``a`` is one (J, I) matrix for every item or a
    (len(t), J, I) stack of them."""
    out_shape = t.shape[:axis] + (a.shape[-2],) + t.shape[axis + 1 :]
    if axis == 1:
        return (a @ t.reshape(len(t), t.shape[1], -1)).reshape(out_shape)
    if axis == t.ndim - 1:
        return (t.reshape(len(t), -1, t.shape[-1]) @ a.swapaxes(-1, -2)).reshape(out_shape)
    pre = math.prod(t.shape[1:axis])
    batched = a[..., None, :, :] @ t.reshape(len(t), pre, t.shape[axis], -1)
    return batched.reshape(out_shape)


def multi_mode_product(
    t: np.ndarray,
    matrices: Sequence[np.ndarray],
    modes: Sequence[int],
    transpose: bool = False,
) -> np.ndarray:
    """Apply :func:`mode_n_product` for several (matrix, mode) pairs in turn."""
    t = np.asarray(t)
    operands = [np.asarray(a).T if transpose else np.asarray(a) for a in matrices]
    shape = list(t.shape)
    for a, mode in zip(operands, modes):
        _check_operand(tuple(shape), a, mode)
        shape[mode] = a.shape[0]
    axes = [mode + 1 for mode in modes]
    return _multi_mode_product(np.ascontiguousarray(t)[None], operands, axes)[0]


def _multi_mode_product(t, matrices, axes, transpose: bool = False) -> np.ndarray:
    """:func:`_mode_product` for several (matrix, axis) pairs in turn; with
    ``transpose`` each matrix (or stack) enters transposed."""
    for a, axis in zip(matrices, axes):
        t = _mode_product(t, a.swapaxes(-1, -2) if transpose else a, axis)
    return t


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
    return _contract_samples(x[None], y[None])[0]


def _contract_samples(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """<x_i, y_i>_1 for every item of two stacks, unchecked: the items'
    row-major views multiplied over their sample axis (axis 1)."""
    b, n = x.shape[:2]
    flat = x.reshape(b, n, -1).swapaxes(1, 2) @ y.reshape(b, n, -1)
    return flat.reshape(x.shape[:1] + x.shape[2:] + y.shape[2:])


def kron_all(matrices: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of a list of matrices, left to right: one broadcast
    multiply per matrix, the products ``np.kron`` forms, bit for bit."""
    if not matrices:
        raise ShapeMismatchError("kron_all needs at least one matrix")
    out = as_matrix(matrices[0])
    for m in map(as_matrix, matrices[1:]):
        out = (out[:, None, :, None] * m[:, None]).reshape(np.multiply(out.shape, m.shape))
    return out


def tucker_assemble(core: np.ndarray, factors: Sequence[np.ndarray]) -> np.ndarray:
    """Multiply ``core`` by one factor matrix per mode: [[core; F0, ..., FN-1]]."""
    core = np.asarray(core)
    if len(factors) != core.ndim:
        raise ShapeMismatchError(
            f"need {core.ndim} factors, got {len(factors)}"
        )
    return multi_mode_product(core, factors, range(core.ndim))


def tucker_contract(t: np.ndarray, factors: Sequence[np.ndarray]) -> np.ndarray:
    """Project ``t`` onto the factors: [[t; F0^T, ..., FN-1^T]] (the core)."""
    t = np.asarray(t)
    if len(factors) != t.ndim:
        raise ShapeMismatchError(f"need {t.ndim} factors, got {len(factors)}")
    return multi_mode_product(t, factors, range(t.ndim), transpose=True)
