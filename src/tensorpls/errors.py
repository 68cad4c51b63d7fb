"""Exception classes shared across the package, and the whole-number check.

The CLI maps these onto distinct exit codes, so keep the split between
"file/parse" problems and "shape/numerical" problems intact.
"""

import operator


class TensorplsError(Exception):
    """Base class for all package-specific errors."""


class ShapeMismatchError(TensorplsError, ValueError):
    """Operands have incompatible shapes or modes out of range."""


class RankError(TensorplsError, ValueError):
    """A requested rank/loading count is outside the valid range."""


class DegenerateDataError(TensorplsError, ValueError):
    """Input data carries no usable signal (all-zero response, zero matrix)."""


class SvdConvergenceError(TensorplsError, RuntimeError):
    """The SVD iteration failed to converge."""


class FileFormatError(TensorplsError, ValueError):
    """An on-disk tensor or model file failed to parse or verify."""


def _whole(value, name: str, error: type[Exception]) -> int:
    """A count given as a Python or numpy integer, as a Python int; anything
    else raises ``error`` naming the field."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{name} must be a whole number, got {value!r}") from None
