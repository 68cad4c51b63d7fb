"""Orthogonal low-multilinear-rank machinery: truncated SVD, HOSVD, HOOI.

A single deterministic sign convention runs through everything here: the
largest-magnitude entry of each left singular vector is made positive, ties
broken by lowest row index (one helper, :func:`_fix_signs`, for every
factor). That makes all downstream factor matrices, cores and fitted models
bit-reproducible. Factor extraction inside HOSVD/HOOI switches to a Gram
eigendecomposition for unfoldings much wider than tall (same vectors, much
cheaper); :func:`truncated_svd` itself is always the plain LAPACK route.

:func:`hosvd` and :func:`hooi` decompose either a tensor or the
cross-covariance C = <a, b>_1 of a pair that shares the sample mode 0 (the
regression residuals), in the memory-efficient Tucker manner of Kolda & Sun
(ICDM 2008). C has prod(I) * prod(J) entries and is formed only when small:
every sweep projection of C is the contraction over the N samples of the
two sides projected on their factors, and the HOSVD Grams C_(n) C_(n)^T
contract over an N x N sample Gram, or over the features (forming C) when C
is the smaller array (N^2 > prod(I) * prod(J)) or the unfolding is narrow.
A plain tensor T is the one-sample pair (T[None], ones(1)), so there is one
engine for both, and :func:`hosvd` and :func:`hooi` share one start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DegenerateDataError, RankError, ShapeMismatchError, SvdConvergenceError
from .tensor import (
    _contract_mode0, cross_cov_mode1, fro_norm, matricize, mode_n_product, multi_mode_product,
)

__all__ = [
    "HooiSettings",
    "TuckerFactors",
    "truncated_svd",
    "leading_left_singular_vector",
    "validate_ranks",
    "cross_cov_is_zero",
    "hosvd",
    "hooi",
]


@dataclass(frozen=True)
class HooiSettings:
    """Stopping rule for the alternating orthogonal iteration.

    The iteration starts from the HOSVD factors (seed-free, deterministic)
    and stops when the relative change of the core-norm objective drops
    below ``rel_tol`` or after ``max_iters`` sweeps.
    """

    max_iters: int = 50
    rel_tol: float = 1e-8

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be > 0")


@dataclass(frozen=True)
class TuckerFactors:
    """Core tensor plus one column-orthonormal factor matrix per mode.

    ``objective_history`` and ``converged`` are populated by :func:`hooi`
    (one core-norm-squared value per completed sweep, starting with the
    initialization); :func:`hosvd` leaves them at their defaults.
    """

    core: np.ndarray
    factors: tuple[np.ndarray, ...]
    objective_history: tuple[float, ...] = field(default=())
    converged: bool = True


def _fix_signs(u: np.ndarray, *others: np.ndarray) -> tuple[np.ndarray, ...]:
    # Largest-magnitude entry of each left singular vector made positive;
    # argmax already breaks ties by lowest index. Each column of ``u`` and
    # of ``others`` is multiplied by that column's +1 or -1 (-1.0 negates
    # exactly); when no column needs a flip the arrays come back as given.
    lead = u[np.abs(u).argmax(axis=0), np.arange(u.shape[1])]
    negative = lead < 0
    if not negative.any():
        return (u, *others)
    flips = np.where(negative, -1.0, 1.0)
    return tuple(m * flips for m in (u, *others))


def _lapack(routine, m: np.ndarray, **kwargs):
    """``routine(m, **kwargs)`` for ``np.linalg.svd`` or ``eigh``, a LAPACK
    failure raised as SvdConvergenceError."""
    try:
        return routine(m, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise SvdConvergenceError(f"{routine.__name__} did not converge: {exc}") from exc


def truncated_svd(m: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best rank-``k`` factorization ``m ~ U @ diag(s) @ V.T``.

    Parameters
    ----------
    m : (I, J) array
    k : int
        Number of singular triplets, ``1 <= k <= min(I, J)``.

    Returns
    -------
    U : (I, k) array, column-orthonormal, deterministic signs
    s : (k,) array, non-negative, non-increasing
    V : (J, k) array, column-orthonormal
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise RankError("truncated_svd expects a matrix")
    if not 1 <= k <= min(m.shape):
        raise RankError(f"k={k} out of range for matrix of shape {m.shape}")
    u, s, vh = _lapack(np.linalg.svd, m, full_matrices=False)
    u, v = _fix_signs(u[:, :k], vh[:k].T)
    return u, s[:k].copy(), v


def leading_left_singular_vector(m: np.ndarray) -> np.ndarray:
    """First left singular vector of a nonzero matrix (unit norm, fixed sign)."""
    m = np.asarray(m, dtype=np.float64)
    if not np.any(m):
        raise DegenerateDataError(
            "leading singular vector of a zero matrix is undefined"
        )
    u, _, _ = truncated_svd(m, 1)
    return u[:, 0]


def validate_ranks(ranks: Sequence[int], shape: Sequence[int]) -> tuple[int, ...]:
    """Check a multilinear rank against a tensor shape (1 <= R_n <= I_n)."""
    ranks = tuple(int(r) for r in ranks)
    if len(ranks) != len(shape):
        raise RankError(
            f"rank list of length {len(ranks)} does not match order {len(shape)}"
        )
    for r, d in zip(ranks, shape):
        if not 1 <= r <= d:
            raise RankError(f"rank {r} out of range for dimension {d}")
    return ranks


def _orthonormal_complement(u: np.ndarray, extra: int) -> np.ndarray:
    # Deterministic basis of the orthogonal complement: dominant singular
    # vectors of the projector I - u u^T (singular values are exactly 1).
    n = u.shape[0]
    projector = np.eye(n) - u @ u.T
    comp, _, _ = truncated_svd(projector, n - u.shape[1])
    return comp[:, :extra]


# Unfoldings at least this many times wider than tall (columns >= 4 rows) get
# their left singular vectors from the Gram eigendecomposition: the same
# vectors, much cheaper. A narrower unfolding of a cross-covariance has fewer
# than 4 * I_n^2 entries, so the HOSVD may form it and take its SVD.
_WIDE_FACTOR = 4


def _gram_factor(g: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Leading k eigenvectors of a Gram matrix ``m m^T`` (the leading left
    singular vectors of ``m``) with the singular values sqrt(eigenvalue)."""
    evals, evecs = _lapack(np.linalg.eigh, g)
    (u,) = _fix_signs(evecs[:, ::-1][:, :k])
    s = np.sqrt(np.clip(evals[::-1][:k], 0.0, None))
    return u, s


def _left_singular_factor(m: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Leading k left singular vectors (with their singular values), padded
    with an orthonormal complement when the matrix has fewer than k columns
    (the extra directions carry zero core weight, so reconstructions are
    unaffected)."""
    rows, cols = m.shape
    if cols >= _WIDE_FACTOR * rows:
        return _gram_factor(m @ m.T, k)
    k_eff = min(k, rows, cols)
    u_full, s_full, _ = _lapack(np.linalg.svd, m, full_matrices=False)
    (u,) = _fix_signs(u_full[:, :k_eff])
    s = s_full[:k_eff].copy()
    if k_eff < k:
        u = np.hstack([u, _orthonormal_complement(u, k - k_eff)])
    return u, s


def _pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    """The factored form (a, b) of C = <a, b>_1, with the samples on mode 0.

    A plain tensor ``a`` (``b`` None) is the one-sample pair
    ``(a[None], ones(1))``: contracting over its single sample multiplies by
    1.0, so C is ``a`` itself.
    """
    a = np.asarray(a, dtype=np.float64)
    if b is None:
        return a[None], np.ones(1)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim < 1 or b.ndim < 1 or a.shape[0] != b.shape[0]:
        raise ShapeMismatchError(
            f"a pair needs a shared sample mode 0, got shapes {a.shape} and {b.shape}"
        )
    return a, b


def _over_samples(a: np.ndarray, b: np.ndarray) -> bool:
    """The contraction order for C's Grams: over the N x N sample Gram of one
    side when N^2 <= prod(I) prod(J), else over that side's features, which
    forms C (then the smaller array). Tall data never builds an N x N array."""
    return a.shape[0] ** 2 <= math.prod(a.shape[1:]) * math.prod(b.shape[1:])


def _sample_gram(x: np.ndarray) -> np.ndarray:
    flat = x.reshape(x.shape[0], -1)
    return flat @ flat.T


def _project(x: np.ndarray, factors: Sequence[np.ndarray]) -> np.ndarray:
    """One side of a pair projected on its factors (modes 1.. of ``x``)."""
    return multi_mode_product(x, factors, range(1, x.ndim), transpose=True)


def cross_cov_is_zero(a, b) -> bool:
    """Whether C = <a, b>_1 is exactly zero, decided from the pair.

    ||C||^2 equals the inner product of the two N x N sample Grams,
    <a_(0) a_(0)^T, b_(0) b_(0)^T>, and that sum is tested for zero. When C is
    the smaller array (N^2 > prod(I) prod(J)) it is formed and tested entry
    by entry instead.
    """
    a, b = _pair(a, b)
    if _over_samples(a, b):
        return float(np.vdot(_sample_gram(a), _sample_gram(b))) == 0.0
    return not np.any(cross_cov_mode1(a, b))


def _hosvd_factors(a: np.ndarray, b: np.ndarray, ranks: tuple[int, ...]) -> list[np.ndarray]:
    """Per mode n, the leading left singular vectors of C_(n), C = <a, b>_1.

    A wide unfolding takes them from C_(n) C_(n)^T. Over the samples that
    Gram is sum_{s,s'} K[s,s'] x_s,(n) x_s',(n)^T, where x is the side that
    carries mode n and K the other side's sample Gram: x weighted by K over
    the samples, contracted with x over everything but mode n. Otherwise
    (a narrow unfolding, or tall data) C is formed.
    """
    shape = a.shape[1:] + b.shape[1:]
    size = math.prod(shape)
    over_samples = _over_samples(a, b)
    c = None
    factors = []
    for x, other in ((a, b), (b, a)):
        weighted = None
        for axis in range(1, x.ndim):
            n = len(factors)
            if over_samples and size >= _WIDE_FACTOR * shape[n] ** 2:
                if weighted is None:
                    flat = x.reshape(x.shape[0], -1)
                    weighted = (_sample_gram(other) @ flat).reshape(x.shape)
                gram = matricize(weighted, axis) @ matricize(x, axis).T
                u, _ = _gram_factor(gram, ranks[n])
            else:
                if c is None:
                    c = cross_cov_mode1(a, b)
                u, _ = _left_singular_factor(matricize(c, n), ranks[n])
            factors.append(u)
    return factors


def _start(a, b, ranks: Sequence[int]):
    """What :func:`hosvd` and :func:`hooi` start from: the pair, its checked
    ranks, the HOSVD factors (a list) and each side projected on its own."""
    a, b = _pair(a, b)
    ranks = validate_ranks(ranks, a.shape[1:] + b.shape[1:])
    factors = _hosvd_factors(a, b, ranks)
    n_a = a.ndim - 1
    projected = [_project(a, factors[:n_a]), _project(b, factors[n_a:])]
    return a, b, ranks, factors, projected


def hosvd(a: np.ndarray, ranks: Sequence[int], b: np.ndarray | None = None) -> TuckerFactors:
    """Truncated higher-order SVD.

    Decomposes the tensor ``a``, or, given ``b``, the cross-covariance
    C = <a, b>_1 (``a`` and ``b`` share the sample mode 0; C has the modes of
    ``a`` then those of ``b``), forming C only when it is small. Factor ``n``
    holds the leading ``ranks[n]`` left singular vectors of C's mode-n
    matricization; the core is the projection of C onto all factors.
    """
    _, _, _, factors, projected = _start(a, b, ranks)
    return TuckerFactors(core=_contract_mode0(*projected), factors=tuple(factors))


def hooi(
    a: np.ndarray,
    ranks: Sequence[int],
    settings: HooiSettings = HooiSettings(),
    b: np.ndarray | None = None,
) -> TuckerFactors:
    """Higher-order orthogonal iteration, initialized from :func:`hosvd`.

    Decomposes the tensor ``a`` or, given ``b``, C = <a, b>_1 as in
    :func:`hosvd`. Sweeps update the factors in ascending mode order; each
    update takes the leading left singular vectors of C projected on all
    *other* modes' factors. That projection is never taken on C: the side
    carrying the mode is projected on its other factors, the other side on
    all of its current factors, and the two are contracted over the samples.
    The core-norm objective is non-decreasing across sweeps. Non-convergence
    within ``max_iters`` is flagged on the result (``converged=False``), not
    raised.
    """
    a, b, ranks, factors, projected = _start(a, b, ranks)
    n_a = a.ndim - 1
    history = [fro_norm(_contract_mode0(*projected)) ** 2]
    # full multilinear rank: any orthonormal full factors are exact, so the
    # initialization is already optimal and no sweep can improve it
    converged = ranks == a.shape[1:] + b.shape[1:]
    for _ in range(0 if converged else settings.max_iters):
        for i, (x, first) in enumerate(((a, 0), (b, n_a))):
            # mode n's projection takes the modes before n with the factors
            # already updated in this sweep, then the later ones with the
            # previous ones; the first part is carried from mode to mode
            done = x
            for n in range(x.ndim - 1):
                proj = done
                for m in range(n + 1, x.ndim - 1):
                    proj = mode_n_product(proj, factors[first + m].T, m + 1)
                other = projected[1 - i]
                z = _contract_mode0(proj, other) if i == 0 else _contract_mode0(other, proj)
                factors[first + n], s = _left_singular_factor(
                    matricize(z, first + n), ranks[first + n]
                )
                done = mode_n_product(done, factors[first + n].T, n + 1)
            # a side's projection is replaced as soon as its factors change:
            # a stale projection still converges, to a wrong point
            projected[i] = done
        # after the last mode update the core is that factor's transpose
        # applied to its projection, so its squared norm is just sum(s^2)
        prev, objective = history[-1], float(s @ s)
        history.append(objective)
        if abs(objective - prev) <= settings.rel_tol * max(prev, np.finfo(float).tiny):
            converged = True
            break
    return TuckerFactors(
        core=_contract_mode0(*projected),
        factors=tuple(factors),
        objective_history=tuple(history),
        converged=converged,
    )
