"""Orthogonal low-multilinear-rank machinery: truncated SVD, HOSVD, HOOI.

A single deterministic sign convention runs through everything here: the
largest-magnitude entry of each left singular vector is made positive, ties
broken by lowest row index (one rule, :func:`_flips`, for every factor),
which makes all downstream factors, cores and fitted models
bit-reproducible. HOSVD and HOOI fix signs once per decomposition, on exit.
Their factors come from a Gram eigendecomposition for every unfolding at
least as wide as tall (same vectors, cheaper) and from the SVD for a taller
one; :func:`truncated_svd` itself is always the plain LAPACK route.

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

The engine runs on a stack of pairs with the same shapes and ranks, along a
leading batch axis: cross-validation decomposes the residuals of all its
folds in one lockstep HOOI, each item with its own convergence test, and
:func:`hosvd` and :func:`hooi` are a batch of one. Every LAPACK and BLAS
call sees an item in the layout a single pair gives it, so an item's result
has the bits of its own call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DegenerateDataError, RankError, ShapeMismatchError, SvdConvergenceError, _whole
from .tensor import _contract_samples, _mode_product, _multi_mode_product, _unfold, fro_norm

__all__ = [
    "HooiSettings",
    "TuckerFactors",
    "truncated_svd",
    "leading_left_singular_vector",
    "validate_ranks",
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
        object.__setattr__(self, "max_iters", _whole(self.max_iters, "max_iters", ValueError))
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        # written so that NaN fails too: no sweep would ever pass the test
        if not self.rel_tol > 0:
            raise ValueError(f"rel_tol must be > 0, got {self.rel_tol}")


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




def _flips(u: np.ndarray) -> np.ndarray:
    """Per column of ``u`` (or of each item of its stack), the +1 or -1 that
    makes the column's largest-magnitude entry positive, shaped (..., 1, k).
    argmax already breaks ties by lowest index; -1.0 negates exactly."""
    items = (np.arange(len(u))[:, None],) if u.ndim == 3 else ()
    lead = u[(*items, np.abs(u).argmax(axis=-2), np.arange(u.shape[-1]))]
    return np.where(lead < 0, -1.0, 1.0)[..., None, :]


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
    return _truncated_svd(m, k)


def _truncated_svd(m: np.ndarray, k: int):
    """:func:`truncated_svd` of a matrix or of each item of a stack, unchecked."""
    u, s, vh = _lapack(np.linalg.svd, m, full_matrices=False)
    flips = _flips(u[..., :k])
    return u[..., :k] * flips, s[..., :k].copy(), vh[..., :k, :].swapaxes(-1, -2) * flips


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
    n = u.shape[-2]
    projector = np.eye(n) - u @ u.swapaxes(-1, -2)
    comp, _, _ = _truncated_svd(projector, n - u.shape[-1])
    return comp[..., :extra]


def _gram_factor(g: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Leading k eigenvectors of a stack of Gram matrices ``m m^T`` (the
    leading left singular vectors of ``m``, signs unfixed) with the singular
    values sqrt(eigenvalue)."""
    evals, evecs = _lapack(np.linalg.eigh, g)
    u = np.ascontiguousarray(evecs[..., ::-1][..., :k])
    return u, np.sqrt(np.maximum(evals[..., ::-1][..., :k], 0.0))


def _left_singular_factor(m: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Leading k left singular vectors (with their singular values) of each
    matrix of a stack, signs unfixed, as a fresh C-order stack: from the
    Gram when the matrices are at least as wide as tall (about half an
    SVD's cost), else from the SVD (the Gram would be the larger matrix),
    padded with an orthonormal complement when they have fewer than k
    columns (the extra directions carry zero core weight)."""
    rows, cols = m.shape[-2:]
    if cols >= rows:
        return _gram_factor(m @ m.swapaxes(-1, -2), k)
    k_eff = min(k, cols)
    u_full, s_full, _ = _lapack(np.linalg.svd, m, full_matrices=False)
    u = np.ascontiguousarray(u_full[..., :k_eff])
    s = s_full[..., :k_eff].copy()
    if k_eff < k:
        u = np.concatenate([u, _orthonormal_complement(u, k - k_eff)], axis=-1)
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


# From here on ``a`` and ``b`` are stacks of pairs: item i is the pair
# (a[i], b[i]), with its samples on axis 1.


def _over_samples(a: np.ndarray, b: np.ndarray) -> bool:
    """The contraction order for C's Grams: over the N x N sample Gram of one
    side when N^2 <= prod(I) prod(J), else over that side's features, which
    forms C (then the smaller array). Tall data never builds an N x N array."""
    return a.shape[1] ** 2 <= math.prod(a.shape[2:]) * math.prod(b.shape[2:])


def _sample_gram(x: np.ndarray) -> np.ndarray:
    flat = x.reshape(x.shape[:2] + (-1,))
    return flat @ flat.swapaxes(1, 2)


def _project(x: np.ndarray, factors: Sequence[np.ndarray]) -> np.ndarray:
    """One side of each pair projected on its factors (the item modes 1..)."""
    return _multi_mode_product(x, factors, range(2, x.ndim), transpose=True)


def _cross_cov_zero(a: np.ndarray, b: np.ndarray) -> list[bool]:
    """Whether C = <a, b>_1 is exactly zero, for every pair of the stacks.

    ||C||^2 equals the inner product of the two N x N sample Grams,
    <a_(0) a_(0)^T, b_(0) b_(0)^T>, and that sum is tested for zero. When C is
    the smaller array (N^2 > prod(I) prod(J)) it is formed and tested entry
    by entry instead.
    """
    if _over_samples(a, b):
        grams = zip(_sample_gram(a), _sample_gram(b))
        return [float(np.vdot(ga, gb)) == 0.0 for ga, gb in grams]
    return [not np.any(c) for c in _contract_samples(a, b)]


def _hosvd_factors(a: np.ndarray, b: np.ndarray, ranks: tuple[int, ...]) -> list[np.ndarray]:
    """Per mode n, the leading left singular vectors of C_(n), C = <a, b>_1,
    as a stack over the pairs (signs unfixed).

    A wide unfolding (C has at least I_n^2 entries) takes them from
    C_(n) C_(n)^T. Over the samples that Gram is sum_{s,s'} K[s,s']
    x_s,(n) x_s',(n)^T, where x is the side that carries mode n and K the
    other side's sample Gram: x weighted by K over the samples, contracted
    with x over everything but mode n. Otherwise (a narrow unfolding, or
    tall data) C is formed.
    """
    shape = a.shape[2:] + b.shape[2:]
    size = math.prod(shape)
    over_samples = _over_samples(a, b)
    c = None
    factors = []
    for x, other in ((a, b), (b, a)):
        weighted = None
        for axis in range(2, x.ndim):
            n = len(factors)
            if over_samples and size >= shape[n] ** 2:
                if weighted is None:
                    flat = x.reshape(x.shape[:2] + (-1,))
                    weighted = (_sample_gram(other) @ flat).reshape(x.shape)
                gram = _unfold(weighted, axis) @ _unfold(x, axis).swapaxes(1, 2)
                u, _ = _gram_factor(gram, ranks[n])
            else:
                if c is None:
                    c = _contract_samples(a, b)
                u, _ = _left_singular_factor(_unfold(c, n + 1), ranks[n])
            factors.append(u)
    return factors


def _start(a: np.ndarray, b: np.ndarray, ranks: tuple[int, ...]):
    """What :func:`hosvd` and :func:`hooi` start from: the C-order stacks,
    the HOSVD factors (a list of stacks, signs unfixed) and each side
    projected on its own."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    factors = _hosvd_factors(a, b, ranks)
    n_a = a.ndim - 2
    projected = [_project(a, factors[:n_a]), _project(b, factors[n_a:])]
    return a, b, factors, projected


def _signed(core: np.ndarray, factors: Sequence[np.ndarray]):
    """The exit of HOSVD and HOOI: each factor column and the matching core
    slices times the column's :func:`_flips` sign. A column's sign negates
    whole slices of the projections on it, which leaves every Gram, SVD
    singular value, objective and stop decision as it was."""
    signed = []
    for n, u in enumerate(factors):
        flips = _flips(u)
        signed.append(u * flips)
        core = core * flips.reshape((len(u),) + (1,) * n + (-1,) + (1,) * (core.ndim - n - 2))
    return core, signed


def hosvd(a: np.ndarray, ranks: Sequence[int], b: np.ndarray | None = None) -> TuckerFactors:
    """Truncated higher-order SVD.

    Decomposes the tensor ``a``, or, given ``b``, the cross-covariance
    C = <a, b>_1 (``a`` and ``b`` share the sample mode 0; C has the modes of
    ``a`` then those of ``b``), forming C only when it is small. Factor ``n``
    holds the leading ``ranks[n]`` left singular vectors of C's mode-n
    matricization; the core is the projection of C onto all factors.
    """
    a, b = _pair(a, b)
    ranks = validate_ranks(ranks, a.shape[1:] + b.shape[1:])
    _, _, factors, projected = _start(a[None], b[None], ranks)
    core, factors = _signed(_contract_samples(*projected), factors)
    return TuckerFactors(core=core[0], factors=tuple(f[0] for f in factors))


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
    raised. This is a batch of one of the lockstep engine.
    """
    a, b = _pair(a, b)
    ranks = validate_ranks(ranks, a.shape[1:] + b.shape[1:])
    core, factors, history, converged = _hooi(a[None], b[None], ranks, settings)
    return TuckerFactors(
        core=core[0],
        factors=tuple(f[0] for f in factors),
        objective_history=tuple(history[0]),
        converged=converged[0],
    )


def _hooi(a: np.ndarray, b: np.ndarray, ranks: tuple[int, ...], settings: HooiSettings):
    """:func:`hooi` of every pair of the stacks ``a`` and ``b``, in lockstep.

    Returns the core stack, the list of factor stacks, and per item its
    objective history (a list) and converged flag. Each item runs the
    serial stopping test on its own objective, float(s @ s); an item that
    converges writes its core and factors, as they stand, into the output
    stacks and leaves the working stacks by index, and the others sweep on.
    While every item is still sweeping the sweeps run on the stacks
    themselves, copying nothing. Factor signs are fixed once, on exit, for
    every item alike.
    """
    a, b, factors, projected = _start(a, b, ranks)
    n_a = a.ndim - 2
    history = [[fro_norm(c) ** 2] for c in _contract_samples(*projected)]
    # full multilinear rank: any orthonormal full factors are exact, so the
    # initialization is already optimal and no sweep can improve it
    full = ranks == a.shape[2:] + b.shape[2:]
    converged = [full] * len(a)
    core = np.empty((len(a),) + ranks)
    out = [np.empty_like(f) for f in factors]
    active = np.arange(len(a))

    def settle(items):
        # the core and factors of the working items ``items``, into the output
        core[active[items]] = _contract_samples(*(p[items] for p in projected))
        for o, f in zip(out, factors):
            o[active[items]] = f[items]

    for _ in range(0 if full else settings.max_iters):
        for i, (x, first) in enumerate(((a, 0), (b, n_a))):
            # mode n's projection takes the modes before n with the factors
            # already updated in this sweep, then the later ones with the
            # previous ones; the first part is carried from mode to mode
            done = x
            for n in range(x.ndim - 2):
                proj = done
                for m in range(n + 1, x.ndim - 2):
                    proj = _mode_product(proj, factors[first + m].swapaxes(1, 2), m + 2)
                # C projected on every other mode, passed on unbound: its
                # unfolding is mostly a copy, and C's size times the stack
                # would otherwise be held twice
                pair = (proj, projected[1]) if i == 0 else (projected[0], proj)
                factors[first + n], s = _left_singular_factor(
                    _unfold(_contract_samples(*pair), first + n + 1), ranks[first + n]
                )
                done = _mode_product(done, factors[first + n].swapaxes(1, 2), n + 2)
            # a side's projection is replaced as soon as its factors change:
            # a stale projection still converges, to a wrong point
            projected[i] = done
        # after the last mode update the core is that factor's transpose
        # applied to its projection, so its squared norm is just sum(s^2)
        stop = []
        for j, (item, s_item) in enumerate(zip(active, s)):
            prev, objective = history[item][-1], float(s_item @ s_item)
            history[item].append(objective)
            if abs(objective - prev) <= settings.rel_tol * max(prev, np.finfo(float).tiny):
                converged[item] = True
                stop.append(j)
        if len(stop) == len(active):
            break
        if stop:
            settle(stop)
            going = [j for j in range(len(active)) if j not in stop]
            a, b, active = a[going], b[going], active[going]
            factors = [f[going] for f in factors]
            projected = [p[going] for p in projected]
    settle(slice(None))
    return (*_signed(core, out), history, converged)
