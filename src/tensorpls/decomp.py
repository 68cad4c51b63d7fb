"""Orthogonal low-multilinear-rank machinery: truncated SVD, HOSVD, HOOI.

A single deterministic sign convention runs through everything here: the
largest-magnitude entry of each left singular vector is made positive, ties
broken by lowest row index. That makes all downstream factor matrices,
cores and fitted models bit-reproducible. Factor extraction inside
HOSVD/HOOI switches to a Gram eigendecomposition for unfoldings much wider
than tall (same vectors, much cheaper); :func:`truncated_svd` itself is
always the plain LAPACK route.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DegenerateDataError, RankError, SvdConvergenceError
from .tensor import fro_norm, matricize, mode_n_product, tucker_contract

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


def _sign_flips(u: np.ndarray) -> np.ndarray | None:
    # Largest-magnitude entry of each left singular vector made positive;
    # argmax already breaks ties by lowest index. Returns one factor of +1
    # or -1 per column (multiplying by -1.0 negates exactly), or None when
    # no column needs a flip.
    lead = u[np.abs(u).argmax(axis=0), np.arange(u.shape[1])]
    negative = lead < 0
    if not negative.any():
        return None
    return np.where(negative, -1.0, 1.0)


def _fix_signs(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    flips = _sign_flips(u)
    if flips is None:
        return u, v
    return u * flips, v * flips


def _fix_signs_left(u: np.ndarray) -> np.ndarray:
    flips = _sign_flips(u)
    return u if flips is None else u * flips


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
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise SvdConvergenceError(f"SVD did not converge: {exc}") from exc
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


# Unfoldings at least this many times wider than tall go through the Gram
# eigendecomposition (same left singular vectors, much cheaper).
_WIDE_FACTOR = 4


def _left_singular_factor(m: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Leading k left singular vectors (with their singular values), padded
    with an orthonormal complement when the matrix has fewer than k columns
    (the extra directions carry zero core weight, so reconstructions are
    unaffected)."""
    rows, cols = m.shape
    k_eff = min(k, rows, cols)
    if cols >= _WIDE_FACTOR * rows:
        try:
            evals, evecs = np.linalg.eigh(m @ m.T)
        except np.linalg.LinAlgError as exc:
            raise SvdConvergenceError(f"eigh did not converge: {exc}") from exc
        u = _fix_signs_left(evecs[:, ::-1][:, :k_eff])
        s = np.sqrt(np.clip(evals[::-1][:k_eff], 0.0, None))
    else:
        try:
            u_full, s_full, _ = np.linalg.svd(m, full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise SvdConvergenceError(f"SVD did not converge: {exc}") from exc
        u = _fix_signs_left(u_full[:, :k_eff])
        s = s_full[:k_eff].copy()
    if k_eff < k:
        u = np.hstack([u, _orthonormal_complement(u, k - k_eff)])
    return u, s


def hosvd(t: np.ndarray, ranks: Sequence[int]) -> TuckerFactors:
    """Truncated higher-order SVD.

    Factor ``n`` holds the leading ``ranks[n]`` left singular vectors of the
    mode-``n`` matricization; the core is the projection of ``t`` onto all
    factors.
    """
    t = np.asarray(t, dtype=np.float64)
    ranks = validate_ranks(ranks, t.shape)
    factors = tuple(
        _left_singular_factor(matricize(t, n), r)[0] for n, r in enumerate(ranks)
    )
    core = tucker_contract(t, factors)
    return TuckerFactors(core=core, factors=factors)


def hooi(
    t: np.ndarray,
    ranks: Sequence[int],
    settings: HooiSettings = HooiSettings(),
) -> TuckerFactors:
    """Higher-order orthogonal iteration, initialized from :func:`hosvd`.

    Sweeps update the factors in ascending mode order; each update takes the
    leading left singular vectors of the tensor projected on all *other*
    modes' factors. The core-norm objective is non-decreasing across sweeps.
    Non-convergence within ``max_iters`` is flagged on the result
    (``converged=False``), not raised.
    """
    t = np.asarray(t, dtype=np.float64)
    ranks = validate_ranks(ranks, t.shape)
    init = hosvd(t, ranks)
    if ranks == t.shape:
        # full multilinear rank: any orthonormal full factors are exact, so
        # the initialization is already optimal and no sweep can improve it
        return TuckerFactors(
            core=init.core,
            factors=init.factors,
            objective_history=(fro_norm(init.core) ** 2,),
            converged=True,
        )
    factors = list(init.factors)
    objective = fro_norm(init.core) ** 2
    history = [objective]
    converged = False
    for _ in range(settings.max_iters):
        # mode n's projection contracts modes 0..n-1 with the factors already
        # updated in this sweep, then modes n+1.. with the previous ones; the
        # first part is shared, so it is carried from one mode to the next
        done = t
        for n in range(t.ndim):
            proj = done
            for m in range(n + 1, t.ndim):
                proj = mode_n_product(proj, factors[m].T, m)
            factors[n], s = _left_singular_factor(matricize(proj, n), ranks[n])
            if n + 1 < t.ndim:
                done = mode_n_product(done, factors[n].T, n)
        # after the last mode update the core is factors[-1]^T applied to
        # that projection, so its squared norm is just sum(s^2)
        prev, objective = objective, float(s @ s)
        history.append(objective)
        if abs(objective - prev) <= settings.rel_tol * max(prev, np.finfo(float).tiny):
            converged = True
            break
    core = tucker_contract(t, factors)
    return TuckerFactors(
        core=core,
        factors=tuple(factors),
        objective_history=tuple(history),
        converged=converged,
    )
