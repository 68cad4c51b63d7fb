"""Latent-variable regression estimators.

Three fitting routines live here:

* :func:`fit_hopls` — tensor predictors, tensor responses. Each component is
  an orthogonal Tucker block sharing one latent vector between X and Y; the
  loadings come from an orthogonal Tucker decomposition of the mode-0
  cross-covariance tensor of the current residuals, taken through the
  residuals themselves (:func:`~tensorpls.decomp.hooi` on the pair), so the
  tensor is not formed unless it is small.
* :func:`fit_hopls2` — tensor predictors, matrix responses; the response side
  collapses to a rank-one term ``d_r * t_r q_r^T`` per component, the
  Tucker block with one loading ``q_r`` and the 1 x 1 core ``[[d_r]]``.
* :func:`fit_pls_nipals` — the classical two-way baseline.

An N-PLS-style baseline is the all-ranks-one configuration of
:func:`fit_hopls` (``FitConfig.uniform(..., 1)``); the rank-one blocks it
produces are plain outer products.

All three run one deflation loop (:func:`_deflate`): centre, extract one
component from the running residuals, subtract its fitted block from both,
and stop when a residual is used up (under epsilon, exactly zero) or the
requested count is reached. The Tucker fits share one step
(:func:`_fit_tucker`) and differ only in how they find the latent vector:
both cores contract the residuals (HOPLS2's is ``d_r = t_r^T F q_r``).
The loop and the Tucker step run on a stack of fits along a leading batch
axis, each fit with its own stop tests and stop reason; a public fit is a
batch of one, and cross-validation fits its folds as one stack
(:func:`_fit_stack`; PLS still one fold at a time). Both
model records are a :class:`FittedModel`: :class:`HoplsModel` holds the
Tucker blocks of HOPLS, HOPLS2 and N-PLS, :class:`PlsModel` the NIPALS vectors.

Latent vectors have unit norm, all loading matrices are column-orthonormal,
and models are immutable after fitting. Mode-0 mean-centering is on by
default and is undone at prediction time. Residual norms never increase.

Every model is a linear predictor with two operators: a score operator W
(X features x R) and a response operator (Y features x R), their rows in
the row-major (C-order) feature order of ``X.reshape(n, -1)``. A model
stores only its parameters and derives both operators from them, once per
model. Prediction is ``((X - x_mean).reshape(n, -1) W
response_operator^T).reshape((n,) + y_shape) + y_mean`` for all of them,
on the batch as it lies in memory, one block of rows at a time.
:data:`ALGORITHMS` is the one table that maps a method name to its fit
call, its configuration, its lambda range and its model-file tag.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .decomp import (
    HooiSettings,
    _cross_cov_zero,
    _hooi,
    _truncated_svd,
    hooi,
    validate_ranks,
)
from .errors import DegenerateDataError, RankError, ShapeMismatchError
from .tensor import (
    _multi_mode_product,
    _unfold,
    astensor,
    fro_norm,
    kron_all,
    tucker_assemble,
)

__all__ = [
    "ALGORITHMS",
    "Algorithm",
    "FitConfig",
    "FittedModel",
    "HoplsComponent",
    "HoplsModel",
    "PlsModel",
    "STOP_REASONS",
    "algorithm",
    "algorithm_of",
    "center_mode1",
    "fit_hopls",
    "fit_hopls2",
    "fit_pls_nipals",
    "predict_hopls",
    "predict_hopls2",
    "predict_pls",
]

# Relative factor applied to the initial residual norms when FitConfig.epsilon
# is left unset.
DEFAULT_EPSILON_FACTOR = 1e-8

# NIPALS inner loop: stop when the latent vector moves less than NIPALS_TOL,
# or after NIPALS_MAX_ITER alternations.
NIPALS_TOL = 1e-10
NIPALS_MAX_ITER = 500

# Why extraction ended: every requested component found, a residual norm
# under epsilon, no shared variance left, or a vanishing core/weight.
STOP_REASONS = ("completed", "epsilon", "zero_cross_cov", "degenerate_core")


@dataclass(frozen=True)
class FitConfig:
    """Hyperparameters shared by the tensor estimators.

    Parameters
    ----------
    n_components : int
        Number of latent vectors to extract (R).
    x_ranks : tuple of int
        Loading counts for the non-sample modes of X, one per mode.
    y_ranks : tuple of int
        Same for Y; ignored when the response is a matrix.
    epsilon : float, optional
        Residual-norm stopping threshold. ``None`` means
        ``1e-8 * initial residual norm``, separately per side.
    center : bool
        Remove the mode-0 mean of X and Y before fitting (default on).
    """

    n_components: int
    x_ranks: tuple[int, ...]
    y_ranks: tuple[int, ...] = ()
    epsilon: float | None = None
    center: bool = True

    def __post_init__(self) -> None:
        # stored as plain Python values: a model file takes no numpy scalar
        object.__setattr__(self, "n_components", _whole(self.n_components))
        object.__setattr__(self, "x_ranks", tuple(map(_whole, self.x_ranks)))
        object.__setattr__(self, "y_ranks", tuple(map(_whole, self.y_ranks)))
        object.__setattr__(self, "epsilon", _check_epsilon(self.epsilon))
        object.__setattr__(self, "center", bool(self.center))
        if self.n_components < 1:
            raise RankError("n_components must be >= 1")
        if any(r < 1 for r in self.x_ranks + self.y_ranks):
            raise RankError("all loading counts must be >= 1")

    @classmethod
    def uniform(
        cls,
        n_components: int,
        lam: int,
        x_order: int,
        y_order: int | None = None,
        **kwargs,
    ) -> "FitConfig":
        """The same loading count ``lam`` on every non-sample mode."""
        y_ranks = (lam,) * (y_order - 1) if y_order is not None else ()
        return cls(n_components, (lam,) * (x_order - 1), y_ranks, **kwargs)

    @property
    def lam(self) -> int:
        """Uniform loading count, if the config was built that way."""
        counts = set(self.x_ranks) | set(self.y_ranks)
        if len(counts) != 1:
            raise ValueError("loading counts are not uniform")
        return counts.pop()


@dataclass(frozen=True)
class FittedModel:
    """The fields every fitted model shares.

    ``x_shape``/``y_shape`` are the trailing (non-sample) shapes of the
    training data, the means are None when fitted uncentred, and the
    residual norms hold the initial norm plus one entry per component.

    A model stores its parameters only; each subclass derives
    ``score_operator`` and ``response_operator`` from them as cached
    properties, so they are never saved and a ``replace``d model derives its own.
    """

    x_shape: tuple[int, ...]
    y_shape: tuple[int, ...]
    x_mean: np.ndarray | None
    y_mean: np.ndarray | None
    x_residual_norms: tuple[float, ...]
    y_residual_norms: tuple[float, ...]
    stop_reason: str


@dataclass(frozen=True)
class HoplsComponent:
    """One extracted block: latent vector, per-mode loadings, both cores."""

    t: np.ndarray
    x_loadings: tuple[np.ndarray, ...]
    y_loadings: tuple[np.ndarray, ...]
    x_core: np.ndarray
    y_core: np.ndarray

    def x_block(self) -> np.ndarray:
        return tucker_assemble(self.x_core, (self.t[:, None],) + self.x_loadings)

    def y_block(self) -> np.ndarray:
        return tucker_assemble(self.y_core, (self.t[:, None],) + self.y_loadings)


@dataclass(frozen=True)
class HoplsModel(FittedModel):
    """Fitted sum of Tucker blocks: HOPLS, N-PLS and, on a matrix response, HOPLS2.

    The score operator is W = (P_2 (x) ... (x) P_N) vec(G)^+ and the
    response operator (Q_2 (x) ... (x) Q_M) vec(D), one column per
    component, the cores vectorised row-major: the paper's
    (P_N (x) ... (x) P_2) G^+ with its rows in the order of
    ``X.reshape(n, -1)``. For a matrix response the column is
    ``q_r [[d_r]]``, that is ``d_r q_r``.
    """

    config: FitConfig
    components: tuple[HoplsComponent, ...]

    @property
    def n_components(self) -> int:
        return len(self.components)

    @cached_property
    def score_operator(self) -> np.ndarray:
        return _columns(
            [kron_all(c.x_loadings) @ _row_pinv(c.x_core.reshape(1, -1)) for c in self.components],
            math.prod(self.x_shape),
        )

    @cached_property
    def response_operator(self) -> np.ndarray:
        return _columns(
            [kron_all(c.y_loadings) @ c.y_core.reshape(1, -1).T for c in self.components],
            math.prod(self.y_shape),
        )


@dataclass(frozen=True)
class PlsModel(FittedModel):
    """Two-way NIPALS model: X ~ T P^T, Y ~ T D Q^T.

    ``x_shape`` and ``y_shape`` are the trailing shapes of the data it was
    fitted on; the weights and loadings index their row-major feature axes.
    """

    x_weights: np.ndarray
    x_loadings: np.ndarray
    y_loadings: np.ndarray
    coefs: np.ndarray

    @property
    def n_components(self) -> int:
        return self.x_weights.shape[1]

    @cached_property
    def score_operator(self) -> np.ndarray:
        """R = W (P^T W)^-1, so that the training scores are T = X R.

        P^T W is unit upper triangular, so the leading r columns of R are
        exactly the r-component model's operator.
        """
        pw = self.x_loadings.T @ self.x_weights
        return np.linalg.solve(pw.T, self.x_weights.T).T

    @cached_property
    def response_operator(self) -> np.ndarray:
        return self.y_loadings * self.coefs


def _check_epsilon(epsilon: float | None) -> float | None:
    # the test is written so that NaN fails too: it would never stop the loop
    if epsilon is not None and not epsilon >= 0:
        raise RankError(f"epsilon must be >= 0, got {epsilon}")
    return None if epsilon is None else float(epsilon)


def _whole(count) -> int:
    """A count given as a Python or numpy integer, as a Python int."""
    try:
        return operator.index(count)
    except TypeError:
        raise RankError(f"counts must be whole numbers, got {count!r}") from None


def center_mode1(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Remove the mode-0 mean; returns (centered tensor, mean field)."""
    centred, (mean,) = _centre(astensor(t)[None])
    return centred[0], mean


def _centre(ts: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Each item of a stack with its mode-0 mean removed, and the means (each
    taken on its item, so with the item's own summation order)."""
    means = [t.mean(axis=0) for t in ts]
    return ts - np.stack(means)[:, None], means


def _columns(vectors, rows: int) -> np.ndarray:
    """Stack per-component columns into a ``rows x R`` matrix (R may be 0)."""
    return np.column_stack(vectors) if vectors else np.zeros((rows, 0))


def _row_pinv(rows: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse of each 1 x K row of ``rows`` (..., 1, K),
    as the (..., K, 1) columns row^T / (row row^T).

    A row has a single singular value (its norm), so the usual
    rcond * s_max cutoff degenerates to the exact-zero check: a zero row's
    pseudoinverse is zero.
    """
    s2 = [float(np.dot(r, r)) for r in rows.reshape(-1, rows.shape[-1])]
    s2 = np.reshape(s2, rows.shape[:-1] + (1,))
    pinv = np.divide(rows, s2, out=np.zeros(rows.shape), where=s2 != 0.0)
    return pinv.swapaxes(-1, -2)


def _going(outcomes: list, *stacks: np.ndarray) -> tuple[np.ndarray, ...]:
    """The stacks cut to the items whose outcome is None (as they are when
    no item has another outcome)."""
    keep = [j for j, out in enumerate(outcomes) if out is None]
    if len(keep) == len(outcomes):
        return stacks
    return tuple(s[keep] for s in stacks)


def _fill(outcomes: list, values) -> None:
    """Put ``values``, in order, into the entries of ``outcomes`` that are None."""
    values = iter(values)
    for j, out in enumerate(outcomes):
        if out is None:
            outcomes[j] = next(values)


def _deflate(xs, ys, n_components: int, epsilon, center: bool, step):
    """The sequential-deflation loop every estimator shares, on a stack of fits.

    Item i of the leading batch axis of ``xs`` and ``ys`` is one fit's X and
    Y; a single fit is a batch of one. Centres each item (or, uncentred,
    starts from them as given), then calls ``step(e, f)`` once per component
    on the stacked residuals of the fits still going. A step returns
    ``(outcomes, e, f)``: per item either its part or a stop reason from
    :data:`STOP_REASONS`, and the new deflated residuals of the items with a
    part (never written into the old ones). Before each step a fit stops on
    an exactly zero residual (``'zero_cross_cov'``: no shared variance left)
    or on a residual norm at or under epsilon (``'epsilon'``; ``None``
    means ``1e-8`` times the initial norm, separately per side). A fit that
    stops leaves the stacks by index; every stop test is the one a single
    fit makes, on its own norms.

    Returns, per fit, the :class:`FittedModel` fields as a dict and the
    list of parts.
    """
    if xs.shape[1] != ys.shape[1]:
        raise ShapeMismatchError(f"sample counts differ: {xs.shape[1]} vs {ys.shape[1]}")
    if center:
        (e, x_means), (f, y_means) = _centre(xs), _centre(ys)
    else:
        e, f = xs, ys
        x_means = y_means = [None] * len(xs)
    x_norms = [[fro_norm(item)] for item in e]
    y_norms = [[fro_norm(item)] for item in f]
    if epsilon is None:
        eps = [(DEFAULT_EPSILON_FACTOR * xn[0], DEFAULT_EPSILON_FACTOR * yn[0])
               for xn, yn in zip(x_norms, y_norms)]
    else:
        eps = [(epsilon, epsilon)] * len(xs)

    parts = [[] for _ in xs]
    stop_reasons = ["completed"] * len(xs)
    active = list(range(len(xs)))
    for _ in range(n_components):
        outcomes = [
            "zero_cross_cov" if x_norms[i][-1] == 0.0 or y_norms[i][-1] == 0.0
            else "epsilon" if x_norms[i][-1] <= eps[i][0] or y_norms[i][-1] <= eps[i][1]
            else None
            for i in active
        ]
        e, f = _going(outcomes, e, f)
        if len(e):
            found, e, f = step(e, f)
            _fill(outcomes, found)
        for i, out in zip(active, outcomes):
            if isinstance(out, str):
                stop_reasons[i] = out
            else:
                parts[i].append(out)
        active = [i for i, out in zip(active, outcomes) if not isinstance(out, str)]
        if not active:
            break
        for i, e_item, f_item in zip(active, e, f):
            x_norms[i].append(fro_norm(e_item))
            y_norms[i].append(fro_norm(f_item))

    shared = [
        dict(
            x_shape=xs.shape[2:],
            y_shape=ys.shape[2:],
            x_mean=x_means[i],
            y_mean=y_means[i],
            x_residual_norms=tuple(x_norms[i]),
            y_residual_norms=tuple(y_norms[i]),
            stop_reason=stop_reasons[i],
        )
        for i in range(len(xs))
    ]
    return shared, parts


def _fit_tucker(xs, ys, cfg: FitConfig, latent) -> list[HoplsModel]:
    """The deflation loop with the step every Tucker fit shares, on a stack of fits.

    ``latent(e, f)`` gives, per item of the residual stacks, None or a stop
    reason, and for the items without one the stacks ``(t, x_loadings,
    y_loadings)`` (or None when no item is left); each core is its residual
    contracted with them, and each residual loses the component's own
    fitted block.
    """

    def step(e, f):
        outcomes = ["zero_cross_cov" if zero else None for zero in _cross_cov_zero(e, f)]
        e, f = _going(outcomes, e, f)
        if len(e):
            stops, found = latent(e, f)
            _fill(outcomes, stops)
            e, f = _going(stops, e, f)
        if len(e):
            t, ps, qs = found
            x_factors, y_factors = (t[..., None], *ps), (t[..., None], *qs)
            x_core = _multi_mode_product(e, x_factors, range(1, e.ndim), transpose=True)
            y_core = _multi_mode_product(f, y_factors, range(1, f.ndim), transpose=True)
            _fill(outcomes, (
                HoplsComponent(t[j], tuple(p[j] for p in ps), tuple(q[j] for q in qs),
                               x_core=x_core[j], y_core=y_core[j])
                for j in range(len(t))
            ))
            e = e - _multi_mode_product(x_core, x_factors, range(1, e.ndim))
            f = f - _multi_mode_product(y_core, y_factors, range(1, f.ndim))
        return outcomes, e, f

    shared, components = _deflate(xs, ys, cfg.n_components, cfg.epsilon, cfg.center, step)
    return [HoplsModel(config=cfg, components=tuple(c), **kw) for kw, c in zip(shared, components)]


def _decompose(a, b, ranks: tuple[int, ...], hooi_settings: HooiSettings):
    """Core and factor stacks of the HOOI of every stacked pair. A batch of
    one goes through :func:`~tensorpls.decomp.hooi` itself, so a wrapper on
    it (a profiler's, say) sees each single fit's decompositions."""
    if len(a) > 1:
        return _hooi(a, b, ranks, hooi_settings)[:2]
    tuck = hooi(a[0], ranks, hooi_settings, b=b[0])
    return tuck.core[None], [f[None] for f in tuck.factors]


def fit_hopls(
    x,
    y,
    cfg: FitConfig,
    hooi_settings: HooiSettings = HooiSettings(),
) -> HoplsModel:
    """Fit the tensor-to-tensor model by sequential deflation.

    Per component: the cross-covariance tensor C = <E, F>_1 of the
    residuals is decomposed at rank ``x_ranks + y_ranks`` by orthogonal
    iteration, giving the X- and Y-loadings; the latent vector is the
    leading left singular vector of the X-residual projected on the
    X-loadings. Both cores follow by contraction, and the blocks are subtracted.

    C (prod(I) * prod(J) entries) is not formed unless it is small. Each
    HOOI projection of C is E and F projected on their loadings and
    contracted over the N samples. The HOSVD start gets C_(n) C_(n)^T by
    weighting one residual with the other's N x N sample Gram; it forms C
    only when N^2 exceeds the size of C, or for a narrow unfolding (fewer
    than I_n^2 entries: taller than wide).

    Extraction stops early when a residual norm falls below epsilon
    (``stop_reason='epsilon'``), when the cross-covariance vanishes — no
    shared variance left — (``'zero_cross_cov'``), or degenerates
    (``'degenerate_core'``). The model keeps whatever components were found.
    C counts as vanished when ||C||^2, computed in sample space as the inner
    product of the two residuals' N x N sample Grams, is exactly zero (or,
    when N^2 exceeds the size of C, when every entry of C is).

    The fit is a batch of one of the lockstep fit that cross-validation
    runs on its folds.
    """
    (model,) = _fit_hopls(astensor(x)[None], astensor(y)[None], cfg, hooi_settings)
    return model


def _fit_hopls(xs, ys, cfg: FitConfig, hooi_settings: HooiSettings) -> list[HoplsModel]:
    """:func:`fit_hopls` of every item of the stacks ``xs`` and ``ys``, in lockstep."""
    if xs.ndim < 4 or ys.ndim < 4:
        raise ShapeMismatchError(
            "fit_hopls needs order >= 3 on both sides; use fit_hopls2 for a matrix response"
        )
    # validate_ranks also checks that each side has one count per non-sample mode
    ranks = validate_ranks(cfg.x_ranks, xs.shape[2:]) + validate_ranks(cfg.y_ranks, ys.shape[2:])
    n_modes_x = xs.ndim - 2

    def latent(e, f):
        _, factors = _decompose(e, f, ranks, hooi_settings)
        proj = _multi_mode_product(e, factors[:n_modes_x], range(2, e.ndim), transpose=True)
        stops = [None if np.any(p) else "degenerate_core" for p in proj]
        proj, *factors = _going(stops, proj, *factors)
        if not len(proj):
            return stops, None
        u, _, _ = _truncated_svd(_unfold(proj, 1), 1)
        return stops, (u[..., 0], factors[:n_modes_x], factors[n_modes_x:])

    return _fit_tucker(xs, ys, cfg, latent)


def fit_hopls2(
    x,
    y,
    cfg: FitConfig,
    hooi_settings: HooiSettings = HooiSettings(),
) -> HoplsModel:
    """Fit the tensor-to-matrix model.

    The cross-covariance here is the response matrix contracted with the
    residual tensor over mode 0, C = <F, E>_1 with the response mode first;
    its rank-(1, x_ranks) decomposition yields the unit response loading
    ``q_r`` and the X-loadings. As in :func:`fit_hopls`, C is not formed:
    HOOI runs on the pair (F, E). The latent vector sets the core's
    vectorization against the projected residual (pseudoinverse step) and
    is then normalized. The rest is the step :func:`fit_hopls` takes: the
    Y core is the 1 x 1 contraction ``[[d_r]]``, d_r = t_r^T F q_r, and F
    loses the block ``d_r t_r q_r^T``. Like :func:`fit_hopls`, a batch of
    one of the lockstep fit.
    """
    (model,) = _fit_hopls2(astensor(x)[None], astensor(y)[None], cfg, hooi_settings)
    return model


def _fit_hopls2(xs, ys, cfg: FitConfig, hooi_settings: HooiSettings) -> list[HoplsModel]:
    """:func:`fit_hopls2` of every item of the stacks ``xs`` and ``ys``, in lockstep."""
    if ys.ndim != 3:
        raise ShapeMismatchError(f"expected a matrix, got order {ys.ndim - 1}")
    if xs.ndim < 4:
        raise ShapeMismatchError("fit_hopls2 needs an order >= 3 predictor")
    ranks = (1,) + validate_ranks(cfg.x_ranks, xs.shape[2:])

    def latent(e, f):
        core, factors = _decompose(f, e, ranks, hooi_settings)
        c_core_rows = _unfold(core, 1)
        stops = [None if np.any(row) else "degenerate_core" for row in c_core_rows]
        e, c_core_rows, *factors = _going(stops, e, c_core_rows, *factors)
        if not len(e):
            return stops, None
        proj = _multi_mode_product(e, factors[1:], range(2, e.ndim), transpose=True)
        t_raw = _unfold(proj, 1) @ _row_pinv(c_core_rows)
        norms = [float(np.linalg.norm(t)) for t in t_raw]
        zero = ["degenerate_core" if norm == 0.0 else None for norm in norms]
        _fill(stops, zero)
        t_raw, *factors = _going(zero, t_raw, *factors)
        if not len(t_raw):
            return stops, None
        norms = np.array([norm for norm in norms if norm != 0.0])
        return stops, (t_raw[..., 0] / norms[:, None], factors[1:], factors[:1])

    return _fit_tucker(xs, ys, cfg, latent)


def _nipals_step(e: np.ndarray, f: np.ndarray):
    """One NIPALS component of the row-major views of a batch of one's
    residuals: ``([(w, p, q, d)], e, f)`` or ``([stop reason], ...)``."""
    e, f = e[0].reshape(e.shape[1], -1), f[0].reshape(f.shape[1], -1)
    u = f[:, int(np.argmax((f * f).sum(axis=0)))]
    t = np.zeros(e.shape[0])
    for _ in range(NIPALS_MAX_ITER):
        w = e.T @ u
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return ["degenerate_core"], e[:0], f[:0]
        w = w / nw
        t_new = e @ w
        q = f.T @ t_new
        nq = np.linalg.norm(q)
        if nq == 0.0:
            return ["degenerate_core"], e[:0], f[:0]
        q = q / nq
        u = f @ q
        moved = np.linalg.norm(t_new - t)
        t = t_new
        if moved < NIPALS_TOL:
            break
    tt = float(t @ t)
    if tt == 0.0:
        return ["degenerate_core"], e[:0], f[:0]
    p = e.T @ t / tt
    d = float(u @ t) / tt
    return [(w, p, q, d)], (e - np.outer(t, p))[None], (f - d * np.outer(t, q))[None]


def fit_pls_nipals(
    x,
    y,
    n_components: int,
    center: bool = True,
    epsilon: float | None = None,
) -> PlsModel:
    """Two-way PLS via the classical alternating (NIPALS) iteration.

    Tensors of order > 2 are regressed through their row-major views
    ``x.reshape(n, -1)``; the model keeps their trailing shapes, so it
    predicts tensors again.

    Per component the inner loop alternates ``w <- X^T u``, ``t <- X w``,
    ``q <- Y^T t``, ``u <- Y q`` (w, q normalized) until the latent vector
    moves less than ``NIPALS_TOL`` or ``NIPALS_MAX_ITER`` is hit, then
    deflates ``X -= t p^T`` and ``Y -= d t q^T`` with ``d = u^T t / t^T t``.
    Scores of successive components come out mutually orthogonal.

    Fewer than ``n_components`` may be extractable; the model records the
    achieved count and why it stopped, under the same rules and the same
    ``epsilon`` as :func:`fit_hopls` (``'degenerate_core'`` when the weight
    or loading vanishes). It runs the shared deflation loop as a batch of
    one.
    """
    x = astensor(x)
    y = astensor(y)
    if x.ndim < 2 or y.ndim < 2:
        raise ShapeMismatchError("fit_pls_nipals needs order >= 2 on both sides")
    if not np.any(y):
        raise DegenerateDataError("response matrix is all zeros")
    epsilon = _check_epsilon(epsilon)
    n_components = _whole(n_components)
    n_x_feat = math.prod(x.shape[1:])
    if not 1 <= n_components <= min(x.shape[0], n_x_feat):
        raise RankError(
            f"n_components={n_components} out of range for X of shape {x.shape}"
        )

    (shared,), (parts,) = _deflate(x[None], y[None], n_components, epsilon, center, _nipals_step)
    ws, ps, qs, ds = zip(*parts) if parts else ((), (), (), ())
    return PlsModel(
        x_weights=_columns(ws, n_x_feat),
        x_loadings=_columns(ps, n_x_feat),
        y_loadings=_columns(qs, math.prod(y.shape[1:])),
        coefs=np.array(ds),
        **shared,
    )


# Prediction runs in row blocks of at most this many bytes of input rows
# (at least one row), so the file-to-file path holds a block, not a batch.
# In-memory prediction cuts a batch at the same rows, so both give the same
# bits: a GEMM's bits can depend on its row count.
PREDICT_BLOCK_BYTES = 8 << 20


def _block_rows(model) -> int:
    """Rows per prediction block for ``model``'s input rows."""
    return max(1, PREDICT_BLOCK_BYTES // (8 * math.prod(model.x_shape)))


def _predict_rank(model, x_shape: tuple[int, ...], n_components: int | None) -> int:
    """The component count to predict a batch of shape ``x_shape`` with.

    Raises ShapeMismatchError unless the trailing shape is the training one.
    """
    if x_shape[1:] != model.x_shape:
        raise ShapeMismatchError(
            f"new data trailing shape {x_shape[1:]} != training {model.x_shape}"
        )
    return model.n_components if n_components is None else min(n_components, model.n_components)


def _predict_block(model, r: int, block: np.ndarray, out: np.ndarray) -> None:
    """Write the r-component prediction of the rows ``block`` into ``out``.

    This is ``(X - x_mean).reshape(n, -1) W Q^T + y_mean`` without a
    block-sized temporary: the block's row-major view is scored against the
    operators as stored, the centring moves onto the scores (``x_mean W``),
    and the response is written row-major straight into ``out``.
    """
    w = model.score_operator[:, :r]
    q = model.response_operator[:, :r]
    scores = block.reshape(len(block), w.shape[0]) @ w
    if model.x_mean is not None:
        scores -= model.x_mean.reshape(-1) @ w
    np.matmul(scores, q.T, out=out.reshape(len(out), q.shape[0]))
    if model.y_mean is not None:
        out += model.y_mean


def _predict(model, x_new, n_components: int | None) -> np.ndarray:
    """The one prediction path: the block kernel over the batch's row blocks.

    The output is the only array of batch size. ``n_components`` restricts
    to a leading subset: components are extracted sequentially, so the
    first r columns of both operators *are* the r-component model.
    """
    x_new = astensor(x_new)
    r = _predict_rank(model, x_new.shape, n_components)
    y = np.empty((len(x_new),) + model.y_shape)
    step = _block_rows(model)
    for i in range(0, len(x_new), step):
        _predict_block(model, r, x_new[i : i + step], y[i : i + step])
    return y


def predict_hopls(
    model: HoplsModel, x_new, n_components: int | None = None
) -> np.ndarray:
    """Predict a tensor response: ``X.reshape(n, -1) W Q*^T`` plus the training mean."""
    return _predict(model, x_new, n_components)


def predict_hopls2(
    model: HoplsModel, x_new, n_components: int | None = None
) -> np.ndarray:
    """Predict a matrix response: ``X.reshape(n, -1) W D Q^T`` plus the training mean."""
    return _predict(model, x_new, n_components)


def predict_pls(
    model: PlsModel, x_new, n_components: int | None = None
) -> np.ndarray:
    """Predict with the two-way model: ``X.reshape(n, -1) R D Q^T`` plus the training mean."""
    return _predict(model, x_new, n_components)


# ---------------------------------------------------------------------------
# the algorithm table


def _fit_pls(x, y, cfg: FitConfig, hooi_settings: HooiSettings) -> PlsModel:
    # the two-way rank bounds R; a grid over R clamps rather than fails
    n = min(cfg.n_components, np.shape(x)[0], math.prod(np.shape(x)[1:]))
    return fit_pls_nipals(x, y, n, center=cfg.center, epsilon=cfg.epsilon)


@dataclass(frozen=True)
class Algorithm:
    """One method as the CLI, cross-validation and the benchmark see it.

    ``fit_name`` and ``predict_name`` are looked up in this module at call
    time, so a rebound module function (a profiler's wrapper, say) is the
    one every caller reaches.
    """

    name: str
    fit_name: str
    predict_name: str
    model_type: type
    tag: str  # model-file tag of the models it fits
    y_ranked: bool  # the config carries loading counts for Y
    fixed_lam: int | None = None  # lambda pinned to this value
    matrix_y: str | None = None  # the entry that runs on a matrix response

    def fit(self, x, y, cfg: FitConfig, hooi_settings: HooiSettings = HooiSettings()):
        return globals()[self.fit_name](x, y, cfg, hooi_settings)

    def predict(self, model, x_new, n_components: int | None = None) -> np.ndarray:
        return globals()[self.predict_name](model, x_new, n_components)

    def config(self, r: int, lam: int, x_order: int, y_order: int, **kwargs) -> FitConfig:
        """The config of the (R, lambda) cell for data of these orders."""
        return FitConfig.uniform(
            r, lam, x_order, y_order if self.y_ranked else None, **kwargs
        )

    def lam_cap(self, x_shape: Sequence[int], y_shape: Sequence[int]) -> int:
        """Largest lambda that fits every mode carrying loading counts."""
        if self.fixed_lam is not None:
            return self.fixed_lam
        dims = tuple(x_shape[1:]) + (tuple(y_shape[1:]) if self.y_ranked else ())
        if not dims:
            raise ShapeMismatchError(f"{self.name} needs data with a non-sample mode")
        return min(dims)


ALGORITHMS = {
    a.name: a
    for a in (
        Algorithm("hopls", "fit_hopls", "predict_hopls", HoplsModel, "hopls",
                  y_ranked=True, matrix_y="hopls2"),
        Algorithm("hopls2", "fit_hopls2", "predict_hopls2", HoplsModel, "hopls2",
                  y_ranked=False),
        Algorithm("npls", "fit_hopls", "predict_hopls", HoplsModel, "hopls",
                  y_ranked=True, fixed_lam=1, matrix_y="hopls2"),
        Algorithm("pls", "_fit_pls", "predict_pls", PlsModel, "pls",
                  y_ranked=False, fixed_lam=1),
    )
}  # fmt: skip


def algorithm(name: str, y_order: int) -> Algorithm:
    """The entry that runs method ``name`` on a response of order ``y_order``."""
    if name not in ALGORITHMS:
        raise ValueError(f"unknown algo {name!r}")
    algo = ALGORITHMS[name]
    if y_order == 2 and algo.matrix_y is not None:
        # npls keeps its rank-one blocks in the matrix-response variant
        return replace(ALGORITHMS[algo.matrix_y], fixed_lam=algo.fixed_lam)
    return algo


def algorithm_of(model) -> Algorithm:
    """The entry that predicts with a fitted model, by its type and response order."""
    for algo in ALGORITHMS.values():
        if type(model) is algo.model_type:
            return algorithm(algo.tag, len(model.y_shape) + 1)
    raise TypeError(f"not a fitted model: {type(model).__name__}")


def _fit_stack(algo: Algorithm, xs, ys, cfg: FitConfig, hooi_settings: HooiSettings) -> list:
    """``algo``'s models of one config, one per item of the stacks ``xs`` and
    ``ys`` (training sets of one size): the Tucker fits run the stack in
    lockstep, PLS one item at a time."""
    lockstep = {"fit_hopls": _fit_hopls, "fit_hopls2": _fit_hopls2}.get(algo.fit_name)
    if lockstep is None:
        return [algo.fit(x, y, cfg, hooi_settings) for x, y in zip(xs, ys)]
    return lockstep(xs, ys, cfg, hooi_settings)
