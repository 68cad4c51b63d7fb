"""Latent-variable regression estimators.

Three fitting routines live here:

* :func:`fit_hopls` — tensor predictors, tensor responses. Each component is
  an orthogonal Tucker block sharing one latent vector between X and Y; the
  loadings come from an orthogonal Tucker decomposition of the mode-0
  cross-covariance tensor of the current residuals.
* :func:`fit_hopls2` — tensor predictors, matrix responses; the response side
  collapses to a rank-one term ``d_r * t_r q_r^T`` per component.
* :func:`fit_pls_nipals` — the classical two-way baseline.

An N-PLS-style baseline is the all-ranks-one configuration of
:func:`fit_hopls` (``FitConfig.uniform(..., 1)``); the rank-one blocks it
produces are plain outer products.

All three run one deflation loop (:func:`_deflate`): centre, extract one
component from the running residuals, subtract its fitted block from both,
and stop when a residual is used up (under epsilon, exactly zero) or the
requested count is reached. Only the per-component step differs, and every
model shares the fields of :class:`FittedModel`.

Latent vectors have unit norm, all loading matrices are column-orthonormal,
and models are immutable after fitting. Mode-0 mean-centering is on by
default and is undone at prediction time. Residual norms never increase.

Every model is a linear predictor with two operators: a score operator W
(X features x R) and a response operator (Y features x R). Prediction is
``fold((X - x_mean)_(0) W  response_operator^T) + y_mean`` for all of them.
:data:`ALGORITHMS` is the one table that maps a method name to its fit
call, its configuration, its lambda range and its model-file tag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .decomp import HooiSettings, hooi, leading_left_singular_vector, validate_ranks
from .errors import DegenerateDataError, RankError, ShapeMismatchError
from .tensor import (
    as_matrix,
    astensor,
    cross_cov_mode1,
    fold,
    fro_norm,
    kron_all,
    matricize,
    mode_n_product,
    multi_mode_product,
    tucker_assemble,
    tucker_contract,
)

__all__ = [
    "ALGORITHMS",
    "Algorithm",
    "FitConfig",
    "FittedModel",
    "HoplsComponent",
    "HoplsModel",
    "Hopls2Component",
    "Hopls2Model",
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
        if self.n_components < 1:
            raise RankError("n_components must be >= 1")
        object.__setattr__(self, "x_ranks", tuple(int(r) for r in self.x_ranks))
        object.__setattr__(self, "y_ranks", tuple(int(r) for r in self.y_ranks))
        if any(r < 1 for r in self.x_ranks + self.y_ranks):
            raise RankError("all loading counts must be >= 1")
        if self.epsilon is not None and self.epsilon < 0:
            raise RankError("epsilon must be >= 0")

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

    @classmethod
    def variance_fraction(
        cls,
        n_components: int,
        eta: float,
        x_shape: Sequence[int],
        y_shape: Sequence[int] | None = None,
        **kwargs,
    ) -> "FitConfig":
        """Loading counts as a fixed fraction ``eta`` of each mode size."""
        if not 0 < eta <= 1:
            raise RankError("eta must be in (0, 1]")
        x_ranks = tuple(max(1, round(eta * d)) for d in x_shape[1:])
        y_ranks = (
            tuple(max(1, round(eta * d)) for d in y_shape[1:])
            if y_shape is not None
            else ()
        )
        return cls(n_components, x_ranks, y_ranks, **kwargs)

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
    """Fitted tensor-to-tensor model.

    The score operator is the paper's W = (P_N (x) ... (x) P_2) G^+ and the
    response operator (Q_M (x) ... (x) Q_2) D^T, one column per component.
    """

    config: FitConfig
    components: tuple[HoplsComponent, ...]
    score_operator: np.ndarray
    response_operator: np.ndarray

    @property
    def n_components(self) -> int:
        return len(self.components)


@dataclass(frozen=True)
class Hopls2Component:
    t: np.ndarray
    x_loadings: tuple[np.ndarray, ...]
    x_core: np.ndarray
    q: np.ndarray
    d: float

    def x_block(self) -> np.ndarray:
        return tucker_assemble(self.x_core, (self.t[:, None],) + self.x_loadings)


@dataclass(frozen=True)
class Hopls2Model(FittedModel):
    """Fitted tensor-to-matrix model: Y ~ sum_r d_r * t_r q_r^T."""

    config: FitConfig
    components: tuple[Hopls2Component, ...]
    score_operator: np.ndarray

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def response_operator(self) -> np.ndarray:
        """Columns ``d_r q_r``, derived from the components."""
        return _columns([c.d * c.q for c in self.components], math.prod(self.y_shape))


@dataclass(frozen=True)
class PlsModel(FittedModel):
    """Two-way NIPALS model: X ~ T P^T, Y ~ T D Q^T.

    ``x_shape`` and ``y_shape`` are the trailing shapes of the data it was
    fitted on; the weights and loadings index their mode-0 unfoldings.
    """

    x_weights: np.ndarray
    x_loadings: np.ndarray
    y_loadings: np.ndarray
    coefs: np.ndarray

    @property
    def n_components(self) -> int:
        return self.x_weights.shape[1]

    @property
    def score_operator(self) -> np.ndarray:
        """R = W (P^T W)^-1, so that the training scores are T = X R.

        P^T W is unit upper triangular, so the leading r columns of R are
        exactly the r-component model's operator.
        """
        pw = self.x_loadings.T @ self.x_weights
        return np.linalg.solve(pw.T, self.x_weights.T).T

    @property
    def response_operator(self) -> np.ndarray:
        return self.y_loadings * self.coefs


def center_mode1(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Remove the mode-0 mean; returns (centered tensor, mean field)."""
    t = astensor(t)
    mean = t.mean(axis=0)
    return t - mean, mean


def _columns(vectors, rows: int) -> np.ndarray:
    """Stack per-component columns into a ``rows x R`` matrix (R may be 0)."""
    return np.column_stack(vectors) if vectors else np.zeros((rows, 0))


def _row_pinv(row: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a 1 x K row vector (K x 1 result).

    A row has a single singular value (its norm), so the usual
    rcond * s_max cutoff degenerates to the exact-zero check.
    """
    row = np.asarray(row).reshape(1, -1)
    s2 = float(np.dot(row[0], row[0]))
    if s2 == 0.0:
        return np.zeros((row.shape[1], 1))
    return row.T / s2


def _deflate(x, y, n_components: int, epsilon, center: bool, step, unfold=False):
    """The sequential-deflation loop every estimator shares.

    Centres (or copies) X and Y, then calls ``step(e, f)`` on the running
    residuals once per component. A step returns the deflated residuals and
    the component's part as ``(e, f, part)``, or a stop reason from
    :data:`STOP_REASONS`. Before each step the loop stops on an exactly zero
    residual (``'zero_cross_cov'``: no shared variance left) or on a residual
    norm at or under epsilon (``'epsilon'``; ``None`` means ``1e-8`` times
    the initial norm, separately per side). ``unfold`` hands the step the
    mode-0 unfoldings instead of the tensors.

    Returns the :class:`FittedModel` fields as a dict and the list of parts.
    """
    if x.shape[0] != y.shape[0]:
        raise ShapeMismatchError(f"sample counts differ: {x.shape[0]} vs {y.shape[0]}")
    if center:
        e, x_mean = center_mode1(x)
        f, y_mean = center_mode1(y)
    else:
        e, f = x.copy(), y.copy()
        x_mean = y_mean = None
    if unfold:
        e, f = matricize(e, 0), matricize(f, 0)
    x_norms = [fro_norm(e)]
    y_norms = [fro_norm(f)]
    if epsilon is None:
        eps_x = DEFAULT_EPSILON_FACTOR * x_norms[0]
        eps_y = DEFAULT_EPSILON_FACTOR * y_norms[0]
    else:
        eps_x = eps_y = epsilon

    parts = []
    stop_reason = "completed"
    while len(parts) < n_components:
        if x_norms[-1] == 0.0 or y_norms[-1] == 0.0:
            stop_reason = "zero_cross_cov"
            break
        if x_norms[-1] <= eps_x or y_norms[-1] <= eps_y:
            stop_reason = "epsilon"
            break
        out = step(e, f)
        if isinstance(out, str):
            stop_reason = out
            break
        e, f, part = out
        x_norms.append(fro_norm(e))
        y_norms.append(fro_norm(f))
        parts.append(part)

    shared = dict(
        x_shape=x.shape[1:],
        y_shape=y.shape[1:],
        x_mean=x_mean,
        y_mean=y_mean,
        x_residual_norms=tuple(x_norms),
        y_residual_norms=tuple(y_norms),
        stop_reason=stop_reason,
    )
    return shared, parts


def _score_operator(components, n_x_feat: int) -> np.ndarray:
    """The paper's W: one column (P_N (x) ... (x) P_2) g_r^+ per component."""
    return _columns(
        [kron_all(c.x_loadings[::-1]) @ _row_pinv(matricize(c.x_core, 0)) for c in components],
        n_x_feat,
    )


def fit_hopls(
    x,
    y,
    cfg: FitConfig,
    hooi_settings: HooiSettings = HooiSettings(),
) -> HoplsModel:
    """Fit the tensor-to-tensor model by sequential deflation.

    Per component: the cross-covariance tensor of the residuals is
    decomposed at rank ``x_ranks + y_ranks`` by orthogonal iteration, giving
    the X- and Y-loadings; the latent vector is the leading left singular
    vector of the X-residual projected on the X-loadings; both cores follow
    by contraction, and the fitted blocks are subtracted.

    Extraction stops early when a residual norm falls below epsilon
    (``stop_reason='epsilon'``), when the cross-covariance vanishes — no
    shared variance left — (``'zero_cross_cov'``), or degenerates
    (``'degenerate_core'``). The model keeps whatever components were found.
    """
    x = astensor(x)
    y = astensor(y)
    if x.ndim < 3 or y.ndim < 3:
        raise ShapeMismatchError(
            "fit_hopls needs order >= 3 on both sides; use fit_hopls2 for a matrix response"
        )
    if len(cfg.x_ranks) != x.ndim - 1 or len(cfg.y_ranks) != y.ndim - 1:
        raise RankError(
            "config must carry one loading count per non-sample mode of X and Y"
        )
    ranks = validate_ranks(cfg.x_ranks, x.shape[1:]) + validate_ranks(cfg.y_ranks, y.shape[1:])
    n_modes_x = x.ndim - 1

    def step(e, f):
        c = cross_cov_mode1(e, f)
        if not np.any(c):
            return "zero_cross_cov"
        factors = hooi(c, ranks, hooi_settings).factors
        ps, qs = factors[:n_modes_x], factors[n_modes_x:]
        proj = multi_mode_product(e, ps, range(1, e.ndim), transpose=True)
        if not np.any(proj):
            return "degenerate_core"
        t = leading_left_singular_vector(matricize(proj, 0))
        t_col = t[:, None]
        comp = HoplsComponent(
            t=t,
            x_loadings=ps,
            y_loadings=qs,
            x_core=tucker_contract(e, (t_col,) + ps),
            y_core=tucker_contract(f, (t_col,) + qs),
        )
        return e - comp.x_block(), f - comp.y_block(), comp

    shared, components = _deflate(x, y, cfg.n_components, cfg.epsilon, cfg.center, step)
    return HoplsModel(
        config=cfg,
        components=tuple(components),
        score_operator=_score_operator(components, math.prod(x.shape[1:])),
        response_operator=_columns(
            [kron_all(c.y_loadings[::-1]) @ matricize(c.y_core, 0).T for c in components],
            math.prod(y.shape[1:]),
        ),
        **shared,
    )


def fit_hopls2(
    x,
    y,
    cfg: FitConfig,
    hooi_settings: HooiSettings = HooiSettings(),
) -> Hopls2Model:
    """Fit the tensor-to-matrix model.

    The cross-covariance here is the residual tensor contracted with the
    response matrix over mode 0; its rank-(1, x_ranks) decomposition yields
    the unit response loading ``q_r`` and the X-loadings. The latent vector
    sets the core's vectorization against the projected residual
    (pseudoinverse step) and is then normalized, all scale being absorbed
    into the regression scalar ``d_r``.
    """
    x = astensor(x)
    y = as_matrix(y)
    if x.ndim < 3:
        raise ShapeMismatchError("fit_hopls2 needs an order >= 3 predictor")
    if len(cfg.x_ranks) != x.ndim - 1:
        raise RankError(
            "config must carry one loading count per non-sample mode of X"
        )
    ranks = (1,) + validate_ranks(cfg.x_ranks, x.shape[1:])

    def step(e, f):
        c = mode_n_product(e, f.T, 0)
        if not np.any(c):
            return "zero_cross_cov"
        tuck = hooi(c, ranks, hooi_settings)
        q = tuck.factors[0][:, 0]
        ps = tuck.factors[1:]
        c_core_row = matricize(tuck.core, 0)
        if not np.any(c_core_row):
            return "degenerate_core"
        proj = multi_mode_product(e, ps, range(1, e.ndim), transpose=True)
        t_raw = matricize(proj, 0) @ _row_pinv(c_core_row)
        norm_t = float(np.linalg.norm(t_raw))
        if norm_t == 0.0:
            return "degenerate_core"
        t = (t_raw / norm_t).ravel()
        comp = Hopls2Component(
            t=t,
            x_loadings=ps,
            x_core=tucker_contract(e, (t[:, None],) + ps),
            q=q,
            d=float((f @ q) @ t),
        )
        return e - comp.x_block(), f - comp.d * np.outer(t, q), comp

    shared, components = _deflate(x, y, cfg.n_components, cfg.epsilon, cfg.center, step)
    return Hopls2Model(
        config=cfg,
        components=tuple(components),
        score_operator=_score_operator(components, math.prod(x.shape[1:])),
        **shared,
    )


def _nipals_step(e: np.ndarray, f: np.ndarray):
    """One NIPALS component of the unfolded residuals: (e, f, (w, p, q, d))."""
    u = f[:, int(np.argmax((f * f).sum(axis=0)))]
    t = np.zeros(e.shape[0])
    for _ in range(NIPALS_MAX_ITER):
        w = e.T @ u
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return "degenerate_core"
        w = w / nw
        t_new = e @ w
        q = f.T @ t_new
        nq = np.linalg.norm(q)
        if nq == 0.0:
            return "degenerate_core"
        q = q / nq
        u = f @ q
        moved = np.linalg.norm(t_new - t)
        t = t_new
        if moved < NIPALS_TOL:
            break
    tt = float(t @ t)
    if tt == 0.0:
        return "degenerate_core"
    p = e.T @ t / tt
    d = float(u @ t) / tt
    return e - np.outer(t, p), f - d * np.outer(t, q), (w, p, q, d)


def fit_pls_nipals(
    x,
    y,
    n_components: int,
    center: bool = True,
    epsilon: float | None = None,
) -> PlsModel:
    """Two-way PLS via the classical alternating (NIPALS) iteration.

    Tensors of order > 2 are regressed through their mode-0 unfoldings; the
    model keeps their trailing shapes, so it predicts tensors again.

    Per component the inner loop alternates ``w <- X^T u``, ``t <- X w``,
    ``q <- Y^T t``, ``u <- Y q`` (w, q normalized) until the latent vector
    moves less than ``NIPALS_TOL`` or ``NIPALS_MAX_ITER`` is hit, then
    deflates ``X -= t p^T`` and ``Y -= d t q^T`` with ``d = u^T t / t^T t``.
    Scores of successive components come out mutually orthogonal.

    Fewer than ``n_components`` may be extractable; the model records the
    achieved count and why it stopped, under the same rules and the same
    ``epsilon`` as :func:`fit_hopls` (``'degenerate_core'`` when the weight
    or loading vanishes).
    """
    x = astensor(x)
    y = astensor(y)
    if x.ndim < 2 or y.ndim < 2:
        raise ShapeMismatchError("fit_pls_nipals needs order >= 2 on both sides")
    if not np.any(y):
        raise DegenerateDataError("response matrix is all zeros")
    n_x_feat = math.prod(x.shape[1:])
    if not 1 <= n_components <= min(x.shape[0], n_x_feat):
        raise RankError(
            f"n_components={n_components} out of range for X of shape {x.shape}"
        )

    shared, parts = _deflate(x, y, n_components, epsilon, center, _nipals_step, unfold=True)
    ws, ps, qs, ds = zip(*parts) if parts else ((), (), (), ())
    return PlsModel(
        x_weights=_columns(ws, n_x_feat),
        x_loadings=_columns(ps, n_x_feat),
        y_loadings=_columns(qs, math.prod(y.shape[1:])),
        coefs=np.array(ds),
        **shared,
    )


def _predict(model, x_new, n_components: int | None) -> np.ndarray:
    """The one prediction path: centre, score, respond, fold, add the mean.

    ``n_components`` restricts to a leading subset: components are extracted
    sequentially, so the first r columns of both operators *are* the
    r-component model.
    """
    x_new = astensor(x_new)
    if x_new.shape[1:] != model.x_shape:
        raise ShapeMismatchError(
            f"new data trailing shape {x_new.shape[1:]} != training {model.x_shape}"
        )
    r = model.n_components if n_components is None else min(n_components, model.n_components)
    y_shape = (x_new.shape[0],) + model.y_shape
    if model.x_mean is not None:
        x_new = x_new - model.x_mean
    scores = matricize(x_new, 0) @ model.score_operator[:, :r]
    # hold no batch-sized temporaries beyond the one being built
    del x_new
    y = fold(scores @ model.response_operator[:, :r].T, 0, y_shape)
    if model.y_mean is not None:
        y += model.y_mean
    return y


def predict_hopls(
    model: HoplsModel, x_new, n_components: int | None = None
) -> np.ndarray:
    """Predict a tensor response: ``X_(0) W Q*^T`` plus the training mean."""
    return _predict(model, x_new, n_components)


def predict_hopls2(
    model: Hopls2Model, x_new, n_components: int | None = None
) -> np.ndarray:
    """Predict a matrix response: ``X_(0) W D Q^T`` plus the training mean."""
    return _predict(model, x_new, n_components)


def predict_pls(
    model: PlsModel, x_new, n_components: int | None = None
) -> np.ndarray:
    """Predict with the two-way model: ``X_(0) R D Q^T`` plus the training mean."""
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

    def predict(self, model, x_new) -> np.ndarray:
        return globals()[self.predict_name](model, x_new)

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
        return min(dims)


ALGORITHMS = {
    a.name: a
    for a in (
        Algorithm("hopls", "fit_hopls", "predict_hopls", HoplsModel, "hopls",
                  y_ranked=True, matrix_y="hopls2"),
        Algorithm("hopls2", "fit_hopls2", "predict_hopls2", Hopls2Model, "hopls2",
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
    """The entry named by the model-file tag of a fitted model."""
    for algo in ALGORITHMS.values():
        if type(model) is algo.model_type:
            return ALGORITHMS[algo.tag]
    raise TypeError(f"not a fitted model: {type(model).__name__}")
