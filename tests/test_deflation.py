"""Properties of the sequential-deflation loop shared by every estimator."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorpls import (
    FitConfig,
    fit_hopls,
    fit_hopls2,
    fit_pls_nipals,
    predict_hopls,
    predict_hopls2,
    predict_pls,
)
from tensorpls.regression import STOP_REASONS


@st.composite
def problems(draw, y_order):
    """X of order 3-5 with N in 2..6, a response of ``y_order`` (2 or 3),
    loading counts anywhere in [1, mode size], and R in 1..4."""
    n = draw(st.integers(2, 6))
    x_dims = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    y_dims = draw(st.lists(st.integers(1, 3), min_size=y_order - 1, max_size=y_order - 1))
    x_ranks = [draw(st.integers(1, d)) for d in x_dims]
    y_ranks = [draw(st.integers(1, d)) for d in y_dims]
    r = draw(st.integers(1, 4))
    center = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n, *x_dims))
    y = rng.standard_normal((n, *y_dims))
    return x, y, x_ranks, y_ranks, r, center


def check_loop(fit, predict, x, r):
    """``fit(k)`` returns a model at R = k; check the loop's invariants.

    A refit at R = k repeats the first k steps exactly, so its residual norms
    and response operator equal the leading ones bit for bit. Predictions
    are compared to rounding only: BLAS may pick another kernel for another
    column count of the same operator.
    """
    model = fit(r)
    for norms in (model.x_residual_norms, model.y_residual_norms):
        assert len(norms) == model.n_components + 1
        assert (np.diff(norms) <= 1e-12 * norms[0]).all()
    assert model.stop_reason in STOP_REASONS
    assert (model.stop_reason == "completed") == (model.n_components == r)
    for k in range(1, model.n_components + 1):
        refit = fit(k)
        assert refit.x_residual_norms == model.x_residual_norms[: k + 1]
        assert refit.y_residual_norms == model.y_residual_norms[: k + 1]
        assert (refit.response_operator == model.response_operator[:, :k]).all()
        want = predict(refit, x)
        got = predict(model, x, n_components=k)
        assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1.0)


@settings(max_examples=30, deadline=None)
@given(problems(y_order=3))
def test_hopls_loop(problem):
    x, y, x_ranks, y_ranks, r, center = problem

    def fit(k):
        return fit_hopls(x, y, FitConfig(k, x_ranks, y_ranks, center=center))

    check_loop(fit, predict_hopls, x, r)


@settings(max_examples=30, deadline=None)
@given(problems(y_order=2))
def test_hopls2_loop(problem):
    x, y, x_ranks, _, r, center = problem

    def fit(k):
        return fit_hopls2(x, y, FitConfig(k, x_ranks, center=center))

    check_loop(fit, predict_hopls2, x, r)


@settings(max_examples=30, deadline=None)
@given(problems(y_order=3))
def test_pls_loop(problem):
    x, y, _, _, r, center = problem
    r = min(r, x.shape[0], x[0].size)

    def fit(k):
        return fit_pls_nipals(x, y, k, center=center)

    check_loop(fit, predict_pls, x, r)
