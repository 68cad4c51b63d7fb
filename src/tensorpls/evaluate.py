"""Metrics, synthetic benchmark generators, cross-validation and benchmarking.

The synthetic generators reproduce three families of calibration/validation
pairs at a controlled signal-to-noise ratio:

* ``matrix-structured`` — X = T P^T + noise, Y = T Q^T + noise, reorganized
  into tensors row-major; the validation pair reuses the loadings with a
  fresh latent matrix.
* ``tucker-structured`` — X and Y assembled from N(0,1) cores and loadings
  sharing the latent matrix on mode 0; validation refreshes the latent
  matrix only.
* ``matrix-response`` — a 4-way N(0,1) predictor with an exactly linear
  clean matrix response Y = X_(0) W.

SNR is defined globally: ``snr_db = 10 log10(|clean|_F^2 / |noise|_F^2)``,
and the noise draw is scaled to hit the requested level exactly.
``snr_db = inf`` means no noise at all. Structure and noise come from
independent seeded streams, so two specs differing only in ``noise_seed``
share bit-identical clean parts.

Cross-validation scans its own (R, lambda) grid on deterministic contiguous
folds along mode 0: lambda ascends, one config is fitted per fold and step,
and each R stops after the first drop in its mean validation Q². The folds
are grouped by training size, and each group's fits of a step run as one
lockstep fit over the stacked training sets, with the bits of separate fits.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .decomp import HooiSettings
from .errors import DegenerateDataError, ShapeMismatchError
from .regression import FitConfig, _fit_stack, algorithm
from .tensor import astensor, fro_norm, matricize, tucker_assemble

__all__ = [
    "Metrics",
    "q_squared",
    "q_squared_per_column",
    "rmsep",
    "corr_per_column",
    "metrics",
    "SynthSpec",
    "SynthData",
    "generate",
    "CvReport",
    "grid_candidates",
    "kfold_cv",
    "BenchmarkResult",
    "benchmark_case",
]

CASE_SHAPES = {
    # case tag -> (kind, x_shape, y_shape, loading_dist)
    "1m": ("matrix-structured", (20, 10, 10), (20, 10, 10), "gaussian"),
    "2m": ("matrix-structured", (10, 10, 10), (10, 10, 10), "gaussian"),
    "3m": ("matrix-structured", (10, 10, 10), (10, 10, 10), "uniform01"),
    "1t": ("tucker-structured", (20, 10, 10), (20, 10, 10), "gaussian"),
    "2t": ("tucker-structured", (10, 10, 10), (10, 10, 10), "gaussian"),
    "mr": ("matrix-response", (5, 5, 5, 5), (5, 2), "gaussian"),
}


# ---------------------------------------------------------------------------
# metrics


@dataclass(frozen=True)
class Metrics:
    q2: float
    rmsep: float
    corr_per_column: np.ndarray


def _operands(y_true, y_pred) -> tuple[np.ndarray, np.ndarray]:
    """Both tensors as float64 arrays; their full shapes must agree."""
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y_true.shape != y_pred.shape:
        raise ShapeMismatchError(f"shape mismatch {y_true.shape} vs {y_pred.shape}")
    return y_true, y_pred


def q_squared(y_true, y_pred) -> float:
    """1 - |Y - Yhat|_F^2 / |Y|_F^2, on the tensors as given (no centering)."""
    y_true, y_pred = _operands(y_true, y_pred)
    denom = fro_norm(y_true)
    if denom == 0.0:
        raise DegenerateDataError("q_squared undefined for an all-zero reference")
    return 1.0 - (fro_norm(y_true - y_pred) / denom) ** 2


def q_squared_per_column(y_true, y_pred) -> np.ndarray:
    """Per-column Q² of the mode-0 matricizations (nan for zero columns)."""
    a, b = (matricize(t, 0) for t in _operands(y_true, y_pred))
    denom = (a * a).sum(axis=0)
    err = ((a - b) ** 2).sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = 1.0 - err / denom
    out[denom == 0.0] = np.nan
    return out


def rmsep(y_true, y_pred) -> float:
    """Root mean squared elementwise prediction error."""
    y_true, y_pred = _operands(y_true, y_pred)
    return float(np.sqrt(np.mean((y_true - y_pred) ** 2)))


def corr_per_column(y_true, y_pred) -> np.ndarray:
    """Pearson correlation per column of the mode-0 matricizations.

    Columns where either side has zero variance get correlation 0.
    """
    a, b = (matricize(t, 0) for t in _operands(y_true, y_pred))
    ac = a - a.mean(axis=0)
    bc = b - b.mean(axis=0)
    na = np.linalg.norm(ac, axis=0)
    nb = np.linalg.norm(bc, axis=0)
    denom = na * nb
    out = np.zeros(a.shape[1])
    ok = denom > 0
    out[ok] = (ac * bc).sum(axis=0)[ok] / denom[ok]
    return np.clip(out, -1.0, 1.0)


def metrics(y_true, y_pred) -> Metrics:
    return Metrics(
        q2=q_squared(y_true, y_pred),
        rmsep=rmsep(y_true, y_pred),
        corr_per_column=corr_per_column(y_true, y_pred),
    )


# ---------------------------------------------------------------------------
# synthetic data


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one calibration + validation pair.

    ``noise_seed`` defaults to a stream derived from ``seed``; passing a
    different value redraws the noise while keeping the clean parts
    bit-identical.
    """

    kind: str
    x_shape: tuple[int, ...]
    y_shape: tuple[int, ...]
    n_latent: int = 5
    loading_dist: str = "gaussian"
    snr_db: float = math.inf
    seed: int = 0
    noise_seed: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "x_shape", tuple(int(d) for d in self.x_shape))
        object.__setattr__(self, "y_shape", tuple(int(d) for d in self.y_shape))
        if self.kind not in ("matrix-structured", "tucker-structured", "matrix-response"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.loading_dist not in ("gaussian", "uniform01"):
            raise ValueError(f"unknown loading_dist {self.loading_dist!r}")
        if self.n_latent < 1:
            raise ValueError("n_latent must be >= 1")
        # written so that NaN fails too; +inf means noiseless
        if not self.snr_db > -math.inf:
            raise ValueError(f"snr_db must be a number or +inf, got {self.snr_db}")
        if self.x_shape[0] != self.y_shape[0]:
            raise ShapeMismatchError("X and Y must share the sample dimension")
        if self.kind == "matrix-response":
            if len(self.x_shape) != 4 or len(self.y_shape) != 2:
                raise ShapeMismatchError(
                    "matrix-response expects a 4-way X and a 2-way Y"
                )

    @classmethod
    def from_case(cls, case: str, snr_db: float, seed: int, **kwargs) -> "SynthSpec":
        """Named benchmark cases: 1m, 2m, 3m, 1t, 2t, mr."""
        if case not in CASE_SHAPES:
            raise ValueError(f"unknown case {case!r}; choose from {sorted(CASE_SHAPES)}")
        kind, x_shape, y_shape, dist = CASE_SHAPES[case]
        return cls(
            kind=kind,
            x_shape=x_shape,
            y_shape=y_shape,
            loading_dist=dist,
            snr_db=snr_db,
            seed=seed,
            **kwargs,
        )


@dataclass(frozen=True)
class SynthData:
    """Calibration and validation tensors plus their clean counterparts."""

    spec: SynthSpec
    x: np.ndarray
    y: np.ndarray
    x_clean: np.ndarray
    y_clean: np.ndarray
    x_val: np.ndarray
    y_val: np.ndarray
    x_val_clean: np.ndarray
    y_val_clean: np.ndarray
    snr_x_db: float
    snr_y_db: float
    coef: np.ndarray | None = None


def _struct_rng(spec: SynthSpec) -> np.random.Generator:
    return np.random.default_rng([spec.seed, 0])


def _noise_rng(spec: SynthSpec) -> np.random.Generator:
    base = spec.seed if spec.noise_seed is None else spec.noise_seed
    return np.random.default_rng([base, 1])


def _draw_loading(rng: np.random.Generator, shape, dist: str) -> np.ndarray:
    if dist == "uniform01":
        return rng.uniform(0.0, 1.0, size=shape)
    return rng.standard_normal(shape)


def _add_noise(
    clean: np.ndarray, snr_db: float, rng: np.random.Generator
) -> tuple[np.ndarray, float]:
    if math.isinf(snr_db):
        return clean.copy(), math.inf
    noise = rng.standard_normal(clean.shape)
    xi = fro_norm(clean) / (fro_norm(noise) * 10 ** (snr_db / 20.0))
    noisy = clean + xi * noise
    realized = 10.0 * math.log10(fro_norm(clean) ** 2 / fro_norm(xi * noise) ** 2)
    return noisy, realized


def _noisy_data(
    spec: SynthSpec, x_clean, y_clean, x_val_clean, y_val_clean, coef=None
) -> SynthData:
    """Add noise at ``spec.snr_db`` to both pairs (one stream, fixed order)."""
    nrng = _noise_rng(spec)
    x, snr_x = _add_noise(x_clean, spec.snr_db, nrng)
    y, snr_y = _add_noise(y_clean, spec.snr_db, nrng)
    x_val, _ = _add_noise(x_val_clean, spec.snr_db, nrng)
    y_val, _ = _add_noise(y_val_clean, spec.snr_db, nrng)
    return SynthData(
        spec=spec,
        x=x,
        y=y,
        x_clean=x_clean,
        y_clean=y_clean,
        x_val=x_val,
        y_val=y_val,
        x_val_clean=x_val_clean,
        y_val_clean=y_val_clean,
        snr_x_db=snr_x,
        snr_y_db=snr_y,
        coef=coef,
    )


def _gen_matrix_structured(spec: SynthSpec) -> SynthData:
    """X = T P^T + noise, Y = T Q^T + noise, reshaped row-major to tensors."""
    rng = _struct_rng(spec)
    k = spec.n_latent
    n = spec.x_shape[0]
    px = math.prod(spec.x_shape[1:])
    py = math.prod(spec.y_shape[1:])
    p = _draw_loading(rng, (px, k), spec.loading_dist)
    q = _draw_loading(rng, (py, k), spec.loading_dist)
    t_cal = rng.standard_normal((n, k))
    t_val = rng.standard_normal((n, k))
    return _noisy_data(
        spec,
        astensor(t_cal @ p.T, spec.x_shape),
        astensor(t_cal @ q.T, spec.y_shape),
        astensor(t_val @ p.T, spec.x_shape),
        astensor(t_val @ q.T, spec.y_shape),
    )


def _gen_tucker_structured(spec: SynthSpec) -> SynthData:
    """Multilinear data: cores and loadings N(0,1), shared latent mode 0.

    Core dimensions default to the latent count on every non-sample mode
    (capped by the mode size).
    """
    rng = _struct_rng(spec)
    k = spec.n_latent
    n = spec.x_shape[0]
    rx = tuple(min(k, d) for d in spec.x_shape[1:])
    ry = tuple(min(k, d) for d in spec.y_shape[1:])
    ps = [_draw_loading(rng, (d, r), spec.loading_dist) for d, r in zip(spec.x_shape[1:], rx)]
    qs = [_draw_loading(rng, (d, r), spec.loading_dist) for d, r in zip(spec.y_shape[1:], ry)]
    g = rng.standard_normal((k,) + rx)
    d_core = rng.standard_normal((k,) + ry)
    t_cal = rng.standard_normal((n, k))
    t_val = rng.standard_normal((n, k))
    return _noisy_data(
        spec,
        tucker_assemble(g, [t_cal] + ps),
        tucker_assemble(d_core, [t_cal] + qs),
        tucker_assemble(g, [t_val] + ps),
        tucker_assemble(d_core, [t_val] + qs),
    )


def _gen_matrix_response(spec: SynthSpec) -> SynthData:
    """4-way N(0,1) predictor, exactly linear clean response Y = X_(0) W.

    Noise at ``snr_db`` is added to all four tensors as for the other kinds.
    """
    rng = _struct_rng(spec)
    w = rng.standard_normal((math.prod(spec.x_shape[1:]), spec.y_shape[1]))
    x = rng.standard_normal(spec.x_shape)
    x_val = rng.standard_normal(spec.x_shape)
    return _noisy_data(
        spec, x, matricize(x, 0) @ w, x_val, matricize(x_val, 0) @ w, coef=w
    )


_GENERATORS: dict[str, Callable[[SynthSpec], SynthData]] = {
    "matrix-structured": _gen_matrix_structured,
    "tucker-structured": _gen_tucker_structured,
    "matrix-response": _gen_matrix_response,
}


def generate(spec: SynthSpec) -> SynthData:
    """Dispatch to the generator for ``spec.kind``."""
    return _GENERATORS[spec.kind](spec)


# ---------------------------------------------------------------------------
# cross-validation


@dataclass(frozen=True)
class CvReport:
    """Grid-search result: mean validation Q² per (R, lambda) cell."""

    algo: str
    folds: int
    grid: dict[tuple[int, int], float]
    per_fold: dict[tuple[int, int], tuple[float, ...]]
    best: tuple[int, int]

    @property
    def best_q2(self) -> float:
        return self.grid[self.best]


def _lam_top(entry, x_shape: Sequence[int], y_shape: Sequence[int], lambda_max: int) -> int:
    """Largest lambda of the grid: ``lambda_max``, capped to the valid loading range."""
    return min(lambda_max, entry.lam_cap(x_shape, y_shape))


def grid_candidates(
    x_shape: Sequence[int],
    y_shape: Sequence[int],
    r_max: int,
    lambda_max: int,
    algo: str,
) -> list[FitConfig]:
    """Every (R, lambda) cell :func:`kfold_cv` may scan, as configs.

    ``npls`` and ``pls`` carry lambda = 1 only (rank-one blocks / no lambda);
    on a matrix response ``hopls`` and ``npls`` get the ``hopls2`` grid.
    """
    entry = algorithm(algo, len(y_shape))
    lam_top = _lam_top(entry, x_shape, y_shape, lambda_max)
    return [
        entry.config(r, lam, len(x_shape), len(y_shape))
        for r in range(1, r_max + 1)
        for lam in range(1, lam_top + 1)
    ]


def _count(value, name: str, error: type[Exception]) -> int:
    """A count given as a Python or numpy integer, as a Python int."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{name} must be a whole number, got {value!r}") from None


def _fold_slices(n: int, folds: int) -> list[slice]:
    return [slice(f * n // folds, (f + 1) * n // folds) for f in range(folds)]


def _split(arr: np.ndarray, sl: slice) -> tuple[np.ndarray, np.ndarray]:
    train = np.concatenate([arr[: sl.start], arr[sl.stop :]], axis=0)
    return train, arr[sl]


def _best_cell(grid: dict[tuple[int, int], float]) -> tuple[int, int]:
    # max mean Q², ties to the smallest R, then the smallest lambda
    return min(grid, key=lambda cell: (-grid[cell], cell[0], cell[1]))


def kfold_cv(
    x,
    y,
    folds: int,
    algo: str,
    r_max: int,
    lambda_max: int,
    center: bool = True,
    hooi_settings: HooiSettings = HooiSettings(),
) -> CvReport:
    """Contiguous k-fold search of the (R, lambda) grid with per-R pruning.

    The grid is that of :func:`grid_candidates`: R = 1 .. ``r_max`` and
    lambda = 1 .. ``lambda_max`` (capped to the valid loading range; 1 for
    ``npls`` and ``pls``). Lambda is scanned upwards, and each R drops out
    after the first decrease of its mean validation Q²; pruned cells are
    absent from the grid, and every R is scored at lambda = 1. The best
    cell is the max mean Q², ties resolved to the smallest R then the
    smallest lambda.

    Components are extracted sequentially, so per lambda one fit per fold at
    the largest pending R yields every smaller-R model exactly; prefix r is
    scored as ``q_squared`` of the model's own prediction from its leading r
    components. The folds with one training size are fitted together, as
    one lockstep fit of the stacked training sets (PLS: one at a time); each
    fold's model has the bits of its own fit. ``algo`` names an entry of the
    algorithm table; on a matrix response the tensor methods run their
    matrix-response variant. ``folds``, ``r_max`` and ``lambda_max`` are
    whole numbers.
    """
    x = astensor(x)
    y = astensor(y)
    folds = _count(folds, "folds", DegenerateDataError)
    r_max = _count(r_max, "r_max", ValueError)
    lambda_max = _count(lambda_max, "lambda_max", ValueError)
    entry = algorithm(algo, y.ndim)
    lam_top = _lam_top(entry, x.shape, y.shape, lambda_max)
    if folds < 2:
        raise DegenerateDataError("folds must be >= 2")
    if x.shape[0] < folds:
        raise DegenerateDataError(
            f"need at least {folds} samples for {folds}-fold CV, got {x.shape[0]}"
        )
    if r_max < 1 or lambda_max < 1:
        raise ValueError(f"the grid needs r_max and lambda_max >= 1, got {r_max}, {lambda_max}")

    splits = [(_split(x, sl), _split(y, sl)) for sl in _fold_slices(x.shape[0], folds)]
    # the folds of one training size are fitted as one stack
    sizes: dict[int, list[int]] = {}
    for k, ((train_x, _), _) in enumerate(splits):
        sizes.setdefault(len(train_x), []).append(k)
    groups = [
        (ks, np.stack([splits[k][0][0] for k in ks]), np.stack([splits[k][1][0] for k in ks]))
        for ks in sizes.values()
    ]
    grid: dict[tuple[int, int], float] = {}
    per_fold: dict[tuple[int, int], tuple[float, ...]] = {}
    pending = list(range(1, r_max + 1))
    for lam in range(1, lam_top + 1):
        cfg = entry.config(pending[-1], lam, x.ndim, y.ndim, center=center)
        models = [None] * folds
        for ks, train_xs, train_ys in groups:
            for k, model in zip(ks, _fit_stack(entry, train_xs, train_ys, cfg, hooi_settings)):
                models[k] = model
        scores: dict[int, list[float]] = {r: [] for r in pending}
        for model, ((_, test_x), (_, test_y)) in zip(models, splits):
            for r in pending:
                scores[r].append(q_squared(test_y, entry.predict(model, test_x, r)))
        for r in pending:
            grid[(r, lam)] = float(np.mean(scores[r]))
            per_fold[(r, lam)] = tuple(scores[r])
        pending = [r for r in pending if not grid[(r, lam)] < grid.get((r, lam - 1), -math.inf)]
        if not pending:
            break

    return CvReport(
        algo=algo, folds=folds, grid=grid, per_fold=per_fold, best=_best_cell(grid)
    )


# ---------------------------------------------------------------------------
# benchmark protocol


@dataclass(frozen=True)
class BenchmarkResult:
    """Validation Q² per method per repeat, with the CV-selected cells."""

    spec: SynthSpec
    repeats: int
    methods: tuple[str, ...]
    q2: dict[str, tuple[float, ...]]
    selected: dict[str, tuple[tuple[int, int], ...]]


def _derive_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence((seed, index)).generate_state(1, np.uint64)[0])


def benchmark_case(
    spec: SynthSpec,
    repeats: int,
    folds: int = 5,
    r_max: int = 10,
    lambda_max: int = 10,
    hooi_settings: HooiSettings = HooiSettings(),
) -> BenchmarkResult:
    """Full selection-and-evaluation protocol over repeated datasets.

    Per repeat: generate a calibration/validation pair (seed derived from
    ``spec.seed`` and the repeat index), select (R, lambda) by k-fold CV on
    the calibration data for each method, refit on the whole calibration
    set, and score Q² against the observed (noisy) validation response.

    The methods are ``hopls``, ``npls`` and ``pls``, in that order; for a
    matrix response (``matrix-response`` kind) the tensor methods dispatch
    to their two-way-response variants. N-PLS is HOPLS at lambda = 1, so it
    takes the HOPLS scan's lambda = 1 column: the same fits on the same
    folds.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    methods = ("hopls", "npls", "pls")
    q2: dict[str, list[float]] = {m: [] for m in methods}
    selected: dict[str, list[tuple[int, int]]] = {m: [] for m in methods}
    for i in range(repeats):
        data = generate(replace(spec, seed=_derive_seed(spec.seed, i)))
        hopls, pls = (
            kfold_cv(data.x, data.y, folds, m, r_max, lambda_max, hooi_settings=hooi_settings)
            for m in ("hopls", "pls")
        )
        # pruning starts at lambda = 2, so the lambda = 1 column holds every R
        npls = _best_cell({cell: q for cell, q in hopls.grid.items() if cell[1] == 1})
        for method, best in zip(methods, (hopls.best, npls, pls.best)):
            algo = algorithm(method, data.y.ndim)
            cfg = algo.config(*best, data.x.ndim, data.y.ndim)
            model = algo.fit(data.x, data.y, cfg, hooi_settings)
            q2[method].append(q_squared(data.y_val, algo.predict(model, data.x_val)))
            selected[method].append(best)
    return BenchmarkResult(
        spec=spec,
        repeats=repeats,
        methods=methods,
        q2={m: tuple(v) for m, v in q2.items()},
        selected={m: tuple(v) for m, v in selected.items()},
    )
