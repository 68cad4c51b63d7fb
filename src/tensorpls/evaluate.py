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

Cross-validation uses deterministic contiguous folds along mode 0 and the
grid-scan pruning where, for each R, the lambda scan stops after the first
drop in mean validation Q².
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .decomp import HooiSettings
from .errors import DegenerateDataError, ShapeMismatchError
from .regression import Algorithm, FitConfig, algorithm
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
    "gen_matrix_structured",
    "gen_tucker_structured",
    "gen_matrix_response",
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


def q_squared(y_true, y_pred) -> float:
    """1 - |Y - Yhat|_F^2 / |Y|_F^2, on the tensors as given (no centering)."""
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y_true.shape != y_pred.shape:
        raise ShapeMismatchError(
            f"shape mismatch {y_true.shape} vs {y_pred.shape}"
        )
    denom = fro_norm(y_true)
    if denom == 0.0:
        raise DegenerateDataError("q_squared undefined for an all-zero reference")
    return 1.0 - (fro_norm(y_true - y_pred) / denom) ** 2


def q_squared_per_column(y_true, y_pred) -> np.ndarray:
    """Per-column Q² of the mode-0 matricizations (nan for zero columns)."""
    a = matricize(np.asarray(y_true, dtype=np.float64), 0)
    b = matricize(np.asarray(y_pred, dtype=np.float64), 0)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"shape mismatch {a.shape} vs {b.shape}")
    denom = (a * a).sum(axis=0)
    err = ((a - b) ** 2).sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = 1.0 - err / denom
    out[denom == 0.0] = np.nan
    return out


def rmsep(y_true, y_pred) -> float:
    """Root mean squared elementwise prediction error."""
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y_true.shape != y_pred.shape:
        raise ShapeMismatchError(
            f"shape mismatch {y_true.shape} vs {y_pred.shape}"
        )
    return float(np.sqrt(np.mean((y_true - y_pred) ** 2)))


def corr_per_column(y_true, y_pred) -> np.ndarray:
    """Pearson correlation per column of the mode-0 matricizations.

    Columns where either side has zero variance get correlation 0.
    """
    a = matricize(np.asarray(y_true, dtype=np.float64), 0)
    b = matricize(np.asarray(y_pred, dtype=np.float64), 0)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"shape mismatch {a.shape} vs {b.shape}")
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


def gen_matrix_structured(spec: SynthSpec) -> SynthData:
    """X = T P^T + noise, Y = T Q^T + noise, reshaped row-major to tensors."""
    if spec.kind != "matrix-structured":
        raise ValueError("spec.kind must be matrix-structured")
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


def gen_tucker_structured(spec: SynthSpec) -> SynthData:
    """Multilinear data: cores and loadings N(0,1), shared latent mode 0.

    Core dimensions default to the latent count on every non-sample mode
    (capped by the mode size).
    """
    if spec.kind != "tucker-structured":
        raise ValueError("spec.kind must be tucker-structured")
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


def gen_matrix_response(spec: SynthSpec) -> SynthData:
    """4-way N(0,1) predictor, exactly linear clean response Y = X_(0) W.

    Noise at ``snr_db`` is added to all four tensors as for the other kinds.
    """
    if spec.kind != "matrix-response":
        raise ValueError("spec.kind must be matrix-response")
    rng = _struct_rng(spec)
    w = rng.standard_normal((math.prod(spec.x_shape[1:]), spec.y_shape[1]))
    x = rng.standard_normal(spec.x_shape)
    x_val = rng.standard_normal(spec.x_shape)
    return _noisy_data(
        spec, x, matricize(x, 0) @ w, x_val, matricize(x_val, 0) @ w, coef=w
    )


_GENERATORS: dict[str, Callable[[SynthSpec], SynthData]] = {
    "matrix-structured": gen_matrix_structured,
    "tucker-structured": gen_tucker_structured,
    "matrix-response": gen_matrix_response,
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


def grid_candidates(
    x_shape: Sequence[int],
    y_shape: Sequence[int],
    r_max: int,
    lambda_max: int,
    algo: str,
    center: bool = True,
) -> list[FitConfig]:
    """(R, lambda) grid for an algorithm, capped to the valid loading range.

    ``npls`` and ``pls`` carry lambda = 1 only (rank-one blocks / no lambda);
    on a matrix response ``hopls`` and ``npls`` get the ``hopls2`` grid.
    """
    entry = algorithm(algo, len(y_shape))
    lam_top = min(lambda_max, entry.lam_cap(x_shape, y_shape))
    return [
        entry.config(r, lam, len(x_shape), len(y_shape), center=center)
        for r in range(1, r_max + 1)
        for lam in range(1, lam_top + 1)
    ]


def _fold_slices(n: int, folds: int) -> list[slice]:
    return [slice(f * n // folds, (f + 1) * n // folds) for f in range(folds)]


def _split(arr: np.ndarray, sl: slice) -> tuple[np.ndarray, np.ndarray]:
    train = np.concatenate([arr[: sl.start], arr[sl.stop :]], axis=0)
    return train, arr[sl]


def _prefix_q2s(scores, columns, test_y, y_mean, rs):
    """Validation Q² for every component-prefix in one shot.

    ``scores @ columns.T`` is the matricized prediction; prefix predictions
    are cumulative sums of per-component rank-one contributions.
    """
    ref = matricize(test_y, 0)
    denom = fro_norm(ref) ** 2
    if denom == 0.0:
        raise DegenerateDataError("q_squared undefined for an all-zero reference")
    base = (
        ref - matricize(y_mean.reshape((1,) + y_mean.shape), 0)
        if y_mean is not None
        else ref
    )
    if scores.shape[1] == 0:
        q2_flat = 1.0 - fro_norm(base) ** 2 / denom
        return {r: q2_flat for r in rs}
    contribs = np.einsum("nr,jr->rnj", scores, columns)
    cum = np.cumsum(contribs, axis=0)
    errs = base[None, :, :] - cum
    sq = (errs * errs).sum(axis=(1, 2))
    achieved = scores.shape[1]
    return {r: 1.0 - sq[min(r, achieved) - 1] / denom for r in rs}


def _fit_prefix_q2s(
    algo: Algorithm,
    train_x,
    train_y,
    test_x,
    test_y,
    cfg: FitConfig,
    rs: Sequence[int],
    hooi_settings: HooiSettings,
):
    """Fit once at max R; return {r: validation Q²} for each prefix."""
    model = algo.fit(train_x, train_y, cfg, hooi_settings)
    xc = test_x - model.x_mean if model.x_mean is not None else test_x
    scores = matricize(xc, 0) @ model.score_operator
    return _prefix_q2s(scores, model.response_operator, test_y, model.y_mean, rs)


def _best_cell(grid: dict[tuple[int, int], float]) -> tuple[int, int]:
    # max mean Q², ties to the smallest R, then the smallest lambda
    return min(grid, key=lambda cell: (-grid[cell], cell[0], cell[1]))


def kfold_cv(
    x,
    y,
    folds: int,
    candidates: Sequence[FitConfig],
    algo: str,
    hooi_settings: HooiSettings = HooiSettings(),
) -> CvReport:
    """Contiguous k-fold grid search with the per-R lambda pruning.

    Candidates are grouped into (R, lambda) cells (lambda = the uniform
    loading count of the config). For each R, lambda values are scanned in
    ascending order and the scan stops after the first decrease of the mean
    validation Q²; pruned cells are absent from the grid. Best cell is the
    max mean Q², ties resolved to the smallest R then smallest lambda.

    Components are extracted sequentially, so one fit at the largest pending
    R per (fold, lambda) yields every smaller-R model exactly. ``algo``
    names an entry of the algorithm table; on a matrix response the tensor
    methods run their matrix-response variant.
    """
    x = astensor(x)
    y = astensor(y)
    entry = algorithm(algo, y.ndim)
    if folds < 2:
        raise DegenerateDataError("folds must be >= 2")
    if x.shape[0] < folds:
        raise DegenerateDataError(
            f"need at least {folds} samples for {folds}-fold CV, got {x.shape[0]}"
        )
    if not candidates:
        raise ValueError("no candidates given")

    cells: dict[int, list[tuple[int, FitConfig]]] = {}
    for cfg in candidates:
        lam = cfg.lam
        cells.setdefault(lam, []).append((cfg.n_components, cfg))
    lam_order = sorted(cells)
    for lam in lam_order:
        cells[lam].sort(key=lambda pair: pair[0])

    slices = _fold_slices(x.shape[0], folds)
    split_cache = [(_split(x, sl), _split(y, sl)) for sl in slices]

    last_mean: dict[int, float] = {}
    stopped: set[int] = set()
    grid: dict[tuple[int, int], float] = {}
    per_fold: dict[tuple[int, int], tuple[float, ...]] = {}

    for lam in lam_order:
        pending = [(r, cfg) for r, cfg in cells[lam] if r not in stopped]
        if not pending:
            continue
        rs = [r for r, _ in pending]
        max_cfg = replace(pending[-1][1], n_components=max(rs))
        fold_scores: dict[int, list[float]] = {r: [] for r in rs}
        for (train_x, test_x), (train_y, test_y) in split_cache:
            q2s = _fit_prefix_q2s(
                entry, train_x, train_y, test_x, test_y, max_cfg, rs, hooi_settings
            )
            for r in rs:
                fold_scores[r].append(q2s[r])
        for r in rs:
            mean = float(np.mean(fold_scores[r]))
            grid[(r, lam)] = mean
            per_fold[(r, lam)] = tuple(fold_scores[r])
            if r in last_mean and mean < last_mean[r]:
                stopped.add(r)
            last_mean[r] = mean

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


def _read_off(earlier, cands: Sequence[FitConfig], method: str) -> CvReport | None:
    """The CV report of ``cands``, read off an earlier run of the same fit.

    ``earlier`` is (candidates, report) of a :func:`kfold_cv` run on the same
    data with the same fit function. When ``cands`` span one lambda (so no
    pruning of their own applies) and each of them was scored there, every
    cell is the prefix Q² of the same fits on the same folds: N-PLS is the
    HOPLS lambda = 1 column. Returns None when that does not hold.
    """
    if earlier is None or len({cfg.lam for cfg in cands}) != 1:
        return None
    earlier_cands, report = earlier
    cells = {(cfg.n_components, cfg.lam) for cfg in cands}
    if not set(cands) <= set(earlier_cands) or not cells <= report.grid.keys():
        return None
    grid = {cell: q2 for cell, q2 in report.grid.items() if cell in cells}
    return CvReport(
        algo=method,
        folds=report.folds,
        grid=grid,
        per_fold={cell: report.per_fold[cell] for cell in grid},
        best=_best_cell(grid),
    )


def _derive_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence((seed, index)).generate_state(1, np.uint64)[0])


def benchmark_case(
    spec: SynthSpec,
    repeats: int,
    folds: int = 5,
    r_max: int = 10,
    lambda_max: int = 10,
    methods: Sequence[str] | None = None,
    hooi_settings: HooiSettings = HooiSettings(),
) -> BenchmarkResult:
    """Full selection-and-evaluation protocol over repeated datasets.

    Per repeat: generate a calibration/validation pair (seed derived from
    ``spec.seed`` and the repeat index), select (R, lambda) by k-fold CV on
    the calibration data for each method, refit on the whole calibration
    set, and score Q² against the observed (noisy) validation response.

    Method names are ``hopls``, ``npls``, ``pls``; for a matrix response
    (``matrix-response`` kind) the tensor methods dispatch to their
    two-way-response variants.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if methods is None:
        methods = ("hopls", "npls", "pls")
    q2: dict[str, list[float]] = {m: [] for m in methods}
    selected: dict[str, list[tuple[int, int]]] = {m: [] for m in methods}
    for i in range(repeats):
        data = generate(replace(spec, seed=_derive_seed(spec.seed, i)))
        runs: dict[str, tuple] = {}  # first CV run per fit function
        for method in methods:
            algo = algorithm(method, data.y.ndim)
            cands = grid_candidates(data.x.shape, data.y.shape, r_max, lambda_max, method)
            report = _read_off(runs.get(algo.fit_name), cands, method)
            if report is None:
                report = kfold_cv(data.x, data.y, folds, cands, method, hooi_settings)
                runs.setdefault(algo.fit_name, (cands, report))
            cfg = algo.config(*report.best, data.x.ndim, data.y.ndim)
            model = algo.fit(data.x, data.y, cfg, hooi_settings)
            q2[method].append(q_squared(data.y_val, algo.predict(model, data.x_val)))
            selected[method].append(report.best)
    return BenchmarkResult(
        spec=spec,
        repeats=repeats,
        methods=tuple(methods),
        q2={m: tuple(v) for m, v in q2.items()},
        selected={m: tuple(v) for m, v in selected.items()},
    )
