"""Command-line interface.

Subcommands: ``synth`` (benchmark data generation), ``fit``, ``predict``,
``eval`` (metrics between two tensor files), ``cv`` (grid search) and
``bench`` (the full repeated selection/evaluation protocol).

Exit codes: 0 success, 2 usage error, 3 file/parse error, 4 shape or
numerical error or a failed allocation. All diagnostic output is
``key=value`` lines on stdout; errors go to stderr.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateDataError,
    FileFormatError,
    RankError,
    ShapeMismatchError,
    SvdConvergenceError,
)
from .evaluate import (
    CASE_SHAPES,
    SynthSpec,
    benchmark_case,
    corr_per_column,
    generate,
    kfold_cv,
    q_squared,
    q_squared_per_column,
    rmsep,
)
from .fileio import (
    TensorReader,
    TensorWriter,
    load_model,
    read_tensor,
    save_model,
    write_json,
    write_tensor,
)
from .regression import (
    ALGORITHMS,
    Algorithm,
    FitConfig,
    _block_rows,
    _predict_block,
    _predict_rank,
    algorithm,
)
from .tensor import fro_norm

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_NUMERIC = 4

_PARSE_ERRORS = (FileFormatError,)
_NUMERIC_ERRORS = (
    ShapeMismatchError,
    RankError,
    DegenerateDataError,
    SvdConvergenceError,
)


class _UsageError(Exception):
    pass


def _parse_snr(text: str) -> float:
    if text.strip().lower() in ("inf", "+inf", "infinity"):
        return math.inf
    try:
        value = float(text)
    except ValueError as exc:
        raise _UsageError(f"invalid SNR value {text!r}") from exc
    if math.isnan(value) or value == -math.inf:
        raise _UsageError(f"SNR must be a number or 'inf', got {text!r}")
    return value


def _count(text: str, least: int = 1) -> int:
    """An argparse type for the count flags: an integer >= ``least``."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
    if value < least:
        raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
    return value


def _fold_count(text: str) -> int:
    """The argparse type of ``--folds``: k-fold CV needs at least 2 folds."""
    return _count(text, 2)


def _seed(text: str) -> int:
    """The argparse type of the seed flags: numpy seeds are non-negative."""
    return _count(text, 0)


def _parse_int_list(text: str) -> tuple[int, ...]:
    """The counts of ``--l``/``--k``, each an integer >= 1."""
    try:
        return tuple(_count(tok) for tok in text.split(","))
    except argparse.ArgumentTypeError as exc:
        raise _UsageError(f"invalid count list {text!r}: {exc}") from None


def _snr_json(value: float):
    return "inf" if math.isinf(value) else value


# ---------------------------------------------------------------------------
# synth


def _cmd_synth(args) -> int:
    snr = _parse_snr(args.snr)
    spec = SynthSpec.from_case(
        args.case,
        snr_db=snr,
        seed=args.seed,
        n_latent=args.latent,
        noise_seed=args.noise_seed,
    )
    data = generate(spec)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = {
        "X.ten": data.x,
        "Y.ten": data.y,
        "Xv.ten": data.x_val,
        "Yv.ten": data.y_val,
    }
    for name, arr in files.items():
        write_tensor(out / name, arr)
    manifest = {
        "case": args.case,
        "kind": spec.kind,
        "x_shape": list(spec.x_shape),
        "y_shape": list(spec.y_shape),
        "n_latent": spec.n_latent,
        "loading_dist": spec.loading_dist,
        "seed": spec.seed,
        "noise_seed": spec.noise_seed,
        "snr_db_requested": _snr_json(spec.snr_db),
        "snr_db_realized_x": _snr_json(data.snr_x_db),
        "snr_db_realized_y": _snr_json(data.snr_y_db),
        "noiseless": math.isinf(spec.snr_db),
        "files": sorted(files),
    }
    write_json(out / "manifest.json", manifest)
    for name in sorted(files):
        print(f"wrote={out / name}")
    print(f"wrote={out / 'manifest.json'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# fit


def _fit_config_from_args(args, algo: Algorithm, x: np.ndarray, y: np.ndarray) -> FitConfig:
    if args.lam is not None and args.l is not None:
        raise _UsageError("--lambda and --l are mutually exclusive")
    if args.k is not None and (args.l is None or not algo.y_ranked):
        raise _UsageError(
            "--k sets Y loading counts: only hopls on a tensor response takes it, with --l"
        )
    kwargs = {"epsilon": args.epsilon, "center": not args.no_center}
    lam = args.lam
    if algo.fixed_lam is not None:
        if args.l is not None or lam not in (None, algo.fixed_lam):
            raise _UsageError(
                f"{args.algo} forces lambda={algo.fixed_lam}; do not pass --lambda/--l"
            )
        lam = algo.fixed_lam
    elif args.l is not None:
        x_ranks = _parse_int_list(args.l)
        y_ranks = _parse_int_list(args.k) if args.k is not None else x_ranks[: y.ndim - 1]
        return FitConfig(args.r, x_ranks, y_ranks if algo.y_ranked else (), **kwargs)
    if lam is None:
        raise _UsageError(f"{args.algo} needs --lambda or --l")
    return algo.config(args.r, lam, x.ndim, y.ndim, **kwargs)


def _training_q2_lines(model, y_raw: np.ndarray, y_pred: np.ndarray) -> list[str]:
    q2_pred = q_squared(y_raw, y_pred)  # an all-zero Y raises DegenerateDataError
    q2_fit = 1.0 - (model.y_residual_norms[-1] / fro_norm(y_raw)) ** 2
    return [f"training_q2={q2_fit:.12g}", f"training_q2_pred={q2_pred:.12g}"]


def _cmd_fit(args) -> int:
    x = read_tensor(args.x)
    y = read_tensor(args.y)
    algo = algorithm(args.algo, y.ndim)
    cfg = _fit_config_from_args(args, algo, x, y)
    model = algo.fit(x, y, cfg)
    y_pred = algo.predict(model, x)
    lines = [f"algo={args.algo}"]
    for i, (xr, yr) in enumerate(
        zip(model.x_residual_norms[1:], model.y_residual_norms[1:])
    ):
        lines.append(f"component={i + 1} x_residual={xr:.12g} y_residual={yr:.12g}")
    lines.append(f"achieved={model.n_components} stop_reason={model.stop_reason}")
    lines.extend(_training_q2_lines(model, y, y_pred))
    checksum = save_model(args.out, model)
    lines.append(f"model={args.out} checksum={checksum}")
    print("\n".join(lines))
    return EXIT_OK


# ---------------------------------------------------------------------------
# predict


def _cmd_predict(args) -> int:
    """Stream ``--x`` through the model in row blocks: one input block and one
    output block in memory, whatever the batch size.

    The blocks are the ones in-memory prediction cuts the batch into, so the
    file holds the bits of ``predict(model, read_tensor(x))``. The output
    replaces ``--out`` only once every row is written, so ``--out`` may name
    ``--x``.
    """
    model = load_model(args.model)
    with TensorReader(args.x) as reader:
        r = _predict_rank(model, reader.shape, None)
        rows = _block_rows(model)
        out = np.empty((min(rows, reader.shape[0]),) + model.y_shape)
        with TensorWriter(args.out, reader.shape[:1] + model.y_shape) as writer:
            for block in reader.blocks(rows):
                _predict_block(model, r, block, out[: len(block)])
                writer.write(out[: len(block)])
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval


def _fmt_vector(values) -> str:
    return ",".join(f"{v:.12g}" for v in values)


def _cmd_eval(args) -> int:
    y_true = read_tensor(args.y_true)
    y_pred = read_tensor(args.y_pred)
    print(f"q2={q_squared(y_true, y_pred):.12g}")
    print(f"rmsep={rmsep(y_true, y_pred):.12g}")
    print(f"q2_per_column={_fmt_vector(q_squared_per_column(y_true, y_pred))}")
    print(f"corr_per_column={_fmt_vector(corr_per_column(y_true, y_pred))}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# cv


def _cmd_cv(args) -> int:
    x = read_tensor(args.x)
    y = read_tensor(args.y)
    report = kfold_cv(
        x, y, args.folds, args.algo, args.r_max, args.lambda_max, center=not args.no_center
    )
    rows = []
    for (r, lam) in sorted(report.grid):
        q2 = report.grid[(r, lam)]
        print(f"r={r} lambda={lam} q2={q2:.12g}")
        rows.append(
            {
                "r": r,
                "lambda": lam,
                "q2": q2,
                "per_fold": list(report.per_fold[(r, lam)]),
            }
        )
    best_r, best_lam = report.best
    print(f"best_r={best_r} best_lambda={best_lam} best_q2={report.best_q2:.12g}")
    if args.out:
        write_json(
            args.out,
            {
                "algo": args.algo,
                "folds": args.folds,
                "grid": rows,
                "best": {"r": best_r, "lambda": best_lam, "q2": report.best_q2},
            },
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench


def _quartiles(values) -> dict:
    arr = np.asarray(values, dtype=float)
    q1, med, q3 = np.percentile(arr, [25, 50, 75])
    return {
        "min": float(arr.min()),
        "q1": float(q1),
        "median": float(med),
        "q3": float(q3),
        "max": float(arr.max()),
    }


def _cmd_bench(args) -> int:
    snrs = [_parse_snr(tok) for tok in args.snr_list.split(",")]
    rows = []
    summary = []
    for snr in snrs:
        spec = SynthSpec.from_case(args.case, snr_db=snr, seed=args.seed)
        result = benchmark_case(
            spec,
            repeats=args.repeats,
            folds=args.folds,
            r_max=args.r_max,
            lambda_max=args.lambda_max,
        )
        for repeat in range(args.repeats):
            for method in result.methods:
                r, lam = result.selected[method][repeat]
                rows.append(
                    {
                        "snr_db": _snr_json(snr),
                        "repeat": repeat,
                        "method": method,
                        "q2": result.q2[method][repeat],
                        "r": r,
                        "lambda": lam,
                    }
                )
        for method in result.methods:
            stats = _quartiles(result.q2[method])
            summary.append({"snr_db": _snr_json(snr), "method": method, **stats})
            print(
                f"snr={_snr_json(snr)} method={method} "
                + " ".join(f"{k}={v:.6g}" for k, v in stats.items())
            )
    report = {
        "case": args.case,
        "repeats": args.repeats,
        "seed": args.seed,
        "folds": args.folds,
        "r_max": args.r_max,
        "lambda_max": args.lambda_max,
        "rows": rows,
        "summary": summary,
    }
    if args.out:
        write_json(args.out, report)
        print(f"report={args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tensorpls",
        description="Multilinear PLS regression toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic benchmark dataset")
    p.add_argument("--case", required=True, choices=sorted(CASE_SHAPES))
    p.add_argument("--snr", default="inf", help="SNR in dB, or 'inf' for noiseless")
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--noise-seed", type=_seed, default=None)
    p.add_argument("--latent", type=_count, default=5)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("fit", help="fit a model and save it")
    p.add_argument("--algo", required=True, choices=tuple(ALGORITHMS))
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--r", type=_count, required=True)
    p.add_argument("--lambda", dest="lam", type=_count, default=None)
    p.add_argument("--l", default=None, help="per-mode loading counts for X, e.g. 2,3")
    p.add_argument("--k", default=None, help="per-mode loading counts for Y")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--no-center", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("predict", help="predict responses for new data")
    p.add_argument("--model", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("eval", help="metrics between true and predicted tensors")
    p.add_argument("--y-true", required=True)
    p.add_argument("--y-pred", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("cv", help="k-fold grid search over (R, lambda)")
    p.add_argument("--algo", required=True, choices=tuple(ALGORITHMS))
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--folds", type=_fold_count, default=5)
    p.add_argument("--r-max", type=_count, required=True)
    p.add_argument("--lambda-max", type=_count, default=10)
    p.add_argument("--no-center", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_cv)

    p = sub.add_parser("bench", help="repeated benchmark with CV selection")
    p.add_argument("--case", required=True, choices=sorted(CASE_SHAPES))
    p.add_argument("--repeats", type=_count, default=50)
    p.add_argument("--snr-list", default="10,5,0,-5")
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--folds", type=_fold_count, default=5)
    p.add_argument("--r-max", type=_count, default=10)
    p.add_argument("--lambda-max", type=_count, default=10)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _PARSE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except _NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
