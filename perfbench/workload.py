"""The three workloads of the tensorpls benchmark, one per process.

Started by ``run.py`` with the BLAS thread count pinned in the environment
and ``src`` on the import path. Each workload is a closed loop with one
client: an op starts when the previous one has ended and its output has
been checked. Only the op itself is timed. The ops go in rounds over the
workload's inputs (the protocol cells, the fit datasets), and the loop ends
on the round boundary nearest to ``--seconds`` of timed op time, after at
least ``MIN_OPS`` ops so that the tail percentile is always defined.

The time of a ``protocol`` or ``fit-large`` op depends on its data (how
far the CV grid scan gets, how many HOOI sweeps converge), by 2x between
datasets. So these two workloads draw their datasets from a fixed pool and
``--seed`` sets the order in which each round visits it: every run does
the same work, and the median op time measures the code, not the draw. On
``score`` the work does not depend on the data and ``--seed`` draws the
batch noise.

The Q² guard (``q2_median``) is computed on a fixed list of datasets: the
set-up warm-up ops on ``protocol`` and ``fit-large``, the batch on
``score`` (whose noise moves it by about 1e-4). It moves when accuracy
does, not with the machine.

The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from tracer import MODULES, TRACED, Tracer

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / "_work"

SETUP_REPEATS = 3
MIN_OPS = 11  # the tail percentile needs 10 samples beyond it
TAIL_BEYOND = 10

# Criterion-6 stopping rule of the benchmark protocol (max_iters, rel_tol).
# The benchmark keeps its own copy rather than importing the tests.
PROTOCOL_HOOI = (15, 1e-6)
PROTOCOL_CELLS = (
    ("2m", 10.0), ("2m", 5.0), ("2m", 0.0), ("2m", -5.0),
    ("2t", 10.0), ("2t", 5.0), ("2t", 0.0), ("2t", -5.0),
    ("mr", math.inf),
)  # fmt: skip
PROTOCOL_R_MAX = 10
PROTOCOL_LAMBDA_MAX = 10
PROTOCOL_GUARD = (("2t", 5.0, 101), ("2t", 5.0, 102), ("2t", 5.0, 103))
PROTOCOL_POOL_SEED = 1000

FIT_SHAPE = (60, 48, 48)
FIT_SNR_DB = 0.0
FIT_DATASETS = 11  # one round: each pool dataset once
FIT_POOL_SEED = 2000
FIT_ARGS = ("--algo", "hopls", "--r", "5", "--lambda", "3")
FIT_GUARD_SEEDS = (201, 202, 203)

SCORE_TRAIN_SHAPE = (40, 32, 32)
SCORE_SNR_DB = 5.0
SCORE_MODEL_SEED = 301
SCORE_CHUNK = 400
SCORE_CHUNKS = 50  # 50 x 400 = 20000 samples per batch

# name, unit, better -- every end-to-end metric printed, in order. fail_frac
# is printed with the others but is not in BENCHMARK.json: it is 0 on a
# healthy run and the result line carries it as failed / attempted.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_tail", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("q2_median", "Q2", "higher"),
)


def same_bytes(a: Path, b: Path, block: int = 1 << 24) -> bool:
    """Whether two files hold the same bytes (read in blocks, not whole)."""
    with open(a, "rb") as fa, open(b, "rb") as fb:
        while True:
            xa, xb = fa.read(block), fb.read(block)
            if xa != xb:
                return False
            if not xa:
                return True


def derive_seed(seed: int, *index: int) -> int:
    return int(np.random.SeedSequence((seed,) + index).generate_state(1)[0])


def round_order(seed: int, i: int, size: int) -> int:
    """Pool index of op ``i``: each round visits the pool in a seeded order."""
    return int(np.random.default_rng([seed, i // size]).permutation(size)[i % size])


# ---------------------------------------------------------------------------
# environment


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _cache_mib(index: int) -> float | None:
    text = _read(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size")
    if not text or not text.endswith("K"):
        return None
    return int(text[:-1]) / 1024


def _openblas_threads() -> int | None:
    """Thread count OpenBLAS reports after start-up (None if not found)."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    cpu = "unknown"
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads_pinned": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "blas_threads_effective": _openblas_threads(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": sys.version.split()[0],
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "l2_mib_per_core": _cache_mib(2),
        "l3_mib_shared": _cache_mib(3),
    }


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Setup, one timed op, its output check, and the digest of outputs."""

    name = ""
    # ops per round: the loop ends on a round boundary, so every run sees
    # each input of a round equally often
    round_ops = 1

    def __init__(self, tp, seed: int, work: Path):
        self.tp = tp
        self.seed = seed
        self.work = work
        self.digest = hashlib.sha256()
        self.guard_q2: list[float] = []
        self.errors: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.errors.append(what)

    def cli(self, *argv: str) -> int:
        """``tensorpls <argv>`` in process, its console output discarded."""
        sink = io.StringIO()
        with redirect_stdout(sink), redirect_stderr(sink):
            return self.tp.cli.main(list(argv))

    def setup(self, k: int) -> None:
        raise NotImplementedError

    def after_setup(self, k: int) -> None:
        """Untimed checks and guard outputs of setup ``k``."""

    def op(self, i: int):
        raise NotImplementedError

    def check_op(self, i: int, out) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Untimed checks after the timed loop."""

    def inputs(self) -> dict:
        raise NotImplementedError


class Protocol(Workload):
    """One repeat of the benchmark protocol per op, each round over all cells."""

    name = "protocol"
    round_ops = len(PROTOCOL_CELLS)

    def __init__(self, tp, seed, work):
        super().__init__(tp, seed, work)
        self.hooi = tp.HooiSettings(max_iters=PROTOCOL_HOOI[0], rel_tol=PROTOCOL_HOOI[1])

    def run_case(self, case: str, snr: float, seed: int):
        spec = self.tp.SynthSpec.from_case(case, snr, seed=seed)
        result = self.tp.benchmark_case(
            spec,
            repeats=1,
            r_max=PROTOCOL_R_MAX,
            lambda_max=PROTOCOL_LAMBDA_MAX,
            hooi_settings=self.hooi,
        )
        return spec, result

    def check_result(self, spec, result, label: str) -> None:
        matrix_y = len(spec.y_shape) == 2
        for method in result.methods:
            q2 = result.q2[method][0]
            self.check(math.isfinite(q2), f"{label}: {method} Q2 not finite")
            algo = "hopls2" if matrix_y and method in ("hopls", "npls") else method
            lam_max = 1 if method == "npls" else PROTOCOL_LAMBDA_MAX
            grid = {
                (c.n_components, c.lam)
                for c in self.tp.grid_candidates(
                    spec.x_shape, spec.y_shape, PROTOCOL_R_MAX, lam_max, algo
                )
            }
            cell = result.selected[method][0]
            self.check(cell in grid, f"{label}: {method} selected {cell} outside grid")

    def feed(self, result) -> None:
        for method in result.methods:
            self.digest.update(method.encode())
            self.digest.update(float(result.q2[method][0]).hex().encode())
            self.digest.update(repr(result.selected[method][0]).encode())

    def setup(self, k):
        case, snr, seed = PROTOCOL_GUARD[k % len(PROTOCOL_GUARD)]
        self._guard = self.run_case(case, snr, seed)

    def after_setup(self, k):
        spec, result = self._guard
        self.check_result(spec, result, f"guard {k}")
        self.guard_q2.append(result.q2["hopls"][0])
        self.feed(result)

    def op(self, i):
        c = round_order(self.seed, i, len(PROTOCOL_CELLS))
        case, snr = PROTOCOL_CELLS[c]
        return self.run_case(case, snr, derive_seed(PROTOCOL_POOL_SEED, c, i // self.round_ops))

    def check_op(self, i, out):
        spec, result = out
        self.check_result(spec, result, f"op {i}")
        if i < len(PROTOCOL_CELLS):
            self.feed(result)

    def inputs(self):
        return {
            "op": "evaluate.benchmark_case(spec, repeats=1), 5-fold CV, R<=10, lambda<=10",
            "hooi": {"max_iters": PROTOCOL_HOOI[0], "rel_tol": PROTOCOL_HOOI[1]},
            "cells": [f"{c}@{s}dB" for c, s in PROTOCOL_CELLS],
            "x_mb": 10 * 10 * 10 * 8 / 1e6,
            "cross_cov_mb": 10**4 * 8 / 1e6,
        }


class FitLarge(Workload):
    """``tensorpls fit`` on (60, 48, 48) Tucker data, each round over the pool."""

    name = "fit-large"
    round_ops = FIT_DATASETS

    def spec(self, seed: int):
        return self.tp.SynthSpec(
            kind="tucker-structured",
            x_shape=FIT_SHAPE,
            y_shape=FIT_SHAPE,
            snr_db=FIT_SNR_DB,
            seed=seed,
        )

    def write_pair(self, data, tag: str) -> tuple[str, str]:
        xp, yp = self.work / f"X{tag}.ten", self.work / f"Y{tag}.ten"
        self.tp.write_tensor(xp, data.x)
        self.tp.write_tensor(yp, data.y)
        return str(xp), str(yp)

    def fit(self, xp: str, yp: str, out: Path) -> None:
        rc = self.cli("fit", *FIT_ARGS, "--x", xp, "--y", yp, "--out", str(out))
        if rc != 0:
            raise RuntimeError(f"tensorpls fit exited {rc}")

    def setup(self, k):
        self.data = [
            self.tp.generate(self.spec(derive_seed(FIT_POOL_SEED, j)))
            for j in range(FIT_DATASETS)
        ]
        self.files = [self.write_pair(d, str(j)) for j, d in enumerate(self.data)]
        self.guard = self.tp.generate(self.spec(FIT_GUARD_SEEDS[k % len(FIT_GUARD_SEEDS)]))
        self.guard_model = self.work / "guard.json"
        self.fit(*self.write_pair(self.guard, "g"), self.guard_model)
        self.ref_model = [None] * FIT_DATASETS
        self.ref_pred = [None] * FIT_DATASETS

    def after_setup(self, k):
        tp = self.tp
        loaded = tp.load_model(self.guard_model)
        pred = tp.predict_hopls(loaded, self.guard.x_val)
        if k == 0:
            # the saved model must predict exactly as the in-memory fit does
            cfg = tp.FitConfig.uniform(5, 3, len(FIT_SHAPE), len(FIT_SHAPE))
            mem = tp.fit_hopls(self.guard.x, self.guard.y, cfg)
            same = pred.tobytes() == tp.predict_hopls(mem, self.guard.x_val).tobytes()
            self.check(same, "guard: reloaded model differs from in-memory model")
        self.guard_q2.append(tp.q_squared(self.guard.y_val, pred))
        self.digest.update(hashlib.sha256(self.guard_model.read_bytes()).digest())

    def op(self, i):
        j = round_order(self.seed, i, FIT_DATASETS)
        out = self.work / f"model{j}.json"
        self.fit(*self.files[j], out)
        return j, out

    def check_op(self, i, out):
        j, path = out
        blob = path.read_bytes()
        pred = self.tp.predict_hopls(self.tp.load_model(path), self.data[j].x_val)
        self.check(bool(np.isfinite(pred).all()), f"op {i}: prediction not finite")
        if self.ref_model[j] is None:
            self.ref_model[j] = blob
            self.ref_pred[j] = pred.tobytes()
            self.digest.update(hashlib.sha256(blob).digest())
        else:
            self.check(blob == self.ref_model[j], f"op {i}: model file differs from the first fit of dataset {j}")
            self.check(pred.tobytes() == self.ref_pred[j], f"op {i}: prediction differs")

    def inputs(self):
        n_feat = math.prod(FIT_SHAPE[1:])
        return {
            "op": "tensorpls fit " + " ".join(FIT_ARGS) + " (CLI default HOOI settings)",
            "x_shape": FIT_SHAPE,
            "y_shape": FIT_SHAPE,
            "snr_db": FIT_SNR_DB,
            "datasets": FIT_DATASETS,
            "x_mb": math.prod(FIT_SHAPE) * 8 / 1e6,
            "cross_cov_mb": n_feat * n_feat * 8 / 1e6,
        }


class Score(Workload):
    """``tensorpls predict`` of a 20000 x 32 x 32 batch with one model."""

    name = "score"

    def spec(self, shape):
        return self.tp.SynthSpec(
            kind="tucker-structured",
            x_shape=shape,
            y_shape=shape,
            snr_db=SCORE_SNR_DB,
            seed=SCORE_MODEL_SEED,
        )

    def noisy_copies(self, clean: np.ndarray, stream: int) -> np.ndarray:
        """``SCORE_CHUNKS`` copies of ``clean``, each with fresh noise at
        ``SCORE_SNR_DB`` (global Frobenius SNR per copy) drawn from the seed."""
        rng = np.random.default_rng([self.seed, stream])
        out = np.empty((SCORE_CHUNKS * clean.shape[0],) + clean.shape[1:])
        scale = np.linalg.norm(clean) / 10 ** (SCORE_SNR_DB / 20.0)
        for j in range(SCORE_CHUNKS):
            noise = rng.standard_normal(clean.shape)
            rows = slice(j * clean.shape[0], (j + 1) * clean.shape[0])
            out[rows] = clean + (scale / np.linalg.norm(noise)) * noise
        return out

    def setup(self, k):
        tp = self.tp
        train = tp.generate(self.spec(SCORE_TRAIN_SHAPE))
        # Same structure seed as the training data: the validation samples
        # share the model's loadings with fresh latent scores.
        self.val = tp.generate(self.spec((SCORE_CHUNK,) + SCORE_TRAIN_SHAPE[1:]))
        xp, yp = self.work / "Xtrain.ten", self.work / "Ytrain.ten"
        tp.write_tensor(xp, train.x)
        tp.write_tensor(yp, train.y)
        self.model = self.work / "model.json"
        rc = self.cli(
            "fit", *FIT_ARGS, "--x", str(xp), "--y", str(yp), "--out", str(self.model)
        )
        if rc != 0:
            raise RuntimeError(f"tensorpls fit exited {rc}")
        self.batch = self.work / "batch.ten"
        tp.write_tensor(self.batch, self.noisy_copies(self.val.x_val_clean, 0))
        self.pred = self.work / "pred.ten"
        self.op(-1)

    def op(self, i):
        rc = self.cli(
            "predict", "--model", str(self.model), "--x", str(self.batch), "--out", str(self.pred)
        )
        if rc != 0:
            raise RuntimeError(f"tensorpls predict exited {rc}")
        return self.pred

    def check_op(self, i, out):
        self.check(same_bytes(out, self.ref), f"op {i}: prediction file differs from setup 0")

    def after_setup(self, k):
        if k == 0:
            # every later prediction file is compared with this one, and
            # finish() compares it with predict_hopls in memory
            self.ref = self.work / "pred-ref.ten"
            shutil.copyfile(self.pred, self.ref)
            self.digest.update(hashlib.sha256(self.ref.read_bytes()).digest())
        else:
            self.check_op(f"setup {k}", self.pred)

    def finish(self):
        # Run after the loop so that the reference prediction and the Y
        # chunks do not raise the peak resident memory of the timed ops.
        tp = self.tp
        pred = tp.read_tensor(self.pred)
        ref = tp.predict_hopls(tp.load_model(self.model), tp.read_tensor(self.batch))
        self.check(
            pred.tobytes() == ref.tobytes(), "prediction file differs from predict_hopls"
        )
        del ref
        y = self.noisy_copies(self.val.y_val_clean, 1)
        for j in range(SCORE_CHUNKS):
            rows = slice(j * SCORE_CHUNK, (j + 1) * SCORE_CHUNK)
            self.guard_q2.append(tp.q_squared(y[rows], pred[rows]))
        for q2 in self.guard_q2:
            self.digest.update(float(q2).hex().encode())

    def inputs(self):
        n = SCORE_CHUNK * SCORE_CHUNKS
        return {
            "op": "tensorpls predict --model model.json --x batch.ten",
            "train_shape": SCORE_TRAIN_SHAPE,
            "batch_shape": (n,) + SCORE_TRAIN_SHAPE[1:],
            "fit": " ".join(FIT_ARGS),
            "snr_db": SCORE_SNR_DB,
            "batch_mb": n * math.prod(SCORE_TRAIN_SHAPE[1:]) * 8 / 1e6,
        }


WORKLOADS = {w.name: w for w in (Protocol, FitLarge, Score)}


# ---------------------------------------------------------------------------
# measurement


def tail(durations: list[float]) -> tuple[float, float]:
    """Highest percentile with ``TAIL_BEYOND`` samples beyond it, and its value.

    With n sorted samples that is the (n - TAIL_BEYOND)-th smallest, the
    nearest-rank percentile 100 * (n - TAIL_BEYOND) / n.
    """
    n = len(durations)
    rank = max(1, n - TAIL_BEYOND)  # fewer samples only when ops failed
    return 100.0 * rank / n, sorted(durations)[rank - 1]


def closed_loop(w: Workload, seconds: float, tracer: Tracer | None):
    """Run ops until the round boundary nearest to ``seconds`` of op time."""
    durations: list[float] = []
    failed = 0
    busy = 0.0
    i = 0
    while True:
        if tracer is not None:
            tracer.op_id, tracer.scope = i, "op"
        t0 = time.perf_counter()
        try:
            out = w.op(i)
        except Exception as exc:  # a failed op is counted, not fatal
            out = exc
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.scope = None
        busy += dt
        if isinstance(out, Exception):
            failed += 1
            print(f"op {i} failed: {type(out).__name__}: {out}", file=sys.stderr)
        else:
            durations.append(dt)
            w.check_op(i, out)
        i += 1
        if i % w.round_ops == 0 and i >= MIN_OPS:
            round_s = busy * w.round_ops / i
            if busy >= seconds - round_s / 2:
                return durations, failed, busy


def layer_metrics(tracer: Tracer, names: list[str], ops: int, durations, busy) -> dict:
    """Per-layer metrics of the timed ops, per op unless the unit says not."""
    stats = tracer.stats["op"]
    out = {}
    for name in names:
        parts = name.split(".")
        if parts[0] == "bench":
            continue
        if len(parts) == 2:  # <module>.self_s
            value = sum(s.self_s for f, s in stats.items() if f.startswith(parts[0] + "."))
            out[name] = value / ops
            continue
        key, counter = ".".join(parts[:2]), parts[2]
        if counter == "setup_s":
            stat = tracer.stats["setup"].get(key)
            out[name] = (stat.self_s if stat else 0.0) / SETUP_REPEATS
            continue
        stat = stats.get(key)
        if stat is None:
            out[name] = 0.0
        elif counter == "calls":
            out[name] = stat.calls / ops
        elif counter == "self_s":
            out[name] = stat.self_s / ops
        elif counter == "sweeps":
            out[name] = stat.counts.get("sweeps", 0.0) / stat.calls
        elif counter == "unconverged_frac":
            out[name] = stat.counts.get("unconverged", 0.0) / stat.calls
        elif counter == "out_mb_max":
            out[name] = stat.counts.get(counter, 0.0)
        else:
            out[name] = stat.counts.get(counter, 0.0) / ops
    out["bench.op.ms_p50"] = 1000.0 * statistics.median(durations)
    out["bench.op.self_s"] = (busy - tracer.top_s["op"]) / ops
    out["bench.spans"] = len(tracer.span_id) / ops
    return out


def per_layer_names() -> list[tuple[str, str, str]]:
    """The per-layer metrics (name, unit, better), in BENCHMARK.json order."""
    per_func = {
        "tensor.mode_n_product": ("calls", "self_s", "gflop", "gbytes"),
        "tensor.matricize": ("calls", "self_s"),
        "tensor.fold": ("calls", "self_s"),
        "tensor.cross_cov_mode1": ("calls", "self_s", "gflop", "out_mb_max"),
        "tensor.tucker_contract": ("calls", "self_s"),
        "tensor.tucker_assemble": ("calls", "self_s"),
        "decomp.hooi": ("calls", "self_s", "sweeps", "unconverged_frac"),
        "decomp.hosvd": ("calls", "self_s"),
        "decomp.truncated_svd": ("calls", "self_s"),
        "regression.fit_hopls": ("calls", "self_s", "components"),
        "regression.fit_hopls2": ("calls", "self_s", "components"),
        "regression.fit_pls_nipals": ("calls", "self_s", "components"),
        "regression.predict_hopls": ("calls", "self_s"),
        "regression.predict_hopls2": ("calls", "self_s"),
        "regression.predict_pls": ("calls", "self_s"),
        "evaluate.benchmark_case": ("calls", "self_s"),
        "evaluate.kfold_cv": ("calls", "self_s"),
        "evaluate.generate": ("calls", "self_s", "setup_s"),
        "fileio.read_tensor": ("calls", "self_s", "mb"),
        "fileio.write_tensor": ("calls", "self_s", "mb"),
        "fileio.save_model": ("calls", "self_s"),
        "fileio.load_model": ("calls", "self_s"),
        "cli.main": ("calls", "self_s", "nonzero_exits"),
    }
    units = {
        "calls": ("count/op", "lower"),
        "self_s": ("s/op", "lower"),
        "gflop": ("GFLOP/op", "lower"),
        "gbytes": ("GB/op", "lower"),
        "out_mb_max": ("MB", "lower"),
        "sweeps": ("sweeps/call", "lower"),
        "unconverged_frac": ("fraction", "lower"),
        "components": ("count/op", "higher"),
        "setup_s": ("s/setup", "lower"),
        "mb": ("MB/op", "lower"),
        "nonzero_exits": ("count/op", "lower"),
    }
    out = []
    for module in MODULES:
        for func, counters in per_func.items():
            if func.split(".")[0] == module:
                out += [(f"{func}.{c}",) + units[c] for c in counters]
        out.append((f"{module}.self_s", "s/op", "lower"))
    out += [
        ("bench.op.ms_p50", "ms", "lower"),
        ("bench.op.self_s", "s/op", "lower"),
        ("bench.spans", "count/op", "lower"),
    ]
    for name, *_ in out:
        func = ".".join(name.split(".")[:2])
        module, _, short = func.partition(".")
        if module in TRACED and short != "self_s" and short not in TRACED[module]:
            raise AssertionError(f"{name} names a function the tracer does not wrap")
    return out


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t_import = time.perf_counter()
    import tensorpls
    import tensorpls.cli  # noqa: F401  (the in-process CLI entry point)

    import_s = time.perf_counter() - t_import
    src = (ROOT / "src").resolve()
    if src not in Path(tensorpls.__file__).resolve().parents:
        print(f"error: tensorpls imported from {tensorpls.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        tracer = Tracer()
        print(f"traced {tracer.install(tensorpls)} function bindings")

    work = WORK / args.workload
    work.mkdir(parents=True, exist_ok=True)
    w = WORKLOADS[args.workload](tensorpls, args.seed, work)

    setup_times = []
    for k in range(SETUP_REPEATS):
        if tracer is not None:
            tracer.scope = "setup"
        t0 = time.perf_counter()
        w.setup(k)
        setup_times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.scope = None
        w.after_setup(k)

    durations, failed, busy = closed_loop(w, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    w.finish()
    for path in work.glob("*.ten"):
        path.unlink()

    attempted = len(durations) + failed
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    inputs = w.inputs()
    inputs["l2_mib_per_core"] = env["l2_mib_per_core"]
    inputs["l3_mib_shared"] = env["l3_mib_shared"]
    print("inputs " + json.dumps(inputs, sort_keys=True))
    print(f"workload={w.name} seed={args.seed} trace={args.trace} ops={attempted} "
          f"failed={failed} busy_s={busy:.3f} setup_runs={SETUP_REPEATS}")
    print(f"digest={w.digest.hexdigest()}")
    for err in w.errors:
        print(f"check failed: {err}")

    if not durations:
        print("error: every op failed", file=sys.stderr)
        return 1
    tail_pct, tail_s = tail(durations)
    values = {
        "setup_s": import_s + statistics.median(setup_times),
        "ops_per_s": len(durations) / busy,
        "op_ms_p50": 1000.0 * statistics.median(durations),
        "op_ms_tail": 1000.0 * tail_s,
        "peak_rss_mb": peak_rss_mb,
        "q2_median": statistics.median(w.guard_q2),
    }
    units = {name: unit for name, unit, _ in END_TO_END}
    print("op_ms " + " ".join(f"{1000 * d:.1f}" for d in durations))
    print(f"op_ms_tail is p{tail_pct:.1f} of n={len(durations)} op times")
    for name, value in values.items():
        print(f"{name}={value:.6g} {units[name]}")
    print(f"fail_frac={failed / attempted:.6g} fraction")

    if tracer is None:
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    else:
        layers = per_layer_names()
        unit_of = {name: unit for name, unit, _ in layers}
        per = layer_metrics(tracer, [n for n, *_ in layers], attempted, durations, busy)
        metrics = {k: {"value": per[k], "unit": unit_of[k]} for k in unit_of}
        spans = tracer.write(work / f"spans-seed{args.seed}.npz")
        print(f"spans={spans} written to {work / f'spans-seed{args.seed}.npz'}")
        for k, m in metrics.items():
            print(f"{k}={m['value']:.6g} {m['unit']}")

    correct = not w.errors
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
