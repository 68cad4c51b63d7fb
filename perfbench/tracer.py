"""In-memory span tracer for the tensorpls benchmark.

The tracer wraps public functions of the package at every module binding
(``decomp``, ``regression``, ``evaluate``, ``cli`` and ``tensorpls`` itself
bind names with ``from .tensor import ...``, so patching the defining module
alone would miss most calls). Each call becomes a span with a parent id and
the id of the benchmark op it belongs to. Spans stay in memory and are
written out once, at the end of the run.

Self time of a span is its duration minus the time covered by its direct
child spans. Flop and byte counts are computed from array shapes, not
measured by hardware counters.
"""

from __future__ import annotations

import importlib
import inspect
from array import array
from time import perf_counter

import numpy as np

MODULES = ("tensor", "decomp", "regression", "evaluate", "fileio", "cli")

# Public functions wrapped per module. Small validators (check_shape,
# validate_ranks, as_matrix, astensor) are left out: their cost stays in the
# caller's self time, and wrapping them would add overhead to every call.
TRACED = {
    "tensor": (
        "mode_n_product",
        "multi_mode_product",
        "matricize",
        "fold",
        "cross_cov_mode1",
        "tucker_assemble",
        "tucker_contract",
        "kron_all",
        "fro_norm",
    ),
    "decomp": ("hooi", "hosvd", "truncated_svd", "leading_left_singular_vector"),
    "regression": (
        "fit_hopls",
        "fit_hopls2",
        "fit_pls_nipals",
        "predict_hopls",
        "predict_hopls2",
        "predict_pls",
        "center_mode1",
    ),
    "evaluate": (
        "benchmark_case",
        "kfold_cv",
        "generate",
        "grid_candidates",
        "q_squared",
        "metrics",
    ),
    "fileio": ("read_tensor", "write_tensor", "save_model", "load_model"),
    "cli": ("main",),
}

SCOPES = ("setup", "op")


def _add(counts: dict, key: str, value: float) -> None:
    counts[key] = counts.get(key, 0.0) + value


def _mode_n_product_counts(args, out, counts):
    a = args[1]
    _add(counts, "gflop", 2.0 * out.size * np.shape(a)[1] / 1e9)
    _add(counts, "gbytes", 8.0 * (np.size(args[0]) + np.size(a) + out.size) / 1e9)


def _cross_cov_counts(args, out, counts):
    _add(counts, "gflop", 2.0 * np.shape(args[0])[0] * out.size / 1e9)
    counts["out_mb_max"] = max(counts.get("out_mb_max", 0.0), out.nbytes / 1e6)


def _hooi_counts(args, out, counts):
    _add(counts, "sweeps", len(out.objective_history) - 1)
    _add(counts, "unconverged", 0 if out.converged else 1)


def _fit_counts(args, out, counts):
    _add(counts, "components", out.n_components)


def _read_counts(args, out, counts):
    _add(counts, "mb", out.nbytes / 1e6)


def _write_counts(args, out, counts):
    _add(counts, "mb", np.asarray(args[1]).nbytes / 1e6)


def _main_counts(args, out, counts):
    _add(counts, "nonzero_exits", 1 if out else 0)


COUNTERS = {
    "tensor.mode_n_product": _mode_n_product_counts,
    "tensor.cross_cov_mode1": _cross_cov_counts,
    "decomp.hooi": _hooi_counts,
    "regression.fit_hopls": _fit_counts,
    "regression.fit_hopls2": _fit_counts,
    "regression.fit_pls_nipals": _fit_counts,
    "fileio.read_tensor": _read_counts,
    "fileio.write_tensor": _write_counts,
    "cli.main": _main_counts,
}


class Stat:
    """Aggregate of one traced function within one scope."""

    __slots__ = ("calls", "self_s", "counts")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.counts: dict[str, float] = {}


class Tracer:
    """Span recorder. ``scope`` is None (off), ``"setup"`` or ``"op"``."""

    def __init__(self):
        self.names: list[str] = []
        self.scope: str | None = None
        self.op_id = -1
        self.stats = {scope: {} for scope in SCOPES}
        # time covered by spans with no parent, per scope
        self.top_s = {scope: 0.0 for scope in SCOPES}
        # one entry per open span: [span id, time covered by child spans]
        self._stack: list[list] = []
        self._next_id = 0
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._t0 = perf_counter()

    # -- instrumentation -------------------------------------------------

    def install(self, package) -> int:
        """Wrap every traced function wherever the package binds it.

        Returns the number of bindings replaced.
        """
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{m}") for m in MODULES
        ]
        wrappers = {}
        for mod_name, funcs in TRACED.items():
            mod = importlib.import_module(f"{package.__name__}.{mod_name}")
            for func in funcs:
                original = getattr(mod, func)
                if not inspect.isfunction(original):
                    raise TypeError(f"{mod_name}.{func} is not a function")
                wrappers[id(original)] = self._wrap(f"{mod_name}.{func}", original)
        replaced = 0
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    replaced += 1
        return replaced

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            scope = tracer.scope
            if scope is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                else:
                    tracer.top_s[scope] += dur
                stat = tracer._stat(scope, name)
                stat.calls += 1
                stat.self_s += dur - frame[1]
                tracer.span_id.append(span)
                tracer.span_parent.append(parent)
                tracer.span_op.append(tracer.op_id)
                tracer.span_name.append(name_id)
                tracer.span_start.append(start - tracer._t0)
                tracer.span_end.append(end - tracer._t0)
            if counter is not None:
                counter(args, out, stat.counts)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def _stat(self, scope: str, name: str) -> Stat:
        stats = self.stats[scope]
        stat = stats.get(name)
        if stat is None:
            stat = stats[name] = Stat()
        return stat

    # -- output ----------------------------------------------------------

    def write(self, path) -> int:
        """Write all spans to ``path`` (numpy .npz); returns the span count."""
        np.savez(
            path,
            names=np.array(self.names),
            id=np.frombuffer(self.span_id, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            op=np.frombuffer(self.span_op, dtype=np.int64),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start_s=np.frombuffer(self.span_start, dtype=np.float64),
            end_s=np.frombuffer(self.span_end, dtype=np.float64),
        )
        return len(self.span_id)

