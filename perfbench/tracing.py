"""Per-layer spans around the public functions of the slicesdr modules.

The tracer wraps each layer function at every place it is looked up: any
``slicesdr`` module namespace that binds the function object (for example
``simulation.slice_stats`` as well as ``slicing.slice_stats``).  Wrappers
record one span per call (layer, parent span, start, end, raised or not)
in memory; nothing inside the program changes, and uninstalling restores
every binding.  A layer whose function no longer exists is reported as
absent with zero calls.

Layer table: each layer function and the end-to-end metric it should move,
on which workload (see BENCHMARK.json for the workloads).

    simulation.model_streams, gen_model   wall_s on grid; absent on estimate-csv
    simulation.run_mc (self: loop, pool)  wall_s, cpu_s on grid-threaded, grid
    simulation.bias_sweep (self)          wall_s on null-fine
    slicing.slice_equal_count             wall_s on null-fine; small on grid
    slicing.slice_stats                   wall_s on grid, null-fine
    estimators.sir_matrix .. csave_matrix wall_s on grid, null-fine
    estimators.cdr_basis, negative_eigenvalue_count,
    data.load_csv, data.standardize,
    linalg.inv_sqrt                       wall_s on estimate-csv only
    linalg.sym_eig, ensure_symmetric      wall_s on grid
    metrics.r2_single                     wall_s on grid
    cli.main (self: argparse, output)     wall_s on estimate-csv
"""

from __future__ import annotations

import functools
import itertools
import statistics
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

PACKAGE = "slicesdr"


@dataclass(frozen=True)
class Layer:
    module: str
    function: str
    timed: bool = True  # False: a few microseconds per call, so calls only

    @property
    def name(self) -> str:
        return f"{self.module}.{self.function}"


LAYERS = (
    Layer("simulation", "model_streams"),
    Layer("simulation", "gen_model"),
    Layer("simulation", "run_mc"),
    Layer("simulation", "bias_sweep"),
    Layer("data", "load_csv"),
    Layer("data", "standardize"),
    Layer("slicing", "slice_equal_count"),
    Layer("slicing", "slice_stats"),
    Layer("estimators", "sir_matrix"),
    Layer("estimators", "save_matrix"),
    Layer("estimators", "lambda_n"),
    Layer("estimators", "v_n"),
    Layer("estimators", "lambda_corrected"),
    Layer("estimators", "csave_matrix"),
    Layer("estimators", "cdr_basis"),
    Layer("estimators", "negative_eigenvalue_count"),
    Layer("linalg", "sym_eig"),
    Layer("linalg", "ensure_symmetric", timed=False),
    Layer("linalg", "inv_sqrt"),
    Layer("metrics", "r2_single"),
    Layer("cli", "main"),
)

TIME_FIELDS = ("self_s", "p50_us", "p99_us")


def layer_metric_names(layers=LAYERS):
    """Per-layer metric names in reporting order, with their units."""
    units = {"calls": "count", "errors": "count", "self_s": "s",
             "p50_us": "us", "p99_us": "us"}
    out = []
    for layer in layers:
        fields = ("calls",) + (TIME_FIELDS if layer.timed else ()) + ("errors",)
        out.extend((f"{layer.name}.{f}", units[f]) for f in fields)
    return out


@dataclass
class JobTrace:
    """Per-layer totals of one traced job."""

    calls: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)
    self_s: dict = field(default_factory=dict)
    durations: dict = field(default_factory=dict)  # layer -> [seconds per call]


class Tracer:
    """Installs span-recording wrappers and turns spans into layer totals."""

    def __init__(self, layers=LAYERS):
        self.layers = tuple(layers)
        self.present = {}
        self._spans = []
        self._ids = itertools.count()
        self._main_ident = threading.main_thread().ident
        self._main_stack = []
        self._local = threading.local()

    def _stack(self):
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # A pool thread's first span was caused by the main thread's open span.
        if stack is not self._main_stack and self._main_stack:
            return self._main_stack[-1]
        return None

    def _wrap(self, name, fn):
        spans, ids = self._spans, self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            sid = next(ids)
            stack.append(sid)
            ok = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, parent, name, t0, t1, ok))

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every binding of every present layer; restore on exit."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        restore = []
        try:
            for layer in self.layers:
                home = sys.modules.get(f"{PACKAGE}.{layer.module}")
                fn = getattr(home, layer.function, None) if home is not None else None
                self.present[layer.name] = callable(fn)
                if not callable(fn):
                    continue
                wrapper = self._wrap(layer.name, fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, wrapper)
                            restore.append((module, attr, fn))
            yield self
        finally:
            for module, attr, fn in reversed(restore):
                setattr(module, attr, fn)

    def reset(self):
        self._spans.clear()

    def job_trace(self) -> JobTrace:
        """Layer totals of the spans recorded since the last reset."""
        children = {}
        for sid, parent, _, t0, t1, _ in self._spans:
            if parent is not None:
                children.setdefault(parent, []).append((t0, t1))
        out = JobTrace()
        for layer in self.layers:
            out.calls[layer.name] = 0
            out.errors[layer.name] = 0
            out.self_s[layer.name] = 0.0
            out.durations[layer.name] = []
        for sid, _, name, t0, t1, ok in self._spans:
            out.calls[name] += 1
            out.errors[name] += not ok
            out.self_s[name] += (t1 - t0) - _covered(children.get(sid, ()), t0, t1)
            out.durations[name].append(t1 - t0)
        return out


def _covered(intervals, lo, hi) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def summarize(traces, layers=LAYERS):
    """Per-layer metrics over several traced runs of the same job.

    Calls and errors are per job and must repeat exactly across the runs;
    self time is the median over runs, p50/p99 are over all calls pooled.
    Returns (metrics, calls_repeat).
    """
    first = traces[0]
    calls_repeat = all(t.calls == first.calls and t.errors == first.errors for t in traces)
    metrics = {}
    for layer in layers:
        name = layer.name
        metrics[f"{name}.calls"] = first.calls[name]
        if layer.timed:
            pooled = [d for t in traces for d in t.durations[name]] or [0.0]
            p50, p99 = np.percentile(pooled, (50, 99)) * 1e6
            metrics[f"{name}.self_s"] = statistics.median(t.self_s[name] for t in traces)
            metrics[f"{name}.p50_us"] = float(p50)
            metrics[f"{name}.p99_us"] = float(p99)
        metrics[f"{name}.errors"] = first.errors[name]
    return metrics, calls_repeat
