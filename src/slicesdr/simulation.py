"""Seeded Monte Carlo harness for the benchmark models.

Five single-index generators (cubic, quadratic, multiplicative noise,
cubic with multiplicative noise, cosine) with standard normal predictors
and noise.  Replicate r of a run draws from counter-based substreams keyed
by (seed, r, role), so replicate r sees the same data whether or not other
replicates run.

``run_grid`` scores each method's leading direction against the true index
direction over a grid of (model, H) cells and reports the replicate
medians of each cell; ``run_mc`` is its one-cell case.  ``bias_sweep``
tracks the raw and corrected slice-covariance-square estimators on a
pure-noise model where the estimand is known exactly.

Both engines run one loop, ``_run_chunks``, which draws the predictors x
and noise eps of replicates one by one into the rows of two chunk buffers,
a chunk holding as many replicates as the largest ``_chunk_size`` over the
H grid, and hands each chunk to the engine's stacked pass, which only
scores it.  Each response of a chunk is sorted once, because the slice
order does not depend on H, and that order is checked once; every H then
slices the chunk in sub-chunks of its own ``_chunk_size``
(``_stats_by_H``), so its slice stacks stay within that bound.  The grid
draws replicate r once for all its cells, since x and eps depend only on
(seed, r, n, p); its pass forms u = x beta for the chunk, under
``standardize`` whitens each replicate's x into a buffer of its own, and
forms each model's response from the shared u and eps; each model's
candidates over all H and methods go through one eigen and one scoring
call.  The sweep draws replicate r once per n for every c of the row, and
eps is its response.  Each engine call reuses one set of work buffers
(``slicing._Buffers``) for the draws, the sort and the slice moments of
every replicate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .data import standardize as _standardize
from .errors import DegenerateDesign, InvalidArgument, SimulationError
from .estimators import METHODS, candidate_matrix, lambda_corrected
from .linalg import _leading_vectors
from .metrics import r2_single
from .slicing import (
    _assignment,
    _Buffers,
    _check_order,
    _checked_bounds,
    equal_count_bounds,
    slice_stats,
    stable_order,
)

#: Fixed default master seed for every CLI entry point (never time-derived).
DEFAULT_SEED = 1729

_ROLE_X = 0
_ROLE_EPS = 1

#: Response y = f(u, eps) of each benchmark model, keyed by model id.
_RESPONSES = {
    1: lambda u, eps: u ** 3 + eps,
    2: lambda u, eps: u ** 2 + eps,
    3: lambda u, eps: u * eps,
    4: lambda u, eps: u ** 3 + u * eps,
    5: lambda u, eps: np.cos(u) + eps,
}

MODEL_IDS = tuple(_RESPONSES)

#: Dimensions p of the null-model sweep.
SWEEP_P = (1, 2, 3)


@dataclass(frozen=True)
class ModelSpec:
    """One benchmark generator: y = f(beta' x, eps) with x ~ N(0, I_p)."""

    id: int
    p: int = 10

    def __post_init__(self):
        if self.id not in MODEL_IDS:
            raise InvalidArgument(f"model id must be in {MODEL_IDS}, got {self.id}")
        if self.p < 1:
            raise InvalidArgument("p must be >= 1")

    @property
    def beta(self) -> np.ndarray:
        """The index direction e_1: the response depends on x[0] only."""
        b = np.zeros(self.p)
        b[0] = 1.0
        return b


@dataclass(frozen=True)
class RngStreams:
    """Independent generators for the predictor and noise draws."""

    x: np.random.Generator
    eps: np.random.Generator


def model_streams(seed: int, replicate: int) -> RngStreams:
    """Substreams for one replicate, a pure function of (seed, replicate).

    Counter-based Philox generators keyed by (seed, replicate, role); the
    draws of one replicate never depend on which other replicates run.
    """
    if seed < 0 or replicate < 0:
        raise InvalidArgument("seed and replicate index must be non-negative")
    return RngStreams(
        x=np.random.Generator(
            np.random.Philox(np.random.SeedSequence([seed, replicate, _ROLE_X]))
        ),
        eps=np.random.Generator(
            np.random.Philox(np.random.SeedSequence([seed, replicate, _ROLE_EPS]))
        ),
    )


def _draw(n: int, p: int, streams: RngStreams, out=None):
    """Predictors x (n, p) and noise eps (n,) of one replicate, i.i.d. N(0, 1),
    drawn into ``out`` = (x, eps) when given and into fresh arrays if not."""
    x, eps = out if out is not None else (np.empty((n, p)), np.empty(n))
    return streams.x.standard_normal(out=x), streams.eps.standard_normal(out=eps)


@dataclass(frozen=True)
class SimConfig:
    """One Monte Carlo run: model, sizes, methods, seed, replication."""

    model: ModelSpec
    n: int
    H: int
    reps: int
    seed: int = DEFAULT_SEED
    methods: tuple = METHODS
    standardize: bool = False

    def __post_init__(self):
        if self.H < 1:
            raise InvalidArgument(f"H must be >= 1, got {self.H}")
        if self.n < 2 * self.H:
            raise InvalidArgument(f"n={self.n} too small for H={self.H}")
        if self.reps < 1:
            raise InvalidArgument("reps must be >= 1")
        if self.seed < 0:
            raise InvalidArgument("seed must be non-negative")
        bad = [m for m in self.methods if m not in METHODS]
        if bad:
            raise InvalidArgument(f"unknown methods {bad}; valid: {METHODS}")
        if not self.methods:
            raise InvalidArgument("need at least one method")
        repeated = sorted({m for m in self.methods if self.methods.count(m) > 1})
        if repeated:
            raise InvalidArgument(f"repeated methods {repeated}; name each once")
        if self.standardize and self.n <= self.model.p:
            raise InvalidArgument(
                f"need n > p to standardize, got n={self.n}, p={self.model.p}"
            )


@dataclass(frozen=True)
class MethodSummary:
    """Replicate scores of one method plus their five-number summary."""

    method: str
    values: np.ndarray
    median: float
    q1: float
    q3: float
    min: float
    max: float


def _summaries(methods: tuple, values: np.ndarray) -> list:
    """One MethodSummary per row of ``values`` (rows, reps), row i scored
    by ``methods[i % len(methods)]``.

    Each statistic is one call over all rows; a row's result is bitwise
    that of the same call on the row alone.
    """
    median = np.median(values, axis=-1)
    q1, q3 = np.quantile(values, [0.25, 0.75], axis=-1)
    lo, hi = values.min(axis=-1), values.max(axis=-1)
    return [
        MethodSummary(
            method=methods[i % len(methods)],
            values=v,
            median=float(median[i]),
            q1=float(q1[i]),
            q3=float(q3[i]),
            min=float(lo[i]),
            max=float(hi[i]),
        )
        for i, v in enumerate(values)
    ]


@dataclass(frozen=True)
class McReport:
    """Per-method replicate scores keyed to the config that produced them."""

    config: SimConfig
    summaries: dict  # method -> MethodSummary


def _chunk_size(n: int, p: int, H: int) -> int:
    """Replicates per stacked pass.

    Keeps the (chunk, n, p) data and (chunk, H, p, p) covariance stacks no
    larger than one replicate's (n, p, p) array of outer products.
    """
    return max(1, min(p, n // H))


def _run_chunks(reps: int, n: int, p: int, seed: int, slicings: list,
                stacked_pass, buffers) -> list:
    """Per-replicate results of replicates 0..reps-1, in chunks of the
    largest chunk size over ``slicings``.

    Replicate r's predictors and noise are drawn from
    ``model_streams(seed, r)`` into row i of the chunk buffers x
    (chunk, n, p) and eps (chunk, n).  ``stacked_pass(x, eps)`` scores a
    chunk and returns a tuple of fresh per-replicate result arrays, each
    concatenated over the chunks in replicate order; it must be a pure
    function of (x, eps), since a failing chunk is rerun one replicate at a
    time, so the error names the first replicate that fails on its own.
    """
    chunk = max(size for _, size in slicings)
    results = []
    for lo in range(0, reps, chunk):
        block = range(lo, min(lo + chunk, reps))
        x = buffers.get("x", (len(block), n, p))
        eps = buffers.get("eps", (len(block), n))
        for i, rep in enumerate(block):
            try:
                _draw(n, p, model_streams(seed, rep), (x[i], eps[i]))
            except Exception as e:
                raise SimulationError(f"replicate {rep} failed: {e}") from e
        try:
            results.append(stacked_pass(x, eps))
        except Exception as e:
            for i, rep in enumerate(block):
                try:
                    stacked_pass(x[i:i + 1], eps[i:i + 1])
                except Exception as e_rep:
                    raise SimulationError(f"replicate {rep} failed: {e_rep}") from e_rep
            raise SimulationError(
                f"replicates {block[0]}..{block[-1]} failed: {e}"
            ) from e
    return [np.concatenate(column) for column in zip(*results)]


def _slicings(n: int, p: int, h_grid: list) -> list:
    """(bounds, counts, runs) and ``_chunk_size`` of each H of ``h_grid``,
    the bounds checked once for every order an engine call slices."""
    out = []
    for H in h_grid:
        bounds = equal_count_bounds(n, H)
        out.append(((bounds, *_checked_bounds(bounds, n)), _chunk_size(n, p, H)))
    return out


def _stats_by_H(z, y, slicings: list, buffers: _Buffers):
    """(i, part, stats): the slice moments of the replicates ``part`` of a
    chunk z (chunk, n, p) at the i-th H of ``slicings``, whose responses
    y (chunk, n) are sorted and checked once for every H.  Each stats lives
    in ``buffers`` until the next is made.
    """
    order = stable_order(y, buffers)
    _check_order(order)
    for i, (slicing, size) in enumerate(slicings):
        for lo in range(0, z.shape[0], size):
            part = slice(lo, lo + size)
            yield i, part, slice_stats(
                z[part], _assignment(order[part], *slicing), buffers=buffers
            )


def grid_cells(models, h_grid, n, reps, seed, methods, standardize) -> list:
    """The validated SimConfig of each (model, H) cell of ``run_grid``, which
    raises the UsageError of the first invalid argument; nothing is drawn."""
    if not models or not h_grid:
        raise DegenerateDesign("empty model or H grid")
    if len({m.p for m in models}) > 1:
        raise InvalidArgument("grid models must share one dimension p")
    return [
        SimConfig(model=m, n=n, H=H, reps=reps, seed=seed, methods=methods,
                  standardize=standardize)
        for m in models
        for H in h_grid
    ]


def run_grid(
    models,
    h_grid,
    n: int,
    reps: int,
    seed: int = DEFAULT_SEED,
    methods: tuple = METHODS,
    standardize: bool = False,
) -> list:
    """One report per (model, H) cell, models outer and H inner, in the
    order given (repeats included).

    ``models`` are ModelSpecs of one dimension p.  Replicate r of every
    cell is drawn once from ``model_streams(seed, r)``, so each cell's
    report is the same as a run of that cell alone.  A failing replicate
    aborts the whole run with its index attached; nothing is skipped
    silently.
    """
    models, h_grid = list(models), list(h_grid)
    cells = grid_cells(models, h_grid, n, reps, seed, methods, standardize)
    p = models[0].p
    beta = models[0].beta
    true_basis = beta[:, None]
    slicings = _slicings(n, p, h_grid)
    buffers = _Buffers()

    def scores(x, eps):
        out = []
        chunk = x.shape[0]
        u = np.matmul(x, beta, out=buffers.get("u", (chunk, n)))
        z, back = x, None
        if standardize:
            z = buffers.get("z", x.shape)
            back = buffers.get("back", (chunk, p, p))
            for i in range(chunk):
                sd = _standardize(Dataset(x=x[i], y=u[i]))
                z[i], back[i] = sd.z, sd.cov_inv_sqrt
        cands = np.empty((len(h_grid), len(methods), chunk, p, p))
        for model in models:
            y = _RESPONSES[model.id](u, eps)
            for i, part, stats in _stats_by_H(z, y, slicings, buffers):
                for j, method in enumerate(methods):
                    cands[i, j, part] = candidate_matrix(method, stats)
            # One eigen call per model, for the one column R^2 reads.
            lead = _leading_vectors(cands.reshape(-1, p, p))
            if back is not None:
                # back to the x scale before scoring
                lead = np.einsum(
                    "...ij,...j->...i",
                    np.broadcast_to(back, cands.shape).reshape(-1, p, p),
                    lead,
                )
            out.extend(r2_single(lead, true_basis).reshape(-1, chunk))
        return out

    summaries = _summaries(
        methods, np.stack(_run_chunks(reps, n, p, seed, slicings, scores, buffers))
    )
    k = len(methods)
    return [
        McReport(
            config=cfg,
            summaries={s.method: s for s in summaries[c * k:(c + 1) * k]},
        )
        for c, cfg in enumerate(cells)
    ]


def run_mc(cfg: SimConfig) -> McReport:
    """Score every replicate of one cell and summarize each method's R^2:
    the one-cell case of ``run_grid``."""
    return run_grid(
        [cfg.model], [cfg.H], cfg.n, cfg.reps, seed=cfg.seed,
        methods=cfg.methods, standardize=cfg.standardize,
    )[0]


@dataclass(frozen=True)
class SweepRow:
    """Error statistics of the raw and corrected estimators at one (n, c)."""

    n: int
    c: int
    H: int
    reps: int
    mean_lambda_raw: float
    mean_lambda_corrected: float
    mean_abs_err_raw: float
    median_abs_err_raw: float
    mean_abs_err_corrected: float
    median_abs_err_corrected: float


def _null_levels(n: int, h_grid: list, p: int, reps: int, seed: int) -> list:
    """Per-replicate trace levels and Frobenius errors of the raw and
    corrected estimators on pure noise, where the true target is I_p: four
    rows per H of ``h_grid``, in order.
    """
    eye = np.eye(p)
    slicings = _slicings(n, p, h_grid)
    buffers = _Buffers()

    def levels(z, y):
        out = np.empty((len(h_grid), 4, z.shape[0]))
        for i, part, stats in _stats_by_H(z, y, slicings, buffers):
            lam, cor = stats.cov_square, lambda_corrected(stats)
            out[i, :, part] = (
                np.trace(lam, axis1=-2, axis2=-1) / p,
                np.trace(cor, axis1=-2, axis2=-1) / p,
                np.linalg.norm(lam - eye, axis=(-2, -1)),
                np.linalg.norm(cor - eye, axis=(-2, -1)),
            )
        return tuple(out.reshape(-1, z.shape[0]))

    return _run_chunks(reps, n, p, seed, slicings, levels, buffers)


def check_sweep(n_grid, c_grid, reps: int, seed: int, p: int) -> None:
    """Raise the UsageError of the first invalid argument of ``bias_sweep``.

    Every (n, c) is checked, so a degenerate pair late in the grid fails
    before any replicate is drawn.
    """
    if not n_grid or not c_grid:
        raise DegenerateDesign("empty sweep grid")
    if reps < 1:
        raise InvalidArgument("reps must be >= 1")
    if seed < 0:
        raise InvalidArgument("seed must be non-negative")
    if p not in SWEEP_P:
        raise InvalidArgument(
            f"null-model sweep supports p in {SWEEP_P[0]}..{SWEEP_P[-1]}"
        )
    for n in n_grid:
        for c in c_grid:
            if c < 2:
                raise DegenerateDesign(f"c={c} leaves no within-slice pairs")
            H = n // c
            if H < 2:
                raise DegenerateDesign(f"n={n}, c={c} gives H={H} < 2 slices")
            if n // H != c:
                raise DegenerateDesign(
                    f"n={n}, c={c} gives H={H} slices of {n // H} points, not {c}"
                )


def bias_sweep(
    n_grid,
    c_grid,
    reps: int,
    seed: int = DEFAULT_SEED,
    p: int = 1,
) -> list:
    """Null-model error sweep of the raw vs corrected estimators.

    For each (n, c) the pure-noise model (z independent of y) is replicated
    ``reps`` times; the estimand is exactly I_p, so the rows report the
    scalar level (trace / p) of each estimator plus the mean and median
    Frobenius-norm errors.  Degenerate designs are rejected: fewer than two
    slices, or H = n // c slices that hold n // H != c points (possible only
    when n < c^2), to which the c-point correction would not apply.
    """
    n_grid = [int(v) for v in n_grid]
    c_grid = [int(v) for v in c_grid]
    check_sweep(n_grid, c_grid, reps, seed, p)
    rows = []
    for n in n_grid:
        h_grid = [n // c for c in c_grid]
        levels = _null_levels(n, h_grid, p, reps, seed)
        for i, (c, H) in enumerate(zip(c_grid, h_grid)):
            raw_level, cor_level, raw_err, cor_err = levels[4 * i:4 * i + 4]
            rows.append(
                SweepRow(
                    n=n,
                    c=c,
                    H=H,
                    reps=reps,
                    mean_lambda_raw=float(np.mean(raw_level)),
                    mean_lambda_corrected=float(np.mean(cor_level)),
                    mean_abs_err_raw=float(np.mean(raw_err)),
                    median_abs_err_raw=float(np.median(raw_err)),
                    mean_abs_err_corrected=float(np.mean(cor_err)),
                    median_abs_err_corrected=float(np.median(cor_err)),
                )
            )
    return rows
