"""Seeded Monte Carlo harness for the benchmark models.

Five single-index generators (cubic, quadratic, multiplicative noise,
cubic with multiplicative noise, cosine) with standard normal predictors
and noise.  Replicate r of a run draws from counter-based substreams keyed
by (seed, r, role), so replicate r sees the same data whether or not other
replicates run.

``run_mc`` scores each method's leading direction against the true index
direction and reports the replicate medians; ``bias_sweep`` tracks the raw
and corrected slice-covariance-square estimators on a pure-noise model
where the estimand is known exactly.  Both draw replicates one by one,
stack them into chunks and run each chunk through the batched slicing,
estimator, eigen and scoring calls in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, standardize
from .errors import DegenerateDesign, InvalidArgument, SimulationError
from .estimators import METHODS, candidate_matrix, lambda_corrected
from .linalg import sym_eig
from .metrics import r2_single
from .slicing import slice_equal_count, slice_stats

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


def gen_model(spec: ModelSpec, n: int, streams: RngStreams) -> Dataset:
    """Draw one dataset: x rows i.i.d. N(0, I_p), eps i.i.d. N(0, 1)."""
    if n < 2:
        raise InvalidArgument("need n >= 2")
    x = streams.x.standard_normal((n, spec.p))
    eps = streams.eps.standard_normal(n)
    y = _RESPONSES[spec.id](x @ spec.beta, eps)
    return Dataset(x=x, y=y)


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

    @classmethod
    def from_values(cls, method: str, values: np.ndarray) -> "MethodSummary":
        v = np.asarray(values, dtype=float)
        return cls(
            method=method,
            values=v,
            median=float(np.median(v)),
            q1=float(np.quantile(v, 0.25)),
            q3=float(np.quantile(v, 0.75)),
            min=float(v.min()),
            max=float(v.max()),
        )


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


def _stack_draws(reps: range, draw) -> list:
    """Draw each replicate in ``reps`` and stack each returned array."""
    draws = []
    for rep in reps:
        try:
            draws.append(draw(rep))
        except Exception as e:
            raise SimulationError(f"replicate {rep} failed: {e}") from e
    return [np.stack(field) for field in zip(*draws)]


def _run_chunks(reps: int, chunk: int, draw, stacked_pass) -> list:
    """Per-replicate results of replicates 0..reps-1, ``chunk`` at a time.

    ``draw(rep)`` returns one replicate's arrays; ``stacked_pass`` takes
    them stacked along a new leading axis and returns a tuple of
    per-replicate result arrays.  Each result is concatenated over the
    chunks in replicate order.  A failing chunk is rerun one replicate at a
    time, so the error names the first replicate that fails on its own.
    """
    results = []
    for lo in range(0, reps, chunk):
        block = range(lo, min(lo + chunk, reps))
        arrays = _stack_draws(block, draw)
        try:
            results.append(stacked_pass(*arrays))
        except Exception as e:
            for i, rep in enumerate(block):
                try:
                    stacked_pass(*(a[i:i + 1] for a in arrays))
                except Exception as e_rep:
                    raise SimulationError(f"replicate {rep} failed: {e_rep}") from e_rep
            raise SimulationError(
                f"replicates {block[0]}..{block[-1]} failed: {e}"
            ) from e
    return [np.concatenate(column) for column in zip(*results)]


def run_mc(cfg: SimConfig) -> McReport:
    """Score every replicate and summarize each method's R^2.

    Replicate r draws from ``model_streams(cfg.seed, r)``; replicates are
    stacked into chunks and each chunk is sliced, decomposed and scored in
    one pass.  The report is a pure function of the config, whatever the
    chunk size.  A failing replicate aborts the whole run with its index
    attached; nothing is skipped silently.
    """
    true_basis = cfg.model.beta[:, None]

    def draw(rep):
        data = gen_model(cfg.model, cfg.n, model_streams(cfg.seed, rep))
        if not cfg.standardize:
            return data.x, data.y
        sd = standardize(data)
        return sd.z, sd.y, sd.cov_inv_sqrt

    def scores(z, y, back=None):
        stats = slice_stats(z, slice_equal_count(y, cfg.H))
        out = []
        for method in cfg.methods:
            lead = sym_eig(candidate_matrix(method, stats)).vectors[..., 0]
            if back is not None:
                # back to the x scale before scoring
                lead = np.einsum("...ij,...j->...i", back, lead)
            out.append(r2_single(lead, true_basis))
        return out

    chunk = _chunk_size(cfg.n, cfg.model.p, cfg.H)
    values = _run_chunks(cfg.reps, chunk, draw, scores)
    summaries = {
        method: MethodSummary.from_values(method, v)
        for method, v in zip(cfg.methods, values)
    }
    return McReport(config=cfg, summaries=summaries)


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


def _null_levels(n: int, H: int, p: int, reps: int, seed: int) -> list:
    """Per-replicate trace levels and Frobenius errors of the raw and
    corrected estimators on pure noise, where the true target is I_p."""
    eye = np.eye(p)

    def draw(rep):
        streams = model_streams(seed, rep)
        return streams.x.standard_normal((n, p)), streams.eps.standard_normal(n)

    def levels(z, y):
        stats = slice_stats(z, slice_equal_count(y, H))
        lam, cor = stats.cov_square, lambda_corrected(stats)
        return (
            np.trace(lam, axis1=-2, axis2=-1) / p,
            np.trace(cor, axis1=-2, axis2=-1) / p,
            np.linalg.norm(lam - eye, axis=(-2, -1)),
            np.linalg.norm(cor - eye, axis=(-2, -1)),
        )

    return _run_chunks(reps, _chunk_size(n, p, H), draw, levels)


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
    if not n_grid or not c_grid:
        raise DegenerateDesign("empty sweep grid")
    if reps < 1:
        raise InvalidArgument("reps must be >= 1")
    if seed < 0:
        raise InvalidArgument("seed must be non-negative")
    if not 1 <= p <= 3:
        raise InvalidArgument("null-model sweep supports p in 1..3")
    rows = []
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
            raw_level, cor_level, raw_err, cor_err = _null_levels(n, H, p, reps, seed)
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
