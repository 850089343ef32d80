"""Seeded Monte Carlo harness for the benchmark models.

Five single-index generators (cubic, quadratic, multiplicative noise,
cubic with multiplicative noise, cosine) with standard normal predictors
and noise.  Replicate r of a run draws from counter-based substreams keyed
by (seed, r, role), so replicate r sees the same data whether or not other
replicates run.

``run_mc`` scores each method's leading direction against the true index
direction and reports the replicate medians; ``bias_sweep`` tracks the raw
and corrected slice-covariance-square estimators on a pure-noise model
where the estimand is known exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, standardize
from .errors import DegenerateDesign, SimulationError
from .estimators import METHODS, candidate_matrix, lambda_corrected, lambda_n
from .linalg import sym_eig
from .metrics import r2_single
from .slicing import slice_equal_count, slice_stats

#: Methods a run scores when none are named: all of them, in reporting order.
DEFAULT_METHODS = METHODS

#: Fixed default master seed for every CLI entry point (never time-derived).
DEFAULT_SEED = 1729

_ROLE_X = 0
_ROLE_EPS = 1

MODEL_IDS = (1, 2, 3, 4, 5)


def _model_response(model_id: int, u: np.ndarray, eps: np.ndarray) -> np.ndarray:
    if model_id == 1:
        return u ** 3 + eps
    if model_id == 2:
        return u ** 2 + eps
    if model_id == 3:
        return u * eps
    if model_id == 4:
        return u ** 3 + u * eps
    if model_id == 5:
        return np.cos(u) + eps
    raise ValueError(f"model id must be in {MODEL_IDS}, got {model_id}")


@dataclass(frozen=True)
class ModelSpec:
    """One benchmark generator: y = f(beta' x, eps) with x ~ N(0, I_p)."""

    id: int
    p: int = 10
    beta: np.ndarray | None = None

    def __post_init__(self):
        if self.id not in MODEL_IDS:
            raise ValueError(f"model id must be in {MODEL_IDS}, got {self.id}")
        if self.p < 1:
            raise ValueError("p must be >= 1")
        if self.beta is None:
            b = np.zeros(self.p)
            b[0] = 1.0
        else:
            b = np.asarray(self.beta, dtype=float).reshape(-1)
            if b.size != self.p:
                raise ValueError(f"beta has length {b.size}, expected p={self.p}")
            if abs(np.linalg.norm(b) - 1.0) > 1e-10:
                raise ValueError("beta must have unit length")
        object.__setattr__(self, "beta", b)


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
        raise ValueError("seed and replicate index must be non-negative")
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
        raise ValueError("need n >= 2")
    x = streams.x.standard_normal((n, spec.p))
    eps = streams.eps.standard_normal(n)
    y = _model_response(spec.id, x @ spec.beta, eps)
    return Dataset(x=x, y=y)


@dataclass(frozen=True)
class SimConfig:
    """One Monte Carlo run: model, sizes, methods, seed, replication."""

    model: ModelSpec
    n: int
    H: int
    reps: int
    seed: int = DEFAULT_SEED
    methods: tuple = DEFAULT_METHODS
    standardize: bool = False

    def __post_init__(self):
        if self.n < 2 * self.H:
            raise ValueError(f"n={self.n} too small for H={self.H}")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        bad = [m for m in self.methods if m not in METHODS]
        if bad:
            raise ValueError(f"unknown methods {bad}; valid: {METHODS}")
        if not self.methods:
            raise ValueError("need at least one method")


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
    summaries: dict = field(default_factory=dict)  # method -> MethodSummary

    def median(self, method: str) -> float:
        return self.summaries[method].median


def _replicate_scores(cfg: SimConfig, rep: int) -> dict:
    """R^2 of each requested method's leading direction for one replicate."""
    data = gen_model(cfg.model, cfg.n, model_streams(cfg.seed, rep))
    if cfg.standardize:
        sd = standardize(data)
        z, back = sd.z, sd.cov_inv_sqrt
    else:
        z, back = data.x, None
    stats = slice_stats(z, slice_equal_count(data.y, cfg.H))
    true_basis = cfg.model.beta[:, None]
    scores = {}
    for method in cfg.methods:
        lead = sym_eig(candidate_matrix(method, stats)).vectors[:, 0]
        if back is not None:
            lead = back @ lead  # back to the x scale before scoring
        scores[method] = r2_single(lead, true_basis)
    return scores


def run_mc(cfg: SimConfig) -> McReport:
    """Run all replicates in index order and summarize each method's R^2.

    The report is a pure function of the config.  A failing replicate
    aborts the whole run with its index attached; nothing is skipped
    silently.
    """
    results = []
    for rep in range(cfg.reps):
        try:
            results.append(_replicate_scores(cfg, rep))
        except Exception as e:
            raise SimulationError(f"replicate {rep} failed: {e}") from e
    summaries = {}
    for method in cfg.methods:
        values = np.array([r[method] for r in results])
        summaries[method] = MethodSummary.from_values(method, values)
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


def _null_replicate(n: int, c: int, p: int, seed: int, rep: int):
    """Raw and corrected estimates on pure noise (true target I_p)."""
    streams = model_streams(seed, rep)
    z = streams.x.standard_normal((n, p))
    y = streams.eps.standard_normal(n)
    stats = slice_stats(z, slice_equal_count(y, n // c))
    return lambda_n(stats), lambda_corrected(stats)


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
        raise ValueError("reps must be >= 1")
    if not 1 <= p <= 3:
        raise ValueError("null-model sweep supports p in 1..3")
    rows = []
    eye = np.eye(p)
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
            raw_level, cor_level, raw_err, cor_err = [], [], [], []
            for rep in range(reps):
                lam, cor = _null_replicate(n, c, p, seed, rep)
                raw_level.append(float(np.trace(lam)) / p)
                cor_level.append(float(np.trace(cor)) / p)
                raw_err.append(float(np.linalg.norm(lam - eye)))
                cor_err.append(float(np.linalg.norm(cor - eye)))
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
