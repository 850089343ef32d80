"""Seeded Monte Carlo harness for the benchmark models.

Five single-index generators (cubic, quadratic, multiplicative noise,
cubic with multiplicative noise, cosine), keyed by id in ``MODEL_IDS``,
with predictors x ~ N(0, I_p), index direction e_1 and standard normal
noise.  Replicate r of a run draws from counter-based substreams keyed by
(seed, r, role), so replicate r sees the same data whether or not other
replicates run.

``run_grid`` scores each method's leading direction against e_1 over a
grid of (model, H) cells and returns the scores as one array of shape
(models, H, methods, reps), each axis in the order given; a single run is
a one-cell grid.  ``order_stats`` gives the median, quartiles and range
of each cell in one call.  ``bias_sweep`` tracks the raw and corrected
slice-covariance-square estimators on a pure-noise model where the
estimand is known exactly, and returns their per-replicate levels and
errors as one array of shape (n grid, c grid, 4, reps).  ``check_grid``
and ``check_sweep`` hold the argument checks of the two engines, which
call them first; the CLI calls them before it checks ``--output``.

Both engines run one loop, ``_run_chunks``, which draws the predictors x
and noise eps of replicates one by one into the rows of two chunk buffers,
a chunk holding as many replicates as the largest sub-chunk size
(``slicing._chunk_size``) over the H grid, and hands each chunk to the
engine's stacked pass, which only scores it: the pass returns one array
whose last axis is the chunk's replicates, and the loop joins the chunks
along that axis.  The pass slices the chunk at every H through the engine
call's one ``slicing._SliceGrid``, which sorts each response once, because
the slice order does not depend on H, slices each H in sub-chunks of its
own size, so its slice stacks stay within that bound, and returns plain
arrays: a (3, len(H grid), chunk, p, p) stack of M, L and V and each H's
slice means and weights.  The pass checks the chunk's z for non-finite
values once (``_SliceGrid.check``), and the a(c), b(c) of each H are
formed once per call (``_coefficients``).  The grid draws replicate r once
for all its cells, since x and eps depend only on (seed, r, n, p); its
pass forms u = x beta for the chunk, under ``standardize`` whitens each
replicate's x into a buffer of its own, and forms each model's response
from the shared u, its powers (``_Powers``: one u ** 3 for models 1 and 4)
and eps.  Each model's candidates over all H and methods are written from
those arrays by one ``estimators._write_candidates`` call, which names the
methods: SIR's once per H, and SAVE's and CSAVE's in one write over the
stack, with one I - 2 M; they go through one eigen call and one scoring
call against e_1, which is orthonormalized once per engine call.  The
sweep draws replicate r once per n for every c of the row, and eps is its
response; its pass takes L and a(c) L - b(c) V over the whole stack, and
the levels and errors of all replicates are formed once per call.
Each engine call reuses one set of work buffers (``slicing._Buffers``)
for the draws, and its slice grid one for the sort and the slice moments
of every replicate.
"""

from __future__ import annotations

import math

import numpy as np

from .data import standardize as _standardize
from .errors import InvalidArgument, SimulationError, SlicesdrError
from .estimators import (METHODS, _debiased, _write_candidates,
                         correction_coefficients)
from .linalg import _leading_vectors
from .metrics import _orthonormalize, _r2_rows
from .slicing import _Buffers, _SliceGrid, check_integer

#: Fixed default master seed for every CLI entry point (never time-derived).
DEFAULT_SEED = 1729

_ROLE_X = 0
_ROLE_EPS = 1

#: Response y = f(u, eps) of each benchmark model, keyed by model id, where
#: ``u[k]`` is u ** k (``_Powers``).
_RESPONSES = {
    1: lambda u, eps: u[3] + eps,
    2: lambda u, eps: u[1] ** 2 + eps,
    3: lambda u, eps: u[1] * eps,
    4: lambda u, eps: u[3] + u[1] * eps,
    5: lambda u, eps: np.cos(u[1]) + eps,
}

MODEL_IDS = tuple(_RESPONSES)

#: Predictor dimension p of the benchmark models in the paper's grid.
MODEL_P = 10


class _Powers(dict):
    """The powers u ** k of an index u, keyed by k, each formed on first use
    and then kept: models 1 and 4 of one chunk share one u ** 3, and a grid
    without them forms none.  u ** 3 is libm's pow, rounded once; u * u * u
    would round twice.  Model 2 alone squares u, so it forms u[1] ** 2 and
    keeps nothing."""

    def __init__(self, u: np.ndarray):
        super().__init__({1: u})

    def __missing__(self, k: int) -> np.ndarray:
        power = self[k] = self[1] ** k
        return power


def model_streams(seed: int, replicate: int) -> tuple:
    """The generator pair (x_gen, eps_gen) of one replicate, for its
    predictor and noise draws: a pure function of (seed, replicate).

    Counter-based Philox generators keyed by (seed, replicate, role); the
    draws of one replicate never depend on which other replicates run.
    """
    check_integer("seed", seed)
    check_integer("replicate", replicate)
    if seed < 0 or replicate < 0:
        raise InvalidArgument("seed and replicate index must be non-negative")
    return (
        np.random.Generator(
            np.random.Philox(np.random.SeedSequence([seed, replicate, _ROLE_X]))
        ),
        np.random.Generator(
            np.random.Philox(np.random.SeedSequence([seed, replicate, _ROLE_EPS]))
        ),
    )


def _draw(streams, out):
    """Predictors x (n, p) and noise eps (n,) of one replicate, i.i.d. N(0, 1),
    drawn into ``out`` = (x, eps) from ``streams`` = (x_gen, eps_gen)."""
    x_gen, eps_gen = streams
    x, eps = out
    return x_gen.standard_normal(out=x), eps_gen.standard_normal(out=eps)


def _quartile(s: np.ndarray, q: float) -> np.ndarray:
    """``np.quantile(s, q, axis=-1)`` of rows s already sorted along the
    last axis: numpy's linear interpolation between the two order
    statistics around the index (n - 1) q, in its own arithmetic."""
    n = s.shape[-1]
    at = (n - 1) * q
    lo = math.floor(at)
    # numpy weights the next value by at - lo, and a lone value by 1
    t = at - lo if n > 1 else 1.0
    a, b = s[..., lo], s[..., min(lo + 1, n - 1)]
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


def order_stats(values: np.ndarray) -> tuple:
    """(median, q1, q3, min, max) of each row of ``values`` (..., n), from
    one sort: five arrays of the leading shape, 0-d for a single row.

    Each is bitwise what ``np.median``, ``np.quantile(..., [0.25, 0.75])``,
    ``min`` and ``max`` give, without those calls, which import numpy.ma:
    the median is the mean of the one or two middle values, as
    ``np.median`` takes it, and a row holding a NaN gives that NaN in all
    five.  A zero result of a row that holds both -0.0 and 0.0 may carry
    either sign, as numpy's own does.
    """
    if np.ndim(values) == 0 or np.shape(values)[-1] == 0:
        raise InvalidArgument(
            f"need rows of at least one value, got shape {np.shape(values)}"
        )
    s = np.sort(values, axis=-1)
    n = s.shape[-1]
    median = s[..., (n - 1) // 2:n // 2 + 1].mean(axis=-1)
    stats = (median, _quartile(s, 0.25), _quartile(s, 0.75), s[..., 0])
    top = s[..., -1]
    nan = np.isnan(top)  # a NaN sorts last
    return (*(np.where(nan, top, stat) for stat in stats), top)


def _coefficients(n: int, h_grid: list) -> tuple:
    """The a(c) and b(c) of each H at c = n // H, as two (len(h_grid), 1,
    1, 1) arrays that broadcast over the (len(h_grid), chunk, p, p) stacks
    of ``_SliceGrid.moments``."""
    coefficients = np.array([correction_coefficients(n // H) for H in h_grid])
    return tuple(coefficients.T[..., None, None, None])


def _run_chunks(reps: int, n: int, p: int, seed: int, chunk: int,
                stacked_pass, buffers) -> np.ndarray:
    """The results of replicates 0..reps-1, in chunks of ``chunk``: one
    array whose last axis is the replicates.

    Replicate r's predictors and noise are drawn from
    ``model_streams(seed, r)`` into row i of the chunk buffers x
    (chunk, n, p) and eps (chunk, n).  ``stacked_pass(x, eps)`` scores a
    chunk and returns a fresh array whose last axis is the chunk's
    replicates, and the chunks are joined along it in replicate order.  It
    must be a pure function of (x, eps), since a failing chunk is rerun one
    replicate at a time, so the error names the first replicate that fails
    on its own.  Only a slicesdr error is wrapped in ``SimulationError``; any other
    exception is a bug and propagates unchanged.
    """
    results = []
    for lo in range(0, reps, chunk):
        block = range(lo, min(lo + chunk, reps))
        x = buffers.get("x", (len(block), n, p))
        eps = buffers.get("eps", (len(block), n))
        for i, rep in enumerate(block):
            _draw(model_streams(seed, rep), (x[i], eps[i]))
        try:
            results.append(stacked_pass(x, eps))
        except SlicesdrError as e:
            for i, rep in enumerate(block):
                try:
                    stacked_pass(x[i:i + 1], eps[i:i + 1])
                except SlicesdrError as e_rep:
                    raise SimulationError(f"replicate {rep} failed: {e_rep}") from e_rep
            raise SimulationError(
                f"replicates {block[0]}..{block[-1]} failed: {e}"
            ) from e
    return np.concatenate(results, axis=-1)


def check_grid(models, h_grid, n: int, reps: int, seed: int, methods,
               standardize: bool, p: int) -> None:
    """Raise the UsageError of the first invalid argument of ``run_grid``.

    Model ids, p, n and the grids come first, then each H in turn, then the
    arguments that do not depend on H, so an invalid H late in the grid
    fails before any replicate is drawn.  Every size and id must be an int
    or a numpy integer.
    """
    for model in models:
        check_integer("model id", model)
        if model not in MODEL_IDS:
            raise InvalidArgument(f"model id must be in {MODEL_IDS}, got {model}")
    check_integer("p", p)
    if p < 1:
        raise InvalidArgument("p must be >= 1")
    check_integer("n", n)
    if not models or not h_grid:
        raise InvalidArgument("empty model or H grid")
    for H in h_grid:
        check_integer("H", H)
        if H < 2:
            raise InvalidArgument(f"H must be >= 2, got {H}")
        if n < 2 * H:
            raise InvalidArgument(f"n={n} too small for H={H}")
    check_integer("reps", reps)
    if reps < 1:
        raise InvalidArgument("reps must be >= 1")
    check_integer("seed", seed)
    if seed < 0:
        raise InvalidArgument("seed must be non-negative")
    if not isinstance(methods, (list, tuple)):
        # a set has no fixed order, and the order is the output's
        raise InvalidArgument(
            f"methods must be a list or tuple, got {type(methods).__name__}"
        )
    bad = [m for m in methods if m not in METHODS]
    if bad:
        raise InvalidArgument(f"unknown methods {bad}; valid: {METHODS}")
    if not methods:
        raise InvalidArgument("need at least one method")
    repeated = sorted({m for m in methods if methods.count(m) > 1})
    if repeated:
        raise InvalidArgument(f"repeated methods {repeated}; name each once")
    if standardize and n <= p:
        raise InvalidArgument(f"need n > p to standardize, got n={n}, p={p}")


def run_grid(
    models,
    h_grid,
    n: int,
    reps: int,
    seed: int = DEFAULT_SEED,
    methods: tuple = METHODS,
    standardize: bool = False,
    p: int = MODEL_P,
) -> np.ndarray:
    """The R^2 scores of the grid, an array of shape (len(models),
    len(h_grid), len(methods), reps): element [i, j, k, r] scores method
    ``methods[k]`` on replicate r of model ``models[i]`` at H =
    ``h_grid[j]``, the axes in the order given (repeats included).

    ``models`` are ids from ``MODEL_IDS``, each drawn with x ~ N(0, I_p)
    and the index direction e_1, so the response depends on x[0] alone.
    Replicate r of every cell is drawn once from ``model_streams(seed,
    r)``, so each cell's scores are the same as a run of that cell alone.
    What the cells of a chunk share is formed once: the index u, u ** 3
    when model 1 or 4 is in the grid, and the z check for all models.  Each
    model writes its candidates at every H in one call: SIR's once per H
    from its slice means, and SAVE's and CSAVE's in one write over the
    stacked pooled moments, with one I - 2 M and the a(c), b(c) of each H,
    which are formed once per call, as is the orthonormal basis of e_1
    that every score is taken against.  A failing replicate aborts the whole run with
    its index attached; nothing is skipped silently.
    """
    models, h_grid = list(models), list(h_grid)
    check_grid(models, h_grid, n, reps, seed, methods, standardize, p)
    beta = np.zeros(p)
    beta[0] = 1.0
    basis = _orthonormalize(beta[:, None])  # once for every score of the call
    coefficients = _coefficients(n, h_grid)
    slicings = _SliceGrid(n, p, h_grid)
    buffers = _Buffers()

    def scores(x, eps):
        chunk = x.shape[0]
        out = np.empty((len(models), len(h_grid), len(methods), chunk))
        u = np.matmul(x, beta, out=buffers.get("u", (chunk, n)))
        z, back = x, None
        if standardize:
            z = buffers.get("z", x.shape)
            back = buffers.get("back", (chunk, p, p))
            for i in range(chunk):
                z[i], back[i] = _standardize(x[i])
        cands = np.empty((len(methods), len(h_grid), chunk, p, p))
        slicings.check(z)  # once for all models
        powers = _Powers(u)
        for m, model in enumerate(models):
            y = _RESPONSES[model](powers, eps)
            _write_candidates(methods, *slicings.moments(z, y), coefficients, cands)
            # One eigen call per model, for the one column R^2 reads.
            lead = _leading_vectors(cands.reshape(-1, p, p))
            if back is not None:
                # back to the x scale before scoring
                lead = np.einsum(
                    "...ij,...j->...i",
                    np.broadcast_to(back, cands.shape).reshape(-1, p, p),
                    lead,
                )
            # scored in (method, H) order, reported in (H, method) order
            out[m] = _r2_rows(lead, basis).reshape(cands.shape[:3]).swapaxes(0, 1)
        return out

    return _run_chunks(reps, n, p, seed, slicings.chunk, scores, buffers)


def _null_levels(n: int, h_grid: list, p: int, reps: int, seed: int) -> np.ndarray:
    """Per-replicate trace levels and Frobenius errors of the raw and
    corrected estimators on pure noise, where the true target is I_p: an
    array of shape (len(h_grid), 4, reps).

    The pass forms L and a(c) L - b(c) V of every H and replicate of a
    chunk at once, from the stack that ``_SliceGrid.moments`` returns, into
    a (len(h_grid), 2, p, p, chunk) view, and the levels and errors of the
    whole (len(h_grid), 2, reps, p, p) stack are formed once per call.  That
    stack is made C-contiguous first, so each matrix's trace and Frobenius
    sum are those of the matrix alone, bit for bit.
    """
    coefficients = _coefficients(n, h_grid)
    slicings = _SliceGrid(n, p, h_grid)

    def matrices(z, y):
        slicings.check(z)
        _, cov_square, fourth = slicings.moments(z, y)[0]
        out = np.stack((cov_square, _debiased(cov_square, fourth, *coefficients)), 1)
        return out.transpose(0, 1, 3, 4, 2)  # the replicates last

    mats = _run_chunks(reps, n, p, seed, slicings.chunk, matrices, _Buffers())
    mats = np.ascontiguousarray(mats.transpose(0, 1, 4, 2, 3))
    # the Frobenius norm as np.linalg.norm forms it, bit for bit
    d = np.subtract(mats, np.eye(p))
    errors = np.sqrt(np.add.reduce(np.multiply(d, d, out=d), axis=(-2, -1)))
    levels = np.trace(mats, axis1=-2, axis2=-1) / p
    return np.concatenate([levels, errors], axis=1)


def check_sweep(n_grid, c_grid, reps: int, seed: int, p: int) -> None:
    """Raise the UsageError of the first invalid argument of ``bias_sweep``.

    Every (n, c) is checked, so a degenerate pair late in the grid fails
    before any replicate is drawn.  Every n, c, reps, seed and p must be an
    int or a numpy integer.
    """
    if not n_grid or not c_grid:
        raise InvalidArgument("empty sweep grid")
    check_integer("reps", reps)
    if reps < 1:
        raise InvalidArgument("reps must be >= 1")
    check_integer("seed", seed)
    if seed < 0:
        raise InvalidArgument("seed must be non-negative")
    check_integer("p", p)
    if p < 1:
        raise InvalidArgument("p must be >= 1")
    for n in n_grid:
        check_integer("n", n)
        for c in c_grid:
            check_integer("c", c)
            if c < 2:
                raise InvalidArgument(f"c={c} leaves no within-slice pairs")
            H = n // c
            if H < 2:
                raise InvalidArgument(f"n={n}, c={c} gives H={H} < 2 slices")
            if n // H != c:
                raise InvalidArgument(
                    f"n={n}, c={c} gives H={H} slices of {n // H} points, not {c}"
                )


def bias_sweep(
    n_grid,
    c_grid,
    reps: int,
    seed: int = DEFAULT_SEED,
    p: int = 1,
) -> np.ndarray:
    """Null-model error sweep of the raw vs corrected estimators.

    For each (n, c) the pure-noise model (z independent of y) is replicated
    ``reps`` times; the estimand is exactly I_p.  Returns an array of shape
    (len(n_grid), len(c_grid), 4, reps): element [i, j, k, r] is, on
    replicate r at n = ``n_grid[i]`` and c = ``c_grid[j]``, statistic k of
    the raw level (trace / p), the corrected level, the raw Frobenius error
    and the corrected Frobenius error, the grids in the order given
    (repeats included).  Degenerate designs are rejected: fewer than two
    slices, or H = n // c slices that hold n // H != c points (possible only
    when n < c^2), to which the c-point correction would not apply.
    """
    n_grid, c_grid = list(n_grid), list(c_grid)
    check_sweep(n_grid, c_grid, reps, seed, p)
    return np.stack(
        [_null_levels(n, [n // c for c in c_grid], p, reps, seed) for n in n_grid]
    )
