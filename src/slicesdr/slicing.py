"""Partition observations into slices by the response, and slice moments.

A slicing is a response y and its bounds, the offsets where each slice
starts in the stable sort of y: slice h holds the observations at sorted
positions bounds[h]..bounds[h + 1] - 1, tied values in row order.
Continuous responses get equal-count slices (``equal_count_bounds``: the
last slice absorbs any remainder); discrete responses get one slice per
distinct value (``discrete_bounds``).  The sorted order is
``stable_order``: a float sort of keys that carry each value's column in
their low bits, checked, with the stable argsort as its fallback.  It is
always derived from y, never taken from a caller, so it needs no check.

``slice_stats(z, y, bounds)`` sorts y, gathers the rows of z into slice
order once and returns every moment the estimators use: per-slice means
and unbiased covariances S_h (dividing by c_h - 1), the pooled moments
M = sum_h p_h S_h and L = sum_h p_h S_h^2, and the pooled within-slice
fourth-moment matrix V.  It checks its arguments and hands the flat index
of the sorted order to one core, ``_slice_moments``, with the slice plan
of the bounds (``_SlicePlan``: counts, weights and runs of equal-size
slices).  The core writes M, L, V and the slice means into arrays its
caller gives and returns the covariances; ``slice_stats`` gives it fresh
arrays and is the only code that builds a ``SliceStats``.
The Monte Carlo engines slice a chunk of replicates at every H of a grid
through ``_SliceGrid``: one plan and one sub-chunk size (``_chunk_size``)
per H per engine call, one sort of each response for all H, and plain
arrays back, a (3, len(H grid), chunk, p, p) stack of M, L and V and each
H's slice means and weights.

Both take a leading batch axis: a stack of R responses of shape (R, n)
gives R orders over shared slice bounds, and a stack z of shape (R, n, p)
gives stats whose moments carry the same leading axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, InvalidArgument, NumericalError


class _Buffers:
    """Named, grow-only work arrays that one engine call reuses for every
    replicate, so the heap pages behind them are faulted in once.

    ``get`` returns an uninitialized array of the asked shape and dtype, a
    view of the name's buffer, which is reallocated only when it is too
    small.  A function that takes buffers overwrites the arrays it gets from
    them, so what it returns is valid until its next call with the same
    buffers.  Called without buffers, it makes a new ``_Buffers``, whose
    arrays are fresh.  The name "floats" holds scratch that no result
    refers to, so every function here shares it; "index" holds the flat
    index of the last ``stable_order``, which ``_SliceGrid`` reads.  Each
    ``_SliceGrid`` owns one for its sorts and slice moments, and an engine
    makes one per call for its draws; a module-level instance would break
    the purity and thread safety of the engines.
    """

    def __init__(self):
        self._arrays = {}

    def get(self, name: str, shape: tuple, dtype=float) -> np.ndarray:
        size = math.prod(shape)
        buf = self._arrays.get(name)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = self._arrays[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


def _flat_index(order: np.ndarray, out=None) -> np.ndarray:
    """Row r's index i of a (..., n) order as r * n + i, its flat index."""
    offsets = np.arange(math.prod(order.shape[:-1])) * order.shape[-1]
    return np.add(order, offsets.reshape(*order.shape[:-1], 1), out=out, dtype=np.intp)


def _key_order(y: np.ndarray, key: np.ndarray) -> np.ndarray:
    """A sorting order of each row of a float64 y, ties in any order, from
    a float sort of one key per entry, formed in ``key`` (uint64, y's
    shape), whose intp view is returned.

    The key is y's bit pattern with its low ceil(log2 n) bits overwritten
    by the column index, which the sorted keys give back.  Clearing low
    mantissa bits rounds toward zero, which keeps the order of either sign,
    so the float64 view of the keys sorts values that differ above those
    bits as the values do; values that agree above them, and ±inf and NaN,
    whose keys are NaN or lose their index to the sort, come out in an
    order that ``stable_order`` checks.  numpy sorts float64 faster than
    uint64.
    """
    n = y.shape[-1]
    low = np.uint64((1 << (n - 1).bit_length()) - 1)
    np.bitwise_and(y.view(np.uint64), ~low, out=key)
    key |= np.arange(n, dtype=np.uint64)
    key.view(np.float64).sort(axis=-1)
    key &= low
    return key.view(np.intp)


#: Longest row that ``stable_order`` sorts by packed keys.  Its keys keep
#: at least 36 of the 52 mantissa bits; each doubling of n drops one more,
#: and the chance that two continuous values share a key grows about as
#: n**3, so longer rows would fall back to the stable sort too often
#: (seeded normal, uniform, exponential and lognormal rows: at most 0.6% at
#: n = 2**16, 8-31% at 2**18, all at 10**6) and take the default argsort.
_KEY_SORT_MAX_N = 1 << 16


def stable_order(y: np.ndarray, buffers: _Buffers | None = None) -> np.ndarray:
    """``np.argsort(y, axis=-1, kind="stable")`` of y as float64, bit for
    bit, at the cost of one fast sort when no row of y has ties.

    Rows of up to ``_KEY_SORT_MAX_N`` values take a float sort of keys
    (``_key_order``), longer ones the default argsort; both are several
    times faster than the stable argsort but may order equal or nearly
    equal values either way.  When every sorted row is strictly increasing
    the permutation is unique, so the sorts agree; a row with a tie, a
    -0.0 / 0.0 pair, a NaN, an infinity the keys lost or two values the
    keys could not tell apart out of order fails that test and the whole
    batch is sorted again with the stable sort.  With ``buffers`` the
    key-sorted order lives in them (see ``_Buffers``), and either way their
    "index" array holds the flat index (``_flat_index``) of the order
    returned, which ``_SliceGrid`` gathers with.  A single row's order is
    its own flat index, so its keys are sorted in "index" itself and the
    key-sorted order returned is that array, with no flat-index pass.
    """
    y = np.asarray(y, dtype=float)
    buffers = buffers or _Buffers()
    index = buffers.get("index", y.shape, np.intp)
    keyed = y.shape[-1] <= _KEY_SORT_MAX_N
    if keyed and y.size == y.shape[-1]:
        # One row's order is its own flat index, so its keys sort in "index".
        order = _key_order(y, index.view(np.uint64))
    else:
        order = (_key_order(y, buffers.get("key", y.shape, np.uint64)) if keyed
                 else np.argsort(y, axis=-1))
        _flat_index(order, out=index)
    # Every index is in range (a NaN key that the sort rewrites gives back
    # column 0), so "clip" only skips the bounds check, which would copy the
    # result through a temporary.
    ys = np.take(y, index, out=buffers.get("floats", y.shape), mode="clip")
    rising = buffers.get("rising", ys[..., 1:].shape, bool)
    if np.greater(ys[..., 1:], ys[..., :-1], out=rising).all():
        return order
    order = np.argsort(y, axis=-1, kind="stable")
    _flat_index(order, out=index)
    return order


def _finite_response(y) -> np.ndarray:
    """y as float64; a non-finite value raises DataError naming
    the position of the first one."""
    y = np.asarray(y, dtype=float)
    finite = np.isfinite(y)
    if not finite.all():
        at = tuple(int(i) for i in np.argwhere(~finite)[0])
        raise DataError(
            f"response value {float(y[at])} at position {at[0] if y.ndim == 1 else at}"
            " is not finite"
        )
    return y


def check_integer(name: str, value) -> None:
    """Raise InvalidArgument naming ``name`` unless ``value`` is an int or a
    numpy integer; a bool is not taken for one."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidArgument(f"{name} must be an integer, got {value!r}")


def equal_count_bounds(n: int, H: int) -> np.ndarray:
    """Offsets of H equal-count slices of n sorted points: slices 1..H-1
    hold c = floor(n/H) points and the last slice the remainder."""
    check_integer("n", n)
    check_integer("H", H)
    if H < 1:
        raise InvalidArgument(f"H must be >= 1, got {H}")
    if n < 2 * H:
        raise InvalidArgument(f"n={n} too small for H={H} slices of >= 2 points")
    return np.append(np.arange(H) * (n // H), n)


def discrete_bounds(y) -> np.ndarray:
    """Bounds of one slice per distinct value of a 1-d response, in
    ascending order of value; -0.0 and 0.0 are one value.

    The slices are the runs of equal values in the sorted y.
    """
    if np.ndim(y) != 1:
        raise InvalidArgument(f"y must be 1-d, got shape {np.shape(y)}")
    ys = np.sort(_finite_response(y))
    edges = np.ones(ys.size + 1, dtype=bool)
    np.not_equal(ys[1:], ys[:-1], out=edges[1:-1])
    bounds = np.flatnonzero(edges)
    counts = np.diff(bounds)
    if counts.size < 2:
        raise DataError(
            f"discrete slicing needs >= 2 distinct values, got {counts.size}"
        )
    thin = ys[bounds[:-1][counts < 2]]
    if thin.size:
        raise DataError(f"response value {float(thin[0])!r} appears only once")
    return bounds


@dataclass(frozen=True)
class SliceStats:
    """Per-slice counts, means, covariances S_h and weights p_h = c_h / n,
    plus the pooled moments M = sum_h p_h S_h, L = sum_h p_h S_h^2 and the
    within-slice fourth-moment matrix V.

    Counts and weights are shared by the whole batch; the moments carry the
    leading batch axes of the z they came from.  Every matrix is exactly
    symmetric.
    """

    counts: np.ndarray      # (H,)
    means: np.ndarray       # (..., H, p)
    covs: np.ndarray        # (..., H, p, p)
    weights: np.ndarray     # (H,), sums to 1
    fourth: np.ndarray      # (..., p, p), V
    mean_cov: np.ndarray    # (..., p, p), M
    cov_square: np.ndarray  # (..., p, p), L

    @property
    def H(self) -> int:
        return int(self.counts.size)

    @property
    def p(self) -> int:
        return int(self.means.shape[-1])

    @property
    def n(self) -> int:
        return int(self.counts.sum())


def _runs(counts: np.ndarray) -> tuple:
    """(first, stop) slice indices of each run of adjacent equal-size slices
    of ``counts``, the units that ``_slice_moments`` batches.

    Equal-count slicing gives at most two runs: H - 1 slices of c points
    and the last slice with the remainder.
    """
    cuts = [0, *((counts[1:] != counts[:-1]).nonzero()[0] + 1).tolist(), counts.size]
    return tuple(zip(cuts[:-1], cuts[1:]))


class _SlicePlan:
    """What the slice moments need of one set of slice bounds, derived once:
    the counts c_h, the weights p_h = c_h / n, and for each run of adjacent
    equal-size slices (``_runs``) the tuple (lo, hi, c, first, stop, starts,
    weight): its slices lo..hi-1 of c points each, which sit at
    ``order[first:stop]``, the starts of those slices relative to first,
    and their weight c / n.

    ``_SliceGrid`` builds one plan per H for a whole engine call;
    ``slice_stats`` builds one per call.  A grouping of equal-size slices
    that are not adjacent would go here too.
    """

    __slots__ = ("counts", "weights", "runs")

    def __init__(self, bounds: np.ndarray):
        n = int(bounds[-1])
        self.counts = bounds[1:] - bounds[:-1]
        self.weights = self.counts / n
        runs = []
        for lo, hi in _runs(self.counts):
            c, first = int(self.counts[lo]), int(bounds[lo])
            runs.append((lo, hi, c, first, int(bounds[hi]), bounds[lo:hi] - first, c / n))
        self.runs = tuple(runs)


def _gram(a: np.ndarray, out=None) -> np.ndarray:
    """a^T a over the last two axes, for a of shape (..., k, p); exactly
    symmetric, as numpy forms it as a rank-k update (syrk) and mirrors it.

    At p = 1 the product is one dot product of length k, which a threaded
    BLAS splits across threads, so its summation order (and its last bits)
    would depend on the thread count; einsum sums it in one fixed order.
    At p > 1 the BLAS product is many times faster than einsum, and bias
    sweeps at p = 2 and 3 give the same bytes at 1 and 2 threads with it.
    """
    if a.shape[-1] == 1:
        return np.einsum("...ki,...kj->...ij", a, a, out=out)
    return np.matmul(a.swapaxes(-1, -2), a, out=out)


#: Largest slice size at p = 1 whose means ``slice_stats`` sums by
#: position rather than with ``np.add.reduceat``, and whose covariances it
#: sums in lanes rather than with einsum.  It may not pass 7: at 8 the lane
#: sums stop agreeing with einsum bit for bit (see ``_lane_sum``), at 9 the
#: position sums with reduceat (see ``_position_sum``).  At p > 1 every
#: slice takes its means from reduceat.
_POSITION_SUM_MAX_C = 4


def _position_sum(points: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Sum over the c points of each slice, for ``points`` of shape
    (c, ..., k[, p]) whose j-th entry holds point j of the k slices, in
    ``np.add.reduceat``'s own order: the first point plus the sum of the
    rest, added left to right, b0 + ((b1 + b2) + b3) at c = 4.

    reduceat adds the rest in that order while it has fewer than 8 terms,
    below the block size of numpy's pairwise sum, so up to c = 8 the two
    agree bit for bit; each add is one strided pass over the k slices,
    which skips reduceat's fixed cost per output element.
    """
    rest = points[1]
    if len(points) > 2:
        rest = np.add(rest, points[2], out=out)
        for j in range(3, len(points)):
            rest += points[j]
    return np.add(points[0], rest, out=out)


def _lane_sum(squares: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Sum over the last axis of (..., c) squares in the order of einsum's
    sum of products at p = 1: two lanes, the even and the odd positions,
    each added left to right, then the even lane plus the odd one,
    (s0 + s2) + (s1 + s3) at c = 4.

    Up to c = 7 this is einsum's sum bit for bit; from c = 8 einsum adds
    in a different order.  Squares are never -0.0, so einsum's zero start
    changes nothing.
    """
    c = squares.shape[-1]
    odd = squares[..., 1]
    if c > 3:
        odd = np.add(odd, squares[..., 3])
        for j in range(5, c, 2):
            odd += squares[..., j]
    if c == 2:
        return np.add(squares[..., 0], odd, out=out)
    np.add(squares[..., 0], squares[..., 2], out=out)
    for j in range(4, c, 2):
        out += squares[..., j]
    return np.add(out, odd, out=out)


def _flat_run(run, means, sums, squares) -> None:
    """One run of k slices of c <= ``_POSITION_SUM_MAX_C`` points at p = 1,
    on views with the unit axis dropped: ``run`` (..., k c) becomes the
    deviations from the slice means, written to ``means`` (..., k), and
    ``sums`` (..., k) gets the sum of squared deviations of each slice, the
    unscaled covariance, in einsum's own lane order; ``squares``
    (..., k c) gets the squared deviations, from which ``_slice_moments``
    forms V.
    """
    c = run.shape[-1] // means.shape[-1]
    block = run.reshape(means.shape + (c,))
    points = block.transpose(-1, *range(block.ndim - 1))  # np.moveaxis(block, -1, 0)
    _position_sum(points, out=means)
    means /= c
    for point in points:  # one strided pass each beats a broadcast
        point -= means  # deviations, in place
    squares = np.multiply(block, block, out=squares.reshape(block.shape))
    _lane_sum(squares, out=sums)


def _check_finite(z: np.ndarray) -> None:
    """Raise NumericalError unless every entry of z is finite."""
    # NaN or infinity would show in the minimum or the maximum.
    if not (np.isfinite(z.min(initial=0.0)) and np.isfinite(z.max(initial=0.0))):
        raise NumericalError("z has non-finite entries")


def slice_stats(z, y, bounds) -> SliceStats:
    """Slice moments of the rows of z, sliced by the response y at
    ``bounds``, from one gather into slice order.

    ``y`` has shape (n,) or (..., n) and must be finite and, row by row,
    not constant; each row is sorted on its own along the last axis with
    ``stable_order``, so tied values keep their row order and can fall on
    either side of a slice boundary by their row position.  ``bounds`` is
    a 1-d integer array from 0 to n that does not decrease, with at least
    2 members per slice, shared by every row (``equal_count_bounds``,
    ``discrete_bounds``).  ``z`` has shape (n, p) or (..., n, p) and must
    be finite; a 1-d y is shared by every row of the batch.  Every array
    returned is fresh.
    """
    y = _finite_response(np.atleast_1d(y))
    n, bounds = y.shape[-1], np.asarray(bounds)
    if bounds.ndim != 1 or not np.issubdtype(bounds.dtype, np.integer):
        raise InvalidArgument("bounds must be a 1-d integer array")
    if bounds.size < 2 or bounds[0] != 0 or bounds[-1] != n:
        raise InvalidArgument("bounds must run from 0 to n, the length of y")
    # compared, not differenced: unsigned differences wrap around
    if (bounds[1:] < bounds[:-1]).any():
        raise InvalidArgument("bounds must not decrease")
    if np.diff(bounds).min() < 2:
        raise DataError("every slice needs at least 2 members")
    constant = y.min(axis=-1) == y.max(axis=-1)
    if constant.any():
        at = tuple(int(i) for i in np.argwhere(constant)[0])
        row = "" if y.ndim == 1 else f" row {at[0] if y.ndim == 2 else at}"
        raise DataError(f"response{row} is constant: its equal-count slices would"
                        " follow the row order alone")
    z = np.asarray(z, dtype=float)
    if z.ndim < 2:
        raise InvalidArgument(f"z must have shape (..., n, p), got {z.shape}")
    if z.shape[-2] != n:
        raise InvalidArgument(f"y covers {n} rows but z has {z.shape[-2]}")
    _check_finite(z)
    buffers = _Buffers()
    try:
        order = np.broadcast_to(stable_order(y, buffers), z.shape[:-1])
    except ValueError:
        raise InvalidArgument(
            f"y of shape {y.shape} does not fit z of shape {z.shape}"
        ) from None
    plan, batch, p = _SlicePlan(bounds), order.shape[:-1], z.shape[-1]
    mean_cov, cov_square, fourth = pooled = [np.empty(batch + (p, p)) for _ in range(3)]
    means = np.empty(batch + (plan.counts.size, p))
    covs = _slice_moments(z.reshape(order.size, p), _flat_index(order), plan,
                          buffers, pooled, means)
    return SliceStats(counts=plan.counts, means=means, covs=covs,
                      weights=plan.weights, fourth=fourth, mean_cov=mean_cov,
                      cov_square=cov_square)


def _slice_moments(z: np.ndarray, index: np.ndarray, plan: _SlicePlan,
                   buffers: _Buffers, pooled, means: np.ndarray) -> np.ndarray:
    """The slice moments of the rows ``index`` (..., n) of a finite 2-d z
    (rows, p), each row of ``index`` one replicate's rows in slice order,
    sliced by ``plan``; nothing is checked.  M, L and V are written into
    the three arrays of ``pooled`` (each (..., p, p), views of one stack or
    arrays of their own) and the slice means into ``means`` (..., H, p);
    the slice covariances (..., H, p, p) are returned, and live in
    ``buffers``.  ``slice_stats`` calls it with fresh arrays and one plan;
    ``_SliceGrid`` with one plan per H, the index that ``stable_order``
    leaves and views of its stacks.

    Two passes over each slice: the first forms the mean, the second the
    covariance S_h = sum_j d_hj d_hj^T / (c_h - 1) from the deviations
    d_hj = z_hj - mean_h.
    Summing deviations rather than raw products keeps S_h accurate when
    the data sit far from the origin (Chan, Golub & LeVeque 1983).
    The means come from ``np.add.reduceat``; at p = 1 slices of at most
    ``_POSITION_SUM_MAX_C`` points are summed by position in reduceat's own
    order (``_position_sum``), so every mean is reduceat's bit for bit, as
    ``TestPositionSum`` in tests/test_slicing.py pins.
    A run of k adjacent slices of m points is one (..., k, m, p) block whose
    covariances come from one stacked product, so the (n, p, p) outer
    products are never formed; the same block viewed as (..., k p, p) gives
    the run's share of L = sum_h p_h S_h^2 in one more product.  V averages
    ||d||^2 d d^T over all n deviations; at p = 1 that is (d^2)^2, formed
    from the squared deviations the runs leave (pinned by ``TestAbsScale``).
    At p = 1 a run of m up to ``_POSITION_SUM_MAX_C`` points is a (..., k, m)
    view with the unit axis dropped (``_flat_run``): a slice's covariance is
    its sum of squared deviations, added in the lane order of the block's
    einsum (``_lane_sum``, pinned by ``TestLaneSum``).
    """
    batch, n, p = index.shape[:-1], index.shape[-1], z.shape[-1]
    # The index rows are permutations of rows of z (``stable_order``
    # returns one, and each caller derives its order from it), so "clip"
    # only skips the bounds check, which would copy the gather through a
    # temporary.
    zs = np.take(z, index, axis=0, out=buffers.get("zs", index.shape + (p,)),
                 mode="clip")
    covs = buffers.get("covs", batch + (plan.counts.size, p, p))
    # scratch, then ||d|| of each deviation d at p > 1 and d^2 at p = 1
    norms = buffers.get("floats", index.shape)
    mean_cov, cov_square, fourth = pooled
    mean_cov[...] = 0.0
    cov_square[...] = 0.0
    for lo, hi, c, first, stop, starts, weight in plan.runs:
        out = covs[..., lo:hi, :, :]
        if p == 1 and c <= _POSITION_SUM_MAX_C:
            _flat_run(zs[..., first:stop, 0], means[..., lo:hi, 0], out[..., 0, 0],
                      norms[..., first:stop])
        else:
            run = zs[..., first:stop, :]
            block = run.reshape(batch + (hi - lo, c, p))
            m = np.add.reduceat(run, starts, axis=-2, out=means[..., lo:hi, :])
            m /= c
            block -= m[..., None, :]  # deviations, in place
            _gram(block, out=out)
            if p == 1:  # the squares V needs, as ``_flat_run`` leaves them
                np.multiply(run[..., 0], run[..., 0], out=norms[..., first:stop])
        out /= c - 1
        mean_cov += weight * out.sum(axis=-3)
        # S_h is symmetric, so B^T B sums S_h^2 over the run's stacked B.
        cov_square += weight * _gram(out.reshape(batch + ((hi - lo) * p, p)))
    # At p > 1 scale each deviation d by ||d|| in place: the sum of
    # ||d||^2 d d^T is then one product of the scaled deviations with
    # themselves.  At p = 1 it is the product of the squares d^2 that the
    # runs left in ``norms`` with themselves: d |d| is +-d^2 rounded once,
    # so (d |d|)^2 and (d^2)^2 are the same float, under- and overflow
    # included, and einsum adds them in the same order.
    if p > 1:
        scale = np.sqrt(np.einsum("...i,...i->...", zs, zs, out=norms), out=norms)
        zs *= scale[..., None]
    else:
        zs = norms[..., None]
    _gram(zs, out=fourth)
    fourth /= n
    return covs


def _chunk_size(n: int, p: int, H: int) -> int:
    """Replicates that ``_SliceGrid`` slices at a time at H.

    Keeps the (chunk, n, p) data and (chunk, H, p, p) covariance stacks at
    no more than n * p**2 floats each: chunk <= p and chunk * H <= n.
    """
    return max(1, min(p, n // H))


class _SliceGrid:
    """Equal-count slicings of n points in p dimensions at each H of
    ``h_grid``, built once per engine call: a slice plan per H, and
    ``sizes[i]``, how many replicates the i-th H slices at a time
    (``_chunk_size``); ``chunk``, the largest, is how many one call of
    ``moments`` takes.  The grid owns the work buffers of its sorts and
    slice moments, so what ``moments`` returns holds until its next call.
    """

    __slots__ = ("plans", "sizes", "chunk", "buffers")

    def __init__(self, n: int, p: int, h_grid: list):
        self.plans = [_SlicePlan(equal_count_bounds(n, H)) for H in h_grid]
        self.sizes = [_chunk_size(n, p, H) for H in h_grid]
        self.chunk = max(self.sizes)
        self.buffers = _Buffers()

    @staticmethod
    def check(z: np.ndarray) -> None:
        """Raise NumericalError unless the chunk z is finite.  ``moments``
        takes z as checked, so a pass checks each chunk once, however many
        responses it slices z by."""
        _check_finite(z)

    def moments(self, z: np.ndarray, y: np.ndarray) -> tuple:
        """(pooled, slice_means): the slice moments of a chunk z
        (chunk, n, p) at every H, whose responses y (chunk, n) are sorted
        once for every H.  ``pooled`` is a (3, len(h_grid), chunk, p, p)
        stack of M, L and V, and ``slice_means[i]`` is the i-th H's
        (means (chunk, H, p), weights (H,)).

        z must have passed ``check``.  Each H slices the chunk in parts of
        ``sizes[i]`` replicates, and each part gathers its rows of the whole
        chunk's z through the flat index of the sorted order, which
        ``stable_order`` leaves in the "index" buffer.
        """
        buffers = self.buffers
        stable_order(y, buffers)
        index = buffers.get("index", y.shape, np.intp)
        chunk, p = z.shape[0], z.shape[-1]
        rows = z.reshape(-1, p)
        pooled = buffers.get("pooled", (3, len(self.plans), chunk, p, p))
        slice_means = []
        for i, (plan, size) in enumerate(zip(self.plans, self.sizes)):
            means = buffers.get(f"means {i}", (chunk, plan.counts.size, p))
            for lo in range(0, chunk, size):
                part = slice(lo, lo + size)
                _slice_moments(rows, index[part], plan, buffers, pooled[:, i, part],
                               means[part])
            slice_means.append((means, plan.weights))
        return pooled, slice_means
