"""Partition observations into slices by the response, and slice moments.

Continuous responses get equal-count slices over the sorted order (the last
slice absorbs any remainder); discrete responses get one slice per distinct
value.  A slice assignment is a permutation of the observations in slice
order plus the offsets where each slice starts.

``slice_stats`` gathers the rows into slice order once and returns every
moment the estimators use: per-slice means and covariances S_h with a
selectable divisor ("c-1" unbiased, "c" maximum-likelihood), the pooled
moments M = sum_h p_h S_h and L = sum_h p_h S_h^2, and the pooled
within-slice fourth-moment matrix V.

Both take a leading batch axis: a stack of R responses of shape (R, n)
gives R orders over shared slice bounds, and a stack z of shape (R, n, p)
gives stats whose moments carry the same leading axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateResponse,
    InvalidArgument,
    InvalidMatrix,
    SingletonSlice,
    TooManySlices,
)

#: Valid within-slice covariance divisors.
DIVISORS = ("c-1", "c")


@dataclass(frozen=True)
class SliceAssignment:
    """A partition of observation indices into H response-ordered slices.

    Slice h holds the observations ``order[..., bounds[h]:bounds[h + 1]]``;
    a batched order of shape (..., n) holds one permutation per row, all
    sharing the bounds.
    """

    order: np.ndarray   # (..., n) permutations of 0..n-1, in slice order
    bounds: np.ndarray  # (H + 1,) offsets into order, from 0 to n
    counts: np.ndarray = field(init=False, repr=False)  # (H,) slice sizes
    runs: tuple = field(init=False, repr=False)  # see ``_runs``

    def __post_init__(self):
        order = np.asarray(self.order)
        bounds = np.asarray(self.bounds)
        if order.ndim < 1 or bounds.ndim != 1 or not (
            np.issubdtype(order.dtype, np.integer)
            and np.issubdtype(bounds.dtype, np.integer)
        ):
            raise InvalidArgument("order and bounds must be integer arrays, bounds 1-d")
        counts, runs = _checked_bounds(bounds, order.shape[-1])
        _check_order(order)
        _fill(self, order, bounds, counts, runs)

    @property
    def H(self) -> int:
        return int(self.bounds.size - 1)

    @property
    def n(self) -> int:
        return int(self.order.shape[-1])


def _fill(a: SliceAssignment, order, bounds, counts, runs) -> SliceAssignment:
    for name, value in zip(("order", "bounds", "counts", "runs"),
                           (order, bounds, counts, runs)):
        object.__setattr__(a, name, value)
    return a


def _checked_bounds(bounds: np.ndarray, n: int) -> tuple:
    """(counts, runs) of 1-d integer slice ``bounds`` over n points, which
    must run from 0 to n with at least 2 points in every slice."""
    if bounds.size < 2 or bounds[0] != 0 or bounds[-1] != n:
        raise InvalidArgument("bounds must run from 0 to len(order)")
    counts = np.diff(bounds)
    if counts.min() < 2:
        raise SingletonSlice("every slice needs at least 2 members")
    return counts, _runs(counts)


def _check_order(order: np.ndarray) -> None:
    """Raise unless each row of an integer (..., n) order is a permutation
    of 0..n-1."""
    n = order.shape[-1]
    if order.min() < 0 or order.max() >= n:
        raise InvalidArgument("order must be a permutation of 0..n-1")
    seen = np.zeros(order.size, dtype=bool)
    seen[_flat_index(order)] = True
    if not seen.all():
        raise InvalidArgument("order must be a permutation of 0..n-1")


def _assignment(order: np.ndarray, bounds: np.ndarray, counts, runs) -> SliceAssignment:
    """The SliceAssignment of an order that passed ``_check_order`` and of
    bounds whose (counts, runs) ``_checked_bounds`` gave, checked no
    further: the engines check each sorted order and each H's bounds once
    and pair them for every slice call."""
    return _fill(object.__new__(SliceAssignment), order, bounds, counts, runs)


class _Buffers:
    """Named, grow-only work arrays that one engine call reuses for every
    replicate, so the heap pages behind them are faulted in once.

    ``get`` returns an uninitialized array of the asked shape and dtype, a
    view of the name's buffer, which is reallocated only when it is too
    small.  A function that takes buffers overwrites the arrays it gets from
    them, so what it returns is valid until its next call with the same
    buffers.  Called without buffers, it makes a new ``_Buffers``, whose
    arrays are fresh.  The names "index" and "floats" hold scratch that no
    result refers to, so every function here shares them.  An engine makes
    its own per call; a module-level instance would break the purity and
    thread safety of the engines.
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
    a value sort of one packed uint64 key per entry, formed in ``key``
    (uint64, y's shape), whose intp view is returned.

    The key is the order-preserving bit image of the float (every bit of a
    negative value flipped, the sign bit of a non-negative one set) with
    its low ceil(log2 n) bits overwritten by the column index, which the
    sorted keys give back.  Values that agree above those bits are ordered
    by column, so the result sorts y only where no two values of a row are
    that close; ``stable_order`` checks it.
    """
    n = y.shape[-1]
    low = np.uint64((1 << (n - 1).bit_length()) - 1)
    np.right_shift(y.view(np.int64), 63, out=key.view(np.int64))  # all ones where y < 0
    key |= np.uint64(1 << 63)
    key ^= y.view(np.uint64)
    key &= ~low
    key |= np.arange(n, dtype=np.uint64)
    key.sort(axis=-1)
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

    Rows of up to ``_KEY_SORT_MAX_N`` values take a value sort of packed
    keys (``_key_order``), longer ones the default argsort; both are
    several times faster than the stable argsort but may order equal or
    nearly equal values either way.  When every sorted row is strictly
    increasing the permutation is unique, so the sorts agree; a row with a
    tie, a -0.0 / 0.0 pair, a NaN or two values the keys could not tell
    apart out of order fails that test and the whole batch is sorted again
    with the stable sort.  With ``buffers`` the key-sorted order lives in
    them (see ``_Buffers``).
    """
    y = np.asarray(y, dtype=float)
    buffers = buffers or _Buffers()
    if y.shape[-1] <= _KEY_SORT_MAX_N:
        order = _key_order(y, buffers.get("key", y.shape, np.uint64))
    else:
        order = np.argsort(y, axis=-1)
    index = _flat_index(order, buffers.get("index", y.shape, np.intp))
    # A sort's indexes are in range, so "clip" only skips the bounds check,
    # which would copy the result through a temporary.
    ys = np.take(y, index, out=buffers.get("floats", y.shape), mode="clip")
    rising = buffers.get("rising", ys[..., 1:].shape, bool)
    if np.greater(ys[..., 1:], ys[..., :-1], out=rising).all():
        return order
    return np.argsort(y, axis=-1, kind="stable")


def _finite_response(y) -> np.ndarray:
    """y as float64; a non-finite value raises DegenerateResponse naming
    the position of the first one."""
    y = np.asarray(y, dtype=float)
    finite = np.isfinite(y)
    if not finite.all():
        at = tuple(int(i) for i in np.argwhere(~finite)[0])
        raise DegenerateResponse(
            f"response value {float(y[at])} at position {at[0] if y.ndim == 1 else at}"
            " is not finite"
        )
    return y


def slice_equal_count(y, H: int) -> SliceAssignment:
    """Assign sorted observations to H slices of c = floor(n/H) points.

    ``y`` has shape (n,) or (..., n); each row is sorted on its own along
    the last axis.  Sorting is stable, so ties keep their original order
    and tied values can fall on either side of a slice boundary by their
    row position.  Slices 1..H-1 hold exactly c points; the last slice
    absorbs the remainder (it can be larger than c, never smaller).
    """
    y = _finite_response(np.atleast_1d(y))
    bounds = equal_count_bounds(y.shape[-1], H)
    return SliceAssignment(order=stable_order(y), bounds=bounds)


def equal_count_bounds(n: int, H: int) -> np.ndarray:
    """Offsets of H equal-count slices of n sorted points: slices 1..H-1
    hold c = floor(n/H) points and the last slice the remainder."""
    if H < 1:
        raise TooManySlices(f"H must be >= 1, got {H}")
    if n < 2 * H:
        raise TooManySlices(f"n={n} too small for H={H} slices of >= 2 points")
    return np.append(np.arange(H) * (n // H), n)


def slice_discrete(y) -> SliceAssignment:
    """One slice per distinct response value, ordered by ascending value."""
    y = _finite_response(y)
    values, inverse, counts = np.unique(y, return_inverse=True, return_counts=True)
    if values.size < 2:
        raise DegenerateResponse(
            f"discrete slicing needs >= 2 distinct values, got {values.size}"
        )
    thin = values[counts < 2]
    if thin.size:
        raise SingletonSlice(f"response value {float(thin[0])!r} appears only once")
    order = np.argsort(inverse, kind="stable")
    bounds = np.concatenate([[0], np.cumsum(counts)])
    return SliceAssignment(order=order, bounds=bounds)


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
    divisor: str            # "c-1" | "c"
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
    """(first, stop) slice indices of each run of adjacent equal-size slices.

    Equal-count slicing gives at most two runs: H - 1 slices of c points
    and the last slice with the remainder.
    """
    cuts = [0, *(np.flatnonzero(counts[1:] != counts[:-1]) + 1).tolist(), counts.size]
    return tuple(zip(cuts[:-1], cuts[1:]))


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
    (..., k c) is scratch for the squares.
    """
    c = run.shape[-1] // means.shape[-1]
    block = run.reshape(means.shape + (c,))
    points = np.moveaxis(block, -1, 0)
    _position_sum(points, out=means)
    means /= c
    for point in points:  # one strided pass each beats a broadcast
        point -= means  # deviations, in place
    squares = np.multiply(block, block, out=squares.reshape(block.shape))
    _lane_sum(squares, out=sums)


def slice_stats(
    z,
    assignment: SliceAssignment,
    divisor: str = "c-1",
    *,
    buffers: _Buffers | None = None,
) -> SliceStats:
    """Slice moments of the rows of z, from one gather into slice order.

    ``z`` has shape (n, p) or (..., n, p) and must be finite; a 1-d order
    in ``assignment`` is shared by every row of the batch.  Two passes over
    each slice: the first forms the mean, the second the covariance
    S_h = sum_j d_hj d_hj^T / d(c_h) from the deviations
    d_hj = z_hj - mean_h, with d(c) = c - 1 or c according to ``divisor``.
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
    ||d||^2 d d^T over all n deviations and does not depend on the divisor.
    At p = 1 a run of m up to ``_POSITION_SUM_MAX_C`` points is a (..., k, m)
    view with the unit axis dropped (``_flat_run``): a slice's covariance is
    its sum of squared deviations, added in the lane order of the block's
    einsum (``_lane_sum``, pinned by ``TestLaneSum``).
    With ``buffers`` the weights, means and covariances live in them (see
    ``_Buffers``); M, L and V are always fresh.
    """
    if divisor not in DIVISORS:
        raise InvalidArgument(f"divisor must be one of {DIVISORS}, got {divisor!r}")
    z = np.asarray(z, dtype=float)
    if z.ndim < 2:
        raise InvalidArgument(f"z must have shape (..., n, p), got {z.shape}")
    if z.shape[-2] != assignment.n:
        raise InvalidArgument(
            f"assignment covers {assignment.n} rows but z has {z.shape[-2]}"
        )
    buffers = buffers or _Buffers()
    # NaN or infinity would show in the minimum or the maximum.
    if not (np.isfinite(z.min(initial=0.0)) and np.isfinite(z.max(initial=0.0))):
        raise InvalidMatrix("z has non-finite entries")
    batch, n, p = z.shape[:-2], z.shape[-2], z.shape[-1]
    order = assignment.order
    if order.shape != z.shape[:-1]:
        try:
            order = np.broadcast_to(order, z.shape[:-1])
        except ValueError:
            raise InvalidArgument(
                f"order of shape {order.shape} does not fit z of shape {z.shape}"
            ) from None
    index = _flat_index(order, buffers.get("index", order.shape, np.intp))
    # The assignment checked its order, so "clip" only skips the bounds
    # check, which would copy the gather through a temporary.
    zs = np.take(
        z.reshape(order.size, p), index, axis=0,
        out=buffers.get("zs", order.shape + (p,)), mode="clip",
    )
    counts, bounds = assignment.counts, assignment.bounds
    H = counts.size
    means = buffers.get("means", batch + (H, p))
    covs = buffers.get("covs", batch + (H, p, p))
    norms = buffers.get("floats", order.shape)  # scratch, then ||d|| of each d
    mean_cov = np.zeros(batch + (p, p))
    cov_square = np.zeros(batch + (p, p))
    for lo, hi in assignment.runs:
        c = counts[lo]
        first, stop = bounds[lo], bounds[hi]
        out = covs[..., lo:hi, :, :]
        if p == 1 and c <= _POSITION_SUM_MAX_C:
            _flat_run(zs[..., first:stop, 0], means[..., lo:hi, 0], out[..., 0, 0],
                      norms[..., first:stop])
        else:
            run = zs[..., first:stop, :]
            block = run.reshape(batch + (hi - lo, int(c), p))
            m = np.add.reduceat(run, bounds[lo:hi] - first, axis=-2,
                                out=means[..., lo:hi, :])
            m /= c
            block -= m[..., None, :]  # deviations, in place
            _gram(block, out=out)
        out /= c - 1 if divisor == "c-1" else c
        weight = c / n
        mean_cov += weight * out.sum(axis=-3)
        # S_h is symmetric, so B^T B sums S_h^2 over the run's stacked B.
        cov_square += weight * _gram(out.reshape(batch + ((hi - lo) * p, p)))
    # Scale each deviation d by ||d|| in place: the sum of ||d||^2 d d^T is
    # then one product of the scaled deviations with themselves.  At p = 1
    # ||d|| = |d|, which sqrt(d^2) gives bit for bit unless d^2 under- or
    # overflows; there V's term (d |d|)^2 is 0 or inf either way.
    if p > 1:
        scale = np.sqrt(np.einsum("...i,...i->...", zs, zs, out=norms), out=norms)
    else:
        scale = np.abs(zs[..., 0], out=norms)
    zs *= scale[..., None]
    return SliceStats(
        counts=counts,
        means=means,
        covs=covs,
        weights=np.divide(counts, n, out=buffers.get("weights", (H,))),
        divisor=divisor,
        fourth=_gram(zs) / n,
        mean_cov=mean_cov,
        cov_square=cov_square,
    )
