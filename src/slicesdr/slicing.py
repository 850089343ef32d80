"""Partition observations into slices by the response, and slice moments.

Continuous responses get equal-count slices over the sorted order (the last
slice absorbs any remainder); discrete responses get one slice per distinct
value.  A slice assignment is a permutation of the observations in slice
order plus the offsets where each slice starts.

``slice_stats`` gathers the rows into slice order once and returns every
moment the estimators use: per-slice means and covariances with a
selectable divisor ("c-1" unbiased, "c" maximum-likelihood) and the pooled
within-slice fourth-moment matrix V.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateResponse, SingletonSlice, TooManySlices

#: Valid within-slice covariance divisors.
DIVISORS = ("c-1", "c")


@dataclass(frozen=True)
class SliceAssignment:
    """A partition of observation indices into H response-ordered slices.

    Slice h holds the observations ``order[bounds[h]:bounds[h + 1]]``.
    """

    order: np.ndarray   # (n,) permutation of 0..n-1, in slice order
    bounds: np.ndarray  # (H + 1,) offsets into order, from 0 to n

    def __post_init__(self):
        order = np.asarray(self.order)
        bounds = np.asarray(self.bounds)
        if order.ndim != 1 or bounds.ndim != 1 or not (
            np.issubdtype(order.dtype, np.integer)
            and np.issubdtype(bounds.dtype, np.integer)
        ):
            raise ValueError("order and bounds must be 1-d integer arrays")
        n = order.size
        if bounds.size < 2 or bounds[0] != 0 or bounds[-1] != n:
            raise ValueError("bounds must run from 0 to len(order)")
        if np.diff(bounds).min() < 2:
            raise SingletonSlice("every slice needs at least 2 members")
        if order.min() < 0 or order.max() >= n:
            raise ValueError("order must be a permutation of 0..n-1")
        seen = np.zeros(n, dtype=bool)
        seen[order] = True
        if not seen.all():
            raise ValueError("order must be a permutation of 0..n-1")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "bounds", bounds)

    @property
    def H(self) -> int:
        return int(self.bounds.size - 1)

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self.bounds)

    @property
    def n(self) -> int:
        return int(self.order.size)


def slice_equal_count(y, H: int) -> SliceAssignment:
    """Assign sorted observations to H slices of c = floor(n/H) points.

    Sorting is stable, so ties keep their original order.  Slices 1..H-1
    hold exactly c points; the last slice absorbs the remainder (it can be
    larger than c, never smaller).
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    if H < 1:
        raise TooManySlices(f"H must be >= 1, got {H}")
    if n < 2 * H:
        raise TooManySlices(f"n={n} too small for H={H} slices of >= 2 points")
    order = np.argsort(y, kind="stable")
    bounds = np.append(np.arange(H) * (n // H), n)
    return SliceAssignment(order=order, bounds=bounds)


def slice_discrete(y) -> SliceAssignment:
    """One slice per distinct response value, ordered by ascending value."""
    y = np.asarray(y, dtype=float)
    values, inverse, counts = np.unique(y, return_inverse=True, return_counts=True)
    if values.size < 2:
        raise DegenerateResponse(
            f"discrete slicing needs >= 2 distinct values, got {values.size}"
        )
    thin = values[counts < 2]
    if thin.size:
        raise SingletonSlice(f"response value {thin[0]!r} appears only once")
    order = np.argsort(inverse, kind="stable")
    bounds = np.concatenate([[0], np.cumsum(counts)])
    return SliceAssignment(order=order, bounds=bounds)


@dataclass(frozen=True)
class SliceStats:
    """Per-slice counts, means, covariances and weights p_h = c_h / n, plus
    the pooled within-slice fourth-moment matrix V."""

    counts: np.ndarray    # (H,)
    means: np.ndarray     # (H, p)
    covs: np.ndarray      # (H, p, p), each symmetric
    weights: np.ndarray   # (H,), sums to 1
    divisor: str          # "c-1" | "c"
    fourth: np.ndarray    # (p, p), symmetric

    @property
    def H(self) -> int:
        return int(self.counts.size)

    @property
    def p(self) -> int:
        return int(self.means.shape[1])

    @property
    def n(self) -> int:
        return int(self.counts.sum())


def slice_stats(z, assignment: SliceAssignment, divisor: str = "c-1") -> SliceStats:
    """Slice moments of the rows of z, from one gather into slice order.

    cov(h) = sum_j (z_hj - mean_h)(z_hj - mean_h)^T / d(c_h) with
    d(c) = c - 1 or c according to ``divisor``.  The fourth-moment matrix
    averages ((z_hj - mean_h)(z_hj - mean_h)^T)^2 over all n observations;
    for a deviation d that summand equals ||d||^2 d d^T.  It does not
    depend on the divisor.
    """
    if divisor not in DIVISORS:
        raise ValueError(f"divisor must be one of {DIVISORS}, got {divisor!r}")
    z = np.atleast_2d(np.asarray(z, dtype=float))
    if z.shape[0] != assignment.n:
        raise ValueError(
            f"assignment covers {assignment.n} rows but z has {z.shape[0]}"
        )
    counts = assignment.counts
    zs = z[assignment.order]
    starts = assignment.bounds[:-1]
    sums = np.add.reduceat(zs, starts, axis=0)
    means = sums / counts[:, None]
    outer_sums = np.add.reduceat(zs[:, :, None] * zs[:, None, :], starts, axis=0)
    centered = outer_sums - counts[:, None, None] * means[:, :, None] * means[:, None, :]
    denom = counts - 1 if divisor == "c-1" else counts
    covs = centered / denom[:, None, None]
    covs = (covs + covs.transpose(0, 2, 1)) / 2.0
    dev = zs - np.repeat(means, counts, axis=0)
    sq = np.einsum("ij,ij->i", dev, dev)
    fourth = dev.T @ (dev * sq[:, None]) / zs.shape[0]
    n = counts.sum()
    return SliceStats(
        counts=counts,
        means=means,
        covs=covs,
        weights=counts / n,
        divisor=divisor,
        fourth=(fourth + fourth.T) / 2.0,
    )
