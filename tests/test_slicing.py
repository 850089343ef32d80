"""Slice construction and per-slice statistics tests.

Oracles: the pairwise-difference identity
cov = sum_{l<j} (z_l - z_j)(z_l - z_j)^T / (c (c-1)) for the unbiased
within-slice covariance, evaluated by an explicit double loop, the
law-of-total-variance pooling identity at the sample level, and a
per-slice loop over the slice members for every field of the slice stats.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from slicesdr import SliceAssignment, slice_discrete, slice_equal_count, slice_stats
from slicesdr.errors import DegenerateResponse, SingletonSlice, TooManySlices


def members(a):
    """Index array of each slice, in slice order."""
    return [a.order[a.bounds[h]:a.bounds[h + 1]] for h in range(a.H)]


class TestEqualCount:
    def test_exact_division(self):
        y = np.arange(1.0, 13.0)
        a = slice_equal_count(y, 3)
        assert a.H == 3 and a.n == 12
        np.testing.assert_array_equal(a.counts, [4, 4, 4])
        np.testing.assert_array_equal(np.sort(a.order), np.arange(12))
        for h, idx in enumerate(members(a)):
            np.testing.assert_array_equal(np.sort(y[idx]), y[4 * h : 4 * h + 4])

    def test_remainder_goes_to_last_slice(self):
        a = slice_equal_count(np.arange(1.0, 11.0), 3)
        np.testing.assert_array_equal(a.counts, [3, 3, 4])

    def test_slices_ordered_by_response(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal(100)
        a = slice_equal_count(y, 7)
        tops = [y[idx].max() for idx in members(a)]
        bottoms = [y[idx].min() for idx in members(a)]
        for h in range(a.H - 1):
            assert tops[h] <= bottoms[h + 1]

    def test_stable_tie_break(self):
        a = slice_equal_count(np.array([2.0, 2.0, 1.0, 1.0]), 2)
        np.testing.assert_array_equal(members(a)[0], [2, 3])  # both 1s, file order
        np.testing.assert_array_equal(members(a)[1], [0, 1])

    def test_too_many_slices(self):
        with pytest.raises(TooManySlices):
            slice_equal_count(np.arange(9.0), 5)


class TestDiscrete:
    def test_by_value(self):
        a = slice_discrete(np.array([1.0, 1.0, 2.0, 2.0, 2.0]))
        assert a.H == 2
        np.testing.assert_array_equal(a.counts, [2, 3])
        np.testing.assert_array_equal(members(a)[0], [0, 1])
        np.testing.assert_array_equal(members(a)[1], [2, 3, 4])

    def test_single_value_rejected(self):
        with pytest.raises(DegenerateResponse):
            slice_discrete(np.array([5.0, 5.0, 5.0, 5.0]))

    def test_singleton_value_rejected(self):
        with pytest.raises(SingletonSlice, match="1.0"):
            slice_discrete(np.array([1.0, 2.0, 2.0]))


class TestSliceStats:
    def test_two_point_closed_form(self):
        z = np.array([[-1.0], [1.0]])
        a = slice_equal_count(np.array([0.0, 1.0]), 1)
        unbiased = slice_stats(z, a, divisor="c-1")
        ml = slice_stats(z, a, divisor="c")
        assert unbiased.means[0, 0] == pytest.approx(0.0)
        assert unbiased.covs[0, 0, 0] == pytest.approx(2.0)
        assert ml.covs[0, 0, 0] == pytest.approx(1.0)

    def test_constant_slice_has_zero_cov(self):
        z = np.ones((4, 2))
        a = slice_equal_count(np.arange(4.0), 2)
        st = slice_stats(z, a)
        np.testing.assert_allclose(st.covs, np.zeros((2, 2, 2)), atol=1e-14)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(1)
        a = slice_equal_count(rng.standard_normal(23), 4)
        st = slice_stats(rng.standard_normal((23, 2)), a)
        assert st.weights.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_array_equal(st.counts, [5, 5, 5, 8])

    def test_pairwise_difference_identity(self):
        # cov (divisor c-1) equals the double-loop pairwise-difference form
        rng = np.random.default_rng(2)
        z = rng.standard_normal((6, 2))
        a = slice_equal_count(np.arange(6.0), 1)
        st = slice_stats(z, a, divisor="c-1")
        c = 6
        acc = np.zeros((2, 2))
        for l in range(1, c):
            for j in range(l):
                d = z[l] - z[j]
                acc += np.outer(d, d)
        oracle = acc / (c * (c - 1))
        np.testing.assert_allclose(st.covs[0], oracle, rtol=1e-10)

    def test_matches_direct_definition(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((12, 3))
        y = rng.standard_normal(12)
        a = slice_equal_count(y, 3)
        st = slice_stats(z, a, divisor="c-1")
        for h, idx in enumerate(members(a)):
            rows = z[idx]
            mean = rows.mean(axis=0)
            acc = sum(np.outer(r - mean, r - mean) for r in rows)
            np.testing.assert_allclose(st.covs[h], acc / (len(idx) - 1), atol=1e-12)
            np.testing.assert_allclose(st.means[h], mean, atol=1e-14)

    def test_weighted_pooling_identity(self):
        # sum_h p_h (cov_c(h) + mean_h mean_h') = second moment with divisor n
        rng = np.random.default_rng(4)
        z = rng.standard_normal((40, 3))
        y = rng.standard_normal(40)
        a = slice_equal_count(y, 6)
        st = slice_stats(z, a, divisor="c")
        pooled = np.einsum("h,hij->ij", st.weights, st.covs) + np.einsum(
            "h,hi,hj->ij", st.weights, st.means, st.means
        )
        np.testing.assert_allclose(pooled, z.T @ z / 40, atol=1e-10)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((30, 2))
        y = rng.standard_normal(30)  # continuous, no ties
        st = slice_stats(z, slice_equal_count(y, 5))
        perm = rng.permutation(30)
        st_p = slice_stats(z[perm], slice_equal_count(y[perm], 5))
        np.testing.assert_allclose(st.means, st_p.means, atol=1e-12)
        np.testing.assert_allclose(st.covs, st_p.covs, atol=1e-12)

    def test_singleton_assignment_rejected(self):
        with pytest.raises(SingletonSlice):
            SliceAssignment(order=np.arange(3), bounds=np.array([0, 2, 3]))

    def test_row_count_must_match_assignment(self):
        # an assignment over 50 points must not silently use the first 50
        # rows of a 100-row z, nor index past a 40-row one
        rng = np.random.default_rng(6)
        a = slice_equal_count(rng.standard_normal(50), 5)
        for rows in (100, 40):
            with pytest.raises(ValueError, match="assignment covers 50 rows"):
                slice_stats(rng.standard_normal((rows, 2)), a)


def loop_oracle(z, a, divisor):
    """Counts, means, covs and pooled fourth-moment matrix, slice by slice."""
    n, p = z.shape
    counts, means, covs = [], [], []
    fourth = np.zeros((p, p))
    for idx in members(a):
        rows = z[idx]
        c = len(idx)
        mean = rows.mean(axis=0)
        dev = rows - mean
        counts.append(c)
        means.append(mean)
        covs.append(dev.T @ dev / (c - 1 if divisor == "c-1" else c))
        for d in dev:
            fourth += (d @ d) * np.outer(d, d)
    return np.array(counts), np.array(means), np.array(covs), fourth / n


@st_.composite
def assignments(draw):
    """(seed, n, p, assignment): equal-count slices, often with an n % H
    remainder, or discrete slices with uneven counts in shuffled row order."""
    seed = draw(st_.integers(0, 2**32 - 1))
    p = draw(st_.integers(1, 4))
    rng = np.random.default_rng(seed)
    if draw(st_.booleans()):
        n = draw(st_.integers(4, 60))
        H = draw(st_.integers(1, n // 2))
        a = slice_equal_count(rng.standard_normal(n), H)
    else:
        counts = draw(st_.lists(st_.integers(2, 9), min_size=2, max_size=8))
        y = rng.permutation(np.repeat(np.arange(len(counts), dtype=float), counts))
        a = slice_discrete(y)
        np.testing.assert_array_equal(a.counts, counts)
        n = y.size
    return seed, n, p, a


class TestSliceStatsProperties:
    @settings(max_examples=80, deadline=None)
    @given(assignments(), st_.sampled_from(("c-1", "c")))
    def test_matches_per_slice_loop(self, case, divisor):
        seed, n, p, a = case
        z = np.random.default_rng(seed + 1).standard_normal((n, p))
        st = slice_stats(z, a, divisor=divisor)
        counts, means, covs, fourth = loop_oracle(z, a, divisor)
        np.testing.assert_array_equal(st.counts, counts)
        np.testing.assert_allclose(st.means, means, rtol=0, atol=1e-12)
        np.testing.assert_allclose(st.covs, covs, rtol=0, atol=1e-12)
        np.testing.assert_allclose(st.fourth, fourth, rtol=0, atol=1e-12)
        np.testing.assert_allclose(st.weights, counts / n, rtol=0, atol=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(assignments())
    def test_hand_built_assignments_rejected(self, case):
        _, n, _, a = case
        SliceAssignment(order=a.order.copy(), bounds=a.bounds.copy())  # valid
        dup = a.order.copy()
        dup[0] = dup[-1]  # one index twice, another missing
        with pytest.raises(ValueError, match="permutation"):
            SliceAssignment(order=dup, bounds=a.bounds)
        out_of_range = a.order.copy()
        out_of_range[out_of_range.argmax()] = n
        with pytest.raises(ValueError, match="permutation"):
            SliceAssignment(order=out_of_range, bounds=a.bounds)
        short = a.bounds.copy()
        short[-1] = n - 1
        with pytest.raises(ValueError, match="from 0 to"):
            SliceAssignment(order=a.order, bounds=short)
        with pytest.raises(SingletonSlice):
            SliceAssignment(order=a.order, bounds=np.array([0, 1, n]))
