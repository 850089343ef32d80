"""Slice construction and per-slice statistics tests.

Oracles: the pairwise-difference identity
cov = sum_{l<j} (z_l - z_j)(z_l - z_j)^T / (c (c-1)) for the unbiased
within-slice covariance, evaluated by an explicit double loop, the
law-of-total-variance pooling identity at the sample level, and a
per-slice loop over the slice members for every field of the slice stats.
"""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st_

from slicesdr import candidate_matrix, discrete_bounds, equal_count_bounds, slice_stats
from slicesdr import slicing
from slicesdr.slicing import stable_order
from slicesdr.errors import DataError, InvalidArgument, NumericalError


def slice_order(y):
    """The order that slices y: its stable argsort along the last axis."""
    return np.argsort(y, axis=-1, kind="stable")


def members(y, bounds):
    """Index array of each slice of a 1-d y at ``bounds``, in slice order."""
    order = slice_order(y)
    return [order[bounds[h]:bounds[h + 1]] for h in range(len(bounds) - 1)]


def column(y):
    """The response as a one-column z, whose slice means are those of y."""
    return np.asarray(y, dtype=float)[..., None]


class TestEqualCount:
    def test_exact_division(self):
        y = np.arange(1.0, 13.0)
        bounds = equal_count_bounds(12, 3)
        np.testing.assert_array_equal(bounds, [0, 4, 8, 12])
        st = slice_stats(column(y), y, bounds)
        assert st.H == 3 and st.n == 12
        np.testing.assert_array_equal(st.counts, [4, 4, 4])
        np.testing.assert_array_equal(st.means, [[2.5], [6.5], [10.5]])

    def test_remainder_goes_to_last_slice(self):
        y = np.arange(1.0, 11.0)
        st = slice_stats(column(y), y, equal_count_bounds(10, 3))
        np.testing.assert_array_equal(st.counts, [3, 3, 4])

    def test_slices_ordered_by_response(self):
        # slicing z = y, each slice mean is that of a run of y's order
        # statistics, so the means rise
        rng = np.random.default_rng(0)
        y = rng.standard_normal(100)
        bounds = equal_count_bounds(100, 7)
        st = slice_stats(column(y), y, bounds)
        runs = np.add.reduceat(np.sort(y), bounds[:-1]) / st.counts
        np.testing.assert_allclose(st.means[:, 0], runs, rtol=0, atol=1e-15)
        assert (np.diff(st.means[:, 0]) > 0).all()

    def test_stable_tie_break(self):
        y = np.array([2.0, 2.0, 1.0, 1.0])
        np.testing.assert_array_equal(stable_order(y), [2, 3, 0, 1])  # file order
        st = slice_stats(column(np.arange(4.0)), y, equal_count_bounds(4, 2))
        np.testing.assert_array_equal(st.means, [[2.5], [0.5]])  # both 1s, then 2s

    def test_too_many_slices(self):
        with pytest.raises(InvalidArgument,
                           match=r"^n=9 too small for H=5 slices of >= 2 points$"):
            equal_count_bounds(9, 5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_response_rejected(self, bad):
        # NaN would sort into the last slice and +-inf into an end slice
        y = np.arange(6.0)
        y[3] = y[5] = bad
        with pytest.raises(
            DataError, match=f"^response value {bad} at position 3 is not finite$"
        ):
            slice_stats(column(np.arange(6.0)), y, equal_count_bounds(6, 2))
        rows = np.arange(12.0).reshape(2, 6)
        rows[1, 4] = bad
        with pytest.raises(
            DataError, match=rf"^response value {bad} at position \(1, 4\) is not finite$"
        ):
            slice_stats(np.zeros((2, 6, 1)), rows, equal_count_bounds(6, 2))


    @pytest.mark.parametrize("y, row", [
        (np.full(8, 2.5), ""),
        (np.array([0.0, -0.0, 0.0, -0.0]), ""),  # -0.0 and 0.0 are one value
        (np.array([[1.0, 2.0, 3.0, 4.0], [5.0, 5.0, 5.0, 5.0]]), " row 1"),
        (np.ones((2, 3, 4)), " row (0, 0)"),
    ])
    def test_constant_response_rejected(self, y, row):
        # its slices, and any direction fitted from them, follow the row order
        with pytest.raises(DataError, match=f"^response{re.escape(row)} is constant: its "
                                            "equal-count slices would follow the row "
                                            "order alone$"):
            slice_stats(np.zeros(y.shape + (1,)), y, equal_count_bounds(y.shape[-1], 2))


#: Few distinct values, so that drawn rows often tie; -0.0 and 0.0 compare
#: equal, NaN sorts last but fails every comparison (a negative-signed NaN
#: too, whose bit image sorts below -inf), and the subnormals +-5e-324 sit
#: one step from zero.
TIE_POOL = (
    -np.inf, -1.5, -5e-324, -0.0, 0.0, 5e-324, 0.25, 1.0, 3.0, np.inf,
    np.nan, float(np.copysign(np.nan, -1)),
)

#: Row lengths at the edges of the index bits of the packed sort keys.
KEY_WIDTH_EDGES = sorted({m for k in range(1, 16) for m in (2**k, 2**k + 1)})


def adjacent_floats(start: float, m: int) -> np.ndarray:
    """m consecutive doubles from ``start`` away from zero, each the
    ``np.nextafter`` of the one before."""
    bits = np.float64(start).view(np.uint64) + np.arange(m, dtype=np.uint64)
    return bits.view(np.float64)


def assert_stable(y):
    want = np.argsort(y, axis=-1, kind="stable")
    buffers = slicing._Buffers()
    got = stable_order(y, buffers)
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    # _SliceGrid gathers through the flat index that stable_order leaves,
    # after the key sort and after the stable fallback alike
    np.testing.assert_array_equal(
        buffers.get("index", got.shape, np.intp), slicing._flat_index(got)
    )


class TestStableOrder:
    @settings(max_examples=150, deadline=None)
    @given(st_.lists(st_.sampled_from(TIE_POOL), min_size=0, max_size=80))
    def test_matches_stable_argsort_1d(self, values):
        assert_stable(np.array(values, dtype=float))

    @settings(max_examples=100, deadline=None)
    @given(
        st_.integers(1, 5).flatmap(
            lambda n: st_.lists(
                st_.lists(st_.sampled_from(TIE_POOL), min_size=n, max_size=n),
                min_size=1, max_size=4,
            )
        )
    )
    def test_matches_stable_argsort_batched(self, rows):
        assert_stable(np.array(rows, dtype=float))

    @settings(max_examples=60, deadline=None)
    @given(
        st_.integers(0, 2**32 - 1),
        st_.integers(1, 6),
        st_.integers(2, 70),
        st_.data(),
    )
    def test_one_tied_row_in_a_batch(self, seed, R, n, data):
        # every other row is continuous, so only the tied row forces the
        # stable sort, and the whole batch must still match it
        y = np.random.default_rng(seed).standard_normal((R, n))
        r = data.draw(st_.integers(0, R - 1))
        y[r] = data.draw(
            st_.lists(st_.sampled_from(TIE_POOL), min_size=n, max_size=n)
        )
        assert_stable(y)
        assert_stable(y[::-1])

    def test_continuous_rows_take_the_default_sort(self):
        y = np.random.default_rng(13).standard_normal((3, 500))
        np.testing.assert_array_equal(stable_order(y), np.argsort(y, axis=-1))
        assert_stable(y)

    def test_ties_where_the_default_sort_is_not_stable(self):
        # the default sort may put the later of two equal values first
        y = np.tile([1.0, 0.0], 32)
        assert not np.array_equal(np.argsort(y), np.argsort(y, kind="stable"))
        np.testing.assert_array_equal(
            stable_order(y), np.concatenate([np.arange(1, 64, 2), np.arange(0, 64, 2)])
        )
        assert_stable(y)
        np.testing.assert_array_equal(stable_order(np.zeros(64)), np.arange(64))

    @settings(max_examples=80, deadline=None)
    @given(
        st_.integers(0, 2**32 - 1),
        st_.integers(1, 3),
        st_.integers(2, 300),
        st_.integers(2, 9),
        st_.data(),
    )
    def test_adjacent_floats_out_of_order(self, seed, R, n, m, data):
        # a run of consecutive doubles from a value with zero low bits
        # differs only in the bits the column index overwrites, so the keys
        # cannot order it and the strictly-increasing check must catch it
        rng = np.random.default_rng(seed)
        y = rng.standard_normal((R, n))
        m = min(m, n)
        bits = y.view(np.uint64)
        bits &= ~np.uint64(0xFFFF)
        for r in range(R):
            run = adjacent_floats(y[r, 0], m)
            cols = data.draw(st_.permutations(range(n)))[:m]
            y[r, cols] = data.draw(st_.permutations(run))
        assert_stable(y)
        assert_stable(y[:, ::-1])

    @pytest.mark.parametrize("n", KEY_WIDTH_EDGES)
    def test_row_lengths_at_key_width_edges(self, n):
        rng = np.random.default_rng(n)
        y = rng.standard_normal((2, n))
        assert_stable(y)
        assert_stable(y[:, ::-1])
        # n consecutive doubles in falling order: 1.0 has zero low bits, so
        # they differ only in the bits the column index overwrites
        y[1] = adjacent_floats(1.0, n)[::-1]
        assert y[1, 0] == np.nextafter(y[1, 1], 2.0)
        key = np.empty(y.shape, np.uint64)
        assert not (np.diff(y[1][slicing._key_order(y, key)[1]]) > 0).all()
        assert_stable(y)
        assert_stable(y[:, ::-1])
        # from -1.0 away from zero the doubles fall too; there the keys are
        # the values, which sort them, and reversed they fall back
        y[1] = adjacent_floats(-1.0, n)
        assert (y[1][slicing._key_order(y, key)[1]] == np.sort(y[1])).all()
        assert_stable(y)
        assert_stable(y[:, ::-1])
        y[0, -1] = y[0, 0]  # a tie in the other row
        assert_stable(y)

    def test_exact_float64_inputs_sort_as_themselves(self):
        # y is sorted as float64; int32, small int64 and float32 convert
        # exactly and keep their order, so their stable argsort is the same
        y = np.tile([3, 1, 2, 1], (2, 8))
        for dtype in (np.int64, np.int32, np.float32):
            assert_stable(y.astype(dtype))
            assert_stable(y.astype(dtype)[:, ::-1])
        assert_stable(np.random.default_rng(4).standard_normal(99).astype(np.float32))

    @pytest.mark.parametrize("n", [slicing._KEY_SORT_MAX_N, slicing._KEY_SORT_MAX_N + 1])
    def test_key_sort_only_up_to_its_row_length(self, n, monkeypatch):
        # longer rows keep too few key bits and take the default argsort;
        # either way the result is the stable argsort
        y = np.random.default_rng(n).standard_normal((1, n))
        y[0, 7] = y[0, 3]
        calls = []
        key_order = slicing._key_order
        monkeypatch.setattr(
            slicing, "_key_order",
            lambda v, key: calls.append(v.shape) or key_order(v, key),
        )
        for rows in (y, y[:, ::-1], np.random.default_rng(1).random((2, n))):
            assert_stable(rows)
        assert len(calls) == (3 if n <= slicing._KEY_SORT_MAX_N else 0)
        adjacent = adjacent_floats(1.0, n)[::-1]
        assert_stable(adjacent)
        assert_stable(adjacent[::-1])

    def test_signed_zeros_and_nan_keep_row_order(self):
        y = np.array([np.nan, 0.0, -0.0, 1.0, np.nan, -0.0])
        np.testing.assert_array_equal(stable_order(y), [1, 2, 5, 3, 0, 4])
        # the keys of a float sort near zero, at the infinities and among
        # subnormals: -0.0 and 0.0 next to negatives, alone and as a pair
        for row in ([-0.0, -1e-300, -3.0, 2.0], [0.0, -1e-300, -5e-324, 2.0],
                    [-1e-300, -0.0, -5e-324, 0.0, -2.0, 0.5],
                    [5e-324, -1e-310, 3e-320, -5e-324, 2.5e-308, 1e-315, -2e-320,
                     1.0, -1.0]):
            assert_stable(np.array(row))
            assert_stable(np.array(row[::-1]))
        rng = np.random.default_rng(21)
        for cols, values in (([0], [np.inf]), ([7], [np.inf]), ([7], [-np.inf]),
                             ([0, 7], [-np.inf, np.inf]), ([3, 30], [np.inf, -np.inf])):
            y = rng.standard_normal(40)
            y[cols] = values
            assert_stable(y)
            assert_stable(y[::-1])

    def test_ties_straddling_a_slice_boundary_follow_row_order(self):
        # the two 1.0s straddle the boundary between the 2-point slices:
        # the earlier row goes to the lower slice, so swapping the tied rows
        # of z (y is unchanged) moves a different row into each slice
        y = np.array([5.0, 1.0, 1.0, 0.0])
        bounds = equal_count_bounds(4, 2)
        np.testing.assert_array_equal(stable_order(y), [3, 1, 2, 0])
        z = np.array([[0.0], [1.0], [2.0], [3.0]])
        swapped = z[[0, 2, 1, 3]]
        np.testing.assert_array_equal(slice_stats(z, y, bounds).means, [[2.0], [1.0]])
        np.testing.assert_array_equal(slice_stats(swapped, y, bounds).means,
                                      [[2.5], [0.5]])


class TestDiscrete:
    def test_by_value(self):
        y = np.array([2.0, 1.0, 2.0, 1.0, 2.0])
        bounds = discrete_bounds(y)
        np.testing.assert_array_equal(bounds, [0, 2, 5])
        st = slice_stats(column(np.arange(5.0)), y, bounds)
        assert st.H == 2
        np.testing.assert_array_equal(st.counts, [2, 3])
        np.testing.assert_array_equal(st.means, [[2.0], [2.0]])  # rows 1, 3 and 0, 2, 4
        np.testing.assert_array_equal(members(y, bounds)[0], [1, 3])
        np.testing.assert_array_equal(members(y, bounds)[1], [0, 2, 4])

    def test_single_value_rejected(self):
        with pytest.raises(DataError,
                           match="^discrete slicing needs >= 2 distinct values, got 1$"):
            discrete_bounds(np.array([5.0, 5.0, 5.0, 5.0]))

    def test_singleton_value_rejected(self):
        # the value reads as a Python float, not as numpy's np.float64(1.0)
        message = r"^response value 1\.0 appears only once$"
        with pytest.raises(DataError, match=message):
            discrete_bounds(np.array([1.0, 2.0, 2.0]))

    @pytest.mark.parametrize("seed", range(30))
    def test_equals_the_unique_formulation(self, seed):
        # np.unique's levels, counts and stable order by level, on random
        # discrete y where -0.0 and 0.0 are one level
        rng = np.random.default_rng(seed)
        levels = rng.choice([-2.0, -0.5, -0.0, 0.0, 1.0, 3.0],
                            size=rng.integers(2, 7), replace=False)
        y = rng.choice(levels, size=rng.integers(2, 60))
        values, inverse, counts = np.unique(y, return_inverse=True, return_counts=True)
        if values.size < 2:
            with pytest.raises(DataError, match="^discrete slicing needs >= 2 distinct "
                                                f"values, got {values.size}$"):
                discrete_bounds(y)
        elif counts.min() < 2:
            value = float(values[counts < 2][0])
            message = f"^response value {re.escape(repr(value))} appears only once$"
            with pytest.raises(DataError, match=message):
                discrete_bounds(y)
        else:
            bounds = discrete_bounds(y)
            np.testing.assert_array_equal(bounds, np.append(0, np.cumsum(counts)))
            np.testing.assert_array_equal(stable_order(y), np.argsort(inverse, kind="stable"))
            st = slice_stats(column(np.arange(y.size)), y, bounds)
            np.testing.assert_array_equal(st.counts, counts)

    @pytest.mark.parametrize("y, shape", [
        (np.array([[1.0, 1.0, 2.0, 2.0], [3.0, 3.0, 4.0, 4.0]]), (2, 4)),
        (np.float64(1.0), ()),
    ], ids=["2-d", "0-d"])
    def test_response_must_be_1d(self, y, shape):
        # a batch would be sorted as one flat response, and a scalar read as
        # a response with one value
        with pytest.raises(InvalidArgument, match=f"^y must be 1-d, got shape "
                                                  f"{re.escape(str(shape))}$"):
            discrete_bounds(y)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_response_rejected(self, bad):
        # two NaNs would make a slice of their own
        with pytest.raises(
            DataError, match=f"^response value {bad} at position 2 is not finite$"
        ):
            discrete_bounds(np.array([1.0, 1.0, bad, bad, 2.0, 2.0]))


class TestSliceStats:
    def test_two_point_closed_form(self):
        z = np.array([[-1.0], [1.0]])
        st = slice_stats(z, np.array([0.0, 1.0]), equal_count_bounds(2, 1))
        assert st.means[0, 0] == pytest.approx(0.0)
        assert st.covs[0, 0, 0] == pytest.approx(2.0)

    def test_constant_slice_has_zero_cov(self):
        z = np.ones((4, 2))
        st = slice_stats(z, np.arange(4.0), equal_count_bounds(4, 2))
        np.testing.assert_allclose(st.covs, np.zeros((2, 2, 2)), atol=1e-14)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(1)
        y = rng.standard_normal(23)
        st = slice_stats(rng.standard_normal((23, 2)), y, equal_count_bounds(23, 4))
        assert st.weights.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_array_equal(st.counts, [5, 5, 5, 8])

    def test_weights_of_ragged_discrete_slices(self):
        y = np.random.default_rng(8).permutation(
            np.repeat([0.0, 1.0, 2.0, 3.0, 4.0], [2, 7, 3, 3, 11]))
        st = slice_stats(np.random.default_rng(9).standard_normal((y.size, 2)), y,
                         discrete_bounds(y))
        np.testing.assert_array_equal(st.counts, [2, 7, 3, 3, 11])
        np.testing.assert_array_equal(st.weights, st.counts / y.size)
        assert st.weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_pairwise_difference_identity(self):
        # cov (divisor c-1) equals the double-loop pairwise-difference form
        rng = np.random.default_rng(2)
        z = rng.standard_normal((6, 2))
        st = slice_stats(z, np.arange(6.0), equal_count_bounds(6, 1))
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
        bounds = equal_count_bounds(12, 3)
        st = slice_stats(z, y, bounds)
        for h, idx in enumerate(members(y, bounds)):
            rows = z[idx]
            mean = rows.mean(axis=0)
            acc = sum(np.outer(r - mean, r - mean) for r in rows)
            np.testing.assert_allclose(st.covs[h], acc / (len(idx) - 1), atol=1e-12)
            np.testing.assert_allclose(st.means[h], mean, atol=1e-14)

    def test_weighted_pooling_identity(self):
        # sum_h p_h ((c_h - 1) / c_h S_h + mean_h mean_h') = second moment
        # with divisor n
        rng = np.random.default_rng(4)
        z = rng.standard_normal((40, 3))
        y = rng.standard_normal(40)
        st = slice_stats(z, y, equal_count_bounds(40, 6))
        within = st.weights * (st.counts - 1) / st.counts
        pooled = np.einsum("h,hij->ij", within, st.covs) + np.einsum(
            "h,hi,hj->ij", st.weights, st.means, st.means
        )
        np.testing.assert_allclose(pooled, z.T @ z / 40, atol=1e-10)

    @settings(max_examples=80, deadline=None)
    @given(st_.integers(0, 2**32 - 1), st_.integers(1, 4), st_.booleans(),
           st_.lists(st_.integers(2, 9), min_size=1, max_size=8), st_.integers(0, 30))
    @example(seed=5, p=2, batched=False, counts=[6] * 5, H=5)
    def test_row_permutation_invariance(self, seed, p, batched, counts, H):
        # without ties the slice order is the only order of y, so permuting
        # the rows of z and y together gathers the same rows in the same
        # order and gives the same bits, at equal-count bounds (H > 0) and
        # at the ragged bounds of ``counts`` (H = 0)
        n = sum(counts)
        bounds = (equal_count_bounds(n, min(H, n // 2)) if H
                  else np.append(0, np.cumsum(counts)))
        rng = np.random.default_rng(seed)
        batch = (3,) if batched else ()
        z = rng.standard_normal(batch + (n, p))
        y = rng.standard_normal(batch + (n,))  # continuous, no ties
        perm = rng.permutation(n)
        st = slice_stats(z, y, bounds)
        st_p = slice_stats(z[..., perm, :], y[..., perm], bounds)
        np.testing.assert_allclose(st.means, st_p.means, atol=1e-12)
        np.testing.assert_allclose(st.covs, st_p.covs, atol=1e-12)
        assert_bitwise_stats(st_p, st)

    @pytest.mark.parametrize("offset", [1e4, 1e6, 1e8])
    def test_shift_invariance(self, offset):
        # moments of deviations do not see a common shift of the data;
        # centring raw second moments loses every digit near 1e8
        rng = np.random.default_rng(11)
        z = rng.standard_normal((200, 3))
        y, bounds = rng.standard_normal(200), equal_count_bounds(200, 20)
        st, shifted = slice_stats(z, y, bounds), slice_stats(z + offset, y, bounds)
        for name in ("covs", "mean_cov", "cov_square"):
            np.testing.assert_allclose(
                getattr(shifted, name), getattr(st, name), rtol=0, atol=1e-7
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_z_rejected(self, bad):
        rng = np.random.default_rng(12)
        z = rng.standard_normal((2, 20, 3))
        z[1, 7, 2] = bad
        y = rng.standard_normal((2, 20))
        with pytest.raises(NumericalError, match="^z has non-finite entries$"):
            slice_stats(z, y, equal_count_bounds(20, 4))

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda y, z: slice_stats(z, y, np.array([0.0, 6.0, 12.0])),
             InvalidArgument, "bounds must be a 1-d integer array"),
            (lambda y, z: slice_stats(z, y, np.array([[0, 6, 12]])),
             InvalidArgument, "bounds must be a 1-d integer array"),
            (lambda y, z: equal_count_bounds(10, 0),
             InvalidArgument, "H must be >= 1, got 0"),
            (lambda y, z: slice_stats(np.zeros(12), y, equal_count_bounds(12, 3)),
             InvalidArgument, "z must have shape (..., n, p), got (12,)"),
            (lambda y, z: slice_stats(z, y, np.array([0, 8, 4, 12])),
             InvalidArgument, "bounds must not decrease"),
            (lambda y, z: slice_stats(z, y, np.array([0, 8, 4, 12], dtype=np.uint64)),
             InvalidArgument, "bounds must not decrease"),
            (lambda y, z: slice_stats(z, y, np.array([0, 6, 11])),
             InvalidArgument, "bounds must run from 0 to n, the length of y"),
            (lambda y, z: slice_stats(z, y, np.array([2, 6, 12])),
             InvalidArgument, "bounds must run from 0 to n, the length of y"),
            (lambda y, z: slice_stats(z, y, np.array([12])),
             InvalidArgument, "bounds must run from 0 to n, the length of y"),
            (lambda y, z: equal_count_bounds(12, 2.5),
             InvalidArgument, "H must be an integer, got 2.5"),
            (lambda y, z: equal_count_bounds(12, np.float64(3)),
             InvalidArgument, "H must be an integer, got np.float64(3.0)"),
            (lambda y, z: equal_count_bounds(7.5, 2),
             InvalidArgument, "n must be an integer, got 7.5"),
        ],
        ids=["float-bounds", "bounds-2d", "zero-slices", "z-1d", "decreasing-bounds",
             "decreasing-unsigned-bounds", "short-bounds", "bounds-off-zero",
             "one-bound", "float-slices", "numpy-float-slices", "float-n"],
    )
    def test_invalid_arguments_rejected(self, call, error, message):
        y = np.arange(12.0)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call(y, column(y))

    def test_singleton_assignment_rejected(self):
        with pytest.raises(DataError, match="^every slice needs at least 2 members$"):
            slice_stats(np.zeros((3, 1)), np.arange(3.0), np.array([0, 2, 3]))
        with pytest.raises(DataError, match="^every slice needs at least 2 members$"):
            slice_stats(np.zeros((5, 1)), np.arange(5.0), np.array([0, 1, 5]))

    def test_row_count_must_match_assignment(self):
        # a y of 50 points must not silently slice the first 50 rows of a
        # 100-row z, nor index past a 40-row one
        rng = np.random.default_rng(6)
        y = rng.standard_normal(50)
        for rows in (100, 40):
            with pytest.raises(InvalidArgument, match="^y covers 50 rows but z has "):
                slice_stats(rng.standard_normal((rows, 2)), y, equal_count_bounds(50, 5))

    @pytest.mark.parametrize("z_shape", [(3, 12, 2), (12, 2)])
    def test_order_batch_must_fit_z_batch(self, z_shape):
        # two responses cannot be spread over three z rows, nor over one 2-d z
        rng = np.random.default_rng(7)
        y = rng.standard_normal((2, 12))
        with pytest.raises(
            InvalidArgument,
            match=rf"^y of shape \(2, 12\) does not fit z of shape "
                  rf"{re.escape(str(z_shape))}$",
        ):
            slice_stats(rng.standard_normal(z_shape), y, equal_count_bounds(12, 3))


def loop_oracle(z, y, bounds):
    """Counts, means, covs and the pooled moments V, M = sum_h p_h S_h and
    L = sum_h p_h S_h^2, slice by slice."""
    n, p = z.shape
    counts, means, covs = [], [], []
    fourth, mean_cov, cov_square = np.zeros((3, p, p))
    for idx in members(y, bounds):
        rows = z[idx]
        c = len(idx)
        mean = rows.mean(axis=0)
        dev = rows - mean
        cov = dev.T @ dev / (c - 1)
        counts.append(c)
        means.append(mean)
        covs.append(cov)
        mean_cov += c / n * cov
        cov_square += c / n * cov @ cov
        for d in dev:
            fourth += (d @ d) * np.outer(d, d)
    return (np.array(counts), np.array(means), np.array(covs), fourth / n,
            mean_cov, cov_square)


def reduceat_slice_stats(z, order, bounds):
    """``slice_stats`` of the rows of z in ``order`` (n,) or (..., n), cut
    at ``bounds``, with every slice mean from one ``np.add.reduceat`` over
    the gathered rows, divided by the counts; its deviation, covariance and
    pooling steps are ``slice_stats``' own.  The bitwise reference for both
    of ``slice_stats``' mean paths."""
    z = np.asarray(z, dtype=float)
    batch, n, p = z.shape[:-2], z.shape[-2], z.shape[-1]
    order = np.broadcast_to(order, z.shape[:-1])
    zs = z.reshape(order.size, p)[slicing._flat_index(order)]
    counts = np.diff(bounds)
    means = np.add.reduceat(zs, bounds[:-1], axis=-2) / counts[:, None]
    covs = np.empty(batch + (counts.size, p, p))
    mean_cov = np.zeros(batch + (p, p))
    cov_square = np.zeros(batch + (p, p))
    for lo, hi in slicing._runs(counts):
        c = counts[lo]
        block = zs[..., bounds[lo]:bounds[hi], :].reshape(batch + (hi - lo, int(c), p))
        block -= means[..., lo:hi, None, :]
        out = covs[..., lo:hi, :, :]
        slicing._gram(block, out=out)
        out /= c - 1
        mean_cov += c / n * out.sum(axis=-3)
        cov_square += c / n * slicing._gram(out.reshape(batch + ((hi - lo) * p, p)))
    zs *= np.sqrt(np.einsum("...i,...i->...", zs, zs))[..., None]
    return slicing.SliceStats(
        counts=counts, means=means, covs=covs, weights=counts / n,
        fourth=slicing._gram(zs) / n, mean_cov=mean_cov, cov_square=cov_square,
    )


def assert_bitwise_stats(got, want):
    """The five moment arrays of two SliceStats hold the same bits."""
    for name in ("means", "covs", "fourth", "mean_cov", "cov_square"):
        np.testing.assert_array_equal(
            getattr(got, name).view(np.int64), getattr(want, name).view(np.int64),
            err_msg=name,
        )


class TestPositionSum:
    """At p = 1 slices of up to ``slicing._POSITION_SUM_MAX_C`` points get
    their means from adds over slice positions, all others from reduceat;
    both keep reduceat's bits.  Past c = 8 the position sum no longer does, so
    c = 9 fails here if the cut-off is raised that far, and the
    position-summed sizes fail if a numpy release changes reduceat's
    order."""

    @pytest.mark.parametrize("batch", [(), (3,)])
    @pytest.mark.parametrize("remainder", [False, True])
    @pytest.mark.parametrize("p", [1, 2, 3, 10])
    @pytest.mark.parametrize("c", range(2, 10))
    def test_means_keep_the_bits_of_reduceat(self, c, p, remainder, batch):
        H = 40
        n = H * c + (c - 1 if remainder else 0)  # a last slice of 2c - 1
        rng = np.random.default_rng([c, p, remainder, len(batch)])
        y, bounds = rng.standard_normal(batch + (n,)), equal_count_bounds(n, H)
        order = slice_order(y)
        # mixed magnitudes make the last bits depend on the summation order
        z = rng.standard_normal(batch + (n, p)) * 10.0 ** rng.integers(-3, 4, (n, p))
        # slice 1 holds nothing but -0.0
        np.put_along_axis(z, order[..., bounds[1]:bounds[2], None], -0.0, axis=-2)
        st = slice_stats(z, y, bounds)
        assert_bitwise_stats(st, reduceat_slice_stats(z, order, bounds))
        zero = st.means[..., 1, :]
        assert not zero.any() and np.signbit(zero).all()


def wide_range(rng, shape):
    """Normal draws scaled by 10**e: e in -3..3 for most entries, so the
    last bits depend on the summation order, and in -150..150 for one in
    ten, the widest range whose squares stay finite."""
    e = np.where(rng.random(shape) < 0.9, rng.integers(-3, 4, shape),
                 rng.integers(-150, 151, shape))
    return rng.standard_normal(shape) * 10.0 ** e


def einsum_sums(d):
    """Sums of squares over the last axis of d, by the p = 1 einsum that
    ``slicing._gram`` makes."""
    return np.einsum("...ki,...kj->...ij", d[..., None], d[..., None])[..., 0, 0]


class TestLaneSum:
    """At p = 1, slices of up to ``slicing._POSITION_SUM_MAX_C`` points get
    their covariance sums from squares added in einsum's two-lane order,
    larger ones from einsum; both keep einsum's bits.  That order holds up
    to c = 7 and breaks at c = 8, so the shared cut-off can never pass 7."""

    @pytest.mark.parametrize("batch", [(), (3,)])
    @pytest.mark.parametrize("c", range(2, 8))
    def test_lane_sums_keep_the_bits_of_einsum(self, c, batch):
        d = wide_range(np.random.default_rng([c, len(batch)]), batch + (500, c))
        d[..., ::7, 1] = -0.0
        got = slicing._lane_sum(d * d, out=np.empty(batch + (500,)))
        np.testing.assert_array_equal(got.view(np.int64), einsum_sums(d).view(np.int64))

    def test_lane_order_breaks_at_eight(self):
        d = wide_range(np.random.default_rng(8), (500, 8))
        got = slicing._lane_sum(d * d, out=np.empty(500))
        assert (got.view(np.int64) != einsum_sums(d).view(np.int64)).any()
        assert slicing._POSITION_SUM_MAX_C <= 7

    @pytest.mark.parametrize("batch", [(), (3,)])
    @pytest.mark.parametrize("remainder", [False, True])
    @pytest.mark.parametrize("c", [*range(2, 10), 20])
    def test_p1_covariances_keep_the_bits_of_einsum(self, c, remainder, batch):
        H = 40
        n = H * c + (c - 1 if remainder else 0)  # a last slice of 2c - 1
        rng = np.random.default_rng([c, remainder, len(batch), 1])
        y, bounds = rng.standard_normal(batch + (n,)), equal_count_bounds(n, H)
        z = wide_range(rng, batch + (n, 1))
        z[..., ::5, :] = -0.0
        assert_bitwise_stats(slice_stats(z, y, bounds),
                             reduceat_slice_stats(z, slice_order(y), bounds))


def extreme_deviations(rng, shape):
    """Deviations whose squares leave the normal range: magnitudes near
    1e154 (squares near overflow) and 1e-154 and 1e-162 (squares
    subnormal or zero), subnormals and signed zeros, of either sign."""
    size = int(np.prod(shape))
    e = rng.choice([-163, -162, -161, -155, -154, -153, 153, 154, 155], size)
    d = rng.uniform(1.0, 10.0, size) * 10.0 ** e
    d[::5] = rng.integers(1, 2**52, d[::5].size).view(np.float64)  # subnormal
    d[::7] = 0.0
    d *= rng.choice([-1.0, 1.0], size)
    d[::11] = -0.0
    return d.reshape(shape)


class TestAbsScale:
    """At p = 1, ``slice_stats`` forms V's terms as (d^2)^2 from the squared
    deviations, where the reference scales each d by sqrt(d^2) and squares
    the product.  d |d| is +-d^2 rounded once and d sqrt(d^2) equals it, so
    the forms agree bit for bit, also where d^2 under- or overflows."""

    def test_scaled_values_and_squares(self):
        d = extreme_deviations(np.random.default_rng(67), 200_000)
        with np.errstate(over="ignore"):
            got, want = d * np.abs(d), d * np.sqrt(d * d)
            squares = d * d
            for a, b in ((got, want), (got * got, want * want),
                         (np.abs(got), squares), (squares * squares, want * want)):
                np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))

    @pytest.mark.parametrize("c", [2, 3, 5])
    def test_v_keeps_the_bits_of_the_sqrt_form(self, c):
        # slices (d, -d, ...) have mean 0, so their deviations are the d
        rng = np.random.default_rng([71, c])
        d = extreme_deviations(rng, (2, 400))
        # (d |d|)^2 overflows above |d| = 1e77, so V is finite only in the
        # row that keeps its tiny deviations among ordinary ones
        d[1] = np.where(np.abs(d[1]) > 1.0, rng.standard_normal(400), d[1])
        z = np.stack([d, -d] + [np.zeros_like(d)] * (c - 2), axis=-1)
        z = z.reshape(2, -1, 1)
        y = np.arange(z.shape[-2], dtype=float)
        bounds = equal_count_bounds(y.size, 400)
        with np.errstate(over="ignore", invalid="ignore"):
            got = slice_stats(z, y, bounds)
            want = reduceat_slice_stats(z, slice_order(y), bounds)
        assert got.fourth[0, 0, 0] == np.inf and 0.0 < got.fourth[1, 0, 0] < np.inf
        assert_bitwise_stats(got, want)


@st_.composite
def slicings(draw):
    """(seed, n, p, y, bounds): equal-count slices, often with an n % H
    remainder, or discrete slices with uneven counts in shuffled row order."""
    seed = draw(st_.integers(0, 2**32 - 1))
    p = draw(st_.integers(1, 4))
    rng = np.random.default_rng(seed)
    if draw(st_.booleans()):
        n = draw(st_.integers(4, 60))
        H = draw(st_.integers(1, n // 2))
        y, bounds = rng.standard_normal(n), equal_count_bounds(n, H)
    else:
        counts = draw(st_.lists(st_.integers(2, 9), min_size=2, max_size=8))
        y = rng.permutation(np.repeat(np.arange(len(counts), dtype=float), counts))
        bounds = discrete_bounds(y)
        np.testing.assert_array_equal(np.diff(bounds), counts)
        n = y.size
    return seed, n, p, y, bounds


class TestSliceStatsProperties:
    @settings(max_examples=80, deadline=None)
    @given(slicings())
    def test_matches_per_slice_loop(self, case):
        seed, n, p, y, bounds = case
        z = np.random.default_rng(seed + 1).standard_normal((n, p))
        st = slice_stats(z, y, bounds)
        counts, means, covs, fourth, mean_cov, cov_square = loop_oracle(z, y, bounds)
        np.testing.assert_array_equal(st.counts, counts)
        np.testing.assert_allclose(st.means, means, rtol=0, atol=1e-12)
        np.testing.assert_allclose(st.covs, covs, rtol=0, atol=1e-12)
        np.testing.assert_allclose(st.fourth, fourth, rtol=0, atol=1e-12)
        np.testing.assert_allclose(st.mean_cov, mean_cov, rtol=0, atol=1e-12)
        np.testing.assert_allclose(st.cov_square, cov_square, rtol=0, atol=1e-12)
        np.testing.assert_allclose(st.weights, counts / n, rtol=0, atol=1e-15)

    @settings(max_examples=80, deadline=None)
    @given(slicings())
    def test_bitwise_reduceat_reference(self, case):
        # discrete slices of 2-9 points mix position-summed and reduceat runs
        seed, n, p, y, bounds = case
        z = np.random.default_rng(seed + 1).standard_normal((n, p))
        assert_bitwise_stats(slice_stats(z, y, bounds),
                             reduceat_slice_stats(z, slice_order(y), bounds))

    @settings(max_examples=40, deadline=None)
    @given(slicings())
    def test_hand_built_bounds_rejected(self, case):
        _, n, _, y, bounds = case
        z = np.zeros((n, 1))
        slice_stats(z, y, bounds.copy())  # valid
        for end in (n - 1, n + 1):
            wrong = bounds.copy()
            wrong[-1] = end
            with pytest.raises(InvalidArgument, match="from 0 to"):
                slice_stats(z, y, wrong)
        with pytest.raises(DataError, match="^every slice needs at least 2 members$"):
            slice_stats(z, y, np.array([0, 1, n]))


@st_.composite
def batched_cases(draw):
    """(z, y, bounds) with z of shape (R, n, p) and y of shape (R, n): R
    independent responses over shared bounds, from equal-count slicing
    (often with an n % H remainder) or from ragged slice counts."""
    seed = draw(st_.integers(0, 2**32 - 1))
    R = draw(st_.integers(1, 5))
    p = draw(st_.integers(1, 4))
    rng = np.random.default_rng(seed)
    if draw(st_.booleans()):
        n = draw(st_.integers(4, 60))
        bounds = equal_count_bounds(n, draw(st_.integers(1, n // 2)))
    else:
        counts = draw(st_.lists(st_.integers(2, 9), min_size=2, max_size=8))
        n = sum(counts)
        bounds = np.concatenate([[0], np.cumsum(counts)])
    y = rng.standard_normal((R, n))
    return rng.standard_normal((R, n, p)), y, bounds


class TestBatchedSliceStats:
    @settings(max_examples=80, deadline=None)
    @given(batched_cases())
    def test_rows_match_unbatched_calls_and_loop(self, case):
        z, y, bounds = case
        st = slice_stats(z, y, bounds)
        for r in range(z.shape[0]):
            one = slice_stats(z[r], y[r], bounds)
            counts, means, covs, fourth, mean_cov, cov_square = loop_oracle(z[r], y[r],
                                                                            bounds)
            for got, want_2d, want_loop in (
                (st.means[r], one.means, means),
                (st.covs[r], one.covs, covs),
                (st.fourth[r], one.fourth, fourth),
                (st.mean_cov[r], one.mean_cov, mean_cov),
                (st.cov_square[r], one.cov_square, cov_square),
            ):
                np.testing.assert_allclose(got, want_2d, rtol=0, atol=1e-12)
                np.testing.assert_allclose(got, want_loop, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(one.counts, counts)
        for m in (st.covs, st.fourth, st.mean_cov, st.cov_square):
            np.testing.assert_array_equal(m, m.swapaxes(-1, -2))

    def test_equal_count_sorts_each_row(self):
        rng = np.random.default_rng(8)
        y = rng.standard_normal((3, 23))
        z = rng.standard_normal((3, 23, 2))
        bounds = equal_count_bounds(23, 4)
        np.testing.assert_array_equal(bounds, [0, 5, 10, 15, 23])
        order = stable_order(y)
        st = slice_stats(z, y, bounds)
        assert order.shape == (3, 23) and st.n == 23
        for r in range(3):
            np.testing.assert_array_equal(order[r], stable_order(y[r]))
            np.testing.assert_array_equal(st.means[r], slice_stats(z[r], y[r], bounds).means)

    def test_shared_order_broadcasts_over_the_batch(self):
        rng = np.random.default_rng(9)
        z = rng.standard_normal((2, 30, 3))
        y, bounds = rng.standard_normal(30), equal_count_bounds(30, 5)
        st = slice_stats(z, y, bounds)
        assert st.covs.shape == (2, 5, 3, 3) and st.fourth.shape == (2, 3, 3)
        for r in range(2):
            np.testing.assert_array_equal(st.covs[r], slice_stats(z[r], y, bounds).covs)


def stats_arrays(st):
    """The array fields of a SliceStats, by name."""
    return {f.name: getattr(st, f.name) for f in dataclasses.fields(st)}


def grid_parts(grid, chunk):
    """(i, part) of each slice-moments call that ``grid.moments`` makes on a
    chunk of ``chunk`` replicates, in its order: the i-th H in parts of
    ``grid.sizes[i]``."""
    return [(i, slice(lo, lo + size)) for i, size in enumerate(grid.sizes)
            for lo in range(0, chunk, size)]


def grid_part(pooled, slice_means, i, part):
    """What ``_SliceGrid.moments`` returned for the replicates ``part`` at
    the i-th H, by the names of the ``SliceStats`` fields."""
    means, weights = slice_means[i]
    mean_cov, cov_square, fourth = pooled[:, i, part]
    return dict(means=means[part], weights=weights, mean_cov=mean_cov,
                cov_square=cov_square, fourth=fourth)


def assert_part_is_public(got, want):
    """Each array of ``got`` (``grid_part``) has the shape, dtype and bytes
    of the same field of the SliceStats ``want``."""
    for name, a in got.items():
        b = getattr(want, name)
        assert a.shape == b.shape and a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


class TestSliceGrid:
    """``_SliceGrid.moments`` returns one (3, H grid, chunk, p, p) stack of
    M, L and V and each H's means and weights, each part of them the
    public ``slice_stats`` of that part, bit for bit."""

    @pytest.mark.parametrize("p", (1, 2, 3, 10))
    def test_stack_and_means_equal_public_slice_stats(self, p):
        # n = 203 leaves a remainder in the last slice at every H; from
        # p = 3 on, H = 101 slices the chunk in parts of 2 (and H = 67 in
        # parts of 3 at p = 10), which no H can do at p <= 2
        n, h_grid = 203, [2, 67, 8, 101]
        grid = slicing._SliceGrid(n, p, h_grid)
        assert grid.sizes == [min(p, n // H) for H in h_grid]
        rng = np.random.default_rng(p)
        chunk = grid.chunk
        z = rng.standard_normal((chunk, n, p)) * 1e3 + 7.0
        y = rng.standard_normal((chunk, n))
        grid.check(z)
        pooled, slice_means = grid.moments(z, y)
        assert pooled.shape == (3, len(h_grid), chunk, p, p)
        assert [means.shape for means, _ in slice_means] == [(chunk, H, p) for H in h_grid]
        assert any(size < chunk for size in grid.sizes) == (p > 2)
        for i, part in grid_parts(grid, chunk):
            want = slice_stats(z[part], y[part], equal_count_bounds(y.shape[-1], h_grid[i]))
            assert_part_is_public(grid_part(pooled, slice_means, i, part), want)


class TestWorkBuffers:
    """Public calls return arrays of their own; engine calls that share
    ``slicing._Buffers`` give the same bits as fresh calls."""

    def test_buffers_grow_only(self):
        buffers = slicing._Buffers()
        first = buffers.get("a", (4, 5))
        assert first.shape == (4, 5) and first.dtype == np.float64
        assert np.shares_memory(buffers.get("a", (3,)), first)
        grown = buffers.get("a", (30,))
        assert not np.shares_memory(grown, first)
        assert np.shares_memory(buffers.get("a", (2, 10)), grown)
        assert not np.shares_memory(buffers.get("b", (2,)), grown)
        assert buffers.get("a", (2,), np.intp).dtype == np.intp

    def test_back_to_back_slice_stats_leave_the_first_unchanged(self):
        rng = np.random.default_rng(21)
        y, bounds = rng.standard_normal((2, 60)), equal_count_bounds(60, 7)
        z1, z2 = rng.standard_normal((2, 2, 60, 3))
        first = slice_stats(z1, y, bounds)
        kept = {name: v.copy() for name, v in stats_arrays(first).items()}
        second = slice_stats(z2, y, bounds)
        for name, v in stats_arrays(first).items():
            np.testing.assert_array_equal(v, kept[name])
            assert not np.shares_memory(v, getattr(second, name)), name

    def test_back_to_back_stable_orders_leave_the_first_unchanged(self):
        rng = np.random.default_rng(22)
        y1, y2 = rng.standard_normal((2, 3, 500))
        first = stable_order(y1)
        kept = first.copy()
        second = stable_order(y2)
        np.testing.assert_array_equal(first, kept)
        np.testing.assert_array_equal(first, np.argsort(y1, axis=-1, kind="stable"))
        assert not np.shares_memory(first, second)

    def test_shared_buffers_give_the_bits_of_fresh_calls(self):
        # chunks grow, shrink and grow again in one grid's buffers; a tie
        # sends one y through the stable fallback
        rng = np.random.default_rng(23)
        h_grid = (9, 13, 30, 4)
        grid = slicing._SliceGrid(90, 2, h_grid)
        for chunk in (2, 1, 3, 2):
            y = rng.standard_normal((chunk, 90))
            if chunk == 1:
                y[0, 5] = y[0, 9]
            np.testing.assert_array_equal(stable_order(y, grid.buffers), stable_order(y))
            z = rng.standard_normal((chunk, 90, 2)) * 1e3
            pooled, slice_means = grid.moments(z, y)
            for i, part in grid_parts(grid, chunk):
                want = slice_stats(z[part], y[part], equal_count_bounds(y.shape[-1], h_grid[i]))
                assert_part_is_public(grid_part(pooled, slice_means, i, part), want)


def assert_exactly_symmetric(st):
    """Every moment of the stats, and the SAVE / CSAVE candidates built
    from them, equals its transpose bit for bit."""
    for m in (st.covs, st.fourth, st.mean_cov, st.cov_square,
              candidate_matrix("save", st), candidate_matrix("csave", st)):
        assert np.array_equal(m, m.swapaxes(-1, -2))


@st_.composite
def symmetry_cases(draw):
    """(z, y, bounds) with z of shape (R, n, p), p up to 12, over batched
    equal-count slices (often with an n % H remainder) or one shared ragged
    discrete slicing, at scales from 1e-3 to 1e7 off the origin."""
    rng = np.random.default_rng(draw(st_.integers(0, 2**32 - 1)))
    R = draw(st_.integers(1, 4))
    p = draw(st_.integers(1, 12))
    if draw(st_.booleans()):
        n = draw(st_.integers(4, 200))
        H = draw(st_.integers(1, n // 2))
        y, bounds = rng.standard_normal((R, n)), equal_count_bounds(n, H)
    else:
        counts = draw(st_.lists(st_.integers(2, 30), min_size=2, max_size=10))
        y = rng.permutation(np.repeat(np.arange(len(counts), dtype=float), counts))
        bounds = discrete_bounds(y)
    scale = 10.0 ** draw(st_.integers(-3, 7))
    z = scale * (rng.standard_normal((R, y.shape[-1], p)) + rng.standard_normal(p))
    return z, y, bounds


class TestExactSymmetry:
    """slice_stats returns exactly symmetric moments without symmetrizing
    them, because every Gram product it forms is exactly symmetric."""

    @settings(max_examples=100, deadline=None)
    @given(symmetry_cases())
    def test_moments_equal_their_transpose(self, case):
        z, y, bounds = case
        assert_exactly_symmetric(slice_stats(z, y, bounds))
        # a non-contiguous view of the same data
        assert_exactly_symmetric(slice_stats(z[..., ::-1], y, bounds))

    @pytest.mark.parametrize(
        "shape, H",
        [((5, 480, 10), 96), ((10007, 10), 500), ((1, 20000, 1), 10000)],
        # "c-1" names the divisor of the slice covariances
        ids=["grid-chunk-c-1", "estimate-csv-c-1", "null-fine-c2-c-1"],
    )
    def test_benchmark_shapes(self, shape, H):
        rng = np.random.default_rng(17)
        y = rng.standard_normal(shape[:-1])
        st = slice_stats(rng.standard_normal(shape), y, equal_count_bounds(shape[-2], H))
        assert_exactly_symmetric(st)
