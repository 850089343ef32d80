"""Subspace metric tests: containment, orthogonality, invariances."""

import numpy as np
import pytest

from slicesdr import r2_single
from slicesdr.errors import InvalidArgument, NumericalError
from slicesdr.metrics import _orthonormalize, _r2_rows
from oracles import trace_correlation


def e(i, p=3):
    v = np.zeros(p)
    v[i] = 1.0
    return v


class TestR2Single:
    def test_containment(self):
        basis = np.column_stack([e(0), e(1)])
        beta = (e(0) + e(1)) / np.sqrt(2)
        assert r2_single(beta, basis) == pytest.approx(1.0, abs=1e-14)

    def test_orthogonality(self):
        assert r2_single(e(2), np.column_stack([e(0), e(1)])) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_diagonal_projection(self):
        beta = np.array([1.0, 1.0]) / np.sqrt(2)
        assert r2_single(beta, np.array([[1.0], [0.0]])) == pytest.approx(0.5)

    def test_sign_invariance_exact(self):
        rng = np.random.default_rng(0)
        basis = rng.standard_normal((5, 2))
        beta = rng.standard_normal(5)
        assert r2_single(beta, basis) == r2_single(-beta, basis)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        basis = rng.standard_normal((4, 2))
        beta = rng.standard_normal(4)
        assert r2_single(3.7 * beta, basis) == pytest.approx(
            r2_single(beta, basis), abs=1e-12
        )

    def test_zero_vector_rejected(self):
        with pytest.raises(NumericalError, match="^beta_hat is the zero vector$"):
            r2_single(np.zeros(3), np.eye(3))

    def test_wide_basis_rejected(self):
        with pytest.raises(NumericalError,
                           match=r"^basis \(3, 4\) has more columns than rows$"):
            r2_single(e(0), np.eye(3, 4))

    @pytest.mark.parametrize("beta_hat, message", [
        # a (p, 1) column, as cdr_basis returns at k = 1, scored 1.0 ten
        # times against e_1; its true R^2 is 0.1
        (np.ones((10, 1)) / np.sqrt(10),
         r"beta_hat of shape \(10, 1\) needs a last axis of 10, the rows of true_basis"),
        (np.ones(3),
         r"beta_hat of shape \(3,\) needs a last axis of 10, the rows of true_basis"),
    ], ids=["column", "short"])
    def test_shape_mismatch_rejected(self, beta_hat, message):
        with pytest.raises(InvalidArgument, match=f"^{message}$"):
            r2_single(beta_hat, np.eye(10)[0])

    def test_rank_deficient_basis_rejected(self):
        basis = np.column_stack([e(0), e(0)])
        with pytest.raises(NumericalError, match="^basis is rank deficient$"):
            r2_single(e(1), basis)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        # a NaN basis passed the rank check and scored 1.0
        with pytest.raises(NumericalError, match="^basis is not finite$"):
            r2_single([1.0, 0.0], [bad, 0.0])
        with pytest.raises(NumericalError, match="^beta_hat is not finite$"):
            r2_single([bad, 0.0], [1.0, 0.0])
        with pytest.raises(NumericalError, match="^beta_hat is not finite$"):
            r2_single(np.array([e(0), [0.0, bad, 0.0]]), e(0))


class TestR2SingleBatched:
    def test_rows_equal_unbatched_calls(self):
        rng = np.random.default_rng(3)
        betas = rng.standard_normal((7, 4))
        basis = rng.standard_normal((4, 2))
        got = r2_single(betas, basis)
        assert got.shape == (7,)
        want = [r2_single(b, basis) for b in betas]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1e-310, 1e300, 1e-158, 1e-161])
    def test_squared_norm_out_of_range_is_rescaled(self, scale):
        # ||b||^2 overflows or underflows: inf/inf and 0/0 gave NaN, and a
        # subnormal one 0.0990 for 0.1 at 1e-161
        assert r2_single([scale, scale], [1.0, 0.0]) == 0.5
        assert r2_single([scale, -3 * scale], [1.0, 0.0]) == pytest.approx(0.1, rel=1e-15)

    def test_rescaling_leaves_other_rows_their_bits(self):
        rng = np.random.default_rng(11)
        vecs = rng.standard_normal((6, 5, 5))
        vecs[1, :, 0] *= 1e200
        vecs[4, :, 0] *= 1e-200
        basis = rng.standard_normal((5, 2))
        lead = vecs[..., 0]  # strided rows, as the grid scores them
        got = r2_single(lead, basis)
        q = np.linalg.qr(basis)[0]
        proj = np.einsum("ik,...i->...k", q, lead)
        with np.errstate(invalid="ignore"):
            want = np.einsum("...k,...k->...", proj, proj) / np.einsum(
                "...i,...i->...", lead, lead)
        keep = [0, 2, 3, 5]
        assert got[keep].tobytes() == want[keep].tobytes()
        for r in (1, 4):
            assert np.isnan(want[r])
            assert got[r] == pytest.approx(r2_single(vecs[r, :, 0] / vecs[r, 0, 0], basis),
                                           rel=1e-14)

    @pytest.mark.parametrize("k", [1, 3])
    def test_scorer_over_a_basis_factored_once_is_r2_single_bitwise(self, k):
        # the grid orthonormalizes its basis once per call and scores every
        # model's rows through the scorer behind r2_single
        rng = np.random.default_rng(12)
        vecs = rng.standard_normal((7, 6, 6))
        for r, scale in ((1, 1e200), (2, 1e-200), (4, 1e-310), (5, 2.0**600)):
            vecs[r, :, 0] *= scale
        basis = rng.standard_normal((6, k))
        lead = vecs[..., 0]  # strided rows, as the grid scores them
        q = _orthonormalize(basis)
        got = _r2_rows(lead, q)
        assert got.tobytes() == r2_single(lead, basis).tobytes()
        for row, score in zip(lead, got):
            assert _r2_rows(row, q) == score == r2_single(row, basis)
        for bad, message in ((np.nan, "beta_hat is not finite"),
                             (0.0, "beta_hat is the zero vector")):
            rows = lead.copy()
            rows[3] *= bad
            with pytest.raises(NumericalError, match=f"^{message}$"):
                _r2_rows(rows, q)

    def test_one_zero_row_rejected(self):
        betas = np.array([e(0), np.zeros(3), e(2)])
        with pytest.raises(NumericalError, match="^beta_hat is the zero vector$"):
            r2_single(betas, e(0))


class TestTraceCorrelation:
    def test_identical_subspaces(self):
        rng = np.random.default_rng(4)
        basis = rng.standard_normal((5, 2))
        assert trace_correlation(basis, basis).r2 == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_lines(self):
        m = trace_correlation(e(0)[:, None], e(1)[:, None])
        assert m.r2 == pytest.approx(0.0, abs=1e-14)
        assert m.k == 1

    def test_half_overlap_coordinate_planes(self):
        hat = np.column_stack([e(0), e(1)])
        true = np.column_stack([e(0), e(2)])
        assert trace_correlation(hat, true).r2 == pytest.approx(0.5, abs=1e-12)

    def test_basis_recombination_invariance(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 3))
        b = rng.standard_normal((6, 3))
        t1 = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        t2 = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        base = trace_correlation(a, b).r2
        assert trace_correlation(a @ t1, b).r2 == pytest.approx(base, abs=1e-10)
        assert trace_correlation(a, b @ t2).r2 == pytest.approx(base, abs=1e-10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_basis_rejected(self, bad):
        hat = np.column_stack([e(0), e(1)])
        hat[2, 1] = bad
        with pytest.raises(NumericalError, match="^basis is not finite$"):
            trace_correlation(hat, np.column_stack([e(0), e(2)]))

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((5, 2))
        b = rng.standard_normal((5, 2))
        assert trace_correlation(a, b).r2 == pytest.approx(
            trace_correlation(b, a).r2, abs=1e-12
        )

    def test_k1_agrees_with_r2_single(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = rng.standard_normal((4, 1))
            b = rng.standard_normal((4, 1))
            assert trace_correlation(a, b).r2 == pytest.approx(
                r2_single(a[:, 0], b), abs=1e-12
            )

    def test_per_direction_breakdown(self):
        hat = np.column_stack([e(0), e(1)])
        true = np.column_stack([e(0), e(2)])
        m = trace_correlation(hat, true)
        np.testing.assert_allclose(sorted(m.per_direction), [0.0, 1.0], atol=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a = rng.standard_normal((6, 2))
            b = rng.standard_normal((6, 2))
            r2 = trace_correlation(a, b).r2
            assert -1e-12 <= r2 <= 1.0 + 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(NumericalError,
                           match=r"^bases must share shape, got \(3, 2\) vs \(3, 1\)$"):
            trace_correlation(np.eye(3)[:, :2], np.eye(3)[:, :1])
