"""Subspace metric tests: containment, orthogonality, invariances."""

import numpy as np
import pytest

from slicesdr import r2_single
from slicesdr.errors import DegenerateSubspace
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
        with pytest.raises(DegenerateSubspace):
            r2_single(np.zeros(3), np.eye(3))

    def test_rank_deficient_basis_rejected(self):
        basis = np.column_stack([e(0), e(0)])
        with pytest.raises(DegenerateSubspace):
            r2_single(e(1), basis)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        # a NaN basis passed the rank check and scored 1.0
        with pytest.raises(DegenerateSubspace, match="^basis is not finite$"):
            r2_single([1.0, 0.0], [bad, 0.0])
        with pytest.raises(DegenerateSubspace, match="^beta_hat is not finite$"):
            r2_single([bad, 0.0], [1.0, 0.0])
        with pytest.raises(DegenerateSubspace, match="^beta_hat is not finite$"):
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

    def test_one_zero_row_rejected(self):
        betas = np.array([e(0), np.zeros(3), e(2)])
        with pytest.raises(DegenerateSubspace):
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
        with pytest.raises(DegenerateSubspace, match="^basis is not finite$"):
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
        with pytest.raises(DegenerateSubspace):
            trace_correlation(np.eye(3)[:, :2], np.eye(3)[:, :1])
