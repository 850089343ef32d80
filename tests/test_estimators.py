"""Kernel-matrix estimator tests.

Oracles, computed independently of the implementation path:

* the literal quadruple sum over index pairs (l, j, v, u) with normalizer
  1 / (n c (c-1)^2) for the slice-covariance-square matrix;
* the algebraic expansion sum_h p_h (I - S_h)^2 = I - 2 mean(S) + mean(S^2);
* the exact-debias scalar identity a(c) [((c-1)^2+1)/(c(c-1)) L + V/c]
  - b(c) V = L;
* closed-form Gaussian moments for the pure-noise calibration.  For i.i.d.
  standard normals the within-slice sample variance s^2 (divisor c-1) has
  E[s^4] = 1 + 2/(c-1), so E[Lambda_n] = 3 exactly at c = 2, and a slice
  deviation d = z - zbar is N(0, (c-1)/c), so E[V_n] = 3 ((c-1)/c)^2.
  Combining, E[corrected] = (c^3 (c+1) - 3 (c-1)^3) / (c^2 ((c-1)^2 + 1)),
  which is 2.625 at c = 2 and ~1.494 at c = 4: at fixed c the correction
  shrinks the small-slice bias (2/(c-1) -> ~7/c^2) but does not remove it.
"""

import numpy as np
import pytest

from slicesdr import (
    Dataset,
    cdr_basis,
    correction_coefficients,
    ensure_symmetric,
    csave_matrix,
    lambda_corrected,
    lambda_n,
    negative_eigenvalue_count,
    save_matrix,
    sir_matrix,
    slice_equal_count,
    slice_stats,
    standardize,
    sym_eig,
)
from slicesdr.errors import AmbiguousDimensionWarning, InvalidSliceSize
from slicesdr.slicing import SliceAssignment


def sorted_stats(z, y, H, divisor="c-1"):
    a = slice_equal_count(y, H)
    return a, slice_stats(z, a, divisor=divisor)


def exact_lambda_mean(c):
    return 1.0 + 2.0 / (c - 1)


def exact_corrected_mean(c):
    return (c ** 3 * (c + 1) - 3.0 * (c - 1) ** 3) / (c ** 2 * ((c - 1) ** 2 + 1))


def sir_identity_minus(st):
    """The SIR variant I - sum_h p_h cov_h, which targets the same matrix."""
    return np.eye(st.p) - np.einsum("h,hij->ij", st.weights, st.covs)


class TestSir:
    def test_zero_between_slice_signal(self):
        # every slice is (v, -v): slice means vanish
        z = np.array([[1.0], [-1.0], [2.0], [-2.0]])
        _, st = sorted_stats(z, np.array([0.0, 0.1, 1.0, 1.1]), 2)
        m = sir_matrix(st)
        np.testing.assert_allclose(m, np.zeros((1, 1)), atol=1e-14)

    def test_scalar_closed_form(self):
        # means -a and +a with equal weights: matrix value a^2
        a = 0.7
        z = np.array([[-a - 0.1], [-a + 0.1], [a - 0.1], [a + 0.1]])
        _, st = sorted_stats(z, np.arange(4.0), 2)
        assert sir_matrix(st)[0, 0] == pytest.approx(a * a, abs=1e-12)

    def test_form_agreement_tightens_with_n(self):
        # the two SIR forms differ by O(1/n) at fixed H on standardized data
        H, p, seeds = 10, 3, 50
        gaps = {200: [], 2000: []}
        for n in gaps:
            for seed in range(seeds):
                rng = np.random.default_rng(seed)
                x = rng.standard_normal((n, p))
                y = x[:, 0] + 0.5 * rng.standard_normal(n)
                z = standardize(Dataset(x=x, y=y)).z
                _, st = sorted_stats(z, y, H)
                diff = sir_matrix(st) - sir_identity_minus(st)
                gaps[n].append(np.linalg.norm(diff))
        assert np.mean(gaps[200]) / np.mean(gaps[2000]) >= 5.0

    def test_forms_share_leading_eigenvector(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((120, 4))
        y = x[:, 0] + 0.1 * rng.standard_normal(120)
        z = standardize(Dataset(x=x, y=y)).z
        _, st = sorted_stats(z, y, 6)
        b1 = sym_eig(sir_matrix(st)).vectors[:, 0]
        b2 = sym_eig(sir_identity_minus(st)).vectors[:, 0]
        assert abs(b1 @ b2) == pytest.approx(1.0, abs=1e-8)

    def test_psd_and_slice_relabel_invariance(self):
        rng = np.random.default_rng(10)
        z = rng.standard_normal((60, 3))
        y = rng.standard_normal(60)
        a, st = sorted_stats(z, y, 5)
        m = sir_matrix(st)
        assert sym_eig(m).values[-1] >= -1e-8 * np.trace(m)
        # permuting slice labels leaves the weighted sum unchanged
        slices = [a.order[a.bounds[h]:a.bounds[h + 1]] for h in range(a.H)][::-1]
        perm = SliceAssignment(
            order=np.concatenate(slices),
            bounds=np.concatenate([[0], np.cumsum([len(s) for s in slices])]),
        )
        m2 = sir_matrix(slice_stats(z, perm))
        np.testing.assert_allclose(m, m2, atol=1e-12)


class TestSave:
    def test_unit_slice_covariances_give_zero(self):
        # c=2 pairs with difference sqrt(2) have unbiased variance exactly 1
        step = np.sqrt(2.0)
        z = np.array([[0.0], [step], [5.0], [5.0 + step]])
        _, st = sorted_stats(z, np.arange(4.0), 2)
        np.testing.assert_allclose(save_matrix(st), [[0.0]], atol=1e-12)

    def test_scalar_two_slice_value(self):
        # slice variances 0 and 2 with equal weights -> (1 + 1)/2 = 1
        z = np.array([[1.0], [1.0], [0.0], [2.0]])
        _, st = sorted_stats(z, np.arange(4.0), 2)
        assert save_matrix(st)[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_expansion_identity(self):
        # sum_h p_h (I - S_h)^2 = I - 2 mean(S) + mean(S^2), same divisor
        rng = np.random.default_rng(11)
        for _ in range(5):
            z = rng.standard_normal((36, 3))
            y = rng.standard_normal(36)
            _, st = sorted_stats(z, y, 4)
            lhs = save_matrix(st)
            mean_cov = np.einsum("h,hij->ij", st.weights, st.covs)
            rhs = np.eye(3) - 2 * mean_cov + lambda_n(st)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_psd(self):
        rng = np.random.default_rng(12)
        z = rng.standard_normal((48, 4))
        _, st = sorted_stats(z, rng.standard_normal(48), 6)
        m = save_matrix(st)
        assert sym_eig(m).values[-1] >= -1e-8 * np.trace(m)


class TestLambdaN:
    def test_identity_slices(self):
        step = np.sqrt(2.0)
        z = np.array([[0.0], [step], [3.0], [3.0 + step]])
        _, st = sorted_stats(z, np.arange(4.0), 2)
        np.testing.assert_allclose(lambda_n(st), [[1.0]], atol=1e-12)

    def test_scalar_average_of_squares(self):
        # variances 1 and 3, equal weights -> (1 + 9)/2 = 5
        r = np.sqrt(2.0) / 2
        z = np.array([[-r], [r], [-r * np.sqrt(3)], [r * np.sqrt(3)]])
        _, st = sorted_stats(z, np.arange(4.0), 2)
        assert lambda_n(st)[0, 0] == pytest.approx(5.0, abs=1e-12)

    def test_quadruple_sum_oracle(self):
        # literal four-index sum with normalizer 1/(n c (c-1)^2)
        rng = np.random.default_rng(13)
        cases = 0
        while cases < 20:
            p = int(rng.integers(1, 4))
            c = int(rng.integers(2, 6))
            H = int(rng.integers(2, 5))
            n = c * H
            if n > 40:
                continue
            cases += 1
            z = rng.standard_normal((n, p))
            y = rng.standard_normal(n)
            a, st = sorted_stats(z, y, H)
            zs = z[a.order]
            acc = np.zeros((p, p))
            for h in range(H):
                rows = zs[h * c : (h + 1) * c]
                for l in range(1, c):
                    for j in range(l):
                        dlj = np.outer(rows[l] - rows[j], rows[l] - rows[j])
                        for v in range(1, c):
                            for u in range(v):
                                dvu = np.outer(rows[v] - rows[u], rows[v] - rows[u])
                                acc += dlj @ dvu
            oracle = acc / (n * c * (c - 1) ** 2)
            got = lambda_n(st)
            assert np.linalg.norm(got - oracle) <= 1e-9 * max(
                np.linalg.norm(oracle), 1e-12
            )


class TestVn:
    def test_single_slice_unit_fourth_powers(self):
        z = np.array([[-1.0], [1.0]])
        a = slice_equal_count(np.array([0.0, 1.0]), 1)
        assert slice_stats(z, a).fourth[0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_degenerate_spread(self):
        z = np.ones((6, 2))
        a = slice_equal_count(np.arange(6.0), 3)
        np.testing.assert_allclose(slice_stats(z, a).fourth, np.zeros((2, 2)), atol=1e-14)

    def test_gaussian_fourth_moment_level(self):
        # pure noise, c = 10: slice deviations are N(0, (c-1)/c), so the
        # exact mean of V_n is 3 ((c-1)/c)^2 = 2.43 (not the raw E z^4 = 3;
        # the within-slice centering factor never vanishes at fixed c)
        n, c, reps = 5000, 10, 40
        vals = []
        for seed in range(reps):
            rng = np.random.default_rng(1000 + seed)
            z = rng.standard_normal((n, 1))
            y = rng.standard_normal(n)
            a = slice_equal_count(y, n // c)
            vals.append(slice_stats(z, a).fourth[0, 0])
        assert np.mean(vals) == pytest.approx(3.0 * ((c - 1) / c) ** 2, abs=0.1)


class TestLambdaCorrected:
    def test_c2_coefficients(self):
        a, b = correction_coefficients(2)
        assert (a, b) == (1.0, 0.5)

    def test_zero_inputs(self):
        rng = np.random.default_rng(14)
        y = rng.standard_normal(8)
        _, st = sorted_stats(np.zeros((8, 2)), y, 4)
        out = lambda_corrected(st)
        np.testing.assert_allclose(out, np.zeros((2, 2)), atol=1e-14)

    def test_exact_debias_scalar_identity(self):
        # plugging the leading-term mean of the raw estimator back into the
        # corrected combination returns the target exactly
        rng = np.random.default_rng(15)
        for c in (2, 3, 5, 10):
            a, b = correction_coefficients(c)
            for _ in range(10):
                lam_target = rng.uniform(0.1, 5.0)
                v_target = rng.uniform(0.1, 5.0)
                raw_mean = ((c - 1) ** 2 + 1) / (c * (c - 1)) * lam_target + (
                    v_target / c
                )
                recovered = a * raw_mean - b * v_target
                assert recovered == pytest.approx(lam_target, abs=1e-12)

    def test_small_c_rejected(self):
        with pytest.raises(InvalidSliceSize):
            correction_coefficients(1)

    def test_uses_global_slice_size(self):
        # n = 23, H = 4: slices of 5, 5, 5, 8 take the c = 23 // 4 = 5 weights
        rng = np.random.default_rng(16)
        _, st = sorted_stats(rng.standard_normal((23, 2)), rng.standard_normal(23), 4)
        a, b = correction_coefficients(5)
        np.testing.assert_array_equal(
            lambda_corrected(st),
            ensure_symmetric(a * lambda_n(st) - b * st.fourth),
        )


class TestCsave:
    def test_unit_variance_slices_reduce_to_minus_half_v(self):
        # every slice covariance exactly I at c=2 -> csave = -V_n / 2
        step = np.sqrt(2.0)
        z = np.array([[0.0], [step], [4.0], [4.0 + step], [9.0], [9.0 + step]])
        y = np.arange(6.0)
        _, st = sorted_stats(z, y, 3)
        expected = -0.5 * st.fourth
        np.testing.assert_allclose(csave_matrix(st), expected, atol=1e-12)

    def test_assembly_identity(self):
        rng = np.random.default_rng(18)
        z = rng.standard_normal((40, 3))
        y = rng.standard_normal(40)
        _, st = sorted_stats(z, y, 5)
        c = 40 // 5
        coeff_a, coeff_b = correction_coefficients(c)
        mean_cov = np.einsum("h,hij->ij", st.weights, st.covs)
        manual = (
            np.eye(3)
            - 2 * mean_cov
            + coeff_a * lambda_n(st)
            - coeff_b * st.fourth
        )
        np.testing.assert_allclose(csave_matrix(st), manual, atol=1e-13)

    def test_large_c_limit_bound(self):
        rng = np.random.default_rng(19)
        n, c = 2000, 1000
        z = rng.standard_normal((n, 2))
        y = rng.standard_normal(n)
        _, st = sorted_stats(z, y, n // c)
        cs = csave_matrix(st)
        sv = save_matrix(st)
        lam = np.linalg.norm(lambda_n(st))
        v = np.linalg.norm(st.fourth)
        coeff_a, _ = correction_coefficients(c)
        bound = 2 * v / c + lam * abs(coeff_a - 1.0)
        assert np.linalg.norm(cs - sv) <= bound + 1e-12

    def test_requires_unbiased_divisor(self):
        rng = np.random.default_rng(20)
        z = rng.standard_normal((12, 2))
        y = rng.standard_normal(12)
        _, st = sorted_stats(z, y, 3, divisor="c")
        with pytest.raises(InvalidSliceSize, match="c-1"):
            csave_matrix(st)


class TestNullCalibration:
    """Pure-noise levels of the raw and corrected estimators (p = 1).

    Exact Gaussian targets, not asymptotic approximations: at c = 2 the raw
    estimator averages to 3.0 and the corrected one to 2.625; the correction
    shrinks the fixed-c bias but cannot remove it.
    """

    def run(self, n, c, reps):
        raw, cor = [], []
        for seed in range(reps):
            rng = np.random.default_rng(31000 + seed)
            z = rng.standard_normal((n, 1))
            y = rng.standard_normal(n)
            _, st = sorted_stats(z, y, n // c)
            raw.append(lambda_n(st)[0, 0])
            cor.append(lambda_corrected(st)[0, 0])
        return np.array(raw), np.array(cor)

    def test_c2_levels(self):
        raw, cor = self.run(n=4000, c=2, reps=60)
        assert np.mean(raw) == pytest.approx(exact_lambda_mean(2), abs=0.1)
        assert np.mean(cor) == pytest.approx(exact_corrected_mean(2), abs=0.07)

    def test_fixed_c4_bias_persists_but_shrinks(self):
        # raw bias 2/3 stays above 0.5 at every n; corrected bias ~0.494 is
        # smaller than the raw bias at every n but does not vanish with n
        med_raw, med_cor = {}, {}
        for n in (400, 1600, 6400):
            raw, cor = self.run(n=n, c=4, reps=40)
            med_raw[n] = np.median(np.abs(raw - 1.0))
            med_cor[n] = np.median(np.abs(cor - 1.0))
            assert med_raw[n] > 0.5
            assert med_cor[n] < med_raw[n]
        assert med_cor[6400] == pytest.approx(
            exact_corrected_mean(4) - 1.0, abs=0.08
        )


class TestCdrBasis:
    def sd(self, p=3):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((50, p))
        return standardize(Dataset(x=x, y=np.zeros(50)))

    def make(self, matrix):
        return sym_eig(np.asarray(matrix, dtype=float))

    def test_diagonal_top_direction(self):
        basis = cdr_basis(self.make(np.diag([5.0, 1.0, 0.0])), 1, self.sd())
        np.testing.assert_allclose(np.abs(basis.betas_z[:, 0]), [1, 0, 0], atol=1e-12)
        np.testing.assert_allclose(basis.eigenvalues, [5.0])
        assert not basis.ambiguous

    def test_identity_flags_ambiguous(self):
        with pytest.warns(AmbiguousDimensionWarning):
            basis = cdr_basis(self.make(np.eye(3)), 1, self.sd())
        assert basis.ambiguous

    def test_orthonormal_betas(self):
        rng = np.random.default_rng(22)
        a = rng.standard_normal((4, 4))
        basis = cdr_basis(self.make((a + a.T) / 2), 2, self.sd(p=4))
        np.testing.assert_allclose(
            basis.betas_z.T @ basis.betas_z, np.eye(2), atol=1e-10
        )
        np.testing.assert_allclose(
            np.linalg.norm(basis.betas_x, axis=0), np.ones(2), atol=1e-12
        )

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            cdr_basis(self.make(np.eye(3)), 0, self.sd())
        with pytest.raises(ValueError):
            cdr_basis(self.make(np.eye(3)), 4, self.sd())


def test_negative_eigenvalue_count():
    assert negative_eigenvalue_count(sym_eig(np.diag([2.0, -0.5, -0.1]))) == 2
