"""Symmetric-matrix kernel tests.

Oracles: hand-expanded 2x2 characteristic polynomial for eigenvalues, the
defining identity R m R = I for the inverse square root, and eigenvalue
differences of perturbed matrices for the first-order expansion.
"""

import numpy as np
import pytest

from slicesdr import (
    candidate_matrix,
    ensure_symmetric,
    inv_sqrt,
    r2_single,
    slice_equal_count,
    slice_stats,
    sym_eig,
)
from slicesdr.linalg import _leading_vectors
from slicesdr.errors import InvalidArgument, NumericalError, SingularCovariance
from oracles import DegenerateEigenvalue, eigen_perturb_first_order

#: Whole messages of the NumericalErrors that the symmetric checks and the
#: solver raise.
NONFINITE = "^matrix has non-finite entries$"
ASYMMETRIC = "^matrix is not symmetric within tolerance$"
EIGH_FAILED = "^symmetric eigendecomposition failed: Eigenvalues did not converge$"


def random_spd(rng, p, cond=10.0):
    q = np.linalg.qr(rng.standard_normal((p, p)))[0]
    vals = np.linspace(1.0, cond, p)
    return (q * vals) @ q.T


class TestSymEig:
    def test_identity(self):
        res = sym_eig(np.eye(3))
        np.testing.assert_allclose(res.values, np.ones(3))
        np.testing.assert_allclose(res.vectors, np.eye(3))

    def test_diagonal_already_sorted(self):
        res = sym_eig(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(res.values, [3.0, 1.0])
        np.testing.assert_allclose(res.vectors, np.eye(2))

    def test_two_by_two_against_quadratic_roots(self):
        # det([[2-t, 1], [1, 2-t]]) = t^2 - 4t + 3; roots by the formula
        a, b, c = 1.0, -4.0, 3.0
        disc = np.sqrt(b * b - 4 * a * c)
        roots = sorted([(-b + disc) / (2 * a), (-b - disc) / (2 * a)], reverse=True)
        res = sym_eig([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(res.values, roots, atol=1e-12)

    def test_reconstruction_and_orientation(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = rng.integers(2, 9)
            a = rng.standard_normal((p, p))
            m = (a + a.T) / 2
            res = sym_eig(m)
            rebuilt = (res.vectors * res.values) @ res.vectors.T
            scale = max(np.linalg.norm(m), 1.0)
            assert np.linalg.norm(rebuilt - m) <= 1e-8 * scale
            np.testing.assert_allclose(
                res.vectors.T @ res.vectors, np.eye(p), atol=1e-8
            )
            assert np.all(np.diff(res.values) <= 1e-12)
            for j in range(p):
                col = res.vectors[:, j]
                lead = col[np.abs(col) > 1e-12][0]
                assert lead > 0

    def test_deterministic(self):
        m = random_spd(np.random.default_rng(3), 6)
        r1, r2 = sym_eig(m), sym_eig(m)
        np.testing.assert_array_equal(r1.values, r2.values)
        np.testing.assert_array_equal(r1.vectors, r2.vectors)

    def test_rejects_nonfinite_and_asymmetric(self):
        with pytest.raises(NumericalError, match=NONFINITE):
            sym_eig([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(NumericalError, match=ASYMMETRIC):
            sym_eig([[1.0, 0.5], [0.0, 1.0]])

    def test_eigh_failure_is_numerical_failure(self, monkeypatch):
        def failing_eigh(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        with pytest.raises(NumericalError, match=EIGH_FAILED):
            sym_eig(np.eye(3))

    def test_symmetrizes_roundoff(self):
        m = np.array([[1.0, 1e-13], [0.0, 1.0]])
        out = ensure_symmetric(m)
        np.testing.assert_array_equal(out, out.T)


class TestEnsureSymmetric:
    @pytest.mark.parametrize(
        "m, message",
        [
            (np.ones((2, 3)), r"^expected a square matrix, got shape \(2, 3\)$"),
            (np.empty((0, 0)), "^empty matrix$"),
        ],
        ids=["non-square", "empty"],
    )
    def test_rejects_shapes(self, m, message):
        with pytest.raises(NumericalError, match=message):
            ensure_symmetric(m)

    def test_exactly_symmetric_input_comes_back_as_a_fresh_copy(self):
        # a Gram product, as every candidate and covariance is, with
        # subnormal and -0.0 entries: the copy is bitwise the average
        a = np.random.default_rng(3).standard_normal((4, 6, 5))
        m = a.swapaxes(-1, -2) @ a
        m[0, 1, 2] = m[0, 2, 1] = 5e-324
        m[1, 0, 3] = m[1, 3, 0] = -0.0
        out = ensure_symmetric(m)
        assert not np.shares_memory(out, m)
        assert out.tobytes() == ((m + m.swapaxes(-1, -2)) / 2.0).tobytes()
        # -0.0 == 0.0, but the average of the two is 0.0
        signed = np.array([[1.0, -0.0], [0.0, 1.0]])
        assert ensure_symmetric(signed).tobytes() == np.eye(2).tobytes()

    def test_near_symmetric_input_keeps_the_bits_of_the_average(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((3, 4, 4))
        m = m + m.swapaxes(-1, -2)
        m[..., 0, 1] += 2e-12  # within tolerance, not exact
        out = ensure_symmetric(m)
        assert out.tobytes() == ((m + m.swapaxes(-1, -2)) / 2.0).tobytes()
        np.testing.assert_array_equal(out, out.swapaxes(-1, -2))

    @pytest.mark.parametrize("m", [
        [[1e308, 1.0], [1.0, 2.0]],
        [[1e308, 1.0], [1.0 + 2.0 ** -52, 2.0]],  # within tolerance
        [[-1e308, 1e308], [1e308, 1e308]],
    ], ids=["exact", "near", "off-diagonal"])
    def test_finite_input_near_the_largest_float_stays_finite(self, m):
        # (m + m^T) / 2 overflowed to inf here, and eigh then gave NaN
        out = ensure_symmetric(m)
        np.testing.assert_array_equal(out, out.T)
        np.testing.assert_array_equal(np.diag(out), np.diag(m))
        assert np.isfinite(out).all() and np.isfinite(sym_eig(m).values).all()

    def test_large_eigenvalues_are_solved(self):
        values = sym_eig([[1e308, 1.0], [1.0, 2.0]]).values
        np.testing.assert_allclose(values, [1e308, 2.0], rtol=1e-15)
        root = inv_sqrt(np.diag([1e308, 1e300]))
        np.testing.assert_allclose(root, np.diag([1e-154, 1e-150]), rtol=1e-15, atol=0)

    @pytest.mark.parametrize("bad, message", [
        ([[1.0, np.nan], [np.nan, 1.0]], NONFINITE),
        ([[1.0, 1.0], [1.0, np.inf]], NONFINITE),
        ([[1.0, 0.5], [0.0, 1.0]], ASYMMETRIC),
        ([[1.0, 1e308], [-1e308, 1.0]], ASYMMETRIC),  # a - a^T overflows
    ], ids=["nan", "inf", "asymmetric", "overflowing-asymmetry"])
    def test_bad_input_keeps_its_message(self, bad, message):
        with pytest.raises(NumericalError, match=message):
            ensure_symmetric(bad)


class TestBatched:
    def stack(self, rng, R=6, p=5):
        a = rng.standard_normal((R, p, p))
        m = (a + a.swapaxes(-1, -2)) / 2
        m[1] = np.eye(p)  # tied eigenvalues
        m[2] = np.diag(np.arange(p, 0.0, -1.0))  # zero entries in every vector
        return m

    def test_sym_eig_equals_unbatched_calls(self):
        m = self.stack(np.random.default_rng(31))
        res = sym_eig(m)
        assert res.values.shape == (6, 5) and res.vectors.shape == (6, 5, 5)
        for r in range(m.shape[0]):
            one = sym_eig(m[r])
            np.testing.assert_array_equal(res.values[r], one.values)
            np.testing.assert_array_equal(res.vectors[r], one.vectors)

    def test_sign_convention_per_column(self):
        res = sym_eig(self.stack(np.random.default_rng(37)))
        for vectors in res.vectors:
            for col in vectors.T:
                assert col[np.abs(col) > 1e-12][0] > 0

    def test_ensure_symmetric_equals_unbatched_calls(self):
        rng = np.random.default_rng(41)
        m = self.stack(rng)
        m[0, 0, 1] += 1e-13  # asymmetric within tolerance
        out = ensure_symmetric(m)
        for r in range(m.shape[0]):
            np.testing.assert_array_equal(out[r], ensure_symmetric(m[r]))

    def test_one_bad_matrix_rejects_the_stack(self):
        m = self.stack(np.random.default_rng(43))
        nonfinite = m.copy()
        nonfinite[4, 2, 3] = np.nan
        asymmetric = m.copy()
        asymmetric[5, 0, 1] += 1e-3
        for bad, message in ((nonfinite, NONFINITE), (asymmetric, ASYMMETRIC)):
            with pytest.raises(NumericalError, match=message):
                ensure_symmetric(bad)
            with pytest.raises(NumericalError, match=message):
                sym_eig(bad)

    def test_tolerance_scales_per_matrix(self):
        # an asymmetry allowed next to large entries in one matrix is not
        # allowed in a small matrix of the same stack
        big = np.eye(2) * 1e6
        big[0, 1] += 1e-5
        small = np.eye(2)
        small[0, 1] += 1e-5
        ensure_symmetric(big)
        with pytest.raises(NumericalError, match=ASYMMETRIC):
            ensure_symmetric(np.stack([big, small]))


class TestLeadingVectors:
    """``_leading_vectors`` gives the column ``sym_eig`` ranks first, up to
    sign, in ``sym_eig``'s layout, so R^2 against e_1 keeps its bits."""

    def assert_same_scores(self, m, back=None):
        got, want = _leading_vectors(m), sym_eig(m).vectors[..., 0]
        # Both are the column-0 view of a (..., p, p) stack.  einsum sums a
        # contiguous copy in another order, and about a third of the
        # scores of random 10 x 10 stacks then move by an ulp.
        assert got.shape == want.shape and got.strides == want.strides
        np.testing.assert_array_equal(np.abs(got), np.abs(want))
        if back is not None:  # the grid's --standardize back-transform
            got, want = (np.einsum("...ij,...j->...i", back, v) for v in (got, want))
        e1 = np.eye(m.shape[-1])[0]
        np.testing.assert_array_equal(
            *(np.asarray(r2_single(v, e1)).view(np.int64) for v in (got, want))
        )

    def test_random_stacks(self):
        rng = np.random.default_rng(53)
        for shape in [(4,), (120,), (3, 2, 5)]:
            a = rng.standard_normal(shape + (10, 10))
            self.assert_same_scores((a + a.swapaxes(-1, -2)) / 2)

    def test_indefinite_csave_stacks(self):
        rng = np.random.default_rng(59)
        # model 3's y = u eps, at H = 2, 6, 24 as in the grid
        z = rng.standard_normal((20, 480, 10))
        y = z[..., 0] * rng.standard_normal((20, 480))
        m = np.stack([candidate_matrix("csave", slice_stats(z, slice_equal_count(y, H)))
                      for H in (2, 6, 24)])
        assert (np.linalg.eigvalsh(m)[..., 0] < 0).all()
        self.assert_same_scores(m)

    def test_exact_ties_take_the_first_column(self):
        perm = np.eye(3)[[2, 0, 1]]
        cases = [
            np.eye(3),
            np.diag([3.0, 3.0, 2.0]),
            np.diag([2.0, 3.0, 3.0]),
            perm @ np.diag([3.0, 2.0, 3.0]) @ perm.T,
            np.diag([0.0, -0.0, -1.0]),
            np.diag([-1.0, -0.0, 0.0]),
        ]
        for m in cases:
            self.assert_same_scores(m)
        self.assert_same_scores(np.stack(cases))

    def test_standardize_back_transform(self):
        rng = np.random.default_rng(61)
        a = rng.standard_normal((60, 10, 10))
        roots = np.stack([inv_sqrt(random_spd(rng, 10, cond=20.0)) for _ in range(5)])
        # one root per replicate, repeated over the cells, as the grid does
        back = np.broadcast_to(roots, (12, 5, 10, 10)).reshape(-1, 10, 10)
        self.assert_same_scores((a + a.swapaxes(-1, -2)) / 2, back)

    def test_checks_of_sym_eig(self, monkeypatch):
        m = np.stack([np.eye(3)] * 2)
        nonfinite, asymmetric = m.copy(), m.copy()
        nonfinite[1, 0, 0] = np.nan
        asymmetric[1, 0, 1] += 1e-3
        for bad, message in ((nonfinite, NONFINITE), (asymmetric, ASYMMETRIC)):
            with pytest.raises(NumericalError, match=message):
                _leading_vectors(bad)

        def failing_eigh(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        with pytest.raises(NumericalError, match=EIGH_FAILED):
            _leading_vectors(m)


class TestInvSqrt:
    def test_identity(self):
        np.testing.assert_allclose(inv_sqrt(np.eye(2)), np.eye(2))

    def test_diagonal_closed_form(self):
        np.testing.assert_allclose(
            inv_sqrt(np.diag([4.0, 1.0])), np.diag([0.5, 1.0]), atol=1e-14
        )

    def test_defining_identity_random_spd(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            m = random_spd(rng, 4, cond=50.0)
            r = inv_sqrt(m)
            np.testing.assert_allclose(r @ m @ r, np.eye(4), atol=1e-6)

    def test_refuses_near_singular(self):
        m = np.diag([1.0, 1e-14])
        with pytest.raises(SingularCovariance):
            inv_sqrt(m)

    def test_refuses_negative_eigenvalue(self):
        with pytest.raises(SingularCovariance):
            inv_sqrt(np.diag([1.0, -0.5]))

    def test_refuses_matrix_without_positive_eigenvalue(self):
        with pytest.raises(SingularCovariance, match="^matrix has no positive eigenvalue$"):
            inv_sqrt(-np.eye(2))


class TestEigenPerturbation:
    def test_commuting_diagonal(self):
        eps = 1e-3
        shift, vec = eigen_perturb_first_order(
            np.diag([3.0, 1.0]), np.diag([eps, 0.0]), 0
        )
        assert shift == pytest.approx(eps)
        np.testing.assert_allclose(vec, np.zeros(2), atol=1e-15)

    def test_offdiagonal_closed_form(self):
        # hand expansion for p=2: coupling eps/(3-1) into the second axis
        eps = 1e-3
        shift, vec = eigen_perturb_first_order(
            np.diag([3.0, 1.0]), [[0.0, eps], [eps, 0.0]], 0
        )
        assert shift == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(vec, [0.0, eps / 2.0], atol=1e-15)

    def test_null_perturbation(self):
        rng = np.random.default_rng(17)
        m = random_spd(rng, 4)
        shift, vec = eigen_perturb_first_order(m, np.zeros((4, 4)), 2)
        assert shift == 0.0
        np.testing.assert_array_equal(vec, np.zeros(4))

    def test_second_order_error_decay(self):
        # eigenvalue prediction error must shrink at least 25x per 10x in t
        rng = np.random.default_rng(23)
        for _ in range(5):
            base = random_spd(rng, 5, cond=8.0)
            d = rng.standard_normal((5, 5))
            delta = (d + d.T) / 2
            i = 0
            shift, _ = eigen_perturb_first_order(base, delta, i)
            errors = []
            for t in (1e-2, 1e-3, 1e-4):
                lam_t = sym_eig(base + t * delta).values[i]
                lam_0 = sym_eig(base).values[i]
                errors.append(abs(lam_t - lam_0 - t * shift))
            for big, small in zip(errors, errors[1:]):
                if big > 1e-13:  # below that, float noise dominates
                    assert big / max(small, 1e-18) >= 25.0

    def test_degenerate_gap_rejected(self):
        with pytest.raises(DegenerateEigenvalue):
            eigen_perturb_first_order(np.eye(3), np.diag([1.0, 0.0, 0.0]), 0)

    @pytest.mark.parametrize("i", [-1, 2])
    def test_index_out_of_range_rejected(self, i):
        with pytest.raises(
            InvalidArgument, match=f"^eigenvalue index {i} out of range for p=2$"
        ):
            eigen_perturb_first_order(np.diag([3.0, 1.0]), np.zeros((2, 2)), i)

    def test_vector_prediction_tracks_actual_rotation(self):
        rng = np.random.default_rng(29)
        base = random_spd(rng, 4, cond=6.0)
        d = rng.standard_normal((4, 4))
        delta = (d + d.T) / 2
        shift, vec = eigen_perturb_first_order(base, delta, 1)
        t = 1e-5
        b0 = sym_eig(base).vectors[:, 1]
        b1 = sym_eig(base + t * delta).vectors[:, 1]
        np.testing.assert_allclose(b1, b0 + t * vec, atol=1e-8)
