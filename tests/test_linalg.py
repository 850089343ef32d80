"""Symmetric-matrix kernel tests.

Oracles: hand-expanded 2x2 characteristic polynomial for eigenvalues, the
defining identity R m R = I for the inverse square root, and eigenvalue
differences of perturbed matrices for the first-order expansion.
"""

import numpy as np
import pytest

from slicesdr import (
    eigen_perturb_first_order,
    ensure_symmetric,
    inv_sqrt,
    sym_eig,
)
from slicesdr.errors import (
    DegenerateEigenvalue,
    InvalidMatrix,
    SingularCovariance,
)


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
        with pytest.raises(InvalidMatrix):
            sym_eig([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(InvalidMatrix):
            sym_eig([[1.0, 0.5], [0.0, 1.0]])

    def test_symmetrizes_roundoff(self):
        m = np.array([[1.0, 1e-13], [0.0, 1.0]])
        out = ensure_symmetric(m)
        np.testing.assert_array_equal(out, out.T)


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
            inv_sqrt(m, rel_floor=1e-10)

    def test_refuses_negative_eigenvalue(self):
        with pytest.raises(SingularCovariance):
            inv_sqrt(np.diag([1.0, -0.5]))


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
