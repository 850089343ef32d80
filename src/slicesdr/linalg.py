"""Dense symmetric-matrix helpers.

Everything here operates on small (p <= ~50) real symmetric matrices:
eigendecomposition with a deterministic sign convention, inverse and
plain square roots, and a first-order eigenvalue / eigenvector
perturbation expansion.

All functions are pure; inputs are never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateEigenvalue,
    InvalidMatrix,
    NumericalFailure,
    SingularCovariance,
)

# Relative asymmetry tolerated before a matrix is rejected outright.
SYMMETRY_TOL = 1e-10
# Entries smaller than this are ignored when fixing eigenvector signs.
SIGN_EPS = 1e-12


def ensure_symmetric(m, tol: float = SYMMETRY_TOL) -> np.ndarray:
    """Validate and symmetrize a matrix.

    Accepts anything array-like, checks it is square, finite and symmetric
    within ``tol * (1 + max|entry|)``, and returns the exactly symmetric
    average (m + m.T) / 2.  Raises InvalidMatrix otherwise.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidMatrix(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise InvalidMatrix("empty matrix")
    if not np.all(np.isfinite(a)):
        raise InvalidMatrix("matrix has non-finite entries")
    scale = 1.0 + np.abs(a).max()
    if np.abs(a - a.T).max() > tol * scale:
        raise InvalidMatrix("matrix is not symmetric within tolerance")
    return (a + a.T) / 2.0


@dataclass(frozen=True)
class EigenResult:
    """Eigenvalues sorted descending with matching orthonormal columns."""

    values: np.ndarray   # (p,), descending
    vectors: np.ndarray  # (p, p), column i pairs with values[i]


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip eigenvector columns so the first entry above SIGN_EPS is positive."""
    v = vectors.copy()
    for j in range(v.shape[1]):
        col = v[:, j]
        big = np.nonzero(np.abs(col) > SIGN_EPS)[0]
        if big.size and col[big[0]] < 0:
            v[:, j] = -col
    return v


def sym_eig(m) -> EigenResult:
    """Full eigendecomposition of a symmetric matrix.

    Deterministic for identical input: LAPACK's symmetric solver plus a
    fixed descending order and the positive-leading-entry sign convention.
    """
    a = ensure_symmetric(m)
    try:
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as e:  # pragma: no cover - eigh is robust
        raise NumericalFailure(f"symmetric eigendecomposition failed: {e}") from e
    # stable descending order keeps the solver's basis for tied eigenvalues
    order = np.argsort(-vals, kind="stable")
    return EigenResult(values=vals[order], vectors=_fix_signs(vecs[:, order]))


def inv_sqrt(m, rel_floor: float = 1e-10) -> np.ndarray:
    """Inverse symmetric square root ``V diag(values^-1/2) V^T``.

    Refuses near-singular input: any eigenvalue below ``rel_floor`` times
    the largest eigenvalue raises SingularCovariance.  No regularization is
    applied silently.
    """
    eig = sym_eig(m)
    top = eig.values[0]
    if top <= 0.0:
        raise SingularCovariance("matrix has no positive eigenvalue")
    if eig.values[-1] < rel_floor * top:
        raise SingularCovariance(
            f"eigenvalue {eig.values[-1]:.3e} below rel_floor * max "
            f"({rel_floor:.1e} * {top:.3e})"
        )
    root = (eig.vectors * eig.values ** -0.5) @ eig.vectors.T
    return (root + root.T) / 2.0


def sym_sqrt(m, rel_floor: float = 0.0) -> np.ndarray:
    """Symmetric square root; eigenvalues must be >= -rel_floor * max."""
    eig = sym_eig(m)
    if eig.values[-1] < -abs(rel_floor) * max(eig.values[0], 1.0):
        raise SingularCovariance("matrix is not positive semidefinite")
    vals = np.clip(eig.values, 0.0, None)
    root = (eig.vectors * vals ** 0.5) @ eig.vectors.T
    return (root + root.T) / 2.0


def eigen_perturb_first_order(base, delta, i: int, gap_tol: float = 1e-8):
    """First-order response of eigenvalue/eigenvector i to a perturbation.

    For base matrix A with eigenpairs (lambda_l, b_l) and symmetric
    perturbation D, returns::

        value_shift  = b_i^T D b_i
        vector_shift = sum_{l != i} b_l (b_l^T D b_i) / (lambda_i - lambda_l)

    so that eig(A + t D) ~ (lambda_i + t * value_shift,
    b_i + t * vector_shift) + O(t^2).  Requires lambda_i separated from
    every other eigenvalue by more than ``gap_tol``.
    """
    eig = sym_eig(base)
    d = ensure_symmetric(delta)
    p = eig.values.size
    if not 0 <= i < p:
        raise IndexError(f"eigenvalue index {i} out of range for p={p}")
    lam = eig.values
    gaps = np.abs(lam - lam[i])
    gaps[i] = np.inf
    if gaps.min() <= gap_tol:
        raise DegenerateEigenvalue(
            f"eigenvalue {i} gap {gaps.min():.3e} below {gap_tol:.1e}"
        )
    b = eig.vectors
    bi = b[:, i]
    value_shift = float(bi @ d @ bi)
    denom = lam[i] - lam
    denom[i] = np.inf  # self term excluded from the sum
    coeffs = (b.T @ d @ bi) / denom
    vector_shift = b @ coeffs
    return value_shift, vector_shift
