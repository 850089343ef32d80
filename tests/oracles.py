"""Reference computations that only the tests use.

``trace_correlation`` scores a k-dimensional estimate against a target
subspace, and ``eigen_perturb_first_order`` predicts how an eigenpair moves
under a small symmetric perturbation.  The program itself scores single
directions (``r2_single``) and reads eigenpairs straight from ``sym_eig``.
"""

from dataclasses import dataclass

import numpy as np

from slicesdr import ensure_symmetric, r2_single, sym_eig
from slicesdr.errors import InvalidArgument, NumericalError
from slicesdr.metrics import _orthonormalize

# Smallest eigenvalue gap a first-order perturbation expansion accepts.
GAP_TOL = 1e-8


class DegenerateEigenvalue(NumericalError):
    """An eigenvalue gap is too small for a perturbation expansion."""


@dataclass(frozen=True)
class SubspaceMetrics:
    """Overall score plus the per-direction breakdown for k > 1."""

    r2: float
    k: int
    per_direction: np.ndarray  # r2_single of each estimated column


def trace_correlation(basis_hat, true_basis) -> SubspaceMetrics:
    """Mean of squared canonical correlations between two subspaces.

    Computed as trace(P_hat P_true) / k from orthonormalized bases, which
    equals the average squared canonical correlation; for k = 1 it reduces
    to :func:`r2_single`.
    """
    qh = _orthonormalize(basis_hat)
    qt = _orthonormalize(true_basis)
    if qh.shape != qt.shape:
        raise NumericalError(
            f"bases must share shape, got {qh.shape} vs {qt.shape}"
        )
    k = qh.shape[1]
    cross = qh.T @ qt
    value = float(np.sum(cross * cross) / k)
    per = np.array([r2_single(qh[:, j], qt) for j in range(k)])
    return SubspaceMetrics(r2=value, k=k, per_direction=per)


def eigen_perturb_first_order(base, delta, i: int):
    """First-order response of eigenvalue/eigenvector i to a perturbation.

    For base matrix A with eigenpairs (lambda_l, b_l) and symmetric
    perturbation D, returns::

        value_shift  = b_i^T D b_i
        vector_shift = sum_{l != i} b_l (b_l^T D b_i) / (lambda_i - lambda_l)

    so that eig(A + t D) ~ (lambda_i + t * value_shift,
    b_i + t * vector_shift) + O(t^2).  Requires lambda_i separated from
    every other eigenvalue by more than ``GAP_TOL``.
    """
    eig = sym_eig(base)
    d = ensure_symmetric(delta)
    p = eig.values.size
    if not 0 <= i < p:
        raise InvalidArgument(f"eigenvalue index {i} out of range for p={p}")
    lam = eig.values
    gaps = np.abs(lam - lam[i])
    gaps[i] = np.inf
    if gaps.min() <= GAP_TOL:
        raise DegenerateEigenvalue(
            f"eigenvalue {i} gap {gaps.min():.3e} below {GAP_TOL:.1e}"
        )
    b = eig.vectors
    bi = b[:, i]
    value_shift = float(bi @ d @ bi)
    denom = lam[i] - lam
    denom[i] = np.inf  # self term excluded from the sum
    coeffs = (b.T @ d @ bi) / denom
    vector_shift = b @ coeffs
    return value_shift, vector_shift
