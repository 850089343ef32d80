"""Subspace-recovery quality measure.

r2_single scores one estimated direction against a target subspace: the
squared norm of its projection onto the QR-orthonormalized target basis.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgument, NumericalError

_RANK_TOL = 1e-10


def _orthonormalize(basis) -> np.ndarray:
    """QR-orthonormalize columns; a non-finite entry or rank deficiency
    raises NumericalError."""
    b = np.asarray(basis, dtype=float)
    if not np.isfinite(b).all():
        raise NumericalError("basis is not finite")
    if b.shape[0] < b.shape[1]:
        raise NumericalError(f"basis {b.shape} has more columns than rows")
    q, r = np.linalg.qr(b)
    diag = np.abs(np.diag(r))
    if diag.min() <= _RANK_TOL * max(diag.max(), 1.0):
        raise NumericalError("basis is rank deficient")
    return q


def r2_single(beta_hat, true_basis):
    """Squared multiple correlation of one direction with a subspace.

    The squared norm of the projection of the unit vector beta_hat onto
    span(true_basis): the closed-form maximum of (beta_hat . beta)^2 over
    unit beta in the span.

    A vector beta_hat gives a float; a stack of shape (..., p) gives an
    array of scores, one per row, each row scored on its own.  The last
    axis of beta_hat must match the p rows of true_basis, so a (p, 1)
    column is refused rather than read as p vectors of length 1.
    """
    b = np.asarray(beta_hat, dtype=float)
    if b.ndim < 2:
        b = b.reshape(-1)
    if not np.isfinite(b).all():
        raise NumericalError("beta_hat is not finite")
    if not np.all(np.any(b != 0.0, axis=-1)):
        raise NumericalError("beta_hat is the zero vector")
    basis = np.asarray(true_basis, dtype=float)
    if basis.ndim == 1:
        basis = basis[:, None]
    if b.shape[-1] != basis.shape[0]:
        raise InvalidArgument(
            f"beta_hat of shape {b.shape} needs a last axis of "
            f"{basis.shape[0]}, the rows of true_basis"
        )
    q = _orthonormalize(basis)
    proj = np.einsum("ik,...i->...k", q, b)
    r2 = np.einsum("...k,...k->...", proj, proj) / np.einsum("...i,...i->...", b, b)
    return float(r2) if r2.ndim == 0 else r2
