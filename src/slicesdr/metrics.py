"""Subspace-recovery quality measure.

r2_single scores one estimated direction against a target subspace: the
squared norm of its projection onto the QR-orthonormalized target basis.
It checks its arguments and orthonormalizes the basis, and ``_r2_rows``
scores the directions against the orthonormal basis.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgument, NumericalError

_RANK_TOL = 1e-10
#: Smallest positive normal float; a squared norm below it lost bits.
_NORMAL_MIN = np.finfo(float).tiny


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
    column is refused rather than read as p vectors of length 1.  The
    basis is QR-orthonormalized (``_orthonormalize``) and the rows are
    scored against it by ``_r2_rows``, which the Monte Carlo grid calls
    with a basis it orthonormalizes once per call.  A non-finite or zero
    row raises NumericalError, and a row whose squared norm under- or
    overflows is scored scaled by an exact power of two, so it gets its
    score rather than NaN or a few bits of it.
    """
    b = np.asarray(beta_hat, dtype=float)
    if b.ndim < 2:
        b = b.reshape(-1)
    basis = np.asarray(true_basis, dtype=float)
    if basis.ndim == 1:
        basis = basis[:, None]
    if b.shape[-1] != basis.shape[0]:
        raise InvalidArgument(
            f"beta_hat of shape {b.shape} needs a last axis of "
            f"{basis.shape[0]}, the rows of true_basis"
        )
    r2 = _r2_rows(b, _orthonormalize(basis))
    return float(r2) if r2.ndim == 0 else r2


def _r2_rows(b: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The R^2 of each row of a float array b (..., p) against the
    orthonormal columns q (p, k): ||q^T b||^2 / ||b||^2, a 0-d array for a
    1-d b.

    A non-finite row or a zero row raises NumericalError.  A row whose
    squared norm under- or overflows is scored scaled by an exact power of
    two, so it gets its score rather than NaN or a few bits of it.
    """
    if not np.isfinite(b).all():
        raise NumericalError("beta_hat is not finite")
    if not np.all(np.any(b != 0.0, axis=-1)):
        raise NumericalError("beta_hat is the zero vector")
    num, den = _projection_and_norm(q, b)
    off = (den < _NORMAL_MIN) | (den == np.inf)
    if off.any():
        # A squared norm that overflows or underflows, to 0 or into the
        # subnormals, would give inf/inf, 0/0 or a ratio of a few bits:
        # those rows are scored again scaled by a power of two, which is
        # exact, and every other row keeps its bits.
        num, den, rows = np.array(num), np.array(den), b[off]
        _, exponent = np.frexp(np.abs(rows).max(axis=-1))
        num[off], den[off] = _projection_and_norm(q, np.ldexp(rows, -exponent[:, None]))
    return num / den


def _projection_and_norm(q: np.ndarray, b: np.ndarray) -> tuple:
    """(||q^T b||^2, ||b||^2) of each row of b, for orthonormal columns q."""
    proj = np.einsum("ik,...i->...k", q, b)
    return np.einsum("...k,...k->...", proj, proj), np.einsum("...i,...i->...", b, b)
