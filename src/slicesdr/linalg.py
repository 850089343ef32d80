"""Dense symmetric-matrix helpers.

Everything here operates on small (p <= ~50) real symmetric matrices:
eigendecomposition with a deterministic sign convention and the inverse
square root.

All functions are pure; inputs are never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidArgument,
    InvalidMatrix,
    NumericalFailure,
    SingularCovariance,
)

# Relative asymmetry tolerated before a matrix is rejected outright.
SYMMETRY_TOL = 1e-10
# Entries smaller than this are ignored when fixing eigenvector signs.
SIGN_EPS = 1e-12


def ensure_symmetric(m) -> np.ndarray:
    """Validate and symmetrize a matrix or a stack of matrices.

    Accepts anything array-like of shape (..., p, p), checks that each
    matrix is finite and symmetric within ``SYMMETRY_TOL * (1 + max|entry|)``
    of that matrix, and returns the exactly symmetric average (m + m^T) / 2.
    Raises InvalidMatrix if any matrix fails.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise InvalidMatrix(f"expected a square matrix, got shape {a.shape}")
    if a.shape[-1] == 0:
        raise InvalidMatrix("empty matrix")
    if not np.all(np.isfinite(a)):
        raise InvalidMatrix("matrix has non-finite entries")
    at = a.swapaxes(-1, -2)
    scale = 1.0 + np.abs(a).max(axis=(-2, -1))
    if np.any(np.abs(a - at).max(axis=(-2, -1)) > SYMMETRY_TOL * scale):
        raise InvalidMatrix("matrix is not symmetric within tolerance")
    return (a + at) / 2.0


def _eigh(m) -> tuple:
    """LAPACK's ascending (values, vectors) of ``ensure_symmetric(m)``;
    a solver failure raises NumericalFailure."""
    a = ensure_symmetric(m)
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError as e:
        raise NumericalFailure(f"symmetric eigendecomposition failed: {e}") from e


@dataclass(frozen=True)
class EigenResult:
    """Eigenvalues sorted descending with matching orthonormal columns."""

    values: np.ndarray   # (..., p), descending
    vectors: np.ndarray  # (..., p, p), column i pairs with values[..., i]


def sym_eig(m) -> EigenResult:
    """Full eigendecomposition of a symmetric matrix or a stack of them.

    Deterministic for identical input: LAPACK's symmetric solver plus a
    fixed descending order and the positive-leading-entry sign convention
    (each column's first entry above SIGN_EPS in magnitude is positive).
    A stack of shape (..., p, p) is decomposed matrix by matrix in one call.
    """
    vals, vecs = _eigh(m)
    # stable descending order keeps the solver's basis for tied eigenvalues
    order = np.argsort(-vals, axis=-1, kind="stable")
    vals = np.take_along_axis(vals, order, axis=-1)
    vecs = np.take_along_axis(vecs, order[..., None, :], axis=-1)
    big = np.abs(vecs) > SIGN_EPS
    lead = np.take_along_axis(vecs, big.argmax(axis=-2)[..., None, :], axis=-2)
    flip = (lead < 0) & big.any(axis=-2, keepdims=True)
    return EigenResult(values=vals, vectors=np.where(flip, -vecs, vecs))


def _leading_vectors(m) -> np.ndarray:
    """Leading eigenvector of each matrix of a stack (..., p, p): the
    column that ``sym_eig`` ranks first, up to sign, with the same checks.

    ``argmax`` takes the first of tied largest eigenvalues (±0 included),
    as the stable descending order does.  The column is written into
    column 0 of the solver's own vector stack and returned as the strided
    view of that column, the layout of ``sym_eig(m).vectors[..., 0]``:
    einsum sums a contiguous copy in another order, which can move an
    R^2 computed from it by an ulp.
    """
    vals, vecs = _eigh(m)
    top = vals.argmax(axis=-1)[..., None, None]
    vecs[..., :1] = np.take_along_axis(vecs, top, axis=-1)
    return vecs[..., 0]


def check_rel_floor(rel_floor: float) -> None:
    """Raise InvalidArgument unless ``rel_floor`` is finite and non-negative."""
    if not 0.0 <= rel_floor < np.inf:  # NaN fails every comparison
        raise InvalidArgument(
            f"rel_floor must be finite and >= 0, got {float(rel_floor)!r}"
        )


def inv_sqrt(m, rel_floor: float = 1e-10) -> np.ndarray:
    """Inverse symmetric square root ``V diag(values^-1/2) V^T``.

    Refuses near-singular input: any eigenvalue below ``rel_floor`` times
    the largest eigenvalue, or not positive, raises SingularCovariance.
    ``rel_floor`` must be finite and non-negative (InvalidArgument).  No
    regularization is applied silently.
    """
    check_rel_floor(rel_floor)
    eig = sym_eig(m)
    top = eig.values[0]
    if top <= 0.0:
        raise SingularCovariance("matrix has no positive eigenvalue")
    if eig.values[-1] < rel_floor * top:
        raise SingularCovariance(
            f"eigenvalue {eig.values[-1]:.3e} below rel_floor * max "
            f"({rel_floor:.1e} * {top:.3e})"
        )
    if eig.values[-1] <= 0.0:  # reached only at rel_floor = 0
        raise SingularCovariance(f"eigenvalue {eig.values[-1]:.3e} is not positive")
    root = (eig.vectors * eig.values ** -0.5) @ eig.vectors.T
    return (root + root.T) / 2.0
