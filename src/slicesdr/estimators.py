"""Kernel-matrix estimators for slicing-based dimension reduction.

Given per-slice statistics of standardized predictors, these build the
candidate p x p symmetric matrices whose leading eigenvectors estimate the
central dimension-reduction subspace:

* ``sir_matrix``   -- between-slice means,  sum_h p_h m_h m_h^T
* ``save_matrix``  -- sum_h p_h (I - cov_h)^2
* ``lambda_n``     -- sum_h p_h cov_h^2, the bias-carrying SAVE component
* ``lambda_corrected`` -- its debiased combination with the fourth-moment
  matrix V carried by the slice stats
* ``csave_matrix`` -- bias-corrected SAVE: I - 2 sum_h p_h cov_h + corrected

``candidate_matrix`` maps a method name from ``METHODS`` to its matrix; the
CLI and the Monte Carlo harness both dispatch through it.

Slice averages use the observed weights p_h = c_h / n; the correction
coefficients use the global slice size c = floor(n / H), since they come
from within-slice pair counts.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import linalg
from .data import StandardizedDataset, directions_to_x_scale
from .errors import AmbiguousDimensionWarning, InvalidSliceSize
from .slicing import SliceStats

#: Method names in canonical reporting order.
METHODS = ("save", "sir", "csave")

#: Tie tolerance for flagging an ambiguous cut-off dimension.
EIGENGAP_TOL = 1e-10


@dataclass(frozen=True)
class CdrBasis:
    """Leading-eigenvector basis in z coordinates and on the x scale."""

    betas_z: np.ndarray      # (p, k), orthonormal columns
    betas_x: np.ndarray      # (p, k), unit columns
    eigenvalues: np.ndarray  # (k,), descending
    ambiguous: bool          # k-th and (k+1)-th eigenvalues tied


def sir_matrix(stats: SliceStats) -> np.ndarray:
    """Estimated Cov(E(z|Y)): the exactly-PSD sum_h p_h m_h m_h^T."""
    m = np.einsum("h,hi,hj->ij", stats.weights, stats.means, stats.means)
    return linalg.ensure_symmetric(m)


def save_matrix(stats: SliceStats) -> np.ndarray:
    """Estimated E[(I - Cov(z|Y))^2]: sum_h p_h (I - cov_h)^2."""
    eye = np.eye(stats.p)
    resid = eye[None, :, :] - stats.covs
    m = np.einsum("h,hij,hkj->ik", stats.weights, resid, resid)
    return linalg.ensure_symmetric(m)


def lambda_n(stats: SliceStats) -> np.ndarray:
    """Slice average of squared within-slice covariances, sum_h p_h cov_h^2."""
    m = np.einsum("h,hij,hkj->ik", stats.weights, stats.covs, stats.covs)
    return linalg.ensure_symmetric(m)


def correction_coefficients(c: int) -> tuple[float, float]:
    """Scalar weights (a, b) of the debiased combination a*Lambda - b*V."""
    if c < 2:
        raise InvalidSliceSize(f"bias correction needs c >= 2, got c={c}")
    denom = (c - 1) ** 2 + 1
    return c * (c - 1) / denom, (c - 1) / denom


def lambda_corrected(stats: SliceStats) -> np.ndarray:
    """Debiased slice-covariance square a(c) * Lambda_n - b(c) * V_n.

    c = floor(n / H) is the global slice size of the stats.
    """
    a, b = correction_coefficients(stats.n // stats.H)
    return linalg.ensure_symmetric(a * lambda_n(stats) - b * stats.fourth)


def csave_matrix(stats: SliceStats) -> np.ndarray:
    """Bias-corrected SAVE: I - 2 sum_h p_h cov_h + corrected Lambda.

    Assembled from the "c-1" covariance convention throughout.  The result
    is symmetric but can be indefinite in finite samples: directions are
    ranked later by algebraically largest eigenvalue, and negative tail
    eigenvalues are surfaced as a diagnostic, not clipped.
    """
    if stats.divisor != "c-1":
        raise InvalidSliceSize("csave requires --divisor c-1")
    corrected = lambda_corrected(stats)
    mean_cov = np.einsum("h,hij->ij", stats.weights, stats.covs)
    m = np.eye(stats.p) - 2.0 * mean_cov + corrected
    return linalg.ensure_symmetric(m)


def candidate_matrix(method: str, stats: SliceStats) -> np.ndarray:
    """The candidate matrix of ``method``, one of METHODS."""
    # Resolve the estimator by module-global name on every call, so a
    # profiler that rebinds these names (perfbench's tracer) sees the call.
    if method == "sir":
        return sir_matrix(stats)
    if method == "save":
        return save_matrix(stats)
    if method == "csave":
        return csave_matrix(stats)
    raise ValueError(f"unknown method {method!r}; valid: {METHODS}")


def cdr_basis(eig: linalg.EigenResult, k: int, sd: StandardizedDataset) -> CdrBasis:
    """Top-k eigenvectors of a candidate matrix, also mapped to the x scale.

    ``eig`` is the candidate's ``sym_eig`` decomposition, so eigenvalues are
    ranked algebraically (largest first).  If the k-th and (k+1)-th
    eigenvalues are tied within EIGENGAP_TOL, the basis is still returned
    but flagged ambiguous and a warning is issued.
    """
    p = eig.values.size
    if not 1 <= k <= p:
        raise ValueError(f"need 1 <= k <= p={p}, got k={k}")
    ambiguous = False
    if k < p and abs(eig.values[k - 1] - eig.values[k]) <= EIGENGAP_TOL:
        ambiguous = True
        warnings.warn(
            f"eigenvalues {k - 1} and {k} tied within {EIGENGAP_TOL:.0e}; "
            "the estimated basis is not unique",
            AmbiguousDimensionWarning,
            stacklevel=2,
        )
    betas_z = eig.vectors[:, :k]
    betas_x = directions_to_x_scale(betas_z, sd.cov_inv_sqrt)
    return CdrBasis(
        betas_z=betas_z,
        betas_x=betas_x,
        eigenvalues=eig.values[:k].copy(),
        ambiguous=ambiguous,
    )


def negative_eigenvalue_count(eig: linalg.EigenResult, tol_scale: float = 1e-12) -> int:
    """Diagnostic: eigenvalues below -tol_scale * trace (CSAVE indefiniteness).

    The trace is taken as the sum of the eigenvalues in ``eig``.
    """
    thresh = -tol_scale * max(abs(float(eig.values.sum())), 1.0)
    return int(np.sum(eig.values < thresh))
