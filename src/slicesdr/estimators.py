"""Kernel-matrix estimators for slicing-based dimension reduction.

Given per-slice statistics of standardized predictors, these build the
candidate p x p symmetric matrices whose leading eigenvectors estimate the
central dimension-reduction subspace.  Each is a closed form in the pooled
moments of the slice stats, M = sum_h p_h S_h, L = sum_h p_h S_h^2 and the
fourth-moment matrix V:

* ``sir_matrix``   -- between-slice means,  sum_h p_h m_h m_h^T
* ``save_matrix``  -- sum_h p_h (I - S_h)^2 = I - 2 M + L
* ``lambda_corrected`` -- the debiased slice-covariance square a L - b V
* ``csave_matrix`` -- bias-corrected SAVE: I - 2 M + (a L - b V)

``_write_candidates`` is the one map from a method name of ``METHODS`` to
its matrix: it writes several methods' matrices of one stats into an array,
forming the I - 2 M that SAVE and CSAVE share once, as the Monte Carlo
harness asks for them.  ``candidate_matrix`` asks it for one method, as the
CLI does.

Slice averages use the observed weights p_h = c_h / n; the correction
coefficients (a, b) use the global slice size c = floor(n / H), since they
come from within-slice pair counts.  M, L and V are exactly symmetric, so
the SAVE and CSAVE sums of them are too.

Every estimator broadcasts over the leading batch axes of batched slice
stats: stats of R replicates give an (R, p, p) stack of candidates.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import linalg
from .data import directions_to_x_scale
from .errors import AmbiguousDimensionWarning, InvalidArgument
from .slicing import SliceStats, check_integer

#: Method names in canonical reporting order.
METHODS = ("save", "sir", "csave")

#: Tie tolerance for flagging an ambiguous cut-off dimension.
EIGENGAP_TOL = 1e-10

#: Eigenvalues below -NEGATIVE_EIG_TOL * |trace| count as negative.
NEGATIVE_EIG_TOL = 1e-12


@dataclass(frozen=True)
class CdrBasis:
    """Leading-eigenvector basis in z coordinates and on the x scale."""

    betas_z: np.ndarray      # (p, k), orthonormal columns
    betas_x: np.ndarray      # (p, k), unit columns
    eigenvalues: np.ndarray  # (k,), descending
    ambiguous: bool          # k-th and (k+1)-th eigenvalues tied


def sir_matrix(stats: SliceStats) -> np.ndarray:
    """Estimated Cov(E(z|Y)): the exactly-PSD sum_h p_h m_h m_h^T."""
    m = stats.means.swapaxes(-1, -2) @ (stats.weights[:, None] * stats.means)
    return (m + m.swapaxes(-1, -2)) / 2.0  # the product is symmetric to rounding only


def _identity_minus_2m(stats: SliceStats) -> np.ndarray:
    """I - 2 M, the part that SAVE and CSAVE share."""
    return np.eye(stats.p) - 2.0 * stats.mean_cov


def save_matrix(stats: SliceStats) -> np.ndarray:
    """Estimated E[(I - Cov(z|Y))^2]: sum_h p_h (I - S_h)^2 = I - 2 M + L."""
    return _identity_minus_2m(stats) + stats.cov_square


def correction_coefficients(c: int) -> tuple[float, float]:
    """Scalar weights (a, b) of the debiased combination a*L - b*V."""
    check_integer("c", c)
    if c < 2:
        raise InvalidArgument(f"bias correction needs c >= 2, got c={c}")
    denom = (c - 1) ** 2 + 1
    return c * (c - 1) / denom, (c - 1) / denom


def lambda_corrected(stats: SliceStats) -> np.ndarray:
    """Debiased slice-covariance square a(c) L - b(c) V.

    c = floor(n / H) is the global slice size of the stats.
    """
    a, b = correction_coefficients(stats.n // stats.H)
    return a * stats.cov_square - b * stats.fourth


def csave_matrix(stats: SliceStats) -> np.ndarray:
    """Bias-corrected SAVE: I - 2 M + (a L - b V).

    a(c) and b(c) debias the unbiased (c - 1) slice covariances that
    ``slice_stats`` forms.  The result is symmetric but can be indefinite
    in finite samples: directions are ranked later by algebraically largest
    eigenvalue, and negative tail eigenvalues are surfaced as a diagnostic,
    not clipped.
    """
    return _identity_minus_2m(stats) + lambda_corrected(stats)


def candidate_matrix(method: str, stats: SliceStats) -> np.ndarray:
    """The candidate matrix of ``method``, one of METHODS."""
    out = np.empty((1, *stats.mean_cov.shape))
    _write_candidates((method,), stats, out)
    return out[0]


def _write_candidates(methods, stats: SliceStats, out: np.ndarray) -> None:
    """Write the candidate matrix of ``methods[j]`` into ``out[j]``, for
    ``out`` of shape (len(methods), ..., p, p).  SAVE and CSAVE share one
    I - 2 M, and their sums are written in place: bitwise what
    ``save_matrix`` and ``csave_matrix`` evaluate."""
    shared = None
    for method, cand in zip(methods, out):
        if method == "sir":
            cand[...] = sir_matrix(stats)
            continue
        if method not in ("save", "csave"):
            raise InvalidArgument(f"unknown method {method!r}; valid: {METHODS}")
        if shared is None:
            shared = _identity_minus_2m(stats)
        added = stats.cov_square if method == "save" else lambda_corrected(stats)
        np.add(shared, added, out=cand)


def cdr_basis(eig: linalg.EigenResult, k: int, cov_inv_sqrt) -> CdrBasis:
    """Top-k eigenvectors of a candidate matrix, also mapped to the x scale.

    ``eig`` is the candidate's ``sym_eig`` decomposition, so eigenvalues are
    ranked algebraically (largest first).  If the k-th and (k+1)-th
    eigenvalues are tied within EIGENGAP_TOL, the basis is still returned
    but flagged ambiguous and a warning is issued.  ``cov_inv_sqrt`` is the
    root that ``standardize`` returned, which maps the basis to the x scale.
    """
    p = eig.values.size
    check_integer("k", k)
    if not 1 <= k <= p:
        raise InvalidArgument(f"need 1 <= k <= p={p}, got k={k}")
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
    betas_x = directions_to_x_scale(betas_z, cov_inv_sqrt)
    return CdrBasis(
        betas_z=betas_z,
        betas_x=betas_x,
        eigenvalues=eig.values[:k].copy(),
        ambiguous=ambiguous,
    )


def negative_eigenvalue_count(eig: linalg.EigenResult) -> int:
    """Diagnostic: eigenvalues below -NEGATIVE_EIG_TOL * trace (CSAVE
    indefiniteness).

    The trace is taken as the sum of the eigenvalues in ``eig``.
    """
    thresh = -NEGATIVE_EIG_TOL * max(abs(float(eig.values.sum())), 1.0)
    return int(np.sum(eig.values < thresh))
