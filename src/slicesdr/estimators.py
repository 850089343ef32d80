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

Two writes map a method name of ``METHODS`` to its matrix, and they are
the only code that does: ``_write_slice_means`` writes SIR's from the slice
means of one stats, and ``_write_pooled`` writes SAVE's and CSAVE's from
stacks of pooled moments (M, L, V), forming the I - 2 M they share once.
``candidate_matrix`` runs both for one method of one stats, as the CLI
does; ``_write_candidates`` runs both for every method over one model's
slicings at every H, as the Monte Carlo harness does, so SAVE and CSAVE
take one write for all H.

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


def _identity_minus_2m(mean_cov: np.ndarray) -> np.ndarray:
    """I - 2 M, the part that SAVE and CSAVE share."""
    return np.eye(mean_cov.shape[-1]) - 2.0 * mean_cov


def save_matrix(stats: SliceStats) -> np.ndarray:
    """Estimated E[(I - Cov(z|Y))^2]: sum_h p_h (I - S_h)^2 = I - 2 M + L."""
    return _identity_minus_2m(stats.mean_cov) + stats.cov_square


def correction_coefficients(c: int) -> tuple[float, float]:
    """Scalar weights (a, b) of the debiased combination a*L - b*V."""
    check_integer("c", c)
    if c < 2:
        raise InvalidArgument(f"bias correction needs c >= 2, got c={c}")
    denom = (c - 1) ** 2 + 1
    return c * (c - 1) / denom, (c - 1) / denom


def _debiased(cov_square: np.ndarray, fourth: np.ndarray, a, b) -> np.ndarray:
    """a L - b V, for weights (a, b) that are floats or arrays broadcasting
    over L and V: each entry is the same two products and one difference."""
    return a * cov_square - b * fourth


def lambda_corrected(stats: SliceStats) -> np.ndarray:
    """Debiased slice-covariance square a(c) L - b(c) V.

    c = floor(n / H) is the global slice size of the stats.
    """
    return _debiased(stats.cov_square, stats.fourth,
                     *correction_coefficients(stats.n // stats.H))


def csave_matrix(stats: SliceStats) -> np.ndarray:
    """Bias-corrected SAVE: I - 2 M + (a L - b V).

    a(c) and b(c) debias the unbiased (c - 1) slice covariances that
    ``slice_stats`` forms.  The result is symmetric but can be indefinite
    in finite samples: directions are ranked later by algebraically largest
    eigenvalue, and negative tail eigenvalues are surfaced as a diagnostic,
    not clipped.
    """
    return _identity_minus_2m(stats.mean_cov) + lambda_corrected(stats)


def candidate_matrix(method: str, stats: SliceStats) -> np.ndarray:
    """The candidate matrix of ``method``, one of METHODS."""
    out = np.empty((1, *stats.mean_cov.shape))
    _write_slice_means((method,), stats, out)
    _write_pooled((method,), (stats.mean_cov, stats.cov_square, stats.fourth),
                  correction_coefficients(stats.n // stats.H), out)
    return out[0]


def _write_slice_means(methods, stats: SliceStats, out: np.ndarray) -> None:
    """Write SIR's candidate of ``stats`` into ``out[j]`` for the j with
    ``methods[j]`` == "sir"; every other ``out[j]`` is left as it is."""
    for method, cand in zip(methods, out):
        if method == "sir":
            cand[...] = sir_matrix(stats)


def _write_pooled(methods, pooled, coefficients, out: np.ndarray) -> None:
    """Write SAVE's and CSAVE's candidates into ``out[j]`` for the j whose
    ``methods[j]`` names one, from ``pooled`` = (M, L, V), stacks of the
    shape of ``out[j]``, and ``coefficients`` = (a, b) of a L - b V, floats
    or arrays that broadcast over the stacks.  The two share one I - 2 M,
    and their sums are written in place: bitwise what ``save_matrix`` and
    ``csave_matrix`` evaluate.  SIR's ``out[j]`` is left as it is, and a
    name outside ``METHODS`` raises InvalidArgument."""
    mean_cov, cov_square, fourth = pooled
    shared = None
    for method, cand in zip(methods, out):
        if method == "sir":
            continue
        if method not in ("save", "csave"):
            raise InvalidArgument(f"unknown method {method!r}; valid: {METHODS}")
        if shared is None:
            shared = _identity_minus_2m(mean_cov)
        added = (cov_square if method == "save"
                 else _debiased(cov_square, fourth, *coefficients))
        np.add(shared, added, out=cand)


def _write_candidates(methods, parts, coefficients, out: np.ndarray) -> None:
    """Write the candidates of one model's slicings at every H into ``out``
    (len(methods), len(H grid), chunk, p, p): ``out[j, i, part]`` is the
    matrix of ``methods[j]`` on the stats of each (i, part, stats) of
    ``parts``, the i-th H and the replicates ``part`` of the chunk, as
    ``_SliceGrid.moments`` yields them.  ``coefficients`` = (a, b) hold the
    a(c) and b(c) of each H, shaped (len(H grid), 1, 1, 1).

    SIR's candidate is written from each stats while its slice means, which
    differ in length across H, are in the buffers; the pooled moments of
    every (i, part) are kept in one (3, len(H grid), chunk, p, p) stack, so
    SAVE and CSAVE take one write for all H.
    """
    pooled = np.empty((3,) + out.shape[1:])
    for i, part, stats in parts:
        _write_slice_means(methods, stats, out[:, i, part])
        pooled[0, i, part] = stats.mean_cov
        pooled[1, i, part] = stats.cov_square
        pooled[2, i, part] = stats.fourth
    _write_pooled(methods, pooled, coefficients, out)


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
