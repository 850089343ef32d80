"""Kernel-matrix estimators for slicing-based dimension reduction.

Given per-slice statistics of standardized predictors, these build the
candidate p x p symmetric matrices whose leading eigenvectors estimate the
central dimension-reduction subspace.  Each is a closed form in the pooled
moments of the slice stats, M = sum_h p_h S_h, L = sum_h p_h S_h^2 and the
fourth-moment matrix V:

* ``"sir"``   -- between-slice means,  sum_h p_h m_h m_h^T
* ``"save"``  -- sum_h p_h (I - S_h)^2 = I - 2 M + L
* ``"csave"`` -- bias-corrected SAVE: I - 2 M + (a L - b V)

and ``lambda_corrected`` is the debiased slice-covariance square a L - b V
on its own.

One writer, ``_write_candidates``, maps a method name of ``METHODS`` to
its matrix, and it is the only code that does or that states the SAVE and
CSAVE sums: from stacks of the pooled moments (M, L, V) over H and
replicates it writes SAVE and CSAVE once, with one I - 2 M they share,
and SIR once per H from that H's slice means and weights (``_between``).
``candidate_matrix(method, stats)``, the one public call, runs it on a
one-H stack of one stats, as the CLI does; the Monte Carlo harness runs it
once per model and chunk on the arrays of ``slicing._SliceGrid.moments``,
so SAVE and CSAVE take one write for all H.

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


def _between(means: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The exactly-PSD sum_h p_h m_h m_h^T of slice means (..., H, p) and
    weights (H,)."""
    m = means.swapaxes(-1, -2) @ (weights[:, None] * means)
    return (m + m.swapaxes(-1, -2)) / 2.0  # the product is symmetric to rounding only


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


def candidate_matrix(method: str, stats: SliceStats) -> np.ndarray:
    """The candidate matrix of ``method``, one of METHODS:

    * ``"sir"``, estimated Cov(E(z|Y)): the exactly-PSD sum_h p_h m_h m_h^T;
    * ``"save"``, estimated E[(I - Cov(z|Y))^2]:
      sum_h p_h (I - S_h)^2 = I - 2 M + L;
    * ``"csave"``, bias-corrected SAVE: I - 2 M + (a L - b V).  a(c) and
      b(c) debias the unbiased (c - 1) slice covariances that
      ``slice_stats`` forms.  The result is symmetric but can be indefinite
      in finite samples: directions are ranked later by algebraically
      largest eigenvalue, and negative tail eigenvalues are surfaced as a
      diagnostic, not clipped.
    """
    out = np.empty((1, 1, *stats.mean_cov.shape))
    pooled = (stats.mean_cov[None], stats.cov_square[None], stats.fourth[None])
    _write_candidates((method,), pooled, [(stats.means, stats.weights)],
                      correction_coefficients(stats.n // stats.H), out)
    return out[0, 0]


def _write_candidates(methods, pooled, slice_means, coefficients,
                      out: np.ndarray) -> None:
    """Write the candidates of slicings at one or more H into ``out``
    (len(methods), len(H grid), ...): ``out[j, i]`` is the matrix of
    ``methods[j]`` at the i-th H.  ``pooled`` = (M, L, V) are stacks of the
    shape of ``out[j]``, ``slice_means[i]`` is the i-th H's (means,
    weights), and ``coefficients`` = (a, b) of a L - b V are floats or
    arrays that broadcast over the stacks, such as (len(H grid), 1, 1, 1)
    arrays of each H's a(c) and b(c).

    SIR is written once per H, SAVE and CSAVE once over the stacks, from
    one I - 2 M they share, with their sums written in place.  Every entry
    takes the same operations in the same order at any stack shape, so each
    H's candidates are bitwise those of ``candidate_matrix`` on that H's
    stats alone.  A name outside ``METHODS`` raises InvalidArgument.
    """
    mean_cov, cov_square, fourth = pooled
    shared = None
    for method, cand in zip(methods, out):
        if method == "sir":
            for row, (means, weights) in zip(cand, slice_means):
                row[...] = _between(means, weights)
            continue
        if method not in ("save", "csave"):
            raise InvalidArgument(f"unknown method {method!r}; valid: {METHODS}")
        if shared is None:
            shared = np.eye(mean_cov.shape[-1]) - 2.0 * mean_cov
        added = (cov_square if method == "save"
                 else _debiased(cov_square, fourth, *coefficients))
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
