"""Slicing-based sufficient dimension reduction.

Estimators for the central dimension-reduction subspace built from
response-ordered slices of standardized predictors: SIR (slice means),
SAVE (slice covariances) and CSAVE, a bias-corrected SAVE whose correction
removes the leading within-slice fourth-moment bias so that fine slicing
remains usable.  Includes subspace-recovery metrics, a deterministic seeded
Monte Carlo harness for the benchmark models, and a CLI.
"""

__version__ = "0.1.0"

from .data import (
    Dataset,
    StandardizedDataset,
    directions_to_x_scale,
    load_csv,
    standardize,
)
from .estimators import (
    METHODS,
    CdrBasis,
    candidate_matrix,
    cdr_basis,
    correction_coefficients,
    csave_matrix,
    lambda_corrected,
    lambda_n,
    negative_eigenvalue_count,
    save_matrix,
    sir_matrix,
)
from .linalg import (
    EigenResult,
    eigen_perturb_first_order,
    ensure_symmetric,
    inv_sqrt,
    sym_eig,
    sym_sqrt,
)
from .metrics import SubspaceMetrics, r2_single, trace_correlation
from .simulation import (
    DEFAULT_METHODS,
    DEFAULT_SEED,
    McReport,
    MethodSummary,
    ModelSpec,
    RngStreams,
    SimConfig,
    SweepRow,
    bias_sweep,
    gen_model,
    model_streams,
    run_mc,
)
from .slicing import (
    SliceAssignment,
    SliceStats,
    slice_discrete,
    slice_equal_count,
    slice_stats,
)

__all__ = [
    "__version__",
    "CdrBasis",
    "Dataset",
    "DEFAULT_METHODS",
    "DEFAULT_SEED",
    "EigenResult",
    "METHODS",
    "McReport",
    "MethodSummary",
    "ModelSpec",
    "RngStreams",
    "SimConfig",
    "SliceAssignment",
    "SliceStats",
    "StandardizedDataset",
    "SubspaceMetrics",
    "SweepRow",
    "bias_sweep",
    "candidate_matrix",
    "cdr_basis",
    "correction_coefficients",
    "csave_matrix",
    "directions_to_x_scale",
    "eigen_perturb_first_order",
    "ensure_symmetric",
    "gen_model",
    "inv_sqrt",
    "lambda_corrected",
    "lambda_n",
    "load_csv",
    "model_streams",
    "negative_eigenvalue_count",
    "r2_single",
    "run_mc",
    "save_matrix",
    "sir_matrix",
    "slice_discrete",
    "slice_equal_count",
    "slice_stats",
    "standardize",
    "sym_eig",
    "sym_sqrt",
    "trace_correlation",
]
