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
    negative_eigenvalue_count,
    save_matrix,
    sir_matrix,
)
from .linalg import (
    EigenResult,
    ensure_symmetric,
    inv_sqrt,
    sym_eig,
)
from .metrics import r2_single
from .simulation import (
    DEFAULT_SEED,
    McReport,
    MethodSummary,
    ModelSpec,
    RngStreams,
    SimConfig,
    SweepRow,
    bias_sweep,
    model_streams,
    run_grid,
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
    "SweepRow",
    "bias_sweep",
    "candidate_matrix",
    "cdr_basis",
    "correction_coefficients",
    "csave_matrix",
    "directions_to_x_scale",
    "ensure_symmetric",
    "inv_sqrt",
    "lambda_corrected",
    "load_csv",
    "model_streams",
    "negative_eigenvalue_count",
    "r2_single",
    "run_grid",
    "run_mc",
    "save_matrix",
    "sir_matrix",
    "slice_discrete",
    "slice_equal_count",
    "slice_stats",
    "standardize",
    "sym_eig",
]
