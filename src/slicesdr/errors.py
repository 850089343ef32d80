"""Exception types raised by the slicesdr library.

Every failure mode that callers are expected to handle gets its own class,
grouped under three family bases so the CLI maps families onto exit codes
without string matching:

* ``UsageError``     -- the request itself is invalid (exit 2)
* ``DataError``      -- the input data cannot be used (exit 3)
* ``NumericalError`` -- a computation failed on valid input (exit 4)

Anything else, including a bare ``ValueError`` from inside the library, is a
bug and is not mapped to an exit code.
"""


class SlicesdrError(Exception):
    """Base class for all slicesdr errors."""


class UsageError(SlicesdrError):
    """The requested operation or configuration is invalid."""


class DataError(SlicesdrError):
    """The input data cannot be used for the requested operation."""


class NumericalError(SlicesdrError):
    """A numerical computation failed on valid input."""


# -- usage -------------------------------------------------------------------

class InvalidArgument(UsageError, ValueError):
    """An argument or configuration value is out of range or unknown."""


class TooManySlices(UsageError):
    """Requested slice count leaves fewer than two points per slice."""


class InvalidSliceSize(UsageError):
    """Per-slice count incompatible with the bias correction (c < 2)."""


class DegenerateDesign(UsageError):
    """A sweep configuration that cannot estimate anything (e.g. H < 2)."""


# -- data ------------------------------------------------------------------

class InsufficientData(DataError):
    """Too few observations for the requested operation (e.g. n <= p)."""


class CsvFormatError(DataError):
    """A CSV file could not be parsed; message carries row/column location."""


class SingletonSlice(DataError):
    """A slice contains fewer than two observations."""


class DegenerateResponse(DataError):
    """A discrete response with fewer than two distinct values."""


# -- numerical / linear algebra -------------------------------------------

class InvalidMatrix(NumericalError):
    """Input is not a finite symmetric matrix within tolerance."""


class NumericalFailure(NumericalError):
    """An iterative numerical routine failed to converge."""


class SingularCovariance(NumericalError):
    """A covariance matrix is singular or too ill-conditioned to invert."""


class DegenerateEigenvalue(NumericalError):
    """An eigenvalue gap is too small for a perturbation expansion."""


class DegenerateSubspace(NumericalError):
    """A basis matrix is rank deficient."""


class DegenerateDirection(NumericalError):
    """A direction collapsed to (numerically) zero under a transform."""


class SimulationError(NumericalError):
    """A Monte Carlo replicate failed; message carries the replicate index."""


class AmbiguousDimensionWarning(UserWarning):
    """Tied eigenvalues at the requested cut-off k; basis not unique."""
