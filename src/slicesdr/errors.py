"""Exception types raised by the slicesdr library.

Every error belongs to one of three family bases, which the CLI maps onto
exit codes without string matching:

* ``UsageError``     -- the request itself is invalid (exit 2)
* ``DataError``      -- the input data cannot be used (exit 3)
* ``NumericalError`` -- a computation failed on valid input (exit 4)

A class exists below a family only where a caller can act on it
differently from its family.  Every other failure raises its family base,
or ``InvalidArgument`` for a bad value, and is told apart by its message.

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


class InvalidArgument(UsageError, ValueError):
    """An argument or configuration value is out of range or unknown; also
    a ``ValueError``, as Python code expects of a bad value."""


class CsvFormatError(DataError):
    """A CSV file could not be parsed; message carries row/column location."""


class SingularCovariance(NumericalError):
    """A covariance matrix is singular or too ill-conditioned to invert:
    an eigenvalue below ``linalg.REL_FLOOR`` times the largest.  Rescale
    the columns or drop collinear ones."""


class SimulationError(NumericalError):
    """A Monte Carlo replicate failed; message carries the replicate index
    and the error it chains as ``__cause__``."""


class AmbiguousDimensionWarning(UserWarning):
    """Tied eigenvalues at the requested cut-off k; basis not unique."""
