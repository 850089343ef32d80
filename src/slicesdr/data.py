"""Dataset ingestion and standardization.

A Dataset is a raw predictor matrix plus a response vector.  Standardizing
centers the predictors and whitens them with the inverse square root of the
sample covariance (divisor n-1), so the standardized rows have sample mean
zero and sample covariance exactly the identity.  Directions estimated in
standardized coordinates are mapped back to the original scale with
:func:`directions_to_x_scale`.
"""

from __future__ import annotations

import csv
import io
import lzma
import os
import stat
import warnings
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    CsvFormatError,
    DegenerateDirection,
    InsufficientData,
    InvalidArgument,
)

# OpenBLAS runs a gemm on one thread while m*n*k stays under 65536*4.
_WHITEN_BLOCK = 2**18


@dataclass(frozen=True)
class Dataset:
    """Raw predictors x (n rows, p columns) and response y (length n)."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 2:
            raise InvalidArgument("x must be a 2-d array")
        if y.ndim != 1 or y.size != x.shape[0]:
            raise InvalidArgument("y must be 1-d with one entry per row of x")
        if x.shape[0] < 2 or x.shape[1] < 1:
            raise InvalidArgument("need n >= 2 observations and p >= 1 predictors")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise InvalidArgument("dataset contains non-finite values")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class StandardizedDataset:
    """Whitened predictors plus the transform that produced them."""

    z: np.ndarray             # (n, p) standardized rows
    mean: np.ndarray          # (p,) sample mean of x
    cov: np.ndarray           # (p, p) sample covariance of x (divisor n-1)
    cov_inv_sqrt: np.ndarray  # (p, p) symmetric inverse square root
    y: np.ndarray             # (n,) response, unchanged

    @property
    def n(self) -> int:
        return self.z.shape[0]

    @property
    def p(self) -> int:
        return self.z.shape[1]


def standardize(d: Dataset, rel_floor: float = 1e-10) -> StandardizedDataset:
    """Map rows to z_i = cov^{-1/2} (x_i - mean).

    Requires n > p so the sample covariance can be nonsingular; raises
    SingularCovariance (from the inverse square root) when it is not.
    """
    if d.n <= d.p:
        raise InsufficientData(f"need n > p to standardize, got n={d.n}, p={d.p}")
    mean = d.x.mean(axis=0)
    xc = d.x - mean
    cov = linalg.ensure_symmetric(xc.T @ xc / (d.n - 1))
    root = linalg.inv_sqrt(cov, rel_floor=rel_floor)
    # root is symmetric, so row-wise R (x - mean); even row blocks leave no
    # 1-row tail, which numpy would send to gemv, whose bits differ from gemm's
    z = np.empty_like(xc)
    blocks = -(-d.n // max(1, _WHITEN_BLOCK // d.p**2))
    for k in range(blocks):
        rows = slice(d.n * k // blocks, d.n * (k + 1) // blocks)
        np.matmul(xc[rows], root, out=z[rows])
    return StandardizedDataset(z=z, mean=mean, cov=cov, cov_inv_sqrt=root, y=d.y)


def directions_to_x_scale(betas_z, cov_inv_sqrt) -> np.ndarray:
    """Map unit directions from z-coordinates back to the x scale.

    Applies cov^{-1/2} to each column and renormalizes to unit length.
    """
    b = np.asarray(betas_z, dtype=float)
    if b.ndim == 1:
        b = b[:, None]
    out = np.asarray(cov_inv_sqrt, dtype=float) @ b
    norms = np.linalg.norm(out, axis=0)
    if np.any(norms <= 1e-300):
        raise DegenerateDirection("a direction collapsed to zero under cov^{-1/2}")
    return out / norms


def load_csv(path, y_column) -> Dataset:
    """Read a numeric CSV (header row required) into a Dataset.

    ``y_column`` selects the response by header name; when no header name
    matches, an integer (or integer string) is the zero-based column index.
    Every other column becomes a predictor, in file order.  A leading UTF-8
    byte-order mark is skipped.  Parse problems raise CsvFormatError naming
    the offending row and column; non-finite cells (NaN/inf) are rejected,
    not imputed, and bytes that are not UTF-8 are named by their offset.

    The data rows are parsed in one vectorized pass, which numpy reads from
    the path in chunks; a pipe, which reads only once, is held in memory
    and read line by line.  Input that pass rejects, or that holds a
    non-finite cell, is scanned again cell by cell with ``float``: the scan
    either accepts it (whitespace-only lines and underscore digit
    separators) or names the offending row and column.
    """
    try:
        fh = open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as e:
        raise CsvFormatError(f"cannot open {path}: {e}") from e
    with fh:
        raw = fh.buffer
        if isinstance(path, (str, os.PathLike)) and stat.S_ISREG(
            os.fstat(fh.fileno()).st_mode
        ):
            text, source = fh, os.path.abspath(path)
        else:
            # a pipe or descriptor: numpy could not reopen it by name, and the
            # scan must start over, so read it once and parse from memory
            raw = io.BytesIO(raw.read())
            text = source = io.TextIOWrapper(raw, encoding="utf-8-sig", newline="")
        try:
            reader = csv.reader(text)
            try:
                header = next(reader)
            except StopIteration:
                raise CsvFormatError(f"{path}: empty file, header row required") from None
            header = [h.strip() for h in header]
            y_idx = _resolve_column(header, y_column, path)
            table = _load_rows(source, 0 if source is text else reader.line_num)
            if (
                table is None
                or table.shape[1] != len(header)
                or not np.isfinite(table).all()
            ):
                text.seek(0)
                reader = csv.reader(text)
                next(reader)
                table = _scan_rows(reader, header, path)
        except UnicodeDecodeError:
            raise _utf8_error(raw, path) from None
    if table.shape[0] < 2:
        raise CsvFormatError(f"{path}: need at least 2 data rows, got {table.shape[0]}")
    y = table[:, y_idx]
    x = np.delete(table, y_idx, axis=1)
    if x.shape[1] < 1:
        raise CsvFormatError(f"{path}: no predictor columns besides {header[y_idx]!r}")
    return Dataset(x=x, y=y)


def _load_rows(source, skiprows) -> np.ndarray | None:
    """The data rows below ``skiprows`` lines of ``source``, or None if numpy
    rejects them.

    numpy reads a str path in chunks, where an open text is iterated line
    by line.  An absolute path never parses as a URL, which numpy would
    fetch.  Empty lines are skipped.  A bad cell or a byte that is not
    UTF-8 raises ValueError; numpy opens a ``.gz``, ``.bz2``, ``.xz`` or
    ``.lzma`` path as compressed, so a plain file under such a name raises
    OSError, LZMAError or (for a bare stream header) EOFError.
    """
    with warnings.catch_warnings():
        # a header-only file: the scan reports it
        warnings.filterwarnings(
            "ignore", "loadtxt: input contained no data", UserWarning
        )
        try:
            return np.loadtxt(
                source, skiprows=skiprows, encoding="utf-8",
                delimiter=",", quotechar='"', comments=None, ndmin=2,
            )
        except (ValueError, OSError, EOFError, lzma.LZMAError):
            return None


def _utf8_error(raw, path) -> CsvFormatError:
    """Name the first byte of the binary file ``raw`` that is not UTF-8."""
    raw.seek(0)
    data = raw.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as e:
        return CsvFormatError(
            f"{path}: byte {data[e.start]:#04x} at offset {e.start} is not UTF-8"
        )
    return CsvFormatError(f"{path}: not UTF-8")


def _scan_rows(reader, header, path) -> np.ndarray:
    """Parse data rows cell by cell; raise CsvFormatError at the first bad cell."""
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and row[0].strip() == ""):
            continue  # ignore blank lines
        if len(row) != len(header):
            raise CsvFormatError(
                f"{path}: row {lineno} has {len(row)} fields, expected {len(header)}"
            )
        parsed = []
        for j, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                raise CsvFormatError(
                    f"{path}: row {lineno}, column {header[j]!r}: "
                    f"non-numeric value {cell.strip()!r}"
                ) from None
            if not np.isfinite(value):
                raise CsvFormatError(
                    f"{path}: row {lineno}, column {header[j]!r}: "
                    f"non-finite value {cell.strip()!r}"
                )
            parsed.append(value)
        rows.append(parsed)
    return np.array(rows, dtype=float)


def _resolve_column(header, y_column, path) -> int:
    if isinstance(y_column, int) and not isinstance(y_column, bool):
        idx = y_column
    else:
        name = str(y_column).strip()
        if name in header:
            return header.index(name)
        try:
            idx = int(name)
        except ValueError:
            raise CsvFormatError(
                f"{path}: no column named {name!r}; available: {header}"
            ) from None
    if not 0 <= idx < len(header):
        raise CsvFormatError(
            f"{path}: column index {idx} out of range for {len(header)} columns"
        )
    return idx
