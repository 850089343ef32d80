"""Predictor ingestion and standardization.

``load_csv`` reads a raw predictor matrix x (n rows, p columns) and a
response vector y (length n) from a CSV file.  Standardizing centers the
predictors and whitens them with the inverse square root of the sample
covariance (divisor n-1), so the standardized rows have sample mean zero
and sample covariance exactly the identity.  Directions estimated in
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

import numpy as np

from . import linalg
from .errors import CsvFormatError, DataError, InvalidArgument, NumericalError

# OpenBLAS runs a gemm on one thread while m*n*k stays under 65536*4.
_WHITEN_BLOCK = 2**18
#: Smallest positive normal float; a squared norm below it lost bits.
_NORMAL_MIN = np.finfo(float).tiny


def standardize(x) -> tuple:
    """Whitened predictors z and the root cov^{-1/2} that whitened them.

    Row i of z is cov^{-1/2} (x_i - mean), from the sample mean and
    covariance of the predictor matrix x: 2-d, with p >= 1 columns and
    finite values.  Requires n > p so the sample covariance can be
    nonsingular; raises SingularCovariance (from the inverse square root)
    when it is not.  z is an array of its own: x is never written and never
    aliased.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise InvalidArgument(f"x must be a 2-d array, got shape {x.shape}")
    n, p = x.shape
    if p < 1:
        raise InvalidArgument("x must have at least one column")
    if not np.isfinite(x).all():
        raise InvalidArgument("x contains non-finite values")
    if n <= p:
        raise DataError(f"need n > p to standardize, got n={n}, p={p}")
    xc = x - x.mean(axis=0)
    cov = linalg.ensure_symmetric(xc.T @ xc / (n - 1))
    root = linalg.inv_sqrt(cov)
    # root is symmetric, so row-wise R (x - mean); even row blocks leave no
    # 1-row tail, which numpy would send to gemv, whose bits differ from gemm's.
    # Each block is whitened in place: numpy copies an input block that
    # overlaps its output, so xc becomes z without a second n x p buffer.
    blocks = -(-n // max(1, _WHITEN_BLOCK // p**2))
    for k in range(blocks):
        rows = slice(n * k // blocks, n * (k + 1) // blocks)
        np.matmul(xc[rows], root, out=xc[rows])
    return xc, root


def directions_to_x_scale(betas_z, cov_inv_sqrt) -> np.ndarray:
    """Map unit directions from z-coordinates back to the x scale.

    Applies cov^{-1/2} to a (p,) direction or to each column of a (p, k)
    stack and renormalizes to unit length; the result has the input's shape.
    A column whose squared norm under- or overflows, as it does when the
    predictors' scale is near the ends of the float range, is scaled by an
    exact power of two before it is normalized, and every other column
    keeps the bits of ``np.linalg.norm``'s normalization.  A direction that
    comes out zero or not finite raises NumericalError.
    """
    betas_z = np.asarray(betas_z, dtype=float)
    root = np.asarray(cov_inv_sqrt, dtype=float)
    if betas_z.ndim not in (1, 2) or root.shape != (betas_z.shape[0],) * 2:
        raise InvalidArgument(
            f"cov_inv_sqrt of shape {root.shape} does not fit directions of "
            f"shape {betas_z.shape}; need (p, p) for (p,) or (p, k) directions"
        )
    out = root @ betas_z
    cols = out.reshape(out.shape[0], -1)  # a view: (p, 1) for a (p,) direction
    # an overflowing column is rescaled, and one that holds inf is rejected
    with np.errstate(over="ignore"):
        square = np.add.reduce(cols * cols, axis=0)  # as np.linalg.norm sums
        off = (square < _NORMAL_MIN) | (square == np.inf)
        if off.any():
            _, exponent = np.frexp(np.abs(cols[:, off]).max(axis=0))
            cols[:, off] = np.ldexp(cols[:, off], -exponent)
            square[off] = np.add.reduce(cols[:, off] * cols[:, off], axis=0)
    norms = np.sqrt(square.reshape(out.shape[1:]))
    if not np.isfinite(norms).all():
        raise NumericalError("a direction is not finite under cov^{-1/2}")
    if np.any(norms <= 1e-300):
        raise NumericalError("a direction collapsed to zero under cov^{-1/2}")
    return out / norms


def load_csv(path, y_column) -> tuple[np.ndarray, np.ndarray]:
    """Read a numeric CSV (header row required) into predictors x (n, p)
    and response y (n,).

    ``y_column`` selects the response by header name, which must match one
    header cell only; when no header name matches, an integer (or integer
    string) is the zero-based column index.
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
    # y and x are copies, so the parsed table is freed here rather than kept
    # alive as the base of a view of y
    y = table[:, y_idx].copy()
    x = np.delete(table, y_idx, axis=1)
    del table
    if x.shape[1] < 1:
        raise CsvFormatError(f"{path}: no predictor columns besides {header[y_idx]!r}")
    return x, y


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
        matches = [j for j, h in enumerate(header) if h == name]
        if len(matches) > 1:
            raise CsvFormatError(
                f"{path}: column name {name!r} names {len(matches)} columns: {matches}"
            )
        if matches:
            return matches[0]
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
