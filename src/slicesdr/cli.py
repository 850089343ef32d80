"""Command-line front end.

Four subcommands:

* ``estimate`` -- fit SIR / SAVE / CSAVE on a CSV file and report the
  estimated directions, eigenvalues and per-slice counts.
* ``simulate`` -- one Monte Carlo run of the benchmark models.
* ``table1``   -- the full benchmark median grid (models x methods x H).
* ``sweep``    -- null-model bias / consistency sweeps of the raw and
  corrected slice-covariance-square estimators.

Every command accepts ``--out {human,csv,json}`` and an optional
``--output FILE``.  JSON documents always have top-level keys ``meta``
(command, version, seed and the fully resolved config) and ``results``.
All randomness flows from ``--seed`` (fixed default, never time-derived),
so reruns are byte-identical.

Exit codes: 0 success, 2 usage error, 3 data error (or an unreadable or
unwritable file), 4 numerical error, by the family base of the error in
``errors``.  Any other exception is a bug and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
import json
import os
import re
import sys

import numpy as np

from . import __version__
from .data import load_csv, standardize
from .errors import (
    DataError,
    InvalidArgument,
    NumericalError,
    TooManySlices,
    UsageError,
)
from .estimators import (
    METHODS,
    candidate_matrix,
    cdr_basis,
    negative_eigenvalue_count,
)
from .linalg import check_rel_floor, sym_eig
from .simulation import (
    DEFAULT_SEED,
    MODEL_IDS,
    McReport,
    ModelSpec,
    SimConfig,
    SWEEP_P,
    SweepRow,
    bias_sweep,
    check_sweep,
    grid_cells,
    run_grid,
    run_mc,
)
from .slicing import DIVISORS, slice_equal_count, slice_stats

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

def _fmt(value: float) -> str:
    """17-significant-digit float formatting for lossless CSV round trips."""
    return format(float(value), ".17g")


def _csv_lines(header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _check_output(output: str | None) -> None:
    """Fail where ``_emit`` could not open ``output``, with the error ``open``
    would raise; nothing is created.  A command calls it once its arguments
    are valid and before its run starts."""
    if output is None:
        return
    try:
        if os.path.isdir(output):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        # the trailing separator makes stat fail unless the parent is a directory
        os.stat(os.path.join(os.path.dirname(output) or os.curdir, ""))
    except OSError as e:
        raise OSError(e.errno, e.strerror, output) from None


def _json_document(meta: dict, results) -> str:
    return json.dumps({"meta": meta, "results": results}, indent=2) + "\n"


def _int_list(text: str):
    items = [t for t in (s.strip() for s in text.split(",")) if t]
    try:
        return [int(t) for t in items]
    except ValueError:
        raise InvalidArgument(
            f"expected a comma list of integers, got {text!r}"
        ) from None


# -- estimate ---------------------------------------------------------------

def _default_slices(n: int) -> int:
    # practical default: about 20 observations per slice
    return max(2, int(n / 20 + 0.5))


def _cmd_estimate(args) -> int:
    check_rel_floor(args.rel_floor)  # a usage error, before the file is read
    dataset = load_csv(args.input, args.y)
    n, p = dataset.n, dataset.p
    if args.slices is not None:
        H, source = args.slices, f"--slices {args.slices}"
    else:
        H = _default_slices(n)
        source = f"the default H = max(2, round(n/20)) = {H}"
    if H < 2:
        raise TooManySlices(f"{source}: need at least 2 slices")
    if n < 2 * H:
        raise TooManySlices(
            f"{source} leaves fewer than 2 points per slice for n={n}"
        )
    sd = standardize(dataset, rel_floor=args.rel_floor)
    del dataset  # nothing reads x after whitening; free it before the slice gather
    stats = slice_stats(sd.z, slice_equal_count(sd.y, H), divisor=args.divisor)
    eig = sym_eig(candidate_matrix(args.method, stats))
    basis = cdr_basis(eig, args.k, sd)
    negative = negative_eigenvalue_count(eig) if args.method == "csave" else None

    meta = {
        "command": "estimate",
        "version": __version__,
        "seed": None,
        "input": args.input,
        "y": args.y,
        "method": args.method,
        "slices": H,
        "k": args.k,
        "divisor": args.divisor,
        "rel_floor": args.rel_floor,
        "n": n,
        "p": p,
    }
    results = {
        "eigenvalues": [float(v) for v in eig.values],
        "betas_z": [[float(v) for v in row] for row in basis.betas_z],
        "betas_x": [[float(v) for v in row] for row in basis.betas_x],
        "basis_eigenvalues": [float(v) for v in basis.eigenvalues],
        "slice_counts": [int(c) for c in stats.counts],
        "ambiguous_dimension": basis.ambiguous,
        "negative_eigenvalues": negative,
    }
    if args.out == "json":
        _emit(_json_document(meta, results), args.output)
    elif args.out == "csv":
        rows = []
        for i, v in enumerate(results["eigenvalues"]):
            rows.append(("eigenvalue", i, 0, float(v)))
        for i, row in enumerate(results["betas_z"]):
            for j, v in enumerate(row):
                rows.append(("beta_z", i, j, float(v)))
        for i, row in enumerate(results["betas_x"]):
            for j, v in enumerate(row):
                rows.append(("beta_x", i, j, float(v)))
        for h, c in enumerate(results["slice_counts"]):
            rows.append(("slice_count", h, 0, float(c)))
        if negative is not None:
            rows.append(("negative_eigenvalues", 0, 0, float(negative)))
        _emit(_csv_lines(("record", "i", "j", "value"), rows), args.output)
    else:
        lines = [
            f"method {args.method}  n={n}  p={p}  H={H}  "
            f"k={args.k}  divisor={args.divisor}",
            "eigenvalues (descending): "
            + " ".join(f"{v:.6g}" for v in results["eigenvalues"]),
            f"slice counts: {results['slice_counts']}",
        ]
        for j in range(args.k):
            bz = " ".join(f"{v: .6f}" for v in basis.betas_z[:, j])
            bx = " ".join(f"{v: .6f}" for v in basis.betas_x[:, j])
            lines.append(f"beta_z[{j}]: {bz}")
            lines.append(f"beta_x[{j}]: {bx}")
        if negative is not None:
            lines.append(f"negative eigenvalues (csave diagnostic): {negative}")
        if basis.ambiguous:
            lines.append("warning: tie at the k-th eigenvalue; basis not unique")
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


# -- simulate / table1 ------------------------------------------------------

#: Row fields of a simulate or table1 report, without and with quantiles.
_MEDIAN_FIELDS = ("model", "method", "H", "median", "reps")
_QUANTILE_FIELDS = ("model", "method", "H", "min", "q1", "median", "q3", "max", "reps")


def _report_rows(report: McReport) -> list:
    cfg = report.config
    rows = []
    for method in cfg.methods:
        s = report.summaries[method]
        row = {
            "model": cfg.model.id,
            "method": method,
            "H": cfg.H,
            "median": s.median,
            "q1": s.q1,
            "q3": s.q3,
            "min": s.min,
            "max": s.max,
            "reps": cfg.reps,
        }
        rows.append(row)
    return rows


def _cmd_simulate(args) -> int:
    methods = tuple(s.strip() for s in args.methods.split(",") if s.strip())
    cfg = SimConfig(
        model=ModelSpec(id=args.model, p=args.p),
        n=args.n,
        H=args.slices,
        reps=args.reps,
        seed=args.seed,
        methods=methods,
        standardize=args.standardize,
    )
    _check_output(args.output)
    report = run_mc(cfg)
    meta = {
        "command": "simulate",
        "version": __version__,
        "seed": cfg.seed,
        "model": cfg.model.id,
        "p": cfg.model.p,
        "n": cfg.n,
        "slices": cfg.H,
        "reps": cfg.reps,
        "methods": list(cfg.methods),
        "standardize": cfg.standardize,
        "quantiles": bool(args.quantiles),
    }
    fields = _QUANTILE_FIELDS if args.quantiles else _MEDIAN_FIELDS
    _emit_rows(args, meta, _report_rows(report), fields)
    return EXIT_OK


def _cmd_table1(args) -> int:
    models = _int_list(args.models)
    h_grid = _int_list(args.H)
    meta = {
        "command": "table1",
        "version": __version__,
        "seed": args.seed,
        "models": models,
        "H": h_grid,
        "n": args.n,
        "reps": args.reps,
        "methods": list(METHODS),
        "standardize": args.standardize,
    }
    specs = [ModelSpec(id=model_id) for model_id in models]
    grid_cells(specs, h_grid, args.n, args.reps, args.seed, METHODS, args.standardize)
    _check_output(args.output)
    reports = run_grid(
        specs, h_grid, args.n, args.reps, seed=args.seed, standardize=args.standardize,
    )
    rows = [row for r in reports for row in _report_rows(r)]
    # mirror the reference layout: per-model blocks, method rows, H columns
    rows.sort(key=lambda r: (r["model"], METHODS.index(r["method"]), r["H"]))
    if args.out == "human":
        medians = {(r["model"], r["method"], r["H"]): r["median"] for r in rows}
        lines = []
        for model_id in models:
            lines.append(f"model {model_id} (n={args.n}, reps={args.reps})")
            lines.append("  method " + "".join(f"   H={H:<6d}" for H in h_grid))
            for method in METHODS:
                lines.append(f"  {method:<7s}" + "".join(
                    f" {medians[model_id, method, H]:9.4f}" for H in h_grid
                ))
        _emit("\n".join(lines) + "\n", args.output)
    else:
        _emit_rows(args, meta, rows, _QUANTILE_FIELDS)
    return EXIT_OK


def _emit_rows(args, meta, rows, csv_fields) -> None:
    if args.out == "json":
        _emit(_json_document(meta, rows), args.output)
    elif args.out == "csv":
        table = [tuple(row[f] for f in csv_fields) for row in rows]
        _emit(_csv_lines(csv_fields, table), args.output)
    else:
        lines = []
        for row in rows:
            parts = []
            for f in csv_fields:
                v = row[f]
                parts.append(f"{f}={v:.4f}" if isinstance(v, float) else f"{f}={v}")
            lines.append("  ".join(parts))
        _emit("\n".join(lines) + "\n", args.output)


# -- sweep -------------------------------------------------------------------

_SWEEP_DEFAULTS = {
    "bias": {"n": "20000", "c": "2", "reps": 100},
    "consistency": {"n": "400,1600,6400", "c": "4", "reps": 100},
}


def _cmd_sweep(args) -> int:
    defaults = _SWEEP_DEFAULTS[args.mode]
    n_grid = _int_list(args.n_grid if args.n_grid is not None else defaults["n"])
    c_grid = _int_list(args.c_grid if args.c_grid is not None else defaults["c"])
    reps = args.reps if args.reps is not None else defaults["reps"]
    check_sweep(n_grid, c_grid, reps, args.seed, args.p)
    _check_output(args.output)
    rows = bias_sweep(n_grid, c_grid, reps, seed=args.seed, p=args.p)
    meta = {
        "command": "sweep",
        "version": __version__,
        "seed": args.seed,
        "mode": args.mode,
        "n_grid": n_grid,
        "c_grid": c_grid,
        "reps": reps,
        "p": args.p,
    }
    fields = tuple(f.name for f in dataclasses.fields(SweepRow))
    out_rows = [dataclasses.asdict(r) for r in rows]
    _emit_rows(args, meta, out_rows, fields)
    return EXIT_OK


# -- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slicesdr",
        description="Slicing-based sufficient dimension reduction (SIR, SAVE, CSAVE).",
    )
    parser.add_argument("--version", action="version", version=f"slicesdr {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p):
        p.add_argument(
            "--out",
            choices=("human", "csv", "json"),
            default="human",
            help="output format (default: human)",
        )
        p.add_argument(
            "--output",
            default=None,
            metavar="FILE",
            help="write output to FILE instead of stdout",
        )

    est = sub.add_parser("estimate", help="estimate directions from a CSV file")
    est.add_argument("--input", required=True, help="CSV path (header row required)")
    est.add_argument("--y", required=True, help="response column: header name, else 0-based index")
    est.add_argument("--slices", type=int, default=None,
                     help="slice count H (default: max(2, round(n/20)))")
    est.add_argument("--method", choices=METHODS, default="save")
    est.add_argument("--k", type=int, default=1, help="directions to keep (default 1)")
    est.add_argument("--divisor", choices=DIVISORS, default="c-1",
                     help="within-slice covariance divisor (default c-1)")
    est.add_argument("--rel-floor", type=float, default=1e-10,
                     help="relative eigenvalue floor for the covariance inverse root")
    # argparse's own pattern reads "-1e-3" and "-inf" as unknown options
    est._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)
    add_output_flags(est)
    est.set_defaults(func=_cmd_estimate)

    sim = sub.add_parser("simulate", help="one Monte Carlo run of a benchmark model")
    sim.add_argument("--model", type=int, required=True, choices=MODEL_IDS)
    sim.add_argument("--n", type=int, default=200)
    sim.add_argument("--p", type=int, default=10)
    sim.add_argument("--slices", type=int, default=10, help="slice count H")
    sim.add_argument("--reps", type=int, default=200)
    sim.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sim.add_argument("--methods", default=",".join(METHODS),
                     help="comma list from save,sir,csave")
    sim.add_argument("--quantiles", action="store_true",
                     help="include min/q1/q3/max columns in csv/human output")
    sim.add_argument("--standardize", action="store_true",
                     help="re-standardize with the estimated covariance")
    add_output_flags(sim)
    sim.set_defaults(func=_cmd_simulate)

    tab = sub.add_parser("table1", help="full benchmark median grid")
    tab.add_argument("--reps", type=int, default=200)
    tab.add_argument("--seed", type=int, default=DEFAULT_SEED)
    tab.add_argument("--models", default=",".join(map(str, MODEL_IDS)),
                     help="comma list of model ids")
    tab.add_argument("--H", default="2,6,24,96", help="comma list of slice counts")
    tab.add_argument("--n", type=int, default=480)
    tab.add_argument("--standardize", action="store_true",
                     help="re-standardize with the estimated covariance")
    add_output_flags(tab)
    tab.set_defaults(func=_cmd_table1)

    swp = sub.add_parser("sweep", help="null-model bias / consistency sweep")
    swp.add_argument("--mode", choices=("bias", "consistency"), required=True)
    swp.add_argument("--n-grid", default=None, help="comma list of sample sizes")
    swp.add_argument("--c-grid", default=None, help="comma list of per-slice counts")
    swp.add_argument("--reps", type=int, default=None)
    swp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    swp.add_argument("--p", type=int, default=1, choices=SWEEP_P,
                     help="null-model dimension")
    add_output_flags(swp)
    swp.set_defaults(func=_cmd_sweep)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser that ``main`` reuses for every call in a process: each
    ``add_argument`` queries the terminal size and gettext, so building one
    costs milliseconds, and parsing leaves the parser as it was."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
