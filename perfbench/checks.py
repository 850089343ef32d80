"""Output checks: JSON schema and invariants on any seed, drift from the
stored reference outputs on the reference seed."""

from __future__ import annotations

import json
import math

#: ROADMAP drift bound for results against the reference outputs.
DRIFT_BOUND = 1e-12
UNIT_TOL = 1e-9

_TABLE1_FIELDS = ("model", "method", "H", "min", "q1", "median", "q3", "max", "reps")
_SWEEP_FIELDS = ("n", "c", "H", "reps", "mean_lambda_raw", "mean_lambda_corrected",
                 "mean_abs_err_raw", "median_abs_err_raw", "mean_abs_err_corrected",
                 "median_abs_err_corrected")
_ESTIMATE_FIELDS = ("eigenvalues", "betas_z", "betas_x", "basis_eigenvalues",
                    "slice_counts", "ambiguous_dimension", "negative_eigenvalues")


def _flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _ints(text):
    return [int(t) for t in text.split(",") if t.strip()]


def check_output(argv, text) -> list:
    """Problems found in one CLI call's JSON output; empty when it is valid."""
    try:
        doc = json.loads(text)
    except ValueError as e:
        return [f"output is not JSON: {e}"]
    if not isinstance(doc, dict) or set(doc) != {"meta", "results"}:
        return ["top-level keys are not exactly meta, results"]
    command = argv[0]
    if doc["meta"].get("command") != command:
        return [f"meta.command is {doc['meta'].get('command')!r}, expected {command!r}"]
    checker = {"table1": _check_table1, "sweep": _check_sweep,
               "estimate": _check_estimate}[command]
    try:
        return checker(argv, doc["meta"], doc["results"])
    except (KeyError, TypeError, IndexError, ValueError) as e:
        return [f"malformed {command} results: {e!r}"]


def _check_table1(argv, meta, rows):
    problems = []
    reps = int(_flag(argv, "--reps"))
    models = _ints(_flag(argv, "--models", "1,2,3,4,5"))
    hs = _ints(_flag(argv, "--H", "2,6,24,96"))
    methods = meta["methods"]
    expected = {(m, meth, h) for m in models for meth in methods for h in hs}
    seen = [(r["model"], r["method"], r["H"]) for r in rows]
    if len(seen) != len(set(seen)) or set(seen) != expected or not methods:
        problems.append("table1 rows do not cover the model x method x H grid once")
    for r in rows:
        missing = [f for f in _TABLE1_FIELDS if f not in r]
        if missing:
            problems.append(f"table1 row misses {missing}")
            continue
        q = [r["min"], r["q1"], r["median"], r["q3"], r["max"]]
        if not (0.0 <= q[0] <= q[1] <= q[2] <= q[3] <= q[4] <= 1.0):
            problems.append(f"scores outside [0, 1] or unordered in {r}")
        if r["reps"] != reps:
            problems.append(f"reps {r['reps']} != requested {reps}")
    return problems


def _check_sweep(argv, meta, rows):
    problems = []
    reps = int(_flag(argv, "--reps"))
    cells = [(n, c) for n in _ints(_flag(argv, "--n-grid")) for c in _ints(_flag(argv, "--c-grid"))]
    if [(r["n"], r["c"]) for r in rows] != cells:
        problems.append("sweep rows do not match the (n, c) grid")
    for r in rows:
        missing = [f for f in _SWEEP_FIELDS if f not in r]
        if missing:
            problems.append(f"sweep row misses {missing}")
            continue
        if r["H"] != r["n"] // r["c"] or r["reps"] != reps:
            problems.append(f"sweep row has wrong H or reps: {r}")
        levels = [r[f] for f in _SWEEP_FIELDS[4:]]
        if not all(isinstance(v, float) and math.isfinite(v) for v in levels):
            problems.append(f"sweep levels not finite: {r}")
        if min(levels[2:]) < 0.0:
            problems.append(f"negative error in sweep row: {r}")
    return problems


def _check_estimate(argv, meta, res):
    problems = []
    missing = [f for f in _ESTIMATE_FIELDS if f not in res]
    if missing:
        return [f"estimate results miss {missing}"]
    p, n, k = meta["p"], meta["n"], meta["k"]
    vals = res["eigenvalues"]
    if len(vals) != p or not all(math.isfinite(v) for v in vals):
        problems.append("eigenvalues not p finite values")
    if any(a < b for a, b in zip(vals, vals[1:])):
        problems.append("eigenvalues not descending")
    for key in ("betas_z", "betas_x"):
        rows = res[key]
        if len(rows) != p or any(len(row) != k for row in rows):
            problems.append(f"{key} is not p x k")
            continue
        for j in range(k):
            norm = math.sqrt(sum(row[j] ** 2 for row in rows))
            if abs(norm - 1.0) > UNIT_TOL:
                problems.append(f"{key} column {j} has norm {norm!r}")
    if len(res["basis_eigenvalues"]) != k:
        problems.append("basis_eigenvalues is not length k")
    counts = res["slice_counts"]
    if len(counts) != meta["slices"] or sum(counts) != n or min(counts) < 2:
        problems.append("slice_counts do not partition n into H slices of >= 2")
    negative = res["negative_eigenvalues"]
    if (meta["method"] == "csave") != isinstance(negative, int):
        problems.append("negative_eigenvalues must be an int for csave only")
    if not isinstance(res["ambiguous_dimension"], bool):
        problems.append("ambiguous_dimension is not a bool")
    return problems


def result_drift(doc, ref) -> float:
    """Max absolute difference of the floats in two ``results`` trees.

    Any other difference (structure, integers, strings) is infinite drift.
    """
    if isinstance(doc, float) and isinstance(ref, float):
        return abs(doc - ref) if math.isfinite(doc - ref) else (0.0 if doc == ref else math.inf)
    if isinstance(doc, dict) and isinstance(ref, dict):
        if doc.keys() != ref.keys():
            return math.inf
        return max((result_drift(doc[k], ref[k]) for k in doc), default=0.0)
    if isinstance(doc, list) and isinstance(ref, list):
        if len(doc) != len(ref):
            return math.inf
        return max((result_drift(a, b) for a, b in zip(doc, ref)), default=0.0)
    return 0.0 if type(doc) is type(ref) and doc == ref else math.inf
