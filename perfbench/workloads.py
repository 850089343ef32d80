"""The benchmark's workloads: CLI jobs built from a seed.

A job is the list of ``slicesdr`` CLI argument vectors that one timed
iteration runs.  The seed reaches the program only as ``--seed`` or as the
contents of a generated CSV file, so the same seed gives the same inputs.
Run-length choices (replicates per grid cell, rows of the CSV) live here.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Seed of the stored reference outputs (the CLI's default seed).
REFERENCE_SEED = 1729

GRID_REPS = 10        # replicates per (model, H) cell of the 60-cell grid
NULL_REPS = 10        # replicates per (n, c) cell of the null-model sweep
NULL_N = 20000
NULL_C_GRID = (2, 3)  # c=2 gives H=10000; c=3 leaves a 2-point remainder
CSV_ROWS = 10007      # not a multiple of the default H=500: ragged last slice
CSV_P = 10
CSV_METHODS = ("sir", "save", "csave")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    threaded: bool = False   # SDR_THREADS = nproc instead of unset
    reference: str = ""      # stored reference file; defaults to the name

    @property
    def reference_name(self) -> str:
        return self.reference or self.name


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "grid",
            "table1 over models 1-5 x H in {2,6,24,96}, n=480, p=10, serial: the "
            "headline job, where the replicate pipeline does almost all the work",
        ),
        # Runnable, and in baseline.json, but not listed in BENCHMARK.json: its
        # wall time depends on whether the second CPU is free, which the speed
        # probe cannot see, so 10-run spreads reached 20% (raw 46%) of the median.
        Workload(
            "grid-threaded",
            "the same grid with SDR_THREADS=nproc, so the thread-pool path of "
            "run_mc is measured against the serial grid",
            threaded=True,
            reference="grid",
        ),
        Workload(
            "null-fine",
            "sweep --mode bias at n=20000, p=1, c in {2,3}: thousands of tiny "
            "slices stress slicing and the CSAVE pieces without gen_model or eigh",
        ),
        Workload(
            "estimate-csv",
            "estimate --out json with sir, save and csave on a seeded 10007x10 CSV: "
            "the data-ingest path, which the replicate engine does not touch",
        ),
    )
}


def program_seed(seed: int) -> int:
    """The CLI accepts non-negative seeds only."""
    return seed % 2**32


def job(name: str, seed: int, workdir: Path, root: Path) -> list:
    """Argument vectors of one iteration of workload ``name`` at ``seed``.

    Writes the estimate-csv input under ``workdir``; paths in the returned
    argv are relative to ``root``, the directory the CLI runs in.
    """
    seed = program_seed(seed)
    if name in ("grid", "grid-threaded"):
        return [["table1", "--reps", str(GRID_REPS), "--n", "480",
                 "--seed", str(seed), "--out", "json"]]
    if name == "null-fine":
        return [["sweep", "--mode", "bias", "--n-grid", str(NULL_N),
                 "--c-grid", ",".join(map(str, NULL_C_GRID)), "--reps", str(NULL_REPS),
                 "--p", "1", "--seed", str(seed), "--out", "json"]]
    if name == "estimate-csv":
        path = workdir / f"estimate-{seed}.csv"
        write_csv(path, seed)
        rel = os.path.relpath(path, root)
        return [["estimate", "--input", rel, "--y", "y", "--method", method,
                 "--out", "json"] for method in CSV_METHODS]
    raise KeyError(f"unknown workload {name!r}; known: {sorted(WORKLOADS)}")


def env(name: str, base: dict) -> dict:
    """Process environment for a workload: SDR_THREADS=nproc or unset."""
    out = dict(base)
    out.pop("SDR_THREADS", None)
    if WORKLOADS[name].threaded:
        out["SDR_THREADS"] = str(nproc())
    return out


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def write_csv(path: Path, seed: int) -> None:
    """Correlated predictors and a single-index response with a cubic and a
    quadratic part, so that SIR, SAVE and CSAVE all see structure."""
    rng = np.random.default_rng(seed)
    mix = np.tril(0.3 * rng.standard_normal((CSV_P, CSV_P)), -1) + np.eye(CSV_P)
    x = rng.standard_normal((CSV_ROWS, CSV_P)) @ mix.T
    beta = np.zeros(CSV_P)
    beta[:2] = 1.0 / np.sqrt(2.0)
    u = x @ beta
    y = 0.2 * u ** 3 + u ** 2 + 0.5 * rng.standard_normal(CSV_ROWS)
    header = ",".join(["y"] + [f"x{j + 1}" for j in range(CSV_P)])
    lines = [header]
    for yi, row in zip(y.tolist(), x.tolist()):
        lines.append(",".join(repr(v) for v in [yi] + row))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
