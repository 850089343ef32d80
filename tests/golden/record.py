"""Record the CLI byte corpus that tests/test_golden.py replays.

Each argv of ``ARGVS`` runs in-process through ``slicesdr.cli.main`` with
``COLUMNS=80`` (argparse wraps its help to the terminal width) in a
scratch directory that holds ``EST.csv``, ``TIES.csv`` and ``CONST.csv``
(see ``write_est_csv``, ``write_ties_csv`` and ``write_const_csv``).  The
corpus keeps, per argv, the exit code and the sha256 of stdout and of
stderr, plus the parsed stdout of every ``--out json`` argv, so that a
build whose numbers may differ in the last bits can still be compared.
A build fingerprint (numpy version, BLAS configuration, CPU SIMD features
and the Python version) says which build the hashes belong to.

Run from the repository root, against the tree whose outputs are the
reference:

    PYTHONPATH=src python tests/golden/record.py

A change that alters any CLI output re-records the corpus in the same
commit, and says which argvs changed and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from slicesdr.cli import main

CORPUS = Path(__file__).resolve().parent / "corpus.json"

_FORMATS = ("human", "csv", "json")

#: Commands run in each of the three output formats.
_EACH_FORMAT = (
    *(f"sweep --mode bias --n-grid 4000,400 --c-grid 2,4 --reps 6 --p {p}"
      for p in (1, 2, 3)),
    *(f"sweep --mode consistency --n-grid 400,1600 --reps 5 --p {p}" for p in (1, 2, 3)),
    "sweep --mode bias --n-grid 1000,401 --c-grid 4,2,3 --reps 5 --seed 8",
    "sweep --mode bias --n-grid 401,401 --c-grid 3,3,2 --reps 4 --p 2",
    "sweep --mode bias --n-grid 400 --c-grid 2,3 --reps 1",
    "sweep --mode bias --n-grid 20000 --c-grid 2,3 --reps 10 --p 1",
    "sweep --mode bias --n-grid 4000,401 --c-grid 5,8,20 --reps 4 --p 1",
    "table1 --reps 6 --n 240",
    "table1 --reps 6 --n 240 --standardize",
    "simulate --model 3 --n 200 --slices 10 --reps 9",
    "simulate --model 3 --n 200 --slices 10 --reps 9 --quantiles",
    "simulate --model 2 --n 200 --slices 10 --reps 9 --quantiles --standardize",
    *(f"simulate --model {m} --n 200 --slices 10 --reps 9" for m in (1, 4)),
    "simulate --model 1 --n 200 --slices 10 --reps 9 --methods sir",
    "simulate --model 4 --n 200 --slices 10 --reps 9 --methods csave,sir",
    "table1 --reps 4 --n 240 --models 2,5",
    "simulate --model 2 --n 200 --slices 40 --reps 9 --methods csave,save",
    "simulate --model 5 --n 200 --slices 10 --reps 9 --methods save --standardize",
    "table1 --reps 4 --n 240 --models 4,3 --H 96,6",
    "table1 --models 3,1 --H 24,2 --n 240 --reps 4 --seed 1729",
    *(f"estimate --input EST.csv --y y --method {m} --k {k}"
      for k in (2, 1) for m in ("sir", "save", "csave")),
    "table1 --reps 10 --n 480",
    "simulate --model 1 --p 1 --n 200 --slices 10 --reps 9",
    "simulate --model 3 --p 2 --n 201 --slices 40 --reps 9 --quantiles",
    "sweep --mode bias --n-grid 2003 --c-grid 3,4 --reps 5 --p 2",
    *(f"estimate --input TIES.csv --y y --method {m}" for m in ("sir", "save", "csave")),
    "simulate --model 4 --n 200 --slices 10 --reps 9 --quantiles --standardize",
)

#: Usage and input errors, help, the large-p sweeps and the default
#: (human) output of a grid and of small sweeps, each run once as written.
_AS_WRITTEN = (
    "sweep --mode bias --n-grid 100 --c-grid 1",
    "sweep --mode bias --n-grid 10 --c-grid 4 --reps 2",
    "sweep --mode bias --reps 0",
    "sweep --mode bias --n-grid 100 --seed -1",
    "sweep --mode bias --n-grid ,",
    "sweep --mode bias --p x",
    "sweep -h",
    "sweep --mode bias --p 0",
    "sweep --mode bias --p -1",
    "sweep --mode bias --n-grid 4000 --c-grid 2,4 --reps 10 --p 4 --out json",
    "sweep --mode bias --n-grid 4000 --c-grid 2,4 --reps 10 --p 10 --out json",
    "estimate --input MISSING.csv --y y",
    "estimate --input EST.csv --y nope",
    "estimate --input EST.csv --y y --slices 200",
    "estimate --input EST.csv --y y --k 6",
    "estimate --input EST.csv --y y --output missing-dir/o.json",
    "table1 --models 1,3 --H 2,96 --n 192 --reps 3",
    *(f"sweep --mode bias --n-grid 400 --reps 4 --c-grid {flags}"
      for flags in ("2,3", "2,3 --p 2", "2,4 --p 10")),
    "estimate --input CONST.csv --y y",
)

#: The 138 argvs of the corpus, in order.
ARGVS = [
    *(f"{cmd} --out {fmt}".split() for cmd in _EACH_FORMAT for fmt in _FORMATS),
    *(cmd.split() for cmd in _AS_WRITTEN),
]


def write_est_csv(path: Path) -> None:
    """The 300-row CSV that the ``estimate`` argvs read: y = x1^3 + x2 eps,
    five standard normal predictors, from ``np.random.default_rng(5)``."""
    rng = np.random.default_rng(5)
    x = rng.standard_normal((300, 5))
    y = x[:, 0] ** 3 + x[:, 1] * rng.standard_normal(300)
    np.savetxt(path, np.column_stack([y, x]), delimiter=",", fmt="%.17g",
               header="y,x1,x2,x3,x4,x5", comments="")


def write_ties_csv(path: Path) -> None:
    """A 300-row CSV whose y takes 12 values, -6 to 5 (-0.0 and 0.0 among
    them), so that ties straddle the slice boundaries and the sort of y
    falls back to the stable argsort: y = 2 x1 + x2 eps rounded and
    clipped, five standard normal predictors, from
    ``np.random.default_rng(6)``."""
    rng = np.random.default_rng(6)
    x = rng.standard_normal((300, 5))
    y = np.clip(np.round(2 * x[:, 0] + x[:, 1] * rng.standard_normal(300)), -6, 5)
    np.savetxt(path, np.column_stack([y, x]), delimiter=",", fmt="%.17g",
               header="y,x1,x2,x3,x4,x5", comments="")


def write_const_csv(path: Path) -> None:
    """A 60-row CSV whose y is constant (1.5), which ``estimate`` refuses,
    with three standard normal predictors from ``np.random.default_rng(7)``."""
    x = np.random.default_rng(7).standard_normal((60, 3))
    np.savetxt(path, np.column_stack([np.full(60, 1.5), x]), delimiter=",",
               fmt="%.17g", header="y,x1,x2,x3", comments="")


def fingerprint() -> dict:
    """What decides the last bits of the outputs: numpy, its BLAS, the CPU
    features numpy dispatches on, and the Python that formats them."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "simd": config["SIMD Extensions"],
        "python": platform.python_version(),
    }


def run(argv: list) -> tuple:
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@contextlib.contextmanager
def replay_directory():
    """A scratch working directory holding EST.csv, TIES.csv and CONST.csv,
    with COLUMNS=80."""
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    with tempfile.TemporaryDirectory() as tmp:
        write_est_csv(Path(tmp) / "EST.csv")
        write_ties_csv(Path(tmp) / "TIES.csv")
        write_const_csv(Path(tmp) / "CONST.csv")
        os.chdir(tmp)
        os.environ["COLUMNS"] = "80"
        try:
            yield
        finally:
            os.chdir(cwd)
            if columns is None:
                del os.environ["COLUMNS"]
            else:
                os.environ["COLUMNS"] = columns


def record() -> dict:
    entries = []
    with replay_directory():
        for argv in ARGVS:
            code, out, err = run(argv)
            entry = {"argv": argv, "exit": code, "stdout_sha256": sha256(out),
                     "stderr_sha256": sha256(err)}
            if argv[-2:] == ["--out", "json"] and code == 0:
                entry["json"] = json.loads(out)
            entries.append(entry)
    return {"fingerprint": fingerprint(), "entries": entries}


if __name__ == "__main__":
    corpus = record()
    CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(corpus['entries'])} argvs to {CORPUS}", file=sys.stderr)
