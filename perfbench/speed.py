"""Machine-speed probe for reporting times at a fixed reference speed.

The benchmark runs on shared machines whose speed changes by up to 1.5x
over minutes, as other tenants come and go; raw times of one job then moved
by up to 40% between runs.  A fixed kernel of the same kinds of work as the
workloads (slice moments and small eigendecompositions from a Python loop,
a sort of a long vector, CSV parsing) is timed before and after each
measured iteration, and the iteration's time is scaled by
``PROBE_REF_S / probe``, with the mean of the two probes:
the time it would have taken on a machine where the probe takes
``PROBE_REF_S``.  The probe is the benchmark's own code, so a change to the
program never changes it.
"""

from __future__ import annotations

import csv
import io
from time import perf_counter

import numpy as np

#: Probe time that the reported times are scaled to (seconds).
PROBE_REF_S = 0.02

_RNG = np.random.default_rng(0)
_X = _RNG.standard_normal((480, 10))
_LONG = _RNG.standard_normal(20000)
_CSV = "\n".join(",".join(repr(v) for v in row) for row in _X[:150].tolist())
_STARTS = np.arange(0, 480, 20)


def probe() -> float:
    """Wall seconds of one fixed run of the probe kernel."""
    t0 = perf_counter()
    for k in range(30):
        z = _X[np.argsort(_X[:, k % 10], kind="stable")]
        means = np.add.reduceat(z, _STARTS, axis=0) / 20.0
        outer = np.add.reduceat(z[:, :, None] * z[:, None, :], _STARTS, axis=0) / 20.0
        covs = outer - means[:, :, None] * means[:, None, :]
        np.linalg.eigh(np.einsum("hij,hkj->ik", covs, covs))
    for k in range(2):
        np.argsort(_LONG[k:], kind="stable")
    for _ in range(4):
        rows = [[float(cell) for cell in row] for row in csv.reader(io.StringIO(_CSV))]
        np.array(rows)
    return perf_counter() - t0


def scaled(seconds: float, probe_s: float) -> float:
    return seconds * PROBE_REF_S / probe_s
