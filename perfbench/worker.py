"""Timed and traced iterations of one workload job in a fresh process.

Reads a JSON spec on stdin and prints one JSON result on stdout::

    {"job": [argv, ...], "reference_job": [argv, ...],
     "seconds": 10, "trace": false, "min_iterations": 3}

The reference job runs once first (it also warms lazy imports), then the
job repeats until ``seconds`` have passed.  With ``trace`` the iterations
alternate untraced and traced, so the per-layer numbers and the tracing
overhead come from the same process.  Each CLI call goes through
``slicesdr.cli.main(argv)``; its stdout is captured, not printed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import sys
import traceback
from time import perf_counter, process_time

import numpy as np

from slicesdr import cli
import speed
import tracing


def run_job(argvs):
    """Run each argv through cli.main; return (exit codes, stdout texts)."""
    rcs, outs = [], []
    for argv in argvs:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(list(argv))
        except Exception:  # a crash is a failed call, reported by the caller
            rc = -1
            buf.write(traceback.format_exc())
        rcs.append(rc)
        outs.append(buf.getvalue())
    return rcs, outs


def timed_job(argvs):
    """Probe the machine speed, then time one iteration of the job."""
    probe_s = speed.probe()
    w0, c0 = perf_counter(), process_time()
    rcs, outs = run_job(argvs)
    return probe_s, perf_counter() - w0, process_time() - c0, rcs, outs


class Recorder:
    """Iteration records; identical outputs are stored once."""

    def __init__(self):
        self.runs, self.outputs, self._index = [], [], {}

    def bracket_probes(self):
        """Give each iteration the mean of the probes just before and after it."""
        before = [r["probe_s"] for r in self.runs] + [speed.probe()]
        for i, r in enumerate(self.runs):
            r["probe_s"] = (before[i] + before[i + 1]) / 2.0

    def add(self, kind, probe_s, wall, cpu, rcs, outs):
        key = tuple(outs)
        if key not in self._index:
            self._index[key] = len(self.outputs)
            self.outputs.append(outs)
        self.runs.append({"kind": kind, "probe_s": probe_s, "wall_s": wall, "cpu_s": cpu,
                          "rcs": rcs, "out": self._index[key]})


def peak_rss_mb() -> float:
    """High-water resident memory of this process image, in MiB.

    Read from VmHWM: on Linux, ru_maxrss also counts the parent's memory
    at fork time, which would make the figure depend on the launcher.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get(k, {}).get("openblas configuration")
                or deps.get(k, {}).get("name") for k in ("blas", "lapack")}
    except (TypeError, AttributeError):  # numpy without mode="dicts"
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    thread_vars = ("SDR_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                   "MKL_NUM_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads_env": {k: os.environ.get(k) for k in thread_vars},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu_model": cpu,
    }


def run(spec) -> dict:
    rec = Recorder()
    rec.add("reference", *timed_job(spec["reference_job"]))
    job = spec["job"]
    deadline = perf_counter() + spec["seconds"]
    min_iter = spec["min_iterations"]
    result = {}
    if not spec["trace"]:
        while len(rec.runs) <= min_iter or perf_counter() < deadline:
            rec.add("timed", *timed_job(job))
    else:
        tracer = tracing.Tracer()
        traces = []
        pairs = 0
        while pairs < min_iter or perf_counter() < deadline:
            for traced in ((False, True) if pairs % 2 == 0 else (True, False)):
                if not traced:
                    rec.add("timed", *timed_job(job))
                    continue
                with tracer.installed():
                    tracer.reset()
                    rec.add("traced", *timed_job(job))
                    traces.append(tracer.job_trace())
            pairs += 1
        layers, calls_repeat = tracing.summarize(traces)
        result.update(
            layers=layers,
            calls_repeat=calls_repeat,
            absent=[name for name, ok in tracer.present.items() if not ok],
        )
    rec.bracket_probes()
    result.update(
        runs=rec.runs,
        outputs=rec.outputs,
        peak_rss_mb=peak_rss_mb(),
        env=environment(),
        program=os.path.dirname(os.path.abspath(cli.__file__)),
    )
    return result


def main() -> int:
    spec = json.load(sys.stdin)
    json.dump(run(spec), sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
