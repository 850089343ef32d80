"""Benchmark of the slicesdr CLI: end-to-end and per-layer metrics.

Run from the root of a checkout (the program is imported from ./src)::

    python3 perfbench/run.py --workload grid --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Each run starts one fresh worker process (perfbench/worker.py) that calls
``slicesdr.cli.main(argv)`` for the workload's job: once at the reference
seed, checked against perfbench/reference/, then repeatedly at ``--seed``
for ``--seconds``.  Every output is checked (schema and invariants, and
byte-identical across iterations, traced or not); a non-zero exit or a
failed check counts as a failed call.

``--trace 0`` reports the end-to-end metrics, with tracing off:

    wall_s       wall time of one job iteration
    cpu_s        process CPU (user+sys, all threads) of one iteration
    peak_rss_mb  peak resident memory of the worker process
    setup_s      time from a fresh interpreter to ``import slicesdr.cli`` done

Times are medians over the run, each scaled to a reference machine speed
with the probe of speed.py, timed around it; the summary also prints the
raw medians and the probe's.

``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics of tracing.py plus ``trace_overhead_frac``.  The human
summary also prints ``result_drift`` (max deviation from the reference,
which must stay within 1e-12) and ``fail_frac``; the last line of stdout
is one JSON object with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB"), ("setup_s", "s"))
PER_LAYER = tuple(tracing.layer_metric_names()) + (("trace_overhead_frac", "frac"),)
SETUP_REPEATS = 15
MIN_ITERATIONS = 3
TIME_LIMIT_S = 170.0
WORKDIR = ".perfbench_work"


def program_env(root: Path, workload: str) -> dict:
    env = workloads.env(workload, os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(root: Path, env: dict) -> list:
    """(probe, wall) seconds from a fresh interpreter to ``import slicesdr.cli`` done."""
    samples = []
    for _ in range(SETUP_REPEATS):
        probe_s = speed.probe()
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import slicesdr.cli"], cwd=root, env=env,
                       check=True, timeout=60)
        samples.append((probe_s, perf_counter() - t0))
    return samples


def run_worker(root: Path, env: dict, spec: dict, timeout: float) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")], cwd=root, env=env,
                          input=json.dumps(spec), capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def load_reference(name: str):
    path = HERE / "reference" / f"{name}.json"
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None


def reference_drift(ref, job, texts) -> float:
    """Max deviation of the job's results from the stored reference."""
    if ref is None or ref["job"] != job:
        return float("inf")
    drift = 0.0
    for text, expected in zip(texts, ref["results"]):
        try:
            drift = max(drift, checks.result_drift(json.loads(text)["results"], expected))
        except (ValueError, KeyError):
            return float("inf")
    return drift


def judge(result, job, ref_job, ref):
    """Mark each iteration failed or not; returns (failures, drift, notes)."""
    outputs, runs = result["outputs"], result["runs"]
    notes = []
    problems = {}
    for run in runs:
        idx = run["out"]
        if idx not in problems:
            argvs = ref_job if run["kind"] == "reference" else job
            found = []
            for argv, text in zip(argvs, outputs[idx]):
                found += checks.check_output(argv, text)
            problems[idx] = found
            notes += found
    ref_runs = [r for r in runs if r["kind"] == "reference"]
    drift = reference_drift(ref, ref_job, outputs[ref_runs[0]["out"]])
    if drift > checks.DRIFT_BOUND:
        notes.append(f"result_drift {drift!r} exceeds {checks.DRIFT_BOUND}")
    canonical = next(r["out"] for r in runs if r["kind"] == "timed")
    failures = []
    for run in runs:
        bad = any(rc != 0 for rc in run["rcs"]) or bool(problems[run["out"]])
        if run["kind"] == "reference":
            bad = bad or drift > checks.DRIFT_BOUND
        elif run["out"] != canonical:
            bad = True
            notes.append(f"{run['kind']} output differs from the first timed output")
        failures.append(bad)
    if not result.get("calls_repeat", True):
        notes.append("traced call counts differ between iterations")
    return failures, drift, notes


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool) -> dict:
    start = perf_counter()
    workdir = root / WORKDIR
    job = workloads.job(name, seed, workdir, root)
    ref_name = workloads.WORKLOADS[name].reference_name
    ref_job = workloads.job(name, workloads.REFERENCE_SEED, workdir, root)
    env = program_env(root, name)
    setup = [] if trace else measure_setup(root, env)
    spec = {"job": job, "reference_job": ref_job, "seconds": seconds, "trace": trace,
            "min_iterations": MIN_ITERATIONS}
    result = run_worker(root, env, spec, TIME_LIMIT_S - (perf_counter() - start))
    failures, drift, notes = judge(result, job, ref_job, load_reference(ref_name))

    runs = result["runs"]
    timed = [r for r in runs if r["kind"] == "timed"]
    raw = {"wall_s": [r["wall_s"] for r in timed], "cpu_s": [r["cpu_s"] for r in timed],
           "setup_s": [t for _, t in setup], "probe_s": [r["probe_s"] for r in timed]}
    walls = [speed.scaled(r["wall_s"], r["probe_s"]) for r in timed]
    if trace:
        traced = [speed.scaled(r["wall_s"], r["probe_s"]) for r in runs if r["kind"] == "traced"]
        values = dict(result["layers"])
        # iterations alternate untraced/traced, so compare them pair by pair
        values["trace_overhead_frac"] = statistics.median(
            t / u for t, u in zip(traced, walls)) - 1.0
        declared = PER_LAYER
    else:
        values = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(speed.scaled(r["cpu_s"], r["probe_s"]) for r in timed),
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(speed.scaled(t, p) for p, t in setup),
        }
        declared = END_TO_END
    failed = sum(failures)
    return {
        "name": name, "seed": seed, "trace": trace, "raw": raw,
        "drift": drift, "notes": notes, "result": result,
        "summary": {
            "correct": failed == 0 and not notes,
            "attempted": len(failures),
            "failed": failed,
            "metrics": {m: {"value": values[m], "unit": u} for m, u in declared},
        },
    }


def print_report(rep) -> None:
    s, result = rep["summary"], rep["result"]
    print(f"workload {rep['name']}  seed {rep['seed']}  trace {int(rep['trace'])}  "
          f"program {result['program']}")
    print(f"  env {json.dumps(result['env'], sort_keys=True)}")
    metrics = s["metrics"]
    raw = rep["raw"]
    if not rep["trace"]:
        for name, unit in END_TO_END:
            line = f"  {name:<14} {metrics[name]['value']:.6g} {unit}"
            if name in raw:
                q1, q3 = quartiles(raw[name])
                line += (f"  (raw median of {len(raw[name])} {statistics.median(raw[name]):.6g}"
                         f", q1 {q1:.6g}, q3 {q3:.6g})")
            print(line)
        print(f"  probe          median {statistics.median(raw['probe_s']):.6g} s "
              f"(times above are scaled to {speed.PROBE_REF_S} s)")
    else:
        print(f"  {'layer':<42} {'calls':>8} {'self_s':>10} {'p50_us':>10} "
              f"{'p99_us':>10} {'errors':>6}")
        for layer in tracing.LAYERS:
            m = {f: metrics.get(f"{layer.name}.{f}", {}).get("value")
                 for f in ("calls", "self_s", "p50_us", "p99_us", "errors")}
            times = " ".join("         -" if m[f] is None else f"{m[f]:10.4g}"
                             for f in ("self_s", "p50_us", "p99_us"))
            print(f"  {layer.name:<42} {m['calls']:>8} {times} {m['errors']:>6}")
        if result["absent"]:
            print(f"  absent layers (0 calls): {', '.join(result['absent'])}")
        print(f"  trace_overhead_frac {metrics['trace_overhead_frac']['value']:.4g} frac "
              f"(traced {len([r for r in result['runs'] if r['kind'] == 'traced'])} "
              f"vs untraced {len(raw['wall_s'])} iterations)")
    print(f"  result_drift   {rep['drift']:.6g} (max abs deviation from the reference; "
          f"bound {checks.DRIFT_BOUND:g})")
    print(f"  fail_frac      {s['failed'] / s['attempted']:.6g} ({s['failed']}/{s['attempted']})")
    for note in rep["notes"]:
        print(f"  FAILED CHECK: {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "slicesdr" / "cli.py").is_file():
        print(f"error: no slicesdr sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            rep = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as e:
            print(f"error: workload {name}: {e}", file=sys.stderr)
            return 1
        print_report(rep)
        print(json.dumps(rep["summary"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
