"""Record the benchmark's reference outputs or its baseline.

Run from the root of a checkout::

    python3 perfbench/record.py reference
    python3 perfbench/record.py baseline --runs 10 [--workloads grid,null-fine]

``reference`` stores each workload's CLI results at the reference seed in
perfbench/reference/; later runs must reproduce them within 1e-12.
``baseline`` runs each workload ``--runs`` times (seeds first-seed,
first-seed+1, ...), then once traced, and writes the median, quartiles and
spread (q3 - q1) / median of every end-to-end metric, the same for the
unscaled run medians of the times and the speed probe, and the traced
per-layer table, to perfbench/baseline.json.  It prints each spread beside
the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402


def record_reference(root: Path) -> int:
    for name, w in workloads.WORKLOADS.items():
        if w.reference_name != name:
            continue
        job = workloads.job(name, workloads.REFERENCE_SEED, root / bench.WORKDIR, root)
        spec = {"job": job, "reference_job": job, "seconds": 0, "trace": False,
                "min_iterations": 0}
        result = bench.run_worker(root, bench.program_env(root, name), spec, 600)
        texts = result["outputs"][result["runs"][0]["out"]]
        for argv, text in zip(job, texts):
            problems = checks.check_output(argv, text)
            if problems:
                print(f"error: {name}: {problems}", file=sys.stderr)
                return 1
        ref = {"seed": workloads.REFERENCE_SEED, "job": job,
               "results": [json.loads(t)["results"] for t in texts]}
        path = HERE / "reference" / f"{name}.json"
        path.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(root)}")
    return 0


def summary(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def record_baseline(root: Path, names, runs, seconds, first_seed, out: Path) -> int:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    samples = {name: {m: [] for m in bounds} for name in names}
    raw = {name: {} for name in names}
    ok = True
    for seed in range(first_seed, first_seed + runs):
        for name in names:
            rep = bench.run_workload(root, name, seed, seconds, False)
            s = rep["summary"]
            ok &= s["correct"] and s["failed"] == 0
            for m in bounds:
                samples[name][m].append(s["metrics"][m]["value"])
            for m, values in rep["raw"].items():
                raw[name].setdefault(m, []).append(statistics.median(values))
            print(f"{name} seed {seed}: "
                  + " ".join(f"{m}={s['metrics'][m]['value']:.4g}" for m in bounds), flush=True)
    baseline = {"runs": runs, "seconds": seconds, "first_seed": first_seed,
                "workloads": {}}
    for name in names:
        rep = bench.run_workload(root, name, first_seed, seconds, True)
        traced = rep["summary"]
        ok &= traced["correct"] and traced["failed"] == 0
        e2e = {m: summary(v) for m, v in samples[name].items()}
        baseline["workloads"][name] = {
            "why": workloads.WORKLOADS[name].why,
            "env": rep["result"]["env"],
            "end_to_end": e2e,
            "raw_run_medians": {m: summary(v) for m, v in raw[name].items()},
            "per_layer": {m: v["value"] for m, v in traced["metrics"].items()},
        }
        for m, v in e2e.items():
            flag = "ok" if m == "setup_s" or v["spread"] < bounds[m] / 3 else "WIDE"
            print(f"{name:<14} {m:<12} median {v['median']:.5g}  spread {v['spread']:.4f}"
                  f"  bound {bounds[m]}  {flag}")
    out.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}; all runs correct: {ok}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="what", required=True)
    sub.add_parser("reference")
    base = sub.add_parser("baseline")
    base.add_argument("--runs", type=int, default=10)
    base.add_argument("--seconds", type=float, default=None,
                      help="default: run_seconds from BENCHMARK.json")
    base.add_argument("--first-seed", type=int, default=1)
    base.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    base.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args(argv)
    root = Path.cwd()
    if args.what == "reference":
        return record_reference(root)
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((root / "BENCHMARK.json").read_text())["run_seconds"]
    names = [n for n in args.workloads.split(",") if n]
    return record_baseline(root, names, args.runs, seconds, args.first_seed, Path(args.out))


if __name__ == "__main__":
    sys.exit(main())
