"""Tests of the benchmark itself: exact traced call counts, wrapper
placement, output checks and the BENCHMARK.json contract.

Run from the root of a checkout: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from slicesdr import cli, estimators, simulation, slicing  # noqa: E402


def traced(argvs, runs=1, layers=tracing.LAYERS):
    """Untraced outputs, then `runs` traced runs; returns (outs, metrics, repeat, tracer)."""
    rcs, plain = worker.run_job(argvs)
    assert rcs == [0] * len(argvs)
    tracer = tracing.Tracer(layers)
    traces = []
    for _ in range(runs):
        with tracer.installed():
            tracer.reset()
            rcs, outs = worker.run_job(argvs)
            traces.append(tracer.job_trace())
        assert rcs == [0] * len(argvs)
        assert outs == plain  # the wrappers change no output byte
    metrics, repeat = tracing.summarize(traces, layers)
    return plain, metrics, repeat, tracer


def calls(metrics, layer):
    return metrics[f"{layer}.calls"]


def test_grid_counts_follow_the_replicate_pipeline():
    models, hs, reps = (1, 3), (2, 6), 3
    argv = ["table1", "--models", "1,3", "--H", "2,6", "--n", "60", "--reps", str(reps),
            "--out", "json"]
    _, m, repeat, _ = traced([argv], runs=2)
    replicates = len(models) * len(hs) * reps
    assert repeat
    assert calls(m, "simulation.run_mc") == len(models) * len(hs)
    assert calls(m, "simulation.gen_model") == replicates
    assert calls(m, "simulation.model_streams") == replicates
    assert calls(m, "slicing.slice_equal_count") == replicates
    # three methods: one eigendecomposition and one score each
    assert calls(m, "linalg.sym_eig") == 3 * replicates
    assert calls(m, "metrics.r2_single") == 3 * replicates
    # csave runs, and v_n slices again
    assert calls(m, "slicing.slice_stats") == 2 * replicates
    assert calls(m, "estimators.v_n") == replicates
    assert calls(m, "cli.main") == 1
    assert sum(m[f"{name}.errors"] for name in (l.name for l in tracing.LAYERS)) == 0


def test_sir_only_run_slices_once_per_replicate():
    argv = ["simulate", "--model", "2", "--n", "60", "--slices", "6", "--reps", "4",
            "--methods", "sir", "--out", "json"]
    _, m, _, _ = traced([argv])
    assert calls(m, "slicing.slice_stats") == 4
    assert calls(m, "linalg.sym_eig") == 4
    assert calls(m, "estimators.csave_matrix") == 0


def test_threaded_counts_and_output_match_serial(monkeypatch):
    argv = ["table1", "--models", "2", "--H", "6", "--n", "60", "--reps", "6", "--out", "json"]
    monkeypatch.delenv("SDR_THREADS", raising=False)
    serial_out, serial, _, _ = traced([argv])
    monkeypatch.setenv("SDR_THREADS", "2")
    threaded_out, threaded, repeat, _ = traced([argv], runs=2)
    assert repeat and threaded_out == serial_out
    for layer in tracing.LAYERS:
        assert calls(threaded, layer.name) == calls(serial, layer.name)


def test_null_fine_slices_once_per_replicate_and_cell():
    n_grid, reps = (40, 61), 2
    argv = ["sweep", "--mode", "bias", "--n-grid", ",".join(map(str, n_grid)),
            "--c-grid", ",".join(map(str, workloads.NULL_C_GRID)), "--reps", str(reps),
            "--out", "json"]
    _, m, _, _ = traced([argv])
    cells = len(n_grid) * len(workloads.NULL_C_GRID)
    assert calls(m, "slicing.slice_equal_count") == reps * cells
    assert calls(m, "simulation.model_streams") == reps * cells
    assert calls(m, "slicing.slice_stats") == 2 * reps * cells
    assert calls(m, "simulation.bias_sweep") == 1
    for absent in ("simulation.gen_model", "linalg.sym_eig", "metrics.r2_single"):
        assert calls(m, absent) == 0


def test_estimate_counts(tmp_path):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((101, 3))
    y = x[:, 0] ** 2 + 0.1 * rng.standard_normal(101)
    path = tmp_path / "d.csv"
    np.savetxt(path, np.column_stack([y, x]), delimiter=",", header="y,a,b,c", comments="")
    argvs = [["estimate", "--input", str(path), "--y", "y", "--method", meth, "--out", "json"]
             for meth in ("sir", "save", "csave")]
    outs, m, _, _ = traced(argvs)
    for argv, text in zip(argvs, outs):
        assert checks.check_output(argv, text) == []
    assert calls(m, "data.load_csv") == 3
    assert calls(m, "data.standardize") == 3
    assert calls(m, "linalg.inv_sqrt") == 3
    # per fit: inv_sqrt, the estimate, cdr_basis; csave adds the negative count
    assert calls(m, "linalg.sym_eig") == 3 * 3 + 1
    assert calls(m, "estimators.negative_eigenvalue_count") == 1
    assert calls(m, "slicing.slice_stats") == 3 + 1
    assert calls(m, "simulation.model_streams") == 0


def test_wrappers_bind_everywhere_and_are_restored():
    original = slicing.slice_stats
    binders = (slicing, simulation, estimators, cli)
    with tracing.Tracer().installed():
        wrapped = slicing.slice_stats
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert all(m.slice_stats is wrapped for m in binders)
    assert all(m.slice_stats is original for m in binders)


def test_missing_layer_is_absent_with_zero_calls():
    layers = tracing.LAYERS + (tracing.Layer("estimators", "no_such_function"),)
    argv = ["simulate", "--model", "1", "--n", "40", "--slices", "4", "--reps", "2",
            "--out", "json"]
    _, m, _, tracer = traced([argv], layers=layers)
    assert tracer.present["estimators.no_such_function"] is False
    assert m["estimators.no_such_function.calls"] == 0
    assert m["estimators.no_such_function.self_s"] == 0.0


def test_self_time_subtracts_the_union_of_children():
    assert tracing._covered([(1.0, 3.0), (2.0, 4.0), (6.0, 9.0)], 0.0, 8.0) == 5.0
    assert tracing._covered([], 0.0, 1.0) == 0.0


def test_checks_reject_broken_outputs():
    argv = ["table1", "--models", "1", "--H", "2", "--n", "20", "--reps", "2", "--out", "json"]
    text = worker.run_job([argv])[1][0]
    assert checks.check_output(argv, text) == []
    doc = json.loads(text)
    doc["results"][0]["max"] = 1.5
    assert checks.check_output(argv, json.dumps(doc))
    doc = json.loads(text)
    doc["results"][0]["reps"] = 3
    assert checks.check_output(argv, json.dumps(doc))
    assert checks.check_output(argv, "not json")
    ref = json.loads(text)["results"]
    moved = json.loads(text)["results"]
    moved[0]["median"] += 1e-9
    assert checks.result_drift(ref, ref) == 0.0
    assert checks.result_drift(moved, ref) == pytest.approx(1e-9, rel=1e-3)
    assert checks.result_drift(moved[:1], ref) == math.inf


def test_benchmark_json_matches_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(bench.PER_LAYER)
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why


def test_run_outside_a_checkout_fails_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert bench.main(["--workload", "grid", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
