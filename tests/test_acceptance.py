"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one [PASS]/[FAIL]
line per criterion.  The full module is sized for a desk machine: the
benchmark grid (criteria 1-2) is the dominant cost at well under ten
minutes single-threaded.

Reference medians are the published benchmark values for n = 480 and 200
replicates at H in {2, 6, 24, 96}, in per-model blocks ordered SAVE, SIR,
CSAVE.  Tolerance bands: +/-0.05 for reference entries >= 0.9 or <= 0.1,
+/-0.10 for mid-range entries.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import slicesdr
from slicesdr import (
    DEFAULT_SEED,
    METHODS,
    bias_sweep,
    candidate_matrix,
    correction_coefficients,
    equal_count_bounds,
    inv_sqrt,
    r2_single,
    run_grid,
    slice_stats,
    sym_eig,
)
from slicesdr.simulation import order_stats
from oracles import eigen_perturb_first_order, trace_correlation
from test_estimators import exact_corrected_mean, exact_lambda_mean

H_GRID = (2, 6, 24, 96)

REFERENCE_MEDIANS = {
    1: {"save": (0.7521, 0.9599, 0.0099, 0.0009),
        "sir": (0.9442, 0.9681, 0.9714, 0.9586),
        "csave": (0.8023, 0.9687, 0.9539, 0.0122)},
    2: {"save": (0.9539, 0.9523, 0.9187, 0.7225),
        "sir": (0.0460, 0.0386, 0.0443, 0.0435),
        "csave": (0.9575, 0.9584, 0.9317, 0.8487)},
    3: {"save": (0.0724, 0.9201, 0.8517, 0.3547),
        "sir": (0.0586, 0.0545, 0.0564, 0.0448),
        "csave": (0.0654, 0.9336, 0.8854, 0.6393)},
    4: {"save": (0.0741, 0.9055, 0.8665, 0.3059),
        "sir": (0.8656, 0.8952, 0.8825, 0.7263),
        "csave": (0.1066, 0.9277, 0.9024, 0.7097)},
    5: {"save": (0.8750, 0.8657, 0.6741, 0.1249),
        "sir": (0.0581, 0.0484, 0.0558, 0.0625),
        "csave": (0.8851, 0.8966, 0.7639, 0.2517)},
}


def band(reference: float) -> float:
    return 0.05 if (reference >= 0.9 or reference <= 0.1) else 0.10


def _verdict(criterion: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {criterion}{suffix}")


@pytest.fixture(scope="module")
def grid_medians():
    """Full benchmark grid, 200 replicates per cell, fixed default seed."""
    scores = run_grid(REFERENCE_MEDIANS, H_GRID, 480, 200, seed=DEFAULT_SEED)
    medians = order_stats(scores)[0]
    return {
        (model, method, H): float(medians[i, j, k])
        for i, model in enumerate(REFERENCE_MEDIANS)
        for j, H in enumerate(H_GRID)
        for k, method in enumerate(METHODS)
    }


def test_acceptance_1_reference_grid_medians(grid_medians):
    """Criterion 1: every grid median inside its tolerance band."""
    misses = []
    for model_id, methods in REFERENCE_MEDIANS.items():
        for method, refs in methods.items():
            for H, ref in zip(H_GRID, refs):
                got = grid_medians[(model_id, method, H)]
                if abs(got - ref) > band(ref):
                    misses.append(
                        f"model {model_id} {method} H={H}: "
                        f"got {got:.4f}, reference {ref:.4f} +/- {band(ref):.2f}"
                    )
    _verdict(
        "acceptance 1: reference grid medians",
        not misses,
        f"{60 - len(misses)}/60 cells in band",
    )
    assert not misses, "out-of-band cells:\n" + "\n".join(misses)


def test_acceptance_2_reference_grid_orderings(grid_medians):
    """Criterion 2: qualitative orderings hold exactly."""
    problems = []
    for model_id in (2, 3, 4, 5):
        csave = grid_medians[(model_id, "csave", 96)]
        save = grid_medians[(model_id, "save", 96)]
        if csave < save:
            problems.append(
                f"model {model_id} H=96: csave {csave:.4f} < save {save:.4f}"
            )
    for model_id in (2, 3):
        for H in H_GRID:
            sir = grid_medians[(model_id, "sir", H)]
            if sir >= 0.15:
                problems.append(f"model {model_id} sir H={H}: {sir:.4f} >= 0.15")
    _verdict("acceptance 2: reference grid orderings", not problems)
    assert not problems, "\n".join(problems)


def test_acceptance_3_null_model_calibration():
    """Criterion 3: pure-noise means at c=2, n=20000, 100 replicates.

    Gates: mean raw estimator in 3.0 +/- 0.1 and mean corrected estimator
    in 21/8 = 2.625 +/- 0.05, the exact fixed-c Gaussian levels derived
    in the ``tests/test_estimators.py`` module docstring, and corrected
    below raw.  The paper's
    published 2.5 and 1.0 come from its leading-order formula
    ((c-1)^2+1)/(c(c-1)) Lambda + V/c with the population V = 3; that
    approximation drops 1/(c(c-1)) and ignores that V_n is taken around
    slice means, terms that do not vanish at fixed c.
    """
    raw_target, cor_target = exact_lambda_mean(2), exact_corrected_mean(2)
    levels = bias_sweep([20000], [2], reps=100, seed=DEFAULT_SEED, p=1)
    raw, cor = (float(v) for v in levels[0, 0, :2].mean(axis=-1))
    raw_ok = abs(raw - raw_target) <= 0.1
    cor_ok = abs(cor - cor_target) <= 0.05
    _verdict(
        "acceptance 3: null-model calibration",
        raw_ok and cor_ok and cor < raw,
        f"mean raw {raw:.4f} (exact {raw_target:.4f} +/- 0.1), "
        f"mean corrected {cor:.4f} (exact {cor_target:.4f} +/- 0.05)",
    )
    assert raw_ok, f"mean raw estimator {raw:.4f} not in {raw_target:.4f} +/- 0.1"
    assert cor_ok, (
        f"mean corrected estimator {cor:.4f} not in {cor_target:.4f} +/- 0.05"
    )
    assert cor < raw, f"correction did not lower the level: {cor:.4f} >= {raw:.4f}"


def test_acceptance_4_fixed_c_sweep():
    """Criterion 4: fixed c=4 sweep over n in {400, 1600, 6400}.

    Gates: median |raw - 1| > 0.5 at every n; at every n the corrected
    median error lies below the raw one and within 0.1 * sqrt(400 / n) of
    its exact fixed-c limit 239/160 - 1 ~ 0.494, derived in the
    ``tests/test_estimators.py`` module docstring.  At fixed c the corrected estimator keeps
    that residual bias, so its error converges to the limit rather than
    to 0; the paper's leading-order analysis, which drops the fixed-c
    terms, predicts instead an error that halves between n=400 and
    n=6400.
    """
    limit = exact_corrected_mean(4) - 1.0
    n_grid = [400, 1600, 6400]
    levels = bias_sweep(n_grid, [4], reps=100, seed=DEFAULT_SEED, p=1)
    # median |raw - 1| and median |corrected - 1| at each n
    raw_err, cor_err = (
        [float(v) for v in m] for m in order_stats(levels[:, 0, 2:])[0].T
    )
    raw_ok = all(r > 0.5 for r in raw_err)
    below_raw_ok = all(c < r for c, r in zip(cor_err, raw_err))
    limit_misses = [
        f"n={n}: {c:.4f} not in {limit:.4f} +/- {0.1 * np.sqrt(400 / n):.4f}"
        for n, c in zip(n_grid, cor_err)
        if abs(c - limit) > 0.1 * np.sqrt(400 / n)
    ]
    _verdict(
        "acceptance 4: fixed-c sweep",
        raw_ok and below_raw_ok and not limit_misses,
        f"median raw errors {[round(r, 3) for r in raw_err]}, "
        f"median corrected errors {[round(c, 3) for c in cor_err]} "
        f"(exact limit {limit:.3f})",
    )
    assert raw_ok, "median |raw - 1| fell to 0.5 or below at some n"
    assert below_raw_ok, (
        "median |corrected - 1| is not below median |raw - 1| at some n"
    )
    assert not limit_misses, (
        "median |corrected - 1| off its fixed-c limit:\n" + "\n".join(limit_misses)
    )


def test_acceptance_5_exact_identities():
    """Criterion 5: algebraic identities at machine precision."""
    rng = np.random.default_rng(DEFAULT_SEED)

    # quadruple-sum form of the slice-covariance square, 20 instances
    cases = 0
    while cases < 20:
        p = int(rng.integers(1, 4))
        c = int(rng.integers(2, 6))
        H = int(rng.integers(2, 5))
        n = c * H
        if n > 40:
            continue
        cases += 1
        z = rng.standard_normal((n, p))
        y = rng.standard_normal(n)
        st = slice_stats(z, y, equal_count_bounds(n, H))
        zs = z[np.argsort(y, kind="stable")]
        acc = np.zeros((p, p))
        for h in range(H):
            rows = zs[h * c:(h + 1) * c]
            pairs = [
                np.outer(rows[l] - rows[j], rows[l] - rows[j])
                for l in range(1, c)
                for j in range(l)
            ]
            for dlj in pairs:
                for dvu in pairs:
                    acc += dlj @ dvu
        oracle = acc / (n * c * (c - 1) ** 2)
        got = st.cov_square
        assert np.linalg.norm(got - oracle) <= 1e-9 * max(np.linalg.norm(oracle), 1e-12)

    # expansion identity: save = I - 2 mean(cov) + mean(cov^2)
    z = rng.standard_normal((36, 3))
    y = rng.standard_normal(36)
    st = slice_stats(z, y, equal_count_bounds(36, 6))
    mean_cov = np.einsum("h,hij->ij", st.weights, st.covs)
    expanded = np.eye(3) - 2 * mean_cov + st.cov_square
    assert np.abs(candidate_matrix("save", st) - expanded).max() <= 1e-12

    # pairwise-difference covariance identity
    z = rng.standard_normal((8, 2))
    st = slice_stats(z, np.arange(8.0), equal_count_bounds(8, 1))
    acc = np.zeros((2, 2))
    for l in range(1, 8):
        for j in range(l):
            acc += np.outer(z[l] - z[j], z[l] - z[j])
    pairwise = acc / (8 * 7)
    assert np.linalg.norm(st.covs[0] - pairwise) <= 1e-10 * np.linalg.norm(pairwise)

    # exact-debias coefficient identity
    for c in (2, 3, 5, 10):
        a_c, b_c = correction_coefficients(c)
        for _ in range(5):
            lam_t = float(rng.uniform(0.1, 5.0))
            v_t = float(rng.uniform(0.1, 5.0))
            raw_mean = ((c - 1) ** 2 + 1) / (c * (c - 1)) * lam_t + v_t / c
            assert abs(a_c * raw_mean - b_c * v_t - lam_t) <= 1e-12

    _verdict("acceptance 5: exact estimator identities", True)


def test_acceptance_6_numerical_kernels():
    """Criterion 6: eigensolver, inverse root, perturbation order."""
    rng = np.random.default_rng(DEFAULT_SEED + 1)

    for _ in range(20):
        p = int(rng.integers(2, 9))
        a = rng.standard_normal((p, p))
        m = (a + a.T) / 2
        res = sym_eig(m)
        rebuilt = (res.vectors * res.values) @ res.vectors.T
        assert np.linalg.norm(rebuilt - m) <= 1e-8 * max(np.linalg.norm(m), 1.0)

    for _ in range(10):
        q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        m = (q * np.linspace(1.0, 100.0, 4)) @ q.T
        r = inv_sqrt(m)
        assert np.abs(r @ m @ r - np.eye(4)).max() <= 1e-6

    for _ in range(5):
        q = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        base = (q * np.linspace(1.0, 9.0, 5)) @ q.T
        d = rng.standard_normal((5, 5))
        delta = (d + d.T) / 2
        shift, _vec = eigen_perturb_first_order(base, delta, 0)
        lam0 = sym_eig(base).values[0]
        errors = [
            abs(sym_eig(base + t * delta).values[0] - lam0 - t * shift)
            for t in (1e-2, 1e-3, 1e-4)
        ]
        for big, small in zip(errors, errors[1:]):
            if big > 1e-13:
                assert big / max(small, 1e-18) >= 25.0

    _verdict("acceptance 6: numerical kernels", True)


def test_acceptance_7_metric_properties():
    """Criterion 7: containment, orthogonality, sign and basis invariance."""
    rng = np.random.default_rng(DEFAULT_SEED + 2)
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    basis = np.column_stack([e1, e2])

    assert r2_single(0.3 * e1 + 0.7 * e2, basis) == pytest.approx(1.0, abs=1e-14)
    assert r2_single(np.array([0.0, 0.0, 1.0]), basis) == pytest.approx(0.0, abs=1e-14)

    beta = rng.standard_normal(3)
    assert r2_single(beta, basis) == r2_single(-beta, basis)

    a = rng.standard_normal((6, 2))
    b = rng.standard_normal((6, 2))
    t = rng.standard_normal((2, 2)) + 3 * np.eye(2)
    assert trace_correlation(a @ t, b).r2 == pytest.approx(
        trace_correlation(a, b).r2, abs=1e-10
    )
    assert trace_correlation(a, b).r2 == pytest.approx(
        trace_correlation(b, a).r2, abs=1e-12
    )
    v1, v2 = rng.standard_normal((4, 1)), rng.standard_normal((4, 1))
    assert trace_correlation(v1, v2).r2 == pytest.approx(
        r2_single(v1[:, 0], v2), abs=1e-12
    )

    _verdict("acceptance 7: metric properties", True)


def test_acceptance_8_json_determinism(tmp_path):
    """Criterion 8: byte-identical JSON across reruns and BLAS thread counts.

    Each command runs four times, with OPENBLAS_NUM_THREADS and
    OMP_NUM_THREADS at 1, then the usable CPU count (at least 2), then
    again.  The p = 1 sweep reduces whole slices and the whole sample to
    single dot products, which a threaded BLAS would split across threads.
    """
    if hasattr(os, "sched_getaffinity"):
        nproc = len(os.sched_getaffinity(0))  # what nproc prints
    else:
        nproc = os.cpu_count() or 1
    many = str(max(2, nproc))
    commands = {
        "simulate": [
            "simulate", "--model", "2", "--n", "200", "--slices", "10",
            "--reps", "40", "--seed", str(DEFAULT_SEED), "--out", "json",
        ],
        "table1": [
            "table1", "--models", "1,3", "--H", "2,6", "--n", "120",
            "--reps", "8", "--seed", str(DEFAULT_SEED), "--out", "json",
        ],
        "sweep": [
            "sweep", "--mode", "bias", "--n-grid", "20000", "--c-grid", "2,3",
            "--reps", "10", "--seed", str(DEFAULT_SEED), "--out", "json",
        ],
        # both c slice one shared sort of each replicate, in chunks of 2
        "sweep-p2": [
            "sweep", "--mode", "bias", "--n-grid", "20000", "--c-grid", "2,3",
            "--reps", "10", "--p", "2", "--seed", str(DEFAULT_SEED), "--out", "json",
        ],
        # p = 10: chunks of 4 replicates, which c = 2 slices in sub-chunks of 2
        "sweep-p10": [
            "sweep", "--mode", "bias", "--n-grid", "4000", "--c-grid", "2,4",
            "--reps", "10", "--p", "10", "--seed", str(DEFAULT_SEED), "--out", "json",
        ],
    }
    # the child imports the same slicesdr as this process, whether it was
    # found through PYTHONPATH or an installed package
    package_root = str(Path(slicesdr.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    for name, argv in commands.items():
        outputs = []
        for threads in ("1", many, "1", many):
            out = tmp_path / f"{name}-{threads}-{len(outputs)}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "slicesdr.cli", *argv, "--output", str(out)],
                env={**env, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads},
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert len(set(outputs)) == 1, f"{name} output varies across runs/threads"
        json.loads(outputs[0])  # schema sanity: valid JSON document
    _verdict("acceptance 8: byte-identical JSON across reruns and threads", True)
