"""CLI behavior: flags, output schemas, exit codes, determinism."""

import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import slicesdr
from slicesdr import Dataset, ModelSpec, model_streams, r2_single, simulation
from slicesdr.cli import build_parser, main
from slicesdr.errors import AmbiguousDimensionWarning
from conftest import traced_peak


def write_model_csv(tmp_path, model_id, n=480, seed=314, name="data.csv"):
    spec = ModelSpec(id=model_id)
    x, eps = simulation._draw(n, spec.p, model_streams(seed, 0))
    d = Dataset(x=x, y=simulation._RESPONSES[model_id](x @ spec.beta, eps))
    path = tmp_path / name
    header = ["y"] + [f"x{j}" for j in range(d.p)]
    lines = [",".join(header)]
    for i in range(d.n):
        lines.append(
            ",".join([repr(float(d.y[i]))] + [repr(float(v)) for v in d.x[i]])
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def write_xy_csv(path, x, y):
    """A CSV with header y, x0, x1, ... and the rows of (y, x)."""
    header = ",".join(["y"] + [f"x{j}" for j in range(x.shape[1])])
    body = "".join(",".join(repr(float(v)) for v in row) + "\n"
                   for row in np.column_stack([y, x]))
    Path(path).write_text(header + "\n" + body, encoding="utf-8")
    return str(path)


def failing_eigh(*args, **kwargs):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


class TestEstimate:
    def test_save_recovers_direction_on_cubic_model(self, tmp_path, capsys):
        path = write_model_csv(tmp_path, model_id=1)
        doc = run_json(
            capsys,
            ["estimate", "--input", path, "--y", "y", "--slices", "6",
             "--method", "save", "--k", "1", "--out", "json"],
        )
        assert set(doc) == {"meta", "results"}
        beta_x = np.array(doc["results"]["betas_x"])[:, 0]
        truth = np.zeros(10)
        truth[0] = 1.0
        assert r2_single(beta_x, truth[:, None]) >= 0.85
        assert len(doc["results"]["eigenvalues"]) == 10
        assert doc["results"]["slice_counts"] == [80] * 6
        assert doc["meta"]["command"] == "estimate"
        assert doc["meta"]["n"] == 480 and doc["meta"]["p"] == 10

    def test_default_slice_count_rule(self, tmp_path, capsys):
        path = write_model_csv(tmp_path, model_id=1, n=480)
        doc = run_json(
            capsys, ["estimate", "--input", path, "--y", "y", "--out", "json"]
        )
        assert doc["meta"]["slices"] == 24  # max(2, round(480/20))

    def test_too_many_slices_is_usage_error(self, tmp_path, capsys):
        path = write_model_csv(tmp_path, model_id=1, n=100)
        code = main(
            ["estimate", "--input", path, "--y", "y", "--slices", "60",
             "--method", "save"]
        )
        assert code == 2
        assert "slices" in capsys.readouterr().err

    def test_too_few_rows_for_the_default_slices_names_the_default(
        self, tmp_path, capsys
    ):
        rng = np.random.default_rng(3)
        path = write_xy_csv(tmp_path / "three.csv", rng.standard_normal((3, 2)),
                            rng.standard_normal(3))
        assert main(["estimate", "--input", path, "--y", "y"]) == 2
        err = capsys.readouterr().err
        assert err == (
            "error: the default H = max(2, round(n/20)) = 2 leaves fewer than"
            " 2 points per slice for n=3\n"
        )
        assert main(["estimate", "--input", path, "--y", "y", "--slices", "2"]) == 2
        assert capsys.readouterr().err == (
            "error: --slices 2 leaves fewer than 2 points per slice for n=3\n"
        )

    @pytest.mark.parametrize("slices", ["1", "0", "-3"])
    def test_fewer_than_two_slices_says_so(self, slices, tmp_path, capsys):
        # one slice holds every point: the count of slices is what is wrong
        rng = np.random.default_rng(3)
        path = write_xy_csv(tmp_path / "xy.csv", rng.standard_normal((200, 2)),
                            rng.standard_normal(200))
        assert main(["estimate", "--input", path, "--y", "y", "--slices", slices]) == 2
        assert capsys.readouterr().err == (
            f"error: --slices {slices}: need at least 2 slices\n"
        )

    def test_csave_leading_eigenvalue_positive_on_quadratic_model(
        self, tmp_path, capsys
    ):
        path = write_model_csv(tmp_path, model_id=2)
        doc = run_json(
            capsys,
            ["estimate", "--input", path, "--y", "y", "--slices", "24",
             "--method", "csave", "--k", "1", "--out", "json"],
        )
        assert doc["results"]["eigenvalues"][0] > 0
        assert doc["results"]["negative_eigenvalues"] is not None

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code = main(
            ["estimate", "--input", str(tmp_path / "no.csv"), "--y", "y"]
        )
        assert code == 3

    def test_nan_cell_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("y,x1\n1,2\n3,NaN\n5,1\n", encoding="utf-8")
        code = main(["estimate", "--input", str(path), "--y", "y"])
        assert code == 3
        assert "row 3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "raw", [b"y,\xffx1\n1,2\n3,4\n5,6\n", b"y,x1\n1,2\n3,\xff4\n5,6\n"]
    )
    def test_bytes_that_are_not_utf8_are_data_errors(self, tmp_path, capsys, raw):
        path = tmp_path / "bad.csv"
        path.write_bytes(raw)
        assert main(["estimate", "--input", str(path), "--y", "y"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "0xff at offset" in err

    def test_csv_output_round_trips(self, tmp_path, capsys):
        path = write_model_csv(tmp_path, model_id=1, n=100)
        out_file = tmp_path / "est.csv"
        code = main(
            ["estimate", "--input", path, "--y", "y", "--slices", "5",
             "--out", "csv", "--output", str(out_file)]
        )
        assert code == 0
        lines = out_file.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "record,i,j,value"
        assert any(line.startswith("eigenvalue,") for line in lines)
        assert any(line.startswith("beta_x,") for line in lines)

    def test_y_by_index(self, tmp_path, capsys):
        path = write_model_csv(tmp_path, model_id=1, n=100)
        doc = run_json(
            capsys,
            ["estimate", "--input", path, "--y", "0", "--slices", "5",
             "--out", "json"],
        )
        assert doc["meta"]["p"] == 10

    def test_constant_predictor_is_numerical_error(self, tmp_path, capsys):
        rows = ["y,x1,x2"] + [f"{i},{i % 7},1.0" for i in range(40)]
        path = tmp_path / "flat.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code = main(["estimate", "--input", str(path), "--y", "y", "--slices", "4"])
        assert code == 4
        assert "eigenvalue" in capsys.readouterr().err

    def test_ml_divisor_accepted_for_save(self, tmp_path, capsys):
        path = write_model_csv(tmp_path, model_id=2, n=120)
        doc = run_json(
            capsys,
            ["estimate", "--input", path, "--y", "y", "--slices", "6",
             "--method", "save", "--divisor", "c", "--out", "json"],
        )
        assert doc["meta"]["divisor"] == "c"

    def test_csave_rejects_ml_divisor(self, tmp_path, capsys):
        path = write_model_csv(tmp_path, model_id=2, n=120)
        code = main(
            ["estimate", "--input", path, "--y", "y", "--slices", "6",
             "--method", "csave", "--divisor", "c"]
        )
        assert code == 2

    def test_y_header_name_wins_over_index(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        table = rng.standard_normal((60, 4))
        body = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in table)
        numeric = tmp_path / "numeric.csv"
        numeric.write_text("1,0,y,2\n" + body, encoding="utf-8")
        plain = tmp_path / "plain.csv"
        plain.write_text("a,b,c,d\n" + body, encoding="utf-8")

        def results(path, y):
            argv = ["estimate", "--input", str(path), "--y", y, "--slices", "3",
                    "--out", "json"]
            return run_json(capsys, argv)["results"]

        # "1" names column 0; "3" names no column, so it is index 3
        assert results(numeric, "1") == results(plain, "a")
        assert results(numeric, "0") == results(plain, "b")
        assert results(numeric, "3") == results(plain, "d")

    @pytest.mark.parametrize(
        "flag",
        [pytest.param([f"--rel-floor={v}"], id=v)
         for v in ("nan", "inf", "-1", "-1e-300")]
        # a negative value in exponent form as its own token is a value too
        + [pytest.param(["--rel-floor", v], id=f"separate{v}")
           for v in ("-1e-3", "-1E-3", "-.5e-2", "-1e-300", "-1", "-inf", "-NaN")],
    )
    def test_invalid_rel_floor_is_usage_error(self, tmp_path, capsys, flag):
        path = write_model_csv(tmp_path, model_id=1, n=100)
        code = main(["estimate", "--input", path, "--y", "y", *flag])
        assert code == 2
        assert "rel_floor must be finite and >= 0" in capsys.readouterr().err

    def test_invalid_rel_floor_is_reported_before_the_file_is_opened(
        self, tmp_path, capsys
    ):
        missing = str(tmp_path / "missing.csv")
        code = main(["estimate", "--input", missing, "--y", "y", "--rel-floor", "-1e-3"])
        assert code == 2
        assert "rel_floor must be finite and >= 0" in capsys.readouterr().err

    def test_invalid_rel_floor_does_not_parse_the_csv(
        self, tmp_path, capsys, monkeypatch
    ):
        path = write_model_csv(tmp_path, model_id=1, n=100)

        def unreachable(*args, **kwargs):
            raise AssertionError("load_csv called before the rel_floor check")

        monkeypatch.setattr(slicesdr.cli, "load_csv", unreachable)
        code = main(["estimate", "--input", path, "--y", "y", "--rel-floor=nan"])
        assert code == 2
        assert "rel_floor must be finite and >= 0" in capsys.readouterr().err

    def test_constant_predictor_is_numerical_error_at_zero_rel_floor(
        self, tmp_path, capsys
    ):
        rows = ["y,x1,x2"] + [f"{i},{i % 7},1.0" for i in range(40)]
        path = tmp_path / "flat.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no divide-by-zero on the way
            code = main(["estimate", "--input", str(path), "--y", "y",
                         "--slices", "4", "--rel-floor", "0"])
        assert code == 4
        assert capsys.readouterr().err.startswith("error: eigenvalue ")

    @pytest.mark.parametrize("method", ["sir", "save", "csave"])
    @pytest.mark.parametrize("slices", ["2", "3"])
    def test_p_close_to_n(self, tmp_path, capsys, slices, method):
        # n = 12, p = 11: slice covariances of rank < p leave SAVE with a
        # tied leading eigenvalue, which the fit reports and survives
        rng = np.random.default_rng(0)
        x = rng.standard_normal((12, 11))
        y = x[:, 0] + 0.1 * rng.standard_normal(12)
        path = write_xy_csv(tmp_path / "pn.csv", x, y)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            doc = run_json(capsys, ["estimate", "--input", path, "--y", "y",
                                    "--slices", slices, "--method", method,
                                    "--out", "json"])
        results = doc["results"]
        assert np.isfinite(results["eigenvalues"]).all()
        betas = np.array(results["betas_x"])
        np.testing.assert_allclose(
            np.linalg.norm(betas, axis=0), 1.0, rtol=0, atol=1e-12
        )
        warned = any(w.category is AmbiguousDimensionWarning for w in caught)
        assert results["ambiguous_dimension"] is warned
        assert warned or method != "save"

    def test_near_singular_covariance_is_numerical_error(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((200, 4))
        x[:, 3] = x[:, 1] + 1e-7 * rng.standard_normal(200)
        y = x[:, 0] + rng.standard_normal(200)
        path = write_xy_csv(tmp_path / "ns.csv", x, y)
        assert main(["estimate", "--input", path, "--y", "y"]) == 4
        assert "below rel_floor" in capsys.readouterr().err

    def test_json_identical_across_blas_threads(self, tmp_path):
        """Whitening 10007 rows, in blocks, gives the same bytes at any
        OPENBLAS_NUM_THREADS / OMP_NUM_THREADS; the child runs the code
        under test, as in acceptance 8."""
        if hasattr(os, "sched_getaffinity"):
            nproc = len(os.sched_getaffinity(0))
        else:
            nproc = os.cpu_count() or 1
        path = write_model_csv(tmp_path, model_id=1, n=10007)
        package_root = str(Path(slicesdr.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [package_root, env.get("PYTHONPATH")])
        )
        outputs = []
        for threads in ("1", str(max(2, nproc))):
            out = tmp_path / f"est-{threads}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "slicesdr.cli", "estimate", "--input", path,
                 "--y", "y", "--method", "csave", "--out", "json",
                 "--output", str(out)],
                env={**env, "OPENBLAS_NUM_THREADS": threads,
                     "OMP_NUM_THREADS": threads},
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["meta"]["n"] == 10007

    @pytest.mark.parametrize("method", ["sir", "csave"])
    def test_traced_peak_is_bounded(self, tmp_path, capsys, method):
        # At its peak a call holds two (n, p) arrays, the whitened z and its
        # slice-order copy, the (H, p, p) slice covariances and a few n-long
        # index and scratch vectors.  Keeping the parsed table, the raw x or
        # a second whitening buffer alive goes past 1.25 times that budget.
        n, p, H = 20000, 10, 1000  # the default H = round(n / 20)
        rng = np.random.default_rng(20)
        x = rng.standard_normal((n, p))
        path = write_xy_csv(tmp_path / "big.csv", x, x[:, 0] + rng.standard_normal(n))
        argv = ["estimate", "--input", path, "--y", "y", "--method", method,
                "--out", "json"]

        def call():
            assert main(argv) == 0

        peak = traced_peak(call)
        assert f'"slices": {H},' in capsys.readouterr().out
        budget = 8 * (2 * n * p + H * p * p + 4 * n)
        assert peak <= 1.25 * budget, (peak, budget)


def fit_direction(x, y, method):
    """``estimate --k 1`` on (x, y) through a CSV: the x-scale direction and
    the eigenvalues."""
    with tempfile.TemporaryDirectory() as work:
        path = write_xy_csv(Path(work) / "data.csv", x, y)
        out = Path(work) / "fit.json"
        code = main(["estimate", "--input", path, "--y", "y", "--slices", "8",
                     "--method", method, "--k", "1", "--out", "json",
                     "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))["results"]
    return np.array(doc["betas_x"])[:, 0], doc["eigenvalues"]


def single_index_data(seed):
    """y = u + u^3 / 4 + noise with u = (x1 + x2) / sqrt(2), correlated x."""
    rng = np.random.default_rng(seed)
    n, p = 240, 4
    x = rng.standard_normal((n, p)) @ (np.eye(p) + 0.3) + [1.0, -2.0, 0.5, 3.0]
    u = (x[:, 0] + x[:, 1]) / np.sqrt(2)
    u = (u - u.mean()) / u.std()
    y = u + u**3 / 4 + 0.2 * rng.standard_normal(n)
    assume(np.unique(y).size == n)
    return x, y


def assert_same_direction(got, want):
    np.testing.assert_allclose(got * np.sign(got @ want), want, rtol=0, atol=1e-8)


METHOD = st.sampled_from(["sir", "save", "csave"])
SEED = st.integers(0, 2**32 - 1)


class TestEstimateInvariance:
    """Properties of ``estimate`` on a single-index model with a clear
    eigengap at k = 1, directions compared up to sign."""

    @settings(max_examples=15, deadline=None)
    @given(seed=SEED, method=METHOD, perm_seed=SEED)
    def test_row_permutation(self, seed, method, perm_seed):
        x, y = single_index_data(seed)
        beta, eigenvalues = fit_direction(x, y, method)
        assert eigenvalues[0] - eigenvalues[1] > 0.05
        order = np.random.default_rng(perm_seed).permutation(len(y))
        assert_same_direction(fit_direction(x[order], y[order], method)[0], beta)

    @settings(max_examples=15, deadline=None)
    @given(seed=SEED, method=METHOD, scale=st.floats(0.1, 10.0),
           transform=st.sampled_from(["affine", "exp", "cube"]))
    def test_increasing_transform_of_y(self, seed, method, transform, scale):
        x, y = single_index_data(seed)
        beta, eigenvalues = fit_direction(x, y, method)
        assert eigenvalues[0] - eigenvalues[1] > 0.05
        g = {
            "affine": lambda t: scale * t - 7.0,
            "exp": lambda t: np.exp(t / scale),
            "cube": lambda t: t**3 + scale * t,
        }[transform](y)
        assume(np.all(np.diff(g[np.argsort(y)]) > 0))  # still strictly increasing
        assert_same_direction(fit_direction(x, g, method)[0], beta)

    @settings(max_examples=15, deadline=None)
    @given(seed=SEED, method=METHOD, a_seed=SEED)
    def test_affine_map_of_x(self, seed, method, a_seed):
        x, y = single_index_data(seed)
        beta, eigenvalues = fit_direction(x, y, method)
        assert eigenvalues[0] - eigenvalues[1] > 0.05
        rng = np.random.default_rng(a_seed)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        a = q * rng.uniform(0.5, 2.0, 4)  # singular values in [0.5, 2]
        b = rng.uniform(-5.0, 5.0, 4)
        want = np.linalg.solve(a.T, beta)
        want /= np.linalg.norm(want)
        assert_same_direction(fit_direction(x @ a.T + b, y, method)[0], want)


class TestSimulate:
    def test_json_schema_and_method_order(self, capsys):
        doc = run_json(
            capsys,
            ["simulate", "--model", "2", "--n", "120", "--slices", "6",
             "--reps", "5", "--seed", "7", "--out", "json"],
        )
        assert set(doc) == {"meta", "results"}
        meta = doc["meta"]
        assert meta["command"] == "simulate"
        assert meta["seed"] == 7
        assert "version" in meta
        methods = [row["method"] for row in doc["results"]]
        assert methods == ["save", "sir", "csave"]
        for row in doc["results"]:
            assert set(row) == {
                "model", "method", "H", "median", "q1", "q3", "min", "max", "reps",
            }
            assert row["reps"] == 5

    def test_method_filter(self, capsys):
        doc = run_json(
            capsys,
            ["simulate", "--model", "1", "--n", "80", "--slices", "4",
             "--reps", "3", "--methods", "sir", "--out", "json"],
        )
        assert [row["method"] for row in doc["results"]] == ["sir"]

    def test_byte_identical_reruns(self, tmp_path):
        args = ["simulate", "--model", "2", "--n", "100", "--slices", "5",
                "--reps", "6", "--seed", "55", "--out", "json"]
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--output", str(f1)]) == 0
        assert main(args + ["--output", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_quantiles_flag_extends_csv(self, capsys):
        code = main(
            ["simulate", "--model", "1", "--n", "80", "--slices", "4",
             "--reps", "3", "--out", "csv", "--quantiles"]
        )
        assert code == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header == "model,method,H,min,q1,median,q3,max,reps"

    def test_csv_without_quantiles(self, capsys):
        code = main(
            ["simulate", "--model", "1", "--n", "80", "--slices", "4",
             "--reps", "3", "--out", "csv"]
        )
        assert code == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header == "model,method,H,median,reps"

    def test_usage_error_when_slices_exceed_data(self, capsys):
        code = main(
            ["simulate", "--model", "1", "--n", "10", "--slices", "8",
             "--reps", "2"]
        )
        assert code == 2

    def test_quadratic_model_ordering_at_small_n(self, capsys):
        # the bias-corrected estimator beats SIR on the symmetric model
        doc = run_json(
            capsys,
            ["simulate", "--model", "2", "--n", "200", "--slices", "10",
             "--reps", "200", "--out", "json"],
        )
        medians = {row["method"]: row["median"] for row in doc["results"]}
        assert medians["csave"] > medians["sir"]


class TestTable1:
    def test_small_grid_layout(self, capsys):
        doc = run_json(
            capsys,
            ["table1", "--models", "2", "--H", "2,6", "--n", "96",
             "--reps", "3", "--seed", "11", "--out", "json"],
        )
        rows = doc["results"]
        keys = [(r["model"], r["method"], r["H"]) for r in rows]
        assert keys == [
            (2, "save", 2), (2, "save", 6),
            (2, "sir", 2), (2, "sir", 6),
            (2, "csave", 2), (2, "csave", 6),
        ]
        assert doc["meta"]["models"] == [2]
        assert doc["meta"]["H"] == [2, 6]

    def test_reps_one_runs(self, capsys):
        doc = run_json(
            capsys,
            ["table1", "--models", "1", "--H", "2", "--n", "40",
             "--reps", "1", "--out", "json"],
        )
        assert all(row["reps"] == 1 for row in doc["results"])
        row = doc["results"][0]
        assert row["median"] == row["min"] == row["max"]

    def test_human_grid_render(self, capsys):
        code = main(
            ["table1", "--models", "2", "--H", "2,6", "--n", "96",
             "--reps", "2", "--out", "human"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "model 2" in out
        for method in ("save", "sir", "csave"):
            assert method in out

    def test_human_grid_bytes(self, capsys):
        # the exact rendered grid, header padding included
        expected = (
            "model 1 (n=192, reps=3)\n"
            "  method    H=2        H=96    \n"
            "  save       0.1664    0.0012\n"
            "  sir        0.9198    0.7030\n"
            "  csave      0.3229    0.0013\n"
            "model 3 (n=192, reps=3)\n"
            "  method    H=2        H=96    \n"
            "  save       0.0654    0.0764\n"
            "  sir        0.3887    0.1255\n"
            "  csave      0.0169    0.0779\n"
        )
        code = main(["table1", "--models", "1,3", "--H", "2,96", "--n", "192",
                     "--reps", "3"])
        assert code == 0
        assert capsys.readouterr().out == expected

    def test_repeated_cells_keep_their_rows(self, capsys):
        doc = run_json(
            capsys,
            ["table1", "--models", "1,1", "--H", "2,2", "--n", "40",
             "--reps", "3", "--out", "json"],
        )
        rows = doc["results"]
        assert [(r["model"], r["method"], r["H"]) for r in rows] == [
            (1, method, 2) for method in ("save", "sir", "csave") for _ in range(4)
        ]
        for i in range(0, 12, 4):
            assert rows[i:i + 4] == [rows[i]] * 4

    def test_empty_model_grid_is_usage_error(self, capsys):
        assert main(["table1", "--models", "", "--reps", "1"]) == 2


class TestSweep:
    def test_bias_mode_defaults_overridable(self, capsys):
        doc = run_json(
            capsys,
            ["sweep", "--mode", "bias", "--n-grid", "400", "--c-grid", "2",
             "--reps", "4", "--seed", "3", "--out", "json"],
        )
        assert doc["meta"]["mode"] == "bias"
        row = doc["results"][0]
        assert row["n"] == 400 and row["c"] == 2 and row["H"] == 200
        assert row["mean_lambda_raw"] > 0

    def test_consistency_mode_grid(self, capsys):
        doc = run_json(
            capsys,
            ["sweep", "--mode", "consistency", "--n-grid", "200,400",
             "--c-grid", "4", "--reps", "3", "--out", "json"],
        )
        assert [r["n"] for r in doc["results"]] == [200, 400]

    def test_human_rows_bytes(self, capsys):
        expected = (
            "n=400  c=2  H=200  reps=4  mean_lambda_raw=3.2118  "
            "mean_lambda_corrected=2.8103  mean_abs_err_raw=2.2118  "
            "median_abs_err_raw=1.8251  mean_abs_err_corrected=1.8103  "
            "median_abs_err_corrected=1.4720\n"
            "n=400  c=3  H=133  reps=4  mean_lambda_raw=1.8918  "
            "mean_lambda_corrected=1.7639  mean_abs_err_raw=0.8918  "
            "median_abs_err_raw=0.8512  mean_abs_err_corrected=0.7639  "
            "median_abs_err_corrected=0.7246\n"
        )
        code = main(["sweep", "--mode", "bias", "--n-grid", "400",
                     "--c-grid", "2,3", "--reps", "4"])
        assert code == 0
        assert capsys.readouterr().out == expected

    def test_empty_grid_is_usage_error(self, capsys):
        assert main(["sweep", "--mode", "bias", "--n-grid", ","]) == 2
        assert "empty sweep grid" in capsys.readouterr().err

    def test_degenerate_design_is_usage_error(self, capsys):
        code = main(
            ["sweep", "--mode", "bias", "--n-grid", "100", "--c-grid", "100",
             "--reps", "2"]
        )
        assert code == 2

    def test_slices_not_of_size_c_is_usage_error(self, capsys):
        # n=10, c=4 gives H=2 slices of 5 points: the c=4 correction would
        # be applied to 5-point slices
        code = main(
            ["sweep", "--mode", "bias", "--n-grid", "10", "--c-grid", "4",
             "--reps", "2", "--out", "json"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "slices of 5 points, not 4" in captured.err

    def test_csv_header(self, capsys):
        code = main(
            ["sweep", "--mode", "bias", "--n-grid", "200", "--c-grid", "2",
             "--reps", "2", "--out", "csv"]
        )
        assert code == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header.startswith("n,c,H,reps,mean_lambda_raw")


class TestParser:
    def test_unknown_command_exits_2(self):
        assert main(["frobnicate"]) == 2

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "slicesdr" in capsys.readouterr().out

    # main reuses one parser per process; each call must still parse afresh

    def test_consecutive_calls_print_the_same(self, capsys):
        argv = ["simulate", "--model", "2", "--n", "60", "--slices", "3",
                "--reps", "3", "--p", "3", "--out", "json"]
        outs = []
        for _ in range(2):
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and outs[0]

    def test_help_is_that_of_a_fresh_parser(self, capsys):
        main(["--version"])
        capsys.readouterr()
        assert main(["--help"]) == 0
        assert capsys.readouterr().out == build_parser().format_help()
        assert build_parser() is not build_parser()

    def test_patched_command_helpers_are_reached(self, monkeypatch):
        main(["--version"])  # the parser exists before the patch
        reached = []
        monkeypatch.setattr("slicesdr.cli.run_mc", lambda cfg: reached.append(cfg))
        with pytest.raises(AttributeError):  # the stub returns no report
            main(["simulate", "--model", "1", "--n", "40", "--reps", "1"])
        assert [cfg.model.id for cfg in reached] == [1]


class TestExitCodeFamilies:
    def test_internal_value_error_is_not_a_usage_error(self, monkeypatch):
        # a bare ValueError from inside the library is a bug: it propagates
        # instead of being reported as a bad command line (exit 2)
        def broken(cfg):
            raise ValueError("internal invariant violated")

        monkeypatch.setattr("slicesdr.cli.run_mc", broken)
        with pytest.raises(ValueError, match="internal invariant"):
            main(["simulate", "--model", "1", "--n", "40", "--reps", "1"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--model", "1", "--slices", "0", "--reps", "1"],
            ["simulate", "--model", "1", "--reps", "0"],
            ["simulate", "--model", "1", "--p", "0", "--reps", "1"],
            ["simulate", "--model", "1", "--methods", "pca", "--reps", "1"],
            ["simulate", "--model", "1", "--methods", "save,save", "--reps", "1"],
            ["table1", "--models", "7", "--reps", "1"],
            ["table1", "--H", "2,x", "--reps", "1"],
            ["sweep", "--mode", "bias", "--n-grid", "100", "--seed", "-1"],
            # n <= p: standardization fails on every replicate
            ["simulate", "--model", "1", "--p", "20", "--n", "20", "--slices", "2",
             "--reps", "3", "--standardize"],
            ["table1", "--models", "1", "--H", "2", "--n", "10", "--reps", "2",
             "--standardize"],
        ],
    )
    def test_invalid_configuration_is_usage_error(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_eigh_failure_is_numerical_error(self, tmp_path, monkeypatch, capsys):
        path = write_model_csv(tmp_path, model_id=1, n=100)
        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        assert main(["estimate", "--input", path, "--y", "y"]) == 4
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["table1", "--models", "1,3", "--H", "2,6", "--n", "60", "--reps", "3"],
            ["simulate", "--model", "3", "--n", "60", "--slices", "6", "--reps", "3"],
        ],
    )
    def test_grid_eigh_failure_names_replicate_0(self, argv, monkeypatch, capsys):
        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: replicate 0 failed: ") and "did not converge" in err

    @pytest.mark.parametrize("target", ["missing/out.txt", "."])
    @pytest.mark.parametrize("command", ["sweep", "estimate", "table1", "simulate"])
    def test_unwritable_output_is_data_error(
        self, command, target, tmp_path, monkeypatch, capsys
    ):
        # a missing directory or an existing one: exit 3 with open()'s error,
        # and nothing is created; the simulations fail before they run
        if command == "sweep":
            argv = ["sweep", "--mode", "bias", "--n-grid", "100", "--c-grid", "2",
                    "--reps", "1"]
        elif command == "table1":
            argv = ["table1", "--models", "1", "--H", "2", "--reps", "1"]
        elif command == "simulate":
            argv = ["simulate", "--model", "1", "--reps", "1"]
        else:
            argv = ["estimate", "--input", write_model_csv(tmp_path, model_id=1, n=100),
                    "--y", "y"]

        def no_run(*args, **kwargs):
            raise AssertionError("the run started")

        for name in ("run_mc", "run_grid", "bias_sweep"):
            monkeypatch.setattr(f"slicesdr.cli.{name}", no_run)
        output = str(tmp_path / target)
        assert main(argv + ["--output", output]) == 3
        out, err = capsys.readouterr()
        message = ("[Errno 21] Is a directory" if target == "."
                   else "[Errno 2] No such file or directory")
        assert out == "" and err == f"error: {message}: {output!r}\n"
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["table1", "--models", "7"],
            ["table1", "--H", "2,0"],
            ["simulate", "--model", "1", "--slices", "0"],
            ["sweep", "--mode", "bias", "--n-grid", "100", "--c-grid", "1"],
            ["estimate", "--input", "missing.csv", "--y", "y", "--rel-floor", "-1e-3"],
        ],
    )
    def test_usage_error_is_reported_before_an_unwritable_output(
        self, argv, tmp_path, capsys
    ):
        assert main(argv + ["--output", str(tmp_path / "missing" / "x")]) == 2
        assert "Errno" not in capsys.readouterr().err

    def test_k_out_of_range_is_usage_error(self, tmp_path, capsys):
        path = write_model_csv(tmp_path, model_id=1, n=100)
        code = main(["estimate", "--input", path, "--y", "y", "--k", "11"])
        assert code == 2
        assert "1 <= k <= p=10" in capsys.readouterr().err
