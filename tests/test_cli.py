"""CLI behavior: flags, output schemas, exit codes, determinism."""

import json

import numpy as np
import pytest

from slicesdr import ModelSpec, gen_model, model_streams, r2_single
from slicesdr.cli import main


def write_model_csv(tmp_path, model_id, n=480, seed=314, name="data.csv"):
    d = gen_model(ModelSpec(id=model_id), n, model_streams(seed, 0))
    path = tmp_path / name
    header = ["y"] + [f"x{j}" for j in range(d.p)]
    lines = [",".join(header)]
    for i in range(d.n):
        lines.append(
            ",".join([repr(float(d.y[i]))] + [repr(float(v)) for v in d.x[i]])
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


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

    def test_empty_grid_is_usage_error(self, capsys):
        assert main(["sweep", "--mode", "bias", "--n-grid", ","]) == 2

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
