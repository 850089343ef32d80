"""Monte Carlo harness tests: determinism, substreams, model generators,
and the chunked replicate engine against a per-replicate oracle."""

import dataclasses
import re
import sys

import numpy as np
import pytest

from slicesdr import (
    METHODS,
    bias_sweep,
    candidate_matrix,
    correction_coefficients,
    lambda_corrected,
    model_streams,
    r2_single,
    run_grid,
    slice_equal_count,
    slice_stats,
    standardize,
    sym_eig,
)
from slicesdr import estimators, simulation, slicing
from slicesdr.cli import _sweep_rows, main
from slicesdr.errors import (
    InvalidArgument,
    NumericalError,
    SimulationError,
    SingularCovariance,
    UsageError,
)
from conftest import traced_peak
from test_slicing import reduceat_slice_stats


#: The index direction e_1 of every benchmark model at the default p.
E1 = np.eye(simulation.MODEL_P)[0]


def model_data(model, n, streams):
    """Predictors x and response y of a benchmark model: the engines' draw
    and response."""
    x, eps = simulation._draw(streams, (np.empty((n, E1.size)), np.empty(n)))
    return x, simulation._RESPONSES[model](simulation._Powers(x @ E1), eps)


def one_cell(model, H, **kwargs):
    """The (methods, reps) scores of a one-cell grid: a single Monte Carlo
    run."""
    return run_grid([model], [H], **kwargs)[0, 0]


class _ZeroStream:
    """Noise stub: standard_normal always returns zeros."""

    def standard_normal(self, out):
        return np.zeros(out.shape)


class TestGenerators:
    def test_fixed_seed_bit_identical(self):
        x1, y1 = model_data(2, 100, model_streams(42, 3))
        x2, y2 = model_data(2, 100, model_streams(42, 3))
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)

    def test_distinct_replicates_differ(self):
        x1, _ = model_data(1, 50, model_streams(42, 0))
        x2, _ = model_data(1, 50, model_streams(42, 1))
        assert not np.array_equal(x1, x2)

    def test_x_and_eps_streams_independent_roles(self):
        x_gen, _ = model_streams(7, 0)
        _, eps_gen = model_streams(7, 0)
        assert not np.array_equal(
            x_gen.standard_normal(10), eps_gen.standard_normal(10)
        )

    def test_multiplicative_model_with_zero_noise(self):
        streams = (model_streams(1, 0)[0], _ZeroStream())
        _, y = model_data(3, 64, streams)
        np.testing.assert_array_equal(y, np.zeros(64))

    def test_cubic_model_dominates_noise(self):
        # Var(u^3) = 15 against unit noise: corr(y, u^3) = sqrt(15/16) > 0.9
        x, y = model_data(1, 100_000, model_streams(5, 0))
        u3 = x[:, 0] ** 3
        corr = np.corrcoef(y, u3)[0, 1]
        assert corr > 0.9

    def test_model_formulas(self):
        x_gen, eps_gen = model_streams(11, 2)
        x = x_gen.standard_normal((30, 10))
        eps = eps_gen.standard_normal(30)
        u = x[:, 0]
        expected = {
            1: u ** 3 + eps,
            2: u ** 2 + eps,
            3: u * eps,
            4: u ** 3 + u * eps,
            5: np.cos(u) + eps,
        }
        for mid, want in expected.items():
            _, y = model_data(mid, 30, (_Replay(x), _Replay(eps)))
            np.testing.assert_allclose(y, want, atol=0)

    @pytest.mark.parametrize("seed, replicate, message", [
        pytest.param(-1, 0, "seed and replicate index must be non-negative", id="-1-0"),
        pytest.param(0, -1, "seed and replicate index must be non-negative", id="0--1"),
        pytest.param(1.5, 0, r"seed must be an integer, got 1\.5", id="1.5-0"),
        pytest.param(0, 2.0, r"replicate must be an integer, got 2\.0", id="0-2.0"),
        pytest.param(True, 0, "seed must be an integer, got True", id="True-0"),
    ])
    def test_negative_stream_keys_rejected(self, seed, replicate, message):
        with pytest.raises(InvalidArgument, match=f"^{message}$"):
            model_streams(seed, replicate)

    def test_unknown_model_id_rejected(self):
        with pytest.raises(InvalidArgument,
                           match=r"^model id must be in \(1, 2, 3, 4, 5\), got 6$"):
            run_grid([1, 6], [2], 40, 1)


class _Replay:
    """Returns a pre-recorded array (test hook for checking model formulas)."""

    def __init__(self, value):
        self.value = value

    def standard_normal(self, out):
        return self.value


class TestRunMc:
    """Single Monte Carlo runs: one-cell grids."""

    def run(self, **kw):
        base = dict(model=2, p=4, n=80, H=4, reps=6, seed=99)
        base.update(kw)
        return one_cell(**base)

    def test_report_determinism(self):
        r1 = self.run()
        r2 = self.run()
        np.testing.assert_array_equal(r1, r2)
        np.testing.assert_array_equal(simulation.order_stats(r1)[0],
                                      simulation.order_stats(r2)[0])

    def test_substream_independence(self):
        # replicate r's score is the same whether reps=3 or reps=6 run
        r_small = self.run(reps=3)
        r_big = self.run(reps=6)
        np.testing.assert_array_equal(r_small, r_big[:, :3])

    def test_reps_one(self):
        r = self.run(reps=1)
        s = r[[METHODS.index("save")]]
        assert s.size == 1
        median, _, _, lo, hi = simulation.order_stats(s)
        assert median == lo == hi

    def test_method_subset(self):
        r = self.run(methods=("sir",))
        assert r.shape == (1, 6)

    def test_standardized_and_raw_paths_close(self):
        raw = self.run(n=400, reps=4, standardize=False)
        std = self.run(n=400, reps=4, standardize=True)
        medians = simulation.order_stats(raw)[0], simulation.order_stats(std)[0]
        assert np.all(np.abs(medians[0] - medians[1]) < 0.5)

    def test_scores_in_unit_interval(self):
        v = self.run()
        assert np.all(v >= -1e-12) and np.all(v <= 1.0 + 1e-12)

    def test_replicate_failure_carries_index(self, monkeypatch):
        # collinear predictors make standardization fail inside the stacked
        # pass; the error names replicate 0
        real = simulation._draw

        def collinear(streams, out):
            x, eps = real(streams, out)
            x[:, 1] = x[:, 0]
            return x, eps

        monkeypatch.setattr(simulation, "_draw", collinear)
        with pytest.raises(SimulationError, match="^replicate 0 failed"):
            self.run(model=1, p=4, n=62, H=31, reps=2, seed=1, standardize=True)

    def test_failure_past_the_first_chunk_names_its_replicate(self, monkeypatch):
        # chunks of 4 at n = 62, p = 4 (H = 2), which H = 31 scores in
        # sub-chunks of 2; only replicate 5, in the second chunk, is collinear
        assert simulation._chunk_size(62, 4, 2) == 4
        real = simulation._draw
        drawn = []

        def collinear_fifth(streams, out):
            x, eps = real(streams, out)
            drawn.append(len(drawn))
            if drawn[-1] == 5:
                x[:, 1] = x[:, 0]
            return x, eps

        monkeypatch.setattr(simulation, "_draw", collinear_fifth)
        with pytest.raises(SimulationError, match="^replicate 5 failed") as info:
            run_grid([1], [2, 31], n=62, reps=6, seed=1, standardize=True, p=4)
        assert isinstance(info.value.__cause__, SingularCovariance)

    def test_config_validation(self):
        with pytest.raises(InvalidArgument, match="need n > p to standardize"):
            self.run(model=1, p=70, n=62, H=31, standardize=True)
        with pytest.raises(InvalidArgument):
            self.run(n=6, H=4)
        with pytest.raises(InvalidArgument):
            self.run(reps=0)
        with pytest.raises(InvalidArgument):
            self.run(methods=("save", "pca"))
        with pytest.raises(InvalidArgument, match=r"^repeated methods \['save'\]"):
            self.run(methods=("save", "sir", "save"))
        with pytest.raises(InvalidArgument):
            self.run(seed=-1)
        with pytest.raises(InvalidArgument, match=r"^H must be >= 2, got 1$"):
            self.run(H=1)  # one slice holds every point: no slice signal


def order_stat_rows(n):
    """Rows of n values with ties, zeros of both signs, infinities and a
    NaN, plus copies whose zeros all carry one sign."""
    rng = np.random.default_rng(n)
    pool = np.array([-np.inf, -2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0, np.inf])
    rows = rng.choice(pool, size=(40, n))
    ties = rng.standard_normal((4, n)).round(1)
    nan_row = rng.choice(pool, size=(1, n))
    nan_row[0, rng.integers(n)] = np.nan
    return np.concatenate([rows, rows + 0.0, np.where(rows == 0, -0.0, rows),
                           ties, nan_row])


def mixes_zero_signs(row):
    zeros = np.signbit(row[row == 0])
    return zeros.any() and not zeros.all()


class TestOrderStats:
    @pytest.mark.parametrize("n", range(1, 26))
    def test_bitwise_numpy_statistics(self, n):
        # the rows as a (rows, n) matrix, and stacked (5, 25, n) as the
        # CLI passes run_grid's scores
        rows = order_stat_rows(n)
        with np.errstate(invalid="ignore"):  # inf - inf, as numpy's own
            flat = simulation.order_stats(rows)
            stacked = simulation.order_stats(rows.reshape(5, 25, n))
            assert [s.shape for s in stacked] == [(5, 25)] * 5
            stacked = [s.reshape(-1) for s in stacked]
            for i, row in enumerate(rows):
                want = (np.median(row), *np.quantile(row, [0.25, 0.75]),
                        row.min(), row.max())
                for got in (flat, stacked):
                    for g, w in zip(got, want):
                        if mixes_zero_signs(row) and w == 0:
                            # numpy's zero then takes the sign of whichever
                            # zero its partition or reduction leaves in place:
                            # np.min([0.0, -0.0]) is -0.0, np.min([-0.0, 0.0]) 0.0
                            assert g[i] == 0
                        else:
                            assert (g[i].view(np.int64)
                                    == np.float64(w).view(np.int64)), row
                # one row alone gives 0-d results, bitwise its (1, n) results
                alone = simulation.order_stats(row)
                as_matrix = simulation.order_stats(row[None])
                assert [a.shape for a in alone] == [()] * 5
                for a, m in zip(alone, as_matrix):
                    assert a.tobytes() == m[0].tobytes(), row
        for values in (np.float64(1.0), np.empty(0), np.empty((3, 0))):
            with pytest.raises(InvalidArgument, match=(
                rf"^need rows of at least one value, got shape "
                rf"{re.escape(str(np.shape(values)))}$"
            )):
                simulation.order_stats(values)


class TestBiasSweep:
    def test_medians_are_numpy_medians(self):
        # the CLI's rows: np.mean and np.median of each (n, c, statistic) row
        n_grid, c_grid = [400, 600], [2, 4]
        levels = bias_sweep(n_grid, c_grid, reps=7, seed=5)
        rows = iter(_sweep_rows(n_grid, c_grid, levels))
        for n in n_grid:
            for c in c_grid:
                alone = simulation._null_levels(n, [n // c], 1, 7, 5)[0]
                row = next(rows)
                assert [row[f] for f in ("n", "c", "H", "reps")] == [n, c, n // c, 7]
                assert row["median_abs_err_raw"] == float(np.median(alone[2]))
                assert row["median_abs_err_corrected"] == float(np.median(alone[3]))
                means = ("mean_lambda_raw", "mean_lambda_corrected",
                         "mean_abs_err_raw", "mean_abs_err_corrected")
                for k, name in enumerate(means):
                    assert row[name] == float(np.mean(alone[k]))

    def test_row_shape_and_determinism(self):
        levels = bias_sweep([400], [4], reps=5, seed=3)
        assert levels.shape == (1, 1, 4, 5) and levels.dtype == np.float64
        levels2 = bias_sweep([400], [4], reps=5, seed=3)
        assert np.array_equal(levels, levels2)

    def test_null_levels_match_exact_theory(self):
        # E[raw] = 1 + 2/(c-1), E[corrected] = (c^3(c+1) - 3(c-1)^3) /
        # (c^2((c-1)^2+1)); both verified to ~2 decimals at modest reps
        raw, cor = bias_sweep([2000], [4], reps=30, seed=7)[0, 0, :2].mean(axis=-1)
        assert raw == pytest.approx(1 + 2 / 3, abs=0.08)
        assert cor == pytest.approx(239 / 160, abs=0.08)

    @pytest.mark.parametrize("p", [4, 10])
    def test_null_levels_match_exact_theory_at_larger_p(self, p):
        # The covariance S of c Gaussian points in R^p has E[S^2] =
        # (1 + (p+1)/(c-1)) I, and V has mean (p+2)((c-1)/c)^2 I, so the
        # exact levels are raw = 1 + (p+1)/(c-1) and corrected =
        # a raw - b (p+2)((c-1)/c)^2; each mean lies within 4 standard errors
        c_grid = [2, 4]
        levels = bias_sweep([2000], c_grid, reps=30, seed=7, p=p)[0]
        for c, (raw, cor) in zip(c_grid, levels[:, :2]):
            a, b = correction_coefficients(c)
            want_raw = 1 + (p + 1) / (c - 1)
            want_cor = a * want_raw - b * (p + 2) * ((c - 1) / c) ** 2
            for got, want in ((raw, want_raw), (cor, want_cor)):
                se = got.std(ddof=1) / np.sqrt(got.size)
                assert abs(got.mean() - want) <= 4 * se, (c, got.mean(), want, se)

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 10])
    def test_levels_bitwise_equal_the_public_api(self, p):
        # Each replicate rebuilt from public calls: its draws, equal-count
        # slices of its noise, lambda_corrected, trace / p and the Frobenius
        # norm of each matrix alone.  401 and 2003 leave a remainder slice at
        # every c here, and c = 5 takes the general slice path at p = 1.
        n_grid, c_grid, reps, seed = [401, 2003], [2, 3, 5], 4, 11
        levels = bias_sweep(n_grid, c_grid, reps=reps, seed=seed, p=p)
        want = np.empty_like(levels)
        eye = np.eye(p)
        for i, n in enumerate(n_grid):
            for r in range(reps):
                x_gen, eps_gen = model_streams(seed, r)
                x, eps = x_gen.standard_normal((n, p)), eps_gen.standard_normal(n)
                for j, c in enumerate(c_grid):
                    stats = slice_stats(x, slice_equal_count(eps, n // c))
                    assert stats.counts[-1] > c  # the remainder slice
                    for k, m in enumerate((stats.cov_square, lambda_corrected(stats))):
                        want[i, j, k, r] = np.trace(m) / p
                        # with axis, norm forms the sum as the engine does;
                        # without it, it takes a BLAS dot
                        want[i, j, k + 2, r] = np.linalg.norm(m - eye, axis=(-2, -1))
        assert levels.tobytes() == want.tobytes()

    def test_degenerate_designs_rejected(self):
        with pytest.raises(InvalidArgument, match=r"^n=100, c=100 gives H=1 < 2 slices$"):
            bias_sweep([100], [100], reps=2)
        with pytest.raises(InvalidArgument, match=r"^empty sweep grid$"):
            bias_sweep([], [4], reps=2)
        with pytest.raises(InvalidArgument, match=r"^c=1 leaves no within-slice pairs$"):
            bias_sweep([100], [1], reps=2)

    def test_p_bounds(self):
        with pytest.raises(InvalidArgument, match=r"^p must be >= 1$"):
            bias_sweep([100], [4], reps=2, p=0)
        levels = bias_sweep([120], [4], reps=2, p=2)
        assert levels.shape == (1, 1, 4, 2)

    @pytest.mark.parametrize(
        "changes, message",
        [
            (dict(n_grid=[400.7]), r"n must be an integer, got 400\.7"),
            (dict(n_grid=[400, 10.0], c_grid=[2, 1]),
             r"c=1 leaves no within-slice pairs"),
            (dict(c_grid=[2, 2.5]), r"c must be an integer, got 2\.5"),
            (dict(c_grid=[True]), r"c must be an integer, got True"),
            (dict(reps=2.0, seed=-1), r"reps must be an integer, got 2\.0"),
            (dict(seed=1.5, p=4), r"seed must be an integer, got 1\.5"),
            (dict(p=1.0), r"p must be an integer, got 1\.0"),
            (dict(p=True), r"p must be an integer, got True"),
        ],
    )
    def test_check_sweep_names_the_first_non_integer_argument(self, changes, message):
        # a non-integer size is rejected, not truncated to the integer below
        sweep = dict(n_grid=[400], c_grid=[2], reps=2, seed=1, p=1)
        sweep.update(changes)
        for check in (simulation.check_sweep, bias_sweep):
            with pytest.raises(UsageError, match=f"^{message}$"):
                check(**sweep)

    def test_numpy_integers_are_integers(self):
        # numpy integers pass the checks and give the levels of Python ints
        levels = bias_sweep(np.array([400]), np.array([2]), reps=np.int64(2),
                            seed=np.int64(1), p=np.int64(1))
        assert np.array_equal(levels, bias_sweep([400], [2], reps=2, seed=1, p=1))
        scores = run_grid([np.int64(1)], [np.int32(2)], n=np.int64(40),
                          reps=np.int64(2), seed=np.uint8(1), p=np.int64(3))
        want = run_grid([1], [2], n=40, reps=2, seed=1, p=3)
        np.testing.assert_array_equal(scores, want)


class TestSweepEngine:
    """One draw and one sort per replicate and n, shared by every c."""

    @pytest.mark.parametrize("p", (1, 2, 3))
    @pytest.mark.parametrize("n", [600, 401])  # 401 % 2 and 401 % 3 != 0
    def test_row_of_cs_bitwise_equal_separate_sweeps(self, p, n):
        # at p = 3 the chunk is 3 replicates and c = 2 slices it in
        # sub-chunks of 2; 7 replicates leave a short last chunk
        levels = bias_sweep([n], [2, 3], reps=7, seed=5, p=p)
        alone = np.concatenate(
            [bias_sweep([n], [2], reps=7, seed=5, p=p),
             bias_sweep([n], [3], reps=7, seed=5, p=p)], axis=1
        )
        assert np.array_equal(levels, alone)
        assert levels.shape == (1, 2, 4, 7)

    @pytest.mark.parametrize("p", (1, 2, 3))
    def test_repeated_and_reordered_cs_are_kept(self, p):
        levels = bias_sweep([401, 1000], [3, 2, 3], reps=5, seed=8, p=p)
        assert levels.shape == (2, 3, 4, 5)
        assert np.array_equal(levels[:, 0], levels[:, 2])
        row = bias_sweep([401], [3, 2, 3], reps=5, seed=8, p=p)
        assert np.array_equal(levels[:1], row)
        cell = bias_sweep([401], [2], reps=5, seed=8, p=p)
        assert np.array_equal(levels[0, 1], cell[0, 0])

    @pytest.mark.parametrize("p", (1, 2, 3))
    def test_later_degenerate_pair_fails_before_any_draw(self, monkeypatch, p):
        drawn = []
        real = simulation._draw

        def counted(streams, out):
            drawn.append(out[1].size)  # n
            return real(streams, out)

        monkeypatch.setattr(simulation, "_draw", counted)
        with pytest.raises(
            InvalidArgument, match=r"^n=10, c=4 gives H=2 slices of 5 points, not 4$"
        ):
            bias_sweep([400, 10], [2, 4], reps=3, p=p)
        with pytest.raises(InvalidArgument, match=r"^c=1 leaves no within-slice pairs$"):
            bias_sweep([400], [2, 1], reps=3, p=p)
        assert drawn == []
        bias_sweep([400], [2, 4], reps=3, p=p)
        assert drawn == [400] * 3  # one draw per replicate for both c

    def test_poisoned_replicate_is_named(self, monkeypatch):
        # chunks of 3 at p = 3, which c = 2 slices in sub-chunks of 2 and 1;
        # replicate 7 sits in the third chunk
        poison_replicate(monkeypatch, 7)
        with pytest.raises(SimulationError, match=r"^replicate 7 failed"):
            bias_sweep([401], [3, 2], reps=10, seed=1, p=3)

    def test_chunk_that_fails_only_whole_names_its_replicates(self, monkeypatch):
        # chunks of 2 at p = 3, c = 2; stats fail on a batch of two replicates
        # but on neither alone, so the error names the whole chunk
        real = slicing._slice_moments

        def batch_only(z, index, plan, buffers):
            if index.shape[0] > 1:
                raise NumericalError("batch of replicates")
            return real(z, index, plan, buffers)

        monkeypatch.setattr(slicing, "_slice_moments", batch_only)
        with pytest.raises(SimulationError,
                           match=r"^replicates 0\.\.1 failed: batch of replicates$"):
            bias_sweep([401], [2], reps=3, seed=1, p=3)


class TestWorkBuffers:
    """Each engine call reuses one set of work buffers for every replicate."""

    @pytest.mark.parametrize("n, p", [(20000, 1), (480, 10), (401, 3)])
    def test_draw_into_buffer_rows_is_bitwise_a_fresh_draw(self, n, p):
        xs, epss = np.empty((3, n, p)), np.empty((3, n))
        for rep in range(3):
            rows = (xs[rep], epss[rep])
            x, eps = simulation._draw(model_streams(11, rep), rows)
            assert x is rows[0] and eps is rows[1]
            fresh = simulation._draw(model_streams(11, rep),
                                     (np.empty((n, p)), np.empty(n)))
            x_gen, eps_gen = model_streams(11, rep)
            for got, want in zip(rows, fresh):
                assert got.tobytes() == want.tobytes()
            assert x.tobytes() == x_gen.standard_normal((n, p)).tobytes()
            assert eps.tobytes() == eps_gen.standard_normal(n).tobytes()

    def test_replicates_share_the_stats_buffers(self, monkeypatch):
        # stats made in an engine's buffers hold until its next slice call
        made = []
        real = slicing._slice_moments

        def kept(*args):
            made.append(real(*args))
            return made[-1]

        monkeypatch.setattr(slicing, "_slice_moments", kept)
        bias_sweep([2003], [2, 3], reps=3, seed=3, p=1)
        assert len(made) == 6
        for stats in made[1:]:
            assert np.shares_memory(stats.covs, made[0].covs)

    def test_sweep_over_growing_and_shrinking_sizes(self):
        n_grid, c_grid = [2003, 401, 2003], [3, 2]
        levels = bias_sweep(n_grid, c_grid, reps=5, seed=3, p=1)
        per_n = np.concatenate([bias_sweep([n], c_grid, reps=5, seed=3, p=1)
                                for n in n_grid])
        per_cell = np.array([
            [bias_sweep([n], [c], reps=5, seed=3, p=1)[0, 0] for c in c_grid]
            for n in n_grid
        ])
        assert levels.tobytes() == per_n.tobytes() == per_cell.tobytes()

    @pytest.mark.parametrize("p", (1, 2, 3))
    def test_sweep_bitwise_equal_with_reduceat_means(self, monkeypatch, p):
        # runs of c <= 4 are summed into views of the shared means buffer;
        # a view that outlived its H or its run would change a row
        grid = dict(n_grid=[2003, 401, 2003], c_grid=[2, 3, 4, 5], reps=3, p=p)
        levels = bias_sweep(**grid)

        def reduceat_moments(z, index, plan, buffers):
            # the engine's gathered rows, in slice order already
            order = np.arange(index.shape[-1])
            bounds = np.append(0, np.cumsum(plan.counts))
            a = slicing.SliceAssignment(order=order, bounds=bounds)
            return reduceat_slice_stats(z[index], a)

        monkeypatch.setattr(slicing, "_slice_moments", reduceat_moments)
        assert levels.tobytes() == bias_sweep(**grid).tobytes()

    def test_engines_slice_through_the_module_globals(self, monkeypatch, capsys):
        # wrapping the names counts these calls: one slice-moments core call
        # per (H, sub-chunk), each response is sorted once for all its H,
        # and each model of a chunk gets one pooled SAVE / CSAVE write and
        # one eigen call, and the grid orthonormalizes e_1 once per call;
        # the sweep makes none of the last three, and neither engine checks
        # the orders that stable_order returns
        calls = {}
        targets = [(slicing, "_slice_moments"), (slicing, "stable_order"),
                   (simulation, "_leading_vectors"), (slicing, "_check_order"),
                   (estimators, "_write_pooled"), (simulation, "_orthonormalize")]
        for module, name in targets:
            real = getattr(module, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        assert main(["sweep", "--mode", "bias", "--n-grid", "20000", "--c-grid", "2,3",
                     "--reps", "10", "--p", "1", "--out", "json"]) == 0
        assert calls == {"_slice_moments": 20, "stable_order": 10}
        calls.clear()
        assert main(["table1", "--reps", "10", "--n", "480", "--out", "json"]) == 0
        assert calls == {"_slice_moments": 25, "stable_order": 5, "_leading_vectors": 5,
                         "_write_pooled": 5, "_orthonormalize": 1}
        capsys.readouterr()
        calls.clear()
        # three chunks of 10, 10 and 5 replicates, each sliced whole at H = 6
        run_grid([2, 5], [6], 60, 25, seed=4, methods=("csave", "sir"))
        assert calls == {"_slice_moments": 6, "stable_order": 6, "_leading_vectors": 6,
                         "_write_pooled": 6, "_orthonormalize": 1}

    def test_a_key_order_that_is_no_permutation_falls_back(self, monkeypatch):
        # the engines trust stable_order's result: a key sort that repeats
        # an index is not strictly rising, so stable_order falls back to
        # the stable argsort and every result keeps its bits
        def sweep():
            return bias_sweep([401], [2, 3], reps=3, seed=3, p=1).tobytes()

        def grid():
            return run_grid([1], (2, 24), 120, 3, seed=3)

        want = sweep(), grid()
        real = slicing._key_order
        repeated = []

        def repeating(y, key):
            order = real(y, key)
            order[..., 0] = order[..., 1]
            repeated.append(y.shape)
            return order

        monkeypatch.setattr(slicing, "_key_order", repeating)
        assert sweep() == want[0]
        np.testing.assert_array_equal(grid(), want[1])
        assert repeated == [(1, 401)] * 3 + [(3, 120)]  # sweep chunks of 1, grid of 3

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="counts Linux minor page faults"
    )
    def test_replicates_do_not_fault_the_heap_again(self):
        # Fresh n-length arrays per replicate, freed at its end, let the
        # allocator hand the heap top back to the kernel and fault it in
        # again: about 210 faults per replicate here.
        resource = pytest.importorskip("resource")

        def faults(reps):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            bias_sweep([20000], [2, 3], reps=reps, p=1)
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

        faults(2)  # first-call allocations stay out of the measurement
        per_replicate = min((faults(12) - faults(2)) / 10 for _ in range(3))
        assert per_replicate <= 20, per_replicate


def oracle_scores(cell):
    """R^2 of each method's leading direction in a one-cell grid, one
    replicate at a time, through the unbatched (2-d) calls of every stage."""
    scores = {m: [] for m in METHODS}
    for rep in range(cell["reps"]):
        x, y = model_data(cell["model"], cell["n"], model_streams(cell["seed"], rep))
        if cell["standardize"]:
            z, back = standardize(x)
        else:
            z, back = x, None
        stats = slice_stats(z, slice_equal_count(y, cell["H"]))
        for method in METHODS:
            lead = sym_eig(candidate_matrix(method, stats)).vectors[:, 0]
            if back is not None:
                lead = back @ lead
            scores[method].append(r2_single(lead, E1[:, None]))
    return scores


def fixed_chunk(monkeypatch, size):
    monkeypatch.setattr(simulation, "_chunk_size", lambda n, p, H: size)


def poison_replicate(monkeypatch, rep):
    """Make the rep-th draw carry a NaN predictor."""
    real = simulation._draw
    drawn = []

    def poisoned(streams, out):
        x, eps = real(streams, out)
        drawn.append(len(drawn))
        if drawn[-1] == rep:
            x[11, 2] = np.nan
        return x, eps

    monkeypatch.setattr(simulation, "_draw", poisoned)


def assert_stats_bytes_equal(got, want):
    """Every field of two SliceStats holds the same shape, dtype and bytes."""
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert a.shape == b.shape and a.dtype == b.dtype, field.name
        assert a.tobytes() == b.tobytes(), field.name


class TestEngineSliceMoments:
    """The engines' slice moments (one sort per chunk, one plan per H, the
    core on the chunk's flat index) are the public ``slice_stats`` of each
    part, byte for byte."""

    @pytest.mark.parametrize("p", (1, 2, 3, 10))
    @pytest.mark.parametrize("n, h_grid", [
        (487, [487 // c for c in (2, 3, 4, 5)]),    # p = 1: flat runs of c <= 4,
        (2003, [2003 // c for c in (2, 3, 4, 5)]),  # reduceat at c = 5 and p > 1
        (480, [96, 24]),  # chunks of 10 at p = 10, which H = 96 splits in two
    ])
    def test_parts_equal_public_slice_stats(self, p, n, h_grid):
        rng = np.random.default_rng(n + p)
        sizes = [simulation._chunk_size(n, p, H) for H in h_grid]
        slicings = slicing._SliceGrid(n, h_grid, sizes)
        chunk = slicings.chunk
        z, y = rng.standard_normal((chunk, n, p)), rng.standard_normal((chunk, n))
        parts = []
        for i, part, stats in slicings.moments(z, y, slicing._Buffers()):
            want = slice_stats(z[part], slice_equal_count(y[part], h_grid[i]))
            assert_stats_bytes_equal(stats, want)
            parts.append((i, part.indices(chunk)))
        assert parts == [(i, (lo, min(lo + size, chunk), 1))
                         for i, size in enumerate(sizes)
                         for lo in range(0, chunk, size)]

    def test_tied_responses_take_the_stable_sort_in_both_engines(self, monkeypatch):
        # noise rounded to one decimal ties every sweep response and puts
        # +-0.0 ties into model 3's u * eps, so each chunk's sort falls back
        # to the stable argsort; the parts still equal the public path
        real_draw, real_moments = simulation._draw, slicing._SliceGrid.moments
        checked = []

        def tied(streams, out):
            x, eps = real_draw(streams, out)
            np.round(eps, 1, out=eps)
            return x, eps

        def checking(slicings, z, y, buffers):
            assert not (np.diff(np.sort(y, axis=-1)) > 0).all()
            for i, part, stats in real_moments(slicings, z, y, buffers):
                H = slicings.plans[i].counts.size
                assert_stats_bytes_equal(
                    stats, slice_stats(z[part], slice_equal_count(y[part], H))
                )
                checked.append(H)
                yield i, part, stats

        monkeypatch.setattr(simulation, "_draw", tied)
        monkeypatch.setattr(slicing._SliceGrid, "moments", checking)
        bias_sweep([401], [2, 3], reps=3, seed=3, p=2)
        assert checked == [200, 133] * 2  # chunks of 2 and 1
        checked.clear()
        run_grid([3], [6, 24], 120, 7, seed=3)
        assert checked == [6, 24, 24]  # one chunk of 7; H = 24 in parts of 5


    @pytest.mark.parametrize("engine", [
        lambda: run_grid([1, 3], (2, 24), 120, 5, seed=2),
        lambda: bias_sweep([401], [2, 3], reps=5, seed=2, p=3),
    ], ids=["run_grid", "bias_sweep"])
    def test_non_finite_z_fails_its_replicate(self, monkeypatch, engine):
        # each chunk's z is checked once, before it is sliced at any H; the
        # replicate that fails alone is named, with the check's error as cause
        poison_replicate(monkeypatch, 2)
        with pytest.raises(SimulationError) as raised:
            engine()
        assert str(raised.value) == "replicate 2 failed: z has non-finite entries"
        assert isinstance(raised.value.__cause__, NumericalError)


class TestChunkedEngine:
    @pytest.mark.parametrize("model_id", simulation.MODEL_IDS)
    @pytest.mark.parametrize(
        "n, H, standardize",
        [(480, 24, False), (203, 7, False), (487, 96, True)],
    )
    def test_matches_per_replicate_oracle(self, model_id, n, H, standardize):
        cell = dict(model=model_id, H=H, n=n, reps=7, seed=model_id,
                    standardize=standardize)
        scores = one_cell(**cell)
        for method, want in oracle_scores(cell).items():
            np.testing.assert_allclose(
                scores[METHODS.index(method)], want, rtol=0, atol=1e-12
            )

    def test_chunk_size_follows_the_shapes(self):
        assert simulation._chunk_size(480, 10, 96) == 5
        assert simulation._chunk_size(480, 10, 24) == 10
        assert simulation._chunk_size(20000, 1, 10000) == 1
        assert simulation._chunk_size(3, 10, 2) == 1

    @pytest.mark.parametrize("standardize", [False, True])
    def test_scores_bitwise_equal_across_chunk_sizes(self, monkeypatch, standardize):
        cell = dict(model=4, H=6, n=203, reps=9, seed=5, standardize=standardize)
        runs = []
        for size in (1, cell["reps"]):
            fixed_chunk(monkeypatch, size)
            runs.append(one_cell(**cell))
        np.testing.assert_array_equal(runs[0], runs[1])
        monkeypatch.undo()
        # derived chunk size, 6 here
        np.testing.assert_array_equal(runs[0], one_cell(**cell))

    def test_sweep_rows_bitwise_equal_across_chunk_sizes(self, monkeypatch):
        # p = 3, 4 and 10, and p = 1 at an n with a remainder, whose
        # one-replicate chunks (the derived size) pass views of the draws,
        # not stacked copies
        for p, n_grid, c_grid in ((3, [401, 1000], [2, 4]), (4, [401, 1000], [2, 4]),
                                  (10, [401, 1000], [2, 4]), (1, [2003], [2, 3])):
            levels = []
            for size in (1, 7):
                fixed_chunk(monkeypatch, size)
                levels.append(bias_sweep(n_grid, c_grid, reps=7, seed=3, p=p))
            assert np.array_equal(levels[0], levels[1])
            assert levels[0].tobytes() == levels[1].tobytes()
        monkeypatch.undo()
        assert simulation._chunk_size(2003, 1, 2003 // 3) == 1
        assert (bias_sweep([2003], [2, 3], reps=7, seed=3, p=1).tobytes()
                == levels[0].tobytes())

    def test_poisoned_replicate_in_later_chunk_is_named(self, monkeypatch):
        # replicate 7 sits in the third chunk of 3; its x carries a NaN
        fixed_chunk(monkeypatch, 3)
        poison_replicate(monkeypatch, 7)
        with pytest.raises(SimulationError, match=r"^replicate 7 failed"):
            one_cell(1, 6, n=120, reps=10, seed=2)

    @pytest.mark.parametrize("H", [24, 96])
    def test_traced_peak_of_one_cell_is_bounded(self, H):
        # One chunk holds two (chunk, n, p) stacks, the drawn data and its
        # slice-order copy, and two (chunk, H, p, p) stacks, the slice
        # covariances and one temporary of their size.  Materializing the
        # (n, p, p) outer products of a chunk, or keeping several covariance
        # stacks alive, goes past 1.25 times that budget.
        n, p, reps = 480, 10, 10
        chunk = simulation._chunk_size(n, p, H)
        budget = 8 * chunk * (2 * n * p + 2 * H * p * p)
        peak = traced_peak(lambda: one_cell(1, H, n=n, reps=reps, seed=3, p=p))
        assert peak <= 1.25 * budget, (peak, budget)


class TestGridEngine:
    MODELS = list(simulation.MODEL_IDS)

    @pytest.mark.parametrize("standardize", [False, True])
    def test_cells_bitwise_equal_standalone_runs(self, standardize):
        # n=487 leaves a remainder in the last slice at every H; 12
        # replicates make a full chunk of 10 and a short one, and H=96
        # slices each in sub-chunks of 5
        h_grid = (2, 7, 96)
        scores = run_grid(self.MODELS, h_grid, 487, 12, seed=4,
                          standardize=standardize)
        assert scores.shape == (len(self.MODELS), len(h_grid), len(METHODS), 12)
        for i, model in enumerate(self.MODELS):
            for j, H in enumerate(h_grid):
                alone = one_cell(model, H, n=487, reps=12, seed=4,
                                 standardize=standardize)
                np.testing.assert_array_equal(scores[i, j], alone)

    @pytest.mark.parametrize("standardize", [False, True])
    def test_scores_bitwise_equal_across_chunk_sizes(self, monkeypatch, standardize):
        args = (self.MODELS[2:4], (2, 24, 96), 480, 11)
        want = run_grid(*args, seed=6, standardize=standardize)
        for size in (1, 11):
            fixed_chunk(monkeypatch, size)
            got = run_grid(*args, seed=6, standardize=standardize)
            np.testing.assert_array_equal(got, want)

    def test_repeated_and_reordered_cells_are_kept(self):
        scores = run_grid([1, 1], (2, 2), 120, 4, seed=9)
        assert scores.shape == (2, 2, len(METHODS), 4)
        for cell in scores.reshape(4, len(METHODS), 4)[1:]:
            np.testing.assert_array_equal(cell, scores[0, 0])
        swapped = run_grid([3, 1], (96, 2), 480, 3, seed=9)
        ordered = run_grid([1, 3], (2, 96), 480, 3, seed=9)
        assert swapped.shape == (2, 2, len(METHODS), 3)
        np.testing.assert_array_equal(swapped, ordered[::-1, ::-1])

    def test_model_subsets_equal_their_rows_of_the_full_grid(self):
        # models 1 and 4 share one u ** 3 per chunk, SAVE and CSAVE one
        # I - 2M per slicing: neither may depend on which models or methods
        # run, or in which order
        args = ((2, 6, 24, 96), 480, 11)
        full = run_grid(self.MODELS, *args, seed=8)
        for models in ([1, 4], [4, 1], [2, 5], [1]):
            got = run_grid(models, *args, seed=8)
            assert got.tobytes() == full[[m - 1 for m in models]].tobytes(), models
        methods = ("csave", "sir")
        got = run_grid([4, 1], *args, seed=8, methods=methods)
        want = full[[3, 0]][:, :, [METHODS.index(m) for m in methods]]
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("models, powers", [
        ([1, 2, 3, 4, 5], [3]),
        ([4, 1], [3]),
        ([2, 5], []),  # model 2 alone squares u, so no square is kept
        ([3], []),
    ])
    def test_each_power_is_formed_once_per_chunk(self, monkeypatch, models, powers):
        formed, real = [], simulation._Powers.__missing__

        def recording(self, k):
            formed.append(k)
            return real(self, k)

        monkeypatch.setattr(simulation._Powers, "__missing__", recording)
        run_grid(models, (2, 24), 120, 12, seed=1)  # chunks of 10 and 2
        assert formed == powers * 2

    def test_z_is_checked_once_per_chunk_for_every_model(self, monkeypatch):
        checked, real = [], slicing._check_finite

        def counting(z):
            checked.append(z.shape)
            real(z)

        monkeypatch.setattr(slicing, "_check_finite", counting)
        run_grid(self.MODELS, (2, 24), 120, 12, seed=1)
        assert checked == [(10, 120, 10), (2, 120, 10)]

    @pytest.mark.parametrize("reps", [1, 2, 3, 7, 10, 11])
    def test_summaries_equal_per_cell_statistics(self, reps):
        # medians and quartiles come from one call over the whole score
        # array, as the CLI takes them; each must be bitwise what numpy
        # gives on the cell's own values
        scores = run_grid(self.MODELS, (2, 24), 120, reps, seed=reps)
        assert scores.shape == (len(self.MODELS), 2, len(METHODS), reps)
        median, q1, q3, lo, hi = simulation.order_stats(scores)
        for cell in np.ndindex(scores.shape[:-1]):
            v = scores[cell]
            assert median[cell] == float(np.median(v))
            assert q1[cell] == float(np.quantile(v, 0.25))
            assert q3[cell] == float(np.quantile(v, 0.75))
            assert (lo[cell], hi[cell]) == (v.min(), v.max())

    @pytest.mark.parametrize("n, standardize", [(480, False), (487, True)])
    def test_scores_keep_the_bits_of_sym_eig(self, n, standardize, monkeypatch):
        def scores():
            return run_grid(self.MODELS, (2, 6, 24, 96), n, 10, seed=5,
                            standardize=standardize)

        got = scores()
        monkeypatch.setattr(simulation, "_leading_vectors",
                            lambda m: sym_eig(m).vectors[..., 0])
        np.testing.assert_array_equal(got.view(np.int64), scores().view(np.int64))

    @pytest.mark.parametrize("bad, message", [
        ("nan", "matrix has non-finite entries"),
        ("asymmetric", "matrix is not symmetric within tolerance"),
    ], ids=["nan", "asymmetric"])
    def test_bad_candidates_are_invalid_matrices(self, bad, message, monkeypatch):
        real = simulation._write_candidates

        def poisoned(methods, parts, coefficients, out):
            real(methods, parts, coefficients, out)
            if bad == "nan":
                out[..., 0, 0] = np.nan
            else:
                out[..., 0, 1] += 1e-3

        monkeypatch.setattr(simulation, "_write_candidates", poisoned)
        with pytest.raises(SimulationError,
                           match=f"^replicate 0 failed: {message}$") as info:
            run_grid([1], (2, 6), 60, 3, seed=3)
        assert type(info.value.__cause__) is NumericalError
        assert str(info.value.__cause__) == message

    def test_bug_in_a_replicate_propagates_unwrapped(self, monkeypatch):
        # only a slicesdr error is a failed replicate; any other exception
        # is a bug and keeps its class, so the CLI ends with its traceback
        def broken(methods, parts, coefficients, out):
            raise IndexError("bug in candidate code")

        monkeypatch.setattr(simulation, "_write_candidates", broken)
        with pytest.raises(IndexError, match="^bug in candidate code$"):
            run_grid([1], (2,), 40, 2)
        with pytest.raises(IndexError, match="^bug in candidate code$"):
            main(["simulate", "--model", "1", "--n", "40", "--reps", "2"])

    def test_invalid_grids_rejected(self):
        with pytest.raises(InvalidArgument, match="^empty model or H grid$"):
            run_grid([], (2,), 40, 2)
        with pytest.raises(InvalidArgument, match="^empty model or H grid$"):
            run_grid(self.MODELS, (), 40, 2)
        with pytest.raises(InvalidArgument, match="n=40 too small for H=21"):
            run_grid(self.MODELS, (2, 21), 40, 2)

    @pytest.mark.parametrize(
        "changes, message",
        [
            (dict(models=[1, 6], p=0), r"model id must be in \(1, 2, 3, 4, 5\), got 6"),
            (dict(models=[], p=0), r"p must be >= 1"),
            (dict(h_grid=[], reps=0), r"empty model or H grid"),
            (dict(h_grid=[1, 2], reps=0), r"H must be >= 2, got 1"),
            (dict(reps=0, seed=-1), r"reps must be >= 1"),
            (dict(h_grid=[300, 2], seed=-1), r"n=480 too small for H=300"),
            (dict(seed=-1, methods=()), r"seed must be non-negative"),
            (dict(methods=("save", "pca"), n=10, standardize=True),
             r"unknown methods \['pca'\]; valid: \('save', 'sir', 'csave'\)"),
            (dict(methods=(), n=10, standardize=True), r"need at least one method"),
            (dict(methods=("sir", "sir"), n=10, standardize=True),
             r"repeated methods \['sir'\]; name each once"),
            (dict(n=10, standardize=True), r"need n > p to standardize, got n=10, p=10"),
            (dict(methods={"sir"}, n=10, standardize=True),
             r"methods must be a list or tuple, got set"),
            (dict(methods="sir", n=10, standardize=True),
             r"methods must be a list or tuple, got str"),
            (dict(h_grid=[2, 1], reps=0), r"H must be >= 2, got 1"),
            (dict(h_grid=[2, 300], seed=-1), r"n=480 too small for H=300"),
            (dict(models=[1.0], p=0), r"model id must be an integer, got 1\.0"),
            (dict(models=[1, True]), r"model id must be an integer, got True"),
            (dict(p=10.0, n=480.5), r"p must be an integer, got 10\.0"),
            (dict(p=np.True_), r"p must be an integer, got np\.True_"),
            (dict(n=480.5, h_grid=[]), r"n must be an integer, got 480\.5"),
            (dict(h_grid=[2, 4.0], reps=0), r"H must be an integer, got 4\.0"),
            (dict(reps=2.0, seed=-1), r"reps must be an integer, got 2\.0"),
            (dict(seed=1.5, methods=()), r"seed must be an integer, got 1\.5"),
            (dict(seed="1"), r"seed must be an integer, got '1'"),
        ],
    )
    def test_check_grid_names_the_first_invalid_argument(self, changes, message):
        # model ids, then p, then n and the grid, then each H in turn, then
        # the arguments that do not depend on H, each checked once; every
        # size and id must be an int or a numpy integer, and a bool is none
        grid = dict(models=[1, 3], h_grid=[2, 4], n=480, reps=2, seed=1,
                    methods=METHODS, standardize=False, p=10)
        grid.update(changes)
        for check in (simulation.check_grid, run_grid):
            with pytest.raises(UsageError, match=f"^{message}$"):
                check(**grid)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--H", "2,6,0"], "H must be >= 2, got 0"),
            (["--H", "2,300"], "n=480 too small for H=300"),
            (["--H", "2,4", "--n", "10", "--standardize"],
             "need n > p to standardize, got n=10, p=10"),
        ],
    )
    def test_invalid_later_cell_fails_before_any_draw(self, flags, message,
                                                      monkeypatch, capsys):
        drawn = []
        real = simulation._draw

        def counted(streams, out):
            drawn.append(out[1].size)  # n
            return real(streams, out)

        monkeypatch.setattr(simulation, "_draw", counted)
        table1 = ["table1", "--models", "1,3", "--reps", "2", "--out", "json"]
        assert main(table1 + flags) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert drawn == []
        assert main(table1 + ["--H", "2,6", "--n", "60"]) == 0
        capsys.readouterr()
        assert drawn == [60] * 2  # one draw per replicate for every cell

    def test_poisoned_replicate_in_later_grid_chunk_is_named(self, monkeypatch):
        # chunks of 10 at n=480; replicate 13 sits in the second, and its
        # sub-chunks of 5 at H=96 put it in the third H=96 stack
        poison_replicate(monkeypatch, 13)
        with pytest.raises(SimulationError, match=r"^replicate 13 failed"):
            run_grid(self.MODELS[:2], (2, 96), 480, 20, seed=2)

    def test_traced_peak_of_one_grid_chunk_is_bounded(self):
        # One chunk of the default grid holds the drawn (chunk, n, p) data
        # and, while one H is sliced, the slice-order copy of its sub-chunk
        # and two covariance stacks of that sub-chunk; then one model's
        # (H, methods, chunk, p, p) candidate stack and the eigen
        # temporaries of about four copies of it.  Stacking every model's
        # candidates into one eigen call goes past 1.25 times that budget.
        n, p, h_grid = 480, 10, (2, 6, 24, 96)
        sizes = [simulation._chunk_size(n, p, H) for H in h_grid]
        chunk = max(sizes)
        slice_bytes = max(s * (n * p + 2 * H * p * p) for s, H in zip(sizes, h_grid))
        cand_bytes = len(h_grid) * len(METHODS) * chunk * p * p
        budget = 8 * (chunk * n * p + slice_bytes + 5 * cand_bytes)
        args = (self.MODELS, h_grid, n, chunk)
        peak = traced_peak(lambda: run_grid(*args, seed=3))
        assert peak <= 1.25 * budget, (peak, budget)
