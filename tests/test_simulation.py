"""Monte Carlo harness tests: determinism, substreams, model generators,
and the chunked replicate engine against a per-replicate oracle."""

import dataclasses
import sys

import numpy as np
import pytest

from slicesdr import (
    METHODS,
    ModelSpec,
    RngStreams,
    SimConfig,
    bias_sweep,
    candidate_matrix,
    model_streams,
    r2_single,
    run_grid,
    run_mc,
    slice_equal_count,
    slice_stats,
    standardize,
    sym_eig,
)
from slicesdr import simulation, slicing
from slicesdr.cli import main
from slicesdr.data import Dataset
from slicesdr.errors import (
    DegenerateDesign,
    InvalidArgument,
    InvalidMatrix,
    SimulationError,
    SingularCovariance,
)
from conftest import traced_peak
from test_slicing import reduceat_slice_stats


def model_data(spec, n, streams):
    """One dataset of a benchmark model: the engines' draw and response."""
    x, eps = simulation._draw(n, spec.p, streams)
    return Dataset(x=x, y=simulation._RESPONSES[spec.id](x @ spec.beta, eps))


class _ZeroStream:
    """Noise stub: standard_normal always returns zeros."""

    def standard_normal(self, out):
        return np.zeros(out.shape)


class TestGenerators:
    def test_fixed_seed_bit_identical(self):
        spec = ModelSpec(id=2)
        d1 = model_data(spec, 100, model_streams(42, 3))
        d2 = model_data(spec, 100, model_streams(42, 3))
        np.testing.assert_array_equal(d1.x, d2.x)
        np.testing.assert_array_equal(d1.y, d2.y)

    def test_distinct_replicates_differ(self):
        spec = ModelSpec(id=1)
        d1 = model_data(spec, 50, model_streams(42, 0))
        d2 = model_data(spec, 50, model_streams(42, 1))
        assert not np.array_equal(d1.x, d2.x)

    def test_x_and_eps_streams_independent_roles(self):
        s = model_streams(7, 0)
        t = model_streams(7, 0)
        assert not np.array_equal(
            s.x.standard_normal(10), t.eps.standard_normal(10)
        )

    def test_multiplicative_model_with_zero_noise(self):
        spec = ModelSpec(id=3)
        streams = RngStreams(
            x=model_streams(1, 0).x, eps=_ZeroStream()
        )
        d = model_data(spec, 64, streams)
        np.testing.assert_array_equal(d.y, np.zeros(64))

    def test_cubic_model_dominates_noise(self):
        # Var(u^3) = 15 against unit noise: corr(y, u^3) = sqrt(15/16) > 0.9
        spec = ModelSpec(id=1)
        d = model_data(spec, 100_000, model_streams(5, 0))
        u3 = d.x[:, 0] ** 3
        corr = np.corrcoef(d.y, u3)[0, 1]
        assert corr > 0.9

    def test_model_formulas(self):
        streams = model_streams(11, 2)
        x = streams.x.standard_normal((30, 10))
        eps = streams.eps.standard_normal(30)
        u = x[:, 0]
        expected = {
            1: u ** 3 + eps,
            2: u ** 2 + eps,
            3: u * eps,
            4: u ** 3 + u * eps,
            5: np.cos(u) + eps,
        }
        for mid, want in expected.items():
            d = model_data(ModelSpec(id=mid), 30, RngStreams(_Replay(x), _Replay(eps)))
            np.testing.assert_allclose(d.y, want, atol=0)

    def test_model_spec_validation(self):
        with pytest.raises(InvalidArgument):
            ModelSpec(id=6)


class _Replay:
    """Returns a pre-recorded array (test hook for checking model formulas)."""

    def __init__(self, value):
        self.value = value

    def standard_normal(self, out):
        return self.value


class TestRunMc:
    def cfg(self, **kw):
        base = dict(
            model=ModelSpec(id=2, p=4),
            n=80,
            H=4,
            reps=6,
            seed=99,
        )
        base.update(kw)
        return SimConfig(**base)

    def test_report_determinism(self):
        r1 = run_mc(self.cfg())
        r2 = run_mc(self.cfg())
        for m in METHODS:
            np.testing.assert_array_equal(
                r1.summaries[m].values, r2.summaries[m].values
            )
            assert r1.summaries[m].median == r2.summaries[m].median

    def test_substream_independence(self):
        # replicate r's score is the same whether reps=3 or reps=6 run
        r_small = run_mc(self.cfg(reps=3))
        r_big = run_mc(self.cfg(reps=6))
        for m in METHODS:
            np.testing.assert_array_equal(
                r_small.summaries[m].values, r_big.summaries[m].values[:3]
            )

    def test_reps_one(self):
        r = run_mc(self.cfg(reps=1))
        s = r.summaries["save"]
        assert s.values.size == 1
        assert s.median == s.min == s.max

    def test_method_subset(self):
        r = run_mc(self.cfg(methods=("sir",)))
        assert set(r.summaries) == {"sir"}

    def test_standardized_and_raw_paths_close(self):
        raw = run_mc(self.cfg(n=400, reps=4, standardize=False))
        std = run_mc(self.cfg(n=400, reps=4, standardize=True))
        for m in METHODS:
            assert abs(raw.summaries[m].median - std.summaries[m].median) < 0.5

    def test_scores_in_unit_interval(self):
        r = run_mc(self.cfg())
        for m in METHODS:
            v = r.summaries[m].values
            assert np.all(v >= -1e-12) and np.all(v <= 1.0 + 1e-12)

    def test_replicate_failure_carries_index(self, monkeypatch):
        # collinear predictors make standardization fail inside the stacked
        # pass; the error names replicate 0
        real = simulation._draw

        def collinear(n, p, streams, out):
            x, eps = real(n, p, streams, out)
            x[:, 1] = x[:, 0]
            return x, eps

        monkeypatch.setattr(simulation, "_draw", collinear)
        cfg = SimConfig(
            model=ModelSpec(id=1, p=4), n=62, H=31, reps=2, seed=1,
            standardize=True,
        )
        with pytest.raises(SimulationError, match="^replicate 0 failed"):
            run_mc(cfg)

    def test_failure_past_the_first_chunk_names_its_replicate(self, monkeypatch):
        # chunks of 4 at n = 62, p = 4 (H = 2), which H = 31 scores in
        # sub-chunks of 2; only replicate 5, in the second chunk, is collinear
        assert simulation._chunk_size(62, 4, 2) == 4
        real = simulation._draw
        drawn = []

        def collinear_fifth(n, p, streams, out):
            x, eps = real(n, p, streams, out)
            drawn.append(len(drawn))
            if drawn[-1] == 5:
                x[:, 1] = x[:, 0]
            return x, eps

        monkeypatch.setattr(simulation, "_draw", collinear_fifth)
        with pytest.raises(SimulationError, match="^replicate 5 failed") as info:
            run_grid(
                [ModelSpec(id=1, p=4)], [2, 31], n=62, reps=6, seed=1,
                standardize=True,
            )
        assert isinstance(info.value.__cause__, SingularCovariance)

    def test_config_validation(self):
        with pytest.raises(InvalidArgument, match="need n > p to standardize"):
            self.cfg(model=ModelSpec(id=1, p=70), n=62, H=31, standardize=True)
        with pytest.raises(InvalidArgument):
            self.cfg(n=6, H=4)
        with pytest.raises(InvalidArgument):
            self.cfg(reps=0)
        with pytest.raises(InvalidArgument):
            self.cfg(methods=("save", "pca"))
        with pytest.raises(InvalidArgument, match=r"^repeated methods \['save'\]"):
            self.cfg(methods=("save", "sir", "save"))
        with pytest.raises(InvalidArgument):
            self.cfg(seed=-1)


class TestBiasSweep:
    def test_row_shape_and_determinism(self):
        rows = bias_sweep([400], [4], reps=5, seed=3)
        assert len(rows) == 1
        r = rows[0]
        assert (r.n, r.c, r.H, r.reps) == (400, 4, 100, 5)
        rows2 = bias_sweep([400], [4], reps=5, seed=3)
        assert rows == rows2

    def test_null_levels_match_exact_theory(self):
        # E[raw] = 1 + 2/(c-1), E[corrected] = (c^3(c+1) - 3(c-1)^3) /
        # (c^2((c-1)^2+1)); both verified to ~2 decimals at modest reps
        rows = bias_sweep([2000], [4], reps=30, seed=7)
        r = rows[0]
        assert r.mean_lambda_raw == pytest.approx(1 + 2 / 3, abs=0.08)
        assert r.mean_lambda_corrected == pytest.approx(239 / 160, abs=0.08)

    def test_degenerate_designs_rejected(self):
        with pytest.raises(DegenerateDesign):
            bias_sweep([100], [100], reps=2)  # H = 1
        with pytest.raises(DegenerateDesign):
            bias_sweep([], [4], reps=2)
        with pytest.raises(DegenerateDesign):
            bias_sweep([100], [1], reps=2)

    def test_p_bounds(self):
        with pytest.raises(InvalidArgument):
            bias_sweep([100], [4], reps=2, p=4)
        rows = bias_sweep([120], [4], reps=2, p=2)
        assert rows[0].H == 30


class TestSweepEngine:
    """One draw and one sort per replicate and n, shared by every c."""

    @pytest.mark.parametrize("p", simulation.SWEEP_P)
    @pytest.mark.parametrize("n", [600, 401])  # 401 % 2 and 401 % 3 != 0
    def test_row_of_cs_bitwise_equal_separate_sweeps(self, p, n):
        # at p = 3 the chunk is 3 replicates and c = 2 slices it in
        # sub-chunks of 2; 7 replicates leave a short last chunk
        rows = bias_sweep([n], [2, 3], reps=7, seed=5, p=p)
        alone = bias_sweep([n], [2], reps=7, seed=5, p=p) + bias_sweep(
            [n], [3], reps=7, seed=5, p=p
        )
        assert rows == alone
        assert [(r.n, r.c, r.H) for r in rows] == [(n, 2, n // 2), (n, 3, n // 3)]

    @pytest.mark.parametrize("p", simulation.SWEEP_P)
    def test_repeated_and_reordered_cs_are_kept(self, p):
        rows = bias_sweep([401, 1000], [3, 2, 3], reps=5, seed=8, p=p)
        assert [(r.n, r.c) for r in rows] == [
            (401, 3), (401, 2), (401, 3), (1000, 3), (1000, 2), (1000, 3)
        ]
        assert rows[0] == rows[2] and rows[3] == rows[5]
        assert rows[:3] == bias_sweep([401], [3, 2, 3], reps=5, seed=8, p=p)
        assert rows[1] == bias_sweep([401], [2], reps=5, seed=8, p=p)[0]

    @pytest.mark.parametrize("p", simulation.SWEEP_P)
    def test_later_degenerate_pair_fails_before_any_draw(self, monkeypatch, p):
        drawn = []
        real = simulation._draw

        def counted(n, p, streams, out):
            drawn.append(n)
            return real(n, p, streams, out)

        monkeypatch.setattr(simulation, "_draw", counted)
        with pytest.raises(
            DegenerateDesign, match=r"^n=10, c=4 gives H=2 slices of 5 points, not 4$"
        ):
            bias_sweep([400, 10], [2, 4], reps=3, p=p)
        with pytest.raises(DegenerateDesign, match=r"^c=1 leaves no within-slice pairs$"):
            bias_sweep([400], [2, 1], reps=3, p=p)
        assert drawn == []
        bias_sweep([400], [2, 4], reps=3, p=p)
        assert drawn == [400] * 3  # one draw per replicate for both c

    def test_failing_draw_is_named(self, monkeypatch):
        real = simulation._draw
        drawn = []

        def failing(n, p, streams, out):
            drawn.append(n)
            if len(drawn) == 5:
                raise RuntimeError("stream exhausted")
            return real(n, p, streams, out)

        monkeypatch.setattr(simulation, "_draw", failing)
        with pytest.raises(SimulationError, match=r"^replicate 4 failed: stream exhausted"):
            bias_sweep([401], [2, 3], reps=8, seed=1, p=3)

    def test_poisoned_replicate_is_named(self, monkeypatch):
        # chunks of 3 at p = 3, which c = 2 slices in sub-chunks of 2 and 1;
        # replicate 7 sits in the third chunk
        poison_replicate(monkeypatch, 7)
        with pytest.raises(SimulationError, match=r"^replicate 7 failed"):
            bias_sweep([401], [3, 2], reps=10, seed=1, p=3)


class TestWorkBuffers:
    """Each engine call reuses one set of work buffers for every replicate."""

    @pytest.mark.parametrize("n, p", [(20000, 1), (480, 10), (401, 3)])
    def test_draw_into_buffer_rows_is_bitwise_a_fresh_draw(self, n, p):
        xs, epss = np.empty((3, n, p)), np.empty((3, n))
        for rep in range(3):
            rows = (xs[rep], epss[rep])
            x, eps = simulation._draw(n, p, model_streams(11, rep), rows)
            assert x is rows[0] and eps is rows[1]
            fresh = simulation._draw(n, p, model_streams(11, rep))
            streams = model_streams(11, rep)
            for got, want in zip(rows, fresh):
                assert got.tobytes() == want.tobytes()
            assert x.tobytes() == streams.x.standard_normal((n, p)).tobytes()
            assert eps.tobytes() == streams.eps.standard_normal(n).tobytes()

    def test_replicates_share_the_stats_buffers(self, monkeypatch):
        # stats made in an engine's buffers hold until its next slice call
        made = []
        real = simulation.slice_stats

        def kept(*args, **kwargs):
            made.append(real(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(simulation, "slice_stats", kept)
        bias_sweep([2003], [2, 3], reps=3, seed=3, p=1)
        assert len(made) == 6
        for stats in made[1:]:
            assert np.shares_memory(stats.covs, made[0].covs)

    def test_sweep_over_growing_and_shrinking_sizes(self):
        n_grid, c_grid = [2003, 401, 2003], [3, 2]
        rows = bias_sweep(n_grid, c_grid, reps=5, seed=3, p=1)
        per_n = [
            r for n in n_grid for r in bias_sweep([n], c_grid, reps=5, seed=3, p=1)
        ]
        per_cell = [
            bias_sweep([n], [c], reps=5, seed=3, p=1)[0] for n in n_grid for c in c_grid
        ]
        assert row_bytes(rows) == row_bytes(per_n) == row_bytes(per_cell)

    @pytest.mark.parametrize("p", simulation.SWEEP_P)
    def test_sweep_bitwise_equal_with_reduceat_means(self, monkeypatch, p):
        # runs of c <= 4 are summed into views of the shared means buffer;
        # a view that outlived its H or its run would change a row
        grid = dict(n_grid=[2003, 401, 2003], c_grid=[2, 3, 4, 5], reps=3, p=p)
        rows = bias_sweep(**grid)
        monkeypatch.setattr(simulation, "slice_stats", reduceat_slice_stats)
        assert row_bytes(rows) == row_bytes(bias_sweep(**grid))

    def test_engines_slice_through_the_module_globals(self, monkeypatch, capsys):
        # the benchmark tracer counts these calls by wrapping the names;
        # each sorted order gets one full permutation check for all its H,
        # and each model one eigen call; the sweep makes none
        calls = {}
        targets = [(simulation, "slice_stats"), (simulation, "stable_order"),
                   (simulation, "_check_order"), (slicing, "_check_order"),
                   (simulation, "_leading_vectors")]
        for module, name in targets:
            real = getattr(module, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        assert main(["sweep", "--mode", "bias", "--n-grid", "20000", "--c-grid", "2,3",
                     "--reps", "10", "--p", "1", "--out", "json"]) == 0
        assert calls == {"slice_stats": 20, "stable_order": 10, "_check_order": 10}
        calls.clear()
        assert main(["table1", "--reps", "10", "--n", "480", "--out", "json"]) == 0
        assert calls == {"slice_stats": 25, "stable_order": 5, "_check_order": 5,
                         "_leading_vectors": 5}
        capsys.readouterr()

    def test_engines_reject_an_order_that_is_no_permutation(self, monkeypatch):
        # the engines check each sorted order once, for every H it serves
        real = simulation.stable_order

        def repeated(y, buffers=None):
            order = real(y, buffers)
            order[..., 0] = order[..., 1]
            return order

        monkeypatch.setattr(simulation, "stable_order", repeated)
        for run in (lambda: bias_sweep([401], [2, 3], reps=3, seed=3, p=1),
                    lambda: run_grid([ModelSpec(id=1)], (2, 24), 120, 3, seed=3)):
            with pytest.raises(SimulationError, match=r"^replicate 0 failed") as info:
                run()
            assert isinstance(info.value.__cause__, InvalidArgument)
            assert str(info.value.__cause__).startswith("order must be a permutation")

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


def oracle_scores(cfg):
    """R^2 of each method's leading direction, one replicate at a time,
    through the unbatched (2-d) calls of every stage."""
    scores = {m: [] for m in cfg.methods}
    for rep in range(cfg.reps):
        data = model_data(cfg.model, cfg.n, model_streams(cfg.seed, rep))
        if cfg.standardize:
            sd = standardize(data)
            z, back = sd.z, sd.cov_inv_sqrt
        else:
            z, back = data.x, None
        stats = slice_stats(z, slice_equal_count(data.y, cfg.H))
        for method in cfg.methods:
            lead = sym_eig(candidate_matrix(method, stats)).vectors[:, 0]
            if back is not None:
                lead = back @ lead
            scores[method].append(r2_single(lead, cfg.model.beta[:, None]))
    return scores


def fixed_chunk(monkeypatch, size):
    monkeypatch.setattr(simulation, "_chunk_size", lambda n, p, H: size)


def row_bytes(rows) -> bytes:
    """The fields of sweep rows as float64 bytes."""
    return np.array([dataclasses.astuple(r) for r in rows], dtype=float).tobytes()


def poison_replicate(monkeypatch, rep):
    """Make the rep-th draw carry a NaN predictor."""
    real = simulation._draw
    drawn = []

    def poisoned(n, p, streams, out):
        x, eps = real(n, p, streams, out)
        drawn.append(len(drawn))
        if drawn[-1] == rep:
            x[11, 2] = np.nan
        return x, eps

    monkeypatch.setattr(simulation, "_draw", poisoned)


class TestChunkedEngine:
    @pytest.mark.parametrize("model_id", simulation.MODEL_IDS)
    @pytest.mark.parametrize(
        "n, H, standardize",
        [(480, 24, False), (203, 7, False), (487, 96, True)],
    )
    def test_matches_per_replicate_oracle(self, model_id, n, H, standardize):
        cfg = SimConfig(
            model=ModelSpec(id=model_id), n=n, H=H, reps=7, seed=model_id,
            standardize=standardize,
        )
        report = run_mc(cfg)
        for method, want in oracle_scores(cfg).items():
            np.testing.assert_allclose(
                report.summaries[method].values, want, rtol=0, atol=1e-12
            )

    def test_chunk_size_follows_the_shapes(self):
        assert simulation._chunk_size(480, 10, 96) == 5
        assert simulation._chunk_size(480, 10, 24) == 10
        assert simulation._chunk_size(20000, 1, 10000) == 1
        assert simulation._chunk_size(3, 10, 2) == 1

    @pytest.mark.parametrize("standardize", [False, True])
    def test_scores_bitwise_equal_across_chunk_sizes(self, monkeypatch, standardize):
        cfg = SimConfig(
            model=ModelSpec(id=4), n=203, H=6, reps=9, seed=5,
            standardize=standardize,
        )
        runs = []
        for size in (1, cfg.reps):
            fixed_chunk(monkeypatch, size)
            report = run_mc(cfg)
            runs.append(np.stack([report.summaries[m].values for m in cfg.methods]))
        np.testing.assert_array_equal(runs[0], runs[1])
        monkeypatch.undo()
        report = run_mc(cfg)  # derived chunk size, 6 here
        np.testing.assert_array_equal(
            runs[0], np.stack([report.summaries[m].values for m in cfg.methods])
        )

    def test_sweep_rows_bitwise_equal_across_chunk_sizes(self, monkeypatch):
        # p = 3, and p = 1 at an n with a remainder, whose one-replicate
        # chunks (the derived size) pass views of the draws, not stacked copies
        for p, n_grid, c_grid in ((3, [401, 1000], [2, 4]), (1, [2003], [2, 3])):
            rows = []
            for size in (1, 7):
                fixed_chunk(monkeypatch, size)
                rows.append(bias_sweep(n_grid, c_grid, reps=7, seed=3, p=p))
            assert rows[0] == rows[1]
            assert row_bytes(rows[0]) == row_bytes(rows[1])
        monkeypatch.undo()
        assert simulation._chunk_size(2003, 1, 2003 // 3) == 1
        assert row_bytes(bias_sweep([2003], [2, 3], reps=7, seed=3, p=1)) == row_bytes(
            rows[0]
        )

    def test_poisoned_replicate_in_later_chunk_is_named(self, monkeypatch):
        # replicate 7 sits in the third chunk of 3; its x carries a NaN
        fixed_chunk(monkeypatch, 3)
        poison_replicate(monkeypatch, 7)
        cfg = SimConfig(model=ModelSpec(id=1), n=120, H=6, reps=10, seed=2)
        with pytest.raises(SimulationError, match=r"^replicate 7 failed"):
            run_mc(cfg)

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
        cfg = SimConfig(model=ModelSpec(id=1, p=p), n=n, H=H, reps=reps, seed=3)
        peak = traced_peak(lambda: run_mc(cfg))
        assert peak <= 1.25 * budget, (peak, budget)


def grid_values(reports):
    """(cell, method, replicate) scores of a list of reports."""
    return np.stack([
        [r.summaries[m].values for m in r.config.methods] for r in reports
    ])


class TestGridEngine:
    MODELS = [ModelSpec(id=m) for m in simulation.MODEL_IDS]

    @pytest.mark.parametrize("standardize", [False, True])
    def test_cells_bitwise_equal_standalone_runs(self, standardize):
        # n=487 leaves a remainder in the last slice at every H; 12
        # replicates make a full chunk of 10 and a short one, and H=96
        # slices each in sub-chunks of 5
        h_grid = (2, 7, 96)
        reports = run_grid(self.MODELS, h_grid, 487, 12, seed=4,
                           standardize=standardize)
        cells = [(m, H) for m in self.MODELS for H in h_grid]
        assert [(r.config.model, r.config.H) for r in reports] == cells
        for report, (model, H) in zip(reports, cells):
            alone = run_mc(SimConfig(model=model, n=487, H=H, reps=12, seed=4,
                                     standardize=standardize))
            assert report.config == alone.config
            for m in METHODS:
                np.testing.assert_array_equal(
                    report.summaries[m].values, alone.summaries[m].values
                )

    @pytest.mark.parametrize("standardize", [False, True])
    def test_scores_bitwise_equal_across_chunk_sizes(self, monkeypatch, standardize):
        args = (self.MODELS[2:4], (2, 24, 96), 480, 11)
        want = grid_values(run_grid(*args, seed=6, standardize=standardize))
        for size in (1, 11):
            fixed_chunk(monkeypatch, size)
            got = grid_values(run_grid(*args, seed=6, standardize=standardize))
            np.testing.assert_array_equal(got, want)

    def test_repeated_and_reordered_cells_are_kept(self):
        one = ModelSpec(id=1)
        reports = run_grid([one, one], (2, 2), 120, 4, seed=9)
        assert [(r.config.model.id, r.config.H) for r in reports] == [(1, 2)] * 4
        values = grid_values(reports)
        for v in values[1:]:
            np.testing.assert_array_equal(v, values[0])
        three = ModelSpec(id=3)
        swapped = run_grid([three, one], (96, 2), 480, 3, seed=9)
        ordered = run_grid([one, three], (2, 96), 480, 3, seed=9)
        assert [(r.config.model.id, r.config.H) for r in swapped] == [
            (3, 96), (3, 2), (1, 96), (1, 2)
        ]
        np.testing.assert_array_equal(
            grid_values(swapped), grid_values(ordered)[[3, 2, 1, 0]]
        )

    @pytest.mark.parametrize("reps", [1, 2, 3, 7, 10, 11])
    def test_summaries_equal_per_cell_statistics(self, reps):
        # medians and quartiles come from one call over all cells; each must
        # be bitwise what the same call gives on the cell's own values
        reports = run_grid(self.MODELS, (2, 24), 120, reps, seed=reps)
        for report in reports:
            for m in METHODS:
                s = report.summaries[m]
                assert s.method == m and s.values.shape == (reps,)
                assert s.median == float(np.median(s.values))
                assert s.q1 == float(np.quantile(s.values, 0.25))
                assert s.q3 == float(np.quantile(s.values, 0.75))
                assert (s.min, s.max) == (s.values.min(), s.values.max())

    @pytest.mark.parametrize("n, standardize", [(480, False), (487, True)])
    def test_scores_keep_the_bits_of_sym_eig(self, n, standardize, monkeypatch):
        def scores():
            return grid_values(run_grid(self.MODELS, (2, 6, 24, 96), n, 10, seed=5,
                                        standardize=standardize))

        got = scores()
        monkeypatch.setattr(simulation, "_leading_vectors",
                            lambda m: sym_eig(m).vectors[..., 0])
        np.testing.assert_array_equal(got.view(np.int64), scores().view(np.int64))

    @pytest.mark.parametrize("bad", ["nan", "asymmetric"])
    def test_bad_candidates_are_invalid_matrices(self, bad, monkeypatch):
        real = simulation.candidate_matrix

        def poisoned(method, stats):
            m = real(method, stats)
            if bad == "nan":
                m[..., 0, 0] = np.nan
            else:
                m[..., 0, 1] += 1e-3
            return m

        monkeypatch.setattr(simulation, "candidate_matrix", poisoned)
        with pytest.raises(SimulationError, match=r"^replicate 0 failed") as info:
            run_grid([ModelSpec(id=1)], (2, 6), 60, 3, seed=3)
        assert isinstance(info.value.__cause__, InvalidMatrix)

    def test_invalid_grids_rejected(self):
        with pytest.raises(InvalidArgument, match="share one dimension"):
            run_grid([ModelSpec(id=1, p=4), ModelSpec(id=2, p=5)], (2,), 40, 2)
        with pytest.raises(DegenerateDesign, match="empty model or H grid"):
            run_grid([], (2,), 40, 2)
        with pytest.raises(DegenerateDesign, match="empty model or H grid"):
            run_grid(self.MODELS, (), 40, 2)
        with pytest.raises(InvalidArgument, match="n=40 too small for H=21"):
            run_grid(self.MODELS, (2, 21), 40, 2)

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
