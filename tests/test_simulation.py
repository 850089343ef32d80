"""Monte Carlo harness tests: determinism, substreams, model generators."""

import numpy as np
import pytest

from slicesdr import (
    DEFAULT_METHODS,
    ModelSpec,
    RngStreams,
    SimConfig,
    bias_sweep,
    gen_model,
    model_streams,
    run_mc,
)
from slicesdr.errors import DegenerateDesign, SimulationError


class _ZeroStream:
    """Noise stub: standard_normal always returns zeros."""

    def standard_normal(self, size):
        return np.zeros(size)


class TestGenerators:
    def test_fixed_seed_bit_identical(self):
        spec = ModelSpec(id=2)
        d1 = gen_model(spec, 100, model_streams(42, 3))
        d2 = gen_model(spec, 100, model_streams(42, 3))
        np.testing.assert_array_equal(d1.x, d2.x)
        np.testing.assert_array_equal(d1.y, d2.y)

    def test_distinct_replicates_differ(self):
        spec = ModelSpec(id=1)
        d1 = gen_model(spec, 50, model_streams(42, 0))
        d2 = gen_model(spec, 50, model_streams(42, 1))
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
        d = gen_model(spec, 64, streams)
        np.testing.assert_array_equal(d.y, np.zeros(64))

    def test_cubic_model_dominates_noise(self):
        # Var(u^3) = 15 against unit noise: corr(y, u^3) = sqrt(15/16) > 0.9
        spec = ModelSpec(id=1)
        d = gen_model(spec, 100_000, model_streams(5, 0))
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
            d = gen_model(ModelSpec(id=mid), 30, RngStreams(_Replay(x), _Replay(eps)))
            np.testing.assert_allclose(d.y, want, atol=0)

    def test_model_spec_validation(self):
        with pytest.raises(ValueError):
            ModelSpec(id=6)
        with pytest.raises(ValueError):
            ModelSpec(id=1, p=3, beta=np.array([1.0, 1.0, 0.0]))


class _Replay:
    """Returns a pre-recorded array (test hook for checking model formulas)."""

    def __init__(self, value):
        self.value = value

    def standard_normal(self, size):
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
        for m in DEFAULT_METHODS:
            np.testing.assert_array_equal(
                r1.summaries[m].values, r2.summaries[m].values
            )
            assert r1.summaries[m].median == r2.summaries[m].median

    def test_substream_independence(self):
        # replicate r's score is the same whether reps=3 or reps=6 run
        r_small = run_mc(self.cfg(reps=3))
        r_big = run_mc(self.cfg(reps=6))
        for m in DEFAULT_METHODS:
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
        for m in DEFAULT_METHODS:
            assert abs(raw.summaries[m].median - std.summaries[m].median) < 0.5

    def test_scores_in_unit_interval(self):
        r = run_mc(self.cfg())
        for m in DEFAULT_METHODS:
            v = r.summaries[m].values
            assert np.all(v >= -1e-12) and np.all(v <= 1.0 + 1e-12)

    def test_replicate_failure_carries_index(self):
        # p > n makes standardization impossible; the error names replicate 0
        cfg = SimConfig(
            model=ModelSpec(id=1, p=70), n=62, H=31, reps=2, seed=1,
            standardize=True,
        )
        with pytest.raises(SimulationError, match="replicate 0"):
            run_mc(cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            self.cfg(n=6, H=4)
        with pytest.raises(ValueError):
            self.cfg(reps=0)
        with pytest.raises(ValueError):
            self.cfg(methods=("save", "pca"))
        with pytest.raises(ValueError):
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
        with pytest.raises(ValueError):
            bias_sweep([100], [4], reps=2, p=4)
        rows = bias_sweep([120], [4], reps=2, p=2)
        assert rows[0].H == 30
