"""Tests for the Monte Carlo engine and the synthetic fixture generator."""

import io
import math
import threading
import tracemalloc

import numpy as np
import pytest

from pegrisk.errors import DomainError
from pegrisk.marketdata import align_daily, write_table_csv
from pegrisk import simkit
from pegrisk.pegmodel import fit_ar1, prob_series, theoretical_futures
from pegrisk.simkit import (
    PATH_BLOCK,
    FixtureConfig,
    SimConfig,
    generate_fixture,
    roundtrip_invert,
    simulate_ar1_series,
    simulate_paths,
)


@pytest.fixture
def simulate_recorded(monkeypatch):
    """simulate_paths that also returns the terminal prices and default flags its blocks filled, in path order."""
    block = simkit._simulate_block
    filled = {}

    def recording(config, stream, deviation, defaulted):
        block(config, stream, deviation, defaulted)
        filled[stream.spawn_key] = (deviation.copy(), defaulted.copy())  # simulate_paths reuses the arrays

    monkeypatch.setattr(simkit, "_simulate_block", recording)

    def run(config):
        filled.clear()
        result = simulate_paths(config)
        blocks = [filled[key] for key in sorted(filled)]
        return result, np.concatenate([t for t, _ in blocks]), np.concatenate([d for _, d in blocks])

    return run


def assert_moments_of(result, terminal):
    """The result's mean and standard error are numpy's for the whole sample, to rounding."""
    mean = float(np.mean(terminal))
    assert abs(result.mc_futures - mean) <= 4.0 * math.ulp(mean)
    stderr = float(np.std(terminal, ddof=1) / math.sqrt(terminal.size))
    assert result.mc_stderr == pytest.approx(stderr, rel=1e-12, abs=0.0)


class TestSimulatePaths:
    def test_degenerate_dynamics_pin_the_peg(self):
        result = simulate_paths(
            SimConfig(innovation_sd=0.0, p_default=0.0, delta0=0.0, n_paths=1000)
        )
        assert (result.mc_futures, result.mc_stderr) == (1.0, 0.0)  # a zero stderr: every path equals the mean
        assert result.default_count == 0

    def test_certain_default_pays_recovery(self):
        result = simulate_paths(SimConfig(p_default=1.0, recovery=0.75, n_paths=1000))
        assert (result.mc_futures, result.mc_stderr) == (0.75, 0.0)
        assert result.default_count == 1000

    def test_moments_are_the_sample_moments(self, simulate_recorded):
        config = SimConfig(p_default=0.01, n_paths=2 * PATH_BLOCK + 5000, seed=3)
        result, terminal, _ = simulate_recorded(config)
        assert terminal.size == config.n_paths
        assert_moments_of(result, terminal)

    def test_matches_closed_form_within_mc_error(self):
        config = SimConfig(
            rho=0.73,
            horizon_days=90,
            delta0=0.001,
            innovation_sd=5e-4,
            p_default=0.005,
            recovery=0.0,
            n_paths=200_000,
            seed=11,
        )
        result = simulate_paths(config)
        oracle = theoretical_futures(
            config.delta0, config.rho, config.horizon_days, config.p_default, config.recovery
        )
        assert abs(result.mc_futures - oracle) < 3.0 * result.mc_stderr

    def test_default_rate_is_binomial(self):
        config = SimConfig(p_default=0.02, n_paths=100_000, seed=9)
        result = simulate_paths(config)
        rate = result.default_count / config.n_paths
        assert abs(rate - 0.02) < 4.0 * math.sqrt(0.02 * 0.98 / config.n_paths)

    def test_deterministic_given_seed(self, simulate_recorded):
        config = SimConfig(p_default=0.01, n_paths=10_000, seed=21)
        a, a_terminal, _ = simulate_recorded(config)
        b, b_terminal, _ = simulate_recorded(config)
        assert np.array_equal(a_terminal, b_terminal)
        assert a.mc_futures == b.mc_futures
        assert a.mc_stderr == b.mc_stderr
        _, c_terminal, _ = simulate_recorded(SimConfig(p_default=0.01, n_paths=10_000, seed=22))
        assert not np.array_equal(a_terminal, c_terminal)

    def test_survivor_moments(self, simulate_recorded):
        config = SimConfig(
            rho=0.73,
            horizon_days=90,
            delta0=0.002,
            innovation_sd=5e-4,
            p_default=0.01,
            n_paths=1_000_000,
            seed=4,
        )
        _, terminal, defaulted = simulate_recorded(config)
        survivors = terminal[~defaulted] - 1.0
        n = survivors.size
        mean_target = config.rho**config.horizon_days * config.delta0
        var_target = (
            config.innovation_sd**2
            * (1.0 - config.rho ** (2 * config.horizon_days))
            / (1.0 - config.rho**2)
        )
        assert abs(survivors.mean() - mean_target) < 4.0 * math.sqrt(var_target / n)
        assert abs(survivors.var(ddof=1) - var_target) < 0.05 * var_target

    def test_unbiased_against_closed_form_over_seeds(self):
        config_base = dict(
            rho=0.73, horizon_days=30, delta0=0.001, innovation_sd=5e-4, p_default=0.01, n_paths=20_000
        )
        oracle = theoretical_futures(0.001, 0.73, 30, 0.01, 0.0)
        discrepancies = []
        for seed in range(200):
            result = simulate_paths(SimConfig(seed=seed, **config_base))
            discrepancies.append(result.mc_futures - oracle)
        discrepancies = np.asarray(discrepancies)
        t = discrepancies.mean() / (discrepancies.std(ddof=1) / math.sqrt(len(discrepancies)))
        assert abs(t) < 3.0

    def test_invalid_config_rejected(self):
        with pytest.raises(DomainError):
            SimConfig(rho=1.2)
        with pytest.raises(DomainError):
            SimConfig(p_default=-0.1)
        with pytest.raises(DomainError):
            SimConfig(n_paths=0)


class TestPathBlocks:
    CONFIG = dict(rho=0.73, horizon_days=5, delta0=0.001, innovation_sd=5e-4, p_default=0.02, seed=7)

    def test_matches_stepwise_reference(self, simulate_recorded):
        config = SimConfig(n_paths=PATH_BLOCK + 5, **self.CONFIG)
        streams = np.random.SeedSequence(config.seed).spawn(2)
        blocks = []
        flags = []
        for stream, m in zip(streams, (PATH_BLOCK, 5)):
            rng = np.random.default_rng(stream)
            defaulted = rng.random(m) < config.p_default
            deviation = np.full(m, config.delta0)
            for _ in range(config.horizon_days):
                deviation = config.rho * deviation + config.innovation_sd * rng.standard_normal(m)
            blocks.append(np.where(defaulted, config.recovery, 1.0 + deviation))
            flags.append(defaulted)
        reference = np.concatenate(blocks)
        result, terminal, defaulted = simulate_recorded(config)
        assert np.array_equal(terminal, reference)
        assert np.array_equal(defaulted, np.concatenate(flags))
        assert_moments_of(result, reference)
        assert result.default_count == np.count_nonzero(np.concatenate(flags))

    def test_draws_do_not_depend_on_cpu_count(self, monkeypatch, simulate_recorded):
        config = SimConfig(n_paths=3 * PATH_BLOCK + 7, **self.CONFIG)
        results = []
        for cpus in (1, 3):
            monkeypatch.setattr(simkit, "_cpu_count", lambda: cpus)
            results.append(simulate_recorded(config))
        (one, one_terminal, one_defaulted), (three, three_terminal, three_defaulted) = results
        assert np.array_equal(one_terminal, three_terminal)
        assert np.array_equal(one_defaulted, three_defaulted)
        assert (one.mc_futures, one.mc_stderr, one.default_count) == (
            three.mc_futures,
            three.mc_stderr,
            three.default_count,
        )

    def test_first_block_does_not_depend_on_path_count(self, simulate_recorded):
        _, short, _ = simulate_recorded(SimConfig(n_paths=2 * PATH_BLOCK, **self.CONFIG))
        _, long, _ = simulate_recorded(SimConfig(n_paths=3 * PATH_BLOCK + 7, **self.CONFIG))
        assert long.size == 3 * PATH_BLOCK + 7
        assert np.array_equal(short[:PATH_BLOCK], long[:PATH_BLOCK])

    def test_default_count_matches_recovery_paths(self, simulate_recorded):
        config = SimConfig(n_paths=2 * PATH_BLOCK + 3, recovery=0.0, **self.CONFIG)
        result, terminal, defaulted = simulate_recorded(config)
        assert result.default_count > 0
        assert result.default_count == np.count_nonzero(terminal == 0.0) == np.count_nonzero(defaulted)

    @pytest.mark.parametrize("n_blocks", [2, 16])
    def test_memory_does_not_grow_with_path_count(self, monkeypatch, n_blocks):
        # numpy reports its array buffers to tracemalloc; two workers hold two blocks at a time
        monkeypatch.setattr(simkit, "_cpu_count", lambda: 2)
        config = SimConfig(n_paths=n_blocks * PATH_BLOCK, **dict(self.CONFIG, horizon_days=5))
        simulate_paths(config)  # the first call with threads imports concurrent.futures
        tracemalloc.start()
        try:
            simulate_paths(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20

    def test_no_thread_outlives_the_call(self, monkeypatch):
        monkeypatch.setattr(simkit, "_cpu_count", lambda: 3)
        before = threading.active_count()
        simulate_paths(SimConfig(n_paths=4 * PATH_BLOCK, **self.CONFIG))
        assert threading.active_count() == before

    def test_block_error_reaches_caller(self, monkeypatch):
        monkeypatch.setattr(simkit, "_cpu_count", lambda: 3)
        block = simkit._simulate_block

        def failing(config, stream, *args):
            if stream.spawn_key == (1,):
                raise RuntimeError("block 1 failed")
            block(config, stream, *args)

        monkeypatch.setattr(simkit, "_simulate_block", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="block 1 failed"):
            simulate_paths(SimConfig(n_paths=4 * PATH_BLOCK, **self.CONFIG))
        assert threading.active_count() == before


class TestRoundtripInvert:
    def test_planted_probability_recovered(self):
        config = SimConfig(
            rho=0.73,
            horizon_days=90,
            delta0=0.001,
            innovation_sd=5e-4,
            p_default=0.005,
            recovery=0.0,
            n_paths=200_000,
            seed=2,
        )
        recovered = roundtrip_invert(config)
        assert abs(recovered.p - config.p_default) < 3.0 * recovered.stderr

    def test_zero_noise_zero_probability_is_exact(self):
        config = SimConfig(innovation_sd=0.0, p_default=0.0, delta0=0.0, n_paths=100)
        recovered = roundtrip_invert(config)
        assert recovered.p == 0.0

    def test_full_recovery_fails_before_simulating(self, monkeypatch):
        def no_paths(config):
            raise AssertionError("simulate_paths ran")

        monkeypatch.setattr(simkit, "simulate_paths", no_paths)
        with pytest.raises(DomainError, match=r"^recovery must lie in \[0, 1\), got 1\.0$"):
            roundtrip_invert(SimConfig(recovery=1.0, n_paths=2_000_000))

    def test_high_recovery_inflates_standard_error(self):
        base = dict(
            rho=0.73, horizon_days=90, delta0=0.0, innovation_sd=5e-4, n_paths=100_000, seed=8
        )
        plain = roundtrip_invert(SimConfig(p_default=0.01, recovery=0.0, **base))
        geared = roundtrip_invert(SimConfig(p_default=0.01, recovery=0.9, **base))
        assert geared.stderr == pytest.approx(geared.sim.mc_stderr * 10.0, rel=1e-12)
        assert abs(geared.p - 0.01) < 3.0 * geared.stderr
        assert abs(plain.p - 0.01) < 3.0 * plain.stderr


class TestSimulateAr1Series:
    def test_reproducible(self):
        a = simulate_ar1_series(0.73, 5e-4, 100, rng=np.random.default_rng(5))
        b = simulate_ar1_series(0.73, 5e-4, 100, rng=np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_zero_noise_decays_geometrically(self):
        series = simulate_ar1_series(0.5, 0.0, 5, delta0=1.0, rng=np.random.default_rng(0))
        assert series == pytest.approx([0.5, 0.25, 0.125, 0.0625, 0.03125])

    def test_fit_recovers_coefficient(self):
        series = simulate_ar1_series(0.6, 1e-3, 2000, rng=np.random.default_rng(1))
        fit = fit_ar1(np.datetime64("2020-01-01") + np.arange(series.size), series)
        assert abs(fit.rho - 0.6) < 3.0 * fit.stderr


def _fixture_csv_bytes(config):
    fixture = generate_fixture(config)
    chunks = []
    for series in (fixture.spot, fixture.futures, fixture.btc):
        buf = io.StringIO()
        write_table_csv(series, buf)
        chunks.append(buf.getvalue())
    return "".join(chunks)


class TestGenerateFixture:
    def test_deterministic_output(self):
        config = FixtureConfig(n_days=60, seed=13)
        assert _fixture_csv_bytes(config) == _fixture_csv_bytes(config)
        assert _fixture_csv_bytes(config) != _fixture_csv_bytes(FixtureConfig(n_days=60, seed=14))

    def test_zero_noise_gives_exactly_constant_series(self):
        config = FixtureConfig(
            n_days=40,
            innovation_sd=0.0,
            delta0=0.0,
            futures_noise_sd=0.0,
            p_amplitude=0.0,
            p_default=0.001,
            intraday_range_sd=0.0,
            seed=1,
        )
        fixture = generate_fixture(config)
        aligned = align_daily(fixture.spot, fixture.futures)
        points = prob_series(aligned, rho=config.rho, h=config.horizon_days)
        values = {p.p_horizon for p in points}
        assert len(values) == 1
        assert values.pop() == pytest.approx(0.001, abs=1e-15)

    def test_zero_noise_with_decaying_start_is_constant_to_rounding(self):
        config = FixtureConfig(
            n_days=40,
            innovation_sd=0.0,
            delta0=0.002,
            futures_noise_sd=0.0,
            p_amplitude=0.0,
            p_default=0.001,
            intraday_range_sd=0.0,
            seed=1,
        )
        fixture = generate_fixture(config)
        aligned = align_daily(fixture.spot, fixture.futures)
        points = prob_series(aligned, rho=config.rho, h=config.horizon_days)
        for point in points:
            assert point.p_horizon == pytest.approx(0.001, abs=1e-12)

    def test_planted_level_recovered_through_model(self):
        config = FixtureConfig(n_days=410, p_default=7.4e-4, seed=6)
        fixture = generate_fixture(config)
        aligned = align_daily(fixture.spot, fixture.futures)
        points = prob_series(aligned, rho=0.73, h=90)
        mean_p = np.mean([p.p_horizon for p in points])
        assert mean_p == pytest.approx(7.4e-4, rel=0.05)

    def test_bars_valid_and_paired(self):
        fixture = generate_fixture(FixtureConfig(n_days=35, seed=2))
        assert len(fixture.spot) == len(fixture.futures) == len(fixture.btc) == 35
        assert np.array_equal(fixture.spot.date, fixture.futures.date)

    def test_minimum_length_enforced(self):
        with pytest.raises(DomainError):
            FixtureConfig(n_days=10)


def ar1_series(**setting):
    setting = {"rho": 0.5, "innovation_sd": 1e-3, "n": 10, **setting}
    return simulate_ar1_series(**setting, rng=np.random.default_rng(0))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "make, field",
    [
        (SimConfig, "innovation_sd"),
        (SimConfig, "delta0"),
        (FixtureConfig, "innovation_sd"),
        (FixtureConfig, "delta0"),
        (FixtureConfig, "p_amplitude"),
        (FixtureConfig, "futures_noise_sd"),
        (ar1_series, "innovation_sd"),
        (ar1_series, "delta0"),
    ],
    ids=lambda arg: getattr(arg, "__name__", arg),
)
def test_non_finite_setting_is_rejected(make, field, value):
    with pytest.raises(DomainError, match=field):
        make(**{field: value})
