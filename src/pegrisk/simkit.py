"""Monte Carlo engine for the jump-to-default peg model, plus fixture data.

Each path evolves the peg deviation one day at a time with i.i.d. Gaussian
innovations; an independent draw decides whether the peg survives to
contract expiry. Surviving paths terminate at 1 + deviation, broken ones
at the recovery value. The sample mean of terminal prices estimates the
futures price, which can be inverted back to the planted default
probability — an end-to-end check of the pricing identity that never
touches the closed form.

The paths are simulated in blocks of ``PATH_BLOCK`` paths; the last block
may be partial. Block i covers paths [i * PATH_BLOCK, (i + 1) * PATH_BLOCK)
and draws from its own SFC64 generator, seeded by the i-th child that
``SeedSequence(seed).spawn`` gives. Within a block the draw order is fixed:
one uniform per path for the default flags, then, day by day, one
standard normal per path. Innovations are drawn for every path regardless
of its default flag to keep the draw count invariant. The blocks run on as
many threads as the process has CPUs, but which thread runs which block
does not touch the draws, and SFC64 uses integer arithmetic only, so a
given config produces bit-identical output on any machine.

This is the third draw stream: a single generator came first, then one
PCG64 generator per block, then SFC64 per block. SFC64 draws normals
faster, and its 64-bit counter keeps two distinct seeds from colliding for
at least 2**64 draws, which is what independent block streams need. Each
change gave the same seed other draws than before it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import marketdata
from .errors import DomainError
from .pegmodel import DEFAULTS, check_inversion_domain, implied_default_prob, theoretical_futures


@dataclass(frozen=True, kw_only=True)
class _ModelConfig:
    """The peg model's parameters, their defaults and their rules, shared by ``SimConfig`` and ``FixtureConfig``."""

    # field -> the least value it may take; a subclass adds its own fields
    _AT_LEAST = {"innovation_sd": 0, "seed": 0}

    rho: float = DEFAULTS["rho"]
    innovation_sd: float = 5e-4
    delta0: float = 0.0
    horizon_days: int = DEFAULTS["horizon"]
    p_default: float = 0.005
    recovery: float = DEFAULTS["recovery"]
    seed: int = 0

    def __post_init__(self) -> None:
        check_inversion_domain(self.rho, self.horizon_days, self.recovery)
        if not 0.0 <= self.p_default <= 1.0:
            raise DomainError(f"p_default must lie in [0, 1], got {self.p_default}")
        for name, least in self._AT_LEAST.items():
            if (value := getattr(self, name)) < least:
                raise DomainError(f"{name} must be {f'at least {least}' if least else 'non-negative'}, got {value}")
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")


@dataclass(frozen=True, kw_only=True)
class SimConfig(_ModelConfig):
    """Parameters of one Monte Carlo run that :func:`roundtrip_invert` can invert; the defaults are ``simulate``'s."""

    _AT_LEAST = _ModelConfig._AT_LEAST | {"n_paths": 1}

    n_paths: int = 100_000


class SimResult(NamedTuple):
    """First two moments of the terminal prices, and the number of defaults."""

    mc_futures: float
    mc_stderr: float
    default_count: int


PATH_BLOCK = 65_536  # paths per block; part of the draw stream, not a setting


def _simulate_block(
    config: SimConfig, stream: np.random.SeedSequence, deviation: np.ndarray, defaulted: np.ndarray
) -> None:
    """Fill one block's terminal values (in ``deviation``) and default flags in place."""
    rng = np.random.Generator(np.random.SFC64(stream))
    z = np.empty(deviation.size)
    rng.random(out=z)
    np.less(z, config.p_default, out=defaulted)
    deviation.fill(config.delta0)
    for _ in range(config.horizon_days):
        rng.standard_normal(out=z)
        z *= config.innovation_sd
        deviation *= config.rho
        deviation += z
    deviation += 1.0
    deviation[defaulted] = config.recovery


def simulate_paths(config: SimConfig) -> SimResult:
    """Simulate the paths; the thread that fills a block reduces it to its count, sum, M2 and defaults.

    Blocks combine in block order (Chan, Golub & LeVeque 1979), so no thread count touches the result.
    """
    n = config.n_paths
    n_blocks = -(-n // PATH_BLOCK)
    streams = np.random.SeedSequence(config.seed).spawn(n_blocks)

    def run_block(i: int) -> tuple[int, float, float, int]:
        terminal = np.empty(min(PATH_BLOCK, n - i * PATH_BLOCK))
        defaulted = np.empty(terminal.size, dtype=bool)
        _simulate_block(config, streams[i], terminal, defaulted)
        total = float(np.sum(terminal))
        terminal -= total / terminal.size
        terminal *= terminal
        return terminal.size, total, float(np.sum(terminal)), int(np.count_nonzero(defaulted))

    # imported here, not at the top: concurrent.futures loads logging,
    # which would add to the start-up of every pegrisk command
    from concurrent.futures import ThreadPoolExecutor

    # leaving the pool joins its threads; iterating map re-raises a block's error
    with ThreadPoolExecutor(min(n_blocks, marketdata._cpu_count())) as pool:
        blocks = list(pool.map(run_block, range(n_blocks)))
    mean = math.fsum(total for _, total, _, _ in blocks) / n
    m2 = math.fsum(m2_i + m * (total / m - mean) ** 2 for m, total, m2_i, _ in blocks)
    return SimResult(
        mc_futures=mean,
        mc_stderr=math.sqrt(m2 / (n - 1)) / math.sqrt(n) if n > 1 else 0.0,
        default_count=sum(count for _, _, _, count in blocks),
    )


class RecoveredProb(NamedTuple):
    """Default probability recovered from a Monte Carlo futures price.

    ``stderr`` propagates the Monte Carlo standard error through the
    inversion (the derivative in the futures price has magnitude
    1 / (1 + rho**h * delta0 - recovery)).
    """

    p: float
    stderr: float
    sim: SimResult


def roundtrip_invert(config: SimConfig) -> RecoveredProb:
    """Invert the simulated futures price back to a default probability."""
    sim = simulate_paths(config)
    s = 1.0 + config.delta0
    p = implied_default_prob(s, sim.mc_futures, config.rho, config.horizon_days, config.recovery)
    sensitivity = 1.0 + config.rho**config.horizon_days * config.delta0 - config.recovery
    return RecoveredProb(p=p, stderr=sim.mc_stderr / sensitivity, sim=sim)


# the same in every fixture: its first date, BTC's path and range, and the volume scale
_FIXTURE_START = np.datetime64("2020-02-28")
_BTC_START = 20_000.0
_BTC_DAILY_VOL = 0.04
_BTC_RANGE_SD = 0.02
_VOLUME_SCALE = 5e6


@dataclass(frozen=True, kw_only=True)
class FixtureConfig(_ModelConfig):
    """Synthetic-market settings for :func:`generate_fixture`.

    The planted per-horizon default probability follows a slow sinusoid
    around ``p_default`` (amplitude 0 plants a constant). ``futures_noise_sd``
    adds market noise to the futures close on top of the model price.
    ``intraday_range_sd`` only shapes the synthesized OHLC fields.
    """

    _AT_LEAST = _ModelConfig._AT_LEAST | {
        "n_days": 30, "p_period_days": 1, "futures_noise_sd": 0, "intraday_range_sd": 0
    }

    n_days: int = 410
    p_default: float = 7.4e-4  # the planted level: the model's one default a fixture sets apart
    p_amplitude: float = 0.0
    p_period_days: int = 120
    futures_noise_sd: float = 2e-4
    intraday_range_sd: float = 5e-4


class FixtureSet(NamedTuple):
    """Paired synthetic series: stablecoin spot and futures, plus BTC."""

    spot: marketdata.BarSeries
    futures: marketdata.BarSeries
    btc: marketdata.BarSeries


def _bars_from_closes(
    closes: np.ndarray,
    days: np.ndarray,
    rng: np.random.Generator,
    range_sd: float,
    volume_scale: float,
) -> marketdata.BarSeries:
    n = closes.size
    hi_off = np.abs(rng.normal(0.0, range_sd, n))
    lo_off = np.abs(rng.normal(0.0, range_sd, n))
    volumes = volume_scale * rng.lognormal(0.0, 0.5, n)
    opens = np.concatenate((closes[:1], closes[:-1]))  # each bar opens at the previous close
    return marketdata.BarSeries(
        date=days,
        open=opens,
        high=np.maximum(opens, closes) * (1.0 + hi_off),
        low=np.minimum(opens, closes) * (1.0 - lo_off),
        close=closes,
        volume=volumes,
        venue="synthetic",
    )


def generate_fixture(config: FixtureConfig) -> FixtureSet:
    """Generate paired spot/futures bar series, plus a BTC series.

    Spot closes are 1 + an AR(1) deviation path; futures closes price the
    planted default probability through the survivor/recovery mixture and
    then receive additive market noise. The BTC series is an independent
    geometric random walk so the feature regressions have a realistic
    right-hand side. Deterministic: one seed, one fixed draw order.
    """
    rng = np.random.default_rng(config.seed)
    days = _FIXTURE_START + np.arange(config.n_days)

    innovations = rng.normal(0.0, config.innovation_sd, config.n_days)
    deviations = np.empty(config.n_days)
    prev = config.delta0
    for t in range(config.n_days):
        prev = config.rho * prev + innovations[t]
        deviations[t] = prev
    spot_closes = 1.0 + deviations

    # not clamped: a planted path that leaves [0, 1] fails in theoretical_futures
    phase = 2.0 * math.pi * np.arange(config.n_days, dtype=float) / config.p_period_days
    p_path = config.p_default * (1.0 + config.p_amplitude * np.sin(phase))
    futures_noise = rng.normal(0.0, config.futures_noise_sd, config.n_days)
    futures_closes = theoretical_futures(deviations, config.rho, config.horizon_days, p_path, config.recovery)
    futures_closes = futures_closes + futures_noise

    range_sd = config.intraday_range_sd
    spot = _bars_from_closes(spot_closes, days, rng, range_sd, _VOLUME_SCALE)
    futures = _bars_from_closes(futures_closes, days, rng, range_sd, _VOLUME_SCALE)

    btc_steps = rng.normal(0.0, _BTC_DAILY_VOL, config.n_days)
    btc_closes = _BTC_START * np.exp(np.cumsum(btc_steps))
    btc = _bars_from_closes(btc_closes, days, rng, _BTC_RANGE_SD, _VOLUME_SCALE / 100.0)
    return FixtureSet(spot=spot, futures=futures, btc=btc)
