"""Seeded synthetic market data for the benchmark, written as OHLCV CSV.

The generator plants every quantity the checks later test against: the
mean-reversion coefficient of the peg deviation, a constant annualized
default probability of 30 bps, Gaussian futures noise and the futures
dates that are missing. It imports nothing from pegrisk, so the program
under test only ever sees the CSV files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

START = np.datetime64("2019-01-01", "D")
RHO = 0.73
INNOVATION_SD = 5e-4
HORIZON = 90
RECOVERY = 0.0
P_ANNUAL_BPS = 30.0
P_HORIZON = P_ANNUAL_BPS / 1e4 * HORIZON / 365.0
FUTURES_NOISE_SD = 2e-4
RANGE_SD = 5e-4
BTC_LEVEL = 20_000.0
BTC_STEP_SD = 0.04
# BTC log price reverts slowly to its level, so a 200k-day path stays in a
# realistic band instead of drifting over dozens of orders of magnitude
BTC_REVERSION = 0.999
BTC_RANGE_SD = 0.02
VOLUME_SCALE = 5e6

COLUMNS = ("open", "high", "low", "close", "volume")


@dataclass(frozen=True)
class Bars:
    days: np.ndarray  # datetime64[D], strictly increasing
    open: np.ndarray
    high: np.ndarray
    low: np.ndarray
    close: np.ndarray
    volume: np.ndarray


@dataclass(frozen=True)
class Market:
    spot: Bars
    futures: Bars
    btc: Bars
    matched_days: np.ndarray  # days present in both spot and futures
    n_missing: int


def _bars(days, closes, rng, range_sd, volume_scale) -> Bars:
    n = closes.size
    opens = np.concatenate(([closes[0]], closes[:-1]))
    hi_off = np.abs(rng.normal(0.0, range_sd, n))
    lo_off = np.minimum(np.abs(rng.normal(0.0, range_sd, n)), 0.5)
    volume = volume_scale * rng.lognormal(0.0, 0.5, n)
    return Bars(
        days=days,
        open=opens,
        high=np.maximum(opens, closes) * (1.0 + hi_off),
        low=np.minimum(opens, closes) * (1.0 - lo_off),
        close=closes,
        volume=volume,
    )


def _ar1(rng, phi, sd, n) -> np.ndarray:
    shocks = rng.normal(0.0, sd, n)
    out = np.empty(n)
    prev = 0.0
    for t, shock in enumerate(shocks.tolist()):
        prev = phi * prev + shock
        out[t] = prev
    return out


def make_market(n_days: int, n_missing: int, seed: int) -> Market:
    """Spot, futures and BTC bars for ``n_days`` consecutive days.

    Spot closes are 1 + an AR(1) deviation with coefficient ``RHO``.
    Futures closes price the planted default probability through
    (1 - p)(1 + rho**h delta) + p R plus N(0, FUTURES_NOISE_SD) noise, and
    ``n_missing`` futures dates (never the first) are dropped at random.
    """
    rng = np.random.default_rng(seed)
    days = START + np.arange(n_days)
    delta = _ar1(rng, RHO, INNOVATION_SD, n_days)
    spot_close = 1.0 + delta
    fair = (1.0 - P_HORIZON) * (1.0 + RHO**HORIZON * delta) + P_HORIZON * RECOVERY
    futures_close = fair + rng.normal(0.0, FUTURES_NOISE_SD, n_days)
    btc_close = BTC_LEVEL * np.exp(_ar1(rng, BTC_REVERSION, BTC_STEP_SD, n_days))

    spot = _bars(days, spot_close, rng, RANGE_SD, VOLUME_SCALE)
    futures_all = _bars(days, futures_close, rng, RANGE_SD, VOLUME_SCALE)
    btc = _bars(days, btc_close, rng, BTC_RANGE_SD, VOLUME_SCALE / 100.0)

    missing = rng.choice(np.arange(1, n_days), size=n_missing, replace=False)
    keep = np.ones(n_days, dtype=bool)
    keep[missing] = False
    futures = Bars(*(getattr(futures_all, f)[keep] for f in ("days",) + COLUMNS))
    return Market(spot=spot, futures=futures, btc=btc, matched_days=days[keep], n_missing=n_missing)


def bars_csv(bars: Bars) -> str:
    """CSV text with shortest round-trip float reprs, so parsing is exact."""
    dates = np.datetime_as_string(bars.days, unit="D").tolist()
    cols = [getattr(bars, name).tolist() for name in COLUMNS]
    lines = ["timestamp,open,high,low,close,volume"]
    lines += [f"{d},{o!r},{h!r},{lo!r},{c!r},{v!r}" for d, o, h, lo, c, v in zip(dates, *cols)]
    return "\n".join(lines) + "\n"


def write_market(market: Market, directory: Path) -> dict[str, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in ("spot", "futures", "btc"):
        paths[name] = directory / f"{name}.csv"
        paths[name].write_text(bars_csv(getattr(market, name)), encoding="utf-8")
    return paths
