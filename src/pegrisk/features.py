"""Regressors for the default-risk panel, all in basis points.

Daily OHLCV bars support two range-based intraday volatility estimators:

    range:      (high - low) / close * 1e4
    parkinson:  ln(high / low) / (2 * sqrt(ln 2)) * 1e4

Parkinson is the default (it estimates the daily return standard deviation
from the high/low range under driftless diffusion); the plain range is kept
for sensitivity checks. Returns are close-to-close and therefore undefined
on a series' first date.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import AlignmentError, DomainError, EstimationError
from .marketdata import BarSeries, Dates, Floats, Table

if TYPE_CHECKING:  # an annotation only
    from .pegmodel import ProbSeries

PARKINSON_FACTOR = 2.0 * math.sqrt(math.log(2.0))

ESTIMATORS = ("parkinson", "range")


def intraday_vol(bars: BarSeries, estimator: str = "parkinson") -> np.ndarray:
    """Per-bar intraday volatility in basis points."""
    if estimator not in ESTIMATORS:
        raise DomainError(f"unknown estimator {estimator!r}; expected one of {ESTIMATORS}")
    if estimator == "range":
        return (bars.high - bars.low) / bars.close * 1e4
    # scalar libm log, one value at a time: np.log differs from it in the
    # last bit on some inputs, which would change the regression tables
    log_range = np.array([math.log(x) for x in (bars.high / bars.low).tolist()])
    return log_range / PARKINSON_FACTOR * 1e4


def daily_returns(bars: BarSeries) -> np.ndarray:
    """Close-to-close returns in basis points, one per consecutive bar pair.

    Element i is the return into the bar at ``bars.date[i + 1]``.
    """
    if len(bars) < 2:
        raise EstimationError(f"need at least 2 bars for returns, got {len(bars)}")
    return (bars.close[1:] / bars.close[:-1] - 1.0) * 1e4


@dataclass(frozen=True, eq=False)
class Panel(Table):
    """The regression panel: annualized probability plus features, by date.

    ``r_btc_bps`` is NaN on the first BTC date, where no return is defined.
    """

    date: Dates
    p_annualized_bps: Floats
    sigma_btc_bps: Floats
    sigma_usdt_bps: Floats
    r_btc_bps: Floats


def build_feature_panel(
    prob: ProbSeries,
    btc: BarSeries,
    usdt: BarSeries,
    estimator: str = "parkinson",
) -> Panel:
    """Join the probability series with BTC and USDT volatility and BTC returns on date.

    Rows without a return (the first BTC date) carry ``r_btc_bps = NaN``
    and are dropped only by regressions that use returns, so n probability
    points yield n rows for volatility-only designs and n-1 when returns
    enter.
    """
    if len(prob) == 0:
        raise AlignmentError("probability series is empty")
    sigma_btc, sigma_usdt = intraday_vol(btc, estimator), intraday_vol(usdt, estimator)
    returns = np.full(len(btc), np.nan)
    if len(btc) >= 2:
        returns[1:] = daily_returns(btc)
    days, in_btc, in_usdt = np.intersect1d(btc.date, usdt.date, assume_unique=True, return_indices=True)
    if days.size == 0:
        raise AlignmentError("no dates in common between the BTC and USDT series")
    days, in_prob, in_features = np.intersect1d(prob.date, days, assume_unique=True, return_indices=True)
    if days.size == 0:
        raise AlignmentError("no dates in common across the probability series and feature inputs")
    in_btc, in_usdt = in_btc[in_features], in_usdt[in_features]
    return Panel(
        date=days,
        p_annualized_bps=prob.p_annualized_bps[in_prob],
        sigma_btc_bps=sigma_btc[in_btc],
        sigma_usdt_bps=sigma_usdt[in_usdt],
        r_btc_bps=returns[in_btc],
    )

