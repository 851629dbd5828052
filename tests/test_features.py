"""Tests for the volatility and return regressors and the panel join."""

import io
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pegrisk.errors import AlignmentError, DomainError, EstimationError
from pegrisk.features import (
    PARKINSON_FACTOR,
    build_feature_panel,
    daily_returns,
    intraday_vol,
)
from pegrisk.marketdata import BarSeries, write_table_csv
from pegrisk.pegmodel import ProbSeries

START = np.datetime64("2020-02-28")


def _series(ohlc_rows, venue="test"):
    o, h, lo, c = np.array(ohlc_rows, dtype=float).reshape(-1, 4).T
    days = START + np.arange(c.size)
    return BarSeries(date=days, open=o, high=h, low=lo, close=c, volume=np.full(c.size, 1e6), venue=venue)


def _flat_series(closes, **kwargs):
    return _series([(c, c, c, c) for c in closes], **kwargs)


def _prob_points(n, value_bps=30.0, first_day=0):
    return ProbSeries(
        date=START + first_day + np.arange(n),
        p_horizon=np.full(n, value_bps / (365.0 / 90.0) / 1e4),
        p_annualized_bps=np.full(n, value_bps),
        trimmed=np.zeros(n, dtype=bool),
    )


class TestIntradayVol:
    def test_zero_range_is_zero(self):
        series = _flat_series([1.0, 1.0])
        assert all(v == 0.0 for v in intraday_vol(series, "parkinson"))
        assert all(v == 0.0 for v in intraday_vol(series, "range"))

    def test_parkinson_formula_value(self):
        ratio = math.exp(0.0033302)
        series = _series([(1.0, ratio, 1.0, 1.0)])
        (sigma,) = intraday_vol(series, "parkinson")
        assert sigma == pytest.approx(0.0033302 / PARKINSON_FACTOR * 1e4, rel=1e-12)
        assert sigma == pytest.approx(20.0, abs=1e-3)

    def test_range_formula_value(self):
        series = _series([(1.0, 1.01, 0.99, 1.0)])
        (sigma,) = intraday_vol(series, "range")
        assert sigma == pytest.approx(200.0, abs=1e-9)

    def test_unknown_estimator(self):
        with pytest.raises(DomainError):
            intraday_vol(_flat_series([1.0]), "garman")

    @given(st.floats(min_value=1.0 + 1e-6, max_value=3.0))
    def test_parkinson_below_range_when_close_at_low(self, ratio):
        low = 1.0
        series = _series([(low, low * ratio, low, low)])
        (parkinson,) = intraday_vol(series, "parkinson")
        (range_,) = intraday_vol(series, "range")
        assert 0.0 < parkinson / range_ <= 1.0

    @given(st.floats(min_value=1.0 + 1e-6, max_value=5.0))
    def test_ratio_at_midpoint_close_matches_closed_form(self, ratio):
        low = 0.9
        high = low * ratio
        mid = (high + low) / 2.0
        series = _series([(mid, high, low, mid)])
        (parkinson,) = intraday_vol(series, "parkinson")
        (range_,) = intraday_vol(series, "range")
        expected = math.log(ratio) * (ratio + 1.0) / (2.0 * (ratio - 1.0) * PARKINSON_FACTOR)
        assert parkinson / range_ == pytest.approx(expected, rel=1e-9)


class TestDailyReturns:
    def test_single_step_up(self):
        series = _flat_series([100.0, 101.0])
        (r,) = daily_returns(series)
        assert r == pytest.approx(100.0, abs=1e-9)
        assert series.date[1] == START + 1  # the return belongs to the second bar

    def test_crash_scale_drop(self):
        series = _flat_series([100.0, 50.0])
        (r,) = daily_returns(series)
        assert r == pytest.approx(-5000.0, abs=1e-9)

    def test_constant_closes_zero(self):
        series = _flat_series([3.0] * 6)
        assert all(r == 0.0 for r in daily_returns(series))

    def test_needs_two_bars(self):
        with pytest.raises(EstimationError):
            daily_returns(_flat_series([1.0]))

    @given(st.lists(st.floats(min_value=10.0, max_value=1000.0), min_size=2, max_size=30))
    def test_log_returns_telescope(self, closes):
        series = _flat_series(closes)
        total = sum(math.log1p(r / 1e4) for r in daily_returns(series))
        assert total == pytest.approx(math.log(closes[-1] / closes[0]), abs=1e-12)


class TestBuildFeaturePanel:
    def test_full_join_counts(self):
        n = 410
        rng = np.random.default_rng(0)
        closes = 20000.0 * np.exp(np.cumsum(rng.normal(0, 0.02, n)))
        btc = _series([(c, c * 1.01, c * 0.99, c) for c in closes])
        usdt = _series([(1.0, 1.001, 0.999, 1.0)] * n)
        panel = build_feature_panel(_prob_points(n), btc, usdt)
        assert len(panel) == n
        assert np.count_nonzero(~np.isnan(panel.r_btc_bps)) == n - 1
        assert math.isnan(panel.r_btc_bps[0])

    def test_disjoint_dates_error(self):
        btc = _flat_series([1.0, 1.0])
        usdt = _flat_series([1.0, 1.0])
        late = _prob_points(3, value_bps=0.0, first_day=100)
        with pytest.raises(AlignmentError):
            build_feature_panel(late, btc, usdt)

    def test_empty_probability_series_error(self):
        with pytest.raises(AlignmentError, match="^probability series is empty$"):
            build_feature_panel(_prob_points(0), _flat_series([1.0]), _flat_series([1.0]))

    def test_single_common_date_has_no_return(self):
        btc = _flat_series([1.0])
        usdt = _flat_series([1.0])
        panel = build_feature_panel(_prob_points(1), btc, usdt)
        assert len(panel) == 1
        assert math.isnan(panel.r_btc_bps[0])

    def test_csv_empty_cell_for_missing_return(self):
        btc = _flat_series([1.0, 1.01])
        usdt = _flat_series([1.0, 1.0])
        panel = build_feature_panel(_prob_points(2), btc, usdt)
        buf = io.StringIO()
        write_table_csv(panel, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "date,p_annualized_bps,sigma_btc_bps,sigma_usdt_bps,r_btc_bps"
        assert lines[1].endswith(",")  # first date: no return
        assert not lines[2].endswith(",")
