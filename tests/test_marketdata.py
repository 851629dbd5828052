"""Tests for CSV ingestion, bar validation, and spot/futures alignment."""

import datetime
import io
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pegrisk.errors import AlignmentError, SchemaError, ValidationError
from pegrisk.marketdata import (
    AlignedObservation,
    AlignedSeries,
    Bar,
    BarSeries,
    align_daily,
    parse_bars,
    read_aligned_csv,
    write_aligned_csv,
)

HEADER = "timestamp,open,high,low,close,volume"


def _series(text):
    return parse_bars(io.StringIO(text), instrument="USDT_USD", venue="test")


def _bars_csv(rows):
    return HEADER + "\n" + "\n".join(rows) + "\n"


class TestParseBars:
    def test_single_row(self):
        series = _series(_bars_csv(["2020-03-12,1.0005,1.0119,0.9971,1.0010,5e6"]))
        assert len(series) == 1
        bar = series.bars[0]
        assert bar.high == 1.0119
        assert bar.low == 0.9971
        assert bar.open == 1.0005
        assert bar.close == 1.0010
        assert bar.volume == 5e6
        assert bar.timestamp.isoformat() == "2020-03-12"

    def test_empty_body(self):
        series = _series(HEADER + "\n")
        assert len(series) == 0

    def test_high_below_low_names_row(self):
        text = _bars_csv(
            ["2020-03-12,1.0,1.001,0.999,1.0,1e6", "2020-03-13,0.995,0.99,1.01,1.0,1e6"]
        )
        with pytest.raises(ValidationError, match="line 3"):
            _series(text)

    def test_missing_column_is_schema_error(self):
        text = "timestamp,open,high,low,volume\n2020-03-12,1,1,1,1\n"
        with pytest.raises(SchemaError, match="close"):
            _series(text)

    def test_malformed_float_names_line(self):
        text = _bars_csv(["2020-03-12,1.0,1.1,0.9,oops,1e6"])
        with pytest.raises(ValidationError, match="line 2"):
            _series(text)

    def test_nonpositive_price_rejected(self):
        text = _bars_csv(["2020-03-12,1.0,1.1,-0.9,1.0,1e6"])
        with pytest.raises(ValidationError, match="line 2"):
            _series(text)

    @pytest.mark.parametrize("column", range(1, 6))
    def test_infinite_value_rejected(self, column):
        cells = "2020-03-12,1.0,1.1,0.9,1.0,1e6".split(",")
        cells[column] = "inf"
        with pytest.raises(ValidationError, match="line 2: .* must be finite"):
            _series(_bars_csv([",".join(cells)]))

    def test_duplicate_date_rejected(self):
        text = _bars_csv(
            ["2020-03-12,1.0,1.1,0.9,1.0,1e6", "2020-03-12,1.0,1.1,0.9,1.0,1e6"]
        )
        with pytest.raises(ValidationError, match="duplicate"):
            _series(text)

    def test_custom_schema(self):
        text = "Date,O,H,L,C,V\n2020-03-12,1.0,1.1,0.9,1.0,1e6\n"
        series = parse_bars(
            io.StringIO(text),
            schema={
                "timestamp": "Date",
                "open": "O",
                "high": "H",
                "low": "L",
                "close": "C",
                "volume": "V",
            },
        )
        assert len(series) == 1

    def test_unknown_schema_role_rejected(self):
        with pytest.raises(SchemaError, match="unknown schema roles"):
            parse_bars(io.StringIO(HEADER + "\n"), schema={"colour": "x"})

    def test_rows_sorted_regardless_of_file_order(self):
        rows = [
            "2020-03-14,1.0,1.1,0.9,1.0,1e6",
            "2020-03-12,1.0,1.1,0.9,1.0,2e6",
            "2020-03-13,1.0,1.1,0.9,1.0,3e6",
        ]
        for _ in range(5):
            random.shuffle(rows)
            series = _series(_bars_csv(rows))
            assert [b.timestamp.isoformat() for b in series.bars] == [
                "2020-03-12",
                "2020-03-13",
                "2020-03-14",
            ]

    def test_timestamp_with_time_component(self):
        series = _series(_bars_csv(["2020-03-12T00:00:00Z,1.0,1.1,0.9,1.0,1e6"]))
        assert series.bars[0].timestamp.isoformat() == "2020-03-12"


class TestBarInvariants:
    def test_low_above_open_rejected(self):
        with pytest.raises(ValidationError):
            Bar(timestamp=datetime.date(2020, 3, 12), open=0.99, high=1.1, low=1.0, close=1.05, volume=1.0)

    def test_negative_volume_rejected(self):
        with pytest.raises(ValidationError):
            Bar(timestamp=datetime.date(2020, 3, 12), open=1.0, high=1.0, low=1.0, close=1.0, volume=-1.0)

    def test_empty_venue_rejected(self):
        with pytest.raises(ValidationError):
            BarSeries(instrument="X", venue="", bars=())


class TestAlignDaily:
    def test_basis_arithmetic(self):
        spot = _series(_bars_csv(["2020-06-01,1.0,1.01,0.99,1.0007,1e6"]))
        futures = _series(_bars_csv(["2020-06-01,1.0,1.01,0.99,0.9992,1e6"]))
        aligned = align_daily(spot, futures)
        obs = aligned.observations[0]
        assert obs.delta == pytest.approx(0.0007, abs=1e-12)
        assert obs.basis_bps == pytest.approx(-15.0, abs=1e-9)
        assert obs.delta == obs.s - 1.0
        assert obs.basis_bps == (obs.f - obs.s) * 1e4

    def test_perfect_peg(self):
        spot = _series(_bars_csv(["2020-06-01,1.0,1.0,1.0,1.0,1e6"]))
        futures = _series(_bars_csv(["2020-06-01,1.0,1.0,1.0,1.0,1e6"]))
        obs = align_daily(spot, futures).observations[0]
        assert obs.delta == 0.0
        assert obs.basis_bps == 0.0

    def test_partial_overlap_counted(self):
        spot = _series(
            _bars_csv(["2020-06-01,1,1,1,1,1", "2020-06-02,1,1,1,1,1"])
        )
        futures = _series(
            _bars_csv(["2020-06-02,1,1,1,1,1", "2020-06-03,1,1,1,1,1"])
        )
        aligned = align_daily(spot, futures)
        assert len(aligned) == 1
        assert aligned.observations[0].date.isoformat() == "2020-06-02"
        assert aligned.join_report.matched == 1
        assert aligned.join_report.dropped_spot == 1
        assert aligned.join_report.dropped_futures == 1

    def test_empty_intersection(self):
        spot = _series(_bars_csv(["2020-06-01,1,1,1,1,1"]))
        futures = _series(_bars_csv(["2020-06-02,1,1,1,1,1"]))
        with pytest.raises(AlignmentError):
            align_daily(spot, futures)

    def test_empty_series(self):
        spot = _series(HEADER + "\n")
        futures = _series(_bars_csv(["2020-06-01,1,1,1,1,1"]))
        with pytest.raises(AlignmentError):
            align_daily(spot, futures)

    def test_venues_carried_through(self):
        spot = parse_bars(
            io.StringIO(_bars_csv(["2020-06-01,1,1,1,1,1"])), venue="venue-a"
        )
        futures = parse_bars(
            io.StringIO(_bars_csv(["2020-06-01,1,1,1,1,1"])), venue="venue-b"
        )
        aligned = align_daily(spot, futures)
        assert aligned.spot_venue == "venue-a"
        assert aligned.futures_venue == "venue-b"


price = st.floats(min_value=0.9, max_value=1.1, allow_nan=False, allow_infinity=False)


@given(st.lists(st.tuples(price, price), min_size=1, max_size=20))
def test_aligned_csv_roundtrip_bit_exact(prices):
    observations = tuple(
        AlignedObservation.from_prices(datetime.date(2020, 1, 1) + datetime.timedelta(days=i), s, f)
        for i, (s, f) in enumerate(prices)
    )
    series = AlignedSeries(observations=observations)
    buf = io.StringIO()
    write_aligned_csv(series, buf)
    reread = read_aligned_csv(io.StringIO(buf.getvalue()))
    assert len(reread) == len(series)
    for a, b in zip(series.observations, reread.observations):
        assert a.date == b.date
        assert a.s == b.s and a.f == b.f
        assert a.delta == b.delta and a.basis_bps == b.basis_bps


@given(st.tuples(price, price))
def test_basis_matches_delta_identity(prices):
    s, f = prices
    obs = AlignedObservation.from_prices(datetime.date(2020, 1, 1), s, f)
    assert abs(obs.basis_bps) == pytest.approx(abs(obs.delta - (obs.f - 1.0)) * 1e4, abs=1e-9)


def test_align_order_insensitive():
    rows = [f"2020-06-{d:02d},1.0,1.01,0.99,1.000{d},1e6" for d in range(1, 8)]
    fut_rows = [f"2020-06-{d:02d},1.0,1.01,0.99,0.999{d},1e6" for d in range(1, 8)]
    base = align_daily(_series(_bars_csv(rows)), _series(_bars_csv(fut_rows)))
    for seed in range(3):
        rng = random.Random(seed)
        shuffled_rows = rows[:]
        shuffled_fut = fut_rows[:]
        rng.shuffle(shuffled_rows)
        rng.shuffle(shuffled_fut)
        again = align_daily(
            _series(_bars_csv(shuffled_rows)), _series(_bars_csv(shuffled_fut))
        )
        assert again.observations == base.observations
