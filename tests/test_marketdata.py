"""Tests for CSV ingestion, bar validation, and spot/futures alignment."""

import csv
import datetime
import io
import random
import re
from dataclasses import dataclass, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pegrisk import marketdata
from pegrisk.cli import main
from pegrisk.errors import AlignmentError, SchemaError, ValidationError
from pegrisk.features import Panel
from pegrisk.marketdata import (
    ROLES,
    AlignedSeries,
    BarSeries,
    align_daily,
    parse_bars,
    write_table_csv,
)
from pegrisk.pegmodel import ProbSeries

HEADER = "timestamp,open,high,low,close,volume"
DAY = datetime.date(2020, 3, 12)


def _series(text):
    return parse_bars(io.StringIO(text), venue="test")


def _bars_csv(rows):
    return HEADER + "\n" + "\n".join(rows) + "\n"


class TestParseBars:
    def test_single_row(self):
        series = _series(_bars_csv(["2020-03-12,1.0005,1.0119,0.9971,1.0010,5e6"]))
        assert len(series) == 1
        assert series.high.tolist() == [1.0119]
        assert series.low.tolist() == [0.9971]
        assert series.open.tolist() == [1.0005]
        assert series.close.tolist() == [1.0010]
        assert series.volume.tolist() == [5e6]
        assert series.date.astype(str).tolist() == ["2020-03-12"]

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

    def test_repeated_mapped_column_is_schema_error(self):
        text = HEADER + ",close\n2020-03-12,1.0,1.1,0.9,1.0,1e6,70\n"
        message = f"column 'close' appears 2 times in header {[*ROLES, 'close']}"
        for source in (io.StringIO(text), text.splitlines(keepends=True)):  # the block reader, then the row reader
            with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
                parse_bars(source)

    def test_repeated_unmapped_column_and_one_column_for_two_roles_read(self):
        series = _series(HEADER + ",note,note\n2020-03-12,1.0,1.1,0.9,1.0,1e6,a,b\n")
        assert series.close.tolist() == [1.0]
        schema = {"timestamp": "t", "open": "p", "high": "p", "low": "p", "close": "p", "volume": "v"}
        series = parse_bars(io.StringIO("t,p,v\n2020-03-12,1.0,1e6\n"), schema=schema)
        assert series.open.tolist() == series.close.tolist() == [1.0]

    def test_repeated_mapped_column_fails_the_command_at_parse(self, tmp_path, capsys):
        spot, futures, out = tmp_path / "spot.csv", tmp_path / "futures.csv", tmp_path / "out"
        spot.write_text(HEADER + ",close\n2020-03-12,1.0,1.1,0.9,1.0,1e6,70\n")
        futures.write_text(_bars_csv(["2020-03-12,1.0,1.1,0.9,1.0,1e6"]))
        assert main(["align", "--spot", str(spot), "--futures", str(futures), "--out", str(out)]) == 1
        message = f"{spot}: column 'close' appears 2 times in header {[*ROLES, 'close']}"
        assert capsys.readouterr().err == f'error stage=parse type=SchemaError msg="{message}"\n'
        assert not out.exists()

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
        days = ["2020-03-14", "2020-03-12", "2020-03-13", "2020-03-14", "2020-03-12", "2020-03-14"]
        for quote in ("", '"'):  # the block reader, then the row reader, which a quoted cell takes
            text = _bars_csv([f"{quote}{day}{quote},1.0,1.1,0.9,1.0,1e6" for day in days])
            # line 5 is the first to repeat a date in file order; line 6 repeats 2020-03-12, which sorts first
            with pytest.raises(ValidationError, match="^line 5: duplicate date 2020-03-14, first on line 2$"):
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
            assert series.date.astype(str).tolist() == [
                "2020-03-12",
                "2020-03-13",
                "2020-03-14",
            ]

    def test_lines_that_cannot_be_read_twice(self, tmp_path):
        text = _bars_csv(["2020-03-12,1.0,1.1,0.9,1.0,1e6"])
        path = tmp_path / "bars.csv"
        path.write_text("# preamble\n" + text)
        with path.open() as stream:
            next(stream)  # a text file advanced by next() cannot tell its position
            assert len(parse_bars(stream)) == 1
        assert len(parse_bars(text.splitlines())) == 1

    def test_timestamp_with_time_component(self):
        series = _series(_bars_csv(["2020-03-12T00:00:00Z,1.0,1.1,0.9,1.0,1e6"]))
        assert str(series.date[0]) == "2020-03-12"

    @pytest.mark.parametrize(
        "stamp", ["2020-03-12T23:00:00Z", "2020-03-12T23:00:00+00:00", "2020-03-12T23:00:00", "2020-03-12 23:00"]
    )
    def test_utc_and_naive_stamps_keep_their_date(self, stamp):
        for lines in (io.StringIO, str.splitlines):  # the block reader, then the row reader
            series = parse_bars(lines(_bars_csv([f"{stamp},1.0,1.1,0.9,1.0,1e6"])))
            assert series.date.tolist() == [DAY]

    @pytest.mark.parametrize("stamp", ["20200312", "2020-W11-4"])
    def test_other_iso_date_forms_keep_their_date(self, stamp):
        # date.fromisoformat reads these from Python 3.11 on; 3.10 rejects them
        for lines in (io.StringIO, str.splitlines):  # the block reader, then the row reader
            series = parse_bars(lines(_bars_csv([f"{stamp},1.0,1.1,0.9,1.0,1e6"])))
            assert series.date.tolist() == [DAY]

    @pytest.mark.parametrize(
        "stamp, offset", [("2020-03-12T23:00:00-05:00", "-0500"), ("2020-03-13T04:00+05:30", "+0530")]
    )
    def test_stamp_with_utc_offset_fails(self, stamp, offset):
        # 2020-03-12T23:00:00-05:00 is 2020-03-13 in UTC: neither date can be kept without a record
        text = _bars_csv(["2020-03-11,1.0,1.1,0.9,1.0,1e6", f"{stamp},1.0,1.1,0.9,1.0,1e6"])
        message = f"line 3: time stamp '{stamp}' is not in UTC (offset {offset})"
        for lines in (io.StringIO, str.splitlines):
            with pytest.raises(ValidationError) as caught:
                parse_bars(lines(text))
            assert str(caught.value) == message


def _bar_series(open, high, low, close, volume, venue="test"):
    return BarSeries(date=[DAY], open=[open], high=[high], low=[low], close=[close], volume=[volume], venue=venue)


class TestBarInvariants:
    def test_low_above_open_rejected(self):
        with pytest.raises(ValidationError):
            _bar_series(open=0.99, high=1.1, low=1.0, close=1.05, volume=1.0)

    def test_negative_volume_rejected(self):
        with pytest.raises(ValidationError):
            _bar_series(open=1.0, high=1.0, low=1.0, close=1.0, volume=-1.0)

    def test_empty_venue_rejected(self):
        with pytest.raises(ValidationError):
            BarSeries(date=[], open=[], high=[], low=[], close=[], volume=[], venue="")

    def test_unequal_columns_rejected(self):
        with pytest.raises(ValidationError, match="differ in length"):
            BarSeries(date=[DAY], open=[1.0, 1.0], high=[1.0], low=[1.0], close=[1.0], volume=[1.0], venue="test")

    @pytest.mark.parametrize(
        "dates, s, message",
        [
            ([DAY, DAY - datetime.timedelta(days=1)], [1.0, 1.0], "dates out of order at 2020-03-11"),
            ([DAY, DAY], [1.0, 1.0], "duplicate date 2020-03-12"),
            ([DAY], [[1.0]], "column s must be one-dimensional"),
        ],
        ids=["out-of-order", "repeated", "two-dimensional"],
    )
    def test_table_rejects_bad_dates_and_columns(self, dates, s, message):
        with pytest.raises(ValidationError) as caught:
            AlignedSeries(date=dates, s=s, f=[1.0] * len(dates))
        assert str(caught.value) == message


class TestTableColumns:
    """Each table declares a column once, as a typed field; ``COLUMNS`` and ``HEADER`` follow from the fields."""

    # each table's COLUMNS and HEADER as they were declared by hand
    DECLARED = [
        (
            BarSeries,
            {"date": "datetime64[D]", **dict.fromkeys(("open", "high", "low", "close", "volume"), "float64")},
            ("timestamp", "open", "high", "low", "close", "volume"),
        ),
        (
            AlignedSeries,
            {"date": "datetime64[D]", "s": "float64", "f": "float64"},
            ("date", "s", "f", "delta", "basis_bps"),
        ),
        (
            ProbSeries,
            {"date": "datetime64[D]", "p_horizon": "float64", "p_annualized_bps": "float64", "trimmed": "bool"},
            ("date", "p_horizon", "p_annualized_bps", "trimmed"),
        ),
        (
            Panel,
            {
                "date": "datetime64[D]",
                **dict.fromkeys(("p_annualized_bps", "sigma_btc_bps", "sigma_usdt_bps", "r_btc_bps"), "float64"),
            },
            ("date", "p_annualized_bps", "sigma_btc_bps", "sigma_usdt_bps", "r_btc_bps"),
        ),
    ]

    @pytest.mark.parametrize("table, columns, header", DECLARED, ids=lambda v: getattr(v, "__name__", ""))
    def test_derived_columns_and_header(self, table, columns, header):
        assert list(table.COLUMNS.items()) == list(columns.items())  # in field order
        assert table.HEADER == header
        assert table.Row._fields == tuple(columns)

    def test_header_defaults_to_the_column_names(self):
        @dataclass(frozen=True, eq=False)
        class Marks(marketdata.Table):
            date: marketdata.Dates
            level: marketdata.Floats
            flagged: marketdata.Flags
            source: str = "test"

        assert Marks.COLUMNS == {"date": "datetime64[D]", "level": "float64", "flagged": "bool"}
        assert Marks.HEADER == ("date", "level", "flagged")
        marks = Marks(date=[DAY], level=[1], flagged=[0])
        assert [column.dtype for column in marks.columns()] == [np.dtype("datetime64[D]"), float, bool]
        assert list(marks) == [Marks.Row(DAY, 1.0, False)]
        stream = io.StringIO()
        write_table_csv(replace(marks, level=[0.5]), stream)
        assert stream.getvalue() == "date,level,flagged\n2020-03-12,0.5,false\n"


class TestAlignDaily:
    def test_basis_arithmetic(self):
        spot = _series(_bars_csv(["2020-06-01,1.0,1.01,0.99,1.0007,1e6"]))
        futures = _series(_bars_csv(["2020-06-01,1.0,1.01,0.99,0.9992,1e6"]))
        aligned = align_daily(spot, futures)
        assert aligned.delta[0] == pytest.approx(0.0007, abs=1e-12)
        assert aligned.basis_bps[0] == pytest.approx(-15.0, abs=1e-9)
        assert aligned.delta[0] == aligned.s[0] - 1.0
        assert aligned.basis_bps[0] == (aligned.f[0] - aligned.s[0]) * 1e4

    def test_perfect_peg(self):
        spot = _series(_bars_csv(["2020-06-01,1.0,1.0,1.0,1.0,1e6"]))
        futures = _series(_bars_csv(["2020-06-01,1.0,1.0,1.0,1.0,1e6"]))
        aligned = align_daily(spot, futures)
        assert aligned.delta[0] == 0.0
        assert aligned.basis_bps[0] == 0.0

    def test_partial_overlap_counted(self):
        spot = _series(
            _bars_csv(["2020-06-01,1,1,1,1,1", "2020-06-02,1,1,1,1,1"])
        )
        futures = _series(
            _bars_csv(["2020-06-02,1,1,1,1,1", "2020-06-03,1,1,1,1,1"])
        )
        aligned = align_daily(spot, futures)
        assert len(aligned) == 1
        assert str(aligned.date[0]) == "2020-06-02"
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



price = st.floats(min_value=0.9, max_value=1.1, allow_nan=False, allow_infinity=False)


def _reread_aligned(series: AlignedSeries) -> dict[str, np.ndarray]:
    """The columns of ``series`` written by write_table_csv, read back by header name with numpy."""
    buf = io.StringIO()
    write_table_csv(series, buf)
    header, *lines = buf.getvalue().splitlines()
    assert header == "date,s,f,delta,basis_bps"
    dates = np.array([line.split(",")[0] for line in lines], dtype="datetime64[D]")
    values = np.loadtxt(lines, delimiter=",", usecols=range(1, 5), ndmin=2).T
    return dict(zip(header.split(","), [dates, *values]))


@given(st.lists(st.tuples(price, price), min_size=1, max_size=20))
def test_aligned_csv_roundtrip_bit_exact(prices):
    s, f = zip(*prices)
    days = np.datetime64("2020-01-01") + np.arange(len(prices))
    series = AlignedSeries(date=days, s=s, f=f)
    reread = _reread_aligned(series)
    assert len(reread["date"]) == len(series)
    for column in ("date", "s", "f", "delta", "basis_bps"):
        assert np.array_equal(getattr(series, column), reread[column])


@given(st.tuples(price, price))
def test_basis_matches_delta_identity(prices):
    s, f = prices
    aligned = AlignedSeries(date=["2020-01-01"], s=[s], f=[f])
    assert abs(aligned.basis_bps[0]) == pytest.approx(abs(aligned.delta[0] - (f - 1.0)) * 1e4, abs=1e-9)


@given(st.lists(st.tuples(price, price), min_size=1, max_size=20))
def test_aligned_csv_stores_the_delta_and_basis_of_its_prices(prices):
    s, f = zip(*prices)
    reread = _reread_aligned(AlignedSeries(date=np.datetime64("2020-01-01") + np.arange(len(prices)), s=s, f=f))
    assert np.array_equal(reread["delta"], reread["s"] - 1.0)
    assert np.array_equal(reread["basis_bps"], (reread["f"] - reread["s"]) * 1e4)


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
        assert [column.tolist() for column in again.columns()] == [column.tolist() for column in base.columns()]


@st.composite
def bar_rows(draw):
    """CSV rows of valid bars on distinct dates, in no particular order."""
    offsets = draw(st.lists(st.integers(0, 3000), min_size=1, max_size=25, unique=True))
    rows = []
    for offset in offsets:
        day = datetime.date(2015, 1, 1) + datetime.timedelta(days=offset)
        open_, close = draw(price), draw(price)
        high = max(open_, close) * (1.0 + draw(st.floats(0.0, 0.05)))
        low = min(open_, close) * (1.0 - draw(st.floats(0.0, 0.05)))
        volume = draw(st.floats(0.0, 1e9))
        rows.append(",".join([day.isoformat(), *map(repr, (open_, high, low, close, volume))]))
    return rows


def _columns(series):
    return [getattr(series, name) for name in BarSeries.COLUMNS]


@given(bar_rows(), st.data())
def test_parse_invariant_to_row_order(rows, data):
    permuted = data.draw(st.permutations(rows))
    base, again = _series(_bars_csv(rows)), _series(_bars_csv(permuted))
    assert all(np.array_equal(a, b) for a, b in zip(_columns(base), _columns(again)))


# a bad row -> the message it raises after "line N: "
INVALID_ROWS = {
    "2030-01-01,1.0,1.1,0.9,inf,1e6": "close must be finite, got inf",
    "2030-01-01,1.0,1.1,-0.9,1.0,1e6": "low must be strictly positive, got -0.9",
    "2030-01-01,1.0,0.9,1.1,1.0,1e6": "high 0.9 below low 1.1",
    "2030-01-01,1.0,1.05,0.9,1.1,1e6": "high 1.05 below open/close",
    "2030-01-01,1.0,1.1,0.9,1.0,-5": "volume must be non-negative, got -5.0",
    "2030-01-01,1.0,1.1,0.9,oops,1e6": "could not convert string to float: 'oops'",
    "2030-02-30,1.0,1.1,0.9,1.0,1e6": "day is out of range for month",
    "2030-01-01,1.0,1.1": "list index out of range",
    # dates date.fromisoformat rejects: the block reader declines them, so the row reader names them
    "0000-01-01,1.0,1.1,0.9,1.0,1e6": "year 0 is out of range",
    "10000-01-01,1.0,1.1,0.9,1.0,1e6": "Invalid isoformat string: '10000-01-01'",
    "NaT,1.0,1.1,0.9,1.0,1e6": "Invalid isoformat string: 'NaT'",
    "2030,1.0,1.1,0.9,1.0,1e6": "Invalid isoformat string: '2030'",
    # a date a fixed-width text field would cut to ten characters
    "2030-01-011,1.0,1.1,0.9,1.0,1e6": "Invalid isoformat string: '2030-01-011'",
}


def _small_blocks(chars):
    """Read CSV text ``chars`` characters at a time, so rows straddle block ends."""
    return mock.patch.object(marketdata, "BLOCK_CHARS", chars)


@given(bar_rows(), st.sampled_from(sorted(INVALID_ROWS)), st.integers(1, 64), st.data())
def test_invalid_row_named_by_file_line(rows, bad, block_chars, data):
    position = data.draw(st.integers(0, len(rows)))
    text = _bars_csv(rows[:position] + [bad] + rows[position:])
    message = f"line {position + 2}: {INVALID_ROWS[bad]}"
    with _small_blocks(block_chars), pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        _series(text)


@pytest.mark.parametrize("bad", sorted(INVALID_ROWS))
def test_every_invalid_row_named_by_file_line(bad):
    # each bad row on every run, where the property above samples them
    message = f"line 3: {INVALID_ROWS[bad]}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        _series(_bars_csv(["2015-01-01,1.0,1.1,0.9,1.0,1e6", bad, "2015-01-02,1.0,1.1,0.9,1.0,1e6"]))


def _note_csv(day="2020-01-02", high="1.1", volume="5"):
    """Three bars whose first spans lines 2 and 3 in a quoted note; ``day`` is line 4's date, the rest line 5's."""
    rows = ['2020-01-01,1,1.1,0.9,1,5,"a\nb"', f"{day},1,1.1,0.9,1,5,x", f"2020-01-03,1,{high},0.9,1,{volume},x"]
    return "timestamp,open,high,low,close,volume,note\n" + "\n".join(rows) + "\n"


@pytest.mark.parametrize(
    "text, expected",
    [
        # a quoted cell spans two lines, each as wide as the header
        ('timestamp,open,high,low,close,volume,note\n2020-01-01,1,1,1,1,1,"a\n2020-01-02,1,1,1,1,1,b"\n', 1),
        # a long row and a short one that together hold two rows' cells
        (_bars_csv(["2020-01-01,1,1,1,1,1,2020-01-02", "1,1,1,1,1"]), "line 3: Invalid isoformat string: '1'"),
        # a carriage return inside a row ends it
        (_bars_csv(["2020-01-01,1.0,1.1,0.9\r,1.0,1e6"]), "line 2: list index out of range"),
        ('"timestamp",open,high,low,close,volume\n2020-01-01,1,1,1,1,1\n', 1),
        # a blank row, which loadtxt would skip, before a date that is not the first cell
        ("open,timestamp,high,low,close,volume\n\n1,2020-01-01,1,1,1,1\n", 1),
        # after a quoted cell spans lines 2 and 3, an error names the line its row starts on
        (_note_csv(high="0.8"), "line 5: high 0.8 below low 0.9"),
        (_note_csv(volume="zz"), "line 5: could not convert string to float: 'zz'"),
        (_note_csv(day="2020-01-01"), "line 4: duplicate date 2020-01-01, first on line 2"),
    ],
    ids=[
        "quoted-line-feed",
        "realigned-cells",
        "carriage-return",
        "quoted-header",
        "blank-row",
        "bad-bar-after-quoted-line-feed",
        "bad-cell-after-quoted-line-feed",
        "repeated-date-after-quoted-line-feed",
    ],
)
def test_rows_only_the_row_reader_reads(text, expected):
    stream = io.StringIO(text, newline="")  # as the CLI opens files
    if isinstance(expected, int):
        assert len(parse_bars(stream)) == expected
    else:
        with pytest.raises(ValidationError, match=f"^{re.escape(expected)}$"):
            parse_bars(stream)


def test_cell_only_float_reads_takes_the_row_path():
    body = mock.patch.object(marketdata, "_read_body", wraps=marketdata._read_body)
    with body as read_body:
        series = _series(_bars_csv(["2020-01-01,1.0,1.1,0.9,1.0,1_000"]))
    assert read_body.called
    assert series.volume.tolist() == [float("1_000")]


def test_ascii_separator_in_an_ignored_cell_takes_the_row_path():
    rows = ["2020-01-01,1.0,1.1,0.9,1.0,1e6,{}", "2020-01-02,1.0,1.2,0.9,1.1,2e6,note"]
    text = HEADER + ",extra\n" + "\n".join(rows) + "\n"
    with mock.patch.object(marketdata, "_read_body", wraps=marketdata._read_body) as read_body:
        series = _series(text.format("\x1c"))
    assert read_body.called
    assert _bits(series.columns()) == _bits(_series(text.format("")).columns())


@pytest.mark.parametrize("pad", ["\x1c", "\x1d", "\x1e", "\x1f"])
def test_cell_padded_with_an_ascii_separator_fails_as_float_does(pad):
    # str.isspace() holds for these, but float() does not strip them
    text = _bars_csv(["2020-01-01,1.0,1.1,0.9,1.0,1e6", f"2020-01-02,1.0,1.1,0.9,1.0,{pad}1e6"])
    message = f"line 3: could not convert string to float: {pad + '1e6'!r}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        _series(text)


def test_blank_header_row_names_no_columns():
    with pytest.raises(SchemaError, match=r"in header \[\]$"):
        _series("\n2020-01-01,1,1,1,1,1\n")


def test_cell_over_csv_field_limit_fails_as_csv_reader_does():
    limit = csv.field_size_limit(16)
    try:
        long_cell = ["2020-01-01,1,1,1,1,1", "2020-01-02,1.0,1.1,0.9,1.00000010000000001,1e6"]
        with pytest.raises(ValidationError, match=r"^line 3: field larger than field limit \(16\)$"):
            _series(_bars_csv(long_cell))
        # a blank row sends the file to the row reader, which reads the header again
        long_name = HEADER + ",x" + "x" * 16 + "\n2020-01-01,1,1,1,1,1,1\n\n"
        with pytest.raises(ValidationError, match=r"^line 1: field larger than field limit \(16\)$"):
            _series(long_name)
    finally:
        csv.field_size_limit(limit)


def _reference_columns(text, schema, newline):
    """parse_bars' columns as csv.reader and float() give them, one row at a time."""
    names = {role: schema.get(role, role) for role in ROLES}
    reader = csv.reader(io.StringIO(text, newline=newline))
    header = [cell.strip() for cell in next(reader)]
    t, *floats = (header.index(names[role]) for role in ROLES)
    rows = []
    for row in reader:
        if not any(cell.strip() for cell in row):
            continue
        stamp = row[t].strip()
        try:
            day = datetime.date.fromisoformat(stamp)
        except ValueError:
            day = datetime.datetime.fromisoformat(stamp.replace("Z", "+00:00")).date()
        rows.append((day, *(float(row[k]) for k in floats)))
    rows.sort(key=lambda row: row[0])
    days, *values = zip(*rows)
    return [np.array(days, dtype="datetime64[D]"), *(np.array(column, dtype=float) for column in values)]


# one extra cell: anything but a separator, a quote or a line end; a clean one holds no ASCII separator either
extra_cell = st.text(st.characters(blacklist_characters=',"\r\n', blacklist_categories=("Cs",)), max_size=6)
clean_extra_cell = st.text(
    st.characters(blacklist_characters=',"\r\n\x1c\x1d\x1e\x1f', blacklist_categories=("Cs",)), max_size=6
)

# a float cell as float() reads it -> the same cell in another spelling float() reads the same
FLOAT_SPELLINGS = {
    "underscored": lambda cell: re.sub(r"(\d)(\d)", r"\1_\2", cell, count=1),
    "arabic-indic": lambda cell: cell.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
}


@st.composite
def csv_layouts(draw, clean=False):
    """Valid bars as CSV text in varied layouts, with the schema and newline mode to read it with.

    ``clean`` leaves out what only the row reader takes: quoted cells,
    float cells spelled with ``_`` or Arabic-Indic digits, blank or
    whitespace-only rows, ASCII separators in extra cells. Time-stamped
    dates stay: both readers take them.
    """
    rows = [row.split(",") for row in draw(bar_rows())]
    schema = {role: f"{role.upper()}_" for role in ROLES} if draw(st.booleans()) else {}
    n_extra = draw(st.integers(0, 2))
    names = [schema.get(role, role) for role in ROLES] + [f"x{i}" for i in range(n_extra)]
    order = draw(st.permutations(range(len(names))))
    lines = [[names[k] for k in order]]
    for cells in rows:
        cells = cells + [draw(clean_extra_cell if clean else extra_cell) for _ in range(n_extra)]
        styles = ["plain", "padded", "stamped"] + ([] if clean else ["quoted", *FLOAT_SPELLINGS])
        style = draw(st.sampled_from(styles))
        if style == "stamped":
            cells[0] += "T00:00:00Z"
        elif style == "padded":
            pad = draw(st.sampled_from([" ", "\xa0", "\x0b"]))
            cells = [f"{pad}{cell}{pad}" for cell in cells]
        elif style in FLOAT_SPELLINGS:
            cells[1:6] = map(FLOAT_SPELLINGS[style], cells[1:6])
        lines.append([f'"{cells[k]}"' if style == "quoted" else cells[k] for k in order])
    text_lines = [",".join(line) for line in lines]
    if not clean:
        for junk in draw(st.lists(st.sampled_from(["", "  ", " , ,", ",,,,,", "\t"]), max_size=3)):
            text_lines.insert(draw(st.integers(1, len(text_lines))), junk)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(text_lines) + (end if draw(st.booleans()) else "")
    return text, schema, draw(st.sampled_from(["", None, "\n"]))


def _bits(columns):
    return [(column.dtype, column.tobytes()) for column in columns]


@given(csv_layouts(), st.integers(1, 64))
def test_block_reader_matches_row_reference(layout, block_chars):
    text, schema, newline = layout
    with _small_blocks(block_chars):
        series = parse_bars(io.StringIO(text, newline=newline), schema=schema)
    assert _bits(series.columns()) == _bits(_reference_columns(text, schema, newline))


@given(csv_layouts(clean=True), st.integers(1, 64))
def test_clean_layouts_take_the_block_path(layout, block_chars):
    text, schema, newline = layout
    with _small_blocks(block_chars), mock.patch.object(marketdata, "_read_body", side_effect=AssertionError):
        series = parse_bars(io.StringIO(text, newline=newline), schema=schema)
    assert _bits(series.columns()) == _bits(_reference_columns(text, schema, newline))
