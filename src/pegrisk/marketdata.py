"""OHLCV ingestion and spot/futures alignment.

Input files are daily bars in CSV with a header row; the timestamp and the
five OHLCV roles may live under any column names (``DEFAULT_SCHEMA`` maps
role -> column). Alignment inner-joins spot and futures closes on calendar
date; the peg deviation (close - 1) and the futures-spot basis in basis
points are derived from the joined closes. Every series is a table of
equal-length numpy columns: ``datetime64[D]`` dates and float64 values.
CSV input is read a block of text at a time; the few inputs the block
reader does not take (see ``_read_blocks``) are read row by row, with the
same columns as the result. CSV output uses 17 significant digits so a
write/read cycle is lossless.
"""

from __future__ import annotations

import csv
import warnings
from collections import namedtuple
from dataclasses import dataclass
from datetime import date, datetime
from itertools import repeat
from typing import Callable, ClassVar, Iterable, Mapping, Sequence, TextIO

import numpy as np

from .errors import AlignmentError, SchemaError, ValidationError

ROLES = ("timestamp", "open", "high", "low", "close", "volume")
DEFAULT_SCHEMA: dict[str, str] = {role: role for role in ROLES}

ALIGNED_HEADER = ("date", "s", "f", "delta", "basis_bps")

# characters of CSV text parsed at a time; a block always ends at a line end
BLOCK_CHARS = 1 << 20
# rows of CSV text formatted at a time
WRITE_ROWS = 1 << 14
# the dates date.fromisoformat can return
_FIRST_DAY, _LAST_DAY = np.datetime64("0001-01-01"), np.datetime64("9999-12-31")


def fmt_float(x: float) -> str:
    """Format a float with 17 significant digits (round-trip exact)."""
    return format(x, ".17g")


def _cells(column: np.ndarray) -> list[str]:
    """ISO dates, true/false flags, or 17-digit floats with NaN as an empty cell."""
    if column.dtype.kind == "M":
        return np.datetime_as_string(column, unit="D").tolist()
    if column.dtype.kind == "b":
        return np.where(column, "true", "false").tolist()
    return [fmt_float(x) if x == x else "" for x in column.tolist()]


def write_csv(stream: TextIO, header: Iterable[str], *columns: np.ndarray) -> None:
    """A header row, then one row per position of the equal-length columns.

    No cell needs CSV quoting, so rows are joined directly: csv.writer
    takes six times as long. Rows are formatted and written ``WRITE_ROWS``
    at a time, so the text of a long table is never held whole.
    """
    stream.write(",".join(header) + "\n")
    for start in range(0, len(columns[0]), WRITE_ROWS):
        chunk = (column[start : start + WRITE_ROWS] for column in columns)
        stream.write("\n".join([*map(",".join, zip(*map(_cells, chunk))), ""]))


def _parse_day(text: str) -> date:
    try:
        return date.fromisoformat(text)
    except ValueError:
        # tolerate full ISO timestamps; only the calendar date is kept
        return datetime.fromisoformat(text.replace("Z", "+00:00")).date()


class Table:
    """Equal-length 1-D numpy columns; iterating yields one namedtuple per row.

    Subclasses are frozen dataclasses that name their column fields and
    dtypes in ``COLUMNS``, the first being ``date``; any other field is
    metadata. Columns are stored as contiguous arrays of the declared
    dtype, and dates must be strictly increasing.
    """

    COLUMNS: ClassVar[dict[str, str]] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.Row = namedtuple(f"{cls.__name__}Row", cls.COLUMNS)

    def __post_init__(self) -> None:
        lengths = set()
        for name, dtype in self.COLUMNS.items():
            column = np.ascontiguousarray(getattr(self, name), dtype=dtype)
            if column.ndim != 1:
                raise ValidationError(f"column {name} must be one-dimensional")
            object.__setattr__(self, name, column)
            lengths.add(column.size)
        if len(lengths) > 1:
            raise ValidationError(f"columns of {type(self).__name__} differ in length: {sorted(lengths)}")
        steps = np.flatnonzero(self.date[1:] <= self.date[:-1])
        if steps.size:
            prev, day = self.date[steps[0] : steps[0] + 2]
            raise ValidationError(f"{'duplicate date' if day == prev else 'dates out of order at'} {day}")

    def columns(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in self.COLUMNS]

    def __len__(self) -> int:
        return self.date.size

    def __iter__(self):
        return map(self.Row._make, zip(*(column.tolist() for column in self.columns())))


def _first_bad_bar(open_, high, low, close, volume) -> tuple[int, str] | None:
    """Index of the first bar that breaks an invariant, and why; a bar breaking several reports the first listed."""
    prices = {"open": open_, "high": high, "low": low, "close": close}
    checks = [
        (~np.isfinite(v), lambda i, n=name, v=v: f"{n} must be finite, got {float(v[i])!r}")
        for name, v in {**prices, "volume": volume}.items()
    ]
    checks += [
        (~(v > 0.0), lambda i, n=name, v=v: f"{n} must be strictly positive, got {float(v[i])!r}")
        for name, v in prices.items()
    ]
    checks += [
        (high < low, lambda i: f"high {float(high[i])} below low {float(low[i])}"),
        (low > np.minimum(open_, close), lambda i: f"low {float(low[i])} above open/close"),
        (high < np.maximum(open_, close), lambda i: f"high {float(high[i])} below open/close"),
        (~(volume >= 0.0), lambda i: f"volume must be non-negative, got {float(volume[i])!r}"),
    ]
    found = [(int(np.argmax(mask)), k) for k, (mask, _) in enumerate(checks) if mask.any()]
    if not found:
        return None
    i, k = min(found)
    return i, checks[k][1](i)


@dataclass(frozen=True, eq=False)
class BarSeries(Table):
    """Daily OHLCV bars for one instrument on one venue, in strictly increasing date order."""

    COLUMNS = {
        "date": "datetime64[D]",
        "open": "float64",
        "high": "float64",
        "low": "float64",
        "close": "float64",
        "volume": "float64",
    }

    date: np.ndarray
    open: np.ndarray
    high: np.ndarray
    low: np.ndarray
    close: np.ndarray
    volume: np.ndarray
    instrument: str
    venue: str

    def __post_init__(self) -> None:
        if not self.instrument or not self.venue:
            raise ValidationError("instrument and venue must be non-empty")
        super().__post_init__()
        bad = _first_bad_bar(self.open, self.high, self.low, self.close, self.volume)
        if bad is not None:
            raise ValidationError(f"{self.date[bad[0]]}: {bad[1]}")


def _read_body(reader, convert) -> tuple[list[int], list[tuple], ValidationError | None]:
    """Convert each non-blank data row until one fails.

    Returns the 1-based file line of every converted row, the converted
    rows, and the error of the row that failed (None if all converted).
    A row the csv reader cannot split, such as one with a cell over the
    csv field limit, fails the same way.
    """
    lines, rows = [], []
    lineno = 1
    try:
        for lineno, row in enumerate(reader, start=2):
            if not any(map(str.strip, row)):
                continue
            try:
                rows.append(convert(row))
            except (ValueError, IndexError) as exc:
                return lines, rows, ValidationError(f"line {lineno}: {exc}")
            lines.append(lineno)
    except csv.Error as exc:  # raised while reading the row after line ``lineno``
        return lines, rows, ValidationError(f"line {lineno + 1}: {exc}")
    return lines, rows, None


def _columns(rows: list[tuple], width: int) -> list[np.ndarray]:
    """Rows of (day ordinal, floats...) as a datetime64[D] column and float columns."""
    ordinals, *values = list(zip(*rows)) or [()] * width
    # via ordinals: numpy converts date objects twenty times slower
    days = (np.array(ordinals, dtype=np.int64) - date(1970, 1, 1).toordinal()).astype("datetime64[D]")
    return [days] + [np.array(column, dtype=float) for column in values]


def _read_header(reader) -> list[str]:
    try:
        return [cell.strip() for cell in next(reader)]
    except StopIteration:
        raise SchemaError("empty input: no header row") from None
    except csv.Error as exc:
        raise ValidationError(f"line 1: {exc}") from None


def _read_blocks(stream: TextIO, width: int, picked: Sequence[int]) -> list[np.ndarray] | None:
    """The body's date column ``picked[0]`` and float columns ``picked[1:]``, or None.

    The text is split on commas and line feeds a block at a time, so data
    row i sits on file line i + 2. None means the body holds something
    only the row-by-row csv reader handles as it should: a quote, a
    carriage return not ending a line, a row of another width (blank rows
    included), a cell longer than the csv field limit, a date other than
    ``YYYY-MM-DD`` in years 1-9999, or a cell float() rejects.
    """
    t, floats = picked[0], picked[1:]
    parts = [[np.array([], dtype="datetime64[D]")]] + [[np.array([])] for _ in floats]
    while block := stream.read(BLOCK_CHARS):
        if not block.endswith("\n"):
            block += stream.readline()
        text = block.replace("\r\n", "\n").removesuffix("\n")
        if '"' in text or "\r" in text:
            return None
        lines = text.split("\n")
        if set(map(str.count, lines, repeat(","))) != {width - 1} or max(map(len, lines)) > csv.field_size_limit():
            return None
        cells = text.replace("\n", ",").split(",")
        stamps = list(map(str.strip, cells[t::width]))
        try:
            with warnings.catch_warnings():
                # numpy warns on a time zone ("...T00:00:00Z"); such dates take the row path
                warnings.simplefilter("ignore", UserWarning)
                days = np.array(stamps, dtype="datetime64[D]")
            values = [np.fromiter(map(float, cells[k::width]), float, len(lines)) for k in floats]
        except ValueError:
            return None
        # numpy also reads "2020" and "2020-01-01T00", which do not print back, and
        # "" (NaT), "NaT", "0000-01-01" and "10000-01-01", which date.fromisoformat rejects
        in_range = (days >= _FIRST_DAY) & (days <= _LAST_DAY)
        if not in_range.all() or np.datetime_as_string(days, unit="D").tolist() != stamps:
            return None
        for part, column in zip(parts, [days, *values]):
            part.append(column)
    return [np.concatenate(part) for part in parts]


def _tell(stream: TextIO | Iterable[str]) -> int | None:
    """The position to seek back to in a seekable stream, or None for another iterable."""
    try:
        return stream.tell() if stream.seekable() else None
    except (AttributeError, OSError):  # a list of lines; a text file already advanced by next()
        return None


def _read_csv(
    stream: TextIO | Iterable[str], pick: Callable[[list[str]], Sequence[int]]
) -> tuple[Sequence[int], list[np.ndarray], ValidationError | None]:
    """Read a header row, then the date and float columns ``pick(header)`` names.

    Returns the 1-based file line of every row read, the datetime64[D]
    column and the float columns, and the error of the first row that
    failed to convert (None if all converted). A seekable stream is read
    in blocks (``_read_blocks``); where that reader declines, and for any
    other iterable of lines, rows are read one at a time by ``csv.reader``,
    which alone reports bad rows.
    """
    start = _tell(stream)
    if start is not None:
        text = stream.readline().removesuffix("\n").removesuffix("\r")
        if text and '"' not in text and "\r" not in text:
            picked = pick([cell.strip() for cell in text.split(",")])
            columns = _read_blocks(stream, text.count(",") + 1, picked)
            if columns is not None:
                return range(2, columns[0].size + 2), columns, None
        stream.seek(start)
    reader = csv.reader(stream)
    t, *floats = pick(_read_header(reader))

    def convert(row: list[str]) -> tuple:
        return _parse_day(row[t].strip()).toordinal(), *(float(row[k]) for k in floats)

    lines, rows, error = _read_body(reader, convert)
    return lines, _columns(rows, 1 + len(floats)), error


def parse_bars(
    stream: TextIO | Iterable[str],
    schema: Mapping[str, str] | None = None,
    instrument: str = "unspecified",
    venue: str = "unspecified",
) -> BarSeries:
    """Parse daily OHLCV bars from a CSV stream with a header row.

    ``schema`` overrides the default role -> column-name mapping for any of
    ``ROLES``. Rows are sorted by date before the series invariants are
    checked, so physical row order in the file does not matter. The first
    bad row in file order raises :class:`ValidationError` naming its 1-based
    line number; a header missing a mapped column raises
    :class:`SchemaError`.
    """
    mapping = dict(DEFAULT_SCHEMA)
    if schema:
        unknown = set(schema) - set(ROLES)
        if unknown:
            raise SchemaError(f"unknown schema roles {sorted(unknown)}; expected subset of {ROLES}")
        mapping.update(schema)

    def pick(header: list[str]) -> list[int]:
        missing = [mapping[role] for role in ROLES if mapping[role] not in header]
        if missing:
            raise SchemaError(f"missing columns {missing} in header {header}")
        return [header.index(mapping[role]) for role in ROLES]

    lines, (days, *values), error = _read_csv(stream, pick)
    bad = _first_bad_bar(*values)
    if bad is not None:
        raise ValidationError(f"line {lines[bad[0]]}: {bad[1]}")
    if error is not None:
        raise error
    order = np.argsort(days, kind="stable")
    return BarSeries(days[order], *(column[order] for column in values), instrument=instrument, venue=venue)


def write_bars_csv(series: BarSeries, stream: TextIO) -> None:
    """Write a bar series in the canonical input schema."""
    write_csv(stream, ROLES, *series.columns())


@dataclass(frozen=True)
class JoinReport:
    """Counts from the date join: matched rows and one-sided drops."""

    matched: int
    dropped_spot: int
    dropped_futures: int


@dataclass(frozen=True, eq=False)
class AlignedSeries(Table):
    """Matched spot and futures closes on strictly increasing dates.

    ``delta`` is the peg deviation ``s - 1``; ``basis_bps`` is the futures
    discount or premium ``(f - s) * 1e4``.
    """

    COLUMNS = {"date": "datetime64[D]", "s": "float64", "f": "float64"}

    date: np.ndarray
    s: np.ndarray
    f: np.ndarray
    spot_venue: str = "unspecified"
    futures_venue: str = "unspecified"
    join_report: JoinReport = JoinReport(0, 0, 0)

    @property
    def delta(self) -> np.ndarray:
        return self.s - 1.0

    @property
    def basis_bps(self) -> np.ndarray:
        return (self.f - self.s) * 1e4


def align_daily(spot: BarSeries, futures: BarSeries) -> AlignedSeries:
    """Inner-join spot and futures bars on calendar date, using closes.

    Dates present in only one input are dropped and counted in the
    :class:`JoinReport`; an empty intersection raises
    :class:`AlignmentError`.
    """
    if len(spot) == 0 or len(futures) == 0:
        raise AlignmentError("both spot and futures series must be non-empty")
    common, in_spot, in_futures = np.intersect1d(
        spot.date, futures.date, assume_unique=True, return_indices=True
    )
    if common.size == 0:
        raise AlignmentError(
            f"no dates in common between spot ({spot.venue}) and futures ({futures.venue})"
        )
    report = JoinReport(
        matched=int(common.size),
        dropped_spot=len(spot) - int(common.size),
        dropped_futures=len(futures) - int(common.size),
    )
    return AlignedSeries(
        date=common,
        s=spot.close[in_spot],
        f=futures.close[in_futures],
        spot_venue=spot.venue,
        futures_venue=futures.venue,
        join_report=report,
    )


def write_aligned_csv(series: AlignedSeries, stream: TextIO) -> None:
    write_csv(stream, ALIGNED_HEADER, series.date, series.s, series.f, series.delta, series.basis_bps)


def read_aligned_csv(stream: TextIO | Iterable[str]) -> AlignedSeries:
    """Parse a file produced by :func:`write_aligned_csv`.

    The stored delta and basis must equal the values derived from the
    prices bit for bit; the first row where they differ is rejected.
    """
    def pick(header: list[str]) -> range:
        if tuple(header) != ALIGNED_HEADER:
            raise SchemaError(f"expected header {ALIGNED_HEADER}, got {tuple(header)}")
        return range(len(ALIGNED_HEADER))

    lines, (days, s, f, delta, basis), error = _read_csv(stream, pick)
    mismatch = np.flatnonzero((delta != s - 1.0) | (basis != (f - s) * 1e4))
    if mismatch.size:
        i = mismatch[0]
        raise ValidationError(
            f"line {lines[i]}: {days[i]}: stored delta {float(delta[i])!r} and basis_bps {float(basis[i])!r}"
            f" differ from s - 1 = {float(s[i] - 1.0)!r} and (f - s) * 1e4 = {float((f[i] - s[i]) * 1e4)!r}"
        )
    if error is not None:
        raise error
    return AlignedSeries(date=days, s=s, f=f)
