"""OHLCV ingestion and spot/futures alignment.

Input files are daily bars in CSV with a header row; the timestamp and the
five OHLCV roles may live under any column names (``DEFAULT_SCHEMA`` maps
role -> column). Alignment inner-joins spot and futures closes on calendar
date; the peg deviation (close - 1) and the futures-spot basis in basis
points are derived from the joined closes. Every series is a table of
equal-length numpy columns: ``datetime64[D]`` dates and float64 values.
CSV input is read a block of text at a time, its floats by ``np.loadtxt``;
inputs the block reader does not take (see ``_read_blocks``) are read row
by row, with the same columns. CSV output uses 17 significant digits so a
write/read cycle is lossless.
"""

from __future__ import annotations

import csv
import os
from collections import namedtuple
from dataclasses import dataclass
from datetime import date, datetime
from itertools import repeat
from typing import Annotated, ClassVar, Iterable, Mapping, TextIO, get_type_hints

import numpy as np

from .errors import AlignmentError, SchemaError, ValidationError

ROLES = ("timestamp", "open", "high", "low", "close", "volume")
DEFAULT_SCHEMA: dict[str, str] = {role: role for role in ROLES}

# characters of CSV text parsed at a time; a block always ends at a line end
BLOCK_CHARS = 1 << 20
# rows of CSV text formatted at a time
WRITE_ROWS = 1 << 14

# the field types of table columns, each naming its dtype
Dates = Annotated[np.ndarray, "datetime64[D]"]
Floats = Annotated[np.ndarray, "float64"]
Flags = Annotated[np.ndarray, "bool"]


def _cpu_count() -> int:
    """CPUs this process may run on: a command's forked parse and write, and simkit's threads, use no more."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def fmt_float(x: float) -> str:
    """Format a float with 17 significant digits (round-trip exact)."""
    return format(x, ".17g")


def _cells(column: np.ndarray) -> list:
    """ISO dates or true/false flags as text; floats as they are."""
    if column.dtype.kind == "M":
        return np.datetime_as_string(column, unit="D").tolist()
    if column.dtype.kind == "b":
        return np.where(column, "true", "false").tolist()
    return column.tolist()


def _parse_day(text: str) -> date:
    try:
        return date.fromisoformat(text)
    except ValueError:
        # tolerate full ISO timestamps in UTC or with no zone; only the calendar date is kept
        stamp = datetime.fromisoformat(text.replace("Z", "+00:00"))
        if stamp.utcoffset():  # its calendar date is not the UTC one
            raise ValueError(f"time stamp {text!r} is not in UTC (offset {stamp:%z})") from None
        return stamp.date()


class Table:
    """Equal-length 1-D numpy columns; iterating yields one namedtuple per row.

    Subclasses are frozen dataclasses whose column fields are typed
    ``Dates``, ``Floats`` or ``Flags``, the first being ``date``; any other
    field is metadata. ``COLUMNS`` maps each column, in field order, to its
    dtype. Columns are stored as contiguous arrays of that dtype, and dates
    must be strictly increasing. ``HEADER`` names the CSV columns of
    ``columns()``, by default the column names.
    """

    COLUMNS: ClassVar[dict[str, str]] = {}
    HEADER: ClassVar[tuple[str, ...]] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        hints = get_type_hints(cls, include_extras=True).items()
        cls.COLUMNS = {name: hint.__metadata__[0] for name, hint in hints if hasattr(hint, "__metadata__")}
        if "HEADER" not in vars(cls):
            cls.HEADER = tuple(cls.COLUMNS)
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
        """The columns ``HEADER`` names."""
        return [getattr(self, name) for name in self.COLUMNS]

    def __len__(self) -> int:
        return self.date.size

    def __iter__(self):
        return map(self.Row._make, zip(*(getattr(self, name).tolist() for name in self.COLUMNS)))


def write_table_csv(table: Table, stream: TextIO) -> None:
    """Write a table as CSV: its ``HEADER`` row, then its rows, ``WRITE_ROWS`` at a time.

    No cell needs CSV quoting, so each row is one ``%`` template: ``%.17g``
    for a float, whose NaN prints as ``nan``, a text no other cell holds,
    cut to an empty cell.
    """
    columns = table.columns()
    row = ",".join("%.17g" if column.dtype.kind == "f" else "%s" for column in columns) + "\n"
    stream.write(",".join(table.HEADER) + "\n")
    for start in range(0, len(table), WRITE_ROWS):
        cells = (_cells(column[start : start + WRITE_ROWS]) for column in columns)
        stream.write("".join(map(row.__mod__, zip(*cells))).replace("nan", ""))


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

    HEADER = ROLES

    date: Dates
    open: Floats
    high: Floats
    low: Floats
    close: Floats
    volume: Floats
    venue: str

    def __post_init__(self) -> None:
        if not self.venue:
            raise ValidationError("venue must be non-empty")
        super().__post_init__()
        bad = _first_bad_bar(self.open, self.high, self.low, self.close, self.volume)
        if bad is not None:
            raise ValidationError(f"{self.date[bad[0]]}: {bad[1]}")


def _read_body(reader, convert) -> tuple[list[int], list[tuple], ValidationError | None]:
    """Convert each non-blank data row until one fails.

    Returns the 1-based file line every converted row starts on (a quoted
    cell may span lines), the converted rows, and the error of the row that
    failed (None if all converted). A row the csv reader cannot split, such
    as one with a cell over the csv field limit, fails the same way.
    """
    lines, rows = [], []
    start = reader.line_num + 1
    try:
        for row in reader:
            if any(map(str.strip, row)):
                try:
                    rows.append(convert(row))
                except (ValueError, IndexError) as exc:
                    return lines, rows, ValidationError(f"line {start}: {exc}")
                lines.append(start)
            start = reader.line_num + 1
    except csv.Error as exc:  # raised while reading the row that starts on line ``start``
        return lines, rows, ValidationError(f"line {start}: {exc}")
    return lines, rows, None


def _days(ordinals) -> np.ndarray:
    """Day ordinals as a datetime64[D] column; numpy converts date objects twenty times slower."""
    return (np.array(ordinals, dtype=np.int64) - date(1970, 1, 1).toordinal()).astype("datetime64[D]")


def _columns(rows: list[tuple], width: int) -> list[np.ndarray]:
    """Rows of (day ordinal, floats...) as a datetime64[D] column and float columns."""
    ordinals, *values = list(zip(*rows)) or [()] * width
    return [_days(ordinals)] + [np.array(column, dtype=float) for column in values]


def _read_header(reader) -> list[str]:
    try:
        return [cell.strip() for cell in next(reader)]
    except StopIteration:
        raise SchemaError("empty input: no header row") from None
    except csv.Error as exc:
        raise ValidationError(f"line 1: {exc}") from None


def _read_blocks(stream: TextIO, width: int, t: int, *floats: int) -> list[np.ndarray] | None:
    """The body's date column ``t`` and float columns ``floats``, or None.

    The text is read a block at a time; ``_parse_day`` converts the dates,
    as in the row reader, and ``np.loadtxt`` the floats. None means the body
    holds what only the row-by-row csv reader handles as it should: a quote, a carriage
    return not ending a line, an ASCII separator (FS, GS, RS or US), a row of another width
    (blank rows included, which loadtxt would skip), a cell over the csv field limit, or a
    cell either converter rejects, as loadtxt does ``1_000``, which float() reads.
    """
    days_read, values_read = [np.array([], dtype="datetime64[D]")], [np.empty((0, len(floats)))]
    while block := stream.read(BLOCK_CHARS):
        if not block.endswith("\n"):
            block += stream.readline()
        text = block.replace("\r\n", "\n").removesuffix("\n")
        if any(map(text.__contains__, '"\r\x1c\x1d\x1e\x1f')):  # loadtxt strips the separators, float() does not
            return None
        lines = text.split("\n")
        if set(map(str.count, lines, repeat(","))) != {width - 1} or max(map(len, lines)) > csv.field_size_limit():
            return None
        try:
            days = _days([_parse_day(line.split(",", t + 1)[t].strip()).toordinal() for line in lines])
            values = np.loadtxt(lines, delimiter=",", usecols=floats, comments=None, ndmin=2)
        except ValueError:
            return None
        days_read.append(days)
        values_read.append(values)
    return [np.concatenate(days_read), *np.concatenate(values_read).T]


def _tell(stream: TextIO | Iterable[str]) -> int | None:
    """The position to seek back to in a seekable stream, or None for another iterable."""
    try:
        return stream.tell() if stream.seekable() else None
    except (AttributeError, OSError):  # a list of lines; a text file already advanced by next()
        return None


def parse_bars(
    stream: TextIO | Iterable[str],
    schema: Mapping[str, str] | None = None,
    venue: str = "unspecified",
) -> BarSeries:
    """Parse daily OHLCV bars from a CSV stream with a header row.

    ``schema`` overrides the default role -> column-name mapping for any of
    ``ROLES``. Rows are sorted by date before the series invariants are
    checked, so physical row order in the file does not matter. The first
    bad row in file order raises :class:`ValidationError` naming its 1-based
    line number, and after the rows are checked, so does the first row that
    repeats an earlier row's date; a header missing or repeating a mapped
    column raises :class:`SchemaError`.
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
        for name in mapping.values():  # a repeated column would be read from its first occurrence alone
            if header.count(name) > 1:
                raise SchemaError(f"column {name!r} appears {header.count(name)} times in header {header}")
        return [header.index(mapping[role]) for role in ROLES]

    # a seekable stream is read in blocks; where that reader declines, and for
    # any other iterable of lines, csv.reader reads one row at a time and alone reports bad rows
    start, columns, error = _tell(stream), None, None
    if start is not None:
        text = stream.readline().removesuffix("\n").removesuffix("\r")
        if text and '"' not in text and "\r" not in text:
            columns = _read_blocks(stream, text.count(",") + 1, *pick([cell.strip() for cell in text.split(",")]))
        if columns is None:
            stream.seek(start)
    if columns is not None:
        lines, (days, *values) = range(2, columns[0].size + 2), columns
    else:
        reader = csv.reader(stream)
        t, *floats = pick(_read_header(reader))

        def convert(row: list[str]) -> tuple:
            return _parse_day(row[t].strip()).toordinal(), *(float(row[k]) for k in floats)

        lines, rows, error = _read_body(reader, convert)
        days, *values = _columns(rows, 1 + len(floats))
    bad = _first_bad_bar(*values)
    if bad is not None:
        raise ValidationError(f"line {lines[bad[0]]}: {bad[1]}")
    if error is not None:
        raise error
    order = np.argsort(days, kind="stable")
    days = days[order]
    repeats = np.flatnonzero(days[1:] == days[:-1]) + 1  # sorted stably, so a date's first row comes first
    if repeats.size:
        k = repeats[np.argmin(order[repeats])]
        raise ValidationError(f"line {lines[order[k]]}: duplicate date {days[k]}, first on line {lines[order[k - 1]]}")
    return BarSeries(days, *(column[order] for column in values), venue=venue)


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

    HEADER = ("date", "s", "f", "delta", "basis_bps")

    date: Dates
    s: Floats
    f: Floats
    join_report: JoinReport = JoinReport(0, 0, 0)

    @property
    def delta(self) -> np.ndarray:
        return self.s - 1.0

    @property
    def basis_bps(self) -> np.ndarray:
        return (self.f - self.s) * 1e4

    def columns(self) -> list[np.ndarray]:
        return [*super().columns(), self.delta, self.basis_bps]


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
        join_report=report,
    )


write_aligned_csv = write_table_csv  # no command calls it; only pegbench/spans.py wraps it
