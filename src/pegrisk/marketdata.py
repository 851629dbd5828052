"""OHLCV ingestion and spot/futures alignment.

Input files are daily bars in CSV with a header row; the timestamp and the
five OHLCV roles may live under any column names (``DEFAULT_SCHEMA`` maps
role -> column). Alignment inner-joins spot and futures closes on calendar
date and derives the peg deviation (close - 1) and the futures-spot basis
in basis points. All values are plain 64-bit floats; CSV output uses 17
significant digits so a write/read cycle is lossless.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import date, datetime
from typing import Iterable, Mapping, TextIO

from .errors import AlignmentError, SchemaError, ValidationError

ROLES = ("timestamp", "open", "high", "low", "close", "volume")
DEFAULT_SCHEMA: dict[str, str] = {role: role for role in ROLES}

ALIGNED_HEADER = ("date", "s", "f", "delta", "basis_bps")


def fmt_float(x: float) -> str:
    """Format a float with 17 significant digits (round-trip exact)."""
    return format(x, ".17g")


def _parse_day(text: str) -> date:
    try:
        return date.fromisoformat(text)
    except ValueError:
        # tolerate full ISO timestamps; only the calendar date is kept
        return datetime.fromisoformat(text.replace("Z", "+00:00")).date()


@dataclass(frozen=True)
class Bar:
    """One daily OHLCV observation for one instrument."""

    timestamp: date
    open: float
    high: float
    low: float
    close: float
    volume: float

    def __post_init__(self) -> None:
        for name in ROLES[1:]:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value!r}")
        for name in ("open", "high", "low", "close"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ValidationError(f"{name} must be strictly positive, got {value!r}")
        if self.high < self.low:
            raise ValidationError(f"high {self.high} below low {self.low}")
        if self.low > min(self.open, self.close):
            raise ValidationError(f"low {self.low} above open/close")
        if self.high < max(self.open, self.close):
            raise ValidationError(f"high {self.high} below open/close")
        if not self.volume >= 0.0:
            raise ValidationError(f"volume must be non-negative, got {self.volume!r}")


@dataclass(frozen=True)
class BarSeries:
    """Ordered daily bars for one instrument on one venue."""

    instrument: str
    venue: str
    bars: tuple[Bar, ...]

    def __post_init__(self) -> None:
        if not self.instrument or not self.venue:
            raise ValidationError("instrument and venue must be non-empty")
        object.__setattr__(self, "bars", tuple(self.bars))
        for prev, cur in zip(self.bars, self.bars[1:]):
            if cur.timestamp == prev.timestamp:
                raise ValidationError(f"duplicate date {cur.timestamp}")
            if cur.timestamp < prev.timestamp:
                raise ValidationError(f"dates out of order at {cur.timestamp}")

    def __len__(self) -> int:
        return len(self.bars)

    def closes_by_date(self) -> dict[date, float]:
        return {bar.timestamp: bar.close for bar in self.bars}


def parse_bars(
    stream: TextIO | Iterable[str],
    schema: Mapping[str, str] | None = None,
    instrument: str = "unspecified",
    venue: str = "unspecified",
) -> BarSeries:
    """Parse daily OHLCV bars from a CSV stream with a header row.

    ``schema`` overrides the default role -> column-name mapping for any of
    ``ROLES``. Rows are sorted by date before the series invariants are
    checked, so physical row order in the file does not matter. A bad row
    raises :class:`ValidationError` naming its 1-based line number; a header
    missing a mapped column raises :class:`SchemaError`.
    """
    mapping = dict(DEFAULT_SCHEMA)
    if schema:
        unknown = set(schema) - set(ROLES)
        if unknown:
            raise SchemaError(f"unknown schema roles {sorted(unknown)}; expected subset of {ROLES}")
        mapping.update(schema)

    reader = csv.reader(stream)
    try:
        header = [cell.strip() for cell in next(reader)]
    except StopIteration:
        raise SchemaError("empty input: no header row") from None

    positions: dict[str, int] = {}
    missing = []
    for role in ROLES:
        column = mapping[role]
        try:
            positions[role] = header.index(column)
        except ValueError:
            missing.append(column)
    if missing:
        raise SchemaError(f"missing columns {missing} in header {header}")

    bars = []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        try:
            day = _parse_day(row[positions["timestamp"]].strip())
            fields = {role: float(row[positions[role]]) for role in ROLES[1:]}
            bars.append(Bar(timestamp=day, **fields))
        except (ValidationError, ValueError, IndexError) as exc:
            raise ValidationError(f"line {lineno}: {exc}") from exc

    bars.sort(key=lambda bar: bar.timestamp)
    return BarSeries(instrument=instrument, venue=venue, bars=tuple(bars))


def write_bars_csv(series: BarSeries, stream: TextIO) -> None:
    """Write a bar series in the canonical input schema."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(ROLES)
    for bar in series.bars:
        writer.writerow(
            [
                bar.timestamp.isoformat(),
                fmt_float(bar.open),
                fmt_float(bar.high),
                fmt_float(bar.low),
                fmt_float(bar.close),
                fmt_float(bar.volume),
            ]
        )


@dataclass(frozen=True)
class AlignedObservation:
    """Matched spot/futures closes for one date.

    ``delta`` is the peg deviation ``s - 1``; ``basis_bps`` is the futures
    discount or premium ``(f - s) * 1e4``. Both are stored rather than
    recomputed so a CSV round trip preserves them bit for bit, and the
    constructor rejects values that disagree with the prices.
    """

    date: date
    s: float
    f: float
    delta: float
    basis_bps: float

    def __post_init__(self) -> None:
        if self.delta != self.s - 1.0:
            raise ValidationError(f"{self.date}: delta {self.delta!r} != s - 1 = {self.s - 1.0!r}")
        if self.basis_bps != (self.f - self.s) * 1e4:
            raise ValidationError(
                f"{self.date}: basis_bps {self.basis_bps!r} != (f - s) * 1e4 = {(self.f - self.s) * 1e4!r}"
            )

    @classmethod
    def from_prices(cls, day: date, s: float, f: float) -> "AlignedObservation":
        return cls(date=day, s=s, f=f, delta=s - 1.0, basis_bps=(f - s) * 1e4)


@dataclass(frozen=True)
class JoinReport:
    """Counts from the date join: matched rows and one-sided drops."""

    matched: int
    dropped_spot: int
    dropped_futures: int


@dataclass(frozen=True)
class AlignedSeries:
    """Daily panel of matched spot and futures observations."""

    observations: tuple[AlignedObservation, ...]
    spot_venue: str = "unspecified"
    futures_venue: str = "unspecified"
    join_report: JoinReport = JoinReport(0, 0, 0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "observations", tuple(self.observations))
        for prev, cur in zip(self.observations, self.observations[1:]):
            if cur.date <= prev.date:
                raise ValidationError(f"aligned dates must be strictly increasing at {cur.date}")

    def __len__(self) -> int:
        return len(self.observations)

    def dates(self) -> list[date]:
        return [obs.date for obs in self.observations]

    def deltas(self) -> list[float]:
        return [obs.delta for obs in self.observations]


def align_daily(spot: BarSeries, futures: BarSeries) -> AlignedSeries:
    """Inner-join spot and futures bars on calendar date, using closes.

    Dates present in only one input are dropped and counted in the
    :class:`JoinReport`; an empty intersection raises
    :class:`AlignmentError`.
    """
    if len(spot) == 0 or len(futures) == 0:
        raise AlignmentError("both spot and futures series must be non-empty")
    spot_closes = spot.closes_by_date()
    futures_closes = futures.closes_by_date()
    common = sorted(set(spot_closes) & set(futures_closes))
    if not common:
        raise AlignmentError(
            f"no dates in common between spot ({spot.venue}) and futures ({futures.venue})"
        )
    observations = tuple(
        AlignedObservation.from_prices(day, spot_closes[day], futures_closes[day]) for day in common
    )
    report = JoinReport(
        matched=len(common),
        dropped_spot=len(spot) - len(common),
        dropped_futures=len(futures) - len(common),
    )
    return AlignedSeries(
        observations=observations,
        spot_venue=spot.venue,
        futures_venue=futures.venue,
        join_report=report,
    )


def write_aligned_csv(series: AlignedSeries, stream: TextIO) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(ALIGNED_HEADER)
    for obs in series.observations:
        writer.writerow(
            [
                obs.date.isoformat(),
                fmt_float(obs.s),
                fmt_float(obs.f),
                fmt_float(obs.delta),
                fmt_float(obs.basis_bps),
            ]
        )


def read_aligned_csv(stream: TextIO | Iterable[str]) -> AlignedSeries:
    """Parse a file produced by :func:`write_aligned_csv`."""
    reader = csv.reader(stream)
    try:
        header = [cell.strip() for cell in next(reader)]
    except StopIteration:
        raise SchemaError("empty input: no header row") from None
    if tuple(header) != ALIGNED_HEADER:
        raise SchemaError(f"expected header {ALIGNED_HEADER}, got {tuple(header)}")
    observations = []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        try:
            observations.append(
                AlignedObservation(
                    date=_parse_day(row[0].strip()),
                    s=float(row[1]),
                    f=float(row[2]),
                    delta=float(row[3]),
                    basis_bps=float(row[4]),
                )
            )
        except (ValidationError, ValueError, IndexError) as exc:
            raise ValidationError(f"line {lineno}: {exc}") from exc
    return AlignedSeries(observations=tuple(observations))
