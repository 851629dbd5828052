"""Mean-reversion estimation and futures-implied default probabilities.

Peg deviations follow a daily autoregression with no intercept (the peg
anchors the mean at zero): delta_{t+1} = rho * delta_t + eps. Over a
contract horizon of h days a surviving deviation shrinks by rho**h, while
a broken peg pays the recovery value R. Under the expectations hypothesis
the futures price is the probability-weighted mean of the two regimes,

    f = (1 - p) * (1 + rho**h * delta) + p * R,

which inverts to the per-horizon default probability

    p = (1 + rho**h * (s - 1) - f) / (1 + rho**h * (s - 1) - R).

Probabilities are annualized onto a 365-day basis and reported in basis
points.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, replace
from datetime import date
from typing import Iterable, Sequence, TextIO

import numpy as np

from .errors import DataQualityWarning, DomainError, EstimationError, InversionError
from .marketdata import AlignedSeries, fmt_float

DAYS_PER_YEAR = 365.0

# Raw inversions below this are treated as data problems, not noise: the
# observed lower tail of real series sits around -0.005 per horizon.
RAW_PROB_FLOOR = -0.05

PROB_HEADER = ("date", "p_horizon", "p_annualized_bps", "trimmed")


@dataclass(frozen=True)
class Ar1Fit:
    """One estimated mean-reversion coefficient.

    ``window`` is None for a full-sample fit or the half-open index range
    of the slice a rolling fit was run on.
    """

    rho: float
    stderr: float
    n: int
    window: tuple[int, int] | None = None

    @property
    def is_stable(self) -> bool:
        return 0.0 < self.rho < 1.0


@dataclass(frozen=True)
class RollingAr1:
    """Per-window fits plus the mean coefficient across windows."""

    fits: tuple[Ar1Fit, ...]
    rho_mean: float


def _fit_slice(values: np.ndarray, window: tuple[int, int] | None) -> Ar1Fit:
    lagged = values[:-1]
    lead = values[1:]
    sxx = float(np.dot(lagged, lagged))
    if sxx == 0.0:
        raise EstimationError("degenerate regressor: lagged deviations are all zero")
    rho = float(np.dot(lagged, lead) / sxx)
    residuals = lead - rho * lagged
    dof = lagged.size - 1  # pairs minus the single slope parameter
    sigma2 = float(np.dot(residuals, residuals)) / dof
    return Ar1Fit(rho=rho, stderr=math.sqrt(sigma2 / sxx), n=int(values.size), window=window)


def fit_ar1(deviations: Sequence[float] | np.ndarray) -> Ar1Fit:
    """Fit delta_{t+1} = rho * delta_t by least squares through the origin.

    rho = sum(delta_t * delta_{t+1}) / sum(delta_t**2); the standard error
    is the usual single-regressor OLS one with n-2 degrees of freedom.
    """
    values = np.asarray(deviations, dtype=float)
    if values.ndim != 1:
        raise EstimationError("deviations must be one-dimensional")
    if values.size < 3:
        raise EstimationError(f"need at least 3 observations, got {values.size}")
    return _fit_slice(values, None)


def fit_ar1_rolling(deviations: Sequence[float] | np.ndarray, window: int) -> RollingAr1:
    """Fit every length-``window`` slice at daily step and average the rho's."""
    values = np.asarray(deviations, dtype=float)
    if window < 3:
        raise EstimationError(f"rolling window must be at least 3, got {window}")
    if window > values.size:
        raise EstimationError(f"window {window} longer than series of length {values.size}")
    fits = tuple(
        _fit_slice(values[start : start + window], (start, start + window))
        for start in range(values.size - window + 1)
    )
    rho_mean = float(np.mean([fit.rho for fit in fits]))
    return RollingAr1(fits=fits, rho_mean=rho_mean)


def half_life(rho: float) -> float:
    """Days for a deviation to halve absent shocks: ln 2 / (-ln rho)."""
    if not 0.0 < rho < 1.0:
        raise DomainError(f"half-life requires 0 < rho < 1, got {rho}")
    return math.log(2.0) / -math.log(rho)


def _check_shared_domain(rho: float, h: int) -> None:
    if not 0.0 <= rho < 1.0:
        raise DomainError(f"rho must lie in [0, 1), got {rho}")
    if h < 1:
        raise DomainError(f"horizon must be at least 1 day, got {h}")


def theoretical_futures(delta: float, rho: float, h: int, p: float, recovery: float = 0.0) -> float:
    """Futures price for a given default probability and recovery rate.

    (1 - p) * (1 + rho**h * delta) + p * recovery: survivors carry the
    decayed deviation, defaults pay the recovery value.
    """
    _check_shared_domain(rho, h)
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"default probability must lie in [0, 1], got {p}")
    if not 0.0 <= recovery <= 1.0:
        raise DomainError(f"recovery must lie in [0, 1], got {recovery}")
    return (1.0 - p) * (1.0 + rho**h * delta) + p * recovery


def implied_default_prob(s: float, f: float, rho: float, h: int, recovery: float = 0.0) -> float:
    """Invert the futures price to a per-horizon default probability.

    With recovery 0 this is 1 - f / (1 + rho**h * (s - 1)); the general
    form divides the futures shortfall by the survivor/recovery gap. Exact
    inverse of :func:`theoretical_futures` in the probability argument.
    """
    _check_shared_domain(rho, h)
    if not 0.0 <= recovery < 1.0:
        raise DomainError(f"recovery must lie in [0, 1), got {recovery}")
    survivor_value = 1.0 + rho**h * (s - 1.0)
    denominator = survivor_value - recovery
    if denominator <= 0.0:
        raise InversionError(
            f"nonpositive denominator {denominator}: survivor value {survivor_value} "
            f"does not exceed recovery {recovery}"
        )
    return (survivor_value - f) / denominator


def annualize(p_horizon: float, h: int, method: str = "linear") -> float:
    """Rescale a per-horizon probability to a 365-day basis, in basis points.

    linear:      p * (365 / h) * 1e4
    compounded:  (1 - (1 - p)**(365 / h)) * 1e4

    Small negative inputs pass through unchanged in sign so untrimmed
    diagnostic series can be summarized; values above 1 are rejected.
    """
    if h < 1:
        raise DomainError(f"horizon must be at least 1 day, got {h}")
    if p_horizon > 1.0:
        raise DomainError(f"probability above 1: {p_horizon}")
    if p_horizon <= -1.0:
        raise DomainError(f"probability at or below -1: {p_horizon}")
    periods = DAYS_PER_YEAR / h
    if method == "linear":
        return p_horizon * periods * 1e4
    if method == "compounded":
        return (1.0 - (1.0 - p_horizon) ** periods) * 1e4
    raise DomainError(f"unknown annualization method {method!r}")


@dataclass(frozen=True)
class DefaultProbPoint:
    """Per-horizon and annualized implied default probability for one date."""

    date: date
    p_horizon: float
    p_annualized_bps: float
    horizon_days: int
    recovery: float
    trimmed: bool


def prob_series(
    aligned: AlignedSeries,
    rho: float,
    h: int = 90,
    recovery: float = 0.0,
    trim: bool = True,
    method: str = "linear",
) -> list[DefaultProbPoint]:
    """Implied default probabilities for every aligned observation.

    With ``trim`` set, the raw series passes through :func:`trim_negative`;
    untrimmed values should feed summary statistics, trimmed ones the
    published series. Raw values below :data:`RAW_PROB_FLOOR` emit a
    :class:`DataQualityWarning` instead of being silently clamped. An
    inversion or annualization that fails names the date it failed on.
    """
    points = []
    for obs in aligned.observations:
        try:
            raw = implied_default_prob(obs.s, obs.f, rho, h, recovery)
        except InversionError as exc:
            raise InversionError(f"{obs.date}: {exc}") from exc
        if raw < RAW_PROB_FLOOR:
            warnings.warn(
                f"{obs.date}: raw default probability {raw:.6f} below {RAW_PROB_FLOOR}; "
                "check the input prices",
                DataQualityWarning,
                stacklevel=2,
            )
        try:
            p_bps = annualize(raw, h, method)
        except DomainError as exc:
            raise DomainError(f"{obs.date}: {exc}") from exc
        points.append(
            DefaultProbPoint(
                date=obs.date,
                p_horizon=raw,
                p_annualized_bps=p_bps,
                horizon_days=h,
                recovery=recovery,
                trimmed=False,
            )
        )
    return trim_negative(points) if trim else points


def trim_negative(points: Iterable[DefaultProbPoint]) -> list[DefaultProbPoint]:
    """Clamp negative per-horizon probabilities to zero and flag them as trimmed."""
    return [
        replace(point, p_horizon=0.0, p_annualized_bps=0.0, trimmed=True)
        if point.p_horizon < 0.0
        else point
        for point in points
    ]


def write_prob_csv(points: Iterable[DefaultProbPoint], stream: TextIO) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(PROB_HEADER)
    for point in points:
        writer.writerow(
            [
                point.date.isoformat(),
                fmt_float(point.p_horizon),
                fmt_float(point.p_annualized_bps),
                "true" if point.trimmed else "false",
            ]
        )
