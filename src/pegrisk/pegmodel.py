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

import math
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataQualityWarning, DomainError, EstimationError, InversionError
from .marketdata import AlignedSeries, Dates, Flags, Floats, Table, write_table_csv

DAYS_PER_YEAR = 365.0

# Raw inversions below this are treated as data problems, not noise: the
# observed lower tail of real series sits around -0.005 per horizon.
RAW_PROB_FLOOR = -0.05

ANNUALIZATIONS = ("linear", "compounded")

# the model's defaults, by setting: SimConfig's and FixtureConfig's, and every command's that reads the setting
DEFAULTS = {"rho": 0.73, "horizon": 90, "recovery": 0.0}


@dataclass(frozen=True)
class Ar1Fit:
    """One estimated mean-reversion coefficient."""

    rho: float
    stderr: float
    n: int


@dataclass(frozen=True)
class RollingAr1:
    """The coefficient of every window (``fits``) and their mean."""

    fits: np.ndarray
    rho_mean: float


_DEGENERATE = "degenerate regressor: lagged deviations are all zero"


def _consecutive_pairs(days: np.ndarray, deviations) -> tuple[np.ndarray, np.ndarray, int]:
    """(delta_t, delta_{t+1}) as two arrays, zeroed where day t+1 is not the day after t.

    Zeroed pairs drop out of every sum the fits take. The third value
    counts the pairs that remain.
    """
    values = np.asarray(deviations, dtype=float)
    days = np.asarray(days, dtype="datetime64[D]")
    if values.ndim != 1:
        raise EstimationError("deviations must be one-dimensional")
    if values.size < 3:
        raise EstimationError(f"need at least 3 observations, got {values.size}")
    if days.shape != values.shape:
        raise EstimationError(f"{days.size} dates for {values.size} deviations")
    consecutive = np.diff(days) == np.timedelta64(1, "D")
    lagged = np.where(consecutive, values[:-1], 0.0)
    lead = np.where(consecutive, values[1:], 0.0)
    return lagged, lead, int(np.count_nonzero(consecutive))


def fit_ar1(days: np.ndarray, deviations: Sequence[float] | np.ndarray) -> Ar1Fit:
    """Fit delta_{t+1} = rho * delta_t by least squares through the origin.

    rho = sum(delta_t * delta_{t+1}) / sum(delta_t**2) over the pairs of
    consecutive calendar days in ``days``; a pair that spans a missing date
    is left out. The standard error is the usual single-regressor OLS one
    with (pairs used - 1) degrees of freedom.
    """
    lagged, lead, pairs = _consecutive_pairs(days, deviations)
    if pairs < 2:
        raise EstimationError(f"need at least 2 pairs of consecutive days, got {pairs}")
    sxx = float(np.dot(lagged, lagged))
    if sxx == 0.0:
        raise EstimationError(_DEGENERATE)
    rho = float(np.dot(lagged, lead) / sxx)
    residuals = lead - rho * lagged
    sigma2 = float(np.dot(residuals, residuals)) / (pairs - 1)  # pairs minus the one slope
    return Ar1Fit(rho=rho, stderr=math.sqrt(sigma2 / sxx), n=lagged.size + 1)


def fit_ar1_rolling(days: np.ndarray, deviations: Sequence[float] | np.ndarray, window: int) -> RollingAr1:
    """Fit every length-``window`` slice at daily step and average the rho's.

    As in :func:`fit_ar1`, only pairs of consecutive calendar days enter a
    window's fit; the windows are still ``window`` rows each, so their count
    does not depend on the gaps. A window with no usable variation raises
    :class:`EstimationError` naming its first date, a ``window`` below 3 :class:`DomainError`.
    """
    check_window(window)
    lagged, lead, _ = _consecutive_pairs(days, deviations)
    if window > lagged.size + 1:
        raise EstimationError(f"window {window} longer than series of length {lagged.size + 1}")
    # one row per window; vecdot on these contiguous rows gives the same
    # bits as np.dot on each slice
    lagged = sliding_window_view(lagged, window - 1)
    lead = sliding_window_view(lead, window - 1)
    sxx = np.vecdot(lagged, lagged)
    if (sxx == 0.0).any():
        first_day = np.asarray(days, dtype="datetime64[D]")[np.argmax(sxx == 0.0)]
        raise EstimationError(f"rolling window starting {first_day}: {_DEGENERATE}")
    rhos = np.vecdot(lagged, lead) / sxx
    return RollingAr1(fits=rhos, rho_mean=float(np.mean(rhos)))


def check_window(window: int) -> None:
    """Raise :class:`DomainError` for a rolling window below 3 rows, too short to hold 2 pairs."""
    if window < 3:
        raise DomainError(f"rolling window must be at least 3, got {window}")


def half_life(rho: float) -> float:
    """Days for a deviation to halve absent shocks: ln 2 / (-ln rho)."""
    if not 0.0 < rho < 1.0:
        raise DomainError(f"half-life requires 0 < rho < 1, got {rho}")
    return math.log(2.0) / -math.log(rho)


def check_inversion_domain(rho: float, h: int, recovery: float = 0.0, method: str = "linear") -> None:
    """Raise :class:`DomainError`, checking in this order: rho in [0, 1), h >= 1 day, recovery in [0, 1), method."""
    if not 0.0 <= rho < 1.0:
        raise DomainError(f"rho must lie in [0, 1), got {rho}")
    if h < 1:
        raise DomainError(f"horizon must be at least 1 day, got {h}")
    if not 0.0 <= recovery < 1.0:
        raise DomainError(f"recovery must lie in [0, 1), got {recovery}")
    if method not in ANNUALIZATIONS:
        raise DomainError(f"unknown annualization method {method!r}")


def theoretical_futures(delta, rho: float, h: int, p, recovery: float = 0.0):
    """Futures price for a given default probability and recovery rate.

    (1 - p) * (1 + rho**h * delta) + p * recovery: survivors carry the
    decayed deviation, defaults pay the recovery value. ``delta`` and ``p``
    may be floats or equal-length arrays.
    """
    check_inversion_domain(rho, h, recovery)
    in_range = (0.0 <= p) & (p <= 1.0)
    if not np.all(in_range):
        raise DomainError(f"default probability must lie in [0, 1], got {np.ravel(p)[np.argmin(in_range)]}")
    return (1.0 - p) * (1.0 + rho**h * delta) + p * recovery


def implied_default_prob(s: float, f: float, rho: float, h: int, recovery: float = 0.0) -> float:
    """Invert the futures price to a per-horizon default probability.

    With recovery 0 this is 1 - f / (1 + rho**h * (s - 1)); the general
    form divides the futures shortfall by the survivor/recovery gap. Exact
    inverse of :func:`theoretical_futures` in the probability argument.
    """
    check_inversion_domain(rho, h, recovery)
    survivor_value = 1.0 + rho**h * (s - 1.0)
    denominator = survivor_value - recovery
    if denominator <= 0.0:
        raise InversionError(
            f"nonpositive denominator {denominator}: survivor value {survivor_value} "
            f"does not exceed recovery {recovery}"
        )
    return (survivor_value - f) / denominator


def annualize(p_horizon: float | np.ndarray, h: int, method: str = "linear") -> float | np.ndarray:
    """Rescale per-horizon probabilities to a 365-day basis, in basis points.

    linear:      p * (365 / h) * 1e4
    compounded:  (1 - (1 - p)**(365 / h)) * 1e4

    Takes one probability or an array of them. Small negative inputs pass
    through unchanged in sign so untrimmed diagnostic series can be
    summarized; values above 1 are rejected (an unknown ``method`` first).
    """
    check_inversion_domain(0.0, h, method=method)
    values = np.ravel(p_horizon)
    for bad, what in ((values > 1.0, "above 1"), (values <= -1.0, "at or below -1")):
        if bad.any():
            raise DomainError(f"probability {what}: {values[bad.argmax()]}")
    periods = DAYS_PER_YEAR / h
    if method == "linear":
        return p_horizon * periods * 1e4
    # compounded: scalar libm pow, one value at a time: np.power differs
    # from it in the last bit on some inputs, which would change prob.csv
    survival = np.array([(1.0 - p) ** periods for p in values.tolist()]).reshape(np.shape(p_horizon))
    return (1.0 - survival) * 1e4


@dataclass(frozen=True, eq=False)
class ProbSeries(Table):
    """Per-horizon and annualized implied default probability by date.

    ``trimmed`` flags dates whose negative raw value was clamped to zero.
    """

    date: Dates
    p_horizon: Floats
    p_annualized_bps: Floats
    trimmed: Flags


def prob_series(
    aligned: AlignedSeries,
    rho: float,
    h: int = DEFAULTS["horizon"],
    recovery: float = DEFAULTS["recovery"],
    method: str = "linear",
) -> ProbSeries:
    """Raw implied default probabilities for every aligned observation.

    The inversion of :func:`implied_default_prob`, element-wise. Raw values
    feed summary statistics; :func:`trim_negative` of them is the published
    series. Raw values below :data:`RAW_PROB_FLOOR` emit a
    :class:`DataQualityWarning` instead of being silently clamped. An
    inversion or annualization that fails names the first date it fails
    on; dates before it still warn. An unknown ``method`` fails first.
    """
    check_inversion_domain(rho, h, recovery, method)
    survivor_value = 1.0 + rho**h * (aligned.s - 1.0)
    denominator = survivor_value - recovery
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = (survivor_value - aligned.f) / denominator
    bad = (denominator <= 0.0) | (raw > 1.0) | (raw <= -1.0)
    first_bad = int(np.argmax(bad)) if bad.any() else raw.size
    # a date whose inversion succeeds warns before its annualization fails
    warn_until = first_bad + 1 if first_bad < raw.size and denominator[first_bad] > 0.0 else first_bad
    for i in np.flatnonzero(raw[:warn_until] < RAW_PROB_FLOOR):
        warnings.warn(
            f"{aligned.date[i]}: raw default probability {raw[i]:.6f} below {RAW_PROB_FLOOR}; "
            "check the input prices",
            DataQualityWarning,
            stacklevel=2,
        )
    if first_bad < raw.size:
        s, f = float(aligned.s[first_bad]), float(aligned.f[first_bad])
        try:  # the scalar path raises the error this date hit, with its message
            annualize(implied_default_prob(s, f, rho, h, recovery), h, method)
        except (InversionError, DomainError) as exc:
            raise type(exc)(f"{aligned.date[first_bad]}: {exc}") from exc
    return ProbSeries(
        date=aligned.date,
        p_horizon=raw,
        p_annualized_bps=annualize(raw, h, method),
        trimmed=np.zeros(raw.size, dtype=bool),
    )


def trim_negative(series: ProbSeries) -> ProbSeries:
    """Clamp negative per-horizon probabilities to zero and flag them as trimmed."""
    negative = series.p_horizon < 0.0
    return replace(
        series,
        p_horizon=np.where(negative, 0.0, series.p_horizon),
        p_annualized_bps=np.where(negative, 0.0, series.p_annualized_bps),
        trimmed=series.trimmed | negative,
    )


write_prob_csv = write_table_csv  # no command calls it; only pegbench/spans.py wraps it
