"""Summary statistics and OLS with White (HC0) robust standard errors.

The coefficient covariance is the sandwich

    (X'X)^-1 X' diag(e^2) X (X'X)^-1 = R^-1 U'U R^-T,  U = diag(e) Q,

with X = QR the thin QR factorization of X: only the k x k triangle R
is inverted, and X'X is never formed. Quartiles use linear interpolation
between order statistics and the sample standard deviation uses the n-1
denominator, matching standard statistical-package output. Significance
stars use two-sided normal critical values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from .errors import EstimationError

if TYPE_CHECKING:  # an annotation only: stats runs no feature code
    from .features import Panel

_STAR_THRESHOLDS = ((2.576, "***"), (1.960, "**"), (1.645, "*"))

# Regressor sets for the four panel regressions, keyed by column label.
_REGRESSOR_SETS: dict[str, tuple[str, ...]] = {
    "I": ("sigma_btc_bps",),
    "II": ("sigma_usdt_bps",),
    "III": ("r_btc_bps",),
    "IV": ("sigma_btc_bps", "sigma_usdt_bps", "r_btc_bps"),
}


@dataclass(frozen=True)
class SummaryRow:
    """Distribution summary of one named series."""

    name: str
    count: int
    mean: float
    std: float
    min: float
    q25: float
    q50: float
    q75: float
    max: float


def _sorted_quantile(arr: np.ndarray, q: float) -> float:
    """``np.quantile(arr, q)`` of a sorted array, bit for bit, without loading ``numpy.ma``.

    numpy's ``linear`` method: between the neighbours of the virtual index
    (n - 1) * q, interpolating from whichever neighbour is nearer. At or
    past the last index (for the quartiles, only in a one-value series) both
    neighbours are the last value, weighted by the index + 1, which keeps
    the sign of -0.0. A NaN (sorted last) makes every quantile NaN.
    """
    n = arr.size
    last = float(arr[-1])
    if math.isnan(last):
        return last
    v = (n - 1) * q
    if v >= n - 1:
        a = b = last
        g = v + 1.0
    else:
        i = int(v)
        a, b = float(arr[i]), float(arr[i + 1])
        g = v - i
    d = b - a
    return b - d * (1.0 - g) if g >= 0.5 else a + d * g


def summary_stats(name: str, values: Sequence[float] | np.ndarray) -> SummaryRow:
    arr = np.sort(np.asarray(values, dtype=float))  # canonical order: result is permutation-invariant
    if arr.size == 0:
        raise EstimationError(f"empty series {name!r}")
    q25, q50, q75 = (_sorted_quantile(arr, q) for q in (0.25, 0.5, 0.75))
    return SummaryRow(
        name=name,
        count=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std(ddof=1)) if arr.size > 1 else float("nan"),
        min=float(arr.min()),
        q25=q25,
        q50=q50,
        q75=q75,
        max=float(arr.max()),
    )


def _stars(t: float) -> str:
    magnitude = abs(t)
    for threshold, mark in _STAR_THRESHOLDS:
        if magnitude >= threshold:
            return mark
    return ""


@dataclass(frozen=True)
class RegressionResult:
    """OLS estimates with HC0 standard errors.

    ``names`` follows the column order of the design matrix (intercept
    first when present). t statistics are coefficient / stderr; a zero
    stderr yields +-inf for a nonzero coefficient and nan otherwise.
    """

    names: tuple[str, ...]
    coefficients: tuple[float, ...]
    hc0_stderr: tuple[float, ...]
    t_stats: tuple[float, ...]
    stars: tuple[str, ...]
    r_squared: float
    n: int


def ols_hc0(
    y: Sequence[float] | np.ndarray,
    X: Sequence[Sequence[float]] | np.ndarray,
    names: Sequence[str] | None = None,
) -> RegressionResult:
    """Least squares with the White heteroscedasticity-robust covariance.

    ``X`` must already contain the intercept column if one is wanted.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    if X.ndim != 2:
        raise EstimationError("design matrix must be two-dimensional")
    n, k = X.shape
    if y.size != n:
        raise EstimationError(f"response length {y.size} does not match {n} design rows")
    if not np.isfinite(y).all():
        raise EstimationError(f"response is not finite at row {np.flatnonzero(~np.isfinite(y))[0]}")
    if n <= k:
        raise EstimationError(f"need more observations ({n}) than coefficients ({k})")
    q, r = np.linalg.qr(X)
    # each column must add to those before it, relative to its own norm; NaN fails too
    if not np.all(np.abs(np.diag(r)) > n * np.finfo(float).eps * np.linalg.norm(X, axis=0)):
        raise EstimationError("singular design: regressors are collinear or not finite")
    if names is None:
        names = tuple(f"x{i}" for i in range(k))
    elif len(names) != k:
        raise EstimationError(f"{len(names)} names for {k} columns")

    # partial pivoting swaps no rows of a triangular matrix: a back substitution
    beta = np.linalg.solve(r, q.T @ y)
    residuals = y - X @ beta

    # X = QR turns the sandwich into R^-1 U'U R^-T with U = diag(e) Q
    u = q * residuals[:, None]
    r_inv = np.linalg.inv(r)
    cov = r_inv @ (u.T @ u) @ r_inv.T
    stderr = np.sqrt(np.diag(cov))

    with np.errstate(divide="ignore", invalid="ignore"):
        t_stats = beta / stderr

    ssr = float(residuals @ residuals)
    sst = float(((y - y.mean()) ** 2).sum())
    # a (numerically) constant response has no centered variance to explain;
    # R^2 is undefined there rather than a ratio of rounding noise
    if sst <= 1e-24 * float(y @ y):
        r_squared = float("nan")
    else:
        r_squared = 1.0 - ssr / sst

    return RegressionResult(
        names=tuple(names),
        coefficients=tuple(float(b) for b in beta),
        hc0_stderr=tuple(float(s) for s in stderr),
        t_stats=tuple(float(t) for t in t_stats),
        stars=tuple(_stars(float(t)) for t in t_stats),
        r_squared=r_squared,
        n=n,
    )


def run_panel_regressions(panel: Panel) -> dict[str, RegressionResult]:
    """Regress annualized default probability on the feature columns.

    Four designs: BTC volatility alone, USDT volatility alone, BTC returns
    alone, and all three together. Rows with an undefined (NaN) return are
    dropped only from the designs that use returns.
    """
    has_return = ~np.isnan(panel.r_btc_bps)
    results = {}
    for label, regressors in _REGRESSOR_SETS.items():
        rows = has_return if "r_btc_bps" in regressors else np.ones(len(panel), dtype=bool)
        if not rows.any():
            raise EstimationError(f"no usable rows for regression {label}")
        columns = [np.ones(int(rows.sum()))] + [getattr(panel, reg)[rows] for reg in regressors]
        results[label] = ols_hc0(panel.p_bps[rows], np.column_stack(columns), names=("intercept",) + regressors)
    return results


def _text_table(rows: Sequence[Sequence[str]]) -> str:
    """Rows as aligned plain text: the first column left-aligned, the others right-aligned."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    lines = []
    for first, *rest in rows:
        cells = [first.ljust(widths[0])] + [cell.rjust(w) for cell, w in zip(rest, widths[1:])]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines) + "\n"


def _csv_text(rows: Iterable[Sequence[str]]) -> str:
    """Rows joined by commas: no cell holds a comma, quote or line break, so none needs quoting."""
    return "".join(",".join(row) + "\n" for row in rows)


def _statistics(row: SummaryRow) -> tuple[float, ...]:
    return row.mean, row.std, row.min, row.q25, row.q50, row.q75, row.max


def format_summary_table(rows: Iterable[SummaryRow]) -> str:
    """Render summary rows as aligned plain text."""
    header = ("", "count", "mean", "std", "min", "25%", "50%", "75%", "max")
    body = ((row.name, f"{row.count}", *(f"{v:.4f}" for v in _statistics(row))) for row in rows)
    return _text_table([header, *body])


def summary_table_csv(rows: Iterable[SummaryRow]) -> str:
    header = ("name", "count", "mean", "std", "min", "q25", "q50", "q75", "max")
    body = ((row.name, f"{row.count}", *map(repr, _statistics(row))) for row in rows)
    return _csv_text([header, *body])


def format_regression_table(results: Mapping[str, RegressionResult]) -> str:
    """Render the regression columns side by side, stderrs in parentheses.

    Regressors appear in order of first appearance with the intercept last,
    then the R-squared and observation-count rows. A regressor named twice
    in one column shows its first coefficient.
    """
    cells: dict[tuple[str, str], tuple[str, str]] = {}
    for label, result in results.items():
        for name, coef, se, stars in zip(result.names, result.coefficients, result.hc0_stderr, result.stars):
            cells.setdefault((label, name), (f"{coef:.4f}{stars}", f"({se:.4f})"))
    rows: list[tuple[str, ...]] = [("", *results)]
    for name in [*dict.fromkeys(regressor for _, regressor in cells if regressor != "intercept"), "intercept"]:
        pairs = [cells.get((label, name), ("", "")) for label in results]
        rows += [(name, *(coef for coef, _ in pairs)), ("", *(se for _, se in pairs))]
    rows.append(("r_squared", *(f"{result.r_squared:.2f}" for result in results.values())))
    rows.append(("n_obs", *(f"{result.n}" for result in results.values())))
    return _text_table(rows)


def regression_table_csv(results: Mapping[str, RegressionResult]) -> str:
    header = ("column", "regressor", "coefficient", "hc0_stderr", "t_stat", "stars", "r_squared", "n_obs")
    body = (
        (label, name, repr(coef), repr(se), repr(t), stars, repr(result.r_squared), f"{result.n}")
        for label, result in results.items()
        for name, coef, se, t, stars in zip(
            result.names, result.coefficients, result.hc0_stderr, result.t_stats, result.stars
        )
    )
    return _csv_text([header, *body])
