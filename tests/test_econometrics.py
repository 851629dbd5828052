"""Tests for summary statistics and HC0 ordinary least squares.

The regression oracle is a deliberately naive implementation of the
sandwich formula using explicit matrix inverses; the library must match it
to high relative precision on small random designs.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pegrisk.econometrics import (
    format_regression_table,
    format_summary_table,
    ols_hc0,
    regression_table_csv,
    run_panel_regressions,
    summary_stats,
    summary_table_csv,
)
from pegrisk.errors import EstimationError
from pegrisk.features import Panel


def naive_ols_hc0(y, X):
    """Textbook sandwich with explicit inverses; the independent oracle."""
    X = np.asarray(X, float)
    y = np.asarray(y, float)
    xtx_inv = np.linalg.inv(X.T @ X)
    beta = xtx_inv @ X.T @ y
    e = y - X @ beta
    meat = X.T @ np.diag(e**2) @ X
    cov = xtx_inv @ meat @ xtx_inv
    return beta, np.sqrt(np.diag(cov))


class TestSummaryStats:
    def test_hand_computed_values(self):
        row = summary_stats("x", [1.0, 2.0, 3.0, 4.0])
        assert row.count == 4
        assert row.mean == 2.5
        assert row.q50 == 2.5
        assert row.std == pytest.approx(math.sqrt(5.0 / 3.0), rel=1e-12)
        assert row.std == pytest.approx(1.2910, abs=1e-4)
        assert row.q25 == pytest.approx(1.75)
        assert row.q75 == pytest.approx(3.25)
        assert row.min == 1.0 and row.max == 4.0

    def test_constant_series(self):
        row = summary_stats("c", [5.0] * 10)
        assert row.std == 0.0
        assert row.min == row.q25 == row.q50 == row.q75 == row.max == 5.0

    def test_empty_series_rejected(self):
        with pytest.raises(EstimationError):
            summary_stats("x", [])

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50))
    def test_reverse_invariance(self, values):
        forward = summary_stats("x", values)
        backward = summary_stats("x", list(reversed(values)))
        for field in ("count", "mean", "std", "min", "q25", "q50", "q75", "max"):
            a, b = getattr(forward, field), getattr(backward, field)
            assert a == b or (math.isnan(a) and math.isnan(b))


class TestOlsHc0:
    def test_perfect_fit(self):
        x = np.arange(1.0, 9.0)
        X = np.column_stack([np.ones_like(x), x])
        result = ols_hc0(2.0 * x, X, names=("intercept", "x"))
        assert result.coefficients[0] == pytest.approx(0.0, abs=1e-9)
        assert result.coefficients[1] == pytest.approx(2.0, rel=1e-12)
        assert result.r_squared == pytest.approx(1.0, abs=1e-12)
        assert all(se == pytest.approx(0.0, abs=1e-9) for se in result.hc0_stderr)

    def test_matches_naive_oracle_on_fixed_design(self):
        rng = np.random.default_rng(12345)
        X = np.column_stack([np.ones(8), rng.normal(size=8), rng.normal(size=8)])
        y = X @ np.array([1.0, -2.0, 0.5]) + rng.normal(size=8)
        result = ols_hc0(y, X)
        beta, stderr = naive_ols_hc0(y, X)
        for a, b in zip(result.coefficients, beta):
            assert a == pytest.approx(b, rel=1e-9)
        for a, b in zip(result.hc0_stderr, stderr):
            assert a == pytest.approx(b, rel=1e-9)

    def test_matches_naive_oracle_on_random_designs(self):
        rng = np.random.default_rng(777)
        for _ in range(50):
            n = int(rng.integers(6, 21))
            k = int(rng.integers(1, 5))
            k = min(k, n - 2)
            X = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))]) if k > 1 else np.ones((n, 1))
            y = rng.normal(size=n)
            result = ols_hc0(y, X)
            beta, stderr = naive_ols_hc0(y, X)
            np.testing.assert_allclose(result.coefficients, beta, rtol=1e-9)
            np.testing.assert_allclose(result.hc0_stderr, stderr, rtol=1e-9)

    def test_normal_equations_hold(self):
        rng = np.random.default_rng(5)
        X = np.column_stack([np.ones(60), rng.normal(size=(60, 3))])
        y = rng.normal(size=60)
        result = ols_hc0(y, X)
        residuals = y - X @ np.array(result.coefficients)
        assert np.linalg.norm(X.T @ residuals) <= 1e-9 * np.linalg.norm(X.T @ y)

    def test_reduces_to_classical_variance_when_homoscedastic(self):
        # residuals constructed orthogonal to the design with equal magnitude,
        # so diag(e^2) = c^2 I and the sandwich collapses to c^2 (X'X)^-1
        X = np.column_stack([np.ones(4), np.array([1.0, -1.0, 2.0, -2.0])])
        e = 0.3 * np.array([1.0, 1.0, -1.0, -1.0])
        assert np.allclose(X.T @ e, 0.0)
        y = X @ np.array([0.7, 1.3]) + e
        result = ols_hc0(y, X)
        classical = 0.3**2 * np.linalg.inv(X.T @ X)
        np.testing.assert_allclose(
            np.array(result.hc0_stderr) ** 2, np.diag(classical), rtol=1e-9
        )

    def test_scale_equivariance(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=40)
        X = np.column_stack([np.ones(40), x])
        y = 3.0 + 0.5 * x + rng.normal(size=40) * (1.0 + np.abs(x))
        base = ols_hc0(y, X)
        c = 4.0  # power of two keeps the rescaling exact in floating point
        scaled = ols_hc0(y, np.column_stack([np.ones(40), c * x]))
        assert scaled.coefficients[1] == pytest.approx(base.coefficients[1] / c, rel=1e-9)
        assert scaled.hc0_stderr[1] == pytest.approx(base.hc0_stderr[1] / c, rel=1e-9)
        assert scaled.t_stats[1] == pytest.approx(base.t_stats[1], rel=1e-9)
        assert scaled.r_squared == pytest.approx(base.r_squared, rel=1e-9)

    def test_constant_response_has_undefined_r_squared(self):
        rng = np.random.default_rng(2)
        X = np.column_stack([np.ones(59), rng.normal(size=59)])
        result = ols_hc0(np.full(59, 29.99), X)
        assert math.isnan(result.r_squared)

    def test_singular_design_rejected(self):
        X = np.column_stack([np.ones(10), np.ones(10)])
        with pytest.raises(EstimationError, match="singular"):
            ols_hc0(np.arange(10.0), X)

    @pytest.mark.parametrize(
        "column",
        [
            lambda x: x,
            lambda x: 3.0 - 2.0 * x,
            lambda x: 1e14 * (3.0 - 2.0 * x),
            lambda x: 0.0 * x,
            lambda x: np.where(x > 1.0, np.nan, x),
            lambda x: np.where(x > 1.0, np.inf, x),
        ],
        ids=["duplicate", "affine", "affine-rescaled", "zero", "nan", "inf"],
    )
    def test_degenerate_regressor_is_singular(self, column):
        x = np.random.default_rng(4).normal(size=200)
        with pytest.raises(EstimationError, match="singular"):
            ols_hc0(x + 1.0, np.column_stack([np.ones(200), x, column(x)]))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_response_is_rejected(self, value):
        rng = np.random.default_rng(8)
        X = np.column_stack([np.ones(20), rng.normal(size=20)])
        y = rng.normal(size=20)
        y[4] = y[9] = value
        with pytest.raises(EstimationError, match="^response is not finite at row 4$"):
            ols_hc0(y, X)

    @pytest.mark.parametrize("scale", [1e14, 1e16, 1e100])
    def test_regressor_units_do_not_make_the_design_singular(self, scale):
        # one SVD tolerance for the whole matrix called this design rank-deficient
        rng = np.random.default_rng(6)
        x = rng.normal(size=1000)
        y = 2.0 + 0.5 * x + rng.normal(size=1000)
        base = ols_hc0(y, np.column_stack([np.ones(1000), x]))
        scaled = ols_hc0(y, np.column_stack([np.ones(1000), scale * x]))
        assert scaled.t_stats == pytest.approx(base.t_stats, rel=1e-12)
        assert scaled.coefficients[1] * scale == pytest.approx(base.coefficients[1], rel=1e-12)

    def test_insufficient_rows_rejected(self):
        with pytest.raises(EstimationError):
            ols_hc0([1.0, 2.0], np.ones((2, 2)))

    def test_stars_thresholds(self):
        # build a response whose t statistics are controlled via noise scale
        rng = np.random.default_rng(3)
        x = rng.normal(size=500)
        X = np.column_stack([np.ones(500), x])
        strong = ols_hc0(5.0 * x + rng.normal(size=500), X)
        assert strong.stars[1] == "***"
        noise = ols_hc0(rng.normal(size=500), X)
        assert noise.stars[1] in ("", "*", "**")


def _panel(n, seed=0, beta=0.04, constant_usdt=False):
    rng = np.random.default_rng(seed)
    sigma_btc = np.exp(rng.normal(math.log(300.0), 0.5, n))
    sigma_usdt = np.full(n, 20.0) if constant_usdt else np.exp(rng.normal(math.log(20.0), 0.4, n))
    r_btc = rng.normal(0.0, 400.0, n)
    noise = rng.normal(0.0, 0.05 * sigma_btc)  # heteroscedastic by construction
    p = beta * sigma_btc + noise
    r_btc[0] = np.nan  # no return on the first date
    return Panel(
        date=np.datetime64("2020-02-28") + np.arange(n),
        p_bps=p,
        sigma_btc_bps=sigma_btc,
        sigma_usdt_bps=sigma_usdt,
        r_btc_bps=r_btc,
    )


class TestPanelRegressions:
    def test_planted_coefficient_recovered(self):
        hits = 0
        for seed in range(100):
            results = run_panel_regressions(_panel(410, seed=seed))
            col = results["I"]
            i = col.names.index("sigma_btc_bps")
            if abs(col.coefficients[i] - 0.04) <= 2.0 * col.hc0_stderr[i]:
                hits += 1
        assert hits >= 90

    def test_row_counts_with_and_without_returns(self):
        results = run_panel_regressions(_panel(410))
        assert results["I"].n == 410
        assert results["II"].n == 410
        assert results["III"].n == 409
        assert results["IV"].n == 409

    def test_constant_regressor_is_singular(self):
        with pytest.raises(EstimationError, match="singular"):
            run_panel_regressions(_panel(50, constant_usdt=True))

    def test_tables_render(self):
        results = run_panel_regressions(_panel(100))
        text = format_regression_table(results)
        assert "sigma_btc_bps" in text and "intercept" in text
        assert "r_squared" in text and "n_obs" in text
        csv_text = regression_table_csv(results)
        assert csv_text.splitlines()[0].startswith("column,regressor")
        rows = [summary_stats("a", [1.0, 2.0]), summary_stats("b", [3.0, 4.0])]
        table = format_summary_table(rows)
        assert "count" in table and table.startswith(" ")
        assert summary_table_csv(rows).splitlines()[0].startswith("name,count")
