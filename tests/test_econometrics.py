"""Tests for summary statistics and HC0 ordinary least squares.

The regression oracle is a deliberately naive implementation of the
sandwich formula using explicit matrix inverses; the library must match it
to high relative precision on small random designs.
"""

import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pegrisk import econometrics
from pegrisk.econometrics import (
    RegressionResult,
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

    # floats() also draws NaN, +-inf, -0.0 and subnormals; the sampled values make repeats common
    @given(
        st.lists(
            st.floats() | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, math.inf, -math.inf, math.nan]),
            min_size=1,
            max_size=40,
        )
    )
    def test_quartiles_match_numpy_quantile_bit_for_bit(self, values):
        with np.errstate(all="ignore"):
            row = summary_stats("x", values)
            expected = np.quantile(np.sort(values), [0.25, 0.5, 0.75]).tolist()
        # np.quantile partitions its input, which may reorder 0.0 and -0.0 (they compare equal), so
        # with both in the data only the value of a zero quartile is pinned, not its sign
        mixed_zeros = {math.copysign(1.0, v) for v in values if v == 0.0} == {1.0, -1.0}
        for got, want in zip((row.q25, row.q50, row.q75), expected):
            if math.isnan(want):
                assert math.isnan(got)
            elif mixed_zeros:
                assert got == want
            else:
                assert struct.pack("<d", got) == struct.pack("<d", want)


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

    def test_nearly_constant_response_has_r_squared(self):
        # a centered sum of squares near 1e-14 of y @ y is above the constant-response cut, which is 1e-24
        rng = np.random.default_rng(2)
        x = rng.normal(size=59)
        y = 1000.0 + 1e-4 * (x + rng.normal(size=59))
        sst = float(((y - y.mean()) ** 2).sum())
        assert 1e-15 < sst / float(y @ y) < 1e-13
        result = ols_hc0(y, np.column_stack([np.ones(59), x]))
        assert 0.0 < result.r_squared < 1.0

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

    @pytest.mark.parametrize(
        "y, X, names, message",
        [
            (np.arange(10.0), np.arange(10.0), None, "design matrix must be two-dimensional"),
            (np.arange(3.0), np.ones((10, 2)), None, "response length 3 does not match 10 design rows"),
            (np.arange(10.0) % 3, np.column_stack([np.ones(10), np.arange(10.0)]), ["x"], "1 names for 2 columns"),
        ],
        ids=["one-dimensional-design", "response-length", "names"],
    )
    def test_malformed_input_rejected(self, y, X, names, message):
        with pytest.raises(EstimationError) as caught:
            ols_hc0(y, X, names)
        assert str(caught.value) == message

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

    @pytest.mark.parametrize("t, stars", [(1.645, "*"), (1.960, "**"), (2.576, "***")])
    def test_t_exactly_at_a_threshold_earns_its_stars(self, t, stars):
        assert econometrics._stars(t) == econometrics._stars(-t) == stars


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

    def test_no_rows_with_a_return_rejected(self):
        panel = replace(_panel(50), r_btc_bps=np.full(50, np.nan))
        with pytest.raises(EstimationError, match="^no usable rows for regression III$"):
            run_panel_regressions(panel)

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


# Table 4's text on hand-built columns, written out in full: regressors in the order they first appear, the
# intercept last, a blank pair where a column lacks a regressor, and a repeated name's first coefficient
TABLE4_TEXT = {
    "disjoint": (
        {
            "A": RegressionResult(
                ("intercept", "sigma_btc_bps"), (1.5, -0.25), (0.1, 0.05), (15.0, -5.0), ("***", "***"), 0.5, 100
            ),
            "B": RegressionResult(
                ("intercept", "r_btc_bps"), (-2.0, 0.001), (1.0, 0.002), (-2.0, 0.5), ("**", ""), math.nan, 50
            ),
        },
        "                        A          B\n"
        "sigma_btc_bps  -0.2500***\n"
        "                 (0.0500)\n"
        "r_btc_bps                     0.0010\n"
        "                            (0.0020)\n"
        "intercept       1.5000***  -2.0000**\n"
        "                 (0.1000)   (1.0000)\n"
        "r_squared            0.50        nan\n"
        "n_obs                 100         50\n",
    ),
    "no-intercept": (
        {
            "I": RegressionResult(("x", "y"), (0.12345, -3.0), (0.5, 1.0), (0.2469, -3.0), ("", "***"), 0.25, 10),
            "II": RegressionResult(("intercept", "x"), (10.0, 1.75), (5.5, 1.0), (1.818, 1.75), ("*", "*"), 0.125, 11),
        },
        "                    I        II\n"
        "x              0.1235   1.7500*\n"
        "             (0.5000)  (1.0000)\n"
        "y          -3.0000***\n"
        "             (1.0000)\n"
        "intercept              10.0000*\n"
        "                       (5.5000)\n"
        "r_squared        0.25      0.12\n"
        "n_obs              10        11\n",
    ),
    "repeated-name": (
        {
            "R": RegressionResult(
                ("intercept", "x", "x"), (1.0, 2.0, 3.0), (0.1, 0.2, 0.3), (10.0,) * 3, ("***", "***", "*"), 0.9, 20
            )
        },
        "                   R\n"
        "x          2.0000***\n"
        "            (0.2000)\n"
        "intercept  1.0000***\n"
        "            (0.1000)\n"
        "r_squared       0.90\n"
        "n_obs             20\n",
    ),
    "zero-stderr": (
        {"Z": RegressionResult(("intercept", "x"), (1.0, 2.0), (0.5, 0.0), (2.0, math.inf), ("**", "***"), 1.0, 5)},
        "                   Z\n"
        "x          2.0000***\n"
        "            (0.0000)\n"
        "intercept   1.0000**\n"
        "            (0.5000)\n"
        "r_squared       1.00\n"
        "n_obs              5\n",
    ),
    "empty": ({}, "\nintercept\n\nr_squared\nn_obs\n"),
}


@pytest.mark.parametrize("results, text", TABLE4_TEXT.values(), ids=TABLE4_TEXT)
def test_regression_table_text(results, text):
    assert format_regression_table(results) == text
