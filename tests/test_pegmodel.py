"""Tests for mean-reversion fitting and the default-probability inversion."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pegrisk.errors import DataQualityWarning, DomainError, EstimationError, InversionError
from pegrisk.marketdata import AlignedSeries
from pegrisk.pegmodel import (
    annualize,
    fit_ar1,
    fit_ar1_rolling,
    half_life,
    implied_default_prob,
    prob_series,
    theoretical_futures,
    trim_negative,
)
from pegrisk.simkit import simulate_ar1_series


def _days(n):
    return np.datetime64("2020-01-01") + np.arange(n)


def _aligned(pairs):
    s, f = zip(*pairs)
    return AlignedSeries(date=np.datetime64("2020-01-01") + np.arange(len(pairs)), s=s, f=f)


class TestFitAr1:
    def test_geometric_decay_exact(self):
        fit = fit_ar1(_days(4), [1.0, 0.5, 0.25, 0.125])
        assert fit.rho == pytest.approx(0.5, abs=1e-15)
        assert fit.stderr == pytest.approx(0.0, abs=1e-12)
        assert fit.n == 4
        assert fit.is_stable

    @given(
        rho0=st.floats(min_value=0.05, max_value=0.95),
        scale=st.floats(min_value=1e-4, max_value=10.0),
    )
    def test_noiseless_geometric_recovers_coefficient(self, rho0, scale):
        values = [scale]
        for _ in range(19):
            values.append(values[-1] * rho0)
        fit = fit_ar1(_days(20), values)
        assert fit.rho == pytest.approx(rho0, rel=1e-13)

    def test_all_zero_series_degenerate(self):
        with pytest.raises(EstimationError, match="degenerate"):
            fit_ar1(_days(10), [0.0] * 10)

    def test_too_short(self):
        with pytest.raises(EstimationError):
            fit_ar1(_days(2), [1.0, 0.5])

    def test_coverage_against_simulated_truth(self):
        # independent oracle: simulate the autoregression, fit, and demand
        # 2-stderr coverage of the planted coefficient in >= 90 of 100 seeds
        rho0 = 0.73
        hits = 0
        for seed in range(100):
            deviations = simulate_ar1_series(rho0, 5e-4, 400, rng=np.random.default_rng(seed))
            fit = fit_ar1(_days(400), deviations)
            if abs(fit.rho - rho0) <= 2.0 * fit.stderr:
                hits += 1
        assert hits >= 90

    def test_long_series_oracle_and_rolling_bias(self):
        # 10 seeds of a 20,000-day series: every full-sample fit, which
        # --rho estimate uses, lies within 3 of its own SEs of the planted rho,
        # while the mean of the window-60 fits sits at the first-order bias of
        # a fit through the origin over 59 pairs: rho - 2 rho / 59 = 0.7053
        rho0, window, seeds = 0.73, 60, range(10)
        rolling_means = []
        for seed in seeds:
            deviations = simulate_ar1_series(rho0, 5e-4, 20_000, rng=np.random.default_rng(seed))
            fit = fit_ar1(_days(20_000), deviations)
            assert abs(fit.rho - rho0) < 3.0 * fit.stderr, seed
            rolling_means.append(fit_ar1_rolling(_days(20_000), deviations, window).rho_mean)
        biased = rho0 - 2.0 * rho0 / (window - 1)
        across_seeds_se = np.std(rolling_means, ddof=1) / np.sqrt(len(seeds))
        assert abs(np.mean(rolling_means) - biased) < 3.0 * across_seeds_se

    def test_rolling_windows_and_mean(self):
        values = [1.0 * 0.5**t for t in range(10)]
        rolling = fit_ar1_rolling(_days(10), values, window=5)
        assert len(rolling.fits) == 6
        for rho in rolling.fits:
            assert rho == pytest.approx(0.5, rel=1e-12)
        assert rolling.rho_mean == pytest.approx(0.5, rel=1e-12)

    def test_window_longer_than_series(self):
        with pytest.raises(EstimationError, match="window"):
            fit_ar1_rolling(_days(3), [1.0, 0.5, 0.25], window=4)

    def test_window_below_minimum(self):
        with pytest.raises(EstimationError):
            fit_ar1_rolling(_days(4), [1.0, 0.5, 0.25, 0.1], window=2)

    # two runs of halving deviations, a week apart: the pair across the gap
    # (0.125 -> 8.0) is not a one-day step and must not enter the fit
    GAP_DAYS = np.concatenate((_days(4), _days(4) + 10))
    GAP_VALUES = [1.0, 0.5, 0.25, 0.125, 8.0, 4.0, 2.0, 1.0]

    def test_pair_across_calendar_gap_left_out(self):
        fit = fit_ar1(self.GAP_DAYS, self.GAP_VALUES)
        assert fit.rho == 0.5
        assert fit.stderr == 0.0
        assert fit.n == 8
        # read as one-day steps, the jump across the gap is a large residual
        assert fit_ar1(_days(8), self.GAP_VALUES).stderr > 0.1

    def test_stderr_degrees_of_freedom_count_pairs_used(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=12)
        days = np.concatenate((_days(5), _days(7) + 9))
        lagged = np.concatenate((values[0:4], values[5:11]))
        lead = np.concatenate((values[1:5], values[6:12]))
        rho = lagged @ lead / (lagged @ lagged)
        residuals = lead - rho * lagged
        stderr = np.sqrt(residuals @ residuals / (10 - 1) / (lagged @ lagged))
        fit = fit_ar1(days, values)
        assert fit.rho == pytest.approx(rho, rel=1e-12)
        assert fit.stderr == pytest.approx(stderr, rel=1e-12)

    def test_rolling_windows_mask_gaps_without_shortening(self):
        rolling = fit_ar1_rolling(self.GAP_DAYS, self.GAP_VALUES, window=4)
        assert len(rolling.fits) == 5
        assert np.all(rolling.fits == 0.5)

    def test_needs_two_consecutive_pairs(self):
        with pytest.raises(EstimationError, match="2 pairs of consecutive days, got 1"):
            fit_ar1(np.array(["2020-01-01", "2020-01-02", "2020-01-04"], dtype="datetime64[D]"), [1.0, 0.5, 0.2])

    def test_dates_must_match_deviations(self):
        with pytest.raises(EstimationError, match="3 dates for 4 deviations"):
            fit_ar1(_days(3), [1.0, 0.5, 0.25, 0.125])


class TestHalfLife:
    def test_one_step_halving(self):
        assert half_life(0.5) == 1.0

    def test_value_bracketed_by_iteration(self):
        # oracle: iterate delta -> rho * delta until the deviation halves;
        # the half-life must land between the last two step counts and
        # satisfy rho**hl == 1/2
        rho = 0.73
        hl = half_life(rho)
        steps = 0
        deviation = 1.0
        while deviation > 0.5:
            deviation *= rho
            steps += 1
        assert steps - 1 < hl <= steps
        assert rho**hl == pytest.approx(0.5, abs=1e-12)
        assert 2.19 <= hl <= 2.21

    @pytest.mark.parametrize("rho", [1.0, 0.0, -0.2, 1.5])
    def test_domain(self, rho):
        with pytest.raises(DomainError):
            half_life(rho)


class TestTheoreticalFutures:
    def test_discount_at_typical_inputs(self):
        f = theoretical_futures(0.0007, 0.73, 90, 0.0008, 0.0)
        # rho**90 ~ 5e-13, so the surviving deviation is invisible
        assert f == pytest.approx(0.9992, abs=1e-9)

    def test_no_default_perfect_peg(self):
        assert theoretical_futures(0.0, 0.5, 30, 0.0, 0.0) == 1.0

    def test_certain_default_pays_recovery(self):
        assert theoretical_futures(0.002, 0.5, 30, 1.0, 0.75) == 0.75

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            theoretical_futures(0.0, 1.0, 30, 0.1)
        with pytest.raises(DomainError):
            theoretical_futures(0.0, 0.5, 0, 0.1)
        with pytest.raises(DomainError):
            theoretical_futures(0.0, 0.5, 30, 1.5)
        with pytest.raises(DomainError):
            theoretical_futures(0.0, 0.5, 30, 0.1, recovery=-0.1)

    def test_bad_probability_array_names_its_first_bad_value(self):
        p = np.full(410, np.nan)
        p[:3] = 0.1
        p[5] = 1.5
        with pytest.raises(DomainError) as exc:
            theoretical_futures(np.zeros(410), 0.5, 30, p)
        assert str(exc.value) == "default probability must lie in [0, 1], got nan"


class TestImpliedDefaultProb:
    def test_typical_discount(self):
        p = implied_default_prob(1.0007, 0.9992, 0.73, 90, 0.0)
        assert p == pytest.approx(8.0e-4, abs=1e-9)
        assert 29.0 <= annualize(p, 90) <= 33.0

    def test_no_discount_no_default(self):
        for rho in (0.0, 0.5, 0.73, 0.99):
            assert implied_default_prob(1.0, 1.0, rho, 90, 0.0) == 0.0

    def test_recovery_multiplies_small_probabilities(self):
        p0 = implied_default_prob(1.0007, 0.9992, 0.73, 90, 0.0)
        p75 = implied_default_prob(1.0007, 0.9992, 0.73, 90, 0.75)
        assert p75 == pytest.approx(4.0 * p0, rel=1e-12)
        p90 = implied_default_prob(1.0007, 0.9992, 0.73, 90, 0.90)
        assert p90 == pytest.approx(10.0 * p0, rel=1e-12)

    def test_nonpositive_denominator(self):
        with pytest.raises(InversionError):
            implied_default_prob(0.5, 0.4, 0.99, 1, recovery=0.9)

    def test_recovery_one_rejected(self):
        with pytest.raises(DomainError):
            implied_default_prob(1.0, 0.999, 0.5, 30, recovery=1.0)


class TestInversionProperties:
    GRID_DELTAS = (-0.01, -0.005, 0.0, 0.005, 0.01)
    GRID_RHOS = (0.0, 0.5, 0.73, 0.99)
    GRID_HS = (1, 30, 90)
    GRID_PS = (0.0, 0.05, 0.1, 0.15, 0.2)
    GRID_RECOVERIES = (0.0, 0.5, 0.75, 0.9)

    def test_roundtrip_identity_on_grid(self):
        for delta in self.GRID_DELTAS:
            for rho in self.GRID_RHOS:
                for h in self.GRID_HS:
                    for p in self.GRID_PS:
                        for recovery in self.GRID_RECOVERIES:
                            f = theoretical_futures(delta, rho, h, p, recovery)
                            recovered = implied_default_prob(1.0 + delta, f, rho, h, recovery)
                            assert abs(recovered - p) < 1e-12

    @given(
        delta=st.floats(min_value=-0.01, max_value=0.01),
        rho=st.floats(min_value=0.0, max_value=0.99),
        h=st.integers(min_value=1, max_value=180),
        p=st.floats(min_value=0.0, max_value=0.2),
        recovery=st.sampled_from([0.0, 0.5, 0.75, 0.9]),
    )
    def test_roundtrip_identity_random(self, delta, rho, h, p, recovery):
        f = theoretical_futures(delta, rho, h, p, recovery)
        recovered = implied_default_prob(1.0 + delta, f, rho, h, recovery)
        assert abs(recovered - p) < 1e-12

    def test_long_horizon_limit_is_futures_discount(self):
        for delta in np.linspace(-0.02, 0.02, 9):
            for f in (0.97, 0.9951, 0.9992, 1.0, 1.005):
                p = implied_default_prob(1.0 + delta, f, 0.73, 90, 0.0)
                assert abs(p - (1.0 - f)) < 1e-9

    def test_limit_improves_with_horizon(self):
        delta, f, rho = 0.01, 0.999, 0.73
        gaps = [
            abs(implied_default_prob(1.0 + delta, f, rho, h, 0.0) - (1.0 - f))
            for h in (5, 15, 30, 60, 90)
        ]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_monotone_decreasing_in_futures(self):
        for f_lo, f_hi in [(0.99, 0.995), (0.995, 1.0), (1.0, 1.002)]:
            p_lo = implied_default_prob(1.0005, f_hi, 0.73, 30, 0.0)
            p_hi = implied_default_prob(1.0005, f_lo, 0.73, 30, 0.0)
            assert p_hi > p_lo

    def test_monotone_increasing_in_spot(self):
        # strict at horizons where rho**h is well above float resolution
        for h in (1, 5, 30):
            p_lo = implied_default_prob(0.999, 0.999, 0.73, h, 0.0)
            p_hi = implied_default_prob(1.002, 0.999, 0.73, h, 0.0)
            assert p_hi > p_lo
        # at h = 90 the decayed deviation underflows the ulp of 1.0
        assert implied_default_prob(1.002, 0.999, 0.73, 90, 0.0) >= implied_default_prob(
            0.999, 0.999, 0.73, 90, 0.0
        )

    @given(
        delta=st.floats(min_value=-0.01, max_value=0.01),
        rho=st.sampled_from([0.0, 0.5, 0.73]),
        h=st.sampled_from([1, 30, 90]),
        f=st.floats(min_value=0.97, max_value=1.01),
        recovery=st.sampled_from([0.25, 0.5, 0.75, 0.9]),
    )
    def test_recovery_scaling_identity(self, delta, rho, h, f, recovery):
        anchor = 1.0 + rho**h * delta
        p_r = implied_default_prob(1.0 + delta, f, rho, h, recovery)
        p_0 = implied_default_prob(1.0 + delta, f, rho, h, 0.0)
        assert p_r * (anchor - recovery) == pytest.approx(p_0 * anchor, rel=1e-13, abs=1e-16)


class TestAnnualize:
    def test_linear_matches_reported_mean_level(self):
        assert annualize(7.54e-4, 90, "linear") == pytest.approx(30.58, abs=0.01)

    def test_zero_is_zero(self):
        assert annualize(0.0, 90, "linear") == 0.0
        assert annualize(0.0, 90, "compounded") == 0.0

    def test_year_horizon_is_identity(self):
        assert annualize(0.01, 365, "linear") == pytest.approx(100.0, abs=1e-9)
        assert annualize(0.01, 365, "compounded") == pytest.approx(100.0, abs=1e-9)

    def test_rejects_probability_above_one(self):
        with pytest.raises(DomainError):
            annualize(1.2, 90)

    @pytest.mark.parametrize(
        "p, message",
        [([0.1, 2.0, 0.3, 5.0], "probability above 1: 2.0"), ([0.1, -1.5, -2.0], "probability at or below -1: -1.5")],
        ids=("above", "below"),
    )
    def test_names_the_first_value_out_of_range(self, p, message):
        with pytest.raises(DomainError) as caught:
            annualize(np.array(p * 1000), 90)
        assert str(caught.value) == message

    def test_unknown_method(self):
        with pytest.raises(DomainError):
            annualize(0.01, 90, "weekly")

    @given(
        p=st.floats(min_value=0.0, max_value=0.05),
        h=st.sampled_from([30, 90, 180, 365]),
    )
    def test_methods_agree_to_second_order(self, p, h):
        # second-order envelope: |linear - compounded| <= (365/h)^2 / 2 * p^2
        # (in probability units; both methods report bps)
        periods = 365.0 / h
        gap = abs(annualize(p, h, "linear") - annualize(p, h, "compounded")) / 1e4
        assert gap <= periods * (periods - 1.0) / 2.0 * p * p + 1e-12


class TestProbSeries:
    def test_composition_at_mean_prices(self):
        aligned = _aligned([(1.0007, 0.9992)])
        points = prob_series(aligned, rho=0.73, h=90, recovery=0.0)
        assert len(points) == 1
        assert 29.0 <= points.p_annualized_bps[0] <= 33.0
        assert not points.trimmed[0]

    def test_trimming_clamps_and_flags(self):
        # futures above the survivor value implies a negative raw probability
        aligned = _aligned([(1.0, 1.002)])
        points = trim_negative(prob_series(aligned, rho=0.73, h=90))
        assert points.p_horizon[0] == 0.0
        assert points.p_annualized_bps[0] == 0.0
        assert points.trimmed[0]

    def test_untrimmed_keeps_negative_values(self):
        aligned = _aligned([(1.0, 1.002)])
        points = prob_series(aligned, rho=0.73, h=90)
        assert points.p_horizon[0] == pytest.approx(-0.002, abs=1e-9)
        assert points.p_annualized_bps[0] < 0.0
        assert not points.trimmed[0]

    def test_pointwise_map_preserves_dates(self):
        rng = np.random.default_rng(7)
        pairs = [(1.0 + d, 1.0 + d - 8e-4) for d in rng.normal(0.0, 5e-4, 410)]
        aligned = _aligned(pairs)
        points = prob_series(aligned, rho=0.73, h=90)
        assert len(points) == 410
        assert np.array_equal(points.date, aligned.date)

    def test_deep_negative_raises_data_quality_warning(self):
        aligned = _aligned([(1.0, 1.06)])
        with pytest.warns(DataQualityWarning):
            prob_series(aligned, rho=0.73, h=90)

    def test_inversion_error_names_date(self):
        aligned = _aligned([(0.5, 0.4)])
        with pytest.raises(InversionError, match="2020-01-01"):
            prob_series(aligned, rho=0.99, h=1, recovery=0.9)

    def test_probability_above_one_names_date(self):
        # futures below the recovery value put the raw probability above 1
        aligned = _aligned([(1.0, 0.3)])
        with pytest.raises(DomainError, match="2020-01-01: probability above 1"):
            prob_series(aligned, rho=0.73, h=90, recovery=0.5)

    def test_unknown_method_fails_before_any_date(self):
        aligned = _aligned([(1.0, 1.06), (1.0007, 0.9992)])  # the first date would warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as caught:
                prob_series(aligned, rho=0.73, h=90, method="weekly")
        assert str(caught.value) == "unknown annualization method 'weekly'"

    @given(
        data=st.data(),
        rho=st.floats(min_value=0.0, max_value=0.999),
        h=st.integers(min_value=1, max_value=365),
        recovery=st.floats(min_value=0.0, max_value=0.85),
        method=st.sampled_from(["linear", "compounded"]),
    )
    def test_vectorized_inversion_is_the_scalar_one(self, data, rho, h, recovery, method):
        # every data command inverts through prob_series; the Monte Carlo oracle
        # checks implied_default_prob and annualize, so the two must agree to the bit
        n = data.draw(st.integers(min_value=1, max_value=50))
        spots = data.draw(st.lists(st.floats(min_value=0.9, max_value=1.1), min_size=n, max_size=n))
        # raw probabilities in range and above the data-quality floor, so nothing fails or warns
        probs = data.draw(st.lists(st.floats(min_value=-0.049, max_value=0.999), min_size=n, max_size=n))
        pairs = []
        for s, p in zip(spots, probs):
            survivor_value = 1.0 + rho**h * (s - 1.0)
            pairs.append((s, survivor_value - p * (survivor_value - recovery)))
        series = prob_series(_aligned(pairs), rho=rho, h=h, recovery=recovery, method=method)
        p_horizon = [implied_default_prob(s, f, rho, h, recovery) for s, f in pairs]
        p_annualized = [annualize(p, h, method) for p in p_horizon]
        assert np.array_equal(series.p_horizon.view(np.int64), np.array(p_horizon).view(np.int64))
        assert np.array_equal(series.p_annualized_bps.view(np.int64), np.array(p_annualized).view(np.int64))

    def test_annualized_field_matches_annualize(self):
        aligned = _aligned([(1.0007, 0.9992), (1.0, 1.002)])
        for method in ("linear", "compounded"):
            for point in prob_series(aligned, rho=0.73, h=90, method=method):
                assert point.p_annualized_bps == annualize(point.p_horizon, 90, method)
