"""Market-implied peg-break probabilities for dollar stablecoins.

The pipeline: ingest daily OHLCV bars, align spot and futures closes,
estimate the mean reversion of peg deviations, invert the futures discount
into a per-horizon default probability, and relate its time variation to
crypto-market volatility. A seeded Monte Carlo engine provides an
independent check of the pricing inversion and synthetic fixtures.
"""

from .econometrics import (
    RegressionResult,
    SummaryRow,
    ols_hc0,
    run_panel_regressions,
    summary_stats,
)
from .errors import (
    AlignmentError,
    DataQualityWarning,
    DomainError,
    EstimationError,
    InversionError,
    PegRiskError,
    SchemaError,
    ValidationError,
)
from .features import (
    Panel,
    build_feature_panel,
    daily_returns,
    intraday_vol,
)
from .marketdata import (
    AlignedSeries,
    BarSeries,
    JoinReport,
    align_daily,
    parse_bars,
)
from .pegmodel import (
    Ar1Fit,
    ProbSeries,
    RollingAr1,
    annualize,
    fit_ar1,
    fit_ar1_rolling,
    half_life,
    implied_default_prob,
    prob_series,
    theoretical_futures,
)
from .simkit import (
    FixtureConfig,
    FixtureSet,
    RecoveredProb,
    SimConfig,
    SimResult,
    generate_fixture,
    roundtrip_invert,
    simulate_ar1_series,
    simulate_paths,
)

__version__ = "0.1.0"

__all__ = [
    "AlignedSeries",
    "AlignmentError",
    "annualize",
    "Ar1Fit",
    "align_daily",
    "BarSeries",
    "build_feature_panel",
    "daily_returns",
    "DataQualityWarning",
    "DomainError",
    "EstimationError",
    "fit_ar1",
    "fit_ar1_rolling",
    "FixtureConfig",
    "FixtureSet",
    "generate_fixture",
    "half_life",
    "implied_default_prob",
    "intraday_vol",
    "InversionError",
    "JoinReport",
    "ols_hc0",
    "Panel",
    "parse_bars",
    "PegRiskError",
    "prob_series",
    "ProbSeries",
    "RecoveredProb",
    "RegressionResult",
    "RollingAr1",
    "roundtrip_invert",
    "run_panel_regressions",
    "SchemaError",
    "simulate_ar1_series",
    "simulate_paths",
    "SimConfig",
    "SimResult",
    "summary_stats",
    "SummaryRow",
    "theoretical_futures",
    "ValidationError",
]
