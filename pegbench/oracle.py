"""Independent reference computations for the benchmark's checks.

Each function recomputes a quantity from the generated inputs, or states
a moment the method must have, with its own arithmetic: the closed-form
inversion, Parkinson volatility and close-to-close returns, an OLS fit
with an explicit-inverse HC0 sandwich, and the Monte Carlo moments. None
of it imports pegrisk or reads a stored copy of the program's output.
"""

from __future__ import annotations

import math

import numpy as np

DAYS_PER_YEAR = 365.0


def inversion(s: np.ndarray, f: np.ndarray, rho: float, h: int, recovery: float) -> np.ndarray:
    """Per-horizon default probability (1 + rho^h (s-1) - f) / (1 + rho^h (s-1) - R)."""
    survivor = 1.0 + rho**h * (s - 1.0)
    return (survivor - f) / (survivor - recovery)


def annualize_bps(p: np.ndarray, h: int) -> np.ndarray:
    """Linear annualization to a 365-day basis, in basis points."""
    return p * (DAYS_PER_YEAR / h) * 1e4


def parkinson_bps(high: np.ndarray, low: np.ndarray) -> np.ndarray:
    return np.log(high / low) / (2.0 * math.sqrt(math.log(2.0))) * 1e4


def returns_bps(close: np.ndarray) -> np.ndarray:
    """Close-to-close returns; element i is the return into bar i + 1."""
    return (close[1:] / close[:-1] - 1.0) * 1e4


def ols_hc0(y: np.ndarray, X: np.ndarray) -> dict[str, np.ndarray | float]:
    """OLS with White HC0 errors through an explicit (X'X)^-1.

    Columns are scaled to unit norm before the normal equations are formed
    and inverted; that leaves the estimates unchanged in exact arithmetic
    and keeps the explicit inverse well conditioned.
    """
    scale = np.sqrt((X * X).sum(axis=0))
    Z = X / scale
    inv = np.linalg.inv(Z.T @ Z)
    gamma = inv @ (Z.T @ y)
    resid = y - Z @ gamma
    scores = Z * resid[:, None]
    cov = inv @ (scores.T @ scores) @ inv
    ssr = float(resid @ resid)
    sst = float(((y - y.mean()) ** 2).sum())
    return {
        "coefficient": gamma / scale,
        "hc0_stderr": np.sqrt(np.diag(cov)) / scale,
        "r_squared": 1.0 - ssr / sst,
        "n_obs": y.size,
    }


def mc_moments(rho: float, h: int, delta0: float, sd: float, p: float, recovery: float) -> tuple[float, float]:
    """Mean and variance of the terminal price under jump-to-default.

    Survivors end at 1 + delta_h with delta_h ~ N(rho^h delta0,
    sd^2 (1 - rho^(2h)) / (1 - rho^2)); defaults end at the recovery value.
    """
    survivor_mean = 1.0 + rho**h * delta0
    mean = (1.0 - p) * survivor_mean + p * recovery
    var = (1.0 - p) * sd**2 * (1.0 - rho ** (2 * h)) / (1.0 - rho**2) + p * (1.0 - p) * (
        survivor_mean - recovery
    ) ** 2
    return mean, var


def binomial_sd(n: int, p: float) -> float:
    return math.sqrt(n * p * (1.0 - p))
