"""Acceptance suite: one test per release criterion.

Each test prints a ``criterion N: PASS`` line on success (visible with
``pytest -s`` or ``-rA``). Criterion 10 needs user-supplied historical
exchange data and is skipped unless PEGRISK_REAL_DATA_DIR points at a
directory with spot.csv, futures.csv, and btc.csv (and optionally a
config.txt); its checks also run on a paper-shaped synthetic dataset.
"""

import csv
import math
import os
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from pegrisk import marketdata
from pegrisk.cli import main
from pegrisk.econometrics import ols_hc0, run_panel_regressions
from pegrisk.features import PARKINSON_FACTOR
from pegrisk.pegmodel import annualize, half_life, implied_default_prob, theoretical_futures
from pegrisk.simkit import SimConfig, roundtrip_invert

PIPELINE_ARTIFACTS = (
    "aligned.csv",
    "prob.csv",
    "table3.txt",
    "table3.csv",
    "table4.txt",
    "table4.csv",
    "run_manifest.txt",
)


def _report(number, text):
    print(f"criterion {number}: PASS - {text}")


def test_criterion_01_inversion_identity():
    deltas = np.linspace(-0.01, 0.01, 5)
    probs = np.linspace(0.0, 0.2, 5)
    started = time.monotonic()
    checked = 0
    for delta in deltas:
        for rho in (0.0, 0.5, 0.73, 0.99):
            for h in (1, 30, 90):
                for p in probs:
                    for recovery in (0.0, 0.5, 0.75, 0.9):
                        futures = theoretical_futures(delta, rho, h, p, recovery)
                        recovered = implied_default_prob(1.0 + delta, futures, rho, h, recovery)
                        assert abs(recovered - p) < 1e-12, (delta, rho, h, p, recovery)
                        checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _report(1, f"{checked} grid points round-trip within 1e-12 in {elapsed:.3f}s")


def test_criterion_02_monte_carlo_oracle():
    passes = 0
    for seed in range(20):
        config = SimConfig(
            rho=0.73,
            horizon_days=90,
            delta0=0.001,
            innovation_sd=5e-4,
            p_default=0.005,
            recovery=0.0,
            n_paths=1_000_000,
            seed=seed,
        )
        recovered = roundtrip_invert(config)
        if abs(recovered.p - config.p_default) < 3.0 * recovered.stderr:
            passes += 1
    assert passes >= 18
    _report(2, f"{passes}/20 seeds recover the planted probability within 3 SE")


def test_criterion_03_recovery_sensitivity():
    rho, h, delta = 0.73, 90, 0.0007
    p_zero = 30.0 * h / (365.0 * 1e4)  # tuned so the annualized level is 30 bps
    assert annualize(p_zero, h) == pytest.approx(30.0, rel=1e-12)
    futures = theoretical_futures(delta, rho, h, p_zero, 0.0)
    spot = 1.0 + delta
    at_75 = annualize(implied_default_prob(spot, futures, rho, h, 0.75), h)
    at_90 = annualize(implied_default_prob(spot, futures, rho, h, 0.90), h)
    assert at_75 == pytest.approx(120.0, rel=0.01)
    assert at_90 == pytest.approx(300.0, rel=0.01)
    _report(3, f"30 bps at R=0 maps to {at_75:.2f} bps at R=0.75 and {at_90:.2f} bps at R=0.90")


def test_criterion_04_long_horizon_limit():
    worst = 0.0
    for delta in np.linspace(-0.02, 0.02, 21):
        for futures in (0.97, 0.9951, 0.9992, 1.0, 1.005):
            p = implied_default_prob(1.0 + delta, futures, 0.73, 90, 0.0)
            worst = max(worst, abs(p - (1.0 - futures)))
    assert worst < 1e-9
    _report(4, f"|p - (1 - f)| at rho=0.73, h=90 peaks at {worst:.2e}")


def test_criterion_05_mean_level_consistency():
    p = implied_default_prob(1.0007, 0.9992, 0.73, 90, 0.0)
    annualized = annualize(p, 90, "linear")
    assert 29.0 <= annualized <= 33.0
    _report(5, f"mean-price inputs give {annualized:.2f} bps annualized (target window [29, 33])")


def test_criterion_06_half_life():
    assert half_life(0.5) == 1.0
    hl = half_life(0.73)
    assert 2.19 <= hl <= 2.21
    _report(6, f"half_life(0.5) = 1.0 exactly; half_life(0.73) = {hl:.4f} days")


def test_criterion_07_hc0_oracle_equivalence():
    rng = np.random.default_rng(20260810)
    checked = 0
    for _ in range(50):
        n = int(rng.integers(6, 21))
        k = int(rng.integers(1, 5))
        k = min(k, n - 2)
        if k > 1:
            X = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])
        else:
            X = np.ones((n, 1))
        y = rng.normal(size=n) + X.sum(axis=1)
        result = ols_hc0(y, X)

        xtx_inv = np.linalg.inv(X.T @ X)
        beta = xtx_inv @ X.T @ y
        residuals = y - X @ beta
        cov = xtx_inv @ (X.T @ np.diag(residuals**2) @ X) @ xtx_inv
        stderr = np.sqrt(np.diag(cov))

        np.testing.assert_allclose(result.coefficients, beta, rtol=1e-9)
        np.testing.assert_allclose(result.hc0_stderr, stderr, rtol=1e-9)
        checked += 1
    _report(7, f"{checked} random designs match the explicit-inverse sandwich to 1e-9")


def test_criterion_08_planted_coefficient_regression():
    from pegrisk.features import Panel

    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = 410
        sigma_btc = np.exp(rng.normal(math.log(300.0), 0.5, n))
        sigma_usdt = np.exp(rng.normal(math.log(20.0), 0.4, n))
        r_btc = rng.normal(0.0, 400.0, n)
        noise = rng.normal(0.0, 0.05 * sigma_btc)  # heteroscedastic by construction
        p = 0.04 * sigma_btc + noise
        r_btc[0] = np.nan  # no return on the first date
        panel = Panel(
            date=np.datetime64("2020-02-28") + np.arange(n),
            p_annualized_bps=p,
            sigma_btc_bps=sigma_btc,
            sigma_usdt_bps=sigma_usdt,
            r_btc_bps=r_btc,
        )
        column = run_panel_regressions(panel)["I"]
        i = column.names.index("sigma_btc_bps")
        if abs(column.coefficients[i] - 0.04) <= 2.0 * column.hc0_stderr[i]:
            hits += 1
    assert hits >= 90
    _report(8, f"planted 0.04 slope covered by 2 HC0 stderrs in {hits}/100 seeds")


def test_criterion_09_end_to_end_fixture(tmp_path):
    planted_bps = 30.0
    p_default = planted_bps * 90.0 / (365.0 * 1e4)
    data = tmp_path / "data"
    assert (
        main(
            [
                "fixture",
                "--out",
                str(data),
                "--n-days",
                "410",
                "--seed",
                "17",
                "--p-default",
                f"{p_default!r}",
            ]
        )
        == 0
    )

    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(
            [
                "pipeline",
                "--spot",
                str(data / "spot.csv"),
                "--futures",
                str(data / "futures.csv"),
                "--btc",
                str(data / "btc.csv"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        for artifact in PIPELINE_ARTIFACTS:
            assert (out / artifact).exists(), artifact
        outputs.append({a: (out / a).read_bytes() for a in PIPELINE_ARTIFACTS})
    assert outputs[0] == outputs[1]

    table3 = (tmp_path / "a" / "table3.csv").read_text().splitlines()
    p_row = next(line for line in table3 if line.startswith("p_annualized_bps"))
    mean_bps = float(p_row.split(",")[2])
    assert mean_bps == pytest.approx(planted_bps, rel=0.10)
    _report(
        9,
        f"pipeline artifacts byte-identical across runs; mean {mean_bps:.2f} bps "
        f"vs planted {planted_bps:.0f} bps",
    )


def _check_replication(out):
    """Criterion 10's bounds on a pipeline output directory: Table 3's means and Table 4's star pattern."""
    with open(out / "table3.csv", newline="") as stream:
        means = {row["name"]: float(row["mean"]) for row in csv.DictReader(stream)}
    assert means["s"] == pytest.approx(1.0007, rel=0.10)
    assert means["f"] == pytest.approx(0.9992, rel=0.10)
    assert means["f_minus_s_bps"] == pytest.approx(-14.26, rel=0.10)
    assert means["p_annualized_bps"] == pytest.approx(30.58, rel=0.10)

    with open(out / "table4.csv", newline="") as stream:
        rows = {(row["column"], row["regressor"]): row for row in csv.DictReader(stream)}
    col_i, col_ii = rows["I", "sigma_btc_bps"], rows["II", "sigma_usdt_bps"]
    assert float(col_i["coefficient"]) > 0 and col_i["stars"] == "***"
    assert float(col_ii["coefficient"]) > 0 and col_ii["stars"] != ""
    assert rows["III", "r_btc_bps"]["stars"] == ""
    assert rows["IV", "sigma_btc_bps"]["stars"] == "***"
    assert rows["IV", "sigma_usdt_bps"]["stars"] == ""
    return means["p_annualized_bps"]


def test_criterion_10_real_data_replication(tmp_path):
    data_dir = os.environ.get("PEGRISK_REAL_DATA_DIR")
    if not data_dir:
        pytest.skip(
            "criterion 10: SKIPPED - requires user-supplied historical files "
            "(set PEGRISK_REAL_DATA_DIR with spot.csv, futures.csv, btc.csv); "
            "the original futures venue is defunct"
        )
    data = Path(data_dir)
    args = ["pipeline", "--out", str(tmp_path / "out")]
    args += [arg for role in ("spot", "futures", "btc") for arg in (f"--{role}", str(data / f"{role}.csv"))]
    if (data / "config.txt").exists():  # column names and venues
        args += ["--config", str(data / "config.txt")]
    assert main(args) == 0
    mean_bps = _check_replication(tmp_path / "out")
    _report(10, f"real-data summary and regression patterns replicate; mean p {mean_bps:.2f} bps")


def _paper_shaped_bars(n=410, seed=2021):
    """Spot, futures and BTC bars that plant the paper's Table 3 levels and Table 4 pattern.

    Spot is 1.0007 plus an AR(1) deviation. Futures price an annualized p
    of 0.09 sigma_btc, give or take 20 % (about 30 bps), at rho 0.73 and
    h 90. The spot range (sigma_usdt) follows the BTC range with noise of
    its own, so it explains p alone but not next to sigma_btc; BTC returns
    are unrelated. Each is a list of CSV rows, dates stamped as exchange
    exports stamp them.
    """
    rng = np.random.default_rng(seed)
    sigma_btc = np.exp(rng.normal(math.log(300.0), 0.4, n))
    sigma_usdt = 0.06 * sigma_btc * np.exp(rng.normal(0.0, 0.3, n))
    p_bps = 0.09 * sigma_btc * (1.0 + rng.normal(0.0, 0.2, n))
    deviation = np.zeros(n)
    for t in range(1, n):
        deviation[t] = 0.73 * deviation[t - 1] + rng.normal(0.0, 5e-4)
    spot = 1.0007 + deviation
    futures = theoretical_futures(spot - 1.0, 0.73, 90, p_bps * 90.0 / (365.0 * 1e4))
    btc = 10_000.0 * np.exp(np.cumsum(rng.normal(0.0, 0.04, n)))
    days = np.datetime64("2020-02-28") + np.arange(n)

    def rows(close, sigma_bps):
        half = sigma_bps * PARKINSON_FACTOR / 2e4  # half the log range that gives sigma_bps
        high, low = close * np.exp(half), close * np.exp(-half)
        cells = zip(days.tolist(), close.tolist(), high.tolist(), low.tolist())
        return [f"{d}T00:00:00Z,{c!r},{h!r},{lo!r},{c!r},1000.0" for d, c, h, lo in cells]

    return {"spot": rows(spot, sigma_usdt), "futures": rows(futures, np.zeros(n)), "btc": rows(btc, sigma_btc)}


def test_criterion_10_checks_pass_on_paper_shaped_data(tmp_path):
    args = ["pipeline", "--out", str(tmp_path / "out")]
    for role, rows in _paper_shaped_bars().items():
        (tmp_path / f"{role}.csv").write_text("\n".join(["timestamp,open,high,low,close,volume", *rows]) + "\n")
        args += [f"--{role}", str(tmp_path / f"{role}.csv")]
    # the stamped dates take the block reader: the row reader must not run
    with mock.patch.object(marketdata, "_read_body", side_effect=AssertionError("row reader")):
        assert main(args) == 0
    mean_bps = _check_replication(tmp_path / "out")
    _report(10, f"the real-data checks pass on paper-shaped data; mean p {mean_bps:.2f} bps")
