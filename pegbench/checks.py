"""Checks of the program's outputs against the independent references.

Every check returns a ``Check``; one check is one operation in the
benchmark's attempted/failed count. Checks read the artifacts a run
wrote and compare them with ``oracle`` computed from the generated
inputs (``gen.Market``) or with a property the method must have. No
check compares against a stored copy of earlier output.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gen
import oracle

PROB_ABS_TOL = 1e-12
TABLE4_REL_TOL = 1e-8
FEATURE_REL_TOL = 1e-12
PIPELINE_ARTIFACTS = (
    "aligned.csv",
    "prob.csv",
    "table3.txt",
    "table3.csv",
    "table4.txt",
    "table4.csv",
    "figure1.vl.json",
    "figure2.vl.json",
    "run_manifest.txt",
)
REGRESSORS = {
    "I": ("sigma_btc_bps",),
    "II": ("sigma_usdt_bps",),
    "III": ("r_btc_bps",),
    "IV": ("sigma_btc_bps", "sigma_usdt_bps", "r_btc_bps"),
}

# The AR(1) fit pairs aligned rows across the calendar gaps the join leaves
# as if they were one day apart, so with a share q of dates missing it
# estimates about (1 - q) rho / (1 - q rho): at q = 0.1 and 180k aligned
# rows that is about 0.71 against 0.73, 13 to 14 standard errors low. This check
# fails until the fit is made gap-aware; it is counted as a failed
# operation, not as a wrong result.
GAP_FAULT = "rho_full_sample"


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    reason: str = ""

    @property
    def known_fault(self) -> bool:
        return self.name == GAP_FAULT


def _fail(name: str, reason: str) -> Check:
    return Check(name, False, reason)


def _rel_err(a: np.ndarray, b: np.ndarray, floor: np.ndarray | float = 0.0) -> float:
    """Largest |a - b| relative to max(|a|, |b|, floor), elementwise."""
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    diff = np.abs(a - b)
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.where(scale > 0.0, diff / scale, 0.0)
    return float(rel.max()) if rel.size else 0.0


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:] if line]


def read_manifest(outdir: Path) -> dict[str, float]:
    """Numbers from the manifest's provenance comments."""
    text = (outdir / "run_manifest.txt").read_text(encoding="utf-8")
    out = {"rho_effective": float(re.search(r"^# rho_effective = (\S+)$", text, re.M).group(1))}
    full = re.search(r"^# rho_full_sample = (\S+) \(stderr (\S+)\)$", text, re.M)
    if full:
        out["rho_full_sample"], out["rho_full_stderr"] = float(full.group(1)), float(full.group(2))
    join = re.search(r"^# join: matched (\d+), dropped (\d+) spot / (\d+) futures$", text, re.M)
    out["matched"], out["dropped_spot"], out["dropped_futures"] = (int(g) for g in join.groups())
    return out


def _expected_dates(market: gen.Market) -> list[str]:
    return np.datetime_as_string(market.matched_days, unit="D").tolist()


def _matched(market: gen.Market, bars: gen.Bars, column: str) -> np.ndarray:
    index = np.searchsorted(bars.days, market.matched_days)
    return getattr(bars, column)[index]


def expected_prob(market: gen.Market, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """Untrimmed per-horizon probability on every matched date, and its bps."""
    s = _matched(market, market.spot, "close")
    f = _matched(market, market.futures, "close")
    raw = oracle.inversion(s, f, rho, gen.HORIZON, gen.RECOVERY)
    return raw, oracle.annualize_bps(raw, gen.HORIZON)


def check_join(market: gen.Market, outdir: Path) -> Check:
    name = "join_counts"
    manifest = read_manifest(outdir)
    want = (market.matched_days.size, market.n_missing, 0)
    got = (manifest["matched"], manifest["dropped_spot"], manifest["dropped_futures"])
    if got != want:
        return _fail(name, f"manifest join (matched, dropped spot, dropped futures) = {got}, planted {want}")
    _, rows = _read_csv(outdir / "aligned.csv")
    if [r[0] for r in rows] != _expected_dates(market):
        return _fail(name, "aligned.csv dates differ from the planted matched dates")
    return Check(name, True)


def check_prob(market: gen.Market, outdir: Path) -> Check:
    name = "prob_inversion"
    rho = read_manifest(outdir)["rho_effective"]
    raw, _ = expected_prob(market, rho)
    trimmed = raw < 0.0
    p = np.where(trimmed, 0.0, raw)
    bps = oracle.annualize_bps(p, gen.HORIZON)
    _, rows = _read_csv(outdir / "prob.csv")
    if [r[0] for r in rows] != _expected_dates(market):
        return _fail(name, f"prob.csv has {len(rows)} dates, expected the {raw.size} matched dates")
    got_p = np.array([float(r[1]) for r in rows])
    got_bps = np.array([float(r[2]) for r in rows])
    got_trim = np.array([r[3] == "true" for r in rows])
    if not np.array_equal(got_trim, trimmed):
        return _fail(name, f"trimmed flags differ on {int((got_trim != trimmed).sum())} dates")
    err_p = float(np.abs(got_p - p).max())
    err_bps = float(np.abs(got_bps - bps).max()) / oracle.annualize_bps(1.0, gen.HORIZON)
    if not max(err_p, err_bps) <= PROB_ABS_TOL:
        return _fail(name, f"max |p - independent inversion| = {max(err_p, err_bps):.3g} > {PROB_ABS_TOL}")
    return Check(name, True)


def check_table3(market: gen.Market, outdir: Path) -> Check:
    """Untrimmed mean annualized p: equal to the inversion's mean, near 30 bps.

    The inversion gives p - noise / (1 + rho^h delta) per date, so the
    mean over n dates has standard error FUTURES_NOISE_SD / sqrt(n) per
    horizon; the check allows five of them around the planted value.
    """
    name = "table3_mean_p"
    _, rows = _read_csv(outdir / "table3.csv")
    row = next((r for r in rows if r[0] == "p_annualized_bps"), None)
    if row is None:
        return _fail(name, "table3.csv has no p_annualized_bps row")
    count, mean = int(row[1]), float(row[2])
    n = market.matched_days.size
    if count != n:
        return _fail(name, f"count {count} != {n} matched dates")
    _, bps = expected_prob(market, read_manifest(outdir)["rho_effective"])
    want = float(np.mean(bps))
    if not abs(mean - want) <= 1e-9 * abs(want):
        return _fail(name, f"mean {mean!r} differs from the independent mean {want!r}")
    bound = 5.0 * oracle.annualize_bps(gen.FUTURES_NOISE_SD / math.sqrt(n), gen.HORIZON)
    if not abs(mean - gen.P_ANNUAL_BPS) <= bound:
        return _fail(name, f"mean {mean:.4f} bps is more than {bound:.4f} (5 SE) from planted {gen.P_ANNUAL_BPS}")
    return Check(name, True)


def expected_panel(market: gen.Market, p_bps: np.ndarray) -> dict[str, np.ndarray]:
    """Regression panel on the matched dates; r_btc is NaN on the first BTC date."""
    index = np.searchsorted(market.btc.days, market.matched_days)
    returns = np.concatenate(([np.nan], oracle.returns_bps(market.btc.close)))
    spot_index = np.searchsorted(market.spot.days, market.matched_days)
    return {
        "p_annualized_bps": p_bps,
        "sigma_btc_bps": oracle.parkinson_bps(market.btc.high, market.btc.low)[index],
        "sigma_usdt_bps": oracle.parkinson_bps(market.spot.high, market.spot.low)[spot_index],
        "r_btc_bps": returns[index],
    }


def check_table4(market: gen.Market, outdir: Path) -> Check:
    """Table 4 against the explicit-inverse sandwich, to TABLE4_REL_TOL.

    HC0 errors are compared relative to their value. A coefficient is
    compared relative to the larger of its value and its HC0 error: both
    solvers lose about the same absolute precision on every coefficient,
    so a slope that happens to sit near 0 (a small t statistic) would
    otherwise fail on rounding alone. R^2 is 1 - SSR/SST, and its rounding
    error is relative to 1, not to R^2 (near 1e-8 when the regressor
    explains nothing); it is compared with the same tolerance on that
    scale.
    """
    name = "table4_hc0"
    _, bps = expected_prob(market, read_manifest(outdir)["rho_effective"])
    panel = expected_panel(market, bps)
    _, rows = _read_csv(outdir / "table4.csv")
    worst = 0.0
    for label, regressors in REGRESSORS.items():
        got = [r for r in rows if r[0] == label]
        names = ("intercept",) + regressors
        if tuple(r[1] for r in got) != names:
            return _fail(name, f"column {label} lists {[r[1] for r in got]}, expected {list(names)}")
        use = np.ones(bps.size, dtype=bool)
        if "r_btc_bps" in regressors:
            use = ~np.isnan(panel["r_btc_bps"])
        X = np.column_stack([np.ones(int(use.sum()))] + [panel[reg][use] for reg in regressors])
        want = oracle.ols_hc0(panel["p_annualized_bps"][use], X)
        if int(got[0][7]) != want["n_obs"]:
            return _fail(name, f"column {label}: n_obs {got[0][7]} != {want['n_obs']}")
        worst = max(
            worst,
            _rel_err(np.array([float(r[2]) for r in got]), want["coefficient"], want["hc0_stderr"]),
            _rel_err(np.array([float(r[3]) for r in got]), want["hc0_stderr"]),
            _rel_err(np.array([float(got[0][6])]), np.array([want["r_squared"]]), 1.0),
        )
    if not worst <= TABLE4_REL_TOL:
        return _fail(name, f"max relative error vs explicit-inverse HC0 sandwich {worst:.3g} > {TABLE4_REL_TOL}")
    return Check(name, True)


def check_features(market: gen.Market, path: Path, rho: float) -> Check:
    name = "features_panel"
    _, bps = expected_prob(market, rho)
    panel = expected_panel(market, bps)
    header, rows = _read_csv(path)
    if [r[0] for r in rows] != _expected_dates(market):
        return _fail(name, "features.csv dates differ from the planted matched dates")
    worst = 0.0
    for col, key in enumerate(header[1:], start=1):
        got = np.array([float(r[col]) if r[col] else np.nan for r in rows])
        want = panel[key]
        if not np.array_equal(np.isnan(got), np.isnan(want)):
            return _fail(name, f"{key}: undefined cells differ")
        ok = ~np.isnan(want)
        worst = max(worst, _rel_err(got[ok], want[ok]))
    if not worst <= FEATURE_REL_TOL:
        return _fail(name, f"max relative error vs Parkinson/returns/inversion {worst:.3g} > {FEATURE_REL_TOL}")
    return Check(name, True)


def check_rho_within(name: str, rho: float, stderr: float, k: float) -> Check:
    gap = (rho - gen.RHO) / stderr
    if not abs(gap) <= k:
        return _fail(name, f"rho {rho:.6f} is {gap:+.1f} SE from planted {gen.RHO} (limit {k:g})")
    return Check(name, True)


def check_fit_output(stdout: str) -> Check:
    match = re.search(r"full-sample rho = (\S+) \(stderr (\S+), n \d+\)", stdout)
    if match is None:
        return _fail("fit_rho", f"no full-sample rho in output {stdout[:200]!r}")
    return check_rho_within("fit_rho", float(match.group(1)), float(match.group(2)), 4.0)


def check_gap_fault(outdir: Path) -> Check:
    manifest = read_manifest(outdir)
    if "rho_full_sample" not in manifest:
        return _fail(GAP_FAULT, "manifest has no full-sample fit")
    return check_rho_within(GAP_FAULT, manifest["rho_full_sample"], manifest["rho_full_stderr"], 5.0)


def check_same_bytes(name: str, a: Path, b: Path, files: tuple[str, ...]) -> Check:
    for file in files:
        if (a / file).read_bytes() != (b / file).read_bytes():
            return _fail(name, f"{file} differs between {a.name} and {b.name}")
    return Check(name, True)


MC_CHECKS = ("mc_recovered_p", "mc_futures", "mc_defaults", "mc_stderr")


def check_mc(rho, h, delta0, sd, p, recovery, n, recovered_p, recovered_se, mc_futures, mc_stderr, defaults):
    """The four Monte Carlo checks of one seeded roundtrip."""
    mean, var = oracle.mc_moments(rho, h, delta0, sd, p, recovery)
    terminal_sd = math.sqrt(var)
    out = []
    gap = abs(recovered_p - p) / recovered_se
    out.append(Check("mc_recovered_p", gap <= 5.0, f"recovered p {recovered_p!r} is {gap:.2f} SE from {p}"))
    gap = abs(mc_futures - mean) / (terminal_sd / math.sqrt(n))
    out.append(Check("mc_futures", gap <= 5.0, f"mc_futures {mc_futures!r} is {gap:.2f} SE from {mean!r}"))
    gap = abs(defaults - n * p) / oracle.binomial_sd(n, p)
    out.append(Check("mc_defaults", gap <= 5.0, f"{defaults} defaults is {gap:.2f} binomial SD from {n * p:g}"))
    rel = abs(mc_stderr * math.sqrt(n) / terminal_sd - 1.0)
    out.append(Check("mc_stderr", rel <= 0.05, f"mc_stderr*sqrt(n) is {rel:.2%} from terminal SD {terminal_sd:.6g}"))
    return out
