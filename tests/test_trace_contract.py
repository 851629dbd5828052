"""The benchmark's tracer (``pegbench/spans.py``) against what a run writes.

The tracer counts rows from the arguments and return values of pegrisk's
public functions. This test traces one small ``pipeline --rho estimate``
and checks each count against the artifacts of the same run, so a change
to those return types cannot silently break ``pegbench/run.py --trace 1``.
"""

import re
import sys
from pathlib import Path

from pegrisk import cli

PEGBENCH = Path(__file__).resolve().parents[1] / "pegbench"


def _data_rows(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


def test_trace_counts_match_artifacts(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PEGBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave pegbench/ untouched
    import spans

    data, out = tmp_path / "data", tmp_path / "out"
    assert cli.main(["fixture", "--out", str(data), "--n-days", "120", "--seed", "3"]) == 0
    header, *rows = (data / "futures.csv").read_text().splitlines(keepends=True)
    (data / "futures.csv").write_text(header + "".join(row for i, row in enumerate(rows, 1) if i % 13))

    inputs = {role: data / f"{role}.csv" for role in ("spot", "futures", "btc")}
    argv = ["pipeline", *(arg for role, path in inputs.items() for arg in (f"--{role}", str(path)))]
    # one-day horizon: some raw probabilities come out negative and are trimmed
    argv += ["--rho", "estimate", "--window", "20", "--horizon", "1", "--out", str(out)]
    tracer = spans.Tracer()
    with tracer.installed():
        assert cli.main(argv) == 0
    counts = tracer.figures()

    manifest = (out / "run_manifest.txt").read_text()
    matched, dropped_spot, dropped_futures = map(
        int, re.search(r"join: matched (\d+), dropped (\d+) spot / (\d+) futures", manifest).groups()
    )
    windows = int(re.search(r"rho_rolling_mean = \S+ over (\d+) windows", manifest).group(1))
    trimmed = sum(row[3] == "true" for row in _data_rows(out / "prob.csv"))
    n_obs = {row[0]: int(row[7]) for row in _data_rows(out / "table4.csv")}

    assert dropped_spot > 0 and trimmed > 0  # the run exercises every count
    assert counts["marketdata.parse_bars_calls"] == 3
    assert counts["marketdata.rows_parsed"] == sum(len(_data_rows(path)) for path in inputs.values())
    assert counts["marketdata.rows_matched"] == matched == len(_data_rows(out / "aligned.csv"))
    assert counts["marketdata.rows_dropped"] == dropped_spot + dropped_futures
    # the rolling fit runs over the spot days, not the joined ones
    assert counts["pegmodel.rolling_windows"] == windows == len(_data_rows(inputs["spot"])) - 20 + 1
    assert counts["pegmodel.points_trimmed"] == trimmed
    assert counts["features.panel_rows"] == n_obs["I"] == matched
    assert counts["econometrics.ols_hc0_calls"] == 4
