"""End-to-end tests of the command-line driver."""

import codecs
import csv
import datetime
import io
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import pegrisk
from pegrisk import simkit
from pegrisk.cli import FLAGS, MODEL_DEFAULTS, main
from pegrisk.marketdata import write_table_csv
from pegrisk.simkit import FixtureConfig, generate_fixture

ARTIFACTS = (
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


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    """A deterministic synthetic dataset shared by the CLI tests."""
    path = tmp_path_factory.mktemp("data")
    code = main(["fixture", "--out", str(path), "--n-days", "120", "--seed", "7"])
    assert code == 0
    return path


def _pipeline_args(fixture_dir, out):
    return [
        "pipeline",
        "--spot",
        str(fixture_dir / "spot.csv"),
        "--futures",
        str(fixture_dir / "futures.csv"),
        "--btc",
        str(fixture_dir / "btc.csv"),
        "--out",
        str(out),
    ]


def _read_artifacts(out):
    return {name: (out / name).read_bytes() for name in ARTIFACTS}


def _column(path, name):
    with open(path, newline="") as stream:
        return [row[name] for row in csv.DictReader(stream)]


def _market_config(fixture_dir, path, *lines):
    """A config file naming the three fixture inputs, then ``lines``."""
    inputs = [f"{role} = {fixture_dir / f'{role}.csv'}" for role in ("spot", "futures", "btc")]
    path.write_text("\n".join([*inputs, *lines]) + "\n")
    return path


def _fixture_csv_bytes(config):
    """The spot, futures and BTC files of ``config``'s fixture, concatenated."""
    fixture = generate_fixture(config)
    buf = io.StringIO()
    for series in (fixture.spot, fixture.futures, fixture.btc):
        write_table_csv(series, buf)
    return buf.getvalue()


class TestFixtureCommand:
    def test_writes_three_series(self, fixture_dir):
        for name in ("spot.csv", "futures.csv", "btc.csv"):
            assert (fixture_dir / name).exists()

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert main(["fixture", "--out", str(out), "--n-days", "45", "--seed", "3"]) == 0
        for name in ("spot.csv", "futures.csv", "btc.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_bad_config_value(self, tmp_path, capsys):
        code = main(["fixture", "--out", str(tmp_path), "--n-days", "10"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error stage=")
        assert err.count("\n") == 1

    def test_config_file_matches_flags(self, tmp_path):
        settings = {"n_days": "60", "seed": "4", "p_amplitude": "0.5", "futures_noise_sd": "3e-4"}
        config = tmp_path / "fixture.cfg"
        config.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()))
        flags = [arg for key, value in settings.items() for arg in (f"--{key.replace('_', '-')}", value)]
        assert main(["fixture", "--out", str(tmp_path / "flags"), *flags]) == 0
        assert main(["fixture", "--out", str(tmp_path / "config"), "--config", str(config)]) == 0
        for name in ("spot.csv", "futures.csv", "btc.csv"):
            assert (tmp_path / "config" / name).read_bytes() == (tmp_path / "flags" / name).read_bytes()

    def test_defaults_are_the_fixture_config_defaults(self, tmp_path):
        assert main(["fixture", "--out", str(tmp_path)]) == 0
        written = b"".join((tmp_path / f"{name}.csv").read_bytes() for name in ("spot", "futures", "btc"))
        assert written == _fixture_csv_bytes(FixtureConfig()).encode("utf-8")

    @pytest.mark.parametrize(
        "flag, value, field",
        [("--p-amplitude", "nan", "p_amplitude"), ("--delta0", "inf", "delta0")],
    )
    def test_non_finite_setting_fails_at_config(self, tmp_path, capsys, flag, value, field):
        assert main(["fixture", "--out", str(tmp_path), flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error stage=config type=DomainError")
        assert f"{field} must be finite" in err
        assert err.count("nan") + err.count("inf") == 1
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "settings, value",
        [
            (["--n-days", "60", "--p-default", "0.9", "--p-amplitude", "0.5"], "1.0164685702961345"),
            (["--n-days", "200", "--p-amplitude", "2"], "-6.606577182224008e-05"),
        ],
    )
    def test_planted_path_outside_unit_interval_fails(self, tmp_path, capsys, settings, value):
        # the planted path is not clamped into [0, 1]: its first value outside fails the run
        assert main(["fixture", "--out", str(tmp_path / "data"), *settings]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f'error stage=fixture type=DomainError msg="default probability must lie in [0, 1], got {value}"\n'
        )
        assert not list(tmp_path.iterdir())


class TestPipelineCommand:
    def test_produces_all_artifacts(self, fixture_dir, tmp_path):
        out = tmp_path / "run"
        assert main(_pipeline_args(fixture_dir, out)) == 0
        for name in ARTIFACTS:
            assert (out / name).exists(), name

    def test_byte_identical_across_runs(self, fixture_dir, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(_pipeline_args(fixture_dir, out_a)) == 0
        assert main(_pipeline_args(fixture_dir, out_b)) == 0
        assert _read_artifacts(out_a) == _read_artifacts(out_b)

    def test_manifest_reproduces_run(self, fixture_dir, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(_pipeline_args(fixture_dir, out_a)) == 0
        code = main(
            ["pipeline", "--config", str(out_a / "run_manifest.txt"), "--out", str(out_b)]
        )
        assert code == 0
        assert _read_artifacts(out_a) == _read_artifacts(out_b)

    def test_missing_input_names_path(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "run"
        args = _pipeline_args(fixture_dir, out)
        args[args.index("--futures") + 1] = str(fixture_dir / "nope.csv")
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "nope.csv" in err
        assert err.startswith("error stage=parse")
        assert not out.exists() or not any(out.iterdir())

    def test_failed_write_removes_written_artifacts(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "run"
        # aligned.csv and prob.csv are written before table3.txt
        (out / "table3.txt").mkdir(parents=True)
        assert main(_pipeline_args(fixture_dir, out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error stage=write type=IsADirectoryError")
        assert [path.name for path in out.iterdir()] == ["table3.txt"]

    # a trailing blank row sends the file to the row reader, which re-reads it from the start
    @pytest.mark.parametrize("tail", ["", "\n"], ids=["block", "row"])
    def test_inputs_with_byte_order_mark(self, fixture_dir, tmp_path, tail):
        data = tmp_path / "data"
        data.mkdir()
        for name in ("spot.csv", "futures.csv", "btc.csv"):
            text = (fixture_dir / name).read_text(encoding="utf-8") + tail
            (data / name).write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
        assert main(_pipeline_args(data, tmp_path / "bom")) == 0
        assert main(_pipeline_args(fixture_dir, tmp_path / "plain")) == 0
        for name in ARTIFACTS[:-1]:  # the manifest records the input paths
            assert (tmp_path / "bom" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes(), name

    def test_summary_names_the_configured_output_directory(self, fixture_dir, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = _market_config(fixture_dir, tmp_path / "cfg.txt", "out = elsewhere")
        assert main(["pipeline", "--config", str(config)]) == 0
        assert capsys.readouterr().out.startswith("wrote 9 artifacts to elsewhere\n")
        assert sorted(path.name for path in (tmp_path / "elsewhere").iterdir()) == sorted(ARTIFACTS)

    def test_flag_overrides_config(self, fixture_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            f"spot = {fixture_dir / 'spot.csv'}\n"
            f"futures = {fixture_dir / 'futures.csv'}\n"
            f"btc = {fixture_dir / 'btc.csv'}\n"
            "rho = 0.5\n"
        )
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(cfg), "--rho", "0.9", "--out", str(out)]) == 0
        manifest = (out / "run_manifest.txt").read_text()
        assert "rho = 0.9" in manifest

    def test_rho_estimate_mode(self, fixture_dir, tmp_path):
        out = tmp_path / "run"
        args = _pipeline_args(fixture_dir, out) + ["--rho", "estimate", "--window", "30"]
        assert main(args) == 0
        manifest = (out / "run_manifest.txt").read_text()
        assert "rho = estimate" in manifest
        effective = re.search(r"rho_effective = (\S+)", manifest).group(1)
        assert f"rho_full_sample = {effective} (stderr " in manifest

    def test_fixed_rho_survives_degenerate_deviations(self, tmp_path):
        # a perfectly pegged series cannot support estimation, but a fixed
        # rho must still carry the pipeline through
        data = tmp_path / "data"
        assert (
            main(
                [
                    "fixture",
                    "--out",
                    str(data),
                    "--n-days",
                    "60",
                    "--innovation-sd",
                    "0",
                    "--futures-noise-sd",
                    "0",
                    "--intraday-range-sd",
                    "0.0001",
                    "--seed",
                    "5",
                ]
            )
            == 0
        )
        # as must a spot file that keeps every other day: no two of its days are consecutive
        gapped = tmp_path / "gapped"
        assert main(["fixture", "--out", str(gapped), "--n-days", "60", "--seed", "3"]) == 0
        header, *rows = (gapped / "spot.csv").read_text().splitlines()
        (gapped / "spot.csv").write_text("\n".join([header, *rows[::2]]) + "\n")
        reasons = {
            data: "degenerate regressor: lagged deviations are all zero",
            gapped: "need at least 2 pairs of consecutive days, got 0",
        }
        for inputs, reason in reasons.items():
            out = tmp_path / f"{inputs.name}-run"
            assert main(_pipeline_args(inputs, out)) == 0
            manifest = (out / "run_manifest.txt").read_text().splitlines()
            assert f"# full-sample fit unavailable: {reason}" in manifest
            bad = main(_pipeline_args(inputs, tmp_path / f"{inputs.name}-estimate") + ["--rho", "estimate"])
            assert bad == 1

    def test_column_names_from_config(self, fixture_dir, tmp_path):
        renamed = {"timestamp": "Date", "open": "Open", "high": "High", "low": "Low", "close": "Close", "volume": "Vol"}
        data = tmp_path / "data"
        data.mkdir()
        for name in ("spot.csv", "futures.csv", "btc.csv"):
            header, body = (fixture_dir / name).read_text().split("\n", 1)
            assert header == ",".join(renamed)
            (data / name).write_text(",".join(renamed.values()) + "\n" + body)
        columns = [f"col_{role} = {column}" for role, column in renamed.items()]
        cfg = _market_config(data, tmp_path / "cfg.txt", *columns)
        out = tmp_path / "renamed"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(_pipeline_args(fixture_dir, tmp_path / "plain")) == 0
        for name in ARTIFACTS[:-1]:  # the manifest records the input paths
            assert (out / name).read_bytes() == (tmp_path / "plain" / name).read_bytes(), name
        manifest = (out / "run_manifest.txt").read_text().splitlines()
        assert all(line in manifest for line in columns)

    def test_non_boolean_trim_in_config(self, fixture_dir, tmp_path, capsys):
        cfg = _market_config(fixture_dir, tmp_path / "cfg.txt", "trim = maybe")
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error stage=config type=SchemaError msg=\"expected a boolean for 'trim', got 'maybe'\"\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, message",
        [
            ("rho 0.5", "config line 4: expected key=value, got 'rho 0.5'"),
            ("= 0.5", "config line 4: empty key"),
            ("rho = 0.5\nrho = 0.6", "config line 5: repeated key 'rho'"),
            ("horizn = 30", "config line 4: no command reads the key 'horizn'"),
            ("config = other.txt", "config line 4: no command reads the key 'config'"),
            ("annualization = weekly", "bad value for 'annualization': 'weekly' (expected one of linear, compounded)"),
            ("estimator = foo", "bad value for 'estimator': 'foo' (expected one of parkinson, range)"),
        ],
        ids=["no-equals", "empty-key", "repeated-key", "misspelt-key", "config-key", "annualization", "estimator"],
    )
    def test_malformed_config_line(self, fixture_dir, tmp_path, capsys, line, message):
        cfg = _market_config(fixture_dir, tmp_path / "cfg.txt", line)
        assert main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == f'error stage=config type=SchemaError msg="{message}"\n'

    def test_non_numeric_rho_fails_at_fit(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(_pipeline_args(fixture_dir, out) + ["--rho", "high"]) == 1
        err = capsys.readouterr().err
        assert err == "error stage=fit type=SchemaError msg=\"rho must be a number or 'estimate', got 'high'\"\n"
        assert not out.exists() or not any(out.iterdir())

    def test_missing_btc_input_fails_at_config(self, fixture_dir, tmp_path, capsys):
        args = _pipeline_args(fixture_dir, tmp_path / "run")
        del args[args.index("--btc") : args.index("--btc") + 2]
        assert main(args) == 1
        message = "missing required input 'btc' (flag --btc or config)"
        assert capsys.readouterr().err == f'error stage=config type=SchemaError msg="{message}"\n'

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command", ["stats", "fixture"])
    def test_empty_output_directory_fails_at_config(self, fixture_dir, tmp_path, capsys, monkeypatch, command, source):
        monkeypatch.chdir(tmp_path)  # Path("") is the working directory
        cfg = _market_config(fixture_dir, tmp_path / "cfg.txt", *(["out ="] if source == "config" else []))
        args = [command, "--config", str(cfg)] + (["--out", ""] if source == "flag" else [])
        assert main(args) == 1
        message = "empty value for 'out': name an output directory (flag --out or config)"
        assert capsys.readouterr() == ("", f'error stage=config type=SchemaError msg="{message}"\n')
        assert [path.name for path in tmp_path.iterdir()] == ["cfg.txt"]

    @pytest.mark.parametrize("rho", [[], ["--rho", "estimate"]], ids=["fixed", "estimate"])
    def test_window_below_three_fails_at_fit(self, fixture_dir, tmp_path, capsys, rho):
        out = tmp_path / "run"
        assert main(_pipeline_args(fixture_dir, out) + ["--window", "2", *rho]) == 1
        err = capsys.readouterr().err
        assert err == 'error stage=fit type=EstimationError msg="rolling window must be at least 3, got 2"\n'
        assert not out.exists() or not any(out.iterdir())

    def test_last_trim_flag_wins(self, fixture_dir, tmp_path):
        # at a one-day horizon some raw probabilities are negative, so trimming moves prob.csv
        runs = {"trim": ["--trim"], "no-trim": ["--no-trim"]}
        runs |= {"both": ["--trim", "--no-trim"], "again": ["--no-trim", "--trim"]}
        for name, flags in runs.items():
            assert main(_pipeline_args(fixture_dir, tmp_path / name) + ["--horizon", "1", *flags]) == 0
        prob = {name: (tmp_path / name / "prob.csv").read_bytes() for name in runs}
        assert prob["trim"] != prob["no-trim"]
        assert prob["both"] == prob["no-trim"]
        assert prob["again"] == prob["trim"]
        assert "trim = false" in (tmp_path / "both" / "run_manifest.txt").read_text().splitlines()

    def test_trimmed_prob_csv_has_no_negatives(self, fixture_dir, tmp_path):
        out = tmp_path / "run"
        assert main(_pipeline_args(fixture_dir, out)) == 0
        lines = (out / "prob.csv").read_text().splitlines()[1:]
        assert lines
        for line in lines:
            p_horizon = float(line.split(",")[1])
            assert p_horizon >= 0.0


class TestConfigFile:
    @staticmethod
    def _prob(fixture_dir, tmp_path, *args):
        inputs = ["--spot", str(fixture_dir / "spot.csv"), "--futures", str(fixture_dir / "futures.csv")]
        return main(["prob", *inputs, "--out", str(tmp_path / "prob"), *args])

    def test_byte_order_mark_keeps_the_first_key(self, fixture_dir, tmp_path, capsys):
        assert self._prob(fixture_dir, tmp_path, "--horizon", "30") == 0
        expected = capsys.readouterr().out
        config = tmp_path / "c.txt"
        config.write_bytes(codecs.BOM_UTF8 + b"horizon = 30\nrho = 0.73\n")
        assert self._prob(fixture_dir, tmp_path, "--config", str(config)) == 0
        assert capsys.readouterr().out == expected

    def test_file_that_is_not_utf8_fails_at_config(self, fixture_dir, tmp_path, capsys):
        config = tmp_path / "c.txt"
        config.write_bytes(b"rho = 0.5\xff\n")
        assert self._prob(fixture_dir, tmp_path, "--config", str(config)) == 1
        message = f"{config}: not UTF-8 text (invalid start byte, byte 0xff)"
        assert capsys.readouterr().err == f'error stage=config type=ValidationError msg="{message}"\n'

    def test_pipeline_manifest_configures_fit(self, fixture_dir, tmp_path, capsys):
        assert main(_pipeline_args(fixture_dir, tmp_path / "run")) == 0
        capsys.readouterr()
        assert main(["fit", "--spot", str(fixture_dir / "spot.csv")]) == 0
        expected = capsys.readouterr().out
        assert main(["fit", "--config", str(tmp_path / "run" / "run_manifest.txt")]) == 0
        assert capsys.readouterr().out == expected


class TestSingleStageCommands:
    def test_align(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "aligned"
        code = main(
            [
                "align",
                "--spot",
                str(fixture_dir / "spot.csv"),
                "--futures",
                str(fixture_dir / "futures.csv"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        header = (out / "aligned.csv").read_text().splitlines()[0]
        assert header == "date,s,f,delta,basis_bps"
        assert "aligned 120 dates" in capsys.readouterr().out

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
    @pytest.mark.parametrize("quote_header", [False, True], ids=["plain", "quoted-header"])
    def test_align_reads_spot_from_named_pipe(self, fixture_dir, tmp_path, quote_header):
        # a pipe cannot seek back, so a file the block reader declines (a quote) must be read row by row
        # from the start; either way aligned.csv must be the one of the same text in a regular file
        spot = (fixture_dir / "spot.csv").read_bytes()
        if quote_header:
            spot = spot.replace(b"timestamp", b'"timestamp"', 1)
        (tmp_path / "spot.csv").write_bytes(spot)
        fifo = tmp_path / "spot.fifo"
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "wb") as stream:  # blocks until the command opens the pipe
                stream.write(spot)

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        argv = ["align", "--futures", str(fixture_dir / "futures.csv")]
        try:
            assert main([*argv, "--spot", str(fifo), "--out", str(tmp_path / "piped")]) == 0
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert main([*argv, "--spot", str(tmp_path / "spot.csv"), "--out", str(tmp_path / "file")]) == 0
        assert (tmp_path / "piped" / "aligned.csv").read_bytes() == (tmp_path / "file" / "aligned.csv").read_bytes()

    def test_fit_reports_coefficient(self, fixture_dir, capsys):
        code = main(["fit", "--spot", str(fixture_dir / "spot.csv"), "--window", "30"])
        assert code == 0
        out = capsys.readouterr().out
        assert "full-sample rho" in out
        assert "rolling mean rho" in out

    def test_fit_on_empty_file_fails_at_parse(self, tmp_path, capsys):
        spot = tmp_path / "spot.csv"
        spot.write_text("")
        assert main(["fit", "--spot", str(spot)]) == 1
        assert capsys.readouterr().err == 'error stage=parse type=SchemaError msg="empty input: no header row"\n'

    def test_fit_skips_rolling_fit_on_short_series(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["fixture", "--out", str(data), "--n-days", "40", "--seed", "7"]) == 0
        capsys.readouterr()
        assert main(["fit", "--spot", str(data / "spot.csv")]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "rolling fit unavailable: window 60 longer than series of length 40" in out

    def test_fit_without_stable_rho_prints_no_half_life(self, tmp_path, capsys):
        # deviations of -10 and +10 bps by turns: rho is -1
        days = [datetime.date(2020, 1, 1) + datetime.timedelta(days=k) for k in range(20)]
        rows = [f"{day},{close},{close},{close},{close},1" for day, close in zip(days, ["0.999", "1.001"] * 10)]
        spot = tmp_path / "spot.csv"
        spot.write_text("\n".join(["timestamp,open,high,low,close,volume", *rows]) + "\n")
        assert main(["fit", "--spot", str(spot)]) == 0
        assert "fit is not stable (rho outside (0, 1)); no half-life" in capsys.readouterr().out.splitlines()

    def test_fit_window_below_three_fails_at_fit(self, fixture_dir, capsys):
        assert main(["fit", "--spot", str(fixture_dir / "spot.csv"), "--window", "2"]) == 1
        err = capsys.readouterr().err
        assert err == 'error stage=fit type=EstimationError msg="rolling window must be at least 3, got 2"\n'

    def test_prob_writes_series(self, fixture_dir, tmp_path):
        out = tmp_path / "p"
        code = main(
            [
                "prob",
                "--spot",
                str(fixture_dir / "spot.csv"),
                "--futures",
                str(fixture_dir / "futures.csv"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        header = (out / "prob.csv").read_text().splitlines()[0]
        assert header == "date,p_horizon,p_annualized_bps,trimmed"

    def test_features_writes_panel(self, fixture_dir, tmp_path):
        out = tmp_path / "f"
        code = main(
            [
                "features",
                "--spot",
                str(fixture_dir / "spot.csv"),
                "--futures",
                str(fixture_dir / "futures.csv"),
                "--btc",
                str(fixture_dir / "btc.csv"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert (out / "features.csv").exists()

    def test_features_takes_usdt_volatility_from_alternative_file(self, fixture_dir, tmp_path):
        args = ["features", "--spot", str(fixture_dir / "spot.csv"), "--futures", str(fixture_dir / "futures.csv")]
        args += ["--btc", str(fixture_dir / "btc.csv")]
        assert main(args + ["--out", str(tmp_path / "spot")]) == 0
        # the BTC file as the alternative: its volatility must fill both columns
        assert main(args + ["--usdt-alt", str(fixture_dir / "btc.csv"), "--out", str(tmp_path / "alt")]) == 0
        alt = tmp_path / "alt" / "features.csv"
        assert _column(alt, "sigma_usdt_bps") == _column(alt, "sigma_btc_bps")
        assert _column(alt, "sigma_usdt_bps") != _column(tmp_path / "spot" / "features.csv", "sigma_usdt_bps")

    def test_command_resolves_only_the_model_keys_it_reads(self, fixture_dir, tmp_path, capsys):
        spot = ["--spot", str(fixture_dir / "spot.csv")]
        assert main(["fit", *spot]) == 0
        expected = capsys.readouterr().out
        config = tmp_path / "c.txt"
        config.write_text("horizon = abc\nrecovery = abc\ntrim = maybe\n")  # fit reads none of these
        assert main(["fit", "--config", str(config), *spot]) == 0
        assert capsys.readouterr().out == expected
        config.write_text("trim = maybe\n")  # nor does features
        inputs = [*spot, "--futures", str(fixture_dir / "futures.csv"), "--btc", str(fixture_dir / "btc.csv")]
        assert main(["features", "--config", str(config), *inputs, "--out", str(tmp_path / "features")]) == 0
        config.write_text("window = abc\n")
        assert main(["fit", "--config", str(config), *spot]) == 1
        assert capsys.readouterr().err.startswith("error stage=config type=SchemaError msg=\"bad value for 'window'")

    def test_fit_reports_cell_over_csv_field_limit(self, tmp_path, capsys):
        spot = tmp_path / "spot.csv"
        spot.write_text("timestamp,open,high,low,close,volume\n2020-01-01,1,1,1,1," + "1" * 200_000 + "\n")
        assert main(["fit", "--spot", str(spot)]) == 1
        err = capsys.readouterr().err
        assert err == 'error stage=parse type=ValidationError msg="line 2: field larger than field limit (131072)"\n'

    def test_stats_prints_table(self, fixture_dir, capsys):
        code = main(
            [
                "stats",
                "--spot",
                str(fixture_dir / "spot.csv"),
                "--futures",
                str(fixture_dir / "futures.csv"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        for name in ("s", "f", "f_minus_s_bps", "p_annualized_bps"):
            assert name in out

    def test_regress_prints_table(self, fixture_dir, capsys):
        code = main(
            [
                "regress",
                "--spot",
                str(fixture_dir / "spot.csv"),
                "--futures",
                str(fixture_dir / "futures.csv"),
                "--btc",
                str(fixture_dir / "btc.csv"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sigma_btc_bps" in out
        assert "n_obs" in out


class TestSimulateCommand:
    def test_reports_recovery(self, capsys):
        code = main(
            [
                "simulate",
                "--rho",
                "0.73",
                "--p-default",
                "0.005",
                "--n-paths",
                "50000",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mc_futures" in out
        assert "recovered_p" in out

    def test_certain_default_reports_recovery_value(self, capsys):
        code = main(
            [
                "simulate",
                "--p-default",
                "1.0",
                "--recovery",
                "0.75",
                "--n-paths",
                "1000",
                "--innovation-sd",
                "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mc_futures = 0.75000000" in out

    def test_full_recovery_fails_before_simulating(self, monkeypatch, capsys):
        def no_paths(config):
            raise AssertionError("simulate_paths ran")

        monkeypatch.setattr(simkit, "simulate_paths", no_paths)
        assert main(["simulate", "--recovery", "1", "--n-paths", "2000000"]) == 1
        err = capsys.readouterr().err
        assert err == 'error stage=simulate type=DomainError msg="recovery must lie in [0, 1), got 1.0"\n'

    def test_invalid_rho_is_domain_error(self, capsys):
        code = main(["simulate", "--rho", "1.2", "--n-paths", "100"])
        assert code == 1
        err = capsys.readouterr().err
        assert "DomainError" in err

    def test_config_file_matches_flags(self, tmp_path, capsys):
        config = tmp_path / "sim.cfg"
        config.write_text("n_paths = 2000\nseed = 11\np_default = 0.02\n")
        assert main(["simulate", "--n-paths", "2000", "--seed", "11", "--p-default", "0.02"]) == 0
        from_flags = capsys.readouterr().out
        assert main(["simulate", "--config", str(config)]) == 0
        assert capsys.readouterr().out == from_flags
        assert "planted 0.02" in from_flags

    def test_non_integer_count_in_config_fails_at_config(self, tmp_path, capsys):
        config = tmp_path / "sim.cfg"
        config.write_text("n_paths = 1e5\n")
        assert main(["simulate", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error stage=config type=SchemaError")
        assert "bad value for 'n_paths'" in err

    def test_bad_settings_fail_in_config_field_order(self, tmp_path, capsys):
        # simulate reads rho, horizon and recovery with the rest of SimConfig, not as the data commands' model
        config = tmp_path / "sim.cfg"
        config.write_text("horizon = 1.5\ninnovation_sd = x\n")
        assert main(["simulate", "--config", str(config)]) == 1
        assert "bad value for 'innovation_sd'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--innovation-sd", "nan", "innovation_sd"),
            ("--innovation-sd", "inf", "innovation_sd"),
            ("--delta0", "nan", "delta0"),
            ("--delta0", "inf", "delta0"),
        ],
    )
    def test_non_finite_setting_fails_at_config(self, capsys, flag, value, field):
        assert main(["simulate", "--n-paths", "100", flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error stage=config type=DomainError")
        assert f"{field} must be finite" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--window", "30"],
        ["fixture", "--estimator", "range"],
        ["fit", "--spot", "spot.csv", "--rho", "0.5"],
        ["prob", "--estimator", "range"],
        ["features", "--no-trim"],
        ["regress", "--trim"],
        ["stats", "--estimator", "range"],
    ],
    ids=lambda argv: argv[0],
)
def test_flag_the_command_ignores_is_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["prob", "features", "regress", "stats"])
def test_window_is_a_flag_of_pipeline_and_fit_only(command, capsys):
    # the rolling fit runs only where it is reported: the pipeline manifest and fit's output
    with pytest.raises(SystemExit) as exc:
        main([command, "--window", "30"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --window 30" in capsys.readouterr().err


def test_readme_lists_every_config_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = next(text for text in readme.split("\n\n") if text.startswith("Every flag can instead be given"))
    keys = {flag.replace("-", "_") for flag in FLAGS if flag != "config"} | set(MODEL_DEFAULTS)
    assert sorted(key for key in keys if f"`{key}`" not in paragraph) == []


def test_no_subcommand_prints_help(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out


def test_pipeline_and_regress_run_without_scipy(fixture_dir, tmp_path):
    """numpy is the only runtime dependency: blocking scipy changes no byte."""
    src = str(Path(pegrisk.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    block = "import sys; sys.modules['scipy'] = None; from pegrisk.cli import main; sys.exit(main(sys.argv[1:]))"
    inputs = _pipeline_args(fixture_dir, tmp_path)[1:-2]
    for command, names in (("pipeline", ARTIFACTS), ("regress", ("table4.txt", "table4.csv"))):
        plain, blocked = tmp_path / f"{command}-plain", tmp_path / f"{command}-blocked"
        assert main([command, *inputs, "--out", str(plain)]) == 0
        argv = [sys.executable, "-c", block, command, *inputs, "--out", str(blocked)]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        for name in names:
            assert (blocked / name).read_bytes() == (plain / name).read_bytes(), name


def test_stats_does_not_load_numpy_ma(fixture_dir, tmp_path):
    """The Table 3 quartiles come from the sorted series, not from np.quantile, which loads numpy.ma."""
    src = str(Path(pegrisk.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = (
        "import sys; from pegrisk.cli import main; code = main(sys.argv[1:]); "
        "print('numpy.ma' in sys.modules); sys.exit(code)"
    )
    inputs = ["--spot", str(fixture_dir / "spot.csv"), "--futures", str(fixture_dir / "futures.csv")]
    argv = [sys.executable, "-c", probe, "stats", *inputs, "--out", str(tmp_path / "stats")]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


def test_cli_import_starts_no_process_machinery():
    """Worker processes and their modules load only when a command parses large inputs."""
    src = str(Path(pegrisk.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    modules = ("multiprocessing", "concurrent.futures", "logging")
    probe = f"import sys, pegrisk.cli; print([m for m in {modules!r} if m in sys.modules])"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
