"""End-to-end tests of the command-line driver."""

import codecs
import csv
import datetime
import errno
import hashlib
import inspect
import io
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import pegrisk
from pegrisk import cli, econometrics, features, marketdata, pegmodel, simkit
from pegrisk.cli import _FLAGS, _MODEL_DEFAULTS, main
from pegrisk.errors import EstimationError, ValidationError
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


def _cli_env() -> dict[str, str]:
    """The environment of a subprocess that imports this checkout's pegrisk."""
    src = str(Path(pegrisk.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


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
        # every setting fixture takes but --out, each away from its default
        settings = {
            "n_days": "60",
            "rho": "0.8",
            "innovation_sd": "4e-4",
            "delta0": "0.001",
            "horizon": "30",
            "p_default": "0.002",
            "p_amplitude": "0.5",
            "p_period_days": "20",
            "recovery": "0.25",
            "futures_noise_sd": "3e-4",
            "intraday_range_sd": "6e-4",
            "seed": "4",
        }
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

    @pytest.mark.parametrize(
        "flag, value, low",
        [("--futures-noise-sd", "0.8", "-0.2138316581969698"), ("--intraday-range-sd", "0.6", "-0.31536754344212753")],
    )
    def test_bar_that_is_not_positive_fails(self, tmp_path, capsys, flag, value, low):
        # no futures close is floored and no low offset capped: the first bar that is not positive fails the run
        out = tmp_path / "data"
        assert main(["fixture", "--n-days", "410", "--seed", "17", flag, value, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f'error stage=fixture type=ValidationError msg="2020-03-01: low must be strictly positive, got {low}"\n'
        )
        assert not out.exists() or not list(out.iterdir())


# case -> (command, key, value, message); the message's {source} is the flag, or the config file
_BAD_VALUES = {
    "stats": ("stats", "out", "", "empty value for 'out' (from {source})"),
    "fixture": ("fixture", "out", "", "empty value for 'out' (from {source})"),
    "pipeline-futures_venue": ("pipeline", "futures_venue", "", "empty value for 'futures_venue' (from {source})"),
    "stats-spot_venue": ("stats", "spot_venue", "", "empty value for 'spot_venue' (from {source})"),
    "pipeline-spot": ("pipeline", "spot", "", "empty value for 'spot' (from {source})"),
    "pipeline-col_close": ("pipeline", "col_close", "", "empty value for 'col_close' (from {source})"),
    "pipeline-config": ("pipeline", "config", "", "empty value for 'config' (from {source})"),
    "pipeline-horizon": (
        "pipeline", "horizon", "x", "bad value for 'horizon': 'x' (invalid literal for int() with base 10: 'x')"
    ),
    "pipeline-estimator": (
        "pipeline", "estimator", "foo", "bad value for 'estimator': 'foo' (expected one of parkinson, range)"
    ),
    "pipeline-rho": (
        "pipeline", "rho", "high", "bad value for 'rho': 'high' (could not convert string to float: 'high')"
    ),
    "pipeline-usdt_alt_venue": (
        "pipeline", "usdt_alt_venue", "kraken", "'usdt_alt_venue' is set, but its input 'usdt_alt' is not given"
    ),
}
# no flag names a column, and no config line the config file
_ONE_SOURCE = {"pipeline-col_close": "config", "pipeline-config": "flag"}


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

    def test_padded_flag_values_replay_from_the_manifest(self, fixture_dir, tmp_path):
        # the white space around a flag value is stripped, as around a config line's value, so the manifest
        # records the value itself and, fed back, rewrites all 9 artifacts byte for byte
        args = _pipeline_args(fixture_dir, tmp_path / "a") + ["--rho", " 0.5", "--spot-venue", " x "]
        assert main(args) == 0
        manifest = tmp_path / "a" / "run_manifest.txt"
        assert {"rho = 0.5", "spot_venue = x"} <= set(manifest.read_text().splitlines())
        assert main(["pipeline", "--config", str(manifest), "--out", str(tmp_path / "b")]) == 0
        assert _read_artifacts(tmp_path / "b") == _read_artifacts(tmp_path / "a")

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_usdt_alt_names_no_input(self, fixture_dir, tmp_path, source):
        # an empty --usdt-alt, or usdt_alt line, is a run without one
        cfg = _market_config(fixture_dir, tmp_path / "cfg.txt", *(["usdt_alt ="] if source == "config" else []))
        given = ["--usdt-alt", ""] if source == "flag" else []
        assert main(["pipeline", "--config", str(cfg), *given, "--out", str(tmp_path / "empty")]) == 0
        assert main(_pipeline_args(fixture_dir, tmp_path / "without")) == 0
        assert _read_artifacts(tmp_path / "empty") == _read_artifacts(tmp_path / "without")

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

    def test_failed_rewrite_leaves_no_manifest(self, fixture_dir, tmp_path, capsys, monkeypatch):
        out = tmp_path / "run"
        assert main(_pipeline_args(fixture_dir, out)) == 0
        first = {path.name: path.read_bytes() for path in out.iterdir()}
        assert main(_pipeline_args(fixture_dir, out)) == 0
        assert {path.name: path.read_bytes() for path in out.iterdir()} == first
        calls = []

        def full_disk(table, stream):
            calls.append(table)
            if len(calls) == 2:  # prob.csv, after aligned.csv is rewritten
                raise OSError(errno.ENOSPC, "No space left on device")
            write_table_csv(table, stream)

        monkeypatch.setattr(marketdata, "write_table_csv", full_disk)
        capsys.readouterr()
        assert main(_pipeline_args(fixture_dir, out)) == 1
        assert capsys.readouterr().err.startswith("error stage=write type=OSError")
        # the earlier run's other artifacts stay, but no manifest claims them a whole run
        assert sorted(path.name for path in out.iterdir()) == sorted(ARTIFACTS[2:-1])

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

    def test_every_setting_by_config_matches_flags(self, fixture_dir, tmp_path, capsys):
        renamed = {"timestamp": "Date", "open": "Open", "high": "High", "low": "Low", "close": "Close", "volume": "Vol"}
        data = tmp_path / "data"
        data.mkdir()
        for name, source in (("spot", "spot"), ("futures", "futures"), ("btc", "btc"), ("usdt_alt", "spot")):
            _, body = (fixture_dir / f"{source}.csv").read_text().split("\n", 1)
            (data / f"{name}.csv").write_text(",".join(renamed.values()) + "\n" + body)
        inputs = {role: str(data / f"{role}.csv") for role in ("spot", "futures", "btc", "usdt_alt")}
        columns = {f"col_{role}": column for role, column in renamed.items()}
        venues = {f"{role}_venue": f"venue-{role}" for role in inputs}
        model = {"rho": "0.8", "horizon": "30", "recovery": "0.25", "window": "40"}
        model |= {"estimator": "range", "annualization": "compounded"}
        by_config, only_columns = tmp_path / "all.txt", tmp_path / "columns.txt"
        everything = inputs | columns | venues | model | {"trim": "off"}
        by_config.write_text("".join(f"{key} = {value}\n" for key, value in everything.items()))
        only_columns.write_text("".join(f"{key} = {value}\n" for key, value in columns.items()))
        by_flags = inputs | venues | model
        flags = [arg for key, value in by_flags.items() for arg in (f"--{key.replace('_', '-')}", value)]
        runs = {
            "config": ["--config", str(by_config)],
            "flags": ["--config", str(only_columns), *flags, "--no-trim"],
        }
        stdout = {}
        for name, args in runs.items():
            assert main(["pipeline", *args, "--out", str(tmp_path / name)]) == 0
            stdout[name] = capsys.readouterr().out
        assert stdout["config"] == stdout["flags"].replace(str(tmp_path / "flags"), str(tmp_path / "config"))
        assert _read_artifacts(tmp_path / "config") == _read_artifacts(tmp_path / "flags")
        # the manifest's entries: inputs, then columns, then venues, then model
        manifest = tmp_path / "config" / "run_manifest.txt"
        entries = [line.split(" = ", 1) for line in manifest.read_text().splitlines() if not line.startswith("#")]
        expected = inputs | columns | venues | model | {"trim": "false"}
        assert entries == [[key, value] for key, value in expected.items()]
        # fed back, it reproduces the run and rewrites itself byte for byte
        assert main(["pipeline", "--config", str(manifest), "--out", str(tmp_path / "again")]) == 0
        assert _read_artifacts(tmp_path / "again") == _read_artifacts(tmp_path / "config")

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
            # only a line feed, a carriage return or both end a config line, not a form feed or a separator
            ("window = 30\x0c\nbogus", "config line 5: expected key=value, got 'bogus'"),
            (
                "window = 30\x1chorizon = 30",
                r"bad value for 'window': '30\x1chorizon = 30' "
                r"(invalid literal for int() with base 10: '30\x1chorizon = 30')",
            ),
        ],
        ids=[
            "no-equals",
            "empty-key",
            "repeated-key",
            "misspelt-key",
            "config-key",
            "annualization",
            "estimator",
            "form-feed",
            "file-separator",
        ],
    )
    def test_malformed_config_line(self, fixture_dir, tmp_path, capsys, line, message):
        cfg = _market_config(fixture_dir, tmp_path / "cfg.txt", line)
        assert main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == f'error stage=config type=SchemaError msg="{message}"\n'

    def test_missing_btc_input_fails_at_config(self, fixture_dir, tmp_path, capsys):
        # an empty input fails too, by flag or by config, naming where its value came from
        args = _pipeline_args(fixture_dir, tmp_path / "run")
        no_btc = args[: args.index("--btc")] + args[args.index("--btc") + 2 :]
        (tmp_path / "cfg.txt").write_text("spot =\n")
        empty_spot_config = [args[0], "--config", str(tmp_path / "cfg.txt"), *args[3:]]
        cases = [
            (no_btc, "missing required input 'btc' (flag --btc or config)"),
            (args + ["--spot", ""], "empty value for 'spot' (from --spot)"),
            (empty_spot_config, f"empty value for 'spot' (from {tmp_path / 'cfg.txt'})"),
        ]
        for argv, message in cases:
            assert main(argv) == 1
            assert capsys.readouterr().err == f'error stage=config type=SchemaError msg="{message}"\n'
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "command, key, value, message, source",
        [
            pytest.param(*case, source, id=f"{name}-{source}")
            for name, case in _BAD_VALUES.items()
            for source in ("flag", "config")
            if _ONE_SOURCE.get(name, source) == source
        ],
    )
    def test_empty_output_directory_fails_at_config(
        self, fixture_dir, tmp_path, capsys, monkeypatch, command, key, value, message, source
    ):
        # every bad setting value, empty or not, by flag or by config line, fails here through one check, not
        # later where the value is used; so does a venue given without its input
        monkeypatch.chdir(tmp_path)  # Path("") is the working directory
        cfg = tmp_path / "cfg.txt"
        inputs = [f"{role} = {fixture_dir / f'{role}.csv'}" for role in ("spot", "futures", "btc") if role != key]
        cfg.write_text("\n".join(inputs + ([f"{key} = {value}"] if source == "config" else [])) + "\n")
        flag = f"--{key.replace('_', '-')}"
        args = [command, "--config", str(cfg)] + ([flag, value] if source == "flag" else [])
        assert main(args) == 1
        message = message.format(source=flag if source == "flag" else cfg)
        assert capsys.readouterr() == ("", f'error stage=config type=SchemaError msg="{message}"\n')
        assert [path.name for path in tmp_path.iterdir()] == ["cfg.txt"]

    @pytest.mark.parametrize("rho", [[], ["--rho", "estimate"]], ids=["fixed", "estimate"])
    def test_window_below_three_fails_at_fit(self, fixture_dir, tmp_path, capsys, rho):
        out = tmp_path / "run"
        assert main(_pipeline_args(fixture_dir, out) + ["--window", "2", *rho]) == 1
        err = capsys.readouterr().err
        assert err == 'error stage=config type=DomainError msg="rolling window must be at least 3, got 2"\n'
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
        err = capsys.readouterr().err
        assert err == f'error stage=parse type=SchemaError msg="{spot}: empty input: no header row"\n'

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
        assert err == 'error stage=config type=DomainError msg="rolling window must be at least 3, got 2"\n'

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
        message = f"{spot}: line 2: field larger than field limit (131072)"
        assert err == f'error stage=parse type=ValidationError msg="{message}"\n'

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
        assert err == 'error stage=config type=DomainError msg="recovery must lie in [0, 1), got 1.0"\n'

    def test_one_path_fails_at_config(self, capsys):
        # one path has no standard error, so its recovered p would claim an exact answer
        assert main(["simulate", "--n-paths", "1"]) == 1
        assert capsys.readouterr() == ("", 'error stage=config type=DomainError msg="n_paths must be at least 2, got 1"\n')

    def test_invalid_rho_is_domain_error(self, capsys):
        code = main(["simulate", "--rho", "1.2", "--n-paths", "100"])
        assert code == 1
        err = capsys.readouterr().err
        assert "DomainError" in err

    def test_rho_to_estimate_fails_at_config(self, capsys):
        # a value the data commands take, with no series here to fit
        assert main(["simulate", "--rho", "estimate", "--n-paths", "10"]) == 1
        message = "bad value for 'rho': 'estimate' (simulate and fixture take a number)"
        assert capsys.readouterr() == ("", f'error stage=config type=SchemaError msg="{message}"\n')

    def test_config_file_matches_flags(self, tmp_path, capsys):
        # every setting simulate takes, each away from its default
        settings = {
            "rho": "0.8",
            "innovation_sd": "4e-4",
            "delta0": "0.001",
            "horizon": "30",
            "p_default": "0.02",
            "recovery": "0.25",
            "seed": "11",
            "n_paths": "2000",
        }
        config = tmp_path / "sim.cfg"
        config.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()))
        flags = [arg for key, value in settings.items() for arg in (f"--{key.replace('_', '-')}", value)]
        assert main(["simulate", *flags]) == 0
        from_flags = capsys.readouterr().out
        assert main(["simulate", "--config", str(config)]) == 0
        assert capsys.readouterr().out == from_flags
        assert "defaults   = " in from_flags and " / 2000 (rate " in from_flags
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
    "command, module, name, stage",
    [
        ("pipeline", cli, "_load_config", "config"),
        ("pipeline", marketdata, "parse_bars", "parse"),
        ("pipeline", marketdata, "align_daily", "align"),
        ("pipeline", pegmodel, "fit_ar1", "fit"),
        ("pipeline", pegmodel, "fit_ar1_rolling", "fit"),
        ("pipeline", pegmodel, "prob_series", "prob"),  # the untrimmed series
        ("pipeline", pegmodel, "trim_negative", "prob"),  # the published series
        ("pipeline", features, "build_feature_panel", "features"),
        ("pipeline", econometrics, "run_panel_regressions", "regress"),
        ("pipeline", econometrics, "summary_stats", "stats"),
        # after table3, before any other stage: the last stage to run names the failure
        ("pipeline", econometrics, "format_summary_table", "stats"),
        ("pipeline", marketdata, "write_table_csv", "write"),
        ("simulate", simkit, "roundtrip_invert", "simulate"),
        ("fixture", simkit, "generate_fixture", "fixture"),
    ],
    ids=lambda value: value.__name__.rpartition(".")[2] if hasattr(value, "__name__") else value,
)
def test_error_names_its_stage(fixture_dir, tmp_path, monkeypatch, capsys, command, module, name, stage):
    def broken(*args, **kwargs):
        raise ValidationError(f"{name} failed")

    monkeypatch.setattr(module, name, broken)
    out = tmp_path / "out"
    argv = {
        "pipeline": ["--config", str(_market_config(fixture_dir, tmp_path / "run.cfg")), "--out", str(out)],
        "simulate": ["--n-paths", "10"],
        "fixture": ["--n-days", "60", "--out", str(out)],
    }[command]
    assert main([command, *argv]) == 1
    message = f"{fixture_dir / 'spot.csv'}: {name} failed" if name == "parse_bars" else f"{name} failed"  # its file
    assert capsys.readouterr() == ("", f'error stage={stage} type=ValidationError msg="{message}"\n')
    assert not out.exists() or not list(out.iterdir())


def test_failure_after_a_caught_fit_error_names_the_last_stage(fixture_dir, tmp_path, monkeypatch, capsys):
    # with a fixed rho the manifest goes on without the full-sample fit; a later failure between stages names
    # the last stage that ran, not the fit
    def no_fit(*args):
        raise EstimationError("no fit")

    def broken(*args):
        raise ValidationError("format failed")

    monkeypatch.setattr(pegmodel, "fit_ar1", no_fit)
    monkeypatch.setattr(econometrics, "format_summary_table", broken)
    assert main(_pipeline_args(fixture_dir, tmp_path / "out")) == 1
    assert capsys.readouterr() == ("", 'error stage=stats type=ValidationError msg="format failed"\n')


_OUT_OF_RANGE = {
    "seed": ("-1", "seed must be non-negative, got -1"),
    "rho": ("1", "rho must lie in [0, 1), got 1.0"),
    "horizon": ("0", "horizon must be at least 1 day, got 0"),
    "recovery": ("1", "recovery must lie in [0, 1), got 1.0"),
    "window": ("2", "rolling window must be at least 3, got 2"),
    "p_default": ("1.5", "p_default must lie in [0, 1], got 1.5"),
    "innovation_sd": ("-1", "innovation_sd must be non-negative, got -1.0"),
    "p_period_days": ("0", "p_period_days must be at least 1, got 0"),
}
# command -> its other arguments, each input a file that does not exist, and the settings set out of range in turn
_RANGE_COMMANDS = {
    "simulate": (["--n-paths", "10"], "seed rho horizon recovery p_default innovation_sd"),
    "fixture": (["--out", "out"], "seed rho horizon recovery p_default innovation_sd p_period_days"),
    "pipeline": (
        ["--spot", "no.csv", "--futures", "no.csv", "--btc", "no.csv", "--out", "out"],
        "rho horizon recovery window",
    ),
    "prob": (["--spot", "no.csv", "--futures", "no.csv", "--out", "out"], "horizon"),
    "stats": (["--spot", "no.csv", "--futures", "no.csv"], "recovery"),
    "fit": (["--spot", "no.csv"], "window"),
}


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize(
    "command, key",
    [(command, key) for command, (_, keys) in _RANGE_COMMANDS.items() for key in keys.split()],
    ids=lambda value: value,
)
def test_setting_out_of_range_fails_at_config(tmp_path, monkeypatch, capsys, source, command, key):
    # as one error line, before any input is parsed, any path drawn or any file written
    monkeypatch.chdir(tmp_path)
    value, message = _OUT_OF_RANGE[key]
    Path("c.cfg").write_text(f"{key} = {value}\n")
    given = ["--config", "c.cfg"] if source == "config" else [f"--{key.replace('_', '-')}", value]
    assert main([command, *given, *_RANGE_COMMANDS[command][0]]) == 1
    assert capsys.readouterr() == ("", f'error stage=config type=DomainError msg="{message}"\n')
    assert [path.name for path in tmp_path.iterdir()] == ["c.cfg"]


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


def test_flag_without_its_value_is_a_usage_error(capsys):
    # argparse only records which flags are given; a value it records is checked at stage=config
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--horizon"])
    assert exc.value.code == 2
    assert "argument --horizon: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["prob", "features", "regress", "stats"])
def test_window_is_a_flag_of_pipeline_and_fit_only(command, capsys):
    # the rolling fit runs only where it is reported: the pipeline manifest and fit's output
    with pytest.raises(SystemExit) as exc:
        main([command, "--window", "30"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --window 30" in capsys.readouterr().err


def test_model_defaults_are_the_library_defaults():
    """The defaults a command reads are those of the library functions it calls."""

    def default(func, name):
        return inspect.signature(func).parameters[name].default

    for func in (pegmodel.prob_series, pegmodel.annualize, pegmodel.check_inversion_domain):
        assert default(func, "method") == _MODEL_DEFAULTS["annualization"], func.__name__
    for func in (features.build_feature_panel, features.intraday_vol):
        assert default(func, "estimator") == _MODEL_DEFAULTS["estimator"], func.__name__
    assert default(pegmodel.prob_series, "h") == pegmodel.DEFAULTS["horizon"]
    recovery = (pegmodel.prob_series, pegmodel.check_inversion_domain, pegmodel.theoretical_futures,
                pegmodel.implied_default_prob)
    for func in recovery:
        assert default(func, "recovery") == pegmodel.DEFAULTS["recovery"], func.__name__


def test_readme_lists_every_config_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = next(text for text in readme.split("\n\n") if text.startswith("Every flag can instead be given"))
    keys = {flag.replace("-", "_") for flag in _FLAGS if flag != "config"} | set(_MODEL_DEFAULTS)
    assert sorted(key for key in keys if f"`{key}`" not in paragraph) == []


# SHA-256 of the --help text, at 80 columns, of pegrisk ("") and of each subcommand, as Python 3.11's argparse
# (CI's) formats it; a change to any of these texts updates its hash and says why in CHANGES.md
HELP_SHA256 = {
    "": "76588ea651e6749414d90b52ceb7802a2fc62319cbc8cd84235dcdc926b38656",
    "pipeline": "ec77106de63bf0eee936a7200191c0da2296554896ba078464de3e2064c36143",
    "align": "752160b9acfefd7d36b17702aac1db8363217ab1b2a7bac2c776987dbe4f7753",
    "fit": "8124c0ef0f772c269dfc98b83026f72209a8c705319174f362e8014438f3ffca",
    "prob": "484f90f4b0df80afe055c402a22cc7357dbc2134ef688fa36c1e4e2a00c5c24b",
    "features": "e6f82641271312af12489a80be6c685091a7795aa3989b0abb9725879cdffb91",
    "regress": "9530ea97754f05d686d0ea349ccc5aa0f9a5219338b2b6bd8ee8d10c233265f2",
    "stats": "be84befd0fb73cacea0321be9261147fcfe696c49d00865b6b91b03efb90a935",
    "simulate": "aa5e8eaadb6a5aed8c60a7b539d487fa7c5b6227909ffd5ed95a5441d48d2d1f",
    "fixture": "550982259d5856f735d61927f2186709ae694b97115a55d526db0506e73184d1",
}


@pytest.mark.parametrize("command", HELP_SHA256, ids=lambda command: command or "pegrisk")
def test_help_text_is_pinned(command, monkeypatch, capsys):
    # the help of --horizon and --recovery shows its default from pegmodel.DEFAULTS, that of --window from _MODEL_DEFAULTS
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == HELP_SHA256[command]


def test_no_subcommand_prints_help(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out


def test_pipeline_and_regress_run_without_scipy(fixture_dir, tmp_path):
    """numpy is the only runtime dependency: blocking scipy changes no byte."""
    env = _cli_env()
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
    env = _cli_env()
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
    env = _cli_env()
    modules = ("multiprocessing", "concurrent.futures", "logging")
    probe = f"import sys, pegrisk.cli; print([m for m in {modules!r} if m in sys.modules])"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


@pytest.mark.parametrize(
    "module, loads",
    [
        ("pegrisk", []),
        ("pegrisk.cli", ["pegrisk.cli", "pegrisk.errors"]),
        ("pegrisk.econometrics", ["numpy", "pegrisk.econometrics", "pegrisk.errors"]),
        ("pegrisk.features", ["numpy", "pegrisk.errors", "pegrisk.features", "pegrisk.marketdata"]),
        ("pegrisk.simkit", ["numpy", "pegrisk.errors", "pegrisk.marketdata", "pegrisk.pegmodel", "pegrisk.simkit"]),
    ],
    ids=["root", "cli", "econometrics", "features", "simkit"],
)
def test_import_loads_only_the_modules_it_uses(module, loads):
    """The package root imports no module, so a module loads only itself and the modules it imports.

    ``pegrisk.cli`` loads no library module and no numpy: each command imports the modules it runs.
    """
    loaded = "name.startswith('pegrisk.') or name == 'numpy'"
    probe = f"import sys, {module}; print(sorted(name for name in sys.modules if {loaded}))"
    done = subprocess.run([sys.executable, "-c", probe], env=_cli_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"{loads!r}\n"


# the pegrisk modules a command loads when run as a program: no data command loads simkit, and stats does not load
# features, which econometrics imports for an annotation only
_TABLE_LOADS = ["cli", "econometrics", "errors", "features", "marketdata", "pegmodel"]
COMMAND_LOADS = {
    "align": ["cli", "errors", "marketdata"],
    "fit": ["cli", "errors", "marketdata", "pegmodel"],
    "prob": ["cli", "errors", "marketdata", "pegmodel"],
    "features": ["cli", "errors", "features", "marketdata", "pegmodel"],
    "regress": _TABLE_LOADS,
    "stats": ["cli", "econometrics", "errors", "marketdata", "pegmodel"],
    "pipeline": _TABLE_LOADS,
    "simulate": ["cli", "errors", "marketdata", "pegmodel", "simkit"],
    "fixture": ["cli", "errors", "marketdata", "pegmodel", "simkit"],
}


@pytest.mark.parametrize("command", COMMAND_LOADS)
def test_a_command_loads_only_the_modules_it_runs(command, fixture_dir, tmp_path):
    """A fresh process runs one command as the console script does, ``sys.exit(main())``, then prints at exit the
    pegrisk modules it loaded, and whether the cyclic garbage collector is on and any object frozen."""
    inputs = {role: ["--" + role, str(fixture_dir / f"{role}.csv")] for role in ("spot", "futures", "btc")}
    market, out = inputs["spot"] + inputs["futures"], ["--out", str(tmp_path / "out")]
    args = {
        "align": market + out,
        "fit": inputs["spot"],
        "prob": market + out,
        "stats": market + out,
        "simulate": ["--n-paths", "1000"],
        "fixture": ["--n-days", "30", *out],
    }.get(command, market + inputs["btc"] + out)
    loaded = "sorted(name[8:] for name in sys.modules if name.startswith('pegrisk.'))"
    report = f"atexit.register(lambda: print({loaded}, gc.isenabled(), gc.get_freeze_count() > 0))"
    probe = f"import atexit, gc, sys; {report}; from pegrisk.cli import main; sys.exit(main())"
    done = subprocess.run(
        [sys.executable, "-c", probe, command, *args], env=_cli_env(), capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == f"{COMMAND_LOADS[command]!r} False True"


def test_readme_library_example_runs(tmp_path):
    """README's "Library use" block runs on the default fixture and prints the prob.csv of `prob --rho estimate`."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    data = tmp_path / "data"
    assert main(["fixture", "--out", str(data)]) == 0
    inputs = ["--spot", str(data / "spot.csv"), "--futures", str(data / "futures.csv")]
    assert main(["prob", *inputs, "--rho", "estimate", "--out", str(tmp_path / "prob")]) == 0
    done = subprocess.run(
        [sys.executable, "-c", block], cwd=tmp_path, env=_cli_env(), capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[1] == ",".join(pegmodel.ProbSeries.HEADER)
    assert done.stdout.split("\n", 1)[1] == (tmp_path / "prob" / "prob.csv").read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def noisy_dir(tmp_path_factory):
    """The default fixture with noisy futures: 18 raw probabilities fall below ``RAW_PROB_FLOOR``."""
    path = tmp_path_factory.mktemp("noisy")
    assert main(["fixture", "--futures-noise-sd", "0.03", "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("options", [[], ["-W", "error"]], ids=["default", "W-error"])
def test_data_quality_warning_is_one_line(noisy_dir, tmp_path, options):
    inputs = ["--spot", str(noisy_dir / "spot.csv"), "--futures", str(noisy_dir / "futures.csv")]
    out = tmp_path / "out"
    argv = [sys.executable, *options, "-m", "pegrisk.cli", "prob", *inputs, "--out", str(out)]
    done = subprocess.run(argv, env=_cli_env(), capture_output=True, text=True, timeout=120)
    message = "2020-03-13: raw default probability -0.062509 below -0.05; check the input prices"
    first = f'type=DataQualityWarning msg="{message}"'
    if options:  # the first warning is an error: the run fails at prob and writes nothing
        assert (done.returncode, done.stdout, done.stderr) == (1, "", f"error stage=prob {first}\n")
        assert not out.exists() or not list(out.iterdir())
    else:
        assert done.returncode == 0, done.stderr
        lines = done.stderr.splitlines()
        assert lines[0] == f"warning stage=prob {first}"
        assert len(lines) == 18
        assert all(re.fullmatch(r'warning stage=prob type=DataQualityWarning msg="[^"\n]+"', line) for line in lines)
        assert (out / "prob.csv").exists()


def test_main_runs_outside_the_main_thread(fixture_dir, capsys):
    # only the main thread may set a signal handler, so elsewhere main sets none
    codes = []
    thread = threading.Thread(target=lambda: codes.append(main(["fit", "--spot", str(fixture_dir / "spot.csv")])))
    thread.start()
    thread.join(timeout=60)
    assert codes == [0]
    assert capsys.readouterr().out.startswith("full-sample rho = ")


# runs pegrisk with the cli job named in argv[2] forked: each job records its worker's pid, then takes a second,
# except the job of the file named in argv[3]
SLOW_JOBS = """
import os, signal, sys, time
from pegrisk import cli, marketdata

signal.signal(signal.SIGINT, signal.default_int_handler)  # as in a process started from a terminal
pids, name, quick = sys.argv[1:4]
cli._PARALLEL_BYTES, marketdata._cpu_count, job = 0, lambda: 2, getattr(cli, name)


def slow_job(path, *args):
    with open(pids, "a") as stream:
        stream.write(f"{os.getpid()}\\n")
    if os.path.basename(path) != quick:
        time.sleep(1)
    return job(path, *args)


setattr(cli, name, slow_job)
sys.exit(cli.main(sys.argv[4:]))
"""


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.mark.parametrize(
    "signum, job, quick, error",
    [
        (signal.SIGTERM, "_write_table", "-", 'write type=Terminated msg="received SIGTERM"'),
        (signal.SIGINT, "_write_table", "-", 'write type=KeyboardInterrupt msg="received SIGINT"'),
        (signal.SIGTERM, "_parse_file", "-", 'parse type=Terminated msg="received SIGTERM"'),
        # to the whole process group, as a service manager stops a command, when one worker has done its job
        (signal.SIGTERM, "_write_table", "prob.csv", 'write type=Terminated msg="received SIGTERM"'),
        # to the whole process group, as a terminal's Ctrl-C, when one worker has done its job, and when none has
        (signal.SIGINT, "_write_table", "prob.csv", 'write type=KeyboardInterrupt msg="received SIGINT"'),
        (signal.SIGINT, "_parse_file", "", 'parse type=KeyboardInterrupt msg="received SIGINT"'),
    ],
    ids=["term-write", "int-write", "term-parse", "term-group-write", "int-group-write", "int-group-parse"],
)
def test_signal_ends_the_run_and_its_workers(fixture_dir, tmp_path, signum, job, quick, error):
    pids, out = tmp_path / "pids.txt", tmp_path / "out"
    workers = 3 if job == "_parse_file" else 2  # spot, futures and btc; aligned.csv and prob.csv
    argv = [sys.executable, "-c", SLOW_JOBS, str(pids), job, quick, *_pipeline_args(fixture_dir, out)]
    try:
        with subprocess.Popen(
            argv, env=_cli_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
        ) as run:
            deadline = time.monotonic() + 60
            while not (pids.exists() and len(pids.read_text().split()) == workers) and time.monotonic() < deadline:
                time.sleep(0.01)
            if quick == "-":
                run.send_signal(signum)  # to the command's process alone, while its workers run their jobs
            else:
                time.sleep(0.3)  # the quick job, if any, is done, and its worker waits for the pool to end
                os.killpg(run.pid, signum)
            stdout, stderr = run.communicate(timeout=30)
        assert (run.returncode, stdout, stderr) == (128 + signum, "", f"error stage={error}\n")
        assert not out.exists() or not list(out.iterdir())
        recorded = [int(pid) for pid in pids.read_text().split()]
        assert len(recorded) == workers
        deadline = time.monotonic() + 5
        while any(map(_alive, recorded)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_alive, recorded))
    finally:  # a worker that outlived a failed run ends here
        for pid in map(int, pids.read_text().split() if pids.exists() else []):
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
