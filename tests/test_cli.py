"""End-to-end tests of the command-line driver."""

import codecs
import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pegrisk
from pegrisk.cli import FLAGS, MODEL_DEFAULTS, main
from pegrisk.marketdata import write_bars_csv
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
        write_bars_csv(series, buf)
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
        assert "rho_effective" in manifest

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
        out = tmp_path / "run"
        assert main(_pipeline_args(data, out)) == 0
        manifest = (out / "run_manifest.txt").read_text()
        assert "full-sample fit unavailable" in manifest
        bad = main(_pipeline_args(data, tmp_path / "run2") + ["--rho", "estimate"])
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
        [("rho 0.5", "config line 4: expected key=value, got 'rho 0.5'"), ("= 0.5", "config line 4: empty key")],
        ids=["no-equals", "empty-key"],
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

    def test_trimmed_prob_csv_has_no_negatives(self, fixture_dir, tmp_path):
        out = tmp_path / "run"
        assert main(_pipeline_args(fixture_dir, out)) == 0
        lines = (out / "prob.csv").read_text().splitlines()[1:]
        assert lines
        for line in lines:
            p_horizon = float(line.split(",")[1])
            assert p_horizon >= 0.0


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

    def test_fit_reports_coefficient(self, fixture_dir, capsys):
        code = main(["fit", "--spot", str(fixture_dir / "spot.csv"), "--window", "30"])
        assert code == 0
        out = capsys.readouterr().out
        assert "full-sample rho" in out
        assert "rolling mean rho" in out

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


def test_cli_import_starts_no_process_machinery():
    """Worker processes and their modules load only when a command parses large inputs."""
    src = str(Path(pegrisk.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    modules = ("multiprocessing", "concurrent.futures", "logging")
    probe = f"import sys, pegrisk.cli; print([m for m in {modules!r} if m in sys.modules])"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
