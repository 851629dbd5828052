"""Command-line driver: align, estimate, invert, regress, simulate.

Every parameter can come from a ``key=value`` config file (``--config``),
with command-line flags taking precedence. ``pipeline`` writes its
artifacts plus a run manifest that doubles as a config file, so

    pegrisk pipeline --config run_manifest.txt --out elsewhere

reproduces a run exactly. Errors exit nonzero with a single machine-
parsable line on stderr (``error stage=... type=... msg="..."``) and any
partially written artifacts are removed. A command parses all its inputs
first, in role order. On two or more CPUs, inputs of ``PARALLEL_BYTES`` or
more in all are parsed by forked workers, one per input, and the rows of a
CSV artifact about that large (``aligned.csv``, ``prob.csv``,
``features.csv``, a fixture's bars) are formatted by forked workers, one per
CPU, a chunk at a time, while the command writes each chunk's text into the
artifact in order; bytes and errors are those of the serial path, and only
artifacts are ever written.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import sys
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterator

from . import config as cfgmod
from . import econometrics, features, marketdata, pegmodel, simkit
from .errors import EstimationError, PegRiskError, SchemaError

FIGURE1_STUB = """\
{
  "$schema": "https://vega.github.io/schema/vega-lite/v5.json",
  "description": "Spot and futures closes (top) and futures-spot basis (bottom)",
  "vconcat": [
    {
      "data": {"url": "aligned.csv"},
      "transform": [{"fold": ["s", "f"], "as": ["series", "price"]}],
      "mark": "line",
      "encoding": {
        "x": {"field": "date", "type": "temporal"},
        "y": {"field": "price", "type": "quantitative", "scale": {"zero": false}},
        "color": {"field": "series", "type": "nominal"}
      }
    },
    {
      "data": {"url": "aligned.csv"},
      "mark": "line",
      "encoding": {
        "x": {"field": "date", "type": "temporal"},
        "y": {"field": "basis_bps", "type": "quantitative"}
      }
    }
  ]
}
"""

FIGURE2_STUB = """\
{
  "$schema": "https://vega.github.io/schema/vega-lite/v5.json",
  "description": "Annualized implied default probability, basis points",
  "data": {"url": "prob.csv"},
  "mark": "line",
  "encoding": {
    "x": {"field": "date", "type": "temporal"},
    "y": {"field": "p_annualized_bps", "type": "quantitative"}
  }
}
"""

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}

# model setting of the data commands -> its default, whose type is the setting's cast
MODEL_DEFAULTS = {
    "rho": "0.73",  # a number, or "estimate"
    "horizon": 90,
    "recovery": 0.0,
    "window": 60,
    "estimator": "parkinson",
    "annualization": "linear",
    "trim": True,
}

PARALLEL_BYTES = 8 << 20  # inputs this large in all, or a CSV artifact this large, are handled by forked workers
DEFAULT_OUT = "out"


class _Run:
    """Tracks the active stage and every file written, for cleanup on error."""

    def __init__(self) -> None:
        self.stage = "init"
        self.written: list[Path] = []

    def write(self, files: dict[Path, str | marketdata.Table]) -> None:
        """Write each file in turn: a text, or a table as CSV, its header and then its rows.

        A table's rows are formatted ``WRITE_ROWS`` at a time; those of a large table by forked workers, one per
        CPU. Either way this process writes each chunk's text into the file, in order, as it comes, so no other
        file is made and no process holds a whole table's text.
        """
        cpus = simkit._cpu_count()
        for path, content in files.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            with path.open("w", encoding="utf-8") as stream:
                self.written.append(path)
                if isinstance(content, str):
                    stream.write(content)
                    continue
                columns, step = content.columns(), marketdata.WRITE_ROWS
                chunks = [[column[k : k + step] for column in columns] for k in range(0, len(content), step)]
                # a CSV cell takes about 16 bytes
                if cpus > 1 and len(content) * len(content.HEADER) * 16 >= PARALLEL_BYTES:
                    texts = _at_once(marketdata.csv_rows, [(path, chunk) for chunk in chunks], cpus)
                else:
                    texts = (marketdata.csv_rows(*chunk) for chunk in chunks)
                stream.write(",".join(content.HEADER) + "\n")
                with contextlib.closing(texts):  # joins the workers also when a write fails
                    stream.writelines(texts)

    def discard_written(self) -> None:
        for path in self.written:
            try:
                path.unlink()
            except OSError:
                pass


class _Settings:
    """Flag > config > default resolution for one command invocation."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        # the keys the README lists: each flag but --config, with "_" for "-", then the column names
        keys = {flag.replace("-", "_") for flag in FLAGS if flag != "config"}
        keys |= {f"col_{role}" for role in marketdata.ROLES}
        self.cfg = cfgmod.load_config(args.config, keys) if getattr(args, "config", None) else {}

    def get(self, key: str, default=None, cast=str):
        flag = getattr(self.args, key, None)
        if flag is not None:
            raw = flag
        elif key in self.cfg:
            raw = self.cfg[key]
        else:
            return default
        if cast is bool and isinstance(raw, str):
            lowered = raw.lower()
            if lowered in _TRUE:
                return True
            if lowered in _FALSE:
                return False
            raise SchemaError(f"expected a boolean for {key!r}, got {raw!r}")
        try:
            value = cast(raw)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"bad value for {key!r}: {raw!r} ({exc})") from exc
        choices = FLAGS.get(key.replace("_", "-"), {}).get("choices", (value,))
        if value not in choices:  # argparse checks a flag; this checks a config value
            raise SchemaError(f"bad value for {key!r}: {raw!r} (expected one of {', '.join(choices)})")
        return value

    def require(self, key: str, cast=str):
        value = self.get(key, None, cast)
        if value is None:
            raise SchemaError(f"missing required input {key!r} (flag --{key.replace('_', '-')} or config)")
        return value

    def build(self, cls, **defaults):
        """``cls`` with each field read from the setting of its name, defaulting to and cast as its default."""
        values = {}
        for field in dataclasses.fields(cls):
            default = defaults.get(field.name, field.default)
            key = "horizon" if field.name == "horizon_days" else field.name
            values[field.name] = self.get(key, default, type(default))
        return cls(**values)

    def column_schema(self) -> dict[str, str]:
        names = {role: self.get(f"col_{role}") for role in marketdata.ROLES}
        return {role: name for role, name in names.items() if name is not None}


def _parse_file(path: str, schema: dict[str, str], venue: str) -> marketdata.BarSeries:
    """The bars of one input file; module-level so that a worker process can be sent it."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as stream:
            return marketdata.parse_bars(stream, schema=schema, venue=venue)
    except UnicodeDecodeError as exc:
        raise cfgmod.not_utf8(path, exc) from None


def _at_once(func: Callable, jobs: list[tuple], workers: int) -> Iterator:
    """Yield ``func(*args)`` of each ``(name, args)`` job in job order, run by forked worker processes.

    A job that failed raises its own error in its turn, and one whose worker died, as by a signal, a
    ``ChildProcessError`` naming the job. The workers are joined when the generator ends, so a caller that
    may stop early closes it.
    """
    # imported here, not at the top: concurrent.futures loads logging, which would slow every command's start
    import multiprocessing
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

    # forked workers keep this process's imports
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        futures = []
        for _, args in jobs:
            try:
                futures.append(pool.submit(func, *args))
            except BrokenExecutor:  # a worker died before this job was sent
                break
        futures.reverse()  # popped in job order, so no result is kept once it is yielded
        for name, _ in jobs:
            if not futures or isinstance(futures[-1].exception(), BrokenExecutor):  # its worker died, as by a signal
                raise ChildProcessError(f"the worker process for {name} ended without a result")
            yield futures.pop().result()  # raises the job's own error
    finally:  # after an error or an early close, jobs not yet started are dropped; the workers are joined
        pool.shutdown(cancel_futures=True)


class _Stages:
    """One command's settings, and the paper's chain: parse, align, fit, prob, features, regress, stats.

    Constructing it is the config stage of every command. It resolves up
    front each input, and in a data command each model setting, whose flag
    the command takes; every input but ``usdt_alt`` is required. Each stage
    runs at most once, the first time something reads it, and names itself
    in ``run.stage`` while it runs so an error reports where it happened.
    """

    def __init__(self, args: argparse.Namespace, run: _Run) -> None:
        run.stage = "config"
        self.run = run
        self.settings = settings = _Settings(args)
        flags = COMMANDS[args.command][1].split()
        # simulate and fixture read their rho, horizon and recovery through their config dataclass
        model = MODEL_DEFAULTS if "spot" in flags else {}
        self.model = {key: settings.get(key, value, type(value)) for key, value in model.items() if key in flags}
        self.paths = {role: settings.require(role) for role in ("spot", "futures", "btc") if role in flags}
        if "out" in flags and settings.get("out") == "":  # Path("") would write into the working directory
            raise SchemaError("empty value for 'out': name an output directory (flag --out or config)")
        if "usdt-alt" in flags and settings.get("usdt_alt"):
            self.paths["usdt_alt"] = settings.get("usdt_alt")
        self._jobs = [
            (path, settings.column_schema(), settings.get(f"{role}_venue", "unspecified"))
            for role, path in self.paths.items()
        ]

    @cached_property
    def bars(self) -> dict[str, marketdata.BarSeries]:
        """Each input's bars, parsed in role order, or side by side if the inputs are large."""
        self.run.stage = "parse"
        if len(self._jobs) > 1 and simkit._cpu_count() > 1:
            try:
                size = sum(Path(path).stat().st_size for path in self.paths.values())
            except OSError:  # the serial parse of that file raises it
                size = 0
            if size >= PARALLEL_BYTES:
                jobs = list(zip(self.paths.values(), self._jobs))
                return dict(zip(self.paths, list(_at_once(_parse_file, jobs, len(jobs)))))
        return {role: _parse_file(*job) for role, job in zip(self.paths, self._jobs)}

    @cached_property
    def aligned(self) -> marketdata.AlignedSeries:
        bars = self.bars
        self.run.stage = "align"
        return marketdata.align_daily(bars["spot"], bars["futures"])

    @cached_property
    def fit(self) -> pegmodel.Ar1Fit:
        spot = self.bars["spot"]
        self.run.stage = "fit"
        return pegmodel.fit_ar1(spot.date, spot.close - 1.0)

    @cached_property
    def rolling(self) -> pegmodel.RollingAr1 | EstimationError:
        """The rolling fits of the spot deviations, or the error that makes them unavailable."""
        spot, window = self.bars["spot"], self.model["window"]
        self.run.stage = "fit"
        try:
            return pegmodel.fit_ar1_rolling(spot.date, spot.close - 1.0, window)
        except EstimationError as exc:
            if window < 3:  # a bad setting, not bad data, so it fails the command
                raise
            return exc

    @cached_property
    def rho(self) -> float:
        """The rho of the inversion: the number given, or under 'estimate' that of the full-sample fit."""
        if self.model["rho"] == "estimate":
            return self.fit.rho
        self.run.stage = "fit"
        try:
            return float(self.model["rho"])
        except ValueError:
            raise SchemaError(f"rho must be a number or 'estimate', got {self.model['rho']!r}") from None

    @cached_property
    def untrimmed(self) -> pegmodel.ProbSeries:
        """Raw inversions: they feed the statistics and the regressions."""
        aligned, rho, model = self.aligned, self.rho, self.model
        self.run.stage = "prob"
        return pegmodel.prob_series(aligned, rho, model["horizon"], model["recovery"], method=model["annualization"])

    @cached_property
    def published(self) -> pegmodel.ProbSeries:
        untrimmed = self.untrimmed
        return pegmodel.trim_negative(untrimmed) if self.model["trim"] else untrimmed

    @cached_property
    def panel(self) -> features.Panel:
        untrimmed, bars = self.untrimmed, self.bars
        self.run.stage = "features"
        # without an alternative USDT series, spot supplies its volatility
        usdt = bars.get("usdt_alt", bars["spot"])
        return features.build_feature_panel(untrimmed, bars["btc"], usdt, self.model["estimator"])

    @cached_property
    def regressions(self) -> dict[str, econometrics.RegressionResult]:
        panel = self.panel
        self.run.stage = "regress"
        return econometrics.run_panel_regressions(panel)

    @cached_property
    def table3(self) -> list[econometrics.SummaryRow]:
        aligned, untrimmed = self.aligned, self.untrimmed
        self.run.stage = "stats"
        return [
            econometrics.summary_stats("s", aligned.s),
            econometrics.summary_stats("f", aligned.f),
            econometrics.summary_stats("f_minus_s_bps", aligned.basis_bps),
            econometrics.summary_stats("p_annualized_bps", untrimmed.p_annualized_bps),
        ]

    def write(self, names: tuple[str, ...], default_out: str | None = DEFAULT_OUT) -> dict:
        """Run every stage the named artifacts need, then write them if an output directory is set.

        Returns each artifact's content: its text, or for a CSV its table.
        ``self.out`` is the directory written, or None.
        """
        contents = {name: ARTIFACTS[name](self) for name in names}
        self.out = self.settings.get("out", default_out)
        if self.out is not None:
            self.run.stage = "write"
            self.run.write({Path(self.out) / name: content for name, content in contents.items()})
        return contents


PIPELINE_ARTIFACTS = (
    "aligned.csv",
    "prob.csv",
    "table3.txt",
    "table3.csv",
    "table4.txt",
    "table4.csv",
    "figure1.vl.json",
    "figure2.vl.json",
)


def _join_summary(aligned: marketdata.AlignedSeries) -> str:
    report = aligned.join_report
    return (
        f"aligned {report.matched} dates "
        f"(dropped {report.dropped_spot} spot, {report.dropped_futures} futures)"
    )


def _manifest(stages: _Stages) -> str:
    fmt, rolling = marketdata.fmt_float, stages.rolling
    try:
        full_fit = f"rho_full_sample = {fmt(stages.fit.rho)} (stderr {fmt(stages.fit.stderr)})"
    except EstimationError as exc:  # a fixed rho goes on without it; under 'estimate', stages.rho below raises it
        full_fit = f"full-sample fit unavailable: {exc}"
    entries = dict(stages.paths)
    venues = [flag.replace("-", "_") for flag in FLAGS if flag.endswith("-venue")]
    for key in [f"col_{role}" for role in marketdata.ROLES] + venues:
        value = stages.settings.get(key)
        if value is not None:
            entries[key] = value
    for key, value in stages.model.items():
        if isinstance(value, bool):
            value = "true" if value else "false"
        entries[key] = fmt(value) if isinstance(value, float) else str(value)
    report = stages.aligned.join_report
    comments = [
        "pegrisk run manifest; feed back via --config to reproduce",
        f"rho_effective = {fmt(stages.rho)}",
        full_fit,
        (
            f"rolling fit unavailable: {rolling}"
            if isinstance(rolling, EstimationError)
            else f"rho_rolling_mean = {fmt(rolling.rho_mean)} over {len(rolling.fits)} windows"
        ),
        f"join: matched {report.matched}, "
        f"dropped {report.dropped_spot} spot / {report.dropped_futures} futures",
        "artifacts: " + " ".join(PIPELINE_ARTIFACTS),
    ]
    return cfgmod.format_kv(entries, comments)


# artifact name -> its text, or for a CSV its table, built from the stages it needs
ARTIFACTS = {
    "aligned.csv": lambda st: st.aligned,
    "prob.csv": lambda st: st.published,
    "features.csv": lambda st: st.panel,
    "table3.txt": lambda st: econometrics.format_summary_table(st.table3),
    "table3.csv": lambda st: econometrics.summary_table_csv(st.table3),
    "table4.txt": lambda st: econometrics.format_regression_table(st.regressions),
    "table4.csv": lambda st: econometrics.regression_table_csv(st.regressions),
    "figure1.vl.json": lambda st: FIGURE1_STUB,
    "figure2.vl.json": lambda st: FIGURE2_STUB,
    "run_manifest.txt": _manifest,
}


def cmd_pipeline(stages: _Stages) -> int:
    written = stages.write(("run_manifest.txt", *PIPELINE_ARTIFACTS))  # its fits fail before prob runs
    print(f"wrote {len(written)} artifacts to {Path(stages.out)}")
    print(f"{_join_summary(stages.aligned)}; rho = {stages.rho:.4f}")
    untrimmed = stages.untrimmed
    mean_p = sum(untrimmed.p_annualized_bps.tolist()) / len(untrimmed)
    print(f"mean annualized default probability (untrimmed): {mean_p:.2f} bps over {len(untrimmed)} dates")
    return 0


def cmd_align(stages: _Stages) -> int:
    stages.write(("aligned.csv",))
    print(_join_summary(stages.aligned))
    return 0


def cmd_fit(stages: _Stages) -> int:
    full_fit, rolling, window = stages.fit, stages.rolling, stages.model["window"]
    print(f"full-sample rho = {full_fit.rho:.6f} (stderr {full_fit.stderr:.6f}, n {full_fit.n})")
    if full_fit.is_stable:
        print(f"half-life = {pegmodel.half_life(full_fit.rho):.3f} days")
    else:
        print("fit is not stable (rho outside (0, 1)); no half-life")
    if isinstance(rolling, EstimationError):
        print(f"rolling fit unavailable: {rolling}")
    else:
        print(f"rolling mean rho = {rolling.rho_mean:.6f} over {len(rolling.fits)} windows of {window} days")
    return 0


def cmd_prob(stages: _Stages) -> int:
    stages.write(("prob.csv",))
    published = stages.published
    mean_p = sum(published.p_annualized_bps.tolist()) / len(published)
    series = "trimmed" if stages.model["trim"] else "untrimmed"
    print(f"wrote {len(published)} points (rho {stages.rho:.4f}); mean {mean_p:.2f} bps annualized ({series})")
    return 0


def cmd_features(stages: _Stages) -> int:
    stages.write(("features.csv",))
    print(f"wrote {len(stages.panel)} panel rows")
    return 0


def cmd_regress(stages: _Stages) -> int:
    print(stages.write(("table4.txt", "table4.csv"), default_out=None)["table4.txt"], end="")
    return 0


def cmd_stats(stages: _Stages) -> int:
    print(stages.write(("table3.txt", "table3.csv"), default_out=None)["table3.txt"], end="")
    return 0


def cmd_simulate(stages: _Stages) -> int:
    # unlike SimConfig's 0, a default that is planted can be recovered
    config = stages.settings.build(simkit.SimConfig, p_default=0.005)

    stages.run.stage = "simulate"
    recovered = simkit.roundtrip_invert(config)
    sim = recovered.sim
    rate = sim.default_count / config.n_paths
    print(f"mc_futures = {sim.mc_futures:.8f} +- {sim.mc_stderr:.2e}")
    print(f"defaults   = {sim.default_count} / {config.n_paths} (rate {rate:.6f})")
    gap = abs(recovered.p - config.p_default)
    gap_se = gap / recovered.stderr if recovered.stderr > 0 else float("inf") if gap > 0 else 0.0
    low = recovered.p - 1.96 * recovered.stderr
    high = recovered.p + 1.96 * recovered.stderr
    print(
        f"recovered_p = {recovered.p:.8f} +- {recovered.stderr:.2e} "
        f"(planted {config.p_default}, |diff| = {gap_se:.2f} se)"
    )
    print(f"95% CI     = [{low:.8f}, {high:.8f}]")
    return 0


def cmd_fixture(stages: _Stages) -> int:
    config = stages.settings.build(simkit.FixtureConfig)
    outdir = Path(stages.settings.get("out", DEFAULT_OUT))

    stages.run.stage = "fixture"
    fixture = simkit.generate_fixture(config)

    stages.run.stage = "write"
    stages.run.write({outdir / f"{name}.csv": getattr(fixture, name) for name in ("spot", "futures", "btc")})
    annualized = pegmodel.annualize(config.p_default, config.horizon_days)
    print(
        f"wrote spot.csv futures.csv btc.csv ({config.n_days} days, seed {config.seed}); "
        f"planted p = {config.p_default} per horizon ({annualized:.2f} bps annualized)"
    )
    return 0


# add_argument keywords of every flag; the dest is the flag name with "_" for "-"
FLAGS: dict[str, dict] = {
    "config": {"help": "key=value config file; flags override it"},
    "spot": {"help": "spot OHLCV CSV"},
    "spot-venue": {},
    "futures": {"help": "futures OHLCV CSV"},
    "futures-venue": {},
    "btc": {"help": "BTC OHLCV CSV"},
    "btc-venue": {},
    "usdt-alt": {"help": "alternative USDT series for its volatility"},
    "usdt-alt-venue": {},
    "rho": {"help": "mean-reversion coefficient, or 'estimate'"},
    "horizon": {"type": int, "help": f"futures horizon in days (default {MODEL_DEFAULTS['horizon']})"},
    "recovery": {"type": float, "help": f"recovery rate in [0, 1) (default {MODEL_DEFAULTS['recovery']:g})"},
    "window": {"type": int, "help": f"rolling estimation window (default {MODEL_DEFAULTS['window']})"},
    "annualization": {"choices": pegmodel.ANNUALIZATIONS},
    "estimator": {"choices": features.ESTIMATORS, "help": "intraday volatility estimator"},
    "trim": {"action": argparse.BooleanOptionalAction, "help": "clamp negative probabilities to 0 (default on)"},
    "out": {"help": "output directory"},
    "innovation-sd": {"type": float},
    "delta0": {"type": float},
    "p-default": {"type": float},
    "seed": {"type": int},
    "n-paths": {"type": int},
    "n-days": {"type": int},
    "p-amplitude": {"type": float},
    "p-period-days": {"type": int},
    "futures-noise-sd": {"type": float},
    "intraday-range-sd": {"type": float},
}

_MARKET = "config spot spot-venue futures futures-venue"
_PANEL = _MARKET + " btc btc-venue usdt-alt usdt-alt-venue"
_MODEL = "rho horizon recovery annualization"
_SIM = "config rho horizon recovery innovation-sd delta0 p-default seed"

# subcommand -> (handler, the flags it reads, help)
COMMANDS = {
    "pipeline": (
        cmd_pipeline,
        f"{_PANEL} {_MODEL} window estimator trim out",
        "run everything and write all artifacts",
    ),
    "align": (cmd_align, f"{_MARKET} out", "align spot and futures into a daily panel"),
    "fit": (cmd_fit, "config spot spot-venue window", "estimate the mean-reversion coefficient"),
    "prob": (cmd_prob, f"{_MARKET} {_MODEL} trim out", "write the default-probability series"),
    "features": (cmd_features, f"{_PANEL} {_MODEL} estimator out", "write the regression panel"),
    "regress": (cmd_regress, f"{_PANEL} {_MODEL} estimator out", "run the panel regressions"),
    "stats": (cmd_stats, f"{_MARKET} {_MODEL} out", "summary statistics of the panel"),
    "simulate": (cmd_simulate, f"{_SIM} n-paths", "Monte Carlo check of the pricing identity"),
    "fixture": (
        cmd_fixture,
        f"{_SIM} out n-days p-amplitude p-period-days futures-noise-sd intraday-range-sd",
        "generate a synthetic dataset",
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pegrisk",
        description="Market-implied peg-break probabilities from stablecoin spot and futures prices",
    )
    sub = parser.add_subparsers(dest="command")
    for name, (func, flags, help_text) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        command.set_defaults(func=func)
        for flag in flags.split():
            command.add_argument(f"--{flag}", **FLAGS[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    run = _Run()
    try:
        return args.func(_Stages(args, run))
    except (PegRiskError, OSError) as exc:
        run.discard_written()
        message = " ".join(str(exc).split())
        print(
            f'error stage={run.stage} type={type(exc).__name__} msg="{message}"',
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
