"""Command-line driver: align, estimate, invert, regress, simulate.

Every parameter can come from a ``key=value`` config file (``--config``); a
flag wins over its config line. ``pipeline`` writes its artifacts and a run
manifest, settings as key=value lines and provenance as ``#`` comments, so

    pegrisk pipeline --config run_manifest.txt --out elsewhere

reproduces a run exactly. A config file is UTF-8 text, with or without a
byte-order mark; its lines end at a line feed, a carriage return or both, and
at no other character. Blank lines and ``#`` comments are ignored, a value is
what follows the first ``=``, stripped of white space, and each key may appear
once and must be one that a command reads.

A command is one ``_Stages``: its settings (stage ``config``), then each stage
it reads, run once. An error exits nonzero with one line on stderr (``error
stage=... type=... msg="..."``) that names the innermost stage running, or the
last that ran, and removes what was written, also on SIGTERM (exit 143) and
SIGINT (130); a warning prints one ``warning stage=...`` line. Inputs are
parsed first, in role order, and CSV tables written before text, the run
manifest last. Both go through one rule (``_each``): on two or more CPUs, two
or more files of ``_PARALLEL_BYTES`` or more in all are parsed, or written, by
forked workers, one per file. So a long ``pipeline`` writes ``aligned.csv`` and
``prob.csv`` side by side, and a command that writes one table writes it in its
own process. Bytes and errors are those of the serial path.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import signal
import sys
import threading
import warnings
from functools import cached_property, wraps
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from .errors import DomainError, EstimationError, PegRiskError, SchemaError, ValidationError

if TYPE_CHECKING:  # a command imports the library modules its _COMMANDS entry names, and no other
    from . import econometrics, features, marketdata, pegmodel, simkit

_FIGURE1_STUB = """\
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

_FIGURE2_STUB = """\
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

_BOOLEANS = dict.fromkeys(("1", "true", "yes", "on"), True) | dict.fromkeys(("0", "false", "no", "off"), False)

# model setting -> its default, in the manifest's order after pegmodel.DEFAULTS (rho, horizon, recovery)
_MODEL_DEFAULTS = {"window": 60, "estimator": "parkinson", "annualization": "linear", "trim": True}

_PARALLEL_BYTES = 8 << 20  # input files, or CSV tables, this large in all are handled by forked workers


def _cast(key: str, raw: str | bool, source: str):
    """A setting's value from the flag or config file ``source``, cast and checked by its ``_FLAGS`` entry."""
    spec = _spec(key.replace("_", "-"))
    raw = raw.strip() if isinstance(raw, str) else raw  # a flag's value is stripped, as a config line's is
    if raw == "" and key != "usdt_alt":  # an empty usdt_alt names no input
        raise SchemaError(f"empty value for {key!r} (from {source})")
    if spec.get("action") is argparse.BooleanOptionalAction:
        word = str(raw).lower()  # a word from config; True or False from --trim and --no-trim
        if word not in _BOOLEANS:
            raise SchemaError(f"expected a boolean for {key!r}, got {raw!r}")
        return _BOOLEANS[word]
    try:
        value = spec.get("type", str)(raw)
        if value not in spec.get("choices", (value,)):
            raise ValueError(f"expected one of {', '.join(spec['choices'])}")
    except ValueError as exc:
        raise SchemaError(f"bad value for {key!r}: {raw!r} ({exc})") from exc
    return value


def _spec(flag: str) -> dict:
    """A flag's ``_FLAGS`` keywords; a help or choices owned by a library module is a function there, called here."""
    spec = _FLAGS.get(flag, {})
    return {key: value() if key in ("help", "choices") and callable(value) else value for key, value in spec.items()}


def _rho(text: str) -> str:
    """A rho as given, a number or 'estimate', kept as text so that the manifest repeats it."""
    if text != "estimate":
        float(text)
    return text


def _not_utf8(path: str | Path, exc: UnicodeDecodeError) -> ValidationError:
    return ValidationError(f"{path}: not UTF-8 text ({exc.reason}, byte {exc.object[exc.start]:#x})")


def _load_config(path: str | Path, keys: set[str]) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None
    out: dict[str, str] = {}
    # read_text turns \r\n and \r into \n; splitlines() would also end a line at \x0c, \x1c or \x85
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SchemaError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise SchemaError(f"config line {lineno}: empty key")
        if key not in keys:
            raise SchemaError(f"config line {lineno}: no command reads the key {key!r}")
        if key in out:
            raise SchemaError(f"config line {lineno}: repeated key {key!r}")
        out[key] = value.strip()
    return out


def _parse_file(path: str, schema: dict[str, str], venue: str) -> marketdata.BarSeries:
    """The bars of one input file; module-level so that a worker process can be sent it."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as stream:
            return marketdata.parse_bars(stream, schema=schema, venue=venue)
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None
    except PegRiskError as exc:  # name the input at fault, of up to four
        raise type(exc)(f"{path}: {exc}") from None


def _write_table(path: Path, table: marketdata.Table) -> None:
    """Write one table as a CSV artifact; module-level so that a worker process can be sent it."""
    with path.open("w", encoding="utf-8") as stream:
        marketdata.write_table_csv(table, stream)


def _each(func: Callable, jobs: list[tuple], size: int) -> list:
    """``func(*args)`` of each ``(name, args)`` job, in job order; the jobs' files come to ``size`` bytes.

    Two or more jobs of ``_PARALLEL_BYTES`` or more, on two or more CPUs, run side by side in forked workers, one
    per job; others in this process. Either way the first failed job, in job order, raises its own error, or a
    ``ChildProcessError`` naming it if its worker died.
    """
    if size < _PARALLEL_BYTES or len(jobs) < 2 or marketdata._cpu_count() < 2:
        return [func(*args) for _, args in jobs]
    return _in_workers(func, jobs)


def _in_workers(func: Callable, jobs: list[tuple]) -> list:
    """The forked half of ``_each``: each job runs in its own worker process, and all are joined on return."""
    # imported here, not at the top: concurrent.futures loads logging, which would slow every command's start
    import multiprocessing
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

    results = []
    # forked workers keep this process's imports, not its signal handling; leaving the block joins them, come what may
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(len(jobs), fork, _worker_signals) as pool:
        try:
            for result in pool.map(func, *zip(*(args for _, args in jobs))):  # raises a failed job's own error
                results.append(result)
        except BrokenExecutor:  # a worker died, as by a signal, before this job had its result
            raise ChildProcessError(f"the worker process for {jobs[len(results)][0]} ended without a result") from None
    return results


def _worker_signals() -> None:
    """A forked worker ends on SIGTERM, and leaves the SIGINT of a Ctrl-C to the process group to its command."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _stage(name: str) -> Callable[[Callable], cached_property]:
    """A ``_Stages`` property, run once when first read, that sets ``stage`` to ``name`` while it runs.

    A stage that reads it gets its own name back on return; between stages ``stage`` keeps the last one's name.
    """

    def decorate(build: Callable) -> cached_property:
        def run(self: _Stages):
            outer, self.stage, self._running = self._running, name, name
            try:
                value = build(self)
            finally:
                self._running = outer
            self.stage = outer or name
            return value

        return cached_property(wraps(build)(run))

    return decorate


class _Stages:
    """One command: its settings, its stages, the stage running (``stage``) and the files written, for cleanup.

    Its stages (``_stage``) are config, then the paper's chain (parse, align, fit, prob, features, regress, stats)
    or simulate's or fixture's own.
    """

    def __init__(self, args: argparse.Namespace) -> None:
        self.args, self.stage, self._running, self.written = args, "config", None, []

    @_stage("config")
    def settings(self) -> dict:
        """Each setting the command reads: the flag given, else the config value, else its default.

        It reads its flags but --config, with "_" for "-", and the column names, each value given through ``_cast``
        in that order; no flag has a default, so ``vars(args)`` holds the flags given. Each input it reads but
        usdt_alt must be given, as must the input of a venue, and a data command's window, horizon, recovery and
        numeric rho pass pegmodel's checks here, before any input is parsed.
        """
        given, columns = vars(self.args), [f"col_{role}" for role in marketdata.ROLES]
        # a config file may set any flag but --config, and the column names, whichever command reads it
        allowed = {flag.replace("-", "_") for flag in _FLAGS if flag != "config"} | set(columns)
        raw = _load_config(_cast("config", given["config"], "--config"), allowed) if "config" in given else {}
        reads = [flag.replace("-", "_") for flag in _COMMANDS[given["command"]][2].split() if flag != "config"]
        settings = {key: value for key, value in _MODEL_DEFAULTS.items() if key in reads}
        if "horizon" in reads:  # as do rho and recovery, whose defaults, and horizon's, are pegmodel's
            settings |= pegmodel.DEFAULTS | {"rho": str(pegmodel.DEFAULTS["rho"])}  # rho as text, as a flag gives it
        values = raw | given  # a flag wins over its config line
        sources = {key: given["config"] for key in raw} | {key: f"--{key.replace('_', '-')}" for key in given}
        settings |= {key: _cast(key, values[key], sources[key]) for key in reads + columns if key in values}
        for role in ("spot", "futures", "btc"):
            if role in reads and role not in settings:
                raise SchemaError(f"missing required input {role!r} (flag --{role} or config)")
        if settings.get("usdt_alt") == "":  # names no input, as if not given
            del settings["usdt_alt"]
        if "usdt_alt_venue" in settings and "usdt_alt" not in settings:
            raise SchemaError("'usdt_alt_venue' is set, but its input 'usdt_alt' is not given")
        if "window" in settings:
            pegmodel.check_window(settings["window"])
        if {"spot", "horizon"} <= settings.keys():  # simulate's and fixture's are checked by their config class
            rho = 0.0 if settings["rho"] == "estimate" else float(settings["rho"])  # a fitted rho is checked at prob
            pegmodel.check_inversion_domain(rho, settings["horizon"], settings["recovery"])
        return settings

    @_stage("parse")
    def bars(self) -> dict[str, marketdata.BarSeries]:
        """Each input's bars, parsed in role order, or side by side if the inputs are large (``_each``)."""
        settings = self.settings
        paths = {role: settings[role] for role in ("spot", "futures", "btc", "usdt_alt") if role in settings}
        schema = {role: settings[f"col_{role}"] for role in marketdata.ROLES if f"col_{role}" in settings}
        jobs = [(path, (path, schema, settings.get(f"{role}_venue", "unspecified"))) for role, path in paths.items()]
        try:
            size = sum(Path(path).stat().st_size for path in paths.values())
        except OSError:  # the parse of that file, in this process, raises it
            size = 0
        return dict(zip(paths, _each(_parse_file, jobs, size)))

    @_stage("align")
    def aligned(self) -> marketdata.AlignedSeries:
        return marketdata.align_daily(self.bars["spot"], self.bars["futures"])

    @_stage("fit")
    def fit(self) -> pegmodel.Ar1Fit:
        spot = self.bars["spot"]
        return pegmodel.fit_ar1(spot.date, spot.close - 1.0)

    @_stage("fit")
    def rolling(self) -> pegmodel.RollingAr1:
        spot = self.bars["spot"]
        return pegmodel.fit_ar1_rolling(spot.date, spot.close - 1.0, self.settings["window"])

    @_stage("fit")
    def rho(self) -> float:
        """The rho of the inversion: the number given, or under 'estimate' that of the full-sample fit."""
        return self.fit.rho if self.settings["rho"] == "estimate" else float(self.settings["rho"])

    @_stage("prob")
    def untrimmed(self) -> pegmodel.ProbSeries:
        """Raw inversions: they feed the statistics and the regressions."""
        settings = self.settings
        horizon, recovery, method = settings["horizon"], settings["recovery"], settings["annualization"]
        return pegmodel.prob_series(self.aligned, self.rho, horizon, recovery, method=method)

    @_stage("prob")
    def published(self) -> pegmodel.ProbSeries:
        return pegmodel.trim_negative(self.untrimmed) if self.settings["trim"] else self.untrimmed

    @_stage("features")
    def panel(self) -> features.Panel:
        bars = self.bars
        usdt = bars.get("usdt_alt", bars["spot"])  # without an alternative USDT series, spot supplies its volatility
        return features.build_feature_panel(self.untrimmed, bars["btc"], usdt, self.settings["estimator"])

    @_stage("regress")
    def regressions(self) -> dict[str, econometrics.RegressionResult]:
        return econometrics.run_panel_regressions(self.panel)

    @_stage("stats")
    def table3(self) -> list[econometrics.SummaryRow]:
        aligned, untrimmed = self.aligned, self.untrimmed
        return [
            econometrics.summary_stats("s", aligned.s),
            econometrics.summary_stats("f", aligned.f),
            econometrics.summary_stats("f_minus_s_bps", aligned.basis_bps),
            econometrics.summary_stats("p_annualized_bps", untrimmed.p_annualized_bps),
        ]

    @_stage("config")
    def sim(self) -> simkit.SimConfig | simkit.FixtureConfig:
        """simulate's ``SimConfig`` or fixture's ``FixtureConfig``, from the settings its fields name."""
        cls = simkit.SimConfig if self.args.command == "simulate" else simkit.FixtureConfig
        named = {"horizon_days" if key == "horizon" else key: value for key, value in self.settings.items()}
        values = {field.name: named[field.name] for field in dataclasses.fields(cls) if field.name in named}
        if values["rho"] == "estimate":  # a data command's rho: there is no series here to fit
            raise SchemaError("bad value for 'rho': 'estimate' (simulate and fixture take a number)")
        values["rho"] = float(values["rho"])
        return cls(**values)

    @_stage("simulate")
    def recovered(self) -> simkit.RecoveredProb:
        return simkit.roundtrip_invert(self.sim)

    @_stage("fixture")
    def fixture(self) -> simkit.FixtureSet:
        return simkit.generate_fixture(self.sim)

    def write(self, names: tuple[str, ...], default_out: str | None = "out") -> dict:
        """Build the named artifacts in ``_ARTIFACTS`` order, then write them, if an output directory is set, as named.

        The tables go first, as CSV through ``_each``, sized at about 16 bytes a cell, then each text file in order.
        Returns each artifact's content: its text, or for a CSV its table. ``self.out`` is the directory, or None.
        """
        contents = {name: build(self) for name, build in _ARTIFACTS.items() if name in names}
        self.out = self.settings.get("out", default_out)
        if self.out is not None:
            self.stage = "write"
            files = {Path(self.out) / name: contents[name] for name in names}
            tables = [(path, (path, content)) for path, content in files.items() if not isinstance(content, str)]
            Path(self.out).mkdir(parents=True, exist_ok=True)
            if "run_manifest.txt" in names:  # until the new one is written last, no manifest claims a whole run
                (Path(self.out) / "run_manifest.txt").unlink(missing_ok=True)
            self.written += [path for path, _ in tables]
            _each(_write_table, tables, sum(len(table) * len(table.HEADER) * 16 for _, (_, table) in tables))
            for path, content in files.items():
                if isinstance(content, str):
                    self.written.append(path)
                    path.write_text(content, encoding="utf-8")
        return contents

    def report(self, kind: str, name: str, message) -> None:
        """Print one ``<kind> stage=... type=<name> msg="..."`` line on stderr."""
        message = " ".join(str(message).split())
        print(f'{kind} stage={self.stage} type={name} msg="{message}"', file=sys.stderr)

    def discard_written(self) -> None:
        for path in self.written:
            try:
                path.unlink()
            except OSError:
                pass


_PIPELINE_ARTIFACTS = (
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
    return f"aligned {report.matched} dates (dropped {report.dropped_spot} spot, {report.dropped_futures} futures)"


def _manifest(stages: _Stages) -> str:
    fmt = marketdata.fmt_float
    try:
        rolling_fit = f"rho_rolling_mean = {fmt(stages.rolling.rho_mean)} over {len(stages.rolling.fits)} windows"
    except EstimationError as exc:  # bad data is reported; the window was checked at config
        rolling_fit = f"rolling fit unavailable: {exc}"
    try:
        full_fit = f"rho_full_sample = {fmt(stages.fit.rho)} (stderr {fmt(stages.fit.stderr)})"
    except EstimationError as exc:  # a fixed rho goes on without it; under 'estimate', stages.rho below raises it
        full_fit = f"full-sample fit unavailable: {exc}"
    entries, settings = {role: stages.settings[role] for role in stages.bars}, stages.settings
    venues = [flag.replace("-", "_") for flag in _FLAGS if flag.endswith("-venue")]
    for key in [f"col_{role}" for role in marketdata.ROLES] + venues + [*pegmodel.DEFAULTS, *_MODEL_DEFAULTS]:
        value = settings.get(key)
        if isinstance(value, bool):
            value = "true" if value else "false"
        if value is not None:
            entries[key] = fmt(value) if isinstance(value, float) else str(value)
    report = stages.aligned.join_report
    comments = [
        "pegrisk run manifest; feed back via --config to reproduce",
        f"rho_effective = {fmt(stages.rho)}",
        full_fit,
        rolling_fit,
        f"join: matched {report.matched}, "
        f"dropped {report.dropped_spot} spot / {report.dropped_futures} futures",
        "artifacts: " + " ".join(_PIPELINE_ARTIFACTS),
    ]
    lines = [f"# {comment}" for comment in comments] + [f"{key} = {value}" for key, value in entries.items()]
    return "\n".join(lines) + "\n"


# artifact name -> its text, or for a CSV its table, built from the stages it needs, in this order:
# the manifest first, so that a fit that fails under 'estimate' fails before prob runs
_ARTIFACTS = {
    "run_manifest.txt": _manifest,
    "aligned.csv": lambda st: st.aligned,
    "prob.csv": lambda st: st.published,
    "features.csv": lambda st: st.panel,
    "table3.txt": lambda st: econometrics.format_summary_table(st.table3),
    "table3.csv": lambda st: econometrics.summary_table_csv(st.table3),
    "table4.txt": lambda st: econometrics.format_regression_table(st.regressions),
    "table4.csv": lambda st: econometrics.regression_table_csv(st.regressions),
    "figure1.vl.json": lambda st: _FIGURE1_STUB,
    "figure2.vl.json": lambda st: _FIGURE2_STUB,
    "spot.csv": lambda st: st.fixture.spot,
    "futures.csv": lambda st: st.fixture.futures,
    "btc.csv": lambda st: st.fixture.btc,
}


def _cmd_pipeline(stages: _Stages) -> None:
    written = stages.write((*_PIPELINE_ARTIFACTS, "run_manifest.txt"))  # the manifest, written last, marks a whole run
    print(f"wrote {len(written)} artifacts to {Path(stages.out)}")
    print(f"{_join_summary(stages.aligned)}; rho = {stages.rho:.4f}")
    untrimmed = stages.untrimmed
    mean_p = sum(untrimmed.p_annualized_bps.tolist()) / len(untrimmed)
    print(f"mean annualized default probability (untrimmed): {mean_p:.2f} bps over {len(untrimmed)} dates")


def _cmd_align(stages: _Stages) -> None:
    stages.write(("aligned.csv",))
    print(_join_summary(stages.aligned))


def _cmd_fit(stages: _Stages) -> None:
    full_fit, window = stages.fit, stages.settings["window"]
    try:
        rolling = stages.rolling
        rolling_fit = f"rolling mean rho = {rolling.rho_mean:.6f} over {len(rolling.fits)} windows of {window} days"
    except EstimationError as exc:
        rolling_fit = f"rolling fit unavailable: {exc}"
    print(f"full-sample rho = {full_fit.rho:.6f} (stderr {full_fit.stderr:.6f}, n {full_fit.n})")
    try:
        print(f"half-life = {pegmodel.half_life(full_fit.rho):.3f} days")
    except DomainError:
        print("fit is not stable (rho outside (0, 1)); no half-life")
    print(rolling_fit)


def _cmd_prob(stages: _Stages) -> None:
    stages.write(("prob.csv",))
    published = stages.published
    mean_p = sum(published.p_annualized_bps.tolist()) / len(published)
    series = "trimmed" if stages.settings["trim"] else "untrimmed"
    print(f"wrote {len(published)} points (rho {stages.rho:.4f}); mean {mean_p:.2f} bps annualized ({series})")


def _cmd_features(stages: _Stages) -> None:
    stages.write(("features.csv",))
    print(f"wrote {len(stages.panel)} panel rows")


def _cmd_regress(stages: _Stages) -> None:
    print(stages.write(("table4.txt", "table4.csv"), default_out=None)["table4.txt"], end="")


def _cmd_stats(stages: _Stages) -> None:
    print(stages.write(("table3.txt", "table3.csv"), default_out=None)["table3.txt"], end="")


def _cmd_simulate(stages: _Stages) -> None:
    config, recovered = stages.sim, stages.recovered
    sim = recovered.sim
    rate = sim.default_count / config.n_paths
    print(f"mc_futures = {sim.mc_futures:.8f} +- {sim.mc_stderr:.2e}")
    print(f"defaults   = {sim.default_count} / {config.n_paths} (rate {rate:.6f})")
    gap = abs(recovered.p - config.p_default)
    gap_se = gap / recovered.stderr if recovered.stderr > 0 else float("inf") if gap > 0 else 0.0
    print(
        f"recovered_p = {recovered.p:.8f} +- {recovered.stderr:.2e} "
        f"(planted {config.p_default}, |diff| = {gap_se:.2f} se)"
    )
    print(f"95% CI     = [{recovered.p - 1.96 * recovered.stderr:.8f}, {recovered.p + 1.96 * recovered.stderr:.8f}]")


def _cmd_fixture(stages: _Stages) -> None:
    stages.write(("spot.csv", "futures.csv", "btc.csv"))
    config = stages.sim
    annualized = pegmodel.annualize(config.p_default, config.horizon_days)
    print(
        f"wrote spot.csv futures.csv btc.csv ({config.n_days} days, seed {config.seed}); "
        f"planted p = {config.p_default} per horizon ({annualized:.2f} bps annualized)"
    )


# add_argument keywords of every flag, whose dest is its name with "_" for "-"; its type and choices are _cast's alone
_FLAGS: dict[str, dict] = {
    "config": {"help": "key=value config file; flags override it"},
    "spot": {"help": "spot OHLCV CSV"},
    "spot-venue": {},
    "futures": {"help": "futures OHLCV CSV"},
    "futures-venue": {},
    "btc": {"help": "BTC OHLCV CSV"},
    "btc-venue": {},
    "usdt-alt": {"help": "alternative USDT series for its volatility"},
    "usdt-alt-venue": {},
    "rho": {"type": _rho, "help": "mean-reversion coefficient, or 'estimate'"},
    "horizon": {"type": int, "help": lambda: f"futures horizon in days (default {pegmodel.DEFAULTS['horizon']})"},
    "recovery": {"type": float, "help": lambda: f"recovery rate in [0, 1) (default {pegmodel.DEFAULTS['recovery']:g})"},
    "window": {"type": int, "help": f"rolling estimation window (default {_MODEL_DEFAULTS['window']})"},
    "annualization": {"choices": lambda: pegmodel.ANNUALIZATIONS},
    "estimator": {"choices": lambda: features.ESTIMATORS, "help": "intraday volatility estimator"},
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
_SIM = "config rho innovation-sd delta0 horizon p-default recovery seed"
# library modules: every command reads its settings through marketdata, and all but align the model
_LOADS = "marketdata pegmodel"
_TABLES = _LOADS + " features econometrics"

# subcommand -> (handler, the library modules it imports, the flags it reads, help)
_COMMANDS = {
    "pipeline": (
        _cmd_pipeline,
        _TABLES,
        f"{_PANEL} {_MODEL} window estimator trim out",
        "run everything and write all artifacts",
    ),
    "align": (_cmd_align, "marketdata", f"{_MARKET} out", "align spot and futures into a daily panel"),
    "fit": (_cmd_fit, _LOADS, "config spot spot-venue window", "estimate the mean-reversion coefficient"),
    "prob": (_cmd_prob, _LOADS, f"{_MARKET} {_MODEL} trim out", "write the default-probability series"),
    "features": (_cmd_features, f"{_LOADS} features", f"{_PANEL} {_MODEL} estimator out", "write the regression panel"),
    "regress": (_cmd_regress, _TABLES, f"{_PANEL} {_MODEL} estimator out", "run the panel regressions"),
    "stats": (_cmd_stats, f"{_LOADS} econometrics", f"{_MARKET} {_MODEL} out", "summary statistics of the panel"),
    "simulate": (_cmd_simulate, f"{_LOADS} simkit", f"{_SIM} n-paths", "Monte Carlo check of the pricing identity"),
    "fixture": (
        _cmd_fixture,
        f"{_LOADS} simkit",
        f"{_SIM} out n-days p-amplitude p-period-days futures-noise-sd intraday-range-sd",
        "generate a synthetic dataset",
    ),
}


def _build_parser(invoked: str | None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pegrisk",
        description="Market-implied peg-break probabilities from stablecoin spot and futures prices",
    )
    sub = parser.add_subparsers(dest="command")
    for name, (func, _, flags, help_text) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        command.set_defaults(func=func)
        for flag in flags.split() if name == invoked else ():  # no other subcommand's flags are read
            spec = {key: value for key, value in _spec(flag).items() if key != "type"}
            choices = spec.pop("choices", None)
            command.add_argument(f"--{flag}", **spec, metavar="{%s}" % ",".join(choices) if choices else None)
    return parser


class Terminated(BaseException):
    """SIGTERM, raised where the main thread is, so that the command ends through the error path."""


def _terminate(signum, frame) -> None:
    raise Terminated("received SIGTERM")


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code; ``main(argv)`` leaves the garbage collector as it found it.

    ``main()`` runs this process's one command, as a program does, with the cyclic collector off, and freezes it on
    return: the process ends next, and the interpreter's exit then walks none of the objects the command loaded.
    """
    if argv is None:
        gc.disable()
        try:
            return main(sys.argv[1:])
        finally:
            gc.freeze()
    command = next((arg for arg in argv if not arg.startswith("-")), None)  # the subcommand, if argparse finds one
    for module in _COMMANDS[command][1].split() if command in _COMMANDS else ():
        globals()[module] = importlib.import_module(f".{module}", __package__)  # as if imported at the top
    parser = _build_parser(command)
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    stages = _Stages(args)
    in_main = threading.current_thread() is threading.main_thread()  # the one thread that may take signals
    previous = signal.signal(signal.SIGTERM, _terminate) if in_main else None
    try:
        with warnings.catch_warnings():  # each warning prints one line; under -W error it raises as an error does
            warnings.showwarning = lambda message, category, *_: stages.report("warning", category.__name__, message)
            args.func(stages)
            return 0
    except (PegRiskError, OSError, Warning, KeyboardInterrupt, Terminated) as exc:
        stages.discard_written()
        interrupted = isinstance(exc, KeyboardInterrupt)
        stages.report("error", type(exc).__name__, "received SIGINT" if interrupted else exc)
        return 130 if interrupted else 143 if isinstance(exc, Terminated) else 1
    finally:
        if in_main:
            signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
