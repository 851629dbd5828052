"""Benchmark of pegrisk, run from the root of a source checkout.

    python3 pegbench/run.py --workload paper-410 --seed 1 --seconds 20 --trace 0

Workloads (see README.md for why each exists):

  paper-410     the seven data subcommands of the CLI, each in a fresh
                process, on a 410-day dataset with 6 futures dates missing
  history-200k  ``pegrisk pipeline --rho estimate`` twice, each in a fresh
                process, on a 200,000-day dataset with 10 % of futures
                dates missing
  mc-oracle     ``simkit.roundtrip_invert`` in this process at 1M paths x
                90 days over consecutive seeds

A run sets up three times, then repeats whole rounds of its workload until
``--seconds`` have passed. Every output of every round is checked against
an independent computation (``checks``); each check is one attempted
operation. With ``--trace 0`` the program runs as a user runs it and the
end-to-end metrics are reported; with ``--trace 1`` every call runs in
this process, once plain and once with spans around the public functions
of each module (``spans``), and the per-layer metrics are reported and
written to ``.pegbench_work/<workload>-trace.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
nonzero only when the benchmark itself cannot run.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import gen
import spans
from checks import Check

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".pegbench_work"
SETUPS = 3
CALL_TIMEOUT_S = 170
CLI = "import sys; from pegrisk.cli import main; sys.exit(main())"
IMPORT_TIMER = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"


class Program:
    """pegrisk built from the checkout's ``src``, run in a fresh process or in this one."""

    def __init__(self) -> None:
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    def _python(self, args: list[str]) -> tuple[subprocess.CompletedProcess, float]:
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, *args], env=self.env, capture_output=True, text=True, timeout=CALL_TIMEOUT_S
        )
        return done, time.perf_counter() - start

    def cli(self, argv: list[str]) -> tuple[int, str, str, float]:
        done, wall = self._python(["-c", CLI, *argv])
        return done.returncode, done.stdout, done.stderr, wall

    def import_s(self, module: str) -> float:
        done, _ = self._python(["-c", IMPORT_TIMER.format(module)])
        if done.returncode != 0:
            raise RuntimeError(f"cannot import {module}: {done.stderr.strip()}")
        return float(done.stdout)

    @staticmethod
    def module(name: str):
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        return importlib.import_module(f"pegrisk.{name}")

    def cli_here(self, argv: list[str], tracer: spans.Tracer | None = None) -> tuple[int, str, str, float]:
        """``cli.main`` in this process; an uncaught error exits 1, as it would in a fresh one."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(tracer.installed())
            stack.enter_context(contextlib.redirect_stdout(out))
            stack.enter_context(contextlib.redirect_stderr(err))
            start = time.perf_counter()
            try:
                code = self.module("cli").main(argv)
            except Exception:
                traceback.print_exc()
                code = 1
            wall = time.perf_counter() - start
        return code, out.getvalue(), err.getvalue(), wall


def _guarded(name: str, check, *args) -> Check:
    """Run one check; a missing or malformed artifact fails it."""
    try:
        return check(*args)
    except (OSError, ValueError, IndexError, KeyError, AttributeError, StopIteration) as exc:
        return Check(name, False, f"unreadable output: {type(exc).__name__}: {exc}")


def _call_checks(command: str, code: int, stderr: str, named: list[tuple]) -> list[Check]:
    """The checks of one CLI call; all of them fail when the call failed."""
    if code != 0:
        reason = f"pegrisk {command} exited {code}: {stderr.strip()[-300:]}"
        return [Check(item[0], False, reason) for item in named]
    return [_guarded(*item) for item in named]


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Workload:
    """Set-up, rounds and metrics shared by the three workloads."""

    def __init__(self, program: Program, work: Path, seed: int, traced: bool) -> None:
        self.program, self.work, self.seed, self.traced = program, work, seed, traced
        self.walls: list[float] = []  # one per timed operation, untraced runs
        self.layer_rounds: list[dict[str, float]] = []
        self.calls_seen: dict[str, int] = {}
        self.last_spans: list[dict] = []
        self.probed: list[str] = []

    def _record_round(self, tracer: spans.Tracer, plain_s: float, walls: list[float], extra=None):
        """Per-layer figures of one traced round; ``walls`` time each traced top-level call."""
        for span in tracer.spans:
            self.calls_seen[span.name] = self.calls_seen.get(span.name, 0) + 1
        figures = tracer.figures()
        figures["trace.wall_s"] = sum(walls)
        figures["trace.overhead_s"] = sum(walls) - plain_s
        figures["trace.unattributed_s"] = sum(walls) - sum(s.end - s.start for s in tracer.root_spans())
        figures.update(extra or {})
        self.layer_rounds.append(figures)
        self.last_spans = tracer.span_records()

    def per_layer(self) -> dict[str, float]:
        figures = {"cli.artifact_bytes": 0, **spans.median_figures(self.layer_rounds)}
        figures["cli.import_s"] = statistics.median(self.program.import_s("pegrisk.cli") for _ in range(3))
        self.probed = [
            metric
            for metric, fns in spans.TIME_METRICS.items()
            if not any(self.calls_seen.get(fn) for fn in fns)
        ]
        if self.probed:
            probe = self._probe()
            for metric in self.probed:
                figures[metric] = probe[metric]
        return {name: figures[name] for name in PER_LAYER}

    def _probe(self) -> dict[str, float]:
        """Self times of one small pipeline and simulate call, traced.

        Used only for a time metric whose functions the workload never
        calls, so that every layer reads a measured time; the call counts
        of such a layer stay 0.
        """
        market = gen.make_market(120, 3, self.seed)
        paths = gen.write_market(market, self.work / "probe")
        tracer = spans.Tracer()
        for argv in (
            ["pipeline", "--spot", str(paths["spot"]), "--futures", str(paths["futures"]),
             "--btc", str(paths["btc"]), "--out", str(self.work / "probe" / "out")],
            ["simulate", "--n-paths", "20000", "--seed", str(self.seed)],
        ):
            code, _, err, _ = self.program.cli_here(argv, tracer)
            if code != 0:
                raise RuntimeError(f"probe call {argv[0]} failed: {err.strip()}")
        return tracer.figures()


class PaperSession(Workload):
    name = "paper-410"
    N_DAYS, N_MISSING = 410, 6

    def setup(self) -> None:
        self.market = gen.make_market(self.N_DAYS, self.N_MISSING, self.seed)
        self.paths = gen.write_market(self.market, self.work / "data")
        # a failed warm-up leaves no reference, which fails pipeline_repeatable
        self.ref = self.work / "reference"
        self.program.cli(self._argv("pipeline", self.ref))

    def _argv(self, command: str, out: Path | None) -> list[str]:
        p = {k: str(v) for k, v in self.paths.items()}
        market = ["--spot", p["spot"], "--futures", p["futures"]]
        btc = ["--btc", p["btc"]]
        argv = {
            "pipeline": market + btc,
            "align": market,
            "fit": ["--spot", p["spot"]],
            "prob": market,
            "features": market + btc,
            "regress": market + btc,
            "stats": market,
        }[command]
        return [command, *argv] + (["--out", str(out)] if out else [])

    def _session(self, out: Path, tracer: spans.Tracer | None = None) -> dict:
        """The seven calls: fresh processes, or in this process in a traced run."""
        results = {}
        for command in ("pipeline", "align", "fit", "prob", "features", "regress", "stats"):
            argv = self._argv(command, None if command == "fit" else out / command)
            if self.traced:
                results[command] = self.program.cli_here(argv, tracer)
            else:
                results[command] = self.program.cli(argv)
        return results

    def round(self, k: int) -> list[Check]:
        out = self.work / "session"
        if self.traced:
            plain = self._session(self.work / "plain")
            tracer = spans.Tracer()
            results = self._session(out, tracer)
            self._record_round(
                tracer,
                sum(r[3] for r in plain.values()),
                [r[3] for r in results.values()],
                {"cli.artifact_bytes": _dir_bytes(out)},
            )
        else:
            results = self._session(out)
            self.walls += [r[3] for r in results.values()]
        return self._checks(results, out)

    def _checks(self, results, out: Path) -> list[Check]:
        m, pipe = self.market, out / "pipeline"
        same = checks.check_same_bytes

        def rho() -> float:
            return checks.read_manifest(pipe)["rho_effective"]

        plan = {
            "pipeline": [
                ("join_counts", checks.check_join, m, pipe),
                ("prob_inversion", checks.check_prob, m, pipe),
                ("table3_mean_p", checks.check_table3, m, pipe),
                ("table4_hc0", checks.check_table4, m, pipe),
                ("pipeline_repeatable", same, "pipeline_repeatable", self.ref, pipe, checks.PIPELINE_ARTIFACTS),
            ],
            "align": [("align_bytes", same, "align_bytes", pipe, out / "align", ("aligned.csv",))],
            "fit": [("fit_rho", checks.check_fit_output, results["fit"][1])],
            "prob": [("prob_bytes", same, "prob_bytes", pipe, out / "prob", ("prob.csv",))],
            "features": [
                ("features_panel", lambda: checks.check_features(m, out / "features" / "features.csv", rho()))
            ],
            "regress": [
                ("regress_bytes", same, "regress_bytes", pipe, out / "regress", ("table4.txt", "table4.csv"))
            ],
            "stats": [("stats_bytes", same, "stats_bytes", pipe, out / "stats", ("table3.txt", "table3.csv"))],
        }
        found = []
        for command, named in plan.items():
            code, _, err, _ = results[command]
            found += _call_checks(command, code, err, named)
        return found

    def end_to_end(self) -> dict[str, float]:
        # every call of the session reads the whole dataset, so the session
        # moves the aligned days once per call
        return {
            "call_p50_s": statistics.median(self.walls),
            "items_per_s": self.market.matched_days.size * len(self.walls) / sum(self.walls),
            "peak_rss_mb": _maxrss_mb(resource.RUSAGE_CHILDREN),
        }


class LongHistory(Workload):
    name = "history-200k"
    N_DAYS, N_MISSING = 200_000, 20_000

    def setup(self) -> None:
        self.market = gen.make_market(self.N_DAYS, self.N_MISSING, self.seed)
        self.paths = gen.write_market(self.market, self.work / "data")
        self.program.import_s("pegrisk.cli")

    def _argv(self, out: Path) -> list[str]:
        p = {k: str(v) for k, v in self.paths.items()}
        return ["pipeline", "--spot", p["spot"], "--futures", p["futures"], "--btc", p["btc"],
                "--rho", "estimate", "--out", str(out)]

    def round(self, k: int) -> list[Check]:
        a, b = self.work / "a", self.work / "b"
        if self.traced:
            # the first call in a process pays for growing the heap; a third,
            # plain call after the traced one is the untraced reference
            code_a, _, err_a, _ = self.program.cli_here(self._argv(a))
            tracer = spans.Tracer()
            code_b, _, err_b, wall_b = self.program.cli_here(self._argv(b), tracer)
            _, _, _, plain = self.program.cli_here(self._argv(self.work / "c"))
            self._record_round(tracer, plain, [wall_b], {"cli.artifact_bytes": _dir_bytes(b)})
        else:
            code_a, _, err_a, wall_a = self.program.cli(self._argv(a))
            code_b, _, err_b, wall_b = self.program.cli(self._argv(b))
            self.walls += [wall_a, wall_b]
        m = self.market
        found = _call_checks(
            "pipeline",
            code_a,
            err_a,
            [
                ("join_counts", checks.check_join, m, a),
                ("prob_inversion", checks.check_prob, m, a),
                ("table3_mean_p", checks.check_table3, m, a),
                ("table4_hc0", checks.check_table4, m, a),
                (checks.GAP_FAULT, checks.check_gap_fault, a),
            ],
        )
        repeat = ("pipeline_repeatable", checks.check_same_bytes, "pipeline_repeatable", a, b,
                  checks.PIPELINE_ARTIFACTS)
        return found + _call_checks("pipeline", max(code_a, code_b), err_a + err_b, [repeat])

    def end_to_end(self) -> dict[str, float]:
        median = statistics.median(self.walls)
        return {
            "call_p50_s": median,
            "items_per_s": self.market.matched_days.size / median,
            "peak_rss_mb": _maxrss_mb(resource.RUSAGE_CHILDREN),
        }


class McOracle(Workload):
    name = "mc-oracle"
    # the criterion-2 configuration of the acceptance tests
    CONFIG = dict(rho=0.73, innovation_sd=5e-4, delta0=0.001, horizon_days=90, p_default=0.005,
                  recovery=0.0, n_paths=1_000_000)
    WARMUP_PATHS = 100_000
    SEEDS_PER_BENCH_SEED = 1000  # round k of --seed s uses seed s * 1000 + k

    def setup(self) -> None:
        self.program.import_s("pegrisk.simkit")
        simkit = self.program.module("simkit")
        warm = dict(self.CONFIG, n_paths=self.WARMUP_PATHS)
        simkit.roundtrip_invert(simkit.SimConfig(**warm, seed=self.seed))

    def _roundtrip(self, seed: int, tracer: spans.Tracer | None):
        simkit = self.program.module("simkit")
        config = simkit.SimConfig(**self.CONFIG, seed=seed)
        with tracer.installed() if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            result = simkit.roundtrip_invert(config)
            wall = time.perf_counter() - start
        return result, wall

    def round(self, k: int) -> list[Check]:
        seed = self.seed * self.SEEDS_PER_BENCH_SEED + k
        try:
            if self.traced:
                _, plain = self._roundtrip(seed, None)
                tracer = spans.Tracer()
                result, wall = self._roundtrip(seed, tracer)
                self._record_round(tracer, plain, [wall])
            else:
                result, wall = self._roundtrip(seed, None)
                self.walls.append(wall)
        except Exception as exc:  # a program error fails this round's checks, as a CLI exit code would
            reason = f"roundtrip_invert raised {type(exc).__name__}: {exc}"
            return [Check(name, False, reason) for name in checks.MC_CHECKS]
        c = self.CONFIG
        sim = result.sim
        return checks.check_mc(
            c["rho"], c["horizon_days"], c["delta0"], c["innovation_sd"], c["p_default"], c["recovery"],
            c["n_paths"], result.p, result.stderr, sim.mc_futures, sim.mc_stderr, sim.default_count,
        )

    def end_to_end(self) -> dict[str, float]:
        median = statistics.median(self.walls)
        steps = self.CONFIG["n_paths"] * self.CONFIG["horizon_days"]
        return {
            "call_p50_s": median,
            "items_per_s": steps / median,
            "peak_rss_mb": _maxrss_mb(resource.RUSAGE_SELF),
        }


WORKLOADS = {w.name: w for w in (PaperSession, LongHistory, McOracle)}
# items are aligned days on the pipeline workloads and path-steps on mc-oracle
END_TO_END = {"setup_s": "s", "call_p50_s": "s", "items_per_s": "items/s", "peak_rss_mb": "MB"}
PER_LAYER = (
    ("cli.import_s", "cli.self_s", "cli.artifact_bytes")
    + tuple(m for m in spans.TIME_METRICS if m != "cli.self_s")
    + spans.COUNT_METRICS
    + ("trace.wall_s", "trace.overhead_s", "trace.unattributed_s")
)


def _maxrss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if not (SRC / "pegrisk" / "cli.py").is_file():
        print(f"pegbench: no pegrisk source under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](Program(), work, args.seed, bool(args.trace))

    setup_times = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)

    found: list[Check] = []
    rounds = 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < args.seconds:
        found += workload.round(rounds)
        rounds += 1

    if args.trace:
        metrics = {name: (value, _unit(name)) for name, value in workload.per_layer().items()}
        trace_file = WORK / f"{args.workload}-trace.json"
        trace_file.write_text(
            json.dumps(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "rounds": rounds,
                    "per_layer": {k: v for k, (v, _) in metrics.items()},
                    "probed": workload.probed,
                    "last_round_spans": workload.last_spans,
                },
                indent=1,
            )
            + "\n"
        )
    else:
        values = {"setup_s": statistics.median(setup_times), **workload.end_to_end()}
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    shutil.rmtree(work, ignore_errors=True)

    failed = [c for c in found if not c.ok]
    print(f"pegbench workload={args.workload} seed={args.seed} trace={args.trace} rounds={rounds}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"attempted {len(found)} failed {len(failed)}")
    by_name: dict[str, list[Check]] = {}
    for check in failed:
        by_name.setdefault(check.name, []).append(check)
    for name, group in by_name.items():
        label = " (known fault: AR(1) fit steps across calendar gaps)" if group[0].known_fault else ""
        print(f"FAILED {name}{label} in {len(group)} of {rounds} rounds: {group[0].reason}")
    result = {
        "correct": all(c.ok or c.known_fault for c in found),
        "attempted": len(found),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
