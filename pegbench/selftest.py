"""Self-test of the benchmark's checks: each must pass the program's real
output and reject a deliberately perturbed copy of it.

    python3 pegbench/selftest.py

Run from the root of a checkout; it writes only under ``.pegbench_work``.
It also checks that ``BENCHMARK.json`` names exactly the metrics that
``run.py`` prints. Exit code 0 when every expectation holds.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import sys

import checks
import gen
import oracle
import run

FAILURES: list[str] = []


def expect(label: str, check: checks.Check, ok: bool) -> None:
    good = check.ok == ok
    verdict = "passes" if check.ok else f"rejects ({check.reason})"
    print(f"{'ok  ' if good else 'FAIL'} {check.name}: {label}: {verdict}")
    if not good:
        FAILURES.append(f"{check.name}: {label}")


def perturbed(src, name: str, file: str, edit):
    """Copy of output directory ``src`` with ``edit`` applied to one file's text."""
    dst = src.parent / name
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst)
    path = dst / file
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
    return dst


def edit_cell(row: int, col: int, change):
    """Edit one CSV cell (row 1 is the first data row) through ``change(text)``."""

    def apply(text: str) -> str:
        lines = text.splitlines()
        cells = lines[row].split(",")
        cells[col] = change(cells[col])
        lines[row] = ",".join(cells)
        return "\n".join(lines) + "\n"

    return apply


def scaled(factor: float):
    return lambda cell: repr(float(cell) * factor)


def pipeline_checks(program: run.Program, work) -> None:
    market = gen.make_market(410, 6, seed=7)
    paths = gen.write_market(market, work / "data")
    argv = ["--spot", str(paths["spot"]), "--futures", str(paths["futures"])]
    out = work / "real"
    for command in (["pipeline", *argv, "--btc", str(paths["btc"]), "--out", str(out)],
                    ["features", *argv, "--btc", str(paths["btc"]), "--out", str(out)]):
        code, _, err, _ = program.cli(command)
        if code != 0:
            raise RuntimeError(f"pegrisk {command[0]} failed: {err}")
    _, fit_out, _, _ = program.cli(["fit", "--spot", str(paths["spot"])])
    rho = checks.read_manifest(out)["rho_effective"]

    expect("real output", checks.check_join(market, out), True)
    expect("matched count one short", checks.check_join(
        market, perturbed(out, "join", "run_manifest.txt", lambda t: t.replace("# join: matched 404", "# join: matched 403"))
    ), False)
    expect("one aligned date dropped", checks.check_join(
        market, perturbed(out, "aligned", "aligned.csv", lambda t: "\n".join(t.splitlines()[:-1]) + "\n")
    ), False)

    expect("real output", checks.check_prob(market, out), True)
    expect("one p off by 1e-11", checks.check_prob(
        market, perturbed(out, "prob", "prob.csv", edit_cell(5, 1, lambda c: repr(float(c) + 1e-11)))
    ), False)

    expect("real output", checks.check_table3(market, out), True)
    expect("mean p 1e-6 relative high", checks.check_table3(
        market, perturbed(out, "t3", "table3.csv", edit_cell(4, 2, scaled(1 + 1e-6)))
    ), False)
    # futures 1e-4 low raise every p by 1e-4 per horizon, about ten standard
    # errors of the mean at 404 dates: the mean still matches the inversion
    # of those inputs, but no longer the planted 30 bps
    f = market.futures
    shifted = dataclasses.replace(market, futures=dataclasses.replace(
        f, open=f.open - 1e-4, high=f.high - 1e-4, low=f.low - 1e-4, close=f.close - 1e-4
    ))
    shifted_paths = gen.write_market(shifted, work / "shifted")
    code, _, err, _ = program.cli(["pipeline", "--spot", str(shifted_paths["spot"]), "--futures",
                                   str(shifted_paths["futures"]), "--btc", str(shifted_paths["btc"]),
                                   "--out", str(work / "shifted_out")])
    if code != 0:
        raise RuntimeError(f"pegrisk pipeline failed on shifted futures: {err}")
    expect("futures 1e-4 below the planted price", checks.check_table3(shifted, work / "shifted_out"), False)

    expect("real output", checks.check_table4(market, out), True)
    expect("one coefficient 1e-7 relative high", checks.check_table4(
        market, perturbed(out, "t4c", "table4.csv", edit_cell(8, 2, scaled(1 + 1e-7)))
    ), False)
    expect("one HC0 error 1e-7 relative high", checks.check_table4(
        market, perturbed(out, "t4s", "table4.csv", edit_cell(2, 3, scaled(1 + 1e-7)))
    ), False)

    features = out / "features.csv"
    expect("real output", checks.check_features(market, features, rho), True)
    expect("one sigma 1e-10 relative high", checks.check_features(
        market, perturbed(out, "feat", "features.csv", edit_cell(9, 2, scaled(1 + 1e-10))) / "features.csv", rho
    ), False)

    expect("real output", checks.check_fit_output(fit_out), True)
    expect("rho 5 SE low", checks.check_fit_output("full-sample rho = 0.560000 (stderr 0.034000, n 410)"), False)

    # 6 of 410 dates missing bias the full-sample rho by well under 1 SE
    expect("real output with few gaps", checks.check_gap_fault(out), True)
    expect("rho 6 SE low", checks.check_gap_fault(perturbed(
        out, "gap", "run_manifest.txt",
        lambda t: t.replace("# rho_full_sample = ", "# rho_full_sample = 0.63 (stderr 0.0166)\n# was ")
    )), False)

    expect("same output twice", checks.check_same_bytes("pipeline_repeatable", out, out, checks.PIPELINE_ARTIFACTS), True)
    expect("one byte changed", checks.check_same_bytes(
        "pipeline_repeatable", out,
        perturbed(out, "bytes", "figure2.vl.json", lambda t: t.replace("line", "area")),
        checks.PIPELINE_ARTIFACTS,
    ), False)


def mc_checks(program: run.Program) -> None:
    simkit = program.module("simkit")
    c = dict(run.McOracle.CONFIG, n_paths=200_000)
    result = simkit.roundtrip_invert(simkit.SimConfig(**c, seed=3))
    sim = result.sim
    mean, var = oracle.mc_moments(c["rho"], c["horizon_days"], c["delta0"], c["innovation_sd"], c["p_default"],
                               c["recovery"])
    se_mean = math.sqrt(var / c["n_paths"])
    real = dict(recovered_p=result.p, recovered_se=result.stderr, mc_futures=sim.mc_futures,
                mc_stderr=sim.mc_stderr, defaults=sim.default_count)
    args = (c["rho"], c["horizon_days"], c["delta0"], c["innovation_sd"], c["p_default"], c["recovery"],
            c["n_paths"])
    for check in checks.check_mc(*args, **real):
        expect("real output", check, True)
    sd_defaults = oracle.binomial_sd(c["n_paths"], c["p_default"])
    cases = [
        ("mc_recovered_p", "recovered p 6 SE high", {"recovered_p": c["p_default"] + 6 * result.stderr}),
        ("mc_futures", "mc_futures 6 SE high", {"mc_futures": mean + 6 * se_mean}),
        ("mc_defaults", "defaults 6 binomial SD high",
         {"defaults": round(c["n_paths"] * c["p_default"] + 6 * sd_defaults)}),
        ("mc_stderr", "mc_stderr 6 % high", {"mc_stderr": 1.06 * se_mean}),
    ]
    for target, label, change in cases:
        for check in checks.check_mc(*args, **dict(real, **change)):
            expect(label, check, check.name != target)


def benchmark_json_matches() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    printed_layer = {name: run._unit(name) for name in run.PER_LAYER}
    ok = declared_e2e == run.END_TO_END and declared_layer == printed_layer
    ok = ok and {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    print(f"{'ok  ' if ok else 'FAIL'} BENCHMARK.json lists the printed metrics and workloads")
    if not ok:
        FAILURES.append("BENCHMARK.json")


def main() -> int:
    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    program = run.Program()
    pipeline_checks(program, work)
    mc_checks(program)
    benchmark_json_matches()
    shutil.rmtree(work, ignore_errors=True)
    print(f"{len(FAILURES)} expectation(s) broken" if FAILURES else "every check passes real output and rejects its perturbation")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
