"""Byte-level regression tests of the data subcommands.

Every file a data subcommand writes, and what it prints, is pinned by
SHA-256 for the criterion-9 fixture (410 days, seed 17) and for a copy
whose futures file lacks every 37th row, so the join drops dates. A
20,000-day fixture (about 2 MB per input file) pins ``pipeline --rho
estimate`` on inputs larger than one block of the CSV reader, and the
stdout of one ``simulate`` run pins the Monte Carlo draw stream. Inputs
are passed as paths relative to the dataset directory, which keeps the
paths recorded in the run manifest the same on every run. The three files
of one ``fixture`` run with every setting away from its default pin the
planted sine and the start of the AR(1) path, which the datasets above
leave at zero. A deliberate change to any of these bytes updates
``GOLDEN``, ``SIMULATE_STDOUT`` or ``FIXTURE_FILES`` and says why in
CHANGES.md. Apart from the bytes, ``table4.csv`` is checked
against exact OLS and HC0 arithmetic on ``features.csv``, and the
volatility columns of ``features.csv`` against the Parkinson formula on
the input bars, within stated bounds, so a hash that fails on another
machine can be told from a wrong number.
"""

import csv
import gc
import hashlib
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from operator import mul
from pathlib import Path
from unittest import mock

import pytest

from pegrisk import cli, marketdata
from pegrisk.cli import main

P_DEFAULT = 30.0 * 90.0 / (365.0 * 1e4)

MARKET = ["--spot", "data/spot.csv", "--futures", "data/futures.csv"]
BTC = ["--btc", "data/btc.csv"]
ESTIMATE = ["--rho", "estimate", "--no-trim", "--annualization", "compounded"]
# only pipeline and fit take a window: the rolling fit runs only where it is reported
WINDOW = ["--window", "30"]
# priced at a 90-day horizon, read at one day: some raw probabilities are negative
SHORT = ["--horizon", "1"]

# name -> argv; the last argument is the output directory, except for fit
INVOCATIONS = {
    "pipeline": ["pipeline", *MARKET, *BTC, "--out", "pipeline"],
    "pipeline-estimate": ["pipeline", *MARKET, *BTC, *ESTIMATE, *WINDOW, "--out", "pipeline-estimate"],
    "align": ["align", *MARKET, "--out", "align"],
    "prob": ["prob", *MARKET, "--out", "prob"],
    "prob-trimmed": ["prob", *MARKET, *SHORT, "--out", "prob-trimmed"],
    "features": ["features", *MARKET, *BTC, "--out", "features"],
    "regress": ["regress", *MARKET, *BTC, "--out", "regress"],
    "stats": ["stats", *MARKET, "--out", "stats"],
    "fit": ["fit", "--spot", "data/spot.csv"],
}

GOLDEN = {
    "full": {
        "pipeline": {
            "stdout": "39dbe3cc680a7353f8ac23f29ebdd5716843a1122cec07fbc117f97c66542ac1",
            "aligned.csv": "8e940781e7dbb63fcc0373e5ea685d78ee07271c322072e7b2212729e9f61707",
            "figure1.vl.json": "1c6e0f58f14aa1c20cedfaa5c8a3e00c80abc487488dbf4ba2213edfd22d6e13",
            "figure2.vl.json": "af704caf1b4ddb2c64cdfce383a47d1a88dd9038c96dc64fc1cb07f09e599609",
            "prob.csv": "be13b1583cf3f63d9e8a3576f27b1170584183ca0fdf557a11cb369c21064558",
            "run_manifest.txt": "f57ff95a31f6d578e01c686d700de5f2247051b6ae99f92736b8a009202168c6",
            "table3.csv": "0a90085bb374ebae18cc42633643c0d7fabbf46632465dd62d94fe356ddda7d6",
            "table3.txt": "49523ec0eb9326fd77a88a9ffcc1260ecb95cd2755a7a00b127c6885ec3065ba",
            "table4.csv": "1c3e22e80990aa7e588a554c5a233653f58f7f3d222d35454af07bd6a41fed92",
            "table4.txt": "e436ab191b27bbb03882840350418fc5ec85a91e567310aceda5531aa89b533b",
        },
        "pipeline-estimate": {
            "stdout": "448e9cd75d48c9883549b39012bf158e9a936945bdc8b83c8d6b273d2cbe339c",
            "aligned.csv": "8e940781e7dbb63fcc0373e5ea685d78ee07271c322072e7b2212729e9f61707",
            "figure1.vl.json": "1c6e0f58f14aa1c20cedfaa5c8a3e00c80abc487488dbf4ba2213edfd22d6e13",
            "figure2.vl.json": "af704caf1b4ddb2c64cdfce383a47d1a88dd9038c96dc64fc1cb07f09e599609",
            "prob.csv": "e6932699c81e89d0002ed8a62dc321bb0539ddf07066b78ae7cb630fbacf28d1",
            "run_manifest.txt": "402b733d66b78b96c1b47bc4cbf4fdd567d683acf0d2de3718fb3ef87e747aaf",
            "table3.csv": "3ebd0035c6eee69ff12964be1c849efea1dbe8af51cbc3ee4c8b693fd6582928",
            "table3.txt": "0ddf9de5b9916c49f35594faf89a4ee484cf0ee570d57d42f0c6fd73afd65e31",
            "table4.csv": "8ecdddbbf52b8d834c4e5be88f1925d81418b06febd4edf19a5702e86b9a1e97",
            "table4.txt": "b85a7f15caabc90c3567febfbae32c98e4ca190c11e8edc8989f9647f8000572",
        },
        "align": {
            "stdout": "9b61bd31ef41fdd54af3b4989f813ad445dd23c47dd62a741a8d8cc7ebea0b5f",
            "aligned.csv": "8e940781e7dbb63fcc0373e5ea685d78ee07271c322072e7b2212729e9f61707",
        },
        "prob": {
            "stdout": "a2c1dd3994a98cdd4dc390b81ac85182165a4d37eb534b128133ffb25a24cca0",
            "prob.csv": "be13b1583cf3f63d9e8a3576f27b1170584183ca0fdf557a11cb369c21064558",
        },
        "prob-trimmed": {
            "stdout": "08499c38ad3a0931ea037a0d4d525b42a874d02cfc9c68f2e8de1b1e84169938",
            "prob.csv": "c4ba09d0cc942e6640ec279201c634e5fa31b337b3c8cba1446d8dff107152a2",
        },
        "features": {
            "stdout": "641496b9d31f70cd4ad87a6b97c43e478cb4f9f66a1f8d6f24c4d7949ff292b5",
            "features.csv": "d6b588214fb54a90e5cce0b997b3299b4c84620da93c52777765e030aeabf403",
        },
        "regress": {
            "stdout": "e436ab191b27bbb03882840350418fc5ec85a91e567310aceda5531aa89b533b",
            "table4.csv": "1c3e22e80990aa7e588a554c5a233653f58f7f3d222d35454af07bd6a41fed92",
            "table4.txt": "e436ab191b27bbb03882840350418fc5ec85a91e567310aceda5531aa89b533b",
        },
        "stats": {
            "stdout": "49523ec0eb9326fd77a88a9ffcc1260ecb95cd2755a7a00b127c6885ec3065ba",
            "table3.csv": "0a90085bb374ebae18cc42633643c0d7fabbf46632465dd62d94fe356ddda7d6",
            "table3.txt": "49523ec0eb9326fd77a88a9ffcc1260ecb95cd2755a7a00b127c6885ec3065ba",
        },
        "fit": {
            "stdout": "1225854ce925f636fb533d9550c0603054b65ec8dd8b1860781ad6345463655c",
        },
    },
    "gaps": {
        "pipeline": {
            "stdout": "c411353d7f9eeeba6dcee39a6a8b8f3bd9d09addd2c796b52fd8c0e1f08eac46",
            "aligned.csv": "089a388212b8cae43f1bd4484ec58986dad9f8b1aacbedb95be018c7c7466b0d",
            "figure1.vl.json": "1c6e0f58f14aa1c20cedfaa5c8a3e00c80abc487488dbf4ba2213edfd22d6e13",
            "figure2.vl.json": "af704caf1b4ddb2c64cdfce383a47d1a88dd9038c96dc64fc1cb07f09e599609",
            "prob.csv": "1ab98f87e31cb7956edea91bf88f084c7f38f4ba6bdd676bda23bb087662676a",
            "run_manifest.txt": "419292ff7169d247ff3a044ec2192c1849a08a2df4233541823ae8fd8eb7166d",
            "table3.csv": "c10c8a740acd6b36866da1f8698dd4c15d572e54a6c925fc3f816abe03952031",
            "table3.txt": "2789fa690f4bea8613dd27278eb5f88ab04e231d81e697d04c944aa15a18c1b1",
            "table4.csv": "b773f95b7219e5eec8635cc6df5d2832bd5b0bff7e0b44665e88b8ca26c396d2",
            "table4.txt": "97cd5a4f6ac3ca7665d120ed2ddc517413e695eaee905b8180f8d6dc1f48e930",
        },
        "pipeline-estimate": {
            "stdout": "b94dfe31e880c04df968a90ded77acc14826e4866a8509021dee9073fd84fdf0",
            "aligned.csv": "089a388212b8cae43f1bd4484ec58986dad9f8b1aacbedb95be018c7c7466b0d",
            "figure1.vl.json": "1c6e0f58f14aa1c20cedfaa5c8a3e00c80abc487488dbf4ba2213edfd22d6e13",
            "figure2.vl.json": "af704caf1b4ddb2c64cdfce383a47d1a88dd9038c96dc64fc1cb07f09e599609",
            "prob.csv": "eee99203b6334c1b84cc77d1d2968b6b55d2499ca9e746f8e4513c1c1ebbf64f",
            "run_manifest.txt": "c4c8b02dbcec4a58380252a6643a37554acf0fd3b6008cf288084208cd7db20a",
            "table3.csv": "8005d9bc5308e998d445e44ce09e1bea048bf01bd25989c4d238133da7ea03dc",
            "table3.txt": "d1f8f0d135fcd7d37f3ce7e0d586f50800a74d3838b8944773a1dc01926a53f7",
            "table4.csv": "f0ffe8a379195d4d77f7a096afe84366241d4400b2c93e86cd9f0932ff6bc254",
            "table4.txt": "ebebf6b356bc4a4629b0bf42389f03831bac7bf1fd05713bd08b3e69b95f45ae",
        },
        "align": {
            "stdout": "130bb451ab92c545fb01dbf20f3341605ef1e8ad722d0cc354288ca4b72a2e6f",
            "aligned.csv": "089a388212b8cae43f1bd4484ec58986dad9f8b1aacbedb95be018c7c7466b0d",
        },
        "prob": {
            "stdout": "29c33b3e2a34e729917fb9c7a5629cf3bce38272b4164dfba60e125300b1adad",
            "prob.csv": "1ab98f87e31cb7956edea91bf88f084c7f38f4ba6bdd676bda23bb087662676a",
        },
        "prob-trimmed": {
            "stdout": "777ea76a6d629578f3fae3df04b3a41b7d74a7d5f9826ca071af9d136671ad08",
            "prob.csv": "ff41880260489e3aa705b7610c61b73b61906c54948e749dd62d56cc06132d3b",
        },
        "features": {
            "stdout": "81b407fe4f8bf14fa6909c22d9421ac53dfdbd45f2fd22da743944ec7739aece",
            "features.csv": "d32b7b5fe240df587774c6cc183324d409b171bfb78e13042788839ac8307a40",
        },
        "regress": {
            "stdout": "97cd5a4f6ac3ca7665d120ed2ddc517413e695eaee905b8180f8d6dc1f48e930",
            "table4.csv": "b773f95b7219e5eec8635cc6df5d2832bd5b0bff7e0b44665e88b8ca26c396d2",
            "table4.txt": "97cd5a4f6ac3ca7665d120ed2ddc517413e695eaee905b8180f8d6dc1f48e930",
        },
        "stats": {
            "stdout": "2789fa690f4bea8613dd27278eb5f88ab04e231d81e697d04c944aa15a18c1b1",
            "table3.csv": "c10c8a740acd6b36866da1f8698dd4c15d572e54a6c925fc3f816abe03952031",
            "table3.txt": "2789fa690f4bea8613dd27278eb5f88ab04e231d81e697d04c944aa15a18c1b1",
        },
        "fit": {
            "stdout": "1225854ce925f636fb533d9550c0603054b65ec8dd8b1860781ad6345463655c",
        },
    },
    "long": {
        "pipeline-estimate": {
            "stdout": "efd23983a54038023bba92ca533bf89de8ec771633dc14cb4265ba782aa89182",
            "aligned.csv": "c6a2d204bffc17bf6c0287a736bfd8dc820a3fa4e10973ee7a2268b27e9fa07b",
            "figure1.vl.json": "1c6e0f58f14aa1c20cedfaa5c8a3e00c80abc487488dbf4ba2213edfd22d6e13",
            "figure2.vl.json": "af704caf1b4ddb2c64cdfce383a47d1a88dd9038c96dc64fc1cb07f09e599609",
            "prob.csv": "e4a81bb6ac66f65df6ca7d45a94664078dbd88315289882afa1ecc0c40fe7695",
            "run_manifest.txt": "debf61b0b448d1bf7549c032a639b5a451aee624a05d99113e5faa1180db0e87",
            "table3.csv": "7b9798041ab38987a7079726ea08bcb5c59198521daf10f04e9864b9f70425e4",
            "table3.txt": "e723b5af95cb8342b07fd38a4486726ccae8d6faf4ecdbcb56cd821d15106ef7",
            "table4.csv": "db5ba24cf5040c8feacd84629de6050b149ab42cd63c00f4b542381d710eee6c",
            "table4.txt": "5696d5a9178dc9f1a3e1f2980d3d3e5ac94ec202eac9c29d2b516d082661fd50",
        },
    },
}

# 200,000 paths are 4 blocks of the Monte Carlo stream, the last one partial
SIMULATE = ["simulate", "--n-paths", "200000", "--seed", "5"]
SIMULATE_STDOUT = "f6c5eaf9d144f986d98b94f1a9c44be57165451d904d946bed8d079710f6ce57"

# every fixture setting away from its default: the golden datasets plant p_amplitude = 0 and
# delta0 = 0, so only this pin covers the planted sine and the start of the AR(1) recursion
FIXTURE_SETTINGS = [
    "--n-days", "60", "--rho", "0.8", "--innovation-sd", "4e-4", "--delta0", "0.001", "--horizon", "30",
    "--p-default", "0.002", "--p-amplitude", "0.5", "--p-period-days", "20", "--recovery", "0.25",
    "--futures-noise-sd", "3e-4", "--intraday-range-sd", "6e-4", "--seed", "4",
]
FIXTURE_FILES = {
    "spot.csv": "82d2d2058280f505a421bfbdb7dcd706af116c6d8d9ca868df9d655cfbf7e624",
    "futures.csv": "6f281f18de1e94a2e8e8933a7da08d0f6af3a38f9ff74fceb199297d586c7bc5",
    "btc.csv": "10df1f039c07359b22582a3d4eab475ce1bbe65da309ef83a6ec028dfde42d2d",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _fixture(data: Path, n_days: int) -> None:
    args = ["fixture", "--out", str(data), "--n-days", str(n_days), "--seed", "17"]
    assert main(args + ["--p-default", repr(P_DEFAULT)]) == 0


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    """Dataset name -> directory holding ``data/{spot,futures,btc}.csv``."""
    root = tmp_path_factory.mktemp("golden")
    full = root / "full"
    _fixture(full / "data", 410)
    gaps = root / "gaps"
    shutil.copytree(full / "data", gaps / "data")
    header, *rows = (full / "data" / "futures.csv").read_text().splitlines(keepends=True)
    kept = [row for i, row in enumerate(rows, start=1) if i % 37]
    (gaps / "data" / "futures.csv").write_text(header + "".join(kept))
    long = root / "long"
    _fixture(long / "data", 20_000)
    return {"full": full, "gaps": gaps, "long": long}


def _run(argv, capsys) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("dataset, name", [(dataset, name) for dataset in GOLDEN for name in GOLDEN[dataset]])
def test_outputs_match_pinned_hashes(datasets, dataset, name, monkeypatch, capsys):
    monkeypatch.chdir(datasets[dataset])
    argv = INVOCATIONS[name]
    code, out, err = _run(argv, capsys)
    assert code == 0, err
    digests = {"stdout": _sha(out.encode())}
    if name != "fit":
        for path in sorted(Path(argv[-1]).iterdir()):
            digests[path.name] = _sha(path.read_bytes())
    assert digests == GOLDEN[dataset][name]


# how the console script, ``python -m pegrisk.cli`` and the benchmark's fresh processes call pegrisk
AS_A_PROGRAM = "import sys; from pegrisk.cli import main; sys.exit(main())"


def _files(out: Path) -> dict[str, bytes]:
    """Every file under the output directory ``out``, by its path within it."""
    return {str(path.relative_to(out)): path.read_bytes() for path in sorted(out.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("name", [*GOLDEN["full"], "write-fails"])
def test_a_program_writes_what_main_argv_writes(datasets, name, tmp_path, monkeypatch, capsys):
    """``main()`` in a fresh process, the path users and the benchmark take, against ``main(argv)`` in this one.

    Both give the same exit code, stdout, stderr and files, and ``main(argv)`` leaves the garbage collector as it
    found it. ``write-fails`` is ``pipeline`` into a directory whose ``table3.txt`` is a directory: it fails at
    stage=write, after the first tables were written, and leaves no artifact.
    """
    shutil.copytree(datasets["full"] / "data", tmp_path / "data")
    monkeypatch.chdir(tmp_path)
    argv = INVOCATIONS["pipeline" if name == "write-fails" else name]
    out = None if name == "fit" else Path(argv[-1])
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    runs = []
    for in_process in (True, False):
        if out is not None:
            shutil.rmtree(out, ignore_errors=True)
            if name == "write-fails":
                (out / "table3.txt").mkdir(parents=True)
        if in_process:
            collector = gc.isenabled(), gc.get_freeze_count()
            run = _run(argv, capsys)
            assert (gc.isenabled(), gc.get_freeze_count()) == collector
        else:
            done = subprocess.run(
                [sys.executable, "-c", AS_A_PROGRAM, *argv], env=env, capture_output=True, text=True, timeout=120
            )
            run = done.returncode, done.stdout, done.stderr
        runs.append((*run, _files(out) if out is not None else {}))
    assert runs[0] == runs[1]
    code, stdout, err, files = runs[0]
    if name == "write-fails":
        message = f"[Errno 21] Is a directory: {str(out / 'table3.txt')!r}"
        assert err == f'error stage=write type=IsADirectoryError msg="{message}"\n'
        assert (code, files) == (1, {})
    else:
        assert code == 0, err
        digests = {"stdout": _sha(stdout.encode()), **{artifact: _sha(data) for artifact, data in files.items()}}
        assert digests == GOLDEN["full"][name]


def test_simulate_stdout_matches_pinned_hash(capsys):
    code, out, err = _run(SIMULATE, capsys)
    assert code == 0, err
    assert _sha(out.encode()) == SIMULATE_STDOUT


def test_fixture_with_every_setting_changed_matches_pinned_hashes(tmp_path, capsys):
    code, _, err = _run(["fixture", *FIXTURE_SETTINGS, "--out", str(tmp_path)], capsys)
    assert code == 0, err
    assert {path.name: _sha(path.read_bytes()) for path in tmp_path.iterdir()} == FIXTURE_FILES


@pytest.mark.parametrize("model", ([], ESTIMATE, SHORT), ids=("fixed", "estimate", "trimmed"))
@pytest.mark.parametrize("dataset", ("full", "gaps"))
def test_single_stage_outputs_equal_pipeline_artifacts(datasets, dataset, model, tmp_path, capsys):
    data = datasets[dataset] / "data"
    market = ["--spot", str(data / "spot.csv"), "--futures", str(data / "futures.csv")]
    btc = ["--btc", str(data / "btc.csv")]
    pipe = tmp_path / "pipeline"
    assert _run(["pipeline", *market, *btc, *model, *WINDOW, "--out", str(pipe)], capsys)[0] == 0
    # regress and stats read the untrimmed series and take no trim flag
    untrimmed = [arg for arg in model if arg != "--no-trim"]
    commands = {
        "align": (market, ("aligned.csv",)),
        "prob": (market + model, ("prob.csv",)),
        "regress": (market + btc + untrimmed, ("table4.txt", "table4.csv")),
        "stats": (market + untrimmed, ("table3.txt", "table3.csv")),
    }
    for command, (args, names) in commands.items():
        out = tmp_path / command
        code, stdout, err = _run([command, *args, "--out", str(out)], capsys)
        assert code == 0, err
        assert sorted(p.name for p in out.iterdir()) == sorted(names)
        for artifact in names:
            assert (out / artifact).read_bytes() == (pipe / artifact).read_bytes(), artifact
        if command in ("regress", "stats"):
            assert stdout == (pipe / names[0]).read_text()


DATA_COMMANDS = {
    "pipeline": ("spot", "futures", "btc"),
    "align": ("spot", "futures"),
    "fit": ("spot",),
    "prob": ("spot", "futures"),
    "features": ("spot", "futures", "btc"),
    "regress": ("spot", "futures", "btc"),
    "stats": ("spot", "futures"),
}


def _command_args(command: str, data: Path, out: Path, **paths: str) -> list[str]:
    args = [command]
    for role in DATA_COMMANDS[command]:
        args += [f"--{role}", paths.get(role, str(data / f"{role}.csv"))]
    return args if command == "fit" else args + ["--out", str(out)]


def _assert_failed(code: int, err: str, stage: str, error_type: str, out: Path) -> None:
    assert code == 1
    assert err.startswith(f"error stage={stage} type={error_type} msg=")
    assert err.count("\n") == 1
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command", DATA_COMMANDS)
def test_missing_input_fails_at_parse(datasets, command, tmp_path, capsys):
    data = datasets["full"] / "data"
    for role in DATA_COMMANDS[command]:
        out = tmp_path / role
        missing = str(tmp_path / f"no-{role}.csv")
        code, _, err = _run(_command_args(command, data, out, **{role: missing}), capsys)
        _assert_failed(code, err, "parse", "FileNotFoundError", out)
        assert f"no-{role}.csv" in err


@pytest.fixture(scope="module")
def broken_data(tmp_path_factory):
    """A 60-day fixture, plus futures and BTC files whose dates moved to 2024 and a BTC file of constant bars."""
    data = tmp_path_factory.mktemp("broken")
    assert main(["fixture", "--out", str(data), "--n-days", "60", "--seed", "5"]) == 0
    for role in ("futures", "btc"):
        (data / f"{role}-2024.csv").write_text((data / f"{role}.csv").read_text().replace("2020-", "2024-"))
    header, *rows = (data / "btc.csv").read_text().splitlines()
    (data / "btc-flat.csv").write_text("\n".join([header, *(row.split(",")[0] + ",1,1,1,1,1" for row in rows)]) + "\n")
    return data


@pytest.mark.parametrize(
    "command, files, flags, stage, error",
    [
        ("align", {"futures": "futures-2024.csv"}, [], "align", 'AlignmentError msg="no dates in common between spot'),
        ("prob", {}, ["--recovery", "0.9995"], "prob", 'DomainError msg="2020-02-28: probability above 1: '),
        ("features", {"btc": "btc-2024.csv"}, [], "features", 'AlignmentError msg="no dates in common between the BTC'),
        ("regress", {"btc": "btc-flat.csv"}, [], "regress", 'EstimationError msg="singular design: '),
    ],
    ids=["align", "prob", "features", "regress"],
)
def test_failing_stage_names_itself(broken_data, command, files, flags, stage, error, tmp_path, capsys):
    # stats reads only what align has already checked, so no input fails it
    out = tmp_path / "out"
    paths = {role: str(broken_data / name) for role, name in files.items()}
    code, _, err = _run(_command_args(command, broken_data, out, **paths) + flags, capsys)
    _assert_failed(code, err, stage, error.split()[0], out)
    assert err.startswith(f"error stage={stage} type={error}")


@pytest.fixture(scope="module")
def pegged_data(tmp_path_factory):
    """A perfectly pegged series: every deviation is zero, so rho cannot be fitted."""
    data = tmp_path_factory.mktemp("pegged")
    args = ["fixture", "--out", str(data), "--n-days", "60", "--innovation-sd", "0"]
    args += ["--futures-noise-sd", "0", "--intraday-range-sd", "0.0001", "--seed", "5"]
    assert main(args) == 0
    return data


@pytest.mark.parametrize("command", [c for c in DATA_COMMANDS if c != "align"])
def test_degenerate_estimate_fails_at_fit(pegged_data, command, tmp_path, capsys):
    out = tmp_path / "out"
    args = _command_args(command, pegged_data, out)
    if command != "fit":
        args += ["--rho", "estimate"]
    code, _, err = _run(args, capsys)
    _assert_failed(code, err, "fit", "EstimationError", out)


@pytest.fixture(scope="module")
def flat_stretch_data(tmp_path_factory):
    """60 fittable days whose spot sits exactly at the peg on days 20-29."""
    data = tmp_path_factory.mktemp("flat")
    assert main(["fixture", "--out", str(data), "--n-days", "60", "--seed", "5"]) == 0
    header, *rows = (data / "spot.csv").read_text().splitlines()
    for i in range(20, 30):
        rows[i] = rows[i].split(",")[0] + ",1,1.001,0.999,1,1000000"
    (data / "spot.csv").write_text("\n".join([header, *rows]) + "\n")
    return data


def test_degenerate_rolling_window_leaves_estimate_to_the_full_sample(flat_stretch_data, tmp_path, capsys):
    out = tmp_path / "out"
    args = _command_args("pipeline", flat_stretch_data, out) + ["--window", "10", "--rho", "estimate"]
    code, _, err = _run(args, capsys)
    assert code == 0, err
    manifest = (out / "run_manifest.txt").read_text()
    effective = re.search(r"rho_effective = (\S+)", manifest).group(1)
    assert f"rho_full_sample = {effective} (stderr " in manifest
    # the first degenerate window starts on day 20, 2020-03-19
    reason = "rolling window starting 2020-03-19: degenerate regressor: lagged deviations are all zero"
    unavailable = f"rolling fit unavailable: {reason}"
    assert f"# {unavailable}" in manifest.splitlines()
    code, stdout, err = _run(["fit", "--spot", str(flat_stretch_data / "spot.csv"), "--window", "10"], capsys)
    assert code == 0, err
    assert unavailable in stdout.splitlines()


@pytest.fixture
def at_once(monkeypatch):
    """Two or more inputs, or CSV tables, of any size are parsed or written by forked workers, as on two CPUs.

    Yields a spy on the forked half of ``cli._each``; ``_forked(spy)`` lists the function each call ran.
    """
    monkeypatch.setattr(cli, "_PARALLEL_BYTES", 0)
    monkeypatch.setattr(marketdata, "_cpu_count", lambda: 2)
    spy = mock.Mock(wraps=cli._in_workers)
    monkeypatch.setattr(cli, "_in_workers", spy)
    return spy


def _forked(spy: mock.Mock) -> list:
    return [call.args[0] for call in spy.call_args_list]


def _forked_jobs(spy: mock.Mock, func) -> list[list[str]]:
    """The base names of the files of each forked call of ``func``."""
    return [[Path(name).name for name, _ in call.args[1]] for call in spy.call_args_list if call.args[0] is func]


@pytest.mark.parametrize(
    "dataset, name", [("long", "pipeline-estimate"), ("full", "pipeline"), ("full", "features")]
)
def test_parallel_parse_writes_the_pinned_bytes(datasets, dataset, name, at_once, monkeypatch, capsys):
    test_outputs_match_pinned_hashes(datasets, dataset, name, monkeypatch, capsys)
    if name == "features":  # features.csv is its one table, so this process writes it
        assert _forked(at_once) == [cli._parse_file]
    else:  # one write, of both tables
        assert _forked(at_once) == [cli._parse_file, cli._write_table]
        assert _forked_jobs(at_once, cli._write_table) == [["aligned.csv", "prob.csv"]]
    assert multiprocessing.active_children() == []


def test_parallel_fixture_writes_the_serial_bytes(tmp_path, at_once, monkeypatch):
    args = ["fixture", "--n-days", "300", "--seed", "3", "--out"]
    monkeypatch.setattr(marketdata, "_cpu_count", lambda: 1)  # one CPU: no worker
    assert main(args + [str(tmp_path / "serial")]) == 0
    assert _forked(at_once) == []
    monkeypatch.setattr(marketdata, "_cpu_count", lambda: 2)
    assert main(args + [str(tmp_path / "forked")]) == 0
    assert _forked(at_once) == [cli._write_table]
    assert _forked_jobs(at_once, cli._write_table) == [["spot.csv", "futures.csv", "btc.csv"]]
    for name in ("spot.csv", "futures.csv", "btc.csv"):
        assert (tmp_path / "forked" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()
    assert sorted(p.name for p in (tmp_path / "forked").iterdir()) == ["btc.csv", "futures.csv", "spot.csv"]
    assert multiprocessing.active_children() == []


def _with_bad_row(path: Path, index: int) -> None:
    """Insert a bar whose high lies below its low as data row ``index`` (file line ``index + 2``)."""
    header, *rows = path.read_text().splitlines(keepends=True)
    rows.insert(index, "2030-01-01,1.0,0.9,1.1,1.0,1e6\n")
    path.write_text(header + "".join(rows))


@pytest.mark.parametrize("bad", [{"spot": 100}, {"btc": 300}, {"spot": 100, "btc": 300}], ids=["spot", "btc", "both"])
def test_parallel_parse_fails_as_the_serial_parse(datasets, bad, tmp_path, monkeypatch, capsys):
    data = tmp_path / "data"
    shutil.copytree(datasets["full"] / "data", data)
    for role, index in bad.items():
        _with_bad_row(data / f"{role}.csv", index)
    serial = _run(_command_args("pipeline", data, tmp_path / "serial"), capsys)
    monkeypatch.setattr(cli, "_PARALLEL_BYTES", 0)
    monkeypatch.setattr(marketdata, "_cpu_count", lambda: 2)
    parallel = _run(_command_args("pipeline", data, tmp_path / "parallel"), capsys)
    first = min(bad, key=("spot", "btc").index)  # the spot file is parsed first
    message = f"{data / f'{first}.csv'}: line {bad[first] + 2}: high 0.9 below low 1.1"  # the error names its file
    expected = f'error stage=parse type=ValidationError msg="{message}"\n'
    assert serial == parallel == (1, "", expected)
    assert multiprocessing.active_children() == []


def test_parse_worker_that_dies_fails_at_parse(datasets, at_once, tmp_path, monkeypatch, capsys):
    parent, parse_bars = os.getpid(), marketdata.parse_bars

    def die_in_a_worker(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(3)
        return parse_bars(*args, **kwargs)

    monkeypatch.setattr(marketdata, "parse_bars", die_in_a_worker)
    out = tmp_path / "out"
    code, _, err = _run(_command_args("pipeline", datasets["full"] / "data", out), capsys)
    _assert_failed(code, err, "parse", "ChildProcessError", out)
    assert "spot.csv ended without a result" in err
    assert _forked(at_once) == [cli._parse_file]
    assert multiprocessing.active_children() == []


_write_table = cli._write_table


def _write_table_that_dies_in_a_worker(path, table):
    """``cli._write_table``, but a forked worker that runs it dies; module-level so that a worker can be sent it."""
    if multiprocessing.parent_process() is not None:
        os._exit(3)
    _write_table(path, table)


def test_write_worker_that_dies_fails_at_write(datasets, at_once, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_write_table", _write_table_that_dies_in_a_worker)
    out = tmp_path / "out"
    code, _, err = _run(_command_args("pipeline", datasets["full"] / "data", out), capsys)
    _assert_failed(code, err, "write", "ChildProcessError", out)
    assert err.endswith(f'msg="the worker process for {out}/aligned.csv ended without a result"\n')
    assert _forked(at_once) == [cli._parse_file, _write_table_that_dies_in_a_worker]
    assert multiprocessing.active_children() == []


class _FullDisk:
    """A text file open for writing that takes its first ``room`` writes, then fails as a full disk does."""

    def __init__(self, stream, room: int) -> None:
        self.stream, self.room = stream, room

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.stream.close()

    def write(self, text: str) -> None:
        if self.room == 0:
            raise OSError(28, "No space left on device")
        self.room -= 1
        self.stream.write(text)


@pytest.mark.parametrize("mode", ["serial", "forked"])
def test_write_on_a_full_disk_fails_alike_serial_and_forked(datasets, mode, request, tmp_path, monkeypatch, capsys):
    spy = request.getfixturevalue("at_once") if mode == "forked" else None
    monkeypatch.setattr(marketdata, "WRITE_ROWS", 50)  # 410 rows make 9 chunks, so the disk fills partway
    path_open = Path.open

    def open_on_a_full_disk(path, *args, **kwargs):
        stream = path_open(path, *args, **kwargs)
        return _FullDisk(stream, room=3) if path.name == "aligned.csv" else stream  # the header, then two chunks

    monkeypatch.setattr(Path, "open", open_on_a_full_disk)
    alive, discard_written = [], cli._Stages.discard_written

    def discard_written_once_joined(run):
        alive.append(multiprocessing.active_children())
        discard_written(run)

    monkeypatch.setattr(cli._Stages, "discard_written", discard_written_once_joined)
    out = tmp_path / "out"
    code, _, err = _run(_command_args("pipeline", datasets["full"] / "data", out), capsys)
    assert (code, err) == (1, 'error stage=write type=OSError msg="[Errno 28] No space left on device"\n')
    _assert_failed(code, err, "write", "OSError", out)
    assert spy is None or _forked(spy) == [cli._parse_file, cli._write_table]
    assert alive == [[]]  # the workers were joined when the write failed, before the artifacts were removed
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("where", ["serial", "forked"])
def test_tables_come_first_and_the_manifest_last(datasets, where, request, tmp_path, monkeypatch, capsys):
    spy = request.getfixturevalue("at_once") if where == "forked" else None
    created, path_open = tmp_path / "created.txt", Path.open

    def open_and_record(path, mode="r", *args, **kwargs):
        if "w" in mode:  # a file created for writing, in this process or in a forked worker
            with path_open(created, "a", encoding="utf-8") as log:
                log.write(path.name + "\n")
        return path_open(path, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", open_and_record)
    code, _, err = _run(_command_args("pipeline", datasets["full"] / "data", tmp_path / "out"), capsys)
    assert code == 0, err
    order = created.read_text(encoding="utf-8").split()
    assert sorted(order[:2]) == ["aligned.csv", "prob.csv"]  # side by side when forked
    assert order[2:] == [*cli._PIPELINE_ARTIFACTS[2:], "run_manifest.txt"]
    assert spy is None or _forked(spy) == [cli._parse_file, cli._write_table]


def test_write_workers_see_only_artifacts(datasets, at_once, tmp_path, monkeypatch, capsys):
    out, seen, cells = tmp_path / "out", tmp_path / "seen.txt", marketdata._cells

    def list_the_output_directory(column):
        if multiprocessing.parent_process() is not None:  # a forked worker, formatting rows
            with seen.open("a", encoding="utf-8") as stream:
                stream.write(" ".join(sorted(os.listdir(out))) + "\n")
        return cells(column)

    monkeypatch.setattr(marketdata, "_cells", list_the_output_directory)
    code, _, err = _run(_command_args("pipeline", datasets["full"] / "data", out), capsys)
    assert code == 0, err
    listed = {name for line in seen.read_text(encoding="utf-8").splitlines() for name in line.split()}
    assert {"aligned.csv", "prob.csv"} <= listed <= {"run_manifest.txt", *cli._PIPELINE_ARTIFACTS}
    assert multiprocessing.active_children() == []


def test_fit_reports_the_rho_of_the_pipeline_manifest(datasets, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(datasets["gaps"])  # the join drops dates, so spot and aligned days differ
    code, out, err = _run(INVOCATIONS["fit"], capsys)
    assert code == 0, err
    assert _run(["pipeline", *MARKET, *BTC, "--out", str(tmp_path)], capsys)[0] == 0
    manifest = (tmp_path / "run_manifest.txt").read_text()
    full, stderr = re.search(r"rho_full_sample = (\S+) \(stderr (\S+)\)", manifest).groups()
    rolling, windows = re.search(r"rho_rolling_mean = (\S+) over (\d+) windows", manifest).groups()
    assert f"full-sample rho = {float(full):.6f} (stderr {float(stderr):.6f}, n 410)" in out
    assert f"rolling mean rho = {float(rolling):.6f} over {windows} windows of 60 days" in out


@pytest.fixture(params=("serial", "forked"))
def either_parse(request):
    """Runs a test with its small inputs parsed in this process, then again in forked workers."""
    spy = request.getfixturevalue("at_once") if request.param == "forked" else None
    yield
    assert spy is None or _forked(spy) == [cli._parse_file]
    assert multiprocessing.active_children() == []


def test_parse_error_comes_before_a_fit_error(pegged_data, either_parse, tmp_path, capsys):
    data, out = tmp_path / "data", tmp_path / "out"
    shutil.copytree(pegged_data, data)
    _with_bad_row(data / "btc.csv", 10)  # and the pegged spot series cannot be fitted
    code, _, err = _run(_command_args("pipeline", data, out) + ["--rho", "estimate"], capsys)
    _assert_failed(code, err, "parse", "ValidationError", out)
    assert err.endswith(f'msg="{data / "btc.csv"}: line 12: high 0.9 below low 1.1"\n')


def test_input_that_is_not_utf8_fails_at_parse(datasets, either_parse, tmp_path, capsys):
    data, out = tmp_path / "data", tmp_path / "out"
    shutil.copytree(datasets["full"] / "data", data)
    spot = data / "spot.csv"
    spot.write_bytes(spot.read_bytes().replace(b"\n", b"\n\xff", 1))
    code, _, err = _run(_command_args("pipeline", data, out), capsys)
    _assert_failed(code, err, "parse", "ValidationError", out)
    assert err.endswith(f'msg="{spot}: not UTF-8 text (invalid start byte, byte 0xff)"\n')


# Table 4's designs, each regressed with an intercept, which comes first
TABLE4_DESIGNS = {
    "I": ("sigma_btc_bps",),
    "II": ("sigma_usdt_bps",),
    "III": ("r_btc_bps",),
    "IV": ("sigma_btc_bps", "sigma_usdt_bps", "r_btc_bps"),
}


def _solve(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    """The x of a x = b, for a square a, by Gauss-Jordan elimination in exact arithmetic."""
    k, rows = len(a), [[*row_a, *row_b] for row_a, row_b in zip(a, b)]
    for i in range(k):
        pivot = next(r for r in range(i, k) if rows[r][i] != 0)
        rows[i], rows[pivot] = rows[pivot], rows[i]
        rows[i] = [value / rows[i][i] for value in rows[i]]
        for r in range(k):
            factor = rows[r][i]
            if r != i and factor != 0:
                rows[r] = [value - factor * lead for value, lead in zip(rows[r], rows[i])]
    return [row[k:] for row in rows]


def _exact_ols_hc0(y: list[float], regressors: list[list[float]]) -> tuple[list, list, Fraction]:
    """Coefficients and R-squared in exact arithmetic, and HC0 standard errors as 50-digit Decimals.

    The normal equations are solved exactly, and R-squared is 1 - SSR / SST with SSR = y'y - b'X'y, also exact.
    The sandwich (X'X)^-1 X' diag(e^2) X (X'X)^-1 is summed at 50 digits from the residuals of the exact b.
    """
    columns = [[1.0] * len(y), *regressors]
    exact = [[Fraction(value) for value in column] for column in columns]
    y_exact = [Fraction(value) for value in y]
    k, xty = len(columns), [sum(map(mul, a, y_exact)) for a in exact]
    xtx = [[sum(map(mul, a, b)) for b in exact] for a in exact]
    solved = _solve(xtx, [[xty[i], *(Fraction(i == j) for j in range(k))] for i in range(k)])  # b, then (X'X)^-1
    beta, inverse = [row[0] for row in solved], [row[1:] for row in solved]
    yty, total = sum(map(mul, y_exact, y_exact)), sum(y_exact)
    ssr = yty - sum(map(mul, beta, xty))
    r_squared = 1 - ssr / (yty - total * total / len(y))
    with localcontext(prec=50):
        beta_d = [Decimal(b.numerator) / b.denominator for b in beta]
        inverse_d = [[Decimal(v.numerator) / v.denominator for v in row] for row in inverse]
        rows = [[Decimal(value) for value in row] for row in zip(*columns)]
        residuals = [Decimal(value) - sum(map(mul, row, beta_d)) for value, row in zip(y, rows)]
        meat = [[sum(e * e * row[i] * row[j] for e, row in zip(residuals, rows)) for j in range(k)] for i in range(k)]
        left = [[sum(inverse_d[i][m] * meat[m][j] for m in range(k)) for j in range(k)] for i in range(k)]
        stderr = [sum(left[i][m] * inverse_d[m][i] for m in range(k)).sqrt() for i in range(k)]
    return beta, stderr, r_squared


def _relative_gap(value: str, exact) -> Fraction:
    exact = Fraction(exact)
    return abs(Fraction(float(value)) - exact) / abs(exact)


@pytest.mark.parametrize("dataset", ("full", "gaps"))
def test_table4_is_within_bounds_of_exact_ols(datasets, dataset, tmp_path, capsys):
    """Each number of table4.csv against OLS and HC0 of features.csv, in exact or 50-digit arithmetic.

    Coefficients, standard errors and t statistics must be within 1e-13 relative; R-squared, near zero for
    regression III, within 1e-12 absolute.
    """
    data = datasets[dataset] / "data"
    for command in ("features", "regress"):
        assert _run(_command_args(command, data, tmp_path), capsys)[0] == 0
    with (tmp_path / "features.csv").open(newline="", encoding="utf-8") as stream:
        panel = list(csv.DictReader(stream))
    with (tmp_path / "table4.csv").open(newline="", encoding="utf-8") as stream:
        table = list(csv.DictReader(stream))
    designs = [(label, name) for label, names in TABLE4_DESIGNS.items() for name in ("intercept", *names)]
    assert [(row["column"], row["regressor"]) for row in table] == designs
    for label, names in TABLE4_DESIGNS.items():
        rows = [row for row in panel if all(row[name] for name in names)]  # an empty cell is an undefined return
        y = [float(row["p_annualized_bps"]) for row in rows]
        beta, stderr, r_squared = _exact_ols_hc0(y, [[float(row[name]) for row in rows] for name in names])
        published = [row for row in table if row["column"] == label]
        for row, b, se in zip(published, beta, stderr):
            assert row["n_obs"] == str(len(rows))
            assert _relative_gap(row["coefficient"], b) <= Fraction(1, 10**13), (label, row["regressor"])
            assert _relative_gap(row["hc0_stderr"], se) <= Fraction(1, 10**13), (label, row["regressor"])
            assert _relative_gap(row["t_stat"], b / Fraction(se)) <= Fraction(1, 10**13), (label, row["regressor"])
            assert abs(Fraction(float(row["r_squared"])) - r_squared) <= Fraction(1, 10**12), label


# bounds of prob.csv and table3.csv against exact arithmetic. A per-horizon probability is a difference of prices
# near 1, so its bound is on that absolute scale: 8 units in the last place of 1.0. A mean is bounded on the scale of
# its terms, the mean of |x|; a standard deviation, which is not near zero here, relative to itself; a quartile on the
# scale of the two values it lies between
P_BOUND = Fraction(8, 2**52)
MEAN_BOUND = Fraction(4, 10**15)
STD_BOUND = Fraction(4, 10**15)
QUARTILE_BOUND = Fraction(4, 2**52)


def _csv_rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="", encoding="utf-8") as stream:
        return list(csv.DictReader(stream))


def _setting(manifest: str, key: str) -> Fraction:
    """A number of the run manifest, a ``key = value`` line or comment, as the exact value of its float."""
    return Fraction(float(re.search(rf"^(?:# )?{key} = (\S+)", manifest, re.MULTILINE).group(1)))


def _check_summary(row: dict[str, str], cells: list[str]) -> None:
    """One row of table3.csv against the count, extremes, mean, sample standard deviation and linearly interpolated
    quartiles of ``cells``, taken in exact arithmetic, the square root at 50 digits."""
    x = sorted(Fraction(float(cell)) for cell in cells)
    n, name = len(x), row["name"]
    assert int(row["count"]) == n, name
    assert (Fraction(float(row["min"])), Fraction(float(row["max"]))) == (x[0], x[-1]), name
    mean = sum(x) / n
    assert abs(Fraction(float(row["mean"])) - mean) <= MEAN_BOUND * sum(map(abs, x)) / n, name
    variance = sum((value - mean) ** 2 for value in x) / (n - 1)
    with localcontext(prec=50):
        std = Fraction((Decimal(variance.numerator) / variance.denominator).sqrt())
    assert abs(Fraction(float(row["std"])) - std) <= STD_BOUND * std, name
    for key, q in (("q25", Fraction(1, 4)), ("q50", Fraction(1, 2)), ("q75", Fraction(3, 4))):
        low = int((n - 1) * q)  # the sorted value at or below the quartile's position, and the one after it
        below, above = x[low], x[min(low + 1, n - 1)]
        exact = below + (above - below) * ((n - 1) * q - low)
        assert abs(Fraction(float(row[key])) - exact) <= QUARTILE_BOUND * max(abs(below), abs(above)), (name, key)


@pytest.mark.parametrize("model", ([], ESTIMATE, SHORT), ids=("fixed", "estimate", "trimmed"))
@pytest.mark.parametrize("dataset", ("full", "gaps"))
def test_prob_and_table3_are_within_bounds_of_exact_arithmetic(datasets, dataset, model, tmp_path, capsys):
    """prob.csv against the inversion of aligned.csv, and table3.csv against its columns, in exact arithmetic.

    The inversion takes rho as the float the manifest records, and the compounded annualization a 50-digit power.
    ``p_annualized_bps`` is bounded by ``P_BOUND`` carried through the annualization, doubled. Table 3's
    probability row is checked where prob.csv holds the untrimmed series it summarizes.
    """
    assert _run(_command_args("pipeline", datasets[dataset] / "data", tmp_path) + model, capsys)[0] == 0
    aligned, prob = _csv_rows(tmp_path / "aligned.csv"), _csv_rows(tmp_path / "prob.csv")
    manifest = (tmp_path / "run_manifest.txt").read_text(encoding="utf-8")
    rho, horizon, recovery = (_setting(manifest, key) for key in ("rho_effective", "horizon", "recovery"))
    decay, periods, compounded = rho ** int(horizon), 365 / horizon, "compounded" in model
    assert [row["date"] for row in aligned] == [row["date"] for row in prob]
    for row, published in zip(aligned, prob):
        survivor = 1 + decay * (Fraction(float(row["s"])) - 1)
        p = (survivor - Fraction(float(row["f"]))) / (survivor - recovery)
        if compounded:
            with localcontext(prec=50):
                survival = (1 - Decimal(p.numerator) / p.denominator) ** (Decimal(365) / int(horizon))
            bps = (1 - Fraction(survival)) * 10**4
        else:
            bps = p * periods * 10**4
        if published["trimmed"] == "true":  # a negative raw value, published as 0
            assert p < P_BOUND and float(published["p_horizon"]) == float(published["p_annualized_bps"]) == 0.0
            continue
        assert abs(Fraction(float(published["p_horizon"])) - p) <= P_BOUND, row["date"]
        assert abs(Fraction(float(published["p_annualized_bps"])) - bps) <= 2 * P_BOUND * periods * 10**4, row["date"]
    table3 = {row["name"]: row for row in _csv_rows(tmp_path / "table3.csv")}
    columns = {"s": "s", "f": "f", "f_minus_s_bps": "basis_bps"}
    for name, column in columns.items():
        _check_summary(table3[name], [row[column] for row in aligned])
    if all(row["trimmed"] == "false" for row in prob):
        _check_summary(table3["p_annualized_bps"], [row["p_annualized_bps"] for row in prob])


# the Parkinson volatility of features.csv against its formula, on the absolute scale of the log: a double holds
# high / low only to half a unit in the last place of 1.0, and the log carries that error through. Worst measured:
# 0.55 of that unit, on full and gaps alike; the bound is one unit
LOG_RANGE_BOUND = Fraction(1, 2**52)


@pytest.mark.parametrize("dataset", ("full", "gaps"))
def test_parkinson_volatility_is_within_bounds_of_exact_logs(datasets, dataset, tmp_path, capsys):
    """sigma_btc_bps and sigma_usdt_bps of features.csv against ln(high / low) / (2 sqrt(ln 2)) * 1e4 at 50 digits.

    The high and low are those of the BTC and spot bars the run read, on each panel date. Each published value,
    taken back to its log, must lie within ``LOG_RANGE_BOUND`` of the 50-digit ``Decimal.ln`` of high / low.
    """
    data = datasets[dataset] / "data"
    assert _run(_command_args("features", data, tmp_path), capsys)[0] == 0
    panel = _csv_rows(tmp_path / "features.csv")
    with localcontext(prec=50):
        factor = 2 * Decimal(2).ln().sqrt()
        for column, role in (("sigma_btc_bps", "btc"), ("sigma_usdt_bps", "spot")):
            bars = {bar["timestamp"]: bar for bar in _csv_rows(data / f"{role}.csv")}
            for row in panel:
                bar = bars[row["date"]]
                log = (Decimal(float(bar["high"])) / Decimal(float(bar["low"]))).ln()
                published = Decimal(float(row[column])) * factor / 10**4
                assert abs(Fraction(published - log)) <= LOG_RANGE_BOUND, (column, row["date"])
