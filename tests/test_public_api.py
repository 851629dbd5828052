"""The public top-level names of each pegrisk module, pinned.

A name is public when a module-level function, class or assignment defines
it and it has no leading underscore; ``ast`` finds them, so what a module
imports does not count. A change that adds or removes a public name updates
``PUBLIC`` and says so in CHANGES.md.
"""

import ast
from pathlib import Path

import pegrisk

PUBLIC = {
    "__init__": set(),
    "cli": {"main", "Terminated"},
    "econometrics": {
        "RegressionResult",
        "SummaryRow",
        "format_regression_table",
        "format_summary_table",
        "ols_hc0",
        "regression_table_csv",
        "run_panel_regressions",
        "summary_stats",
        "summary_table_csv",
    },
    "errors": {
        "AlignmentError",
        "DataQualityWarning",
        "DomainError",
        "EstimationError",
        "InversionError",
        "PegRiskError",
        "SchemaError",
        "ValidationError",
    },
    "features": {"ESTIMATORS", "PARKINSON_FACTOR", "Panel", "build_feature_panel", "daily_returns", "intraday_vol"},
    "marketdata": {
        "AlignedSeries",
        "BLOCK_CHARS",
        "BarSeries",
        "DEFAULT_SCHEMA",
        "Dates",
        "Flags",
        "Floats",
        "JoinReport",
        "ROLES",
        "Table",
        "WRITE_ROWS",
        "align_daily",
        "fmt_float",
        "parse_bars",
        "write_aligned_csv",
        "write_table_csv",
    },
    "pegmodel": {
        "ANNUALIZATIONS",
        "Ar1Fit",
        "DAYS_PER_YEAR",
        "DEFAULTS",  # rho, horizon and recovery defaults, here and not in simkit, which data commands do not load
        "ProbSeries",
        "RAW_PROB_FLOOR",
        "RollingAr1",
        "annualize",
        "check_inversion_domain",
        "check_window",
        "fit_ar1",
        "fit_ar1_rolling",
        "half_life",
        "implied_default_prob",
        "prob_series",
        "theoretical_futures",
        "trim_negative",
        "write_prob_csv",
    },
    "simkit": {
        "FixtureConfig",
        "FixtureSet",
        "PATH_BLOCK",
        "RecoveredProb",
        "SimConfig",
        "SimResult",
        "generate_fixture",
        "roundtrip_invert",
        "simulate_paths",
    },
}


def _public_names(path: Path) -> set[str]:
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            # every name a target binds, as in a tuple; not the object of an attribute or subscript target
            bound = (name for target in targets for name in ast.walk(target) if isinstance(name, ast.Name))
            names |= {name.id for name in bound if isinstance(name.ctx, ast.Store)}
    return {name for name in names if not name.startswith("_")}


def test_each_module_has_its_pinned_public_names():
    modules = sorted(Path(pegrisk.__file__).parent.glob("*.py"))
    found = {path.stem: _public_names(path) for path in modules}
    assert found == PUBLIC
    assert sum(map(len, found.values())) == 68
