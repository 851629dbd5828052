"""The class rule of pegrisk: a dataclass checks its fields, and a result that checks nothing is a named tuple.

A table or a config is a frozen dataclass whose ``__post_init__`` checks its fields, its own or the one it
inherits from ``marketdata.Table`` or ``simkit._ModelConfig``. A result record is a ``typing.NamedTuple``: it
unpacks and indexes, equals the tuple of its values, and is copied with ``_replace`` and read with ``_asdict``.
"""

import dataclasses
import importlib
import pkgutil

import numpy as np
import pytest

import pegrisk
from pegrisk.marketdata import Table
from pegrisk.pegmodel import Ar1Fit, RollingAr1
from pegrisk.simkit import _ModelConfig

MODULES = [importlib.import_module(f"pegrisk.{module.name}") for module in pkgutil.iter_modules(pegrisk.__path__)]

# the frozen dataclasses of the package, each a table or a config
CHECKED = {
    "features.Panel",
    "marketdata.AlignedSeries",
    "marketdata.BarSeries",
    "pegmodel.ProbSeries",
    "simkit.FixtureConfig",
    "simkit.SimConfig",
    "simkit._ModelConfig",
}

# record -> its fields, in the order they had as dataclasses
RECORDS = {
    "marketdata.JoinReport": ("matched", "dropped_spot", "dropped_futures"),
    "pegmodel.Ar1Fit": ("rho", "stderr", "n"),
    "pegmodel.RollingAr1": ("fits", "rho_mean"),
    "econometrics.SummaryRow": ("name", "count", "mean", "std", "min", "q25", "q50", "q75", "max"),
    "econometrics.RegressionResult": ("names", "coefficients", "hc0_stderr", "t_stats", "stars", "r_squared", "n"),
    "simkit.SimResult": ("mc_futures", "mc_stderr", "default_count"),
    "simkit.RecoveredProb": ("p", "stderr", "sim"),
    "simkit.FixtureSet": ("spot", "futures", "btc"),
}


def _defined(test) -> dict[str, type]:
    """Classes defined in the package's modules that pass ``test``, by ``module.name``."""
    return {
        f"{module.__name__.removeprefix('pegrisk.')}.{name}": value
        for module in MODULES
        for name, value in vars(module).items()
        if isinstance(value, type) and value.__module__ == module.__name__ and test(value)
    }


def test_every_dataclass_checks_its_fields():
    found = _defined(dataclasses.is_dataclass)
    assert set(found) == CHECKED
    for name, cls in found.items():
        assert cls.__dataclass_params__.frozen, name
        owner = next((base for base in cls.__mro__ if "__post_init__" in vars(base)), None)
        assert owner in (cls, Table, _ModelConfig), name


def test_every_record_is_a_named_tuple_with_its_former_fields():
    found = _defined(lambda cls: issubclass(cls, tuple))
    assert set(found) == set(RECORDS)
    for name, cls in found.items():
        assert cls._fields == RECORDS[name] and not dataclasses.is_dataclass(cls), name
        assert not cls.__doc__.startswith(f"{cls.__name__}("), name  # its own docstring, not the generated one


def test_a_record_unpacks_indexes_and_equals_its_tuple():
    fit = Ar1Fit(rho=0.5, stderr=0.1, n=30)
    rho, stderr, n = fit
    assert (rho, stderr, n) == (fit[0], fit[1], fit[2]) == (0.5, 0.1, 30)
    assert fit == (0.5, 0.1, 30)
    assert fit._replace(n=31) == Ar1Fit(0.5, 0.1, 31) and fit.n == 30
    assert fit._asdict() == {"rho": 0.5, "stderr": 0.1, "n": 30}
    with pytest.raises(AttributeError):
        fit.rho = 0.6
    rolling = RollingAr1(fits=np.array([0.25, 0.75]), rho_mean=0.5)
    assert rolling.fits is rolling[0] and rolling.rho_mean == 0.5
