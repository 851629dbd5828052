"""Spans around calls into pegrisk's public functions, recorded from outside.

``Tracer.installed`` replaces each function named in ``WRAPPED`` by a
wrapper on its module for the duration of a ``with`` block, so every call
that goes through the module attribute (which is how the package calls
its own layers) records a span with a parent link. Self time is a span's
duration minus that of its direct children. Counts are read from each
call's arguments and result at the same boundary.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import time
from dataclasses import dataclass, field


def _trimmed(points) -> int:
    return sum(1 for p in points if p.trimmed or p.p_horizon < 0.0)


def _mc_counts(args, kwargs, result) -> dict[str, int]:
    config = args[0] if args else kwargs["config"]
    n, h = config.n_paths, config.horizon_days
    # arrays simulate_paths allocates: uniform draws (8n) and the default
    # mask (n), the start vector (8n), per step a normal draw, a product and
    # a sum (3 * 8n), then the terminal vector (8n)
    return {"simkit.path_steps": n * h, "simkit.computed_bytes": n + 8 * n * (3 * h + 3)}


# module -> {function: count extractor(args, kwargs, result) -> {metric: n}}
WRAPPED = {
    "cli": {"main": None},
    "marketdata": {
        "parse_bars": lambda a, k, r: {"marketdata.parse_bars_calls": 1, "marketdata.rows_parsed": len(r)},
        "align_daily": lambda a, k, r: {
            "marketdata.rows_matched": r.join_report.matched,
            "marketdata.rows_dropped": r.join_report.dropped_spot + r.join_report.dropped_futures,
        },
        "write_aligned_csv": None,
    },
    "pegmodel": {
        "fit_ar1": None,
        "fit_ar1_rolling": lambda a, k, r: {"pegmodel.rolling_windows": len(r.fits)},
        "prob_series": lambda a, k, r: {"pegmodel.points_trimmed": _trimmed(r)},
        "write_prob_csv": None,
    },
    "features": {
        "build_feature_panel": lambda a, k, r: {"features.panel_rows": len(r)},
        "intraday_vol": None,
        "daily_returns": None,
    },
    "econometrics": {
        "run_panel_regressions": None,
        "ols_hc0": lambda a, k, r: {"econometrics.ols_hc0_calls": 1},
        "summary_stats": None,
        "format_summary_table": None,
        "summary_table_csv": None,
        "format_regression_table": None,
        "regression_table_csv": None,
    },
    "simkit": {"roundtrip_invert": None, "simulate_paths": _mc_counts},
}

# per-layer time metric -> the wrapped functions whose self time it sums
TIME_METRICS = {
    "cli.self_s": ("cli.main",),
    "marketdata.parse_bars_s": ("marketdata.parse_bars",),
    "marketdata.align_daily_s": ("marketdata.align_daily",),
    "marketdata.write_aligned_csv_s": ("marketdata.write_aligned_csv",),
    "pegmodel.fit_ar1_s": ("pegmodel.fit_ar1",),
    "pegmodel.fit_ar1_rolling_s": ("pegmodel.fit_ar1_rolling",),
    "pegmodel.prob_series_s": ("pegmodel.prob_series",),
    "pegmodel.write_prob_csv_s": ("pegmodel.write_prob_csv",),
    "features.build_feature_panel_s": ("features.build_feature_panel",),
    "features.intraday_vol_s": ("features.intraday_vol",),
    "features.daily_returns_s": ("features.daily_returns",),
    "econometrics.run_panel_regressions_s": ("econometrics.run_panel_regressions",),
    "econometrics.ols_hc0_s": ("econometrics.ols_hc0",),
    "econometrics.summary_stats_s": ("econometrics.summary_stats",),
    "econometrics.format_s": (
        "econometrics.format_summary_table",
        "econometrics.summary_table_csv",
        "econometrics.format_regression_table",
        "econometrics.regression_table_csv",
    ),
    "simkit.roundtrip_invert_s": ("simkit.roundtrip_invert",),
    "simkit.simulate_paths_s": ("simkit.simulate_paths",),
}

COUNT_METRICS = (
    "marketdata.parse_bars_calls",
    "marketdata.rows_parsed",
    "marketdata.rows_matched",
    "marketdata.rows_dropped",
    "pegmodel.rolling_windows",
    "pegmodel.points_trimmed",
    "features.panel_rows",
    "econometrics.ols_hc0_calls",
    "simkit.path_steps",
    "simkit.computed_bytes",
)


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    _stack: list[Span] = field(default_factory=list)

    def _wrap(self, qualname, fn, extract):
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), parent.id if parent else None, qualname, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start
            if extract is not None:
                for name, n in extract(args, kwargs, result).items():
                    self.counts[name] = self.counts.get(name, 0) + n
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every function in WRAPPED; restore the originals on exit."""
        saved = []
        try:
            for module_name, functions in WRAPPED.items():
                module = importlib.import_module(f"pegrisk.{module_name}")
                for fn_name, extract in functions.items():
                    original = getattr(module, fn_name)
                    saved.append((module, fn_name, original))
                    setattr(module, fn_name, self._wrap(f"{module_name}.{fn_name}", original, extract))
            yield self
        finally:
            for module, fn_name, original in reversed(saved):
                setattr(module, fn_name, original)

    def root_spans(self) -> list[Span]:
        return [s for s in self.spans if s.parent is None]

    def figures(self) -> dict[str, float]:
        """Self time per time metric and the counts, over every span recorded."""
        self_by_name: dict[str, float] = {}
        for span in self.spans:
            self_by_name[span.name] = self_by_name.get(span.name, 0.0) + span.self_s
        out: dict[str, float] = {
            metric: sum(self_by_name.get(fn, 0.0) for fn in fns) for metric, fns in TIME_METRICS.items()
        }
        out.update({name: self.counts.get(name, 0) for name in COUNT_METRICS})
        return out

    def span_records(self) -> list[dict]:
        return [
            {"id": s.id, "parent": s.parent, "name": s.name, "start": s.start, "end": s.end, "self_s": s.self_s}
            for s in self.spans
        ]


def median_figures(rounds: list[dict[str, float]]) -> dict[str, float]:
    """Median over rounds; counts, the same in every round, stay whole numbers."""
    out = {}
    for name in rounds[0]:
        values = [r[name] for r in rounds]
        out[name] = statistics.median_low(values) if isinstance(values[0], int) else statistics.median(values)
    return out
