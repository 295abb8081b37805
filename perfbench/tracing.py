"""Spans around the package's public functions, installed from outside.

Each function is wrapped at the name its caller looks up (a caller that
did `from .seasonal import fit_seasonal_mean` looks it up in its own
module), so the package itself is not edited. Spans are kept in memory as
(op, name, start, end, parent, error) and written out when the run ends. A
span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import importlib
import json
import tracemalloc
import types
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, attribute, span name). A name missing at some commit is
# skipped and reported, and its layer then reads 0.
TARGETS = [
    ("outemp.cli", "main", "cli.main"),
    ("outemp.cli", "parse_csv", "series.parse_csv"),
    ("outemp.cli", "strip_leap_days", "series.strip_leap_days"),
    ("outemp.cli", "serialize_csv", "series.serialize_csv"),
    ("outemp.series", "parse_csv", "series.parse_csv"),
    ("outemp.series", "strip_leap_days", "series.strip_leap_days"),
    ("outemp.series", "serialize_csv", "series.serialize_csv"),
    ("outemp.pipeline", "fit_full_model", "pipeline.fit_full_model"),
    ("outemp.pipeline", "report_to_dict", "pipeline.report_to_dict"),
    ("outemp.pipeline", "report_from_dict", "pipeline.report_from_dict"),
    ("outemp.pipeline", "fit_seasonal_mean", "seasonal.fit_seasonal_mean"),
    ("outemp.pipeline", "residuals", "seasonal.residuals"),
    ("outemp.meanrev", "residuals", "seasonal.residuals"),
    ("outemp.pipeline", "monthly_quadratic_variation",
     "volatility.monthly_quadratic_variation"),
    ("outemp.pipeline", "fit_volatility_model", "volatility.fit_volatility_model"),
    ("outemp.pipeline", "estimate_kappa", "meanrev.estimate_kappa"),
    ("outemp.pipeline", "describe", "stats.describe"),
    ("outemp.pipeline", "anderson_darling_normal", "stats.anderson_darling_normal"),
    ("outemp.pipeline", "simulate_paths", "simulate.simulate_paths"),
    ("outemp.simulate", "simulate_paths", "simulate.simulate_paths"),
    ("outemp.simulate", "generate_synthetic_series",
     "simulate.generate_synthetic_series"),
]


class _NumpyView(types.ModuleType):
    """Stands in for `np` inside the CLI module so that its percentile
    calls, and only those, get a span."""

    def __getattr__(self, name):
        return getattr(np, name)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [op, name, start, end, parent, error]
        self.stack: list[int] = []
        self.op = -1
        self.first_span = 0
        self.counts: dict[str, int] = defaultdict(int)
        self.measure_alloc = False
        self.peak_alloc_bytes = 0
        self.installed: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- spans ---------------------------------------------------------

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            span = [tracer.op, name, 0.0, 0.0, parent, None]
            tracer.spans.append(span)
            tracer.stack.append(len(tracer.spans) - 1)
            alloc = tracer.measure_alloc and name == "simulate.simulate_paths"
            if alloc:
                tracemalloc.start()
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = f"{type(exc).__name__}:{getattr(exc, 'stage', None)}"
                raise
            finally:
                span[3] = perf_counter()
                tracer.stack.pop()
                if alloc:
                    tracer.peak_alloc_bytes = max(tracer.peak_alloc_bytes,
                                                  tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            tracer._count(name, args, kwargs, result)
            return result

        return traced

    def _count(self, name, args, kwargs, result):
        if name == "series.parse_csv":
            self.counts["series.rows"] += len(result)
        elif name == "simulate.simulate_paths":
            for a in (*args, *kwargs.values()):
                if hasattr(a, "n_paths") and hasattr(a, "n_days"):
                    self.counts["simulate.path_days"] += a.n_paths * a.n_days

    # -- install -------------------------------------------------------

    def install(self):
        self.missing = []
        for modname, attr, name in TARGETS:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            self.installed.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(name, fn))
        cli = importlib.import_module("outemp.cli")
        if getattr(cli, "np", None) is np:
            view = _NumpyView("numpy")
            view.percentile = self.wrap("cli.percentile", np.percentile)
            self.installed.append((cli, "np", np))
            cli.np = view
        else:
            self.missing.append("outemp.cli.np")

    def uninstall(self):
        for mod, attr, fn in reversed(self.installed):
            setattr(mod, attr, fn)
        self.installed.clear()

    # -- per-op aggregation ------------------------------------------

    def begin_op(self, op: int):
        self.op = op
        self.counts = defaultdict(int)
        self.first_span = len(self.spans)

    def op_summary(self) -> dict:
        """Inclusive and self seconds per span name, counts and failures
        of the op begun last."""
        spans = self.spans[self.first_span:]
        base = self.first_span
        child_time = defaultdict(float)
        for s in spans:
            if s[4] is not None:
                child_time[s[4]] += s[3] - s[2]
        inclusive, self_time = defaultdict(float), defaultdict(float)
        failures = defaultdict(int)
        for i, s in enumerate(spans):
            inclusive[s[1]] += s[3] - s[2]
            self_time[s[1]] += s[3] - s[2] - child_time[base + i]
            if s[1] == "pipeline.fit_full_model":
                self.counts["pipeline.fits_attempted"] += 1
                if s[5] and s[5].startswith("EstimationError"):
                    failures[s[5].split(":", 1)[1]] += 1
        return {"inclusive": dict(inclusive), "self": dict(self_time),
                "counts": dict(self.counts), "failures": dict(failures)}

    def write(self, path: str):
        keys = ("op", "name", "start", "end", "parent", "error")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"missing_targets": self.missing,
                       "spans": [dict(zip(keys, s)) for s in self.spans]}, fh)
