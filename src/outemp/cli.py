"""Command-line interface.

Subcommands: describe, fit, simulate, evaluate, synth. All randomized
commands take an explicit --seed (default 0, never wall-clock). Exit
codes: 0 success, 1 error, 2 input error, 3 estimation failure.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import sys

import numpy as np

from . import pipeline, simulate, stats
from .errors import EstimationError, InputError
from .seasonal import SeasonalMeanParams
from .series import float_rows, parse_csv, serialize_csv, strip_leap_days
from .volatility import VolatilityModelParams

# Reference parameter set used by `synth` when no report is supplied.
DEFAULT_SEASONAL = SeasonalMeanParams(a_t=26.4, b_t=-7.58e-5, c_t=1.75,
                                      psi=0.531, r_squared_fit=0.5062)
DEFAULT_KAPPA_T = 0.1872
DEFAULT_VOL = VolatilityModelParams(sigma_bar=0.877, sigma_sigma=0.419,
                                    kappa_sigma=0.989)

# Most values `_day_rows` formats at once: a whole 1000-path block
# would hold about 20 MB of reprs, and larger chunks write no faster.
CHUNK_VALUES = 2 ** 12


def _load_series(path: str):
    # utf-8-sig drops the byte-order mark that spreadsheets write.
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            raw = parse_csv(fh.read())
        except UnicodeDecodeError as exc:
            raise InputError(f"CSV is not UTF-8 text: {exc}") from None
    stripped = strip_leap_days(raw)
    return stripped, len(raw) - len(stripped)


def _describe_lines(name: str, d: stats.DescriptiveSummary,
                    nt: stats.NormalityTestResult | None) -> list[str]:
    fmt = lambda v: "undefined" if v is None else f"{v:.4g}"
    a2 = "n/a" if nt is None else f"{nt.a_squared:.4g}"
    p = "n/a" if nt is None else stats.format_p_value(nt.p_value)
    return [
        f"{name}",
        f"  Mean      {d.mean:10.4g}    Max        {d.max:10.4g}",
        f"  Median    {d.median:10.4g}    Min        {d.min:10.4g}",
        f"  SD        {d.sd:10.4g}    Skew       {fmt(d.skewness):>10}",
        f"  Kurtosis  {fmt(d.excess_kurtosis):>10}    A2 statistic {a2:>8}",
        f"  p-value (5%)  {p}",
    ]


def run_describe(args) -> int:
    series, _ = _load_series(args.input)
    lines = [f"n_obs: {len(series)}  span: {series.dates[0]} .. {series.dates[-1]}"]
    payload = {"n_obs": len(series)}
    for key, name, values in [("temperature", "Temperature (degC)", series.temps),
                              ("precipitation", "Precipitation (mm)", series.precip)]:
        summary = normality = None
        if values is not None:
            summary = stats.describe(values)
            with contextlib.suppress(InputError):   # too few or constant values
                normality = stats.anderson_darling_normal(values)
            lines += _describe_lines(name, summary, normality)
        payload[key] = None if summary is None else vars(summary)
        payload[f"{key}_normality"] = (None if normality is None else
                                       {**vars(normality),
                                        "reject_at_5pct": normality.reject_at_5pct})
    if args.out:
        with _output_files(args.out), open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
    print("\n".join(lines))
    return 0


@contextlib.contextmanager
def _output_files(*paths):
    """Checks that each of ``paths`` (None for an absent one) opens for
    writing and is not the file of an earlier one, before the body writes
    any of them, so that one bad path leaves every file as it was. If a
    check or the body fails, the files this run created are removed."""
    created, opened = [], []
    try:
        for path in filter(None, paths):
            existed = os.path.exists(path)
            open(path, "a", encoding="utf-8").close()   # creates, never truncates
            if not existed:   # the file, not a dangling symlink to it
                created.append(os.path.realpath(path))
            for earlier in opened:
                if os.path.samefile(earlier, path):
                    raise InputError(f"output paths {earlier} and {path} are one file")
            opened.append(path)
        yield
    except BaseException:
        for path in created:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


def run_fit(args) -> int:
    series, removed = _load_series(args.input)
    report = pipeline.fit_full_model(series, leap_days_removed=removed)
    with _output_files(args.out, args.vols_csv):
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(pipeline.report_to_dict(report), fh, indent=2)
        if args.vols_csv:
            with open(args.vols_csv, "w", encoding="utf-8") as fh:
                vols = report.monthly_vols
                fh.write("year,month,sigma\n")
                fh.write(float_rows("".join(f"{e.year},{e.month}\n" for e in vols.entries),
                                    vols.sigmas[:, np.newaxis]))
    s = report.seasonal
    print("Seasonal mean function")
    print(f"  a_T    {s.a_t:.6g}")
    print(f"  b_T    {s.b_t:.6g}")
    print(f"  c_T    {s.c_t:.6g}")
    print(f"  psi    {s.psi:.6g}")
    print(f"  R^2    {s.r_squared_fit:.4f}")
    print("Volatility process")
    print(f"  sigma_bar    {report.vol.sigma_bar:.6g}")
    print(f"  sigma_sigma  {report.vol.sigma_sigma:.6g}")
    print(f"  kappa_sigma  {report.vol.kappa_sigma:.6g}")
    print("Mean reversion")
    print(f"  kappa_T                    {report.kappa.kappa_t:.6g}")
    print(f"  daily adjustment fraction  {report.kappa.daily_adjustment_fraction:.4f}")
    if unstable := report.model.unstable():
        print(f"note: {unstable}; simulate and evaluate will refuse this report",
              file=sys.stderr)
    return 0


def _load_report(path: str) -> pipeline.FitReport:
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:   # bad UTF-8 or JSON, or an int of > 4300 digits
            raise InputError(f"invalid report JSON: {exc}") from None
        except RecursionError:   # json.load's recursion, on deep nesting
            raise InputError("invalid report JSON: nested too deeply") from None
    return pipeline.report_from_dict(payload)


def run_simulate(args) -> int:
    report = _load_report(args.report)
    model, start = report.model, report.meta.start
    config = simulate.SimulationConfig(n_paths=args.paths, n_days=args.days, master_seed=args.seed,
                                       t0_temp=simulate.evaluate_seasonal_mean(model.seasonal, 0))
    # Formatted block by block, while a forked drawer draws the next block,
    # and written only once every block is summarized: an ensemble that
    # overflows leaves every file as it was.
    summary = list(_day_rows("mean,sd,p05,p95", simulate.summary_blocks(model, config, start)))
    with _output_files(args.out, args.full_paths):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(summary)
        if args.full_paths:
            # A second pass: the seeding contract makes the replay exact.
            _write_day_rows(args.full_paths,
                            ",".join(f"path_{p}" for p in range(args.paths)),
                            simulate.day_blocks(model, config, start))
    return 0


def _day_rows(columns: str, blocks):
    """The text of a `day,<columns>` CSV of the rows of ``(first_day, 2-D
    array)`` blocks, in pieces that :func:`float_rows` formats from at most
    CHUNK_VALUES values each."""
    yield f"day,{columns}\n"
    for first, rows in blocks:
        step = max(1, CHUNK_VALUES // rows.shape[1])
        for i in range(0, len(rows), step):
            days = range(first + i, first + min(i + step, len(rows)))
            yield float_rows("".join(f"{d}\n" for d in days), rows[i:i + step])
        # Released before the blocks' source makes the next block.
        del rows


def _write_day_rows(path: str, columns: str, blocks) -> None:
    """Write :func:`_day_rows` to ``path`` as it is made."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_day_rows(columns, blocks))


def run_evaluate(args) -> int:
    series, removed = _load_series(args.input)
    report = pipeline.fit_full_model(series, leap_days_removed=removed)
    metrics = pipeline.evaluate_model(series, report, n_paths=args.paths,
                                      seed=args.seed)
    print(json.dumps({"rmse": metrics.rmse, "mape_pct": metrics.mape_pct,
                      "r2": metrics.r_squared}, indent=2))
    if metrics.mape_pct is None:
        print("note: MAPE undefined: an observation is exactly 0 degC; "
              "use rmse and r2", file=sys.stderr)
    return 0


def run_synth(args) -> int:
    if args.report:
        report = _load_report(args.report)
        seasonal, kappa_t, vol = report.seasonal, report.kappa.kappa_t, report.vol
    else:
        seasonal, kappa_t, vol = DEFAULT_SEASONAL, DEFAULT_KAPPA_T, DEFAULT_VOL
    if args.sigma_override is not None:
        vol = args.sigma_override
    series = simulate.generate_synthetic_series(
        seasonal, kappa_t, vol, start_year=args.start_year,
        n_years=args.years, seed=args.seed)
    with _output_files(args.out), open(args.out, "w", encoding="utf-8") as fh:
        fh.write(serialize_csv(series))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="outemp",
        description="Mean-reverting daily temperature model: fit, simulate, "
                    "evaluate.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="descriptive statistics + normality test")
    p.add_argument("--input", required=True)
    p.add_argument("--out", help="optional JSON output path")
    p.set_defaults(func=run_describe)

    p = sub.add_parser("fit", help="fit the full model, write a report JSON")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--vols-csv", help="optional monthly volatility CSV path")
    p.set_defaults(func=run_fit)

    p = sub.add_parser("simulate", help="Monte Carlo ensemble from a report")
    p.add_argument("--report", required=True)
    p.add_argument("--paths", type=int, default=1000)
    p.add_argument("--days", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--full-paths", help="also write the full path matrix CSV here")
    p.set_defaults(func=run_simulate)

    p = sub.add_parser("evaluate", help="fit + score against the mean simulated path")
    p.add_argument("--input", required=True)
    p.add_argument("--paths", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=run_evaluate)

    p = sub.add_parser("synth", help="generate a synthetic daily series CSV")
    p.add_argument("--report", help="report JSON to take parameters from")
    p.add_argument("--years", type=int, default=24)
    p.add_argument("--start-year", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sigma-override", type=float, default=None,
                   help="constant volatility override (0 disables noise)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=run_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ChildProcessError as exc:   # an OSError, but not the input's
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InputError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except EstimationError as exc:
        print(f"estimation failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        sizes = " or ".join(f"--{name}" for name in ("paths", "days") if name in vars(args))
        print("input error: not enough memory for this "
              + (f"ensemble; lower {sizes}" if sizes else "input"), file=sys.stderr)
        return 2


def script() -> int:
    """The process entry, of ``python -m outemp.cli`` and the ``outemp``
    script: :func:`main` on the command line, after ``gc.freeze()`` has
    moved every object the imports made (numpy's, mostly) out of the
    collector's reach. No collection walks them again, the interpreter's
    last ones at exit included. :func:`main` itself leaves the collector
    as it is, for the callers that run it inside their own process."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(script())
