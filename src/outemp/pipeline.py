"""Full model fit orchestration and report (de)serialization.

Estimation order: seasonal mean by OLS, residuals, monthly volatilities
by quadratic variation, volatility process parameters, then the
mean-reversion rate with monthly inverse-variance weights. Evaluation
simulates an ensemble over the observed span and scores the observations
against the mean path.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, replace

from .errors import InputError
from .meanrev import MeanReversionEstimate, estimate_kappa
from .seasonal import SeasonalMeanParams, fit_seasonal_mean, residuals
from .series import TemperatureSeries, is_leap_day, parse_iso_date
from .simulate import SimulationConfig, simulate_paths
from .stats import (DescriptiveSummary, FitMetrics, NormalityTestResult,
                    anderson_darling_normal, describe, fit_metrics)
from .volatility import (MonthlyVolatility, MonthlyVolatilitySeries,
                         VolatilityModelParams, fit_volatility_model,
                         monthly_quadratic_variation)

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ReportMeta:
    n_obs: int
    start: dt.date
    end: dt.date
    leap_days_removed: int
    eval_seed: int | None = None


@dataclass(frozen=True)
class FitReport:
    seasonal: SeasonalMeanParams
    kappa: MeanReversionEstimate
    vol: VolatilityModelParams
    monthly_vols: MonthlyVolatilitySeries
    descriptive_temp: DescriptiveSummary
    descriptive_precip: DescriptiveSummary | None
    normality_temp: NormalityTestResult
    normality_residuals: NormalityTestResult
    meta: ReportMeta
    metrics: FitMetrics | None = None


def fit_full_model(series: TemperatureSeries,
                   leap_days_removed: int = 0) -> FitReport:
    """Fit every model stage on a leap-stripped series.

    Estimation failures propagate as EstimationError labeled with the
    failing stage. The metrics field stays None until evaluate_model runs.
    """
    if len(series) < 3:
        raise InputError("series too short to fit")
    seasonal = fit_seasonal_mean(series)
    resid = residuals(series, seasonal)
    vols = monthly_quadratic_variation(series)
    vol_params = fit_volatility_model(vols)
    kappa = estimate_kappa(series, seasonal, vols)
    return FitReport(
        seasonal=seasonal,
        kappa=kappa,
        vol=vol_params,
        monthly_vols=vols,
        descriptive_temp=describe(series.temps),
        descriptive_precip=(describe(series.precip)
                            if series.precip is not None else None),
        normality_temp=anderson_darling_normal(series.temps),
        normality_residuals=anderson_darling_normal(resid),
        meta=ReportMeta(
            n_obs=len(series),
            start=series.dates[0].item(),
            end=series.dates[-1].item(),
            leap_days_removed=leap_days_removed,
        ),
    )


def evaluate_model(series: TemperatureSeries, report: FitReport,
                   n_paths: int, seed: int,
                   t0_temp: float | None = None,
                   constant_vol_override: float | None = None) -> FitMetrics:
    """RMSE/MAPE/R^2 of the observations against the mean simulated path.

    The ensemble runs over the observed span with calendar-month
    volatility switching; T(0) defaults to the first observation. MAPE is
    None when an observation is exactly 0.
    """
    if n_paths < 2:
        raise InputError("evaluation needs at least 2 paths")
    config = SimulationConfig(
        n_paths=n_paths,
        n_days=len(series),
        master_seed=seed,
        t0_temp=float(series.temps[0]) if t0_temp is None else t0_temp,
        sigma0=report.vol.sigma_bar,
        constant_vol_override=constant_vol_override,
    )
    ensemble = simulate_paths(report.seasonal, report.kappa, report.vol,
                              config, series.dates[0])
    return fit_metrics(series.temps, ensemble.mean_path)


def with_metrics(report: FitReport, metrics: FitMetrics,
                 eval_seed: int) -> FitReport:
    return replace(report, metrics=metrics,
                   meta=replace(report.meta, eval_seed=eval_seed))


# --- JSON-friendly (de)serialization -----------------------------------

def _describe_to_dict(d: DescriptiveSummary) -> dict:
    return {"mean": d.mean, "median": d.median, "sd": d.sd,
            "skewness": d.skewness, "excess_kurtosis": d.excess_kurtosis,
            "min": d.min, "max": d.max, "n": d.n}


def _describe_from_dict(d: dict) -> DescriptiveSummary:
    return DescriptiveSummary(**d)


def report_to_dict(report: FitReport) -> dict:
    """Plain-dict form of a report (schema_version in meta)."""
    return {
        "seasonal": {
            "a_t": report.seasonal.a_t,
            "b_t": report.seasonal.b_t,
            "c_t": report.seasonal.c_t,
            "psi": report.seasonal.psi,
            "r2": report.seasonal.r_squared_fit,
        },
        "kappa_t": report.kappa.kappa_t,
        "daily_adjustment_fraction": report.kappa.daily_adjustment_fraction,
        "g_at_kappa": report.kappa.g_at_kappa,
        "n_terms": report.kappa.n_terms,
        "vol": {
            "sigma_bar": report.vol.sigma_bar,
            "sigma_sigma": report.vol.sigma_sigma,
            "kappa_sigma": report.vol.kappa_sigma,
        },
        "monthly_vols": [
            {"year": e.year, "month": e.month, "sigma": e.sigma}
            for e in report.monthly_vols.entries
        ],
        "descriptive": {
            "temperature": _describe_to_dict(report.descriptive_temp),
            "precipitation": (_describe_to_dict(report.descriptive_precip)
                              if report.descriptive_precip else None),
        },
        "normality": {
            "temperature": {"a_squared": report.normality_temp.a_squared,
                            "p_value": report.normality_temp.p_value},
            "residuals": {"a_squared": report.normality_residuals.a_squared,
                          "p_value": report.normality_residuals.p_value},
        },
        "metrics": (None if report.metrics is None else {
            "rmse": report.metrics.rmse,
            "mape_pct": report.metrics.mape_pct,
            "r2": report.metrics.r_squared,
        }),
        "meta": {
            "n_obs": report.meta.n_obs,
            "start": report.meta.start.isoformat(),
            "end": report.meta.end.isoformat(),
            "leap_days_removed": report.meta.leap_days_removed,
            "eval_seed": report.meta.eval_seed,
            "schema_version": SCHEMA_VERSION,
        },
    }


# Report fields that may be null; other scalars but the dates are numbers.
_NULLABLE = {"skewness", "excess_kurtosis", "precipitation", "metrics",
             "mape_pct", "eval_seed"}


def _check_scalars(node, key: str) -> None:
    if isinstance(node, dict):
        for k, value in node.items():
            _check_scalars(value, k)
    elif isinstance(node, list):
        for value in node:
            _check_scalars(value, key)
    elif node is None and key in _NULLABLE or key in ("start", "end"):
        return
    elif (isinstance(node, bool) or not isinstance(node, (int, float))
          or not math.isfinite(node)):
        raise InputError(f"report field {key!r} is not a finite number: {node!r}")


def report_from_dict(d: dict) -> FitReport:
    """Inverse of :func:`report_to_dict`; bad payloads raise InputError."""
    if not isinstance(d, dict) or not isinstance(d.get("meta"), dict):
        raise InputError("report JSON must be an object with a 'meta' object")
    version = d["meta"].get("schema_version")
    if version != SCHEMA_VERSION:
        raise InputError(
            f"unsupported report schema_version {version!r}; "
            f"expected {SCHEMA_VERSION}")
    _check_scalars(d, "report")
    try:
        s, v, desc = d["seasonal"], d["vol"], d["descriptive"]
        metrics = d.get("metrics")
        report = FitReport(
            seasonal=SeasonalMeanParams(a_t=s["a_t"], b_t=s["b_t"], c_t=s["c_t"],
                                        psi=s["psi"], r_squared_fit=s["r2"]),
            kappa=MeanReversionEstimate(kappa_t=d["kappa_t"],
                                        g_at_kappa=d["g_at_kappa"],
                                        n_terms=d["n_terms"]),
            vol=VolatilityModelParams(sigma_bar=v["sigma_bar"],
                                      sigma_sigma=v["sigma_sigma"],
                                      kappa_sigma=v["kappa_sigma"]),
            monthly_vols=MonthlyVolatilitySeries(entries=tuple(
                MonthlyVolatility(year=e["year"], month=e["month"], sigma=e["sigma"])
                for e in d["monthly_vols"])),
            descriptive_temp=_describe_from_dict(desc["temperature"]),
            descriptive_precip=(_describe_from_dict(desc["precipitation"])
                                if desc["precipitation"] else None),
            normality_temp=NormalityTestResult(**d["normality"]["temperature"]),
            normality_residuals=NormalityTestResult(**d["normality"]["residuals"]),
            metrics=(None if metrics is None else FitMetrics(
                rmse=metrics["rmse"], mape_pct=metrics["mape_pct"],
                r_squared=metrics["r2"])),
            meta=ReportMeta(
                n_obs=d["meta"]["n_obs"],
                start=parse_iso_date(d["meta"]["start"]),
                end=parse_iso_date(d["meta"]["end"]),
                leap_days_removed=d["meta"]["leap_days_removed"],
                eval_seed=d["meta"]["eval_seed"],
            ),
        )
    except KeyError as exc:
        raise InputError(f"report has no field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed report: {exc}") from None
    if is_leap_day(report.meta.start):
        raise InputError(f"report meta.start {report.meta.start} falls on "
                         "Feb 29, which the leap-free calendar skips")
    return report
