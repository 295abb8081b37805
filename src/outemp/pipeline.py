"""Full model fit orchestration and report (de)serialization.

Estimation order: seasonal mean by OLS, residuals, monthly volatilities
by quadratic variation, volatility process parameters, then the
mean-reversion rate with monthly inverse-variance weights. Evaluation
simulates an ensemble over the observed span and scores the observations
against the mean path.
"""

from __future__ import annotations

import datetime as dt
import reprlib
import sys
from dataclasses import dataclass

from .errors import EstimationError, InputError
from .meanrev import MeanReversionEstimate, estimate_kappa
from .seasonal import SeasonalMeanParams, fit_seasonal_mean
from .series import TemperatureSeries, is_leap_day, on_leap_free_calendar, parse_iso_date
from .simulate import Model, SimulationConfig, simulate_paths
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

    @property
    def model(self) -> Model:
        """The fitted model, as the simulator takes it."""
        return Model(self.seasonal, self.kappa.kappa_t, self.vol)


def fit_full_model(series: TemperatureSeries,
                   leap_days_removed: int = 0) -> FitReport:
    """Fit every model stage on a leap-stripped series, deriving the
    residuals once and taking the month index from the cached leap-free
    calendar, for the stages that use them.

    A series that is not that calendar from its first date, one with a
    Feb 29 or a gap, raises InputError, and so does one too short to fit.
    Estimation failures propagate as EstimationError labeled with the
    failing stage.
    """
    calendar = on_leap_free_calendar(series.dates)
    if calendar is None:
        raise InputError("series has a Feb 29 or a gap; fit a series that "
                         "strip_leap_days returns")
    seasonal, resid = fit_seasonal_mean(series.temps)
    vols = monthly_quadratic_variation(series.temps, calendar.month_id, calendar.months)
    vol_params = fit_volatility_model(vols)
    kappa = estimate_kappa(resid, calendar.month_id, vols)
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
                   n_paths: int, seed: int) -> FitMetrics:
    """RMSE/MAPE/R^2 of the observations against the mean simulated path.

    The ensemble runs the fitted model over the observed span from
    T(0) = the first observation, with calendar-month volatility
    switching. MAPE is None when an observation is exactly 0. A fitted
    kappa_t the Euler day step cannot take raises EstimationError.
    """
    if n_paths < 2:
        raise InputError("evaluation needs at least 2 paths")
    model = report.model
    if unstable := model.unstable():
        raise EstimationError(unstable, stage="mean_reversion")
    config = SimulationConfig(n_paths=n_paths, n_days=len(series),
                              master_seed=seed, t0_temp=float(series.temps[0]))
    ensemble = simulate_paths(model, config, series.dates[0])
    return fit_metrics(series.temps, ensemble.mean_path)


# --- JSON-friendly (de)serialization -----------------------------------

# The JSON keys of each dataclass a report is read into, in field order.
_JSON_KEYS = {cls: tuple("r2" if name == "r_squared_fit" else name
                         for name in cls.__dataclass_fields__)
              for cls in (SeasonalMeanParams, MeanReversionEstimate,
                          VolatilityModelParams, MonthlyVolatility,
                          DescriptiveSummary, NormalityTestResult, ReportMeta)}
# Report fields that may be null: a constant sample's moments, the legacy
# "metrics" MAPE and "meta.eval_seed". No other value may be null.
_NULLABLE = {"skewness", "excess_kurtosis", "mape_pct", "eval_seed"}
_FLOAT_MAX = sys.float_info.max


def _number(key: str, value):
    """``value`` if it is a float, or an int and not a bool, within the
    finite floats, or a null that _NULLABLE allows; else InputError."""
    if ((type(value) is int or isinstance(value, float))
            and abs(value) <= _FLOAT_MAX or value is None and key in _NULLABLE):
        return value
    raise InputError(f"report field {key!r} is not a finite number: "
                     f"{reprlib.repr(value)}")


def _from_json(cls, d, **dates):
    """A ``cls`` from the JSON object ``d``: each key of _JSON_KEYS[cls] is
    one of ``dates`` or a :func:`_number`, and no other key is read."""
    if not isinstance(d, dict):
        raise InputError(f"report {cls.__name__} is not a JSON object: "
                         f"{reprlib.repr(d)}")
    return cls(*[dates[k] if k in dates else _number(k, d[k]) for k in _JSON_KEYS[cls]])


def report_to_dict(report: FitReport) -> dict:
    """Plain-dict form of a report. Each object holds a shallow copy of
    its dataclass's fields, except that r_squared_fit is "r2", kappa's
    fields sit at the top level with the daily_adjustment_fraction
    property second, and meta writes ISO dates and schema_version.
    "metrics" and "meta.eval_seed" are always null."""
    seasonal = vars(report.seasonal).copy()
    seasonal["r2"] = seasonal.pop("r_squared_fit")   # the last field
    kappa = vars(report.kappa).copy()
    precip = report.descriptive_precip
    return {
        "seasonal": seasonal,
        "kappa_t": kappa.pop("kappa_t"),
        "daily_adjustment_fraction": report.kappa.daily_adjustment_fraction,
        **kappa,
        "vol": vars(report.vol).copy(),
        "monthly_vols": [vars(e).copy() for e in report.monthly_vols.entries],
        "descriptive": {
            "temperature": vars(report.descriptive_temp).copy(),
            "precipitation": None if precip is None else vars(precip).copy(),
        },
        "normality": {
            "temperature": vars(report.normality_temp).copy(),
            "residuals": vars(report.normality_residuals).copy(),
        },
        "metrics": None,
        "meta": {
            **vars(report.meta),
            "start": report.meta.start.isoformat(),
            "end": report.meta.end.isoformat(),
            "eval_seed": None,
            "schema_version": SCHEMA_VERSION,
        },
    }


def report_from_dict(d: dict) -> FitReport:
    """Inverse of :func:`report_to_dict`; bad payloads raise InputError.
    Each value is checked by the field that reads it; other keys are
    ignored. A filled "metrics" and "meta.eval_seed" must hold finite
    numbers or null, and are then ignored too."""
    if not isinstance(d, dict) or not isinstance(d.get("meta"), dict):
        raise InputError("report JSON must be an object with a 'meta' object")
    meta, metrics = d["meta"], d.get("metrics")
    if (version := meta.get("schema_version")) != SCHEMA_VERSION:
        raise InputError(f"unsupported report schema_version {version!r}; "
                         f"expected {SCHEMA_VERSION}")
    if not isinstance(metrics, (dict, type(None))):
        raise InputError(f"report 'metrics' is not a JSON object: {reprlib.repr(metrics)}")
    if not isinstance(vols := d.get("monthly_vols"), list):
        raise InputError(f"report 'monthly_vols' is not a JSON list: {reprlib.repr(vols)}")
    for key, value in [*(metrics or {}).items(), ("eval_seed", meta.get("eval_seed"))]:
        _number(key, value)
    try:
        report = FitReport(
            seasonal=_from_json(SeasonalMeanParams, d["seasonal"]),
            kappa=_from_json(MeanReversionEstimate, d),
            vol=_from_json(VolatilityModelParams, d["vol"]),
            monthly_vols=MonthlyVolatilitySeries(entries=tuple(
                _from_json(MonthlyVolatility, e) for e in vols)),
            descriptive_temp=_from_json(DescriptiveSummary, d["descriptive"]["temperature"]),
            descriptive_precip=(None if (precip := d["descriptive"]["precipitation"]) is None
                                else _from_json(DescriptiveSummary, precip)),
            normality_temp=_from_json(NormalityTestResult, d["normality"]["temperature"]),
            normality_residuals=_from_json(NormalityTestResult, d["normality"]["residuals"]),
            meta=_from_json(ReportMeta, meta, start=parse_iso_date(meta["start"]),
                            end=parse_iso_date(meta["end"])),
        )
    except KeyError as exc:
        raise InputError(f"report has no field {exc}") from None
    except InputError:
        raise
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed report: {exc}") from None
    if is_leap_day(report.meta.start):
        raise InputError(f"report meta.start {report.meta.start} falls on "
                         "Feb 29, which the leap-free calendar skips")
    return report
