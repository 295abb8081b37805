import datetime as dt
import math

import numpy as np
import pytest

from outemp import EstimationError
from outemp.meanrev import estimate_kappa, estimating_function
from outemp.seasonal import SeasonalMeanParams, evaluate_seasonal_mean
from outemp.series import TemperatureSeries, leap_free_calendar
from outemp.volatility import MonthlyVolatility, MonthlyVolatilitySeries

FLAT = SeasonalMeanParams(0.0, 0.0, 0.0, 0.0, 0.0)


def estimating_terms_scale(resid, weights, kappa):
    """Sum of the magnitudes of the estimating sum's terms: the scale of
    its zero check."""
    r_prev, r_next = resid[:-1], resid[1:]
    return float(np.sum(np.abs(weights * r_prev * (r_next - r_prev * math.exp(-kappa)))))


def series_from_temps(temps, start=dt.date(2001, 1, 1)):
    return TemperatureSeries(dates=leap_free_calendar(start, len(temps)).dates,
                             temps=np.asarray(temps, float))


def kappa_for(series, seasonal, vols):
    """estimate_kappa on the residuals and month index of ``series``."""
    month_id = leap_free_calendar(series.dates[0], len(series)).month_id
    resid = series.temps - evaluate_seasonal_mean(seasonal, np.arange(len(series)))
    return estimate_kappa(resid, month_id, vols)


def constant_vols_for(series, sigma=1.0):
    months = []
    for d in series.dates.tolist():
        if (d.year, d.month) not in months:
            months.append((d.year, d.month))
    return MonthlyVolatilitySeries(entries=tuple(
        MonthlyVolatility(y, m, sigma) for y, m in months))


class TestEstimateKappa:
    def test_exact_geometric_decay(self):
        temps = 0.9 ** np.arange(120)
        s = series_from_temps(temps)
        est = kappa_for(s, FLAT, constant_vols_for(s))
        assert est.kappa_t == pytest.approx(-math.log(0.9), abs=1e-12)
        assert est.g_at_kappa == pytest.approx(0.0, abs=1e-12)
        assert est.n_terms == 119

    def test_weight_scale_invariance(self):
        rng = np.random.default_rng(8)
        temps = np.empty(400)
        temps[0] = 1.0
        for j in range(1, 400):
            temps[j] = 0.85 * temps[j - 1] + rng.normal()
        s = series_from_temps(temps)
        k1 = kappa_for(s, FLAT, constant_vols_for(s, sigma=1.0)).kappa_t
        k2 = kappa_for(s, FLAT, constant_vols_for(s, sigma=2.5)).kappa_t
        assert k1 == pytest.approx(k2, rel=1e-12)

    def test_g_bracketing(self):
        rng = np.random.default_rng(9)
        temps = np.empty(600)
        temps[0] = 0.0
        for j in range(1, 600):
            temps[j] = 0.8 * temps[j - 1] + rng.normal()
        s = series_from_temps(temps)
        est = kappa_for(s, FLAT, constant_vols_for(s))
        resid = s.temps
        w = np.ones(len(s) - 1)
        scale = estimating_terms_scale(resid, w, est.kappa_t)
        assert abs(estimating_function(resid, w, est.kappa_t)) <= 1e-8 * scale
        lo = estimating_function(resid, w, est.kappa_t - 0.05)
        hi = estimating_function(resid, w, est.kappa_t + 0.05)
        assert lo < 0 < hi

    def test_anti_persistent_residuals_error(self):
        temps = np.array([1.0, -1.0] * 60)
        s = series_from_temps(temps)
        with pytest.raises(EstimationError) as exc:
            kappa_for(s, FLAT, constant_vols_for(s))
        assert exc.value.ratio is not None and exc.value.ratio <= 0

    def test_non_mean_reverting_error(self):
        temps = 1.01 ** np.arange(200) - 1.0 + 0.001
        s = series_from_temps(temps)
        with pytest.raises(EstimationError, match="not mean-reverting"):
            kappa_for(s, FLAT, constant_vols_for(s))

    def test_zero_volatility_month_error(self):
        temps = 0.9 ** np.arange(60)
        s = series_from_temps(temps)
        with pytest.raises(EstimationError, match="zero volatility"):
            kappa_for(s, FLAT, constant_vols_for(s, sigma=0.0))

    def test_refit_after_constant_shift_invariant(self):
        from outemp.seasonal import fit_seasonal_mean
        from outemp.volatility import monthly_quadratic_variation
        rng = np.random.default_rng(10)
        n = 730
        t = np.arange(n)
        base = 25.0 + 1.5 * np.sin(2 * np.pi * t / 365)
        dev = np.empty(n)
        dev[0] = 0.0
        for j in range(1, n):
            dev[j] = 0.83 * dev[j - 1] + 0.9 * rng.normal()
        s0 = series_from_temps(base + dev)
        s1 = series_from_temps(base + dev + 4.0)
        calendar = leap_free_calendar(s0.dates[0], len(s0))   # s1's too
        k0 = kappa_for(s0, fit_seasonal_mean(s0.temps)[0], monthly_quadratic_variation(
            s0.temps, calendar.month_id, calendar.months)).kappa_t
        k1 = kappa_for(s1, fit_seasonal_mean(s1.temps)[0], monthly_quadratic_variation(
            s1.temps, calendar.month_id, calendar.months)).kappa_t
        assert k0 == pytest.approx(k1, rel=1e-9)

    def test_daily_adjustment_fraction(self):
        temps = 0.9 ** np.arange(60)
        s = series_from_temps(temps)
        est = kappa_for(s, FLAT, constant_vols_for(s))
        assert est.daily_adjustment_fraction == pytest.approx(0.1, abs=1e-12)
