import datetime as dt
import math

import numpy as np
import pytest

from outemp import EstimationError, TemperatureSeries
from outemp.seasonal import (SeasonalMeanParams, design_matrix, evaluate_seasonal_mean,
                             fit_seasonal_mean, ols_fit, recover_amplitude_phase,
                             residuals)
from outemp.stats import r_squared
from outemp.series import leap_free_days


def series_from_temps(temps, start=dt.date(2001, 1, 1)):
    return TemperatureSeries(dates=leap_free_days(start, len(temps)),
                             temps=np.asarray(temps, float))


def model_series(a, b, c, psi, n, noise=None):
    t = np.arange(n)
    y = a + b * t + c * np.sin(2 * np.pi * t / 365 + psi)
    if noise is not None:
        y = y + noise
    return series_from_temps(y)


class TestRecoverAmplitudePhase:
    def test_pure_cosine_coefficient(self):
        assert recover_amplitude_phase(1.0, 0.0) == (1.0, 0.0)

    def test_reference_coefficients(self):
        c, psi = recover_amplitude_phase(1.509, 0.886)
        assert c == pytest.approx(1.75, abs=5e-3)
        assert psi == pytest.approx(0.531, abs=1e-3)

    def test_quadrant_correctness(self):
        c, psi = recover_amplitude_phase(-1.0, 0.0)
        assert c == 1.0
        assert psi == math.pi

    def test_both_zero(self):
        with pytest.raises(EstimationError):
            recover_amplitude_phase(0.0, 0.0)

    def test_amplitude_never_negative(self):
        for b2, b3 in [(-1, 1), (1, -1), (-2, -3), (0.1, 5)]:
            c, psi = recover_amplitude_phase(b2, b3)
            assert c >= 0
            assert -math.pi < psi <= math.pi
            assert c * math.cos(psi) == pytest.approx(b2, abs=1e-10)
            assert c * math.sin(psi) == pytest.approx(b3, abs=1e-10)


class TestFitSeasonalMean:
    def test_noiseless_exact(self):
        s = model_series(2.0, 0.0, 1.0, 0.0, 730)
        p = fit_seasonal_mean(s)
        assert p.a_t == pytest.approx(2.0, abs=1e-10)
        assert p.b_t == pytest.approx(0.0, abs=1e-10)
        assert p.c_t == pytest.approx(1.0, abs=1e-10)
        assert p.psi == pytest.approx(0.0, abs=1e-10)
        assert p.r_squared_fit == pytest.approx(1.0, abs=1e-10)

    def test_residual_mean_zero(self):
        rng = np.random.default_rng(1)
        s = model_series(20.0, 1e-4, 2.0, 0.8, 1200,
                         noise=rng.normal(scale=1.5, size=1200))
        p = fit_seasonal_mean(s)
        assert abs(residuals(s, p).mean()) < 1e-9

    def test_constant_shift_invariance(self):
        rng = np.random.default_rng(2)
        noise = rng.normal(scale=1.0, size=800)
        s0 = model_series(20.0, 0.0, 1.5, 0.3, 800, noise=noise)
        s1 = series_from_temps(s0.temps + 5.0)
        p0, p1 = fit_seasonal_mean(s0), fit_seasonal_mean(s1)
        assert p1.a_t == pytest.approx(p0.a_t + 5.0, abs=1e-9)
        assert p1.b_t == pytest.approx(p0.b_t, abs=1e-9)
        assert p1.c_t == pytest.approx(p0.c_t, abs=1e-9)
        assert p1.psi == pytest.approx(p0.psi, abs=1e-9)

    def test_too_short(self):
        with pytest.raises(EstimationError):
            fit_seasonal_mean(series_from_temps([1.0, 2.0, 3.0, 4.0]))

    def test_r_squared_matches_stats_module(self):
        rng = np.random.default_rng(3)
        s = model_series(25.0, 0.0, 1.0, 0.5, 600,
                         noise=rng.normal(scale=1.0, size=600))
        p = fit_seasonal_mean(s)
        fitted = evaluate_seasonal_mean(p, np.arange(len(s)))
        assert p.r_squared_fit == r_squared(s.temps, fitted)

    def test_normal_equations_oracle(self):
        rng = np.random.default_rng(4)
        s = model_series(25.0, 5e-5, 1.8, 0.4, 900,
                         noise=rng.normal(scale=1.2, size=900))
        sol = ols_fit(s)
        x = design_matrix(len(s))
        beta_ne = np.linalg.solve(x.T @ x, x.T @ s.temps)
        assert np.allclose(sol.beta, beta_ne, atol=1e-8)
        # Residuals orthogonal to every regressor column.
        r = s.temps - x @ np.array(sol.beta)
        scale = np.linalg.norm(s.temps) * np.linalg.norm(x, axis=0)
        assert np.all(np.abs(x.T @ r) / scale < 1e-6)


class TestEvaluateSeasonalMean:
    def test_reference_day_zero(self):
        p = SeasonalMeanParams(26.4, -7.58e-5, 1.75, 0.531, 0.5062)
        assert evaluate_seasonal_mean(p, 0) == pytest.approx(
            26.4 + 1.75 * math.sin(0.531), abs=1e-12)
        assert evaluate_seasonal_mean(p, 0) == pytest.approx(27.286, abs=2e-3)

    def test_zero_params(self):
        p = SeasonalMeanParams(0.0, 0.0, 0.0, 0.0, 0.0)
        assert evaluate_seasonal_mean(p, 123) == 0.0

    def test_pure_trend(self):
        p = SeasonalMeanParams(10.0, 1.0, 0.0, 0.0, 0.0)
        assert evaluate_seasonal_mean(p, 5) == 15.0

    def test_year_shift_adds_trend_only(self):
        p = SeasonalMeanParams(26.0, -7.58e-5, 1.75, 0.531, 0.5)
        for t in (0, 17, 200):
            delta = (evaluate_seasonal_mean(p, t + 365)
                     - evaluate_seasonal_mean(p, t))
            assert delta == pytest.approx(365 * p.b_t, abs=1e-9)


class TestResiduals:
    def test_exact_model_zero_residuals(self):
        p = SeasonalMeanParams(20.0, 1e-4, 1.0, 0.2, 1.0)
        t = np.arange(500)
        s = series_from_temps(evaluate_seasonal_mean(p, t))
        assert np.all(np.abs(residuals(s, p)) < 1e-12)

    def test_constant_offset(self):
        p = SeasonalMeanParams(20.0, 0.0, 1.0, 0.2, 1.0)
        t = np.arange(400)
        s = series_from_temps(evaluate_seasonal_mean(p, t) + 0.5)
        assert np.allclose(residuals(s, p), 0.5, atol=1e-12)
