import dataclasses
import datetime as dt
import math

import numpy as np
import pytest

from outemp import EstimationError, InputError
from outemp.volatility import (MonthlyVolatility, MonthlyVolatilitySeries,
                               VolatilityModelParams, estimate_kappa_sigma,
                               estimate_sigma_bar, estimate_sigma_sigma,
                               monthly_quadratic_variation)
from outemp.series import TemperatureSeries, leap_free_days


def series_from_temps(temps, start):
    return TemperatureSeries(dates=leap_free_days(start, len(temps)),
                             temps=np.asarray(temps, float))


def vols_from_sigmas(sigmas):
    entries = tuple(MonthlyVolatility(2000 + i // 12, i % 12 + 1, s)
                    for i, s in enumerate(sigmas))
    return MonthlyVolatilitySeries(entries=entries)


class TestMonthlyQuadraticVariation:
    def test_constant_month_zero(self):
        s = series_from_temps([25.0] * 30, dt.date(2001, 4, 1))
        vols = monthly_quadratic_variation(s)
        assert len(vols) == 1
        assert vols.entries[0] == MonthlyVolatility(2001, 4, 0.0)

    def test_alternating_month_unit_sigma(self):
        # 30-day month alternating 0,1: 29 increments of magnitude 1.
        temps = [float(i % 2) + 20.0 for i in range(30)]
        s = series_from_temps(temps, dt.date(2001, 4, 1))
        vols = monthly_quadratic_variation(s)
        assert vols.entries[0].sigma == pytest.approx(1.0, abs=1e-12)

    def test_cross_month_increment_excluded(self):
        # Flat April, flat June-level May: the 10-degree jump at the month
        # boundary must not contaminate either month.
        temps = [20.0] * 30 + [30.0] * 31
        s = series_from_temps(temps, dt.date(2001, 4, 1))
        vols = monthly_quadratic_variation(s)
        assert [e.sigma for e in vols.entries] == [0.0, 0.0]

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        temps = 25.0 + rng.normal(size=61)
        s0 = series_from_temps(temps, dt.date(2001, 3, 1))
        s1 = series_from_temps(temps + 7.0, dt.date(2001, 3, 1))
        a = monthly_quadratic_variation(s0).sigmas
        b = monthly_quadratic_variation(s1).sigmas
        assert np.allclose(a, b, atol=1e-12)

    def test_sigmas_built_once_and_read_only(self):
        vols = vols_from_sigmas([0.5, 1.5, 1.0])
        assert vols.sigmas is vols.sigmas
        assert vols.sigmas.tolist() == [0.5, 1.5, 1.0]
        with pytest.raises(ValueError):
            vols.sigmas[0] = 2.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            vols.sigmas = np.zeros(3)
        with pytest.raises(TypeError):
            MonthlyVolatilitySeries(entries=vols.entries, sigmas=np.zeros(3))
        twin = vols_from_sigmas([0.5, 1.5, 1.0])
        assert twin == vols and hash(twin) == hash(vols)
        assert twin.sigmas is not vols.sigmas

    def test_single_day_month_rejected(self):
        s = series_from_temps([25.0, 25.0, 25.0], dt.date(2001, 3, 30))
        with pytest.raises(InputError, match="2001-04"):
            monthly_quadratic_variation(s)

    def test_chronological_one_entry_per_month(self):
        s = series_from_temps(np.full(365, 25.0), dt.date(2001, 1, 1))
        vols = monthly_quadratic_variation(s)
        assert [(e.year, e.month) for e in vols.entries] == [
            (2001, m) for m in range(1, 13)]


class TestSigmaBar:
    def test_constant(self):
        assert estimate_sigma_bar(vols_from_sigmas([1.0, 1.0, 1.0])) == 1.0

    def test_mean(self):
        assert estimate_sigma_bar(vols_from_sigmas([0.5, 1.5])) == 1.0

    def test_empty(self):
        with pytest.raises(InputError):
            estimate_sigma_bar(MonthlyVolatilitySeries(entries=()))


class TestSigmaSigma:
    def test_constant_is_zero(self):
        assert estimate_sigma_sigma(vols_from_sigmas([0.7] * 5)) == 0.0

    def test_hand_computation(self):
        assert estimate_sigma_sigma(vols_from_sigmas([1.0, 2.0, 1.0])) == 1.0

    def test_too_few(self):
        with pytest.raises(InputError):
            estimate_sigma_sigma(vols_from_sigmas([1.0]))

    def test_shift_invariance(self):
        sig = np.random.default_rng(1).uniform(0.5, 1.5, size=24)
        a = estimate_sigma_sigma(vols_from_sigmas(sig))
        b = estimate_sigma_sigma(vols_from_sigmas(sig + 2.0))
        assert a == pytest.approx(b, rel=1e-12)


class TestKappaSigma:
    def test_exact_geometric_decay(self):
        sigma_bar = 0.877
        d = 0.5 * 0.372 ** np.arange(20)
        kappa = estimate_kappa_sigma(vols_from_sigmas(sigma_bar + d), sigma_bar)
        assert kappa == pytest.approx(-math.log(0.372), abs=1e-12)
        assert kappa == pytest.approx(0.989, abs=2e-3)

    def test_alternating_deviations_error(self):
        vols = vols_from_sigmas([2.0, 0.5, 2.0, 0.5, 2.0])
        with pytest.raises(EstimationError) as exc:
            estimate_kappa_sigma(vols, 1.25)
        assert exc.value.ratio is not None and exc.value.ratio <= 0

    def test_non_mean_reverting_error(self):
        # Growing deviations: ratio > 1.
        vols = vols_from_sigmas([1.1, 1.2, 1.4, 1.8, 2.6])
        with pytest.raises(EstimationError, match="not mean-reverting"):
            estimate_kappa_sigma(vols, 1.0)

    def test_scale_invariance_of_deviations(self):
        rng = np.random.default_rng(2)
        d = 0.6 ** np.arange(15) + rng.normal(scale=0.01, size=15)
        k1 = estimate_kappa_sigma(vols_from_sigmas(1.0 + d), 1.0)
        k2 = estimate_kappa_sigma(vols_from_sigmas(1.0 + 3.0 * d), 1.0)
        assert k1 == pytest.approx(k2, rel=1e-12)

    def test_too_few(self):
        with pytest.raises(InputError):
            estimate_kappa_sigma(vols_from_sigmas([1.0, 1.1]), 1.0)


class TestVolatilityModelParams:
    def test_invariants_enforced(self):
        with pytest.raises(InputError):
            VolatilityModelParams(sigma_bar=0.0, sigma_sigma=0.1, kappa_sigma=1.0)
        with pytest.raises(InputError):
            VolatilityModelParams(sigma_bar=1.0, sigma_sigma=-0.1, kappa_sigma=1.0)
        with pytest.raises(InputError):
            VolatilityModelParams(sigma_bar=1.0, sigma_sigma=0.1, kappa_sigma=0.0)
