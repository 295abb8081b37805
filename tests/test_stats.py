import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from outemp import EstimationError, InputError
from outemp.meanrev import estimate_kappa
from outemp.series import TemperatureSeries, leap_free_calendar
from outemp.stats import (_ad_p_value, _log_ndtr_both, anderson_darling_normal, describe,
                          fit_metrics, format_p_value, lag1_rate, mape, r_squared, rmse)
from outemp.volatility import (MonthlyVolatility, MonthlyVolatilitySeries,
                               estimate_kappa_sigma)

finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)


class TestDescribe:
    def test_hand_moments(self):
        d = describe([1, 2, 3, 4])
        assert d.mean == 2.5
        assert d.median == 2.5
        assert d.sd == pytest.approx(1.29099, abs=1e-5)
        assert d.skewness == pytest.approx(0.0, abs=1e-12)
        assert d.excess_kurtosis == pytest.approx(-1.36, abs=1e-12)
        assert d.min == 1 and d.max == 4

    def test_constant_flagged_undefined(self):
        d = describe([5, 5, 5])
        assert d.sd == 0.0
        assert d.skewness is None
        assert d.excess_kurtosis is None

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            describe([])

    def test_even_n_median_averages_central_pair(self):
        assert describe([1, 2, 10, 20]).median == 6.0

    @given(st.lists(finite_floats, min_size=2, max_size=30))
    def test_permutation_invariant(self, xs):
        a, b = describe(xs), describe(sorted(xs))
        assert a.mean == pytest.approx(b.mean, rel=1e-9, abs=1e-9)
        assert a.sd == pytest.approx(b.sd, rel=1e-9, abs=1e-9)
        assert a.median == b.median

    def test_affine_equivariance(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=200)
        a, b = -2.5, 7.0
        d0, d1 = describe(x), describe(a * x + b)
        assert d1.mean == pytest.approx(a * d0.mean + b, abs=1e-9)
        assert d1.sd == pytest.approx(abs(a) * d0.sd, rel=1e-12)
        assert d1.skewness == pytest.approx(np.sign(a) * d0.skewness, rel=1e-9)
        assert d1.excess_kurtosis == pytest.approx(d0.excess_kurtosis, rel=1e-9)


def bits(value) -> bytes:
    return np.float64(value).tobytes()


class TestDescribeIsNumpysArithmetic:
    """describe centers once, yet gives np.mean, np.std(ddof=1) and
    np.median bit for bit."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 365, 366, 8760, 8761])
    def test_odd_and_even_sizes(self, n):
        x = np.random.default_rng(n).normal(26.0, 1.5, n)
        d = describe(x)
        assert bits(d.mean) == bits(np.mean(x))
        assert bits(d.sd) == bits(np.std(x, ddof=1))
        assert bits(d.median) == bits(np.median(x))

    @given(st.lists(finite_floats, min_size=2, max_size=40))
    def test_any_sample(self, xs):
        d = describe(xs)
        assert bits(d.sd) == bits(np.std(xs, ddof=1))
        assert bits(d.median) == bits(np.median(xs))

    @pytest.mark.parametrize("x", [[-1.0, -0.0, 2.0], [-1.0, -0.0, -0.0, 2.0]])
    def test_negative_zero_middle_gives_positive_zero(self, x):
        assert bits(np.median(x)) == bits(0.0)
        assert bits(describe(x).median) == bits(0.0)

    @pytest.mark.parametrize("x", [[1.0, math.nan, 3.0], [math.nan, 1.0, 2.0, 3.0],
                                   [math.nan]])
    def test_nan_median_stays_nan(self, x):
        assert math.isnan(np.median(x))
        assert math.isnan(describe(x).median)


class TestAndersonDarling:
    def test_standardizes_as_np_std(self):
        x = np.random.default_rng(5).normal(26.0, 1.5, 8760)
        s = np.sort(x)
        log_cdf, log_sf = _log_ndtr_both((s - s.mean()) / np.std(s, ddof=1))
        i = np.arange(1, x.size + 1)
        a2 = -x.size - float(np.mean((2 * i - 1) * (log_cdf + log_sf[::-1])))
        assert anderson_darling_normal(x).a_squared == a2

    def test_normal_sample_not_rejected(self):
        x = np.random.default_rng(42).standard_normal(500)
        res = anderson_darling_normal(x)
        assert res.p_value > 0.05
        assert not res.reject_at_5pct

    def test_exponential_sample_rejected(self):
        x = np.random.default_rng(42).exponential(size=500)
        res = anderson_darling_normal(x)
        assert res.reject_at_5pct
        assert res.p_value < 0.001

    def test_affine_invariance(self):
        x = np.random.default_rng(3).standard_normal(100)
        a = anderson_darling_normal(x)
        b = anderson_darling_normal(3.0 * x + 10.0)
        assert a.a_squared == pytest.approx(b.a_squared, rel=1e-9)

    def test_too_few_points(self):
        with pytest.raises(InputError):
            anderson_darling_normal([1.0, 2.0, 3.0])

    def test_zero_variance(self):
        with pytest.raises(InputError):
            anderson_darling_normal([1.0] * 20)

    def test_reject_flag_matches_p(self):
        x = np.random.default_rng(11).standard_normal(60)
        res = anderson_darling_normal(x)
        assert res.reject_at_5pct == (res.p_value < 0.05)


    def test_point_beyond_erfc_underflow_keeps_a_squared_finite(self):
        # The outlier standardizes to about 65 sd, where erfc underflows
        # to 0 and only the far-tail series gives its log CDF.
        x = np.append(np.random.default_rng(8).standard_normal(8759), 90.0)
        res = anderson_darling_normal(x)
        assert np.isfinite(res.a_squared)
        assert res.reject_at_5pct

    def test_p_value_never_rises_with_a_squared(self):
        p = [_ad_p_value(a) for a in np.linspace(0.0, 5000.0, 50_001)]
        assert np.all(np.diff(p) <= 0.0)
        assert 0.0 < p[-1] < 1e-180


class TestLogNdtr:
    def test_matches_scipy_on_grid(self):
        special = pytest.importorskip("scipy.special")
        # Steps of 0.001 over [-60, 60] cover log1p(-q), log(q), the
        # far-tail series from |y| = 20 out, and both tails of each.
        y = np.arange(-60_000, 60_001) / 1000.0
        assert {-20.0, 20.0} <= set(y.tolist())
        log_cdf, log_sf = _log_ndtr_both(y)
        # Below the smallest normal double (|y| > 37.5 on the upper side)
        # both are subnormal and keep no relative precision.
        tiny = np.finfo(float).tiny
        np.testing.assert_allclose(log_cdf, special.log_ndtr(y), rtol=1e-12, atol=tiny)
        np.testing.assert_allclose(log_sf, special.log_ndtr(-y), rtol=1e-12, atol=tiny)
        assert np.all(np.isfinite(log_cdf)) and np.all(np.isfinite(log_sf))


class TestMetrics:
    def test_rmse_identity(self):
        assert rmse([1, 2, 3], [1, 2, 3]) == 0.0

    def test_rmse_hand(self):
        assert rmse([1, 2, 3], [1, 2, 5]) == pytest.approx(np.sqrt(4 / 3))

    def test_rmse_length_mismatch(self):
        with pytest.raises(InputError):
            rmse([1, 2], [1])

    @pytest.mark.parametrize("metric", [rmse, mape, r_squared])
    def test_empty_sequences(self, metric):
        with pytest.raises(InputError, match="^empty sequences$"):
            metric([], [])

    def test_mape_identity(self):
        assert mape([10, 20], [10, 20]) == 0.0

    def test_mape_hand(self):
        assert mape([10, 20], [11, 18]) == pytest.approx(10.0)

    def test_mape_zero_obs(self):
        with pytest.raises(InputError, match="RMSE"):
            mape([0.0, 1.0], [1.0, 1.0])

    def test_r_squared_identity(self):
        assert r_squared([1, 2, 3], [1, 2, 3]) == 1.0

    def test_r_squared_null_model(self):
        obs = [1.0, 2.0, 3.0, 6.0]
        assert r_squared(obs, [3.0] * 4) == pytest.approx(0.0, abs=1e-12)

    def test_r_squared_constant_obs(self):
        with pytest.raises(InputError):
            r_squared([2, 2, 2], [1, 2, 3])

    def test_r_squared_one_observation(self):
        with pytest.raises(InputError, match="at least 2 observations"):
            r_squared([2.0], [1.0])

    def test_r_squared_rmse_relation(self):
        rng = np.random.default_rng(5)
        obs = rng.normal(size=50)
        pred = obs + rng.normal(scale=0.3, size=50)
        n = obs.size
        sst = np.sum((obs - obs.mean()) ** 2)
        assert r_squared(obs, pred) == pytest.approx(
            1 - rmse(obs, pred) ** 2 * n / sst, rel=1e-12)

    def test_fit_metrics_bundle(self):
        m = fit_metrics([10.0, 20.0], [11.0, 18.0])
        assert m.mape_pct == pytest.approx(10.0)
        assert m.rmse == pytest.approx(np.sqrt(2.5))

    def test_fit_metrics_mape_none_for_zero_observation(self):
        m = fit_metrics([0.0, 20.0], [1.0, 18.0])
        assert m.mape_pct is None
        assert m.rmse == pytest.approx(np.sqrt(2.5))
        assert m.r_squared == r_squared([0.0, 20.0], [1.0, 18.0])


def test_format_p_value():
    assert format_p_value(0.0005) == "<0.001"
    assert format_p_value(0.25) == "0.250"


class TestLag1Rate:
    @pytest.mark.parametrize("x, ratio", [
        ([1.0, -1.0, 1.0, -1.0], -1.0),
        ([1.0, 2.0, 4.0], 2.0),
    ], ids=["ratio-below-0", "ratio-above-1"])
    def test_ratio_outside_unit_interval(self, x, ratio):
        with pytest.raises(EstimationError, match="lag-1 ratio") as exc:
            lag1_rate(np.array(x), 1.0, "some_stage", "deviations", "all zero")
        assert exc.value.stage == "some_stage"
        assert exc.value.ratio == ratio
        assert str(exc.value).startswith("[some_stage] deviations ")

    def test_zero_denominator(self):
        with pytest.raises(EstimationError) as exc:
            lag1_rate(np.array([0.0, 0.0, 3.0]), np.array([1.0, 2.0]),
                      "some_stage", "deviations", "all lagged deviations are zero")
        assert exc.value.stage == "some_stage" and exc.value.ratio is None
        assert str(exc.value) == "[some_stage] all lagged deviations are zero"

    def test_both_estimators_are_minus_log_of_the_ratio(self):
        rng = np.random.default_rng(3)
        x = np.empty(400)
        x[0] = 1.0
        for j in range(1, 400):
            x[j] = 0.7 * x[j - 1] + rng.normal()
        # Residuals about a zero mean are the temperatures themselves, and
        # a constant monthly sigma of 2.5 weighs every transition 0.16.
        dates = leap_free_calendar(dt.date(2001, 1, 1), 400).dates
        series = TemperatureSeries(dates=dates, temps=x)
        months = sorted({(d.year, d.month) for d in series.dates.tolist()})
        vols = MonthlyVolatilitySeries(entries=tuple(
            MonthlyVolatility(y, m, 2.5) for y, m in months))
        w = np.full(399, 1.0 / 2.5 ** 2)
        ratio = float(np.sum(w * x[:-1] * x[1:])) / float(np.sum(w * x[:-1] * x[:-1]))
        month_id = leap_free_calendar(series.dates[0], len(series)).month_id
        assert estimate_kappa(series.temps, month_id, vols).kappa_t == -math.log(ratio)

        sigmas = 1.0 + 0.1 * x[:40]
        entries = tuple(MonthlyVolatility(2000 + i // 12, i % 12 + 1, s)
                        for i, s in enumerate(sigmas.tolist()))
        d = sigmas - 0.9
        ratio = float(np.sum(d[:-1] * d[1:])) / float(np.sum(d[:-1] * d[:-1]))
        assert estimate_kappa_sigma(MonthlyVolatilitySeries(entries=entries),
                                    0.9) == -math.log(ratio)
