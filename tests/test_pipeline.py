import copy
import re
from pathlib import Path

import numpy as np
import pytest

import outemp
from outemp import (EstimationError, evaluate_model, fit_full_model,
                    report_from_dict, report_to_dict)
from outemp.seasonal import evaluate_seasonal_mean
from outemp.simulate import generate_synthetic_series
from outemp.cli import DEFAULT_KAPPA_T, DEFAULT_SEASONAL, DEFAULT_VOL
from outemp.errors import InputError


@pytest.fixture(scope="module")
def synthetic_series():
    return generate_synthetic_series(DEFAULT_SEASONAL, DEFAULT_KAPPA_T,
                                     DEFAULT_VOL, 2000, 6, seed=0)


@pytest.fixture(scope="module")
def synthetic_report(synthetic_series):
    return fit_full_model(synthetic_series)


class TestFitFullModel:
    def test_recovers_rough_parameters(self, synthetic_report):
        s = synthetic_report.seasonal
        assert s.a_t == pytest.approx(26.4, abs=0.5)
        assert s.c_t == pytest.approx(1.75, abs=0.4)
        assert s.psi == pytest.approx(0.531, abs=0.25)
        assert synthetic_report.kappa.kappa_t == pytest.approx(0.1872, rel=0.5)
        assert synthetic_report.vol.sigma_bar == pytest.approx(0.877, rel=0.2)

    def test_report_completeness(self, synthetic_report, synthetic_series):
        r = synthetic_report
        assert r.meta.n_obs == len(synthetic_series)
        assert r.meta.start == synthetic_series.dates[0]
        assert r.meta.end == synthetic_series.dates[-1]
        assert len(r.monthly_vols) == 6 * 12
        assert r.descriptive_precip is None
        assert r.normality_temp.a_squared >= 0

    def test_deterministic(self, synthetic_series, synthetic_report):
        again = fit_full_model(synthetic_series)
        assert report_to_dict(again) == report_to_dict(synthetic_report)

    def test_noiseless_series_fails_with_stage_label(self):
        s = generate_synthetic_series(DEFAULT_SEASONAL, DEFAULT_KAPPA_T,
                                      DEFAULT_VOL, 2000, 3, seed=0,
                                      constant_vol_override=0.0)
        # Residuals are identically zero; the estimating ratio is 0/0.
        with pytest.raises(EstimationError):
            fit_full_model(s)

    def test_too_short(self):
        import datetime as dt

        from outemp.series import TemperatureSeries
        s = TemperatureSeries(dates=(dt.date(2000, 1, 1), dt.date(2000, 1, 2)),
                              temps=np.array([25.0, 26.0]))
        with pytest.raises(InputError):
            fit_full_model(s)


class TestEvaluateModel:
    def test_zero_noise_matches_seasonal_fit(self, synthetic_series,
                                             synthetic_report):
        t0 = evaluate_seasonal_mean(synthetic_report.seasonal, 0)
        metrics = evaluate_model(synthetic_series, synthetic_report,
                                 n_paths=2, seed=0, t0_temp=t0,
                                 constant_vol_override=0.0)
        assert metrics.r_squared == pytest.approx(
            synthetic_report.seasonal.r_squared_fit, abs=1e-9)

    def test_stochastic_metrics_reasonable(self, synthetic_series,
                                           synthetic_report):
        metrics = evaluate_model(synthetic_series, synthetic_report,
                                 n_paths=200, seed=3)
        assert 0.2 < metrics.r_squared < 0.8
        assert 0.5 < metrics.rmse < 3.0
        assert 0.0 < metrics.mape_pct < 15.0

    def test_needs_two_paths(self, synthetic_series, synthetic_report):
        with pytest.raises(InputError):
            evaluate_model(synthetic_series, synthetic_report, n_paths=1, seed=0)


class TestReportSerialization:
    def test_round_trip(self, synthetic_report):
        d = report_to_dict(synthetic_report)
        assert report_to_dict(report_from_dict(d)) == d

    def test_null_mape_accepted(self, synthetic_report):
        # A filled "metrics" object and "eval_seed" are read and ignored;
        # the report is written back with both null.
        written = report_to_dict(synthetic_report)
        assert written["metrics"] is None and written["meta"]["eval_seed"] is None
        d = copy.deepcopy(written)
        d["metrics"] = {"rmse": 1.5, "mape_pct": None, "r2": 0.4}
        d["meta"]["eval_seed"] = 5
        assert report_to_dict(report_from_dict(d)) == written

    def test_filled_metrics_checked(self, synthetic_report):
        d = report_to_dict(synthetic_report)
        d["metrics"] = {"rmse": float("nan"), "mape_pct": None, "r2": 0.4}
        with pytest.raises(InputError, match="rmse"):
            report_from_dict(d)

    def test_unknown_keys_ignored(self, synthetic_report):
        written = report_to_dict(synthetic_report)
        d = copy.deepcopy(written)

        def add_unknown_keys(node):
            if isinstance(node, dict):
                for value in node.values():
                    add_unknown_keys(value)
                node["unknown_key"] = 1.0
            elif isinstance(node, list):
                for value in node:
                    add_unknown_keys(value)
        add_unknown_keys(d)
        assert d["monthly_vols"][-1]["unknown_key"] == 1.0
        assert d["normality"]["residuals"]["unknown_key"] == 1.0
        assert report_to_dict(report_from_dict(d)) == written

    def test_unknown_schema_version_rejected(self, synthetic_report):
        d = report_to_dict(synthetic_report)
        d["meta"]["schema_version"] = 99
        with pytest.raises(InputError, match="schema_version"):
            report_from_dict(d)

    def test_json_compatible(self, synthetic_report):
        import json
        payload = json.dumps(report_to_dict(synthetic_report))
        assert report_to_dict(report_from_dict(json.loads(payload))) == \
            report_to_dict(synthetic_report)


class TestPublicSurface:
    NAMES = ["EstimationError", "FitMetrics", "FitReport", "InputError",
             "TemperatureSeries", "evaluate_model", "fit_full_model", "parse_csv",
             "report_from_dict", "report_to_dict", "strip_leap_days"]

    def test_all_is_the_eleven_names(self):
        assert sorted(outemp.__all__) == self.NAMES
        assert all(getattr(outemp, name) is not None for name in self.NAMES)
        namespace = {}
        exec("from outemp import *", namespace)
        assert sorted(k for k in namespace if k != "__builtins__") == self.NAMES

    def test_readme_library_example_runs(self):
        root = Path(__file__).parent.parent
        readme = (root / "README.md").read_text(encoding="utf-8")
        library = readme.split("\n## Library\n", 1)[1]
        code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
        csv = root / "tests" / "data" / "synth_4y_seed0.csv"
        namespace = {}
        exec(code.replace('"data.csv"', repr(str(csv))), namespace)
        assert isinstance(namespace["report"], outemp.FitReport)
        assert isinstance(namespace["metrics"], outemp.FitMetrics)
        assert np.isfinite(namespace["metrics"].rmse)
