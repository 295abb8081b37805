import copy
import re
from pathlib import Path

import numpy as np
import pytest

import outemp
from outemp import (EstimationError, evaluate_model, fit_full_model,
                    report_from_dict, report_to_dict)
from outemp.simulate import SimulationConfig, generate_synthetic_series, simulate_paths
from outemp.stats import fit_metrics
from outemp.cli import DEFAULT_KAPPA_T, DEFAULT_SEASONAL, DEFAULT_VOL
from outemp import seasonal, series
from outemp.errors import InputError
from outemp.series import TemperatureSeries


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
                                      0.0, 2000, 3, seed=0)
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


    @pytest.mark.parametrize("dates", [
        np.delete(np.arange(np.datetime64("2001-01-01"), np.datetime64("2002-01-02")), 40),
        np.arange(np.datetime64("2000-01-01"), np.datetime64("2001-01-01")),
    ], ids=["gap", "feb-29"])
    def test_refuses_a_series_off_the_leap_free_calendar(self, dates):
        s = TemperatureSeries(dates=dates, temps=np.full(dates.size, 25.0))
        with pytest.raises(InputError, match="strip_leap_days"):
            fit_full_model(s)

    def test_evaluates_the_seasonal_mean_once(self, synthetic_series, monkeypatch):
        # R^2 and the residuals the later stages take share one m(t).
        sizes, evaluate = [], seasonal.evaluate_seasonal_mean

        def counting(params, t):
            sizes.append(np.size(t))
            return evaluate(params, t)

        monkeypatch.setattr(seasonal, "evaluate_seasonal_mean", counting)
        fit_full_model(synthetic_series)
        assert sizes == [len(synthetic_series)]

    def test_a_second_replicate_reuses_the_calendar(self, monkeypatch):
        # synth -> serialize -> parse -> strip -> fit derives the calendar
        # once; only the reader's date check converts a whole column again,
        # where each stage once derived it for itself (seven conversions).
        def replicate(seed):
            synth = generate_synthetic_series(DEFAULT_SEASONAL, DEFAULT_KAPPA_T,
                                              DEFAULT_VOL, 2000, 24, seed=seed)
            parsed = series.strip_leap_days(series.parse_csv(series.serialize_csv(synth)))
            return fit_full_model(parsed)

        sizes = []
        civil = series._civil

        def counting(dates):
            sizes.append(np.size(dates))
            return civil(dates)

        monkeypatch.setattr(series, "_civil", counting)
        replicate(0)
        sizes.clear()
        replicate(5)
        assert sum(size > 2 for size in sizes) == 1


class TestEvaluateModel:
    def test_scores_the_fitted_ensemble_from_the_first_observation(
            self, synthetic_series, synthetic_report):
        series, report = synthetic_series, synthetic_report
        config = SimulationConfig(200, len(series), 3, float(series.temps[0]))
        ensemble = simulate_paths(report.model, config, series.dates[0])
        assert evaluate_model(series, report, 200, 3) == fit_metrics(
            series.temps, ensemble.mean_path)

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

        def add_unknown_keys(node, unknown):
            if isinstance(node, dict):
                for value in node.values():
                    add_unknown_keys(value, unknown)
                node["unknown_key"] = unknown
            elif isinstance(node, list):
                for value in node:
                    add_unknown_keys(value, unknown)
        # Whatever an unknown key holds; a known key's name inside an
        # unknown object is not read either.
        for unknown in [1.0, "Sunyani", None, [1, "x", None, {}],
                        {"psi": "0.5", "a_t": [], "note": None}]:
            d = copy.deepcopy(written)
            add_unknown_keys(d, unknown)
            assert d["monthly_vols"][-1]["unknown_key"] == unknown
            assert d["normality"]["residuals"]["unknown_key"] == unknown
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
