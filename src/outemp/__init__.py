"""Mean-reverting stochastic model for daily average temperature.

Fits a seasonal mean, monthly stochastic volatility and a mean-reversion
rate to daily temperature series, simulates Monte Carlo path ensembles,
and evaluates the fit.
"""

from .errors import EstimationError, InputError
from .meanrev import MeanReversionEstimate, estimate_kappa
from .pipeline import (FitReport, evaluate_model, fit_full_model,
                       report_from_dict, report_to_dict)
from .seasonal import (SeasonalMeanParams, evaluate_seasonal_mean, fit_seasonal_mean,
                       recover_amplitude_phase, residuals)
from .series import TemperatureSeries, parse_csv, serialize_csv, strip_leap_days
from .simulate import (SimulatedEnsemble, SimulationConfig,
                       generate_synthetic_series, simulate_paths)
from .stats import (DescriptiveSummary, FitMetrics, NormalityTestResult,
                    anderson_darling_normal, describe, mape, r_squared, rmse)
from .volatility import (MonthlyVolatility, MonthlyVolatilitySeries,
                         VolatilityModelParams, estimate_kappa_sigma,
                         estimate_sigma_bar, estimate_sigma_sigma,
                         fit_volatility_model, monthly_quadratic_variation)

__version__ = "0.1.0"

__all__ = [
    "DescriptiveSummary", "EstimationError", "FitMetrics", "FitReport",
    "InputError", "MeanReversionEstimate", "MonthlyVolatility",
    "MonthlyVolatilitySeries", "NormalityTestResult",
    "SeasonalMeanParams", "SimulatedEnsemble", "SimulationConfig",
    "TemperatureSeries", "VolatilityModelParams", "anderson_darling_normal",
    "describe", "estimate_kappa",
    "estimate_kappa_sigma", "estimate_sigma_bar", "estimate_sigma_sigma",
    "evaluate_model", "evaluate_seasonal_mean", "fit_full_model",
    "fit_seasonal_mean", "fit_volatility_model", "generate_synthetic_series",
    "mape", "monthly_quadratic_variation", "parse_csv", "r_squared",
    "recover_amplitude_phase", "report_from_dict", "report_to_dict",
    "residuals", "rmse", "serialize_csv", "simulate_paths",
    "strip_leap_days",
]
