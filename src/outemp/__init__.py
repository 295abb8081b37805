"""Mean-reverting stochastic model for daily average temperature.

Fits a seasonal mean, monthly stochastic volatility and a mean-reversion
rate to daily temperature series, simulates Monte Carlo path ensembles,
and evaluates the fit. The package exports what the README's library
example uses; everything else is imported from its submodule.
"""

from .errors import EstimationError, InputError
from .pipeline import (FitReport, evaluate_model, fit_full_model,
                       report_from_dict, report_to_dict)
from .series import TemperatureSeries, parse_csv, strip_leap_days
from .stats import FitMetrics

__version__ = "0.1.0"

__all__ = [
    "EstimationError", "FitMetrics", "FitReport", "InputError",
    "TemperatureSeries", "evaluate_model", "fit_full_model", "parse_csv",
    "report_from_dict", "report_to_dict", "strip_leap_days",
]
