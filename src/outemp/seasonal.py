"""Seasonal mean function fit.

The deterministic level around which daily temperature reverts is

    m(t) = a + b*t + c*sin(2*pi*t/365 + psi)

fitted by ordinary least squares on the linearization with regressors
[1, t, sin(2*pi*t/365), cos(2*pi*t/365)], after which amplitude and
phase are recovered from the two harmonic coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import EstimationError, InputError
from .series import DAYS_PER_YEAR
from .stats import r_squared


@dataclass(frozen=True)
class SeasonalMeanParams:
    """Fitted mean-function parameters.

    a_t: mean level (degC); b_t: linear trend (degC/day); c_t: seasonal
    amplitude (degC, >= 0); psi: phase (radians, in (-pi, pi]);
    r_squared_fit: R^2 of the fit against the observations.
    """

    a_t: float
    b_t: float
    c_t: float
    psi: float
    r_squared_fit: float


def design_matrix(n: int) -> np.ndarray:
    t = np.arange(n, dtype=float)
    phase = 2.0 * np.pi * t / DAYS_PER_YEAR
    return np.column_stack([np.ones(n), t, np.sin(phase), np.cos(phase)])


def ols_fit(temps: np.ndarray) -> tuple[float, float, float, float]:
    """The four coefficients of the least-squares solve via orthogonal
    factorization (QR/SVD, not the normal equations, for conditioning)."""
    n = len(temps)
    if n < 5:
        raise InputError("need at least 5 observations to fit 4 parameters")
    x = design_matrix(n)
    beta, _, rank, _ = np.linalg.lstsq(x, temps, rcond=None)
    if rank < 4:
        raise EstimationError("rank-deficient seasonal design matrix",
                              stage="seasonal")
    return tuple(float(b) for b in beta)


def recover_amplitude_phase(beta2: float, beta3: float) -> tuple[float, float]:
    """Amplitude and phase from the sin/cos coefficients.

    c = hypot(beta2, beta3) >= 0 and psi = atan2(beta3, beta2), which is
    quadrant-safe (agrees with the naive arctan(beta3/beta2) when
    beta2 > 0) and keeps psi in (-pi, pi].
    """
    if beta2 == 0.0 and beta3 == 0.0:
        raise EstimationError("amplitude undefined: both harmonic coefficients are zero",
                              stage="seasonal")
    c = math.hypot(beta2, beta3)
    psi = math.atan2(beta3, beta2)
    if psi == -math.pi:
        psi = math.pi
    return c, psi


def fit_seasonal_mean(temps: np.ndarray) -> tuple[SeasonalMeanParams, np.ndarray]:
    """Fit the seasonal mean function to the temperatures of a
    leap-stripped series, indexed by day, and return it with the
    residuals, observed minus m(t), from the one evaluation of m."""
    b0, b1, b2, b3 = ols_fit(temps)
    if np.ptp(temps) == 0.0:
        raise EstimationError(
            "observations are constant: no seasonal structure or volatility "
            "to fit (R^2 undefined)", stage="seasonal")
    c, psi = recover_amplitude_phase(b2, b3)
    params = SeasonalMeanParams(a_t=b0, b_t=b1, c_t=c, psi=psi, r_squared_fit=0.0)
    fitted = evaluate_seasonal_mean(params, np.arange(len(temps)))
    return replace(params, r_squared_fit=r_squared(temps, fitted)), temps - fitted


def evaluate_seasonal_mean(params: SeasonalMeanParams, t):
    """m(t) at a day index or array of day indices."""
    t = np.asarray(t, dtype=float)
    out = (params.a_t + params.b_t * t
           + params.c_t * np.sin(2.0 * np.pi * t / DAYS_PER_YEAR + params.psi))
    return float(out) if out.ndim == 0 else out

