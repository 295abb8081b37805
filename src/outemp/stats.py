"""Descriptive statistics, composite-normal Anderson-Darling test, and
fit metrics (RMSE, MAPE, R^2)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError


@dataclass(frozen=True)
class DescriptiveSummary:
    """Sample summary. ``skewness``/``excess_kurtosis`` are None for a
    constant sample (undefined, not NaN)."""

    mean: float
    median: float
    sd: float
    skewness: float | None
    excess_kurtosis: float | None
    min: float
    max: float
    n: int

    @property
    def moments_defined(self) -> bool:
        return self.skewness is not None


@dataclass(frozen=True)
class NormalityTestResult:
    a_squared: float
    p_value: float

    @property
    def reject_at_5pct(self) -> bool:
        return self.p_value < 0.05


@dataclass(frozen=True)
class FitMetrics:
    rmse: float
    mape_pct: float
    r_squared: float


def describe(values) -> DescriptiveSummary:
    """Descriptive summary of a sample.

    sd uses the n-1 denominator; skewness and excess kurtosis use biased
    central moments (m3/m2^1.5 and m4/m2^2 - 3).
    """
    x = np.asarray(values, dtype=float)
    if x.size == 0:
        raise InputError("cannot describe an empty sequence")
    d = x - x.mean()
    m2 = float(np.mean(d ** 2))
    if m2 == 0.0:
        skew = kurt = None
        sd = 0.0
    else:
        # Standardize before taking moments so tiny-scale samples don't
        # underflow in m2**2.
        z = d / math.sqrt(m2)
        skew = float(np.mean(z ** 3))
        kurt = float(np.mean(z ** 4)) - 3.0
        sd = float(np.std(x, ddof=1)) if x.size > 1 else 0.0
    return DescriptiveSummary(
        mean=float(x.mean()),
        median=float(np.median(x)),
        sd=sd,
        skewness=skew,
        excess_kurtosis=kurt,
        min=float(x.min()),
        max=float(x.max()),
        n=int(x.size),
    )


def anderson_darling_normal(values) -> NormalityTestResult:
    """Anderson-Darling test of normality with estimated mean/variance.

    The statistic is corrected for sample size, A2* = A2 (1 + 0.75/n +
    2.25/n^2), and the p-value comes from the Stephens piecewise
    exponential approximation for the composite-normal case. p-values are
    clipped to [0, 1]; values below ~1e-3 are outside the approximation's
    resolution and render as "< 0.001" in reports.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    if n < 8:
        raise InputError("Anderson-Darling test needs at least 8 observations")
    sd = float(np.std(x, ddof=1))
    if sd == 0.0:
        raise InputError("Anderson-Darling test undefined for zero variance")
    # Imported here: only this test needs scipy, and importing it at
    # module level would add its start-up time to every command.
    from scipy.special import log_ndtr

    y = (x - x.mean()) / sd
    i = np.arange(1, n + 1)
    # log CDF / log survival keep the tails finite for extreme samples.
    a2 = -n - float(np.mean((2 * i - 1) * (log_ndtr(y) + log_ndtr(-y[::-1]))))
    a2_star = a2 * (1.0 + 0.75 / n + 2.25 / n ** 2)
    return NormalityTestResult(a_squared=a2, p_value=_ad_p_value(a2_star))


def _ad_p_value(a2_star: float) -> float:
    if a2_star >= 0.6:
        p = math.exp(1.2937 - 5.709 * a2_star + 0.0186 * a2_star ** 2)
    elif a2_star > 0.34:
        p = math.exp(0.9177 - 4.279 * a2_star - 1.38 * a2_star ** 2)
    elif a2_star > 0.2:
        p = 1.0 - math.exp(-8.318 + 42.796 * a2_star - 59.938 * a2_star ** 2)
    else:
        p = 1.0 - math.exp(-13.436 + 101.14 * a2_star - 223.73 * a2_star ** 2)
    return min(max(p, 0.0), 1.0)


def _paired(obs, pred) -> tuple[np.ndarray, np.ndarray]:
    o = np.asarray(obs, dtype=float)
    p = np.asarray(pred, dtype=float)
    if o.size != p.size:
        raise InputError(f"length mismatch: {o.size} observations vs {p.size} predictions")
    if o.size == 0:
        raise InputError("empty sequences")
    return o, p


def rmse(obs, pred) -> float:
    """Root mean squared error."""
    o, p = _paired(obs, pred)
    return float(np.sqrt(np.mean((o - p) ** 2)))


def mape(obs, pred) -> float:
    """Mean absolute percentage error, in percent.

    Undefined when any observation is zero; use RMSE/R^2 instead for such
    data.
    """
    o, p = _paired(obs, pred)
    if np.any(o == 0.0):
        raise InputError(
            "MAPE undefined: an observation is exactly 0; use RMSE/R^2 instead")
    return 100.0 * float(np.mean(np.abs((o - p) / o)))


def r_squared(obs, pred) -> float:
    """Coefficient of determination; negative for worse-than-mean predictors."""
    o, p = _paired(obs, pred)
    if o.size < 2:
        raise InputError("R^2 needs at least 2 observations")
    sst = float(np.sum((o - o.mean()) ** 2))
    if sst == 0.0:
        raise InputError("R^2 undefined for constant observations")
    return 1.0 - float(np.sum((o - p) ** 2)) / sst


def fit_metrics(obs, pred) -> FitMetrics:
    return FitMetrics(rmse=rmse(obs, pred), mape_pct=mape(obs, pred),
                      r_squared=r_squared(obs, pred))


def format_p_value(p: float) -> str:
    return "<0.001" if p < 0.001 else f"{p:.3f}"
