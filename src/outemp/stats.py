"""Descriptive statistics, composite-normal Anderson-Darling test, fit
metrics (RMSE, MAPE, R^2), and the lag-1 reversion rate both OU layers
are estimated with.

Only numpy and the standard library are needed. The Anderson-Darling
test takes its log normal CDF and log survival function from one
``math.erfc`` per point and an asymptotic series in the far tail (see
:func:`_log_ndtr_both`), so no command pays for importing scipy. The
tests check them against ``scipy.special.log_ndtr``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EstimationError, InputError


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


@dataclass(frozen=True)
class NormalityTestResult:
    a_squared: float
    p_value: float

    @property
    def reject_at_5pct(self) -> bool:
        return self.p_value < 0.05


@dataclass(frozen=True)
class FitMetrics:
    """``mape_pct`` is None where MAPE is undefined: some observation is
    exactly 0."""

    rmse: float
    mape_pct: float | None
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
        # Products, not z ** 3 and z ** 4: numpy calls pow per element.
        z2 = z * z
        skew = float(np.mean(z2 * z))
        kurt = float(np.mean(z2 * z2)) - 3.0
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
    resolution and render as "< 0.001" in reports. From A2* ~ 153.5, the
    minimum of the approximation, the p-value stays at that minimum
    (~2e-190).
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    if n < 8:
        raise InputError("Anderson-Darling test needs at least 8 observations")
    sd = float(np.std(x, ddof=1))
    if sd == 0.0:
        raise InputError("Anderson-Darling test undefined for zero variance")
    y = (x - x.mean()) / sd
    i = np.arange(1, n + 1)
    log_cdf, log_sf = _log_ndtr_both(y)
    # Logs of the CDF and survival keep the tails finite for extreme samples.
    a2 = -n - float(np.mean((2 * i - 1) * (log_cdf + log_sf[::-1])))
    a2_star = a2 * (1.0 + 0.75 / n + 2.25 / n ** 2)
    return NormalityTestResult(a_squared=a2, p_value=_ad_p_value(a2_star))


# log Phi(-a) comes from the asymptotic series from here out, as in scipy:
# erfc(a/sqrt(2)) loses precision as it nears underflow (a ~ 37.5).
_FAR_TAIL = 20.0
_FAR_TAIL_TERMS = 10    # at a = 20 the 10th term is below 1e-17


def _log_ndtr_both(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log Phi(y) and log Phi(-y), the log normal CDF at y and at -y.

    One q = erfc(|y|/sqrt(2))/2 = Phi(-|y|) per point gives both sides:
    log Phi(|y|) = log1p(-q), and log Phi(-|y|) = log(q) while |y| < 20.
    From |y| = 20 out, log Phi(-|y|) is the asymptotic series of
    Abramowitz & Stegun 26.2.12.
    """
    a = np.abs(y)
    q = 0.5 * np.fromiter(map(math.erfc, (a * math.sqrt(0.5)).tolist()),
                          float, a.size)
    near = a < _FAR_TAIL
    lower = np.empty_like(q)
    np.log(q, out=lower, where=near)
    lower[~near] = _log_ndtr_far_tail(a[~near])
    upper = np.log1p(-q)
    below = y < 0
    return np.where(below, lower, upper), np.where(below, upper, lower)


def _log_ndtr_far_tail(a: np.ndarray) -> np.ndarray:
    """log Phi(-a) for a >= 20: phi(a)/a (1 - 1/a^2 + 1*3/a^4 - ...)."""
    inv_a2 = 1.0 / (a * a)
    total = np.ones_like(a)
    term = np.ones_like(a)
    for k in range(1, _FAR_TAIL_TERMS + 1):
        term *= -(2 * k - 1) * inv_a2
        total += term
    return (-0.5 * a * a - np.log(a) - 0.5 * math.log(2 * math.pi)
            + np.log(total))


# The exponent of the A2* >= 0.6 branch is a parabola with its minimum
# here. Past it the approximation would rise back towards 1 (and overflow
# from A2* ~ 400), so larger statistics keep the p-value of the minimum.
_AD_P_MIN_AT = 5.709 / (2 * 0.0186)


def _ad_p_value(a2_star: float) -> float:
    if a2_star >= 0.6:
        a = min(a2_star, _AD_P_MIN_AT)
        p = math.exp(1.2937 - 5.709 * a + 0.0186 * a ** 2)
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
    o, p = _paired(obs, pred)
    return FitMetrics(rmse=rmse(o, p),
                      mape_pct=mape(o, p) if np.all(o != 0.0) else None,
                      r_squared=r_squared(o, p))


def lag1_rate(x: np.ndarray, w, stage: str, what: str, if_zero: str) -> float:
    """Reversion rate -log(sum w x_{j-1} x_j / sum w x_{j-1}^2) of the
    deviations ``x``, with ``w`` a weight per transition or a scalar. A
    zero denominator, or a ratio outside (0, 1), raises EstimationError
    of ``stage``: ``if_zero``, or a message naming ``what`` with the ratio."""
    lagged = w * x[:-1]
    denom = float(np.sum(lagged * x[:-1]))
    if denom == 0.0:
        raise EstimationError(if_zero, stage=stage)
    ratio = float(np.sum(lagged * x[1:])) / denom
    if ratio <= 0.0:
        raise EstimationError(
            f"{what} anti-persistent (lag-1 ratio {ratio:.6g} <= 0), "
            "log undefined", stage=stage, ratio=ratio)
    if ratio >= 1.0:
        raise EstimationError(
            f"{what} not mean-reverting (lag-1 ratio {ratio:.6g} >= 1)",
            stage=stage, ratio=ratio)
    return -math.log(ratio)


def format_p_value(p: float) -> str:
    return "<0.001" if p < 0.001 else f"{p:.3f}"
