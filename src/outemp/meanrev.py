"""Temperature mean-reversion rate via a martingale estimating function.

One-day transitions of the de-seasonalized temperature satisfy
E[T(j) | T(j-1)] = m(j) + (T(j-1) - m(j-1)) * exp(-kappa), where m is the
seasonal mean. Weighting each transition by the inverse squared monthly
volatility of the lagged day gives an estimating equation whose exact
zero is the closed form

    kappa = -log( sum w r_{j-1} r_j / sum w r_{j-1}^2 )

with r the seasonal residuals. The caller derives r and the month index
once per fit. The estimating-function value at the estimate is kept as a
diagnostic; it must vanish up to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EstimationError
from .stats import lag1_rate
from .volatility import MonthlyVolatilitySeries


@dataclass(frozen=True)
class MeanReversionEstimate:
    kappa_t: float      # per day
    g_at_kappa: float   # estimating-function value at kappa_t
    n_terms: int

    @property
    def daily_adjustment_fraction(self) -> float:
        """Fraction of a deviation removed per day, 1 - exp(-kappa)."""
        return 1.0 - math.exp(-self.kappa_t)


def estimating_function(resid: np.ndarray, weights: np.ndarray,
                        kappa: float) -> float:
    """Weighted estimating sum sum_j w_j r_{j-1} (r_j - r_{j-1} e^-kappa).

    ``weights`` has one entry per transition (length len(resid) - 1).
    """
    r_prev = resid[:-1]
    r_next = resid[1:]
    return float(np.sum(weights * r_prev * (r_next - r_prev * math.exp(-kappa))))


def transition_weights(month_id: np.ndarray, vols: MonthlyVolatilitySeries) -> np.ndarray:
    """1 / sigma^2(month of day j-1) for each transition j, where day j
    lies in month ``vols.entries[month_id[j]]``."""
    sigma = vols.sigmas[month_id[:-1]]
    if np.any(sigma <= 0.0):
        e = vols.entries[month_id[np.argmax(sigma <= 0.0)]]
        raise EstimationError(
            f"zero volatility in month {e.year}-{e.month:02d}; "
            "transition weights undefined", stage="mean_reversion")
    return 1.0 / sigma ** 2


def estimate_kappa(resid: np.ndarray, month_id: np.ndarray,
                   vols: MonthlyVolatilitySeries) -> MeanReversionEstimate:
    """Closed-form zero of the weighted estimating equation in ``resid``."""
    w = transition_weights(month_id, vols)
    kappa = lag1_rate(resid, w, "mean_reversion", "residuals",
                      "all lagged residuals are zero")
    return MeanReversionEstimate(
        kappa_t=kappa,
        g_at_kappa=estimating_function(resid, w, kappa),
        n_terms=w.size,
    )
