"""Monthly volatility by quadratic variation and the mean-reverting
volatility process parameters.

Volatility is treated as constant within a calendar month and stochastic
across months. Each month's sigma comes from the quadratic variation of
daily temperature increments whose endpoints both lie in that month;
cross-month increments belong to neither month, and the caller's month
ids (:func:`~outemp.series.leap_free_calendar`) say which month a day is in.
The month-to-month sigma series is then modeled as a mean-reverting
process with level sigma_bar, volatility-of-volatility sigma_sigma and
reversion rate kappa_sigma (all per unit month).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .series import read_only_copy
from .stats import lag1_rate


@dataclass(frozen=True)
class MonthlyVolatility:
    year: int
    month: int
    sigma: float  # degC per sqrt(day)


@dataclass(frozen=True)
class MonthlyVolatilitySeries:
    entries: tuple[MonthlyVolatility, ...]   # any iterable, stored as a tuple
    # The entries' sigmas as a read-only array, built once from entries.
    sigmas: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "sigmas", read_only_copy([e.sigma for e in entries], float))

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class VolatilityModelParams:
    sigma_bar: float     # long-term volatility level, degC/sqrt(day)
    sigma_sigma: float   # volatility of volatility, per sqrt(month)
    kappa_sigma: float   # reversion rate, per month

    def __post_init__(self):
        if self.sigma_bar <= 0:
            raise InputError("sigma_bar must be positive")
        if self.sigma_sigma < 0:
            raise InputError("sigma_sigma must be non-negative")
        if self.kappa_sigma <= 0:
            raise InputError("kappa_sigma must be positive")


def monthly_quadratic_variation(temps: np.ndarray, month_id: np.ndarray,
                                months: Sequence[tuple[int, int]]) -> MonthlyVolatilitySeries:
    """Per-month volatility from squared consecutive-day increments.

    For a month with N days, sigma^2 = sum of the N-1 within-month squared
    first differences divided by N-1.
    """
    counts = np.bincount(month_id)
    if counts.min() < 2:
        year, month = months[counts.argmin()]
        raise InputError(f"month {year}-{month:02d} has {counts.min()} "
                         "observation(s); need at least 2")
    # Row k is month k padded with its last temperature: its increments
    # end in zeros and sum in the order of a sum over the month alone.
    cols = np.minimum(np.arange(counts.max()), counts[:, np.newaxis] - 1)
    d = np.diff(temps[(np.cumsum(counts) - counts)[:, np.newaxis] + cols])
    sigmas = np.sqrt(np.sum(d * d, axis=1) / (counts - 1))
    return MonthlyVolatilitySeries([MonthlyVolatility(year, month, sigma)
                                    for (year, month), sigma in zip(months, sigmas.tolist())])


def estimate_sigma_bar(vols: MonthlyVolatilitySeries) -> float:
    """Long-term volatility level: the mean of the monthly sigmas."""
    if len(vols) == 0:
        raise InputError("no monthly volatilities")
    return float(vols.sigmas.mean())


def estimate_sigma_sigma(vols: MonthlyVolatilitySeries) -> float:
    """Volatility of volatility from the quadratic variation of the
    monthly sigma series (increment-count denominator)."""
    if len(vols) < 2:
        raise InputError("need at least 2 months to estimate sigma_sigma")
    d = np.diff(vols.sigmas)
    return math.sqrt(float(np.sum(d * d)) / d.size)


def estimate_kappa_sigma(vols: MonthlyVolatilitySeries, sigma_bar: float) -> float:
    """Reversion rate of the volatility process.

    With deviations d_j = sigma(j) - sigma_bar, kappa = -log of the
    lag-1 ratio sum(d_{j-1} d_j) / sum(d_{j-1}^2).
    """
    if len(vols) < 3:
        raise InputError("need at least 3 months to estimate kappa_sigma")
    return lag1_rate(vols.sigmas - sigma_bar, 1.0, "volatility",
                     "volatility deviations",
                     "all monthly volatilities equal sigma_bar")


def fit_volatility_model(vols: MonthlyVolatilitySeries) -> VolatilityModelParams:
    sigma_bar = estimate_sigma_bar(vols)
    return VolatilityModelParams(
        sigma_bar=sigma_bar,
        sigma_sigma=estimate_sigma_sigma(vols),
        kappa_sigma=estimate_kappa_sigma(vols, sigma_bar),
    )
