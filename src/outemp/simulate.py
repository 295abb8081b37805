"""Euler-Maruyama Monte Carlo simulation of temperature paths.

The daily recursion is

    T(j+1) = T(j) + [m(j+1) - m(j)] + kappa * (m(j) - T(j)) + sigma_month(j) * Z_j

with m the seasonal mean, a unit day step, and sigma_month piecewise
constant over the calendar months of the leap-free calendar from the
start date, the months it is estimated on. Monthly volatility follows
its own unit-month Euler recursion sigma(n) = sigma(n-1) +
kappa_sigma*(sigma_bar - sigma(n-1)) + sigma_sigma*Z_h, floored at a
small epsilon because the Gaussian increment admits negative values the
temperature equation cannot use.

Reproducibility contract: all variates come from numpy's PCG64
generator; path p is seeded with the sequence [master_seed, p] and draws
its monthly volatility normals first, then its daily normals. Ensembles
are therefore bit-identical across runs and independent of execution
order.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .seasonal import SeasonalMeanParams, evaluate_seasonal_mean
from .series import DAYS_PER_YEAR, TemperatureSeries, leap_free_days, month_index
from .volatility import VolatilityModelParams

VOL_FLOOR = 1e-6


@dataclass(frozen=True)
class SimulationConfig:
    n_paths: int
    n_days: int
    master_seed: int
    t0_temp: float
    sigma0: float | None = None
    constant_vol_override: float | None = None

    def __post_init__(self):
        if self.n_paths < 1 or self.n_days < 1:
            raise InputError("n_paths and n_days must be >= 1")
        if self.master_seed < 0:
            raise InputError("master_seed must be non-negative")
        if self.constant_vol_override is None:
            if self.sigma0 is not None and self.sigma0 <= 0:
                raise InputError("sigma0 must be positive")
        elif self.constant_vol_override < 0:
            raise InputError("constant_vol_override must be non-negative")


@dataclass(frozen=True)
class SimulatedEnsemble:
    paths: np.ndarray                 # (n_paths, n_days)
    mean_path: np.ndarray             # (n_days,)
    cross_path_sd: np.ndarray | None  # (n_days,), None for a single path


def simulate_volatility_months(vol: VolatilityModelParams, n_months: int,
                               seed: int, sigma0: float | None = None) -> np.ndarray:
    """One monthly volatility path of length n_months, starting at
    sigma_bar unless sigma0 is given."""
    if n_months < 1:
        raise InputError("n_months must be >= 1")
    z = np.random.default_rng(seed).standard_normal(n_months - 1)
    start = vol.sigma_bar if sigma0 is None else sigma0
    return _vol_recursion(vol, np.full(1, start), z[np.newaxis, :])[0]


def _vol_recursion(vol: VolatilityModelParams, sigma0: np.ndarray,
                   z: np.ndarray) -> np.ndarray:
    """Vectorized monthly recursion; rows are independent paths."""
    n_paths, n_steps = z.shape
    out = np.empty((n_paths, n_steps + 1))
    out[:, 0] = np.maximum(sigma0, VOL_FLOOR)
    for k in range(n_steps):
        nxt = (out[:, k] + vol.kappa_sigma * (vol.sigma_bar - out[:, k])
               + vol.sigma_sigma * z[:, k])
        out[:, k + 1] = np.maximum(nxt, VOL_FLOOR)
    return out


def simulate_paths(seasonal: SeasonalMeanParams, kappa,
                   vol: VolatilityModelParams | None, config: SimulationConfig,
                   start) -> SimulatedEnsemble:
    """Simulate a Monte Carlo ensemble of daily temperature paths.

    ``kappa`` is the per-day reversion rate (a float or a
    MeanReversionEstimate). Simulated day 0 is the date ``start``, and
    the monthly volatility switches on the calendar months of the
    leap-free calendar from there. With
    ``config.constant_vol_override`` set, the stochastic volatility layer
    is bypassed and every month uses the override.
    """
    kappa_t = float(getattr(kappa, "kappa_t", kappa))
    if kappa_t <= 0:
        raise InputError("kappa must be positive")
    override = config.constant_vol_override
    if override is None and vol is None:
        raise InputError("volatility parameters required without a constant override")

    n_paths, n_days = config.n_paths, config.n_days
    month_idx, _ = month_index(leap_free_days(start, n_days))
    n_months = int(month_idx[-1]) + 1
    sigma0 = config.sigma0
    if sigma0 is None and vol is not None:
        sigma0 = vol.sigma_bar

    z_day = np.empty((n_paths, n_days - 1))
    z_vol = np.empty((n_paths, n_months - 1)) if override is None else None
    for p in range(n_paths):
        rng = np.random.default_rng([config.master_seed, p])
        if override is None:
            z_vol[p] = rng.standard_normal(n_months - 1)
        z_day[p] = rng.standard_normal(n_days - 1)

    if override is None:
        sigma_months = _vol_recursion(vol, np.full(n_paths, sigma0), z_vol)
    else:
        sigma_months = np.full((n_paths, n_months), override)

    mean_fn = evaluate_seasonal_mean(seasonal, np.arange(n_days))
    paths = np.empty((n_paths, n_days))
    paths[:, 0] = config.t0_temp
    for j in range(n_days - 1):
        sigma_j = sigma_months[:, month_idx[j]]
        paths[:, j + 1] = (paths[:, j]
                           + (mean_fn[j + 1] - mean_fn[j])
                           + kappa_t * (mean_fn[j] - paths[:, j])
                           + sigma_j * z_day[:, j])

    return SimulatedEnsemble(
        paths=paths,
        mean_path=paths.mean(axis=0),
        cross_path_sd=paths.std(axis=0, ddof=1) if n_paths >= 2 else None,
    )


def ensemble_summary(ensemble: SimulatedEnsemble) -> tuple[np.ndarray, np.ndarray]:
    """Columnwise mean and sample standard deviation of the path matrix."""
    if ensemble.paths.shape[0] < 2:
        raise InputError("cross-path sd needs at least 2 paths")
    return ensemble.paths.mean(axis=0), ensemble.paths.std(axis=0, ddof=1)


def generate_synthetic_series(seasonal: SeasonalMeanParams, kappa_t: float,
                              vol: VolatilityModelParams, start_year: int,
                              n_years: int, seed: int,
                              t0_temp: float | None = None,
                              constant_vol_override: float | None = None,
                              ) -> TemperatureSeries:
    """One simulated path laid out on a leap-free calendar.

    Calendar months drive the volatility switching; T(0) defaults to the
    seasonal mean at day 0. The result parses/fits like an observed
    series.
    """
    if n_years < 1:
        raise InputError("n_years must be >= 1")
    start = dt.date(start_year, 1, 1)
    dates = leap_free_days(start, DAYS_PER_YEAR * n_years)
    config = SimulationConfig(
        n_paths=1,
        n_days=len(dates),
        master_seed=seed,
        t0_temp=(evaluate_seasonal_mean(seasonal, 0)
                 if t0_temp is None else t0_temp),
        sigma0=vol.sigma_bar,
        constant_vol_override=constant_vol_override,
    )
    ensemble = simulate_paths(seasonal, kappa_t, vol, config, start)
    return TemperatureSeries(dates=dates, temps=ensemble.paths[0])
