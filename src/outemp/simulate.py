"""Euler-Maruyama Monte Carlo simulation of temperature paths.

The daily recursion is

    T(j+1) = T(j) + [m(j+1) - m(j)] + kappa * (m(j) - T(j)) + sigma_month(j) * Z_j

with m the seasonal mean, a unit day step, and sigma_month piecewise
constant over the calendar months of the leap-free calendar from the
start date, the months it is estimated on. Each path's monthly
volatility starts at sigma(0) = sigma_bar and follows its own
unit-month Euler recursion sigma(n) = sigma(n-1) +
kappa_sigma*(sigma_bar - sigma(n-1)) + sigma_sigma*Z_h, floored at a
small epsilon because the Gaussian increment admits negative values the
temperature equation cannot use.

Reproducibility contract: all variates come from numpy's PCG64
generator; path p is seeded with the sequence [master_seed, p] and draws
its monthly volatility normals first, then its daily normals. Ensembles
are therefore bit-identical across runs and independent of execution
order.

The kernel is day-major and streaming: :func:`day_blocks` keeps every
path's generator alive, draws the daily normals of each block of
BLOCK_DAYS days in turn (drawing a stream in chunks gives the same
numbers as drawing it at once) and steps all paths one contiguous day
row at a time. Memory is ``sigma`` (n_paths * n_months floats), one
reused (n_paths, BLOCK_DAYS) normals buffer and the rows of the block
being yielded, whatever the number of days; :func:`simulate_paths` adds
one more block-sized summary buffer. A consumer that needs the whole
path matrix replays the blocks, which the seeding contract makes exact.

A one-path ensemble (every synthetic series) steps Python floats
instead of 1-element rows, in the volatility recursion and in the day
loop, which spares numpy's per-call overhead on each operation. The bits
are the same: a Python float ``+``, ``-`` or ``*`` is one IEEE-754
double operation rounded to nearest, exactly what the float64 ufunc does
on a 1-element row; :func:`_vol_month` and :func:`_euler_day` apply them
in the same order on both routes, and ``max`` floors a float to the
value ``np.maximum`` gives. :func:`generate_synthetic_series` reads its
path straight from the blocks of :func:`day_blocks`.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .seasonal import SeasonalMeanParams, evaluate_seasonal_mean
from .series import DAYS_PER_YEAR, TemperatureSeries, leap_free_days, month_index
from .volatility import VolatilityModelParams

VOL_FLOOR = 1e-6

# Days per block of the streaming kernel.
BLOCK_DAYS = 365


@dataclass(frozen=True)
class SimulationConfig:
    n_paths: int
    n_days: int
    master_seed: int
    t0_temp: float
    constant_vol_override: float | None = None

    def __post_init__(self):
        if self.n_paths < 1 or self.n_days < 1:
            raise InputError("n_paths and n_days must be >= 1")
        if self.master_seed < 0:
            raise InputError("master_seed must be non-negative")
        if self.constant_vol_override is not None and self.constant_vol_override < 0:
            raise InputError("constant_vol_override must be non-negative")


@dataclass(frozen=True)
class SimulatedEnsemble:
    """Per-day summary of an ensemble across its paths."""

    mean_path: np.ndarray             # (n_days,)
    cross_path_sd: np.ndarray | None  # (n_days,), None for a single path
    p05: np.ndarray                   # (n_days,), numpy's default percentile
    p95: np.ndarray                   # (n_days,)


def _vol_recursion(vol: VolatilityModelParams, sigma: np.ndarray) -> np.ndarray:
    """Monthly recursion in place over a (months, paths) array: row 0
    holds the starting values and row k >= 1 month k's normals, which
    are replaced by month k's sigma. Every value is floored at VOL_FLOOR.

    Two or more paths step one month row at a time; a single path steps
    Python floats through the same :func:`_vol_month`, and ``max``
    floors a float to the same bits as ``np.maximum``.
    """
    if sigma.shape[1] == 1:
        s = max(sigma[0, 0].item(), VOL_FLOOR)
        months = [s]
        for z in sigma[1:, 0].tolist():
            s = max(_vol_month(s, z, vol), VOL_FLOOR)
            months.append(s)
        sigma[:, 0] = months
        return sigma
    sigma[0] = np.maximum(sigma[0], VOL_FLOOR)
    for k in range(1, len(sigma)):
        sigma[k] = np.maximum(_vol_month(sigma[k - 1], sigma[k], vol), VOL_FLOOR)
    return sigma


def _vol_month(s, z, vol: VolatilityModelParams):
    """Volatility one month after s, before the floor: the Euler step
    towards sigma_bar with the month's normal z."""
    return s + vol.kappa_sigma * (vol.sigma_bar - s) + vol.sigma_sigma * z


def _euler_day(x, dm, m, kappa, noise):
    """Temperature one day after x: the Euler step from seasonal mean m,
    with dm the change of the mean over the day."""
    return x + dm + kappa * (m - x) + noise


def day_blocks(seasonal: SeasonalMeanParams, kappa,
               vol: VolatilityModelParams | None, config: SimulationConfig,
               start):
    """Simulate an ensemble day-major, BLOCK_DAYS days at a time.

    Takes the arguments of :func:`simulate_paths` (checked when iteration
    starts) and yields ``(first_day, block)`` in day order, where
    ``block`` is a new C-contiguous ``(days_in_block, n_paths)`` array
    whose row i holds day ``first_day + i`` of every path.

    Two or more paths step one day row at a time; a single path steps
    Python floats, with the same draws and the same operations in the
    same order, so it equals column 0 of any larger ensemble with its
    seed bit for bit.
    """
    kappa_t = float(getattr(kappa, "kappa_t", kappa))
    if kappa_t <= 0:
        raise InputError("kappa must be positive")
    if kappa_t >= 2:
        raise InputError(f"kappa_t {kappa_t!r} is outside 0 < kappa_t < 2, "
                         "the stable range of the Euler day step")
    override = config.constant_vol_override
    if override is None and vol is None:
        raise InputError("volatility parameters required without a constant override")

    n_paths, n_days = config.n_paths, config.n_days
    month_idx, _ = month_index(leap_free_days(start, n_days))
    # Allocated before the generators, so that an ensemble too large for
    # memory fails here rather than after creating n_paths of them.
    sigma = np.empty((int(month_idx[-1]) + 1, n_paths))
    z = np.empty((n_paths, min(BLOCK_DAYS, n_days)))
    rngs = [np.random.default_rng([config.master_seed, p]) for p in range(n_paths)]
    if override is None:
        sigma[0] = vol.sigma_bar
        for p, rng in enumerate(rngs):
            sigma[1:, p] = rng.standard_normal(len(sigma) - 1)
        _vol_recursion(vol, sigma)
    else:
        sigma[:] = override

    m = evaluate_seasonal_mean(seasonal, np.arange(n_days))
    last = config.t0_temp
    for first in range(0, n_days, BLOCK_DAYS):
        stop = min(first + BLOCK_DAYS, n_days)
        # rows[k] is day j0 + k; day j + 1 steps from day j with the
        # j-th daily normal of each path, so rows[1:] first holds the
        # noise of the n_steps steps.
        j0 = max(first - 1, 0)
        n_steps = stop - 1 - j0
        for p, rng in enumerate(rngs):
            rng.standard_normal(out=z[p, :n_steps])
        rows = np.empty((stop - j0, n_paths))
        rows[0] = last
        # The indices are in range; mode="raise" would gather into a hidden copy.
        np.take(sigma, month_idx[j0:stop - 1], axis=0, out=rows[1:], mode="clip")
        rows[1:] *= z[:, :n_steps].T
        dm = np.diff(m[j0:stop])
        if n_paths == 1:
            x = rows[0, 0].item()
            steps = [x]
            for dm_k, m_k, noise_k in zip(dm.tolist(), m[j0:stop - 1].tolist(),
                                          rows[1:, 0].tolist()):
                x = _euler_day(x, dm_k, m_k, kappa_t, noise_k)
                steps.append(x)
            rows[:, 0] = steps
        else:
            for k in range(n_steps):
                rows[k + 1] = _euler_day(rows[k], dm[k], m[j0 + k], kappa_t, rows[k + 1])
        last = rows[-1].copy()
        yield first, rows[first - j0:]
        # Without this reference a block the consumer has released is
        # freed before the next one is allocated.
        del rows


# An overflow shows as a non-finite summary value, which raises at the end.
@np.errstate(over="ignore", invalid="ignore")
def simulate_paths(seasonal: SeasonalMeanParams, kappa,
                   vol: VolatilityModelParams | None, config: SimulationConfig,
                   start) -> SimulatedEnsemble:
    """Simulate a Monte Carlo ensemble of daily temperature paths and
    summarize it per day across paths.

    ``kappa`` is the per-day reversion rate (a float or a
    MeanReversionEstimate). Simulated day 0 is the date ``start``, and
    the monthly volatility switches on the calendar months of the
    leap-free calendar from there. With
    ``config.constant_vol_override`` set, the stochastic volatility layer
    is bypassed and every month uses the override.

    The paths are summarized block by block as :func:`day_blocks` yields
    them and never held whole, so memory is ``sigma`` (n_paths *
    n_months floats), the normals buffer, the rows of one block and one
    path-major summary buffer of n_paths * BLOCK_DAYS floats, plus four
    floats per day. Each path draws its monthly volatility normals, then
    its daily normals, from the generator seeded [master_seed, p]; the
    summary equals, bit for bit, numpy's mean, std(ddof=1) and
    percentile over the (n_paths, n_days) path matrix. A non-finite
    summary value raises InputError.
    """
    n_paths, n_days = config.n_paths, config.n_days
    mean_path, sd, p05, p95 = (np.empty(n_days) for _ in range(4))
    buffer = np.empty(n_paths * min(BLOCK_DAYS, n_days))
    for first, block in day_blocks(seasonal, kappa, vol, config, start):
        days = slice(first, first + len(block))
        # Reducing a path-major copy over axis 0 adds the paths in index
        # order, as the whole matrix would; a reduction along the
        # contiguous axis sums pairwise and rounds differently. The mean
        # and sd are numpy's own _mean and _var steps, done in place.
        by_path = buffer[:block.size].reshape(n_paths, len(block))
        by_path[...] = block.T
        mean = np.add.reduce(by_path, axis=0) / n_paths
        mean_path[days] = mean
        if n_paths >= 2:
            by_path -= mean
            np.multiply(by_path, by_path, out=by_path)
            sd[days] = np.sqrt(np.add.reduce(by_path, axis=0) / (n_paths - 1))
        block.sort(axis=1)
        p05[days] = _sorted_percentile(block, 5)
        p95[days] = _sorted_percentile(block, 95)
        del block   # released before day_blocks allocates the next
    ens = SimulatedEnsemble(mean_path=mean_path,
                            cross_path_sd=sd if n_paths >= 2 else None,
                            p05=p05, p95=p95)
    if not all(np.isfinite(a).all() for a in vars(ens).values() if a is not None):
        raise InputError("the simulated ensemble overflowed to a non-finite "
                         "value; the report's parameters are out of range")
    return ens


def _sorted_percentile(ordered: np.ndarray, q: float) -> np.ndarray:
    """The q-th percentile of each sorted row, with the index and
    interpolation arithmetic of numpy's default ("linear") method."""
    n = ordered.shape[1]
    virtual = (n - 1) * (q / 100)
    lo = math.floor(virtual)
    hi = lo + 1
    if virtual >= n - 1:
        lo = hi = -1
    gamma = virtual - lo
    a, b = ordered[:, lo], ordered[:, hi]
    diff = b - a
    if gamma >= 0.5:
        return b - diff * (1 - gamma)
    return a + diff * gamma


def generate_synthetic_series(seasonal: SeasonalMeanParams, kappa_t: float,
                              vol: VolatilityModelParams, start_year: int,
                              n_years: int, seed: int,
                              constant_vol_override: float | None = None,
                              ) -> TemperatureSeries:
    """One simulated path laid out on a leap-free calendar.

    Calendar months drive the volatility switching; T(0) is the seasonal
    mean at day 0. The result parses/fits like an observed series.
    """
    if n_years < 1:
        raise InputError("n_years must be >= 1")
    if start_year < 1 or start_year + n_years - 1 > 9999:
        raise InputError(f"years {start_year}..{start_year + n_years - 1} "
                         "outside the ISO date range 1..9999")
    start = dt.date(start_year, 1, 1)
    dates = leap_free_days(start, DAYS_PER_YEAR * n_years)
    config = SimulationConfig(
        n_paths=1,
        n_days=len(dates),
        master_seed=seed,
        t0_temp=evaluate_seasonal_mean(seasonal, 0),
        constant_vol_override=constant_vol_override,
    )
    temps = np.empty(config.n_days)
    for first, block in day_blocks(seasonal, kappa_t, vol, config, start):
        temps[first:first + len(block)] = block[:, 0]
    return TemperatureSeries(dates=dates, temps=temps)
