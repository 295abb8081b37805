"""Euler-Maruyama Monte Carlo simulation of temperature paths.

Both layers are Ornstein-Uhlenbeck processes with one Euler step,
:func:`_ou_steps`: x' = max(x + dm + kappa*(m - x) + noise, lo). Daily
temperature reverts to the seasonal mean m at kappa_T, with dm the change
of m over the unit day, noise sigma_month * Z and no floor; sigma_month
is piecewise constant over the calendar months of the leap-free calendar
from the start date, the months it is estimated on. Each path's monthly
volatility starts at sigma_bar and reverts to it at kappa_sigma per unit
month, with dm = 0, noise sigma_sigma * Z and lo = VOL_FLOOR, because the
Gaussian increment admits negative values the temperature equation
cannot use. The simulator functions take the model as one
:class:`Model`, whose :meth:`~Model.unstable` is the one check that the
Euler step can run it, for the simulator and the fit's report alike.

Reproducibility contract: all variates come from numpy's PCG64
generator; path p is seeded with the sequence [master_seed, p] and draws
its monthly volatility normals first, then its daily normals. Ensembles
are therefore bit-identical across runs and independent of execution
order.

The kernel is day-major and streaming: :func:`day_blocks` keeps every
path's generator alive, draws the daily normals of each block of
BLOCK_DAYS days in turn (drawing a stream in chunks gives the same
numbers as drawing it at once) and steps all paths one contiguous day
row at a time. The draws are about half of the kernel's time and take
the GIL a microsecond at a time, so a thread cannot overlap them with the
stepping. Two or more blocks, on a machine with a second CPU, draw
every block in one forked child, which fills a shared normals slot with
block b + 1 while the parent steps and summarizes block b. In
interleaved fresh-interpreter pairs of ``simulate`` 1000 x 8760 on a
2-vCPU Xeon VM (Python 3.11.7, numpy 2.4.6), a draw thread with the same
hand-off read medians of 0.62-0.71 s against the fork's 0.46-0.58 s over
two runs, and won 1 of 70 pairs. The child's copies of the generators
continue the parent's streams, so the numbers are those the in-process
draws give; every other ensemble draws in process. Memory is ``sigma``
(n_paths * n_months floats), the (n_paths, BLOCK_DAYS) normals slot (a
shared mapping, which tracemalloc does not see, where a child draws)
and the rows of the block being yielded, whatever the number of days;
:func:`simulate_paths` adds one more block-sized summary buffer. A
consumer that needs the whole path matrix replays the blocks, which the
seeding contract makes exact.

A one-path ensemble (every synthetic series) is one block of all its
days. It steps Python floats instead of 1-element rows, in both layers,
which spares numpy's per-call overhead on each operation. The bits are
the same: a Python float ``+``, ``-`` or ``*`` is one IEEE-754 double
operation rounded to nearest, exactly what the float64 ufunc does on a
1-element row; :func:`_ou_steps` applies them in the same order on both
routes, and ``if x < lo: x = lo`` floors a float to the value
``np.maximum`` gives. Neither route floors the temperature layer, whose
floor of -inf changes no value. :func:`generate_synthetic_series` is the
``mean_path`` of a one-path :func:`simulate_paths`, which is the path
itself, bit for bit. The float route holds ``dm``, ``m``, the noise and
the steps as Python lists of n_days floats, so a 24-year series peaks
at 1.82 MiB (tracemalloc), against 0.27 MiB for the four per-day
summary arrays and 0.64 MiB with 365-day blocks. The one block is kept
because it is faster: 2.8-4.5 ms against 3.6-5.9 ms median per series,
with bit-identical output (three runs of 30 interleaved rounds on a
2-vCPU Xeon VM, Python 3.11.7, numpy 2.4.6).
"""

from __future__ import annotations

import contextlib
import datetime as dt
import gc
import math
import mmap
import os
import signal
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .seasonal import SeasonalMeanParams, evaluate_seasonal_mean
from .series import (DAYS_PER_YEAR, TEMP_MAX_C, TEMP_MIN_C, TemperatureSeries,
                     leap_free_calendar)
from .volatility import VolatilityModelParams

VOL_FLOOR = 1e-6

# Days per block of the streaming kernel for two or more paths. Against
# 365, in the pairs of the module docstring, 128 read 12% slower (won 2 of
# 30), while 183 and 730 tied (won 29 and 33 of 70); 730 raised peak RSS
# from 48 to 57 MiB and 183 lowered it to 44 MiB.
BLOCK_DAYS = 365


@dataclass(frozen=True)
class Model:
    """The model the simulator runs: the seasonal mean, the per-day
    reversion rate kappa_t and the monthly volatility process, or a float,
    a constant sigma for every month. Nothing is refused when it is made,
    since ``fit`` writes whatever it estimates; see :meth:`unstable`."""

    seasonal: SeasonalMeanParams
    kappa_t: float
    vol: VolatilityModelParams | float

    def unstable(self) -> str | None:
        """The first reason the Euler simulator cannot take the model, or
        None: a constant sigma that is not finite and >= 0, then a kappa_t
        outside 0 < kappa_t < 2, where |1 - kappa_t| >= 1 and deviations
        never decay. Both negated tests refuse nan too."""
        if not isinstance(self.vol, VolatilityModelParams) and not 0 <= self.vol < math.inf:
            return f"the constant volatility {self.vol!r} must be finite and non-negative"
        if not 0 < self.kappa_t < 2:
            return (f"kappa_t {self.kappa_t!r} is outside 0 < kappa_t < 2, "
                    "the stable range of the Euler day step")
        return None


@dataclass(frozen=True)
class SimulationConfig:
    n_paths: int
    n_days: int
    master_seed: int
    t0_temp: float

    def __post_init__(self):
        if self.n_paths < 1 or self.n_days < 1:
            raise InputError("n_paths and n_days must be >= 1")
        if int(self.n_paths) * int(self.n_days) > np.iinfo(np.intp).max // 16:
            raise MemoryError(f"a {self.n_paths} x {self.n_days} ensemble is too large for numpy")
        if self.master_seed < 0:
            raise InputError("master_seed must be non-negative")

    @property
    def block_days(self) -> int:
        """Days per block of :func:`day_blocks`: BLOCK_DAYS, or all of
        them for one path, the faster layout (see the module docstring)."""
        return self.n_days if self.n_paths == 1 else min(BLOCK_DAYS, self.n_days)


@dataclass(frozen=True)
class SimulatedEnsemble:
    """Per-day summary of an ensemble across its paths."""

    mean_path: np.ndarray       # (n_days,)
    cross_path_sd: np.ndarray   # (n_days,), all zeros for a single path
    p05: np.ndarray             # (n_days,), numpy's default percentile
    p95: np.ndarray             # (n_days,)


def _vol_recursion(vol: VolatilityModelParams, sigma: np.ndarray) -> np.ndarray:
    """Monthly recursion in place over a (months, paths) array: row 0
    holds the starting values and row k >= 1 month k's normals, which
    are replaced by month k's sigma. Every value is floored at VOL_FLOOR.
    """
    np.maximum(sigma[0], VOL_FLOOR, out=sigma[0])
    sigma[1:] *= vol.sigma_sigma
    # x + 0.0 is x for the floored, positive sigmas: dm = 0 adds nothing.
    return _ou_steps(sigma, 0.0, vol.sigma_bar, vol.kappa_sigma, VOL_FLOOR)


def _ou_steps(rows: np.ndarray, dm, m, kappa: float, lo: float) -> np.ndarray:
    """The Euler step of both OU layers, in place over a (steps + 1,
    paths) array: row 0 holds the start, and row k the noise of step k,
    replaced by ``max(x + dm + kappa * (m - x) + noise, lo)`` with x row
    k - 1; ``dm`` and ``m`` are scalars or hold one value per step. Two or
    more paths step one row at a time, a single path Python floats."""
    n_steps = len(rows) - 1
    dm = np.broadcast_to(dm, n_steps).tolist()
    m = np.broadcast_to(m, n_steps).tolist()
    floored = lo > -math.inf   # the temperature layer's floor changes nothing
    if rows.shape[1] == 1:
        x = rows[0, 0].item()
        steps = [x]
        for dm_k, m_k, noise in zip(dm, m, rows[1:, 0].tolist()):
            x = x + dm_k + kappa * (m_k - x) + noise
            if floored and x < lo:   # max(x, lo) without the call's cost
                x = lo
            steps.append(x)
        rows[:, 0] = steps
        return rows
    # (x + dm) + kappa * (m - x), then + noise, through two reused rows.
    pull, x_dm = np.empty((2, rows.shape[1]))
    for k in range(n_steps):
        x, out = rows[k], rows[k + 1]
        np.subtract(m[k], x, out=pull)
        np.multiply(kappa, pull, out=pull)
        np.add(x, dm[k], out=x_dm)
        np.add(x_dm, pull, out=x_dm)
        np.add(x_dm, out, out=out)
        if floored:
            np.maximum(out, lo, out=out)
    return rows


def _draw(rngs: list, slot: np.ndarray, n_steps: int) -> None:
    """Each path's next ``n_steps`` daily normals into its row of ``slot``."""
    for p, rng in enumerate(rngs):
        rng.standard_normal(out=slot[p, :n_steps])


def _second_cpu() -> bool:
    """Whether this process may run on two or more CPUs."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) >= 2
    return (os.cpu_count() or 1) >= 2


@contextlib.contextmanager
def _forked_drawer(rngs: list, slot: np.ndarray, steps: list[int]):
    """Fork a child that draws the normals of each of ``steps`` in turn
    into ``slot`` from its copies of ``rngs``, and yield ``(ready, free)``,
    the parent's ends of two pipes, or None if the system cannot fork.
    The child writes a byte to ``ready`` when the slot holds a block and
    draws the next once a byte arrives on ``free``, until the steps run
    out or ``free`` reaches EOF. Each side closes only the other's write
    end, so the other's exit shows as EOF and a write to it is never a
    broken pipe. On exit the child is killed and reaped."""
    pipes, pid = [], None
    with contextlib.suppress(OSError), warnings.catch_warnings():   # OSError: draw in process
        # Python >= 3.12 warns of a fork beside other threads, such as numpy's
        # BLAS pool. This child calls no BLAS and starts no thread.
        warnings.filterwarnings("ignore", r"This process .* is multi-threaded", DeprecationWarning)
        pipes += os.pipe()
        pipes += os.pipe()
        pid = os.fork()
    if pid is None:
        for fd in pipes:
            os.close(fd)
        yield None
        return
    ready_r, ready_w, free_r, free_w = pipes
    if pid == 0:
        # Never return or unwind into the caller's frames, which could run
        # its clean-up (removing the parent's output files, say), and never
        # write to stdout or stderr.
        try:
            gc.disable()   # no collection runs a finalizer of the parent's
            os.close(free_w)
            for i, n_steps in enumerate(steps):
                if i and not os.read(free_r, 1):
                    break
                _draw(rngs, slot, n_steps)
                os.write(ready_w, b"\0")
            os._exit(0)
        finally:   # reached only by an exception
            os._exit(1)
    os.close(ready_w)
    try:
        yield ready_r, free_w
    finally:
        for fd in (ready_r, free_r, free_w):
            os.close(fd)
        # A drawer still running has nothing left to draw for. Under an
        # ignored SIGCHLD the system has reaped one that ended.
        with contextlib.suppress(ProcessLookupError, ChildProcessError):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def day_blocks(model: Model, config: SimulationConfig, start):
    """Simulate an ensemble day-major, ``config.block_days`` days at a time.

    Takes the arguments of :func:`simulate_paths`, checks them and sets
    up at the call, and returns an iterator of ``(first_day, block)`` in
    day order, where ``block`` is a new C-contiguous ``(days_in_block,
    n_paths)`` array whose row i holds day ``first_day + i`` of every path.

    Each block steps through :func:`_ou_steps` from the day before it,
    with the same draws and operations for any number of paths, so one
    path equals column 0 of any larger ensemble with its seed bit for bit.

    Where the module docstring's forked child draws the normals, the
    iterator's first step forks it; finishing, closing or dropping the
    iterator reaps it, and a child that ends early raises ChildProcessError.
    """
    if unstable := model.unstable():
        raise InputError(unstable)

    vol, n_paths, n_days, block_days = model.vol, config.n_paths, config.n_days, config.block_days
    month_idx = leap_free_calendar(start, n_days).month_id
    # Block b covers days firsts[b] to stops[b] - 1. Its rows[k] is day
    # j0 + k, where j0 is the day before the block (day 0 for the first
    # block), and day j + 1 steps from day j with the j-th daily normal of
    # each path, so rows[1:] first holds the noise of the block's steps.
    firsts = range(0, n_days, block_days)
    stops = [min(first + block_days, n_days) for first in firsts]
    steps = [stop - 1 - max(first - 1, 0) for first, stop in zip(firsts, stops)]
    # Two or more blocks (never one path) are drawn by a forked child where
    # the system allows, into a normals slot in shared memory, allocated
    # before the generators: an ensemble too large for memory fails here
    # rather than after creating n_paths of them.
    fork = len(steps) >= 2 and hasattr(os, "fork") and _second_cpu()
    sigma = np.empty((int(month_idx[-1]) + 1, n_paths))
    if not fork:
        slot = np.empty((n_paths, block_days))
    else:
        try:
            slot = np.frombuffer(mmap.mmap(-1, n_paths * block_days * 8)).reshape(n_paths, -1)
        except OSError:
            raise MemoryError(f"no room for a {n_paths} x {block_days} normals slot") from None
    rngs = [np.random.default_rng([config.master_seed, p]) for p in range(n_paths)]
    if isinstance(vol, VolatilityModelParams):
        sigma[0] = vol.sigma_bar
        for p, rng in enumerate(rngs):
            sigma[1:, p] = rng.standard_normal(len(sigma) - 1)
        _vol_recursion(vol, sigma)
    else:
        sigma[:] = vol

    m = evaluate_seasonal_mean(model.seasonal, np.arange(n_days))

    def blocks():
        last = config.t0_temp
        with _forked_drawer(rngs, slot, steps) if fork else contextlib.nullcontext() as drawer:
            for first, stop, n_steps in zip(firsts, stops, steps):
                if drawer is None:
                    _draw(rngs, slot, n_steps)
                elif not os.read(drawer[0], 1):
                    raise ChildProcessError("the forked process drawing the "
                                            "simulation's normals ended early")
                j0 = max(first - 1, 0)
                rows = np.empty((stop - j0, n_paths))
                rows[0] = last
                # The indices are in range; mode="raise" would gather into a hidden copy.
                np.take(sigma, month_idx[j0:stop - 1], axis=0, out=rows[1:], mode="clip")
                rows[1:] *= slot[:, :n_steps].T
                # The slot is free again: the drawer fills it with the next
                # block while this one steps.
                if drawer is not None and stop < n_days:
                    os.write(drawer[1], b"\0")
                _ou_steps(rows, np.diff(m[j0:stop]), m[j0:stop - 1], model.kappa_t, -math.inf)
                last = rows[-1].copy()
                yield first, rows[first - j0:]
                # Without this reference a block the consumer has released is
                # freed before the next one is allocated.
                del rows
    return blocks()


# An overflow shows as a non-finite summary value, which raises at the end.
@np.errstate(over="ignore", invalid="ignore")
def simulate_paths(model: Model, config: SimulationConfig, start) -> SimulatedEnsemble:
    """Simulate a Monte Carlo ensemble of daily temperature paths and
    summarize it per day across paths.

    A ``model`` that :meth:`Model.unstable` names raises InputError
    before anything is allocated. Simulated day 0 is the date ``start``,
    and the monthly volatility switches on the calendar months of the
    leap-free calendar from there.

    The paths are summarized block by block as :func:`day_blocks` yields
    them and never held whole: memory is what the module docstring lists,
    plus four floats per day and the cached leap-free calendar's two
    integers per day, which stays for later calls. The blocks are closed
    on return or on an exception, so no forked drawer outlives the call.
    The summary equals, bit for bit, numpy's mean, std(ddof=1) and
    percentile over the (n_paths, n_days) path matrix, with an sd of zeros
    for one path. A non-finite summary value raises InputError.
    """
    # Checked before the summary is allocated: an unstable model is named
    # as such, whatever the ensemble's size.
    blocks = day_blocks(model, config, start)
    n_paths, n_days = config.n_paths, config.n_days
    mean_path, sd, p05, p95 = np.zeros((4, n_days))   # sd stays 0 for one path
    buffer = np.empty(n_paths * config.block_days)
    # Closed on any exit, which reaps a forked drawer at once, even while
    # a caller holds the traceback of an exception.
    with contextlib.closing(blocks):
        for first, block in blocks:
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
    ens = SimulatedEnsemble(mean_path=mean_path, cross_path_sd=sd, p05=p05, p95=p95)
    if not all(np.isfinite(a).all() for a in vars(ens).values()):
        raise InputError("the simulated ensemble overflowed to a non-finite "
                         "value; kappa_t or the volatility is out of range")
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
                              vol: VolatilityModelParams | float, start_year: int,
                              n_years: int, seed: int) -> TemperatureSeries:
    """One simulated path of ``Model(seasonal, kappa_t, vol)`` on a
    leap-free calendar; the one function that takes the model's parts one
    by one. Calendar months drive the volatility switching; T(0) is the
    seasonal mean at day 0. The result parses/fits like an observed
    series. The path is the ``mean_path`` of a one-path
    :func:`simulate_paths`, so it shares that function's checks: a path
    that overflows raises its InputError. One that leaves the sane
    temperature range raises one that blames the seasonal mean if m(t)
    itself leaves that range over the span, and the volatility if not.
    """
    if n_years < 1:
        raise InputError("n_years must be >= 1")
    last_year = start_year + n_years - 1
    if start_year < 1 or last_year > 9999:
        raise InputError(f"years {start_year}..{last_year} outside the ISO date range 1..9999")
    model = Model(seasonal, kappa_t, vol)
    start = dt.date(start_year, 1, 1)
    dates = leap_free_calendar(start, DAYS_PER_YEAR * n_years).dates
    config = SimulationConfig(n_paths=1, n_days=len(dates), master_seed=seed,
                              t0_temp=evaluate_seasonal_mean(seasonal, 0))
    temps = simulate_paths(model, config, start).mean_path
    try:
        return TemperatureSeries(dates=dates, temps=temps)
    except InputError as exc:   # a finite path can fail only the sane range
        m = evaluate_seasonal_mean(seasonal, np.arange(len(dates)))
        cause = (f"its seasonal mean leaves that range within the years {start_year}..{last_year}"
                 if m.min() < TEMP_MIN_C or m.max() > TEMP_MAX_C
                 else f"its volatility {vol} is too large")
        raise InputError(f"synthetic series: {exc}; {cause}") from None
