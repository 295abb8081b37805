import contextlib
import datetime as dt
import errno
import json
import os
import re
import signal
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from outemp import InputError, parse_csv
from outemp import cli, simulate
from outemp.seasonal import SeasonalMeanParams, evaluate_seasonal_mean
from outemp.series import leap_free_calendar, serialize_csv
from outemp.simulate import (VOL_FLOOR, Model, SimulationConfig, _vol_recursion, day_blocks,
                             generate_synthetic_series, simulate_paths, summary_blocks)
from outemp.volatility import VolatilityModelParams

SEASONAL = SeasonalMeanParams(26.4, -7.58e-5, 1.75, 0.531, 0.5062)
FLAT = SeasonalMeanParams(26.0, 0.0, 0.0, 0.0, 0.0)
VOL = VolatilityModelParams(sigma_bar=0.877, sigma_sigma=0.419, kappa_sigma=0.989)
START = dt.date(2001, 1, 1)


def vol_path(vol, n_months, seed, sigma0=None):
    """One monthly volatility path from sigma0 (default sigma_bar), driven
    by default_rng(seed)'s first n_months - 1 normals."""
    sigma = np.empty((n_months, 1))
    sigma[0] = vol.sigma_bar if sigma0 is None else sigma0
    sigma[1:, 0] = np.random.default_rng(seed).standard_normal(n_months - 1)
    return _vol_recursion(vol, sigma)[:, 0]


class TestVolatilitySimulation:
    def test_deterministic_fixed_point(self):
        vol = VolatilityModelParams(0.877, 1e-12, 0.989)
        path = vol_path(vol, 12, seed=0)
        assert np.allclose(path, 0.877, atol=1e-9)

    def test_deviation_decays_by_one_minus_kappa(self):
        vol = VolatilityModelParams(0.877, 1e-300, 0.989)
        path = vol_path(vol, 4, seed=0, sigma0=1.877)
        dev = path - 0.877
        assert dev[0] == pytest.approx(1.0)
        assert dev[1] == pytest.approx(0.011, abs=1e-12)
        assert dev[2] == pytest.approx(0.011 ** 2, abs=1e-12)

    def test_long_run_mean(self):
        path = vol_path(VOL, 10_000, seed=123)
        # Law of large numbers; allow a few sigma of Monte Carlo error
        # (the floor adds a small positive bias).
        assert path.mean() == pytest.approx(0.877, abs=0.03)

    def test_floor_rarely_engaged(self):
        path = vol_path(VOL, 10_000, seed=7)
        assert np.all(path >= VOL_FLOOR)
        assert np.mean(path == VOL_FLOOR) < 0.05


def config(**kw):
    base = dict(n_paths=2, n_days=100, master_seed=0,
                t0_temp=evaluate_seasonal_mean(SEASONAL, 0))
    base.update(kw)
    return SimulationConfig(**base)


@pytest.mark.parametrize("n_paths, n_days", [
    (10 ** 18, 5), (2, 10 ** 20), (np.int64(2 ** 32), np.int64(2 ** 32)),
], ids=["paths", "days", "numpy-ints-whose-product-wraps"])
def test_config_refuses_an_ensemble_beyond_any_array(n_paths, n_days):
    with pytest.raises(MemoryError):
        config(n_paths=n_paths, n_days=n_days)


def path_matrix(*args):
    """The C-ordered (n_paths, n_days) path matrix stacked from day_blocks."""
    return np.ascontiguousarray(
        np.concatenate([block for _, block in day_blocks(*args)]).T)


class TestSimulatePaths:
    def test_zero_noise_on_mean_tracks_mean_function(self):
        cfg = config()
        ens = simulate_paths(Model(SEASONAL, 0.1872, 0.0), cfg, START)
        paths = path_matrix(Model(SEASONAL, 0.1872, 0.0), cfg, START)
        expected = evaluate_seasonal_mean(SEASONAL, np.arange(cfg.n_days))
        assert np.allclose(paths, expected[np.newaxis, :], atol=1e-10)
        assert np.allclose(ens.mean_path, expected, atol=1e-10)

    def test_zero_noise_deviation_decay(self):
        d0 = 3.0
        cfg = config(n_paths=1, t0_temp=evaluate_seasonal_mean(SEASONAL, 0) + d0)
        paths = path_matrix(Model(SEASONAL, 0.1872, 0.0), cfg, START)
        expected_dev = d0 * (1 - 0.1872) ** np.arange(cfg.n_days)
        dev = paths[0] - evaluate_seasonal_mean(SEASONAL, np.arange(cfg.n_days))
        assert np.allclose(dev, expected_dev, atol=1e-9)

    def test_bit_identical_reproducibility(self):
        cfg = config(n_paths=8, n_days=200, master_seed=42)
        a = path_matrix(Model(SEASONAL, 0.1872, VOL), cfg, START)
        b = path_matrix(Model(SEASONAL, 0.1872, VOL), cfg, START)
        assert np.array_equal(a, b)

    def test_paths_use_per_path_substreams(self):
        # Path p's trajectory must not depend on how many paths run.
        big = path_matrix(Model(SEASONAL, 0.1872, VOL), config(n_paths=5), START)
        small = path_matrix(Model(SEASONAL, 0.1872, VOL), config(n_paths=2), START)
        assert np.array_equal(big[:2], small)

    def test_mean_path_is_exact_column_mean(self):
        ens = simulate_paths(Model(SEASONAL, 0.1872, VOL), config(n_paths=6), START)
        paths = path_matrix(Model(SEASONAL, 0.1872, VOL), config(n_paths=6), START)
        assert np.array_equal(ens.mean_path, paths.mean(axis=0))

    # 800 days: one block for one path, and two full blocks and a partial
    # one for more paths. 1000 paths take the 5th and 95th percentiles
    # between sorted indices 49/50 and 949/950, and make the in-place sd
    # sum over many paths.
    @pytest.mark.parametrize("n_paths, n_days", [
        pytest.param(n, d, id=str(n))
        for n, d in [(1, 800), (2, 800), (3, 800), (20, 800), (1000, 400)]])
    def test_summary_equals_numpy_over_path_matrix(self, n_paths, n_days):
        cfg = config(n_paths=n_paths, n_days=n_days, master_seed=9)
        ens = simulate_paths(Model(SEASONAL, 0.1872, VOL), cfg, START)
        paths = path_matrix(Model(SEASONAL, 0.1872, VOL), cfg, START)
        assert np.array_equal(ens.p05, np.percentile(paths, 5, axis=0))
        assert np.array_equal(ens.p95, np.percentile(paths, 95, axis=0))
        assert np.array_equal(ens.mean_path, paths.mean(axis=0))
        assert np.array_equal(ens.cross_path_sd, paths.std(axis=0, ddof=1)
                              if n_paths >= 2 else np.zeros(n_days))

    def test_blocks_are_contiguous_day_rows(self):
        cfg = config(n_paths=3, n_days=800)
        blocks = list(day_blocks(Model(SEASONAL, 0.1872, VOL), cfg, START))
        assert [first for first, _ in blocks] == [0, 365, 730]
        assert [b.shape for _, b in blocks] == [(365, 3), (365, 3), (70, 3)]
        assert all(b.flags.c_contiguous for _, b in blocks)

    def test_one_path_is_one_block(self):
        cfg = config(n_paths=1, n_days=800)
        blocks = list(day_blocks(Model(SEASONAL, 0.1872, VOL), cfg, START))
        assert [(first, b.shape) for first, b in blocks] == [(0, (800, 1))]
        assert blocks[0][1].flags.c_contiguous

    def test_block_length_does_not_change_paths(self, monkeypatch):
        # Drawing each path's normals in chunks replays its one-shot stream.
        cfg = config(n_paths=4, n_days=400)
        whole = path_matrix(Model(SEASONAL, 0.1872, VOL), cfg, START)
        monkeypatch.setattr(simulate, "BLOCK_DAYS", 7)
        assert np.array_equal(path_matrix(Model(SEASONAL, 0.1872, VOL), cfg, START), whole)

    def test_memory_bounded_by_paths_not_days(self, mapped):
        # A (500, 20000) matrix of paths alone would take 80 MB.
        cfg = config(n_paths=500, n_days=20_000)
        tracemalloc.start()
        try:
            simulate_paths(Model(SEASONAL, 0.1872, VOL), cfg, START)
            peak = tracemalloc.get_traced_memory()[1] + sum(mapped)
        finally:
            tracemalloc.stop()
        assert peak < 40e6

    def test_three_block_buffers(self, mapped):
        # The kernel holds sigma, the generators and three block-sized
        # buffers: the normals slot (added by hand when shared), the
        # rows being yielded and the summary's path-major copy. A fourth
        # would add 2.92 MB and break the bound.
        n_paths, n_days = 1000, 800
        n_months = int(leap_free_calendar(START, n_days).month_id[-1]) + 1
        bound = (n_months * n_paths * 8                        # sigma
                 + n_paths * 1500                              # generators, ~930 B each
                 + 3 * n_paths * simulate.BLOCK_DAYS * 8       # block buffers
                 + 500_000)                                    # per-day arrays, temporaries
        # numpy's one-time set-up on its first generators is not the kernel's.
        simulate_paths(Model(SEASONAL, 0.1872, VOL), config(n_days=1), START)
        tracemalloc.start()
        try:
            cfg = config(n_paths=n_paths, n_days=n_days)
            simulate_paths(Model(SEASONAL, 0.1872, VOL), cfg, START)
            peak = tracemalloc.get_traced_memory()[1] + sum(mapped)
        finally:
            tracemalloc.stop()
        assert peak < bound

    # "None": no constant sigma, so the volatility process runs.
    @pytest.mark.parametrize("vol", [VOL, 0.0, 1.3], ids=["None", "0.0", "1.3"])
    @pytest.mark.parametrize("start", [START, dt.date(2003, 3, 17)])
    @pytest.mark.parametrize("n_days", [1, 2, 365, 366, 1100])
    def test_one_path_equals_first_column(self, n_days, start, vol):
        # One path steps Python floats, three step numpy rows.
        def stacked(n_paths):
            cfg = config(n_paths=n_paths, n_days=n_days, master_seed=5)
            return path_matrix(Model(SEASONAL, 0.1872, vol), cfg, start)
        assert np.array_equal(stacked(1)[0], stacked(3)[0])

    @pytest.mark.parametrize("vol", [VOL, 0.0, 1.3], ids=["stochastic", "0.0", "1.3"])
    def test_synthetic_series_is_a_one_path_ensemble(self, vol):
        series = generate_synthetic_series(SEASONAL, 0.1872, vol, START.year, 2, seed=5)
        one, five = (config(n_paths=n, n_days=730, master_seed=5) for n in (1, 5))
        assert np.array_equal(series.temps,
                              simulate_paths(Model(SEASONAL, 0.1872, vol), one, START).mean_path)
        assert np.array_equal(series.temps,
                              path_matrix(Model(SEASONAL, 0.1872, vol), five, START)[0])

    def test_one_path_equals_first_column_at_vol_floor(self):
        # With sigma_sigma = 2 about a third of the months hit VOL_FLOOR,
        # where one path floors with max and three with np.maximum.
        wild = VolatilityModelParams(sigma_bar=0.877, sigma_sigma=2.0, kappa_sigma=0.989)
        n_days = 1100
        n_months = int(leap_free_calendar(START, n_days).month_id[-1]) + 1
        sigma = np.empty((n_months, 3))
        sigma[0] = wild.sigma_bar
        for p in range(3):
            sigma[1:, p] = np.random.default_rng([5, p]).standard_normal(n_months - 1)
        one = _vol_recursion(wild, sigma[:, :1].copy())
        assert np.count_nonzero(_vol_recursion(wild, sigma)[:, 0] == VOL_FLOOR) > 0
        assert np.array_equal(one[:, 0], sigma[:, 0])

        def stacked(n_paths):
            cfg = config(n_paths=n_paths, n_days=n_days, master_seed=5)
            return path_matrix(Model(SEASONAL, 0.1872, wild), cfg, START)
        assert np.array_equal(stacked(1)[0], stacked(3)[0])

        # Both layers equal, bit for bit, a loop over each path with the
        # model's formulas: the month step floored at VOL_FLOOR, then the
        # day step with that month's sigma.
        month_idx = leap_free_calendar(START, n_days).month_id
        m = evaluate_seasonal_mean(SEASONAL, np.arange(n_days))
        dm = np.diff(m)
        ref_sigma = np.empty((n_months, 3))
        ref_temps = np.empty((3, n_days))
        for p in range(3):
            rng = np.random.default_rng([5, p])
            s = wild.sigma_bar
            months = [s]
            for z in rng.standard_normal(n_months - 1).tolist():
                s = max(s + wild.kappa_sigma * (wild.sigma_bar - s) + wild.sigma_sigma * z,
                        VOL_FLOOR)
                months.append(s)
            ref_sigma[:, p] = months
            x = evaluate_seasonal_mean(SEASONAL, 0)
            days = [x]
            for j, z in enumerate(rng.standard_normal(n_days - 1).tolist()):
                noise = months[month_idx[j]] * z
                x = x + dm[j] + 0.1872 * (m[j] - x) + noise
                days.append(x)
            ref_temps[p] = days
        assert np.count_nonzero(ref_sigma == VOL_FLOOR) > 0
        assert np.array_equal(one[:, 0], ref_sigma[:, 0])
        assert np.array_equal(sigma, ref_sigma)
        assert np.array_equal(stacked(1), ref_temps[:1])
        assert np.array_equal(stacked(3), ref_temps)

    def test_invalid_kappa(self):
        with pytest.raises(InputError):
            simulate_paths(Model(SEASONAL, 0.0, VOL), config(), START)

    def test_kappa_outside_euler_stable_range(self):
        with pytest.raises(InputError, match="kappa_t 2.0 is outside 0 < kappa_t < 2"):
            simulate_paths(Model(SEASONAL, 2.0, VOL), config(), START)
        with pytest.raises(InputError, match="kappa_t"):
            generate_synthetic_series(SEASONAL, 2.5, VOL, 2000, 1, seed=0)
        ens = simulate_paths(Model(SEASONAL, 1.99, VOL), config(), START)
        assert np.isfinite(ens.mean_path).all()

    @pytest.mark.parametrize("kappa", [float("nan"), -0.1])
    def test_kappa_outside_stable_range_refused_before_simulating(self, kappa):
        with pytest.raises(InputError, match="kappa_t"):
            simulate_paths(Model(SEASONAL, kappa, VOL), config(), START)

    @pytest.mark.parametrize("override", [float("nan"), float("inf"), -1.0])
    def test_override_must_be_finite_and_non_negative(self, override, monkeypatch):
        # Refused before the ensemble allocates or draws anything.
        monkeypatch.setattr(simulate, "leap_free_calendar", None)
        value = re.escape(repr(override))
        with pytest.raises(InputError, match=f"^the constant volatility {value} "
                                             "must be finite and non-negative$"):
            simulate_paths(Model(SEASONAL, 0.1872, override), config(), START)

    def test_single_path_has_zero_sd(self):
        ens = simulate_paths(Model(SEASONAL, 0.1872, VOL), config(n_paths=1), START)
        assert np.array_equal(ens.cross_path_sd, np.zeros(100))


class TestEnsembleSummary:
    def test_identical_paths_zero_sd(self):
        ens = simulate_paths(Model(SEASONAL, 0.1872, 0.0), config(), START)
        assert np.all(ens.cross_path_sd == 0.0)
        assert np.array_equal(ens.p05, ens.mean_path)
        assert np.array_equal(ens.p95, ens.mean_path)

    def test_hand_computation(self):
        ens = simulate_paths(Model(SEASONAL, 0.1872, VOL), config(), START)
        lo, hi = np.sort(path_matrix(Model(SEASONAL, 0.1872, VOL), config(), START), axis=0)
        assert np.allclose(ens.mean_path, (lo + hi) / 2)
        assert np.allclose(ens.cross_path_sd, (hi - lo) / np.sqrt(2.0))
        assert np.allclose(ens.p05, lo + 0.05 * (hi - lo))
        assert np.allclose(ens.p95, lo + 0.95 * (hi - lo))


class TestSyntheticSeries:
    def test_calendar_is_leap_free(self):
        dates = leap_free_calendar(dt.date(2000, 1, 1), 730).dates
        assert len(dates) == 730
        assert dates[0] == dt.date(2000, 1, 1)
        assert dates[-1] == dt.date(2001, 12, 31)
        assert not any(d.month == 2 and d.day == 29 for d in dates.tolist())

    def test_month_lengths_feb_always_28(self):
        month_id = leap_free_calendar(dt.date(2000, 1, 1), 365).month_id
        lengths = np.bincount(month_id).tolist()
        assert lengths == [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31]

    def test_zero_override_equals_mean_function(self):
        s = generate_synthetic_series(SEASONAL, 0.1872, 0.0, 2005, 1, seed=3)
        expected = evaluate_seasonal_mean(SEASONAL, np.arange(365))
        assert np.allclose(s.temps, expected, atol=1e-10)

    def test_deterministic(self):
        a = generate_synthetic_series(SEASONAL, 0.1872, VOL, 2000, 2, seed=11)
        b = generate_synthetic_series(SEASONAL, 0.1872, VOL, 2000, 2, seed=11)
        assert a == b

    def test_round_trips_through_csv(self):
        s = generate_synthetic_series(SEASONAL, 0.1872, VOL, 2000, 1, seed=5)
        assert parse_csv(serialize_csv(s)) == s

    def test_stationary_dispersion_constant_vol(self):
        # No trend/seasonality, constant vol: long-run per-day variance of
        # the unit-step recursion is sigma^2 / (1 - (1-kappa)^2).
        kappa, sigma = 0.1872, 0.877
        cfg = SimulationConfig(n_paths=4000, n_days=301, master_seed=17, t0_temp=26.0)
        ens = simulate_paths(Model(FLAT, kappa, sigma), cfg, START)
        target = sigma ** 2 / (1 - (1 - kappa) ** 2)
        var = ens.cross_path_sd[-1] ** 2
        assert var == pytest.approx(target, rel=0.08)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children the simulator forks, on a system granted a
    second CPU."""
    if not hasattr(os, "fork"):
        pytest.skip("this system cannot fork")
    fork, pids = os.fork, []

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid
    monkeypatch.setattr(simulate, "_second_cpu", lambda: True)
    monkeypatch.setattr(simulate.os, "fork", counted)
    return pids


def refuse_fork(monkeypatch):
    def no_fork():
        raise OSError("no fork here")
    monkeypatch.setattr(simulate.os, "fork", no_fork)


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def deadline():
    """A hang fails the test instead of the run."""
    def expire(signum, frame):
        raise TimeoutError("no answer within 60 s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def drawer_dies_on_second_block(forks, monkeypatch):
    parent, draw = os.getpid(), simulate._draw

    def dying(rngs, slot, n_steps):
        if os.getpid() != parent:
            dying.calls += 1   # the child's own copy
            if dying.calls == 2:
                os._exit(1)
        draw(rngs, slot, n_steps)
    dying.calls = 0
    monkeypatch.setattr(simulate, "_draw", dying)


class TestForkedDrawer:
    """An ensemble of two or more blocks draws its normals in a forked
    child; any other, or one on a system that cannot fork, in process."""

    # 2 x 366 ends in a one-day block, and 3 x 800 in 7-day blocks makes
    # the child draw 114 of them.
    @pytest.mark.parametrize("n_paths, n_days, block_days, n_forks", [
        (2, 366, 365, 2), (5, 1100, 365, 2), (3, 800, 7, 2), (1, 800, 365, 0)],
        ids=["2x366", "5x1100", "3x800-blocks-of-7", "1x800"])
    def test_both_routes_give_the_same_bits(self, forks, monkeypatch, n_paths, n_days,
                                            block_days, n_forks):
        monkeypatch.setattr(simulate, "BLOCK_DAYS", block_days)
        model = Model(SEASONAL, 0.1872, VOL)
        cfg = config(n_paths=n_paths, n_days=n_days, master_seed=3)

        def bits():
            ens = simulate_paths(model, cfg, START)
            return [a.tobytes() for a in (*vars(ens).values(), path_matrix(model, cfg, START))]
        forked = bits()
        assert len(forks) == n_forks   # simulate_paths, then the replay
        refuse_fork(monkeypatch)
        assert bits() == forked
        assert len(forks) == n_forks

    def test_no_fork_without_a_second_cpu(self, forks, mapped, monkeypatch):
        monkeypatch.setattr(simulate, "_second_cpu", lambda: False)
        simulate_paths(Model(SEASONAL, 0.1872, VOL), config(n_paths=3, n_days=800), START)
        assert forks == []
        assert mapped == []   # nor a shared slot

    def test_forked_ensemble_draws_nothing_in_the_parent(self, forks, monkeypatch):
        parent, draw, drawn = os.getpid(), simulate._draw, []

        def counted(rngs, slot, n_steps):
            if os.getpid() == parent:   # the child's appends stay in the child
                drawn.append(n_steps)
            draw(rngs, slot, n_steps)
        monkeypatch.setattr(simulate, "_draw", counted)
        simulate_paths(Model(SEASONAL, 0.1872, VOL), config(n_paths=3, n_days=800), START)
        assert len(forks) == 1
        assert drawn == []

    def test_normal_return_reaps_the_drawer(self, forks):
        simulate_paths(Model(SEASONAL, 0.1872, VOL), config(n_paths=3, n_days=800), START)
        assert len(forks) == 1
        assert_no_child()

    def test_overflow_reaps_the_drawer(self, forks):
        with pytest.raises(InputError, match="overflowed"):
            simulate_paths(Model(SEASONAL, 0.1872, 1e308), config(n_paths=3, n_days=800), START)
        assert len(forks) == 1
        assert_no_child()

    def test_summary_raising_mid_ensemble_reaps_the_drawer(self, forks, monkeypatch):
        # The raised exception's traceback keeps simulate_paths' frame alive.
        def fails_on_second_block(ordered, q):
            if len(calls) == 2:
                raise RuntimeError("summary failed")
            calls.append(q)
            return percentile(ordered, q)
        calls, percentile = [], simulate._sorted_percentile
        monkeypatch.setattr(simulate, "_sorted_percentile", fails_on_second_block)
        with pytest.raises(RuntimeError) as raised:
            simulate_paths(Model(SEASONAL, 0.1872, VOL), config(n_paths=3, n_days=800), START)
        assert raised.traceback   # still held here
        assert len(forks) == 1
        assert_no_child()

    def test_consumer_raising_in_the_block_loop_reaps_the_drawer(self, forks):
        with pytest.raises(RuntimeError):
            for first, _ in day_blocks(Model(SEASONAL, 0.1872, VOL),
                                       config(n_paths=3, n_days=800), START):
                if first:
                    raise RuntimeError("consumer failed")
        assert len(forks) == 1
        assert_no_child()

    def test_close_after_the_first_block_reaps_the_drawer(self, forks):
        blocks = day_blocks(Model(SEASONAL, 0.1872, VOL), config(n_paths=3, n_days=800), START)
        assert forks == []   # nothing forks before the first block is asked for
        next(blocks)
        assert len(forks) == 1
        blocks.close()
        assert_no_child()

    def test_fork_warning_in_the_parent_changes_nothing(self, monkeypatch):
        # Python >= 3.12 warns in the parent, once the child exists, of a
        # fork in a process with other threads, such as numpy's BLAS pool.
        if not hasattr(os, "fork"):
            pytest.skip("this system cannot fork")
        model, cfg = Model(SEASONAL, 0.1872, VOL), config(n_paths=3, n_days=800)
        fork, pids = os.fork, []

        def warning_fork():
            pid = fork()
            if pid:
                pids.append(pid)
                warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of "
                              "fork() may lead to deadlocks in the child.", DeprecationWarning)
            return pid
        refuse_fork(monkeypatch)
        in_process = [a.tobytes() for a in vars(simulate_paths(model, cfg, START)).values()]
        monkeypatch.setattr(simulate, "_second_cpu", lambda: True)
        monkeypatch.setattr(simulate.os, "fork", warning_fork)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                forked = simulate_paths(model, cfg, START)
        finally:
            for pid in pids:   # a drawer the raised warning would leave behind
                with contextlib.suppress(ProcessLookupError, ChildProcessError):
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
        assert len(pids) == 1
        assert [a.tobytes() for a in vars(forked).values()] == in_process
        assert_no_child()

    def test_slot_beyond_memory_is_a_memory_error(self, forks, monkeypatch):
        # A shared mapping the system refuses raises OSError, not MemoryError.
        def no_room(*args):
            raise OSError(errno.ENOMEM, "Cannot allocate memory")
        monkeypatch.setattr(simulate.mmap, "mmap", no_room)
        with pytest.raises(MemoryError):
            day_blocks(Model(SEASONAL, 0.1872, VOL), config(n_paths=3, n_days=800), START)

    def test_ignored_sigchld(self, forks):
        # The system reaps a drawer that has ended before the iterator can.
        model, cfg = Model(SEASONAL, 0.1872, VOL), config(n_paths=3, n_days=800)
        expected = simulate_paths(model, cfg, START).mean_path
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            for _ in range(5):
                assert np.array_equal(simulate_paths(model, cfg, START).mean_path, expected)
        finally:
            signal.signal(signal.SIGCHLD, previous)
        assert len(forks) == 6
        assert_no_child()

    def test_drawer_ending_early_raises(self, drawer_dies_on_second_block, deadline):
        with pytest.raises(ChildProcessError, match="ended early"):
            simulate_paths(Model(SEASONAL, 0.1872, VOL), config(n_paths=3, n_days=2000), START)
        assert_no_child()

    def test_drawer_ending_while_the_slot_is_taken_raises(self, forks, monkeypatch,
                                                           deadline):
        # The drawer has written "ready" and ends before the slot is freed;
        # the parent frees it only once the drawer is gone, and that write
        # must not raise a broken pipe.
        parent, read, write = os.getpid(), os.read, os.write

        def dying(fd, n):
            if os.getpid() != parent:
                os._exit(1)
            return read(fd, n)

        def after_the_drawer(fd, data):
            if os.getpid() == parent:
                os.waitpid(forks[0], 0)
            return write(fd, data)
        monkeypatch.setattr(simulate.os, "read", dying)
        monkeypatch.setattr(simulate.os, "write", after_the_drawer)
        with pytest.raises(ChildProcessError, match="ended early"):
            simulate_paths(Model(SEASONAL, 0.1872, VOL), config(n_paths=3, n_days=2000), START)
        assert_no_child()

    # In 7-day blocks from January 1, blocks 0 to 3 step with January's
    # sigma_bar alone; block 4 holds the first day of February's sigma.
    @pytest.mark.parametrize("existing", [False, True], ids=["new-out", "existing-out"])
    def test_overflow_in_a_later_block_exits_the_cli_with_one_line(
            self, forks, monkeypatch, tmp_path, capsys, existing):
        monkeypatch.setattr(simulate, "BLOCK_DAYS", 7)
        payload = json.loads((Path(__file__).parent / "data" / "fit_4y_seed0.json").read_text())
        payload["vol"]["sigma_sigma"] = 1e300
        report, out = tmp_path / "r.json", tmp_path / "e.csv"
        report.write_text(json.dumps(payload))
        if existing:
            out.write_text("an earlier run\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["simulate", "--report", str(report), "--paths", "3",
                           "--days", "800", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "input error: the simulated ensemble overflowed to a non-finite value; "
            "kappa_t or the volatility is out of range"]
        if existing:
            assert out.read_text() == "an earlier run\n"
        else:
            assert not out.exists()
        assert len(forks) == 1
        assert_no_child()

    def test_drawer_ending_early_exits_the_cli_with_one_line(
            self, drawer_dies_on_second_block, deadline, tmp_path, capsys):
        out = tmp_path / "e.csv"
        report = Path(__file__).parent / "data" / "fit_4y_seed0.json"
        rc = cli.main(["simulate", "--report", str(report), "--paths", "3",
                       "--days", "2000", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ") and "ended early" in captured.err
        assert not out.exists()
        assert_no_child()


class TestSummaryBlocks:
    """The per-block summary that simulate_paths collects and simulate writes."""

    # 300 days are one block, 800 days three, which a second CPU draws in a
    # forked child for two or more paths.
    @pytest.mark.parametrize("second_cpu", [True, False], ids=["forked", "in-process"])
    @pytest.mark.parametrize("n_days", [300, 800])
    @pytest.mark.parametrize("n_paths", [1, 2, 3])
    def test_stream_equals_the_ensemble(self, forks, monkeypatch, n_paths, n_days,
                                        second_cpu):
        monkeypatch.setattr(simulate, "_second_cpu", lambda: second_cpu)
        model, cfg = Model(SEASONAL, 0.1872, VOL), config(n_paths=n_paths, n_days=n_days,
                                                          master_seed=4)
        blocks = list(summary_blocks(model, cfg, START))
        assert [first for first, _ in blocks] == list(range(0, n_days, cfg.block_days))
        stream = np.concatenate([summary for _, summary in blocks])
        ens = simulate_paths(model, cfg, START)
        assert stream.tobytes() == np.column_stack(
            (ens.mean_path, ens.cross_path_sd, ens.p05, ens.p95)).tobytes()
        paths = path_matrix(model, cfg, START)
        assert np.array_equal(stream, np.column_stack((
            paths.mean(axis=0),
            paths.std(axis=0, ddof=1) if n_paths >= 2 else np.zeros(n_days),
            np.percentile(paths, 5, axis=0), np.percentile(paths, 95, axis=0))))
        forked = second_cpu and n_paths >= 2 and n_days > simulate.BLOCK_DAYS
        assert len(forks) == (3 if forked else 0)   # the stream, the ensemble, the replay
        assert_no_child()

    def test_overflow_raises_at_its_first_block(self, forks, monkeypatch):
        # As in the CLI test above: block 4 is the first to overflow.
        monkeypatch.setattr(simulate, "BLOCK_DAYS", 7)
        vol = VolatilityModelParams(sigma_bar=0.877, sigma_sigma=1e300, kappa_sigma=0.989)
        firsts, errors = [], np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="overflowed"):
                for first, summary in summary_blocks(Model(SEASONAL, 0.1872, vol),
                                                     config(n_paths=3, n_days=800), START):
                    assert np.isfinite(summary).all()
                    assert np.geterr() == errors   # no errstate leaks out of a block
                    firsts.append(first)
        assert firsts == [0, 7, 14, 21]
        assert len(forks) == 1
        assert_no_child()
