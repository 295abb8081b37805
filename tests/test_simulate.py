import datetime as dt
import tracemalloc

import numpy as np
import pytest

from outemp import InputError, parse_csv
from outemp import simulate
from outemp.seasonal import SeasonalMeanParams, evaluate_seasonal_mean
from outemp.series import leap_free_days, month_index, serialize_csv
from outemp.simulate import (VOL_FLOOR, SimulationConfig, _vol_recursion, day_blocks,
                             generate_synthetic_series, simulate_paths)
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


def path_matrix(*args):
    """The C-ordered (n_paths, n_days) path matrix stacked from day_blocks."""
    return np.ascontiguousarray(
        np.concatenate([block for _, block in day_blocks(*args)]).T)


class TestSimulatePaths:
    def test_zero_noise_on_mean_tracks_mean_function(self):
        cfg = config(constant_vol_override=0.0)
        ens = simulate_paths(SEASONAL, 0.1872, None, cfg, START)
        paths = path_matrix(SEASONAL, 0.1872, None, cfg, START)
        expected = evaluate_seasonal_mean(SEASONAL, np.arange(cfg.n_days))
        assert np.allclose(paths, expected[np.newaxis, :], atol=1e-10)
        assert np.allclose(ens.mean_path, expected, atol=1e-10)

    def test_zero_noise_deviation_decay(self):
        d0 = 3.0
        cfg = config(n_paths=1, constant_vol_override=0.0,
                     t0_temp=evaluate_seasonal_mean(SEASONAL, 0) + d0)
        paths = path_matrix(SEASONAL, 0.1872, None, cfg, START)
        expected_dev = d0 * (1 - 0.1872) ** np.arange(cfg.n_days)
        dev = paths[0] - evaluate_seasonal_mean(SEASONAL, np.arange(cfg.n_days))
        assert np.allclose(dev, expected_dev, atol=1e-9)

    def test_bit_identical_reproducibility(self):
        cfg = config(n_paths=8, n_days=200, master_seed=42)
        a = path_matrix(SEASONAL, 0.1872, VOL, cfg, START)
        b = path_matrix(SEASONAL, 0.1872, VOL, cfg, START)
        assert np.array_equal(a, b)

    def test_paths_use_per_path_substreams(self):
        # Path p's trajectory must not depend on how many paths run.
        big = path_matrix(SEASONAL, 0.1872, VOL, config(n_paths=5), START)
        small = path_matrix(SEASONAL, 0.1872, VOL, config(n_paths=2), START)
        assert np.array_equal(big[:2], small)

    def test_mean_path_is_exact_column_mean(self):
        ens = simulate_paths(SEASONAL, 0.1872, VOL, config(n_paths=6), START)
        paths = path_matrix(SEASONAL, 0.1872, VOL, config(n_paths=6), START)
        assert np.array_equal(ens.mean_path, paths.mean(axis=0))

    # 800 days: two full blocks and a partial one. 1000 paths take the
    # 5th and 95th percentiles between sorted indices 49/50 and 949/950,
    # and make the in-place sd sum over many paths.
    @pytest.mark.parametrize("n_paths, n_days", [
        pytest.param(n, d, id=str(n))
        for n, d in [(1, 800), (2, 800), (3, 800), (20, 800), (1000, 400)]])
    def test_summary_equals_numpy_over_path_matrix(self, n_paths, n_days):
        cfg = config(n_paths=n_paths, n_days=n_days, master_seed=9)
        ens = simulate_paths(SEASONAL, 0.1872, VOL, cfg, START)
        paths = path_matrix(SEASONAL, 0.1872, VOL, cfg, START)
        assert np.array_equal(ens.p05, np.percentile(paths, 5, axis=0))
        assert np.array_equal(ens.p95, np.percentile(paths, 95, axis=0))
        assert np.array_equal(ens.mean_path, paths.mean(axis=0))
        if n_paths >= 2:
            assert np.array_equal(ens.cross_path_sd, paths.std(axis=0, ddof=1))

    def test_blocks_are_contiguous_day_rows(self):
        cfg = config(n_paths=3, n_days=800)
        blocks = list(day_blocks(SEASONAL, 0.1872, VOL, cfg, START))
        assert [first for first, _ in blocks] == [0, 365, 730]
        assert [b.shape for _, b in blocks] == [(365, 3), (365, 3), (70, 3)]
        assert all(b.flags.c_contiguous for _, b in blocks)

    def test_block_length_does_not_change_paths(self, monkeypatch):
        # Drawing each path's normals in chunks replays its one-shot stream.
        cfg = config(n_paths=4, n_days=400)
        whole = path_matrix(SEASONAL, 0.1872, VOL, cfg, START)
        monkeypatch.setattr(simulate, "BLOCK_DAYS", 7)
        assert np.array_equal(path_matrix(SEASONAL, 0.1872, VOL, cfg, START), whole)

    def test_memory_bounded_by_paths_not_days(self):
        # A (500, 20000) matrix of paths alone would take 80 MB.
        cfg = config(n_paths=500, n_days=20_000)
        tracemalloc.start()
        try:
            simulate_paths(SEASONAL, 0.1872, VOL, cfg, START)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6

    def test_three_block_buffers(self):
        # The kernel holds sigma, the generators and three block-sized
        # buffers: the normals, the rows being yielded and the summary's
        # path-major copy. A fourth would add 2.92 MB and break the bound.
        n_paths, n_days = 1000, 800
        n_months = int(month_index(leap_free_days(START, n_days))[0][-1]) + 1
        bound = (n_months * n_paths * 8                        # sigma
                 + n_paths * 1500                              # generators, ~930 B each
                 + 3 * n_paths * simulate.BLOCK_DAYS * 8       # block buffers
                 + 500_000)                                    # per-day arrays, temporaries
        # numpy's one-time set-up on its first generators is not the kernel's.
        simulate_paths(SEASONAL, 0.1872, VOL, config(n_days=1), START)
        tracemalloc.start()
        try:
            simulate_paths(SEASONAL, 0.1872, VOL, config(n_paths=n_paths, n_days=n_days), START)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    @pytest.mark.parametrize("override", [None, 0.0, 1.3])
    @pytest.mark.parametrize("start", [START, dt.date(2003, 3, 17)])
    @pytest.mark.parametrize("n_days", [1, 2, 365, 366, 1100])
    def test_one_path_equals_first_column(self, n_days, start, override):
        # One path steps Python floats, three step numpy rows.
        def stacked(n_paths):
            cfg = config(n_paths=n_paths, n_days=n_days, master_seed=5,
                         constant_vol_override=override)
            return path_matrix(SEASONAL, 0.1872, VOL, cfg, start)
        assert np.array_equal(stacked(1)[0], stacked(3)[0])

    def test_one_path_equals_first_column_at_vol_floor(self):
        # With sigma_sigma = 2 about a third of the months hit VOL_FLOOR,
        # where one path floors with max and three with np.maximum.
        wild = VolatilityModelParams(sigma_bar=0.877, sigma_sigma=2.0, kappa_sigma=0.989)
        n_days = 1100
        n_months = int(month_index(leap_free_days(START, n_days))[0][-1]) + 1
        sigma = np.empty((n_months, 3))
        sigma[0] = wild.sigma_bar
        for p in range(3):
            sigma[1:, p] = np.random.default_rng([5, p]).standard_normal(n_months - 1)
        one = _vol_recursion(wild, sigma[:, :1].copy())
        assert np.count_nonzero(_vol_recursion(wild, sigma)[:, 0] == VOL_FLOOR) > 0
        assert np.array_equal(one[:, 0], sigma[:, 0])

        def stacked(n_paths):
            cfg = config(n_paths=n_paths, n_days=n_days, master_seed=5)
            return path_matrix(SEASONAL, 0.1872, wild, cfg, START)
        assert np.array_equal(stacked(1)[0], stacked(3)[0])

    def test_invalid_kappa(self):
        with pytest.raises(InputError):
            simulate_paths(SEASONAL, 0.0, VOL, config(), START)

    def test_kappa_outside_euler_stable_range(self):
        with pytest.raises(InputError, match="kappa_t 2.0 is outside 0 < kappa_t < 2"):
            simulate_paths(SEASONAL, 2.0, VOL, config(), START)
        with pytest.raises(InputError, match="kappa_t"):
            generate_synthetic_series(SEASONAL, 2.5, VOL, 2000, 1, seed=0)
        ens = simulate_paths(SEASONAL, 1.99, VOL, config(), START)
        assert np.isfinite(ens.mean_path).all()

    def test_missing_vol_params(self):
        with pytest.raises(InputError):
            simulate_paths(SEASONAL, 0.1872, None, config(), START)

    def test_single_path_has_no_sd(self):
        ens = simulate_paths(SEASONAL, 0.1872, VOL, config(n_paths=1), START)
        assert ens.cross_path_sd is None


class TestEnsembleSummary:
    def test_identical_paths_zero_sd(self):
        cfg = config(constant_vol_override=0.0)
        ens = simulate_paths(SEASONAL, 0.1872, None, cfg, START)
        assert np.all(ens.cross_path_sd == 0.0)
        assert np.array_equal(ens.p05, ens.mean_path)
        assert np.array_equal(ens.p95, ens.mean_path)

    def test_hand_computation(self):
        ens = simulate_paths(SEASONAL, 0.1872, VOL, config(), START)
        lo, hi = np.sort(path_matrix(SEASONAL, 0.1872, VOL, config(), START), axis=0)
        assert np.allclose(ens.mean_path, (lo + hi) / 2)
        assert np.allclose(ens.cross_path_sd, (hi - lo) / np.sqrt(2.0))
        assert np.allclose(ens.p05, lo + 0.05 * (hi - lo))
        assert np.allclose(ens.p95, lo + 0.95 * (hi - lo))


class TestSyntheticSeries:
    def test_calendar_is_leap_free(self):
        dates = leap_free_days(dt.date(2000, 1, 1), 730)
        assert len(dates) == 730
        assert dates[0] == dt.date(2000, 1, 1)
        assert dates[-1] == dt.date(2001, 12, 31)
        assert not any(d.month == 2 and d.day == 29 for d in dates.tolist())

    def test_month_lengths_feb_always_28(self):
        month_id, _ = month_index(leap_free_days(dt.date(2000, 1, 1), 365))
        lengths = np.bincount(month_id).tolist()
        assert lengths == [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31]

    def test_zero_override_equals_mean_function(self):
        s = generate_synthetic_series(SEASONAL, 0.1872, VOL, 2005, 1, seed=3,
                                      constant_vol_override=0.0)
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
        cfg = SimulationConfig(n_paths=4000, n_days=301, master_seed=17,
                               t0_temp=26.0, constant_vol_override=sigma)
        ens = simulate_paths(FLAT, kappa, None, cfg, START)
        target = sigma ** 2 / (1 - (1 - kappa) ** 2)
        var = ens.cross_path_sd[-1] ** 2
        assert var == pytest.approx(target, rel=0.08)
