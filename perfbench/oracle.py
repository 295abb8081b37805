"""Output checks that do not use the package under test.

Every check returns a list of problems; an empty list means the output
passed. The fit oracle recomputes each estimator from the input CSV with
plain numpy (normal equations on a centred design, per-month quadratic
variation, the closed-form kappa estimators), so it agrees with a correct
fit to rounding level whatever month layout or summation order the
package uses. Simulation outputs are checked against closed-form moments
(in the style of acceptance criteria 06 and 07) and, where the full path
matrix is written, recomputed from that matrix.
"""

from __future__ import annotations

import functools
import math

import numpy as np

RTOL = 1e-9          # estimator outputs against the oracle
RTOL_AD = 1e-7       # Anderson-Darling: A^2 is -n minus a mean of n terms
RTOL_AD_P = 1e-5     # its p-value, exp(-5.7 A^2*), amplifies that ~30-fold
Z_LIMIT = 7.0        # per-day Monte Carlo checks: false alarm ~1e-8 per file
SUMMARY_HEADER = "day,mean,sd,p05,p95"
Z95 = 1.6448536269514722


def _close(x, y, rtol=RTOL, atol=0.0) -> bool:
    if x is None or y is None:
        return x is None and y is None
    if not (isinstance(x, (int, float)) and isinstance(y, (int, float))):
        return False
    return abs(x - y) <= rtol * max(abs(x), abs(y)) + atol


# --- input parsing -----------------------------------------------------

def parse_series_csv(text: str):
    """(iso dates, temps, precip or None) of a `date,t_avg_c[,precip_mm]` CSV."""
    lines = text.splitlines()
    header = lines[0].split(",")
    if header not in (["date", "t_avg_c"], ["date", "t_avg_c", "precip_mm"]):
        raise ValueError(f"unexpected header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:] if line]
    if any(len(r) != len(header) for r in rows):
        raise ValueError("ragged CSV row")
    dates = [r[0] for r in rows]
    temps = np.array([float(r[1]) for r in rows])
    precip = np.array([float(r[2]) for r in rows]) if len(header) == 3 else None
    return dates, temps, precip


@functools.lru_cache(maxsize=4)
def leap_free_dates(start_year: int, n_years: int) -> list[str]:
    days = np.arange(np.datetime64(f"{start_year:04d}-01-01"),
                     np.datetime64(f"{start_year + n_years:04d}-01-01"),
                     dtype="datetime64[D]")
    return [d for d in np.datetime_as_string(days) if not d.endswith("-02-29")]


# --- fit oracle --------------------------------------------------------

def _describe(x: np.ndarray) -> dict:
    d = x - x.mean()
    m2 = float(np.mean(d * d))
    z = d / math.sqrt(m2)
    return {"mean": float(x.mean()), "median": float(np.median(x)),
            "sd": float(np.std(x, ddof=1)), "skewness": float(np.mean(z ** 3)),
            "excess_kurtosis": float(np.mean(z ** 4)) - 3.0,
            "min": float(x.min()), "max": float(x.max()), "n": int(x.size)}


def _log_ndtr(y: np.ndarray) -> np.ndarray:
    erfc = math.erfc
    return np.log(0.5 * np.array([erfc(v) for v in (y * -math.sqrt(0.5)).tolist()]))


def _anderson_darling(values: np.ndarray) -> dict:
    """Composite-normal A^2 with Stephens' p-value approximation."""
    x = np.sort(values)
    n = x.size
    y = (x - x.mean()) / np.std(x, ddof=1)
    i = np.arange(1, n + 1)
    a2 = -n - float(np.mean((2 * i - 1) * (_log_ndtr(y) + _log_ndtr(-y[::-1]))))
    s = a2 * (1.0 + 0.75 / n + 2.25 / n ** 2)
    if s >= 0.6:
        p = math.exp(1.2937 - 5.709 * s + 0.0186 * s ** 2)
    elif s > 0.34:
        p = math.exp(0.9177 - 4.279 * s - 1.38 * s ** 2)
    elif s > 0.2:
        p = 1.0 - math.exp(-8.318 + 42.796 * s - 59.938 * s ** 2)
    else:
        p = 1.0 - math.exp(-13.436 + 101.14 * s - 223.73 * s ** 2)
    return {"a_squared": a2, "p_value": min(max(p, 0.0), 1.0)}


def _lag1_ratio(d: np.ndarray, w: np.ndarray | None = None) -> float:
    w = np.ones(d.size - 1) if w is None else w
    return float(np.sum(w * d[:-1] * d[1:])) / float(np.sum(w * d[:-1] ** 2))


def fit_oracle(text: str) -> dict:
    """Every estimate `fit` should report for this CSV, from numpy alone."""
    return fit_oracle_parsed(*parse_series_csv(text))


def fit_oracle_parsed(dates: list[str], temps_all: np.ndarray,
                      precip_all: np.ndarray | None) -> dict:
    keep = np.array([not d.endswith("-02-29") for d in dates])
    dates = [d for d, k in zip(dates, keep) if k]
    y = temps_all[keep]
    precip = None if precip_all is None else precip_all[keep]
    n = y.size

    # Seasonal mean: normal equations on a centred, scaled design (the
    # raw design's normal equations would lose ~8 digits to conditioning).
    t = np.arange(n, dtype=float)
    mid, half = (n - 1) / 2.0, (n - 1) / 2.0
    phase = 2.0 * np.pi * t / 365.0
    x = np.column_stack([np.ones(n), (t - mid) / half, np.sin(phase), np.cos(phase)])
    g0, g1, b2, b3 = np.linalg.solve(x.T @ x, x.T @ y)
    b1 = g1 / half
    b0 = g0 - b1 * mid
    fitted = b0 + b1 * t + b2 * np.sin(phase) + b3 * np.cos(phase)
    resid = y - fitted
    r2 = 1.0 - float(np.sum(resid ** 2)) / float(np.sum((y - y.mean()) ** 2))

    # Monthly quadratic variation over within-month increments.
    keys = [d[:7] for d in dates]
    bounds = [0] + [i for i in range(1, n) if keys[i] != keys[i - 1]] + [n]
    months, sigmas, month_of_day = [], [], np.empty(n, dtype=int)
    for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        inc = np.diff(y[lo:hi])
        sigmas.append(math.sqrt(float(np.sum(inc * inc)) / inc.size))
        months.append((int(keys[lo][:4]), int(keys[lo][5:7])))
        month_of_day[lo:hi] = k
    sig = np.array(sigmas)
    sigma_bar = float(sig.mean())
    vol_ratio = _lag1_ratio(sig - sigma_bar)

    w = 1.0 / sig[month_of_day[:-1]] ** 2
    kappa_ratio = _lag1_ratio(resid, w)
    kappa_t = -math.log(kappa_ratio) if 0.0 < kappa_ratio < 1.0 else None
    terms_scale = None
    if kappa_t is not None:
        terms_scale = float(np.sum(np.abs(
            w * resid[:-1] * (resid[1:] - resid[:-1] * kappa_ratio))))
    return {
        "n_obs": n, "start": dates[0], "end": dates[-1],
        "leap_days_removed": int((~keep).sum()),
        "seasonal": {"a_t": float(b0), "b_t": float(b1),
                     "c_t": math.hypot(b2, b3), "psi": math.atan2(b3, b2),
                     "r2": r2},
        "monthly_vols": [(y_, m_, s_) for (y_, m_), s_ in zip(months, sigmas)],
        "sigma_bar": sigma_bar,
        "sigma_sigma": math.sqrt(float(np.mean(np.diff(sig) ** 2))),
        "vol_ratio": vol_ratio,
        "kappa_sigma": -math.log(vol_ratio) if 0.0 < vol_ratio < 1.0 else None,
        "kappa_ratio": kappa_ratio,
        "kappa_t": kappa_t,
        "terms_scale": terms_scale,
        "n_terms": n - 1,
        "describe_temp": _describe(y),
        "describe_precip": None if precip is None else _describe(precip),
        "ad_temp": _anderson_darling(y),
        "ad_resid": _anderson_darling(resid),
    }


def expected_failure_stages(oracle: dict) -> set[str]:
    """Stages whose lag-1 ratio leaves (0, 1), so a log is undefined."""
    stages = set()
    if oracle["kappa_sigma"] is None:
        stages.add("volatility")
    if oracle["kappa_t"] is None:
        stages.add("mean_reversion")
    return stages


def check_fit_outcome(report: dict | None, failed_stage: str | None,
                      oracle: dict) -> list[str]:
    """A report, or an estimation failure at `failed_stage`, against the oracle."""
    expected = expected_failure_stages(oracle)
    if report is None:
        if failed_stage in expected:
            return []
        return [f"estimation failure at stage {failed_stage!r}, but the oracle's "
                f"lag-1 ratios are vol={oracle['vol_ratio']:.6g}, "
                f"kappa={oracle['kappa_ratio']:.6g} (failing stages {sorted(expected)})"]
    if expected:
        return [f"report written, but the oracle expects failure at {sorted(expected)}"]
    return check_report(report, oracle)


def check_report(rep: dict, o: dict) -> list[str]:
    bad = []

    def cmp(name, got, want, rtol=RTOL, atol=0.0):
        if not _close(got, want, rtol, atol):
            bad.append(f"{name}: report {got!r} vs oracle {want!r}")

    try:
        for k, v in o["seasonal"].items():
            cmp(f"seasonal.{k}", rep["seasonal"][k], v)
        got = rep["monthly_vols"]
        if [(e["year"], e["month"]) for e in got] != [(y, m) for y, m, _ in o["monthly_vols"]]:
            bad.append("monthly_vols: month list differs from the calendar months")
        else:
            for e, (_, _, s) in zip(got, o["monthly_vols"]):
                cmp(f"monthly_vols[{e['year']}-{e['month']:02d}]", e["sigma"], s)
        cmp("vol.sigma_bar", rep["vol"]["sigma_bar"], o["sigma_bar"])
        cmp("vol.sigma_sigma", rep["vol"]["sigma_sigma"], o["sigma_sigma"])
        cmp("vol.kappa_sigma", rep["vol"]["kappa_sigma"], o["kappa_sigma"])
        cmp("kappa_t", rep["kappa_t"], o["kappa_t"])
        g = rep["g_at_kappa"]
        if not isinstance(g, float) or abs(g) > RTOL * o["terms_scale"]:
            bad.append(f"g_at_kappa {g!r} not ~0 (term scale {o['terms_scale']:.6g})")
        # The fields below are checked where the report has them, so that a
        # schema change that drops one is not mistaken for a wrong number.
        for k in ("n_obs", "start", "end", "leap_days_removed"):
            if k in rep.get("meta", {}) and rep["meta"][k] != o[k]:
                bad.append(f"meta.{k}: {rep['meta'][k]!r} vs {o[k]!r}")
        if "n_terms" in rep and rep["n_terms"] != o["n_terms"]:
            bad.append(f"n_terms: {rep['n_terms']} vs {o['n_terms']}")
        if "daily_adjustment_fraction" in rep:
            cmp("daily_adjustment_fraction", rep["daily_adjustment_fraction"],
                1.0 - math.exp(-o["kappa_t"]))
        descriptive = rep.get("descriptive", {})
        for key, want in (("temperature", o["describe_temp"]),
                          ("precipitation", o["describe_precip"])):
            if key not in descriptive:
                continue
            got = descriptive[key]
            if want is None or got is None:
                if want is not got:
                    bad.append(f"descriptive.{key}: {got!r} vs {want!r}")
                continue
            for k, v in want.items():
                cmp(f"descriptive.{key}.{k}", got[k], v, atol=1e-12)
        normality = rep.get("normality", {})
        for key, want in (("temperature", o["ad_temp"]), ("residuals", o["ad_resid"])):
            if key not in normality:
                continue
            got = normality[key]
            cmp(f"normality.{key}.a_squared", got["a_squared"], want["a_squared"], RTOL_AD)
            cmp(f"normality.{key}.p_value", got["p_value"], want["p_value"],
                RTOL_AD_P, 1e-12)
    except (KeyError, TypeError, IndexError) as exc:
        bad.append(f"report is missing or mistypes a field: {exc!r}")
    return bad


def check_vols_csv(text: str, rep: dict) -> list[str]:
    """The `year,month,sigma` CSV must equal the report's monthly_vols."""
    lines = text.splitlines()
    if not lines or lines[0] != "year,month,sigma":
        return [f"vols CSV header {lines[:1]!r}"]
    rows = [line.split(",") for line in lines[1:]]
    got = [(int(r[0]), int(r[1]), float(r[2])) for r in rows]
    want = [(e["year"], e["month"], e["sigma"]) for e in rep["monthly_vols"]]
    if len(got) != len(want):
        return [f"vols CSV has {len(got)} rows, report {len(want)}"]
    return [f"vols CSV row {i + 1}: {g!r} vs report {w!r}"
            for i, (g, w) in enumerate(zip(got, want))
            if g[:2] != w[:2] or not _close(g[2], w[2], 1e-12)][:5]


def check_synth_series(dates: list[str], temps: np.ndarray, precip,
                       start_year: int, n_years: int) -> list[str]:
    """A parsed synthetic series: the leap-free calendar, finite sane values."""
    bad = []
    if precip is not None:
        bad.append("synthetic CSV has a precipitation column")
    if dates != leap_free_dates(start_year, n_years):
        bad.append("synthetic CSV dates are not the leap-free calendar")
    if not (np.all(np.isfinite(temps)) and temps.min() >= -90 and temps.max() <= 60):
        bad.append("synthetic CSV has non-finite or out-of-range temperatures")
    return bad


# --- simulation checks -------------------------------------------------

NUMPY_REPR = "np.float64("


def wrapped_values(text: str) -> int:
    """How many values are written as `np.float64(x)` instead of `x`.

    numpy >= 2 spells a numpy scalar's repr that way, so a CSV writer that
    calls repr() on numpy scalars emits it. The wrapper encodes the float
    exactly, so the numeric checks decode it, and the benchmark reports
    the count as a format defect instead of hiding it.
    """
    return text.count(NUMPY_REPR)


def parse_summary(text: str):
    """(header, array of day,mean,sd,p05,p95 rows) of a summary CSV."""
    header, _, body = text.partition("\n")
    if NUMPY_REPR in body:
        body = body.replace(NUMPY_REPR, "").replace(")", "")
    return header, np.loadtxt(body.splitlines(), delimiter=",", ndmin=2)


def _stationary_variance_band(rep: dict) -> tuple[float, float]:
    """Band for the stationary deviation variance: the Euler and the exact
    OU transitions both count as correct, for either layer."""
    k, sb = rep["kappa_t"], rep["vol"]["sigma_bar"]
    ss, ks = rep["vol"]["sigma_sigma"], rep["vol"]["kappa_sigma"]
    vol_var = [ss ** 2 / (2 * ks)]
    if 0 < ks < 2:
        vol_var.append(ss ** 2 / (ks * (2 - ks)))
    ar_denom = [2 * k] + ([k * (2 - k)] if 0 < k < 2 else [])
    targets = [(sb ** 2 + v) / d for v in vol_var for d in ar_denom]
    return 0.9 * min(targets), 1.1 * max(targets)


def check_summary(text: str, rep: dict, n_paths: int, n_days: int):
    """Closed-form checks of a `day,mean,sd,p05,p95` summary.

    Returns (problems, parsed array). With T(0) = m(0) the expected path
    is m(t) exactly, and the cross-path variance settles to a value the
    report's parameters fix.
    """
    header, a = parse_summary(text)
    if header != SUMMARY_HEADER:
        return [f"summary header {header!r}"], a
    if a.shape != (n_days, 5):
        return [f"summary shape {a.shape}, expected ({n_days}, 5)"], a
    if not np.all(np.isfinite(a)):
        return ["summary has non-finite values"], a
    bad = []
    day, mean, sd, p05, p95 = a.T
    if not np.array_equal(day, np.arange(n_days)):
        bad.append("summary day column is not 0..n-1")
    s = rep["seasonal"]
    t = np.arange(n_days)
    m = s["a_t"] + s["b_t"] * t + s["c_t"] * np.sin(2 * np.pi * t / 365.0 + s["psi"])
    t0 = s["a_t"] + s["c_t"] * math.sin(s["psi"])
    if not all(_close(v, t0, 1e-12) for v in (mean[0], p05[0], p95[0])) \
            or sd[0] > 1e-12 * abs(t0):
        bad.append(f"day 0 is not exactly T0={t0!r}: {a[0].tolist()}")
    if np.any(sd < 0) or np.any(p05 > p95):
        bad.append("negative sd or p05 > p95")
    se = sd[1:] / math.sqrt(n_paths)
    z = np.abs(mean[1:] - m[1:]) / se
    if z.max() > Z_LIMIT:
        j = int(z.argmax()) + 1
        bad.append(f"mean path off m(t) by {z.max():.1f} standard errors on day {j}")
    var = sd[365:] ** 2
    lo, hi = _stationary_variance_band(rep)
    if not lo <= var.mean() <= hi:
        bad.append(f"stationary variance {var.mean():.5g} outside [{lo:.5g}, {hi:.5g}]")
    rel = np.abs(sd[60:] ** 2 / var.mean() - 1.0)
    tol = 0.05 + Z_LIMIT * math.sqrt(4.0 / (n_paths - 1))
    if rel.max() > tol:
        bad.append(f"day {int(rel.argmax()) + 60} variance off the stationary "
                   f"level by {rel.max():.1%} (limit {tol:.1%})")
    spread = (p95[1:] - p05[1:]) / (2 * Z95 * sd[1:])
    tol = 0.05 + Z_LIMIT * 1.3 / math.sqrt(n_paths)
    if np.abs(spread - 1).max() > tol:
        j = int(np.abs(spread - 1).argmax()) + 1
        bad.append(f"day {j} p95-p05 is {spread[j - 1]:.3f} x the normal range")
    return bad, a


def check_matrix(text: str, n_paths: int, n_days: int):
    """Structure of a full path matrix CSV; returns (problems, paths array)."""
    header, _, body = text.partition("\n")
    want = "day," + ",".join(f"path_{p}" for p in range(n_paths))
    if header != want:
        return [f"matrix header starts {header[:40]!r}"], None
    mat = np.loadtxt(body.splitlines(), delimiter=",", ndmin=2)
    if mat.shape != (n_days, n_paths + 1):
        return [f"matrix shape {mat.shape}, expected ({n_days}, {n_paths + 1})"], None
    if not np.all(np.isfinite(mat)):
        return ["matrix has non-finite values"], None
    if not np.array_equal(mat[:, 0], np.arange(n_days)):
        return ["matrix day column is not 0..n-1"], None
    return [], mat[:, 1:]


def check_summary_of(paths: np.ndarray, summary: np.ndarray) -> list[str]:
    """The summary must equal mean, sd (ddof=1), p05 and p95 of the paths."""
    bad = []
    for col, name, values in (
            (1, "mean", paths.mean(axis=1)),
            (2, "sd", paths.std(axis=1, ddof=1)),
            (3, "p05", np.percentile(paths, 5, axis=1)),
            (4, "p95", np.percentile(paths, 95, axis=1))):
        err = np.abs(summary[:, col] - values)
        lim = RTOL * np.maximum(1.0, np.abs(values))
        if np.any(err > lim):
            j = int((err - lim).argmax())
            bad.append(f"summary {name} on day {j} is {summary[j, col]!r}, "
                       f"matrix gives {values[j]!r}")
    return bad
