"""Sampling-distribution calibration for the parameter-recovery gate.

Generates many 24-year synthetic series at the reference parameters,
refits the full pipeline on each, and prints percentiles of every
recovered parameter (plus the estimation-failure rate). Used once to
choose the recovery windows frozen in tests/test_acceptance.py.

Run: python3 scripts/calibrate_recovery.py [n_replicates]
"""

from __future__ import annotations

import sys

import numpy as np

from outemp import EstimationError, fit_full_model
from outemp.simulate import generate_synthetic_series
from outemp.cli import DEFAULT_KAPPA_T, DEFAULT_SEASONAL, DEFAULT_VOL


def main(n_reps: int = 100) -> None:
    rows = {k: [] for k in ("a_t", "b_t", "c_t", "psi", "kappa_t",
                            "sigma_bar", "sigma_sigma", "kappa_sigma")}
    failures = {"total": 0}
    for seed in range(n_reps):
        series = generate_synthetic_series(
            DEFAULT_SEASONAL, DEFAULT_KAPPA_T, DEFAULT_VOL,
            start_year=2000, n_years=24, seed=seed)
        try:
            rep = fit_full_model(series)
        except EstimationError as exc:
            failures["total"] += 1
            failures.setdefault(str(exc.stage), 0)
            failures[str(exc.stage)] += 1
            continue
        rows["a_t"].append(rep.seasonal.a_t)
        rows["b_t"].append(rep.seasonal.b_t)
        rows["c_t"].append(rep.seasonal.c_t)
        rows["psi"].append(rep.seasonal.psi)
        rows["kappa_t"].append(rep.kappa.kappa_t)
        rows["sigma_bar"].append(rep.vol.sigma_bar)
        rows["sigma_sigma"].append(rep.vol.sigma_sigma)
        rows["kappa_sigma"].append(rep.vol.kappa_sigma)

    truth = {"a_t": 26.4, "b_t": -7.58e-5, "c_t": 1.75, "psi": 0.531,
             "kappa_t": 0.1872, "sigma_bar": 0.877, "sigma_sigma": 0.419,
             "kappa_sigma": 0.989}
    print(f"replicates: {n_reps}, failures: {failures}")
    print(f"{'param':<12}{'truth':>10}{'p2.5':>12}{'median':>12}{'p97.5':>12}{'n':>6}")
    for key, vals in rows.items():
        v = np.array(vals)
        print(f"{key:<12}{truth[key]:>10.4g}{np.percentile(v, 2.5):>12.4g}"
              f"{np.median(v):>12.4g}{np.percentile(v, 97.5):>12.4g}{v.size:>6}")

    # Distribution of the median over 20-replicate batches (the statistic
    # the acceptance gate actually checks), via bootstrap.
    rng = np.random.default_rng(0)
    print("\nmedian-of-20 bootstrap (p2.5 / p97.5):")
    for key, vals in rows.items():
        v = np.array(vals)
        meds = np.median(rng.choice(v, size=(2000, 20)), axis=1)
        print(f"{key:<12}{np.percentile(meds, 2.5):>12.4g}"
              f"{np.percentile(meds, 97.5):>12.4g}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 100)
