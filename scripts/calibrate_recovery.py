"""Sampling-distribution calibration for the parameter-recovery gate.

Generates many 24-year synthetic series at the reference parameters,
refits the full pipeline on each, and prints percentiles of every
recovered parameter (plus the estimation-failure rate). Used once to
choose the recovery windows frozen in tests/test_acceptance.py.

Run: python3 scripts/calibrate_recovery.py [n_replicates]
"""

from __future__ import annotations

import dataclasses
import sys

import numpy as np

from outemp import EstimationError, fit_full_model
from outemp.simulate import Model, generate_synthetic_series
from outemp.cli import DEFAULT_KAPPA_T, DEFAULT_SEASONAL, DEFAULT_VOL


def parameters(model: Model) -> dict[str, float]:
    """The recovered parameters by name: the seasonal mean's fields but
    its R^2, then kappa_t, then the volatility process's fields."""
    fields = dataclasses.asdict(model.seasonal)
    del fields["r_squared_fit"]
    return {**fields, "kappa_t": model.kappa_t, **dataclasses.asdict(model.vol)}


def main(n_reps: int = 100) -> None:
    model = Model(DEFAULT_SEASONAL, DEFAULT_KAPPA_T, DEFAULT_VOL)
    truth = parameters(model)
    rows = {k: [] for k in truth}
    failures = {"total": 0}
    for seed in range(n_reps):
        series = generate_synthetic_series(model.seasonal, model.kappa_t, model.vol,
                                           start_year=2000, n_years=24, seed=seed)
        try:
            rep = fit_full_model(series)
        except EstimationError as exc:
            failures["total"] += 1
            failures[str(exc.stage)] = failures.get(str(exc.stage), 0) + 1
            continue
        for key, value in parameters(rep.model).items():
            rows[key].append(value)

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
