"""Seeded station-file generator, independent of the package under test.

The file imitates a real daily weather station: a seasonal mean with a
slight warming trend, AR(1) deviations whose volatility follows a
seasonal cycle (winters are more volatile than summers) with a small
month-to-month wobble, values rounded to 0.1, Feb 29 rows kept, and a
`precip_mm` column of wet-day gamma amounts. Nothing here imports
`outemp`, so a change to the package's own synthetic generator cannot
change the inputs two commits are measured on.
"""

from __future__ import annotations

import numpy as np

START_YEAR = 1996
N_YEARS = 24            # 1996..2019: 8,760 leap-free days + 6 Feb 29 rows

MEAN_LEVEL = 12.0       # degC
TREND = 8.0e-5          # degC per day, about 0.03 degC per year
AMPLITUDE = 9.0         # degC
WARMEST_DAY = 200       # leap-free day of year of the seasonal peak
AR_COEF = 0.75          # day-to-day persistence of the deviations
VOL_LEVEL = 2.0         # degC per sqrt(day)
VOL_CYCLE = 0.3         # relative amplitude of the seasonal volatility cycle
VOL_WOBBLE = 0.08       # sd of the monthly log-volatility wobble
WET_DAY_PROB = 0.3

HEADER = "date,t_avg_c,precip_mm\n"


def station_csv(seed: int) -> str:
    """The station file text for a workload seed."""
    rng = np.random.default_rng([seed, 20240906])
    days = np.arange(np.datetime64(f"{START_YEAR}-01-01"),
                     np.datetime64(f"{START_YEAR + N_YEARS}-01-01"), dtype="datetime64[D]")
    iso = np.datetime_as_string(days)
    feb29 = np.char.endswith(iso, "-02-29")
    # Leap-free day index; a Feb 29 row sits half-way after Feb 28.
    t = np.cumsum(~feb29) - 1.0
    t[feb29] += 0.5
    phase = 2.0 * np.pi * (t - WARMEST_DAY) / 365.0
    mean = MEAN_LEVEL + TREND * t + AMPLITUDE * np.cos(phase)

    months = days.astype("datetime64[M]")
    month_id = (months - months[0]).astype(int)
    wobble = np.exp(VOL_WOBBLE * rng.standard_normal(month_id[-1] + 1))
    vol = VOL_LEVEL * (1.0 - VOL_CYCLE * np.cos(phase)) * wobble[month_id]

    shocks = vol * rng.standard_normal(days.size)
    dev = np.empty(days.size)
    dev[0] = shocks[0] / np.sqrt(1.0 - AR_COEF ** 2)
    for i in range(1, days.size):
        dev[i] = AR_COEF * dev[i - 1] + shocks[i]
    temps = np.round(mean + dev, 1) + 0.0   # + 0.0 turns -0.0 into 0.0

    wet = rng.random(days.size) < WET_DAY_PROB
    precip = np.where(wet, np.round(rng.gamma(0.8, 6.0, days.size), 1), 0.0)

    rows = [f"{d},{x:.1f},{p:.1f}\n" for d, x, p in zip(iso, temps, precip)]
    return HEADER + "".join(rows)
