"""Golden outputs: `synth --years 4 --seed 0`, the `fit` report of that
series, `simulate --paths 5 --days 1100 --seed 3 --full-paths` from
that report, and `serialize_csv` of a short series with edge-case dates
and floats, written once and compared on every run.

The synthetic and simulated CSVs must match byte for byte; 1100 days
span several simulation blocks and end in a partial one. In the report, integers,
dates, the month list and nulls must match exactly, and every float must
match to a relative tolerance fixed when the files were written; a
change that moves a float further is a behaviour change, not noise.
"""

import json
from pathlib import Path

import numpy as np

from outemp import TemperatureSeries, parse_csv
from outemp.series import serialize_csv
from outemp.cli import main

DATA = Path(__file__).parent / "data"
SYNTH_CSV = DATA / "synth_4y_seed0.csv"
FIT_REPORT = DATA / "fit_4y_seed0.json"
SIM_SUMMARY = DATA / "simulate_5p_1100d_seed3.csv"
SIM_PATHS = DATA / "simulate_5p_1100d_seed3_paths.csv"
SERIALIZED = DATA / "serialize_8rows_precip.csv"
RTOL = 1e-12


def _leaves(obj, path=""):
    """(path, value) for every scalar of a JSON document."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, obj


def test_synth_csv_byte_identical(tmp_path):
    out = tmp_path / "synth.csv"
    assert main(["synth", "--years", "4", "--seed", "0", "--out", str(out)]) == 0
    assert out.read_bytes() == SYNTH_CSV.read_bytes()


def test_fit_report_matches_golden(tmp_path):
    out = tmp_path / "report.json"
    assert main(["fit", "--input", str(SYNTH_CSV), "--out", str(out)]) == 0
    got = dict(_leaves(json.loads(out.read_text())))
    want = dict(_leaves(json.loads(FIT_REPORT.read_text())))
    assert list(got) == list(want)
    for path, w in want.items():
        g = got[path]
        assert type(g) is type(w), path
        if isinstance(w, float):
            assert abs(g - w) <= RTOL * abs(w), f"{path}: {g!r} vs {w!r}"
        else:
            assert g == w, path


def test_simulate_csvs_byte_identical(tmp_path):
    summary, paths = tmp_path / "summary.csv", tmp_path / "paths.csv"
    assert main(["simulate", "--report", str(FIT_REPORT), "--paths", "5",
                 "--days", "1100", "--seed", "3", "--out", str(summary),
                 "--full-paths", str(paths)]) == 0
    assert summary.read_bytes() == SIM_SUMMARY.read_bytes()
    assert paths.read_bytes() == SIM_PATHS.read_bytes()


def test_serialize_csv_byte_identical():
    # First and last ISO years, a Feb 29, signed zeros, a subnormal and
    # values whose shortest repr has many digits.
    series = TemperatureSeries(
        dates=np.array(["0001-01-01", "0001-01-02", "0999-12-31", "1970-01-01",
                        "2000-02-29", "2024-07-04", "9999-12-30", "9999-12-31"],
                       dtype="datetime64[D]"),
        temps=[0.0, -0.0, 1e-07, 25.125, -89.5, 59.99999999999999, 1 / 3,
               -12.300000000000004],
        precip=[0.0, -0.0, 1e-07, 25.125, 0.1 + 0.2, 1234.5, 5e-324, 0.0])
    text = serialize_csv(series)
    assert text.encode() == SERIALIZED.read_bytes()
    assert parse_csv(text) == series
