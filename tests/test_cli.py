import contextlib
import datetime as dt
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outemp import parse_csv, report_from_dict, simulate
from outemp.seasonal import evaluate_seasonal_mean
from outemp.simulate import SimulationConfig
from outemp import cli
from outemp.cli import main
from outemp.series import leap_free_days, month_index

GOLDEN_REPORT = Path(__file__).parent / "data" / "fit_4y_seed0.json"
DELETE = object()


def run(*argv):
    return main(list(argv))


def edited_report(path, value):
    """A function that sets (or, with DELETE, removes) one dotted path of
    the golden report payload."""
    def edit(report):
        *parents, key = path.split(".")
        node = report
        for k in parents:
            node = node[k]
        if value is DELETE:
            del node[key]
        else:
            node[key] = value
        return report
    return edit


@pytest.fixture()
def small_synth(tmp_path):
    path = tmp_path / "synth.csv"
    rc = run("synth", "--years", "4", "--start-year", "2000",
             "--seed", "0", "--out", str(path))
    assert rc == 0
    return path


class TestDescribe:
    def test_minimal_file(self, tmp_path, capsys):
        f = tmp_path / "mini.csv"
        f.write_text("date,t_avg_c\n2000-01-01,25.0\n2000-01-02,26.0\n"
                     "2000-01-03,24.0\n")
        out_json = tmp_path / "describe.json"
        assert run("describe", "--input", str(f), "--out", str(out_json)) == 0
        assert "n_obs: 3" in capsys.readouterr().out
        payload = json.loads(out_json.read_text())
        assert payload["n_obs"] == 3
        assert payload["temperature"]["mean"] == 25.0

    def test_dry_station_precipitation(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        days = np.arange(np.datetime64("2000-01-01"), np.datetime64("2008-01-01"))
        rain = np.where(rng.random(days.size) < 0.3, 5.0, 0.0)
        rows = [f"{d},{t!r},{r!r}" for d, t, r in
                zip(days.astype(str).tolist(),
                    rng.normal(10.0, 5.0, days.size).tolist(), rain.tolist())]
        f = tmp_path / "station.csv"
        f.write_text("date,t_avg_c,precip_mm\n" + "\n".join(rows) + "\n")
        out_json = tmp_path / "describe.json"
        assert run("describe", "--input", str(f), "--out", str(out_json)) == 0
        assert "Precipitation" in capsys.readouterr().out
        normality = json.loads(out_json.read_text())["precipitation_normality"]
        assert normality["reject_at_5pct"]

    def test_bad_date_exit_2(self, tmp_path, capsys):
        f = tmp_path / "bad.csv"
        f.write_text("date,t_avg_c\n2000-01-01,25.0\nnope,26.0\n")
        assert run("describe", "--input", str(f)) == 2
        assert "line 3" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path):
        assert run("describe", "--input", str(tmp_path / "nope.csv")) == 2

    @pytest.mark.parametrize("date", ["20000102", "2000-W01-2"],
                             ids=["basic-format", "week-date"])
    def test_only_yyyy_mm_dd_dates(self, tmp_path, capsys, date):
        # Python 3.11's date.fromisoformat reads both forms; 3.10 reads neither.
        f = tmp_path / "bad.csv"
        f.write_text(f"date,t_avg_c\n2000-01-01,25.0\n{date},26.0\n")
        assert run("describe", "--input", str(f)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("input error: line 3")


class TestFit:
    def test_fit_synthetic(self, small_synth, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        vols_path = tmp_path / "vols.csv"
        rc = run("fit", "--input", str(small_synth), "--out", str(report_path),
                 "--vols-csv", str(vols_path))
        assert rc == 0
        report = report_from_dict(json.loads(report_path.read_text()))
        assert report.seasonal.a_t == pytest.approx(26.4, abs=0.6)
        assert report.meta.n_obs == 4 * 365
        lines = vols_path.read_text().strip().splitlines()
        assert lines[0] == "year,month,sigma"
        assert len(lines) == 1 + 48
        out = capsys.readouterr().out
        assert "kappa_T" in out and "a_T" in out

    def test_constant_file_exit_3(self, tmp_path, capsys):
        f = tmp_path / "const.csv"
        rows = ["date,t_avg_c"]
        import datetime as dt
        d = dt.date(2000, 1, 1)
        for _ in range(800):
            rows.append(f"{d.isoformat()},25.0")
            d += dt.timedelta(days=1)
        f.write_text("\n".join(rows) + "\n")
        assert run("fit", "--input", str(f), "--out",
                   str(tmp_path / "r.json")) == 3
        assert "estimation failure" in capsys.readouterr().err


class TestSimulate:
    def test_deterministic_byte_identical(self, small_synth, tmp_path):
        report_path = tmp_path / "report.json"
        assert run("fit", "--input", str(small_synth),
                   "--out", str(report_path)) == 0
        out1, out2 = tmp_path / "e1.csv", tmp_path / "e2.csv"
        for out in (out1, out2):
            rc = run("simulate", "--report", str(report_path), "--paths", "2",
                     "--days", "10", "--seed", "9", "--out", str(out))
            assert rc == 0
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[0]
        assert header == "day,mean,sd,p05,p95"

    def test_full_paths_matrix(self, small_synth, tmp_path):
        report_path = tmp_path / "report.json"
        run("fit", "--input", str(small_synth), "--out", str(report_path))
        matrix = tmp_path / "paths.csv"
        rc = run("simulate", "--report", str(report_path), "--paths", "3",
                 "--days", "5", "--seed", "0", "--out", str(tmp_path / "e.csv"),
                 "--full-paths", str(matrix))
        assert rc == 0
        lines = matrix.read_text().strip().splitlines()
        assert lines[0] == "day,path_0,path_1,path_2"
        assert len(lines) == 6

    def test_full_paths_writer_holds_one_block(self, tmp_path):
        # Writing the blocks of 1000 paths x 800 days holds day_blocks'
        # sigma, normals buffer and generators and the one block being
        # written. Keeping the previous block too would add 2.92 MB.
        n_paths, n_days, start = 1000, 800, dt.date(2001, 1, 1)
        n_months = int(month_index(leap_free_days(start, n_days))[0][-1]) + 1
        bound = (n_months * n_paths * 8                        # sigma
                 + n_paths * simulate.BLOCK_DAYS * 8           # normals buffer
                 + n_paths * 1500                              # generators, ~930 B each
                 + n_paths * (simulate.BLOCK_DAYS + 1) * 8     # one block of rows
                 + 500_000)                                    # lines, temporaries

        def blocks(n):
            cfg = SimulationConfig(n_paths=n, n_days=n_days, master_seed=0,
                                   t0_temp=20.0)
            return simulate.day_blocks(cli.DEFAULT_SEASONAL, cli.DEFAULT_KAPPA_T,
                                       cli.DEFAULT_VOL, cfg, start)
        # numpy's one-time set-up on its first generators is not the writer's.
        cli._write_day_rows(str(tmp_path / "warm.csv"), "path_0,path_1", blocks(2))
        tracemalloc.start()
        try:
            cli._write_day_rows(str(tmp_path / "paths.csv"), "paths", blocks(n_paths))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_summary_values_are_plain_floats(self, tmp_path):
        out = tmp_path / "e.csv"
        assert run("simulate", "--report", str(GOLDEN_REPORT), "--paths", "3",
                   "--days", "20", "--seed", "1", "--out", str(out)) == 0
        text = out.read_text()
        assert "np.float64" not in text
        for line in text.splitlines()[1:]:
            day, *values = line.split(",")
            assert len(values) == 4
            for v in values:
                float(v)

    def test_volatility_switches_on_calendar_months(self, tmp_path):
        report = json.loads(GOLDEN_REPORT.read_text())
        report["meta"]["start"] = "2001-03-15"
        report_path = tmp_path / "report.json"
        report_path.write_text(json.dumps(report))
        matrix = tmp_path / "paths.csv"
        n_days, seed = 60, 7
        assert run("simulate", "--report", str(report_path), "--paths", "3",
                   "--days", str(n_days), "--seed", str(seed),
                   "--out", str(tmp_path / "e.csv"),
                   "--full-paths", str(matrix)) == 0
        paths = np.loadtxt(matrix, delimiter=",", skiprows=1)[:, 1:].T
        rep = report_from_dict(report)
        m = evaluate_seasonal_mean(rep.seasonal, np.arange(n_days))
        kappa = rep.kappa.kappa_t
        for p, temps in enumerate(paths):
            # Mar 15 + 60 days spans March, April and May: the path draws
            # two volatility normals, then its daily normals.
            rng = np.random.default_rng([seed, p])
            rng.standard_normal(2)
            z = rng.standard_normal(n_days - 1)
            # Invert the Euler step for the sigma of each day.
            sigma = (np.diff(temps) - np.diff(m) - kappa * (m[:-1] - temps[:-1])) / z
            switches = np.flatnonzero(~np.isclose(sigma[1:], sigma[:-1], rtol=1e-6))
            assert (switches + 1).tolist() == [17, 47]   # Apr 1, May 1

    @pytest.mark.parametrize("edit", [
        lambda report: [report],
        edited_report("vol.kappa_sigma", DELETE),
        edited_report("vol.sigma_bar", "0.9"),
        edited_report("kappa_t", True),
        edited_report("seasonal.a_t", float("nan")),
        edited_report("meta.start", "2000-02-29"),
        edited_report("meta.start", "20000101"),
        edited_report("meta.start", "2000-W01-1"),
        edited_report("seasonal.a_t", []),
        edited_report("kappa_t", {}),
    ], ids=["top-level-list", "missing-kappa-sigma", "string-sigma-bar",
            "bool-kappa-t", "nan-a-t", "feb-29-start", "basic-format-start",
            "week-date-start", "list-a-t", "object-kappa-t"])
    def test_bad_report_exit_2(self, tmp_path, capsys, edit):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(edit(json.loads(GOLDEN_REPORT.read_text()))))
        rc = run("simulate", "--report", str(bad), "--paths", "2",
                 "--days", "5", "--out", str(tmp_path / "e.csv"))
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("input error:")

    @pytest.mark.filterwarnings("error")   # a numpy overflow warning fails the test
    @pytest.mark.parametrize("path, value, says", [
        ("kappa_t", 2.5, "0 < kappa_t < 2"),
        ("vol.sigma_sigma", 1e300, "non-finite"),
    ], ids=["unstable-kappa-t", "overflowing-sigma-sigma"])
    def test_non_finite_ensemble_exit_2(self, tmp_path, capsys, path, value, says):
        bad, out = tmp_path / "bad.json", tmp_path / "e.csv"
        bad.write_text(json.dumps(
            edited_report(path, value)(json.loads(GOLDEN_REPORT.read_text()))))
        rc = run("simulate", "--report", str(bad), "--paths", "3",
                 "--days", "2000", "--out", str(out))
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("input error:") and says in err[0]
        assert not out.exists()

    def test_out_of_memory_exit_2(self, tmp_path, capsys, monkeypatch):
        def out_of_memory(*args):
            raise MemoryError
        monkeypatch.setattr(simulate, "simulate_paths", out_of_memory)
        rc = run("simulate", "--report", str(GOLDEN_REPORT), "--paths", "2",
                 "--days", "5", "--out", str(tmp_path / "e.csv"))
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("input error:")
        assert "--paths" in err[0] and "--days" in err[0]

    def test_unknown_schema_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"meta": {"schema_version": 99}}))
        rc = run("simulate", "--report", str(bad), "--paths", "2",
                 "--days", "5", "--out", str(tmp_path / "e.csv"))
        assert rc == 2
        assert "schema_version" in capsys.readouterr().err


class TestEvaluate:
    def test_prints_metrics_json(self, small_synth, capsys):
        rc = run("evaluate", "--input", str(small_synth), "--paths", "20",
                 "--seed", "4")
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"rmse", "mape_pct", "r2"}
        assert payload["rmse"] > 0


    def test_exact_zero_observation_reports_null_mape(self, small_synth, capsys):
        lines = small_synth.read_text().splitlines()
        lines[5] = lines[5].split(",")[0] + ",0.0"
        small_synth.write_text("\n".join(lines) + "\n")
        rc = run("evaluate", "--input", str(small_synth), "--paths", "20",
                 "--seed", "4")
        captured = capsys.readouterr()
        assert rc == 0
        payload = json.loads(captured.out)
        assert payload["mape_pct"] is None
        assert payload["rmse"] > 0 and payload["r2"] > 0
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("note: MAPE undefined")


class TestSynth:
    def test_round_trips_into_parser(self, small_synth):
        series = parse_csv(small_synth.read_text())
        assert len(series) == 4 * 365

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run("synth", "--years", "2", "--seed", "3",
                       "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sigma_override_zero_equals_mean_function(self, tmp_path):
        out = tmp_path / "flat.csv"
        assert run("synth", "--years", "1", "--seed", "0",
                   "--sigma-override", "0", "--out", str(out)) == 0
        import numpy as np

        from outemp.seasonal import evaluate_seasonal_mean
        from outemp.cli import DEFAULT_SEASONAL
        series = parse_csv(out.read_text())
        expected = evaluate_seasonal_mean(DEFAULT_SEASONAL, np.arange(365))
        assert np.allclose(series.temps, expected, atol=1e-10)

    @pytest.mark.parametrize("argv", [["--start-year", "0"],
                                      ["--start-year", "9999", "--years", "2"]],
                             ids=["year-0", "past-9999"])
    def test_years_outside_iso_range_exit_2(self, tmp_path, capsys, argv):
        assert run("synth", *argv, "--out", str(tmp_path / "s.csv")) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("input error:")

    def test_last_iso_year(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run("synth", "--start-year", "9999", "--years", "1",
                   "--out", str(out)) == 0
        assert str(parse_csv(out.read_text()).dates[-1]) == "9999-12-31"

    def test_from_report(self, small_synth, tmp_path):
        report_path = tmp_path / "report.json"
        run("fit", "--input", str(small_synth), "--out", str(report_path))
        out = tmp_path / "resynth.csv"
        assert run("synth", "--report", str(report_path), "--years", "2",
                   "--seed", "1", "--out", str(out)) == 0
        assert len(parse_csv(out.read_text())) == 730


def test_no_command_needs_scipy(tmp_path):
    code = """if True:
        import json, sys
        sys.modules["scipy"] = None   # any scipy import now raises ImportError
        from outemp.cli import main
        commands = [
            ["synth", "--years", "4", "--seed", "0", "--out", "s.csv"],
            ["describe", "--input", "s.csv", "--out", "d.json"],
            ["fit", "--input", "s.csv", "--out", "r.json"],
            ["evaluate", "--input", "s.csv", "--paths", "20"],
            ["simulate", "--report", "r.json", "--paths", "20", "--days", "400",
             "--out", "e.csv"],
        ]
        print(json.dumps([main(argv) for argv in commands]))
    """
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         cwd=tmp_path, capture_output=True, text=True).stdout
    assert json.loads(out.splitlines()[-1]) == [0, 0, 0, 0, 0]
    assert json.loads((tmp_path / "d.json").read_text())["temperature_normality"]


def test_cli_import_leaves_scipy_unloaded():
    # No command needs scipy (see test_no_command_needs_scipy), so
    # importing the CLI must not load it.
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, outemp.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def run_on_bytes(argv, data):
    """Exit code and stderr lines of `main` on ``argv`` with ``data``
    written to a temporary file named by the IN argument; an OUT argument
    names an output file beside it."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"IN": os.path.join(tmp, "in"), "OUT": os.path.join(tmp, "out")}
        with open(paths["IN"], "wb") as fh:
            fh.write(data)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main([paths.get(a, a) for a in argv])
    return rc, err.getvalue().splitlines()


def assert_clean_exit(rc, err):
    assert rc in (0, 2, 3)
    if rc:
        assert len(err) == 1
        assert err[0].startswith("input error:" if rc == 2 else "estimation failure:")


NOT_UTF8_CSV = b"date,t_avg_c\n2000-01-01,25.0\n2000-01-02,\xff26.0\n"


@pytest.mark.parametrize("argv, data", [
    (["describe", "--input", "IN"], NOT_UTF8_CSV),
    (["fit", "--input", "IN", "--out", "OUT"], NOT_UTF8_CSV),
    (["evaluate", "--input", "IN", "--paths", "2"], NOT_UTF8_CSV),
    (["simulate", "--report", "IN", "--days", "5", "--out", "OUT"], b"\xff\xfe{}"),
    (["simulate", "--report", "IN", "--days", "5", "--out", "OUT"],
     b"[" * 990 + b"]" * 990),
], ids=["describe-not-utf8", "fit-not-utf8", "evaluate-not-utf8",
        "report-not-utf8", "report-nested-990"])
def test_bad_bytes_exit_2(argv, data):
    rc, err = run_on_bytes(argv, data)
    assert rc == 2
    assert_clean_exit(rc, err)


CSV_FIELDS = st.sampled_from(["2000-01-01", "2000-01-02", "2000-02-29",
                              "2000-13-01", "25.0", "-1e308", "1e400", "nan",
                              "inf", "", '"', "x"]) | st.text(max_size=6)
CSV_ROWS = st.lists(st.lists(CSV_FIELDS, max_size=4).map(",".join), max_size=6)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=3)),
    max_leaves=6)


def report_paths(node, path=()):
    """(path, value) of every value inside a report payload."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,), value
        yield from report_paths(value, path + (key,))


GOLDEN_VALUES = list(report_paths(json.loads(GOLDEN_REPORT.read_text())))
GOLDEN_PATHS = [path for path, _ in GOLDEN_VALUES]
GOLDEN_LEAVES = [path for path, value in GOLDEN_VALUES if not isinstance(value, (dict, list))]


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.binary(max_size=80),
    CSV_ROWS.map(lambda rows: ("date,t_avg_c\n" + "\n".join(rows)).encode()),
    st.lists(st.floats(), min_size=1, max_size=70).map(lambda temps: "".join(
        ["date,t_avg_c\n"] + [f"{dt.date(2000, 1, 1) + dt.timedelta(days=i)},{t!r}\n"
                               for i, t in enumerate(temps)]).encode())))
def test_fuzzed_csv_exits_cleanly(data):
    assert_clean_exit(*run_on_bytes(["fit", "--input", "IN", "--out", "OUT"], data))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(GOLDEN_PATHS), st.just(DELETE))
                | st.tuples(st.sampled_from(GOLDEN_LEAVES), JSON_VALUES),
                min_size=1, max_size=3))
def test_fuzzed_report_exits_cleanly(mutations):
    report = json.loads(GOLDEN_REPORT.read_text())
    for path, value in mutations:
        parent = report
        try:
            for key in path[:-1]:
                parent = parent[key]
            if value is DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            pass   # an earlier mutation removed or replaced the path
    assert_clean_exit(*run_on_bytes(
        ["simulate", "--report", "IN", "--paths", "2", "--days", "40", "--out", "OUT"],
        json.dumps(report).encode()))
