import contextlib
import datetime as dt
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
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
from outemp.series import leap_free_calendar

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


@pytest.mark.parametrize("command", ["describe", "fit", "evaluate"])
def test_byte_order_mark_is_ignored(small_synth, tmp_path, capsys, command):
    # Spreadsheets save "CSV UTF-8" with a leading byte-order mark.
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + small_synth.read_bytes())
    outputs = []
    for path in (small_synth, bom):
        report = tmp_path / f"{path.stem}.json"
        argv = {"describe": [], "fit": ["--out", str(report)],
                "evaluate": ["--paths", "20"]}[command]
        assert run(command, "--input", str(path), *argv) == 0
        outputs.append((capsys.readouterr().out,
                        report.read_bytes() if report.exists() else None))
    assert outputs[0] == outputs[1]


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
        rows = [line.split(",") for line in lines[1:]]
        assert [(int(y), int(m), float(s)) for y, m, s in rows] == [
            (e.year, e.month, e.sigma) for e in report.monthly_vols.entries]
        out = capsys.readouterr().out
        assert "kappa_T" in out and "a_T" in out

    def test_precipitation_summary(self, small_synth, tmp_path):
        lines = small_synth.read_text().splitlines()
        rain = np.random.default_rng(0).exponential(2.0, len(lines) - 1).tolist()
        wet = tmp_path / "wet.csv"
        wet.write_text("date,t_avg_c,precip_mm\n"
                       + "".join(f"{line},{r!r}\n" for line, r in zip(lines[1:], rain)))
        report = tmp_path / "report.json"
        assert run("fit", "--input", str(wet), "--out", str(report)) == 0
        payload = json.loads(report.read_text())
        assert payload["descriptive"]["precipitation"]["n"] == payload["meta"]["n_obs"]
        # Precipitation is summarized but takes no part in the simulation.
        payload["descriptive"]["precipitation"] = None
        dry = tmp_path / "dry.json"
        dry.write_text(json.dumps(payload))
        ensembles = []
        for path in (report, dry):
            out = tmp_path / f"{path.stem}.csv"
            assert run("simulate", "--report", str(path), "--paths", "5",
                       "--days", "400", "--out", str(out)) == 0
            ensembles.append(out.read_bytes())
        assert ensembles[0] == ensembles[1]

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

    # 1-4 days are too few for the seasonal fit, 40 for the volatility fit.
    @pytest.mark.parametrize("n_days", [1, 2, 3, 4, 40])
    def test_short_series_exit_2(self, small_synth, tmp_path, capsys, n_days):
        short = tmp_path / "short.csv"
        short.write_text("".join(small_synth.read_text().splitlines(True)[:1 + n_days]))
        report = tmp_path / "r.json"
        assert run("fit", "--input", str(short), "--out", str(report)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("input error:")
        assert not report.exists()

    def test_out_of_memory_names_no_size_flag(self, small_synth, tmp_path, capsys,
                                              monkeypatch):
        def out_of_memory(*args, **kwargs):
            raise MemoryError
        monkeypatch.setattr(cli.pipeline, "fit_full_model", out_of_memory)
        report = tmp_path / "r.json"
        assert run("fit", "--input", str(small_synth), "--out", str(report)) == 2
        assert capsys.readouterr().err.splitlines() == [
            "input error: not enough memory for this input"]
        assert not report.exists()


def write_daily_csv(path, start, temps):
    days = (np.datetime64(start) + np.arange(len(temps))).astype(str).tolist()
    path.write_text("date,t_avg_c\n" + "".join(
        f"{d},{x!r}\n" for d, x in zip(days, temps.tolist())))
    return path


@pytest.mark.parametrize("command", ["fit", "evaluate"])
def test_constant_month_exit_3(tmp_path, capsys, command):
    # Two years of noise but a constant February 2001: that month's sigma
    # is 0, so its transitions have no weight.
    temps = 25.0 + np.random.default_rng(1).standard_normal(730)
    temps[31:59] = 25.0
    f = write_daily_csv(tmp_path / "const_feb.csv", "2001-01-01", temps)
    report = tmp_path / "r.json"
    rest = ["--out", str(report)] if command == "fit" else ["--paths", "20"]
    assert run(command, "--input", str(f), *rest) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [
        "estimation failure: [mean_reversion] zero volatility in month 2001-02; "
        "transition weights undefined"]
    assert not report.exists()


def test_one_day_first_month_exit_2(tmp_path, capsys):
    temps = 25.0 + np.random.default_rng(2).standard_normal(730)
    f = write_daily_csv(tmp_path / "jan31.csv", "2001-01-31", temps)
    report = tmp_path / "r.json"
    assert run("fit", "--input", str(f), "--out", str(report)) == 2
    assert capsys.readouterr().err.splitlines() == [
        "input error: month 2001-01 has 1 observation(s); need at least 2"]
    assert not report.exists()


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("command", ["fit", "simulate"])
def test_bad_second_output_path_writes_nothing(small_synth, tmp_path, capsys, command,
                                               existing):
    # Both outputs open before either is written: a second path that
    # cannot open leaves no new first file and an old one as it was.
    first = tmp_path / "first.out"
    if existing:
        first.write_bytes(b"an earlier run\n")
    missing = str(tmp_path / "no_such_dir" / "second.csv")
    if command == "fit":
        argv = ["fit", "--input", str(small_synth), "--out", str(first),
                "--vols-csv", missing]
    else:
        argv = ["simulate", "--report", str(GOLDEN_REPORT), "--paths", "3", "--days", "5",
                "--out", str(first), "--full-paths", missing]
    assert run(*argv) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 1
    assert err[0].startswith("input error:") and "no_such_dir" in err[0]
    if existing:
        assert first.read_bytes() == b"an earlier run\n"
    else:
        assert not first.exists()


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("alias", ["same-path", "symlink", "symlink-first"])
@pytest.mark.parametrize("command", ["fit", "simulate"])
def test_two_outputs_naming_one_file_exit_2(small_synth, tmp_path, capsys, command, alias,
                                            existing):
    # The later write would replace the earlier one; both paths are
    # refused before either is written, and only a file this run created
    # is removed.
    target, link = tmp_path / "target.out", tmp_path / "link.out"
    if existing:
        target.write_bytes(b"an earlier run\n")
    first = second = str(target)
    if alias != "same-path":
        link.symlink_to(target)
        first, second = (str(link), first) if alias == "symlink-first" else (first, str(link))
    if command == "fit":
        argv = ["fit", "--input", str(small_synth), "--out", first, "--vols-csv", second]
    else:
        argv = ["simulate", "--report", str(GOLDEN_REPORT), "--paths", "3", "--days", "5",
                "--out", first, "--full-paths", second]
    assert run(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"input error: output paths {first} and {second} are one file"]
    if existing:
        assert target.read_bytes() == b"an earlier run\n"
    else:
        assert not target.exists()
    assert link.is_symlink() == (alias != "same-path")


def test_failed_write_removes_the_files_it_created(tmp_path, capsys, monkeypatch):
    write = cli._write_day_rows
    def disk_full_on_paths(path, columns, blocks):
        if columns.startswith("path_"):
            Path(path).write_text("day,")
            raise OSError(28, "No space left on device")
        write(path, columns, blocks)
    monkeypatch.setattr(cli, "_write_day_rows", disk_full_on_paths)
    old, new, paths = tmp_path / "old.csv", tmp_path / "new.csv", tmp_path / "paths.csv"
    old.write_text("an earlier run\n")
    for out in (old, new):
        assert run("simulate", "--report", str(GOLDEN_REPORT), "--paths", "3",
                   "--days", "5", "--out", str(out), "--full-paths", str(paths)) == 2
        assert capsys.readouterr().err.splitlines() == [
            "input error: [Errno 28] No space left on device"]
    assert old.exists() and not new.exists() and not paths.exists()


@pytest.mark.parametrize("command", ["describe", "synth"])
def test_bad_output_path_exits_2_before_any_output(small_synth, tmp_path, capsys, command):
    # describe opens --out before it prints its table.
    out = str(tmp_path / "no_such_dir" / "x.out")
    argv = ["describe", "--input", str(small_synth)] if command == "describe" else ["synth"]
    assert run(*argv, "--out", out) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 1
    assert err[0].startswith("input error:") and "no_such_dir" in err[0]


def test_failed_synth_write_removes_the_file_it_created(tmp_path, capsys, monkeypatch):
    def disk_full(series):
        raise OSError(28, "No space left on device")
    monkeypatch.setattr(cli, "serialize_csv", disk_full)
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text("an earlier run\n")
    for out in (old, new):
        assert run("synth", "--years", "2", "--out", str(out)) == 2
        assert capsys.readouterr().err.splitlines() == [
            "input error: [Errno 28] No space left on device"]
    assert old.exists() and not new.exists()


@pytest.mark.parametrize("argv", [["fit", "--out"], ["describe", "--out"]],
                         ids=["fit", "describe"])
def test_precipitation_beyond_any_record_exit_2(small_synth, tmp_path, capsys, argv):
    # 1e200 mm once reached the report and describe's JSON as Infinity.
    lines = small_synth.read_text().splitlines()
    wet = tmp_path / "wet.csv"
    wet.write_text("date,t_avg_c,precip_mm\n"
                   + "".join(f"{line},{1e200 if i == 9 else 0.0!r}\n"
                             for i, line in enumerate(lines[1:])))
    out = tmp_path / "out.json"
    assert run(argv[0], "--input", str(wet), argv[1], str(out)) == 2
    assert capsys.readouterr().err.splitlines() == [
        "input error: precipitation outside sane range [0, 2000.0] mm"]
    assert not out.exists()


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

    def test_full_paths_parse_back_to_day_blocks(self, tmp_path):
        # 60 paths of 365-row blocks span several writer chunks each.
        matrix = tmp_path / "paths.csv"
        assert run("simulate", "--report", str(GOLDEN_REPORT), "--paths", "60",
                   "--days", "800", "--seed", "0", "--out", str(tmp_path / "e.csv"),
                   "--full-paths", str(matrix)) == 0
        report = report_from_dict(json.loads(GOLDEN_REPORT.read_text()))
        config = SimulationConfig(
            n_paths=60, n_days=800, master_seed=0,
            t0_temp=evaluate_seasonal_mean(report.seasonal, 0))
        expected = np.concatenate([block for _, block in simulate.day_blocks(
            report.model, config, report.meta.start)])
        header, *lines = matrix.read_text().splitlines()
        assert header == "day," + ",".join(f"path_{p}" for p in range(60))
        rows = [line.split(",") for line in lines]
        assert [int(row[0]) for row in rows] == list(range(800))
        assert np.array_equal(np.array([row[1:] for row in rows], dtype=float), expected)

    def test_full_paths_writer_holds_one_block(self, tmp_path, mapped):
        # Writing the blocks of 1000 paths x 800 days holds day_blocks'
        # sigma, normals buffer and generators and the one block being
        # written. Keeping the previous block too would add 2.92 MB.
        n_paths, n_days, start = 1000, 800, dt.date(2001, 1, 1)
        n_months = int(leap_free_calendar(start, n_days).month_id[-1]) + 1
        bound = (n_months * n_paths * 8                        # sigma
                 + n_paths * simulate.BLOCK_DAYS * 8           # normals buffer
                 + n_paths * 1500                              # generators, ~930 B each
                 + n_paths * (simulate.BLOCK_DAYS + 1) * 8     # one block of rows
                 + 500_000)                                    # lines, temporaries

        def blocks(n):
            cfg = SimulationConfig(n_paths=n, n_days=n_days, master_seed=0,
                                   t0_temp=20.0)
            return simulate.day_blocks(simulate.Model(cli.DEFAULT_SEASONAL, cli.DEFAULT_KAPPA_T,
                                                      cli.DEFAULT_VOL), cfg, start)
        # numpy's one-time set-up on its first generators is not the writer's.
        cli._write_day_rows(str(tmp_path / "warm.csv"), "path_0,path_1", blocks(2))
        mapped.clear()
        tracemalloc.start()
        try:
            cli._write_day_rows(str(tmp_path / "paths.csv"), "paths", blocks(n_paths))
            peak = tracemalloc.get_traced_memory()[1] + sum(mapped)
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

    @pytest.mark.parametrize("path, value, says", [
        ("descriptive.precipitation", 0, "DescriptiveSummary is not a JSON object: 0"),
        ("descriptive.precipitation", {}, "report has no field 'mean'"),
        ("metrics", [1.0], "report 'metrics' is not a JSON object: [1.0]"),
        ("metrics", 0, "report 'metrics' is not a JSON object: 0"),
        ("seasonal.a_t", [], "report field 'a_t' is not a finite number: []"),
        ("vol.sigma_bar", -1.0, "input error: sigma_bar must be positive"),
        ("kappa_t", 10 ** 400, "report field 'kappa_t' is not a finite number: 1000"),
        ("monthly_vols", "", "report 'monthly_vols' is not a JSON list: ''"),
    ], ids=["zero-precipitation", "empty-precipitation", "list-metrics",
            "zero-metrics", "list-a-t", "negative-sigma-bar", "int-beyond-float",
            "text-monthly-vols"])
    def test_each_value_checked_where_read(self, tmp_path, capsys, path, value, says):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            edited_report(path, value)(json.loads(GOLDEN_REPORT.read_text()))))
        rc = run("simulate", "--report", str(bad), "--paths", "2",
                 "--days", "5", "--out", str(tmp_path / "e.csv"))
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("input error:") and says in err[0]

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

    # The kappa_t check runs before the ensemble allocates anything, so a
    # size too large for memory does not hide it behind the memory line.
    @pytest.mark.parametrize("paths", ["1", "2"])
    def test_unstable_kappa_t_named_before_memory(self, tmp_path, capsys, paths):
        bad, out = tmp_path / "bad.json", tmp_path / "e.csv"
        bad.write_text(json.dumps(
            edited_report("kappa_t", 2.5)(json.loads(GOLDEN_REPORT.read_text()))))
        rc = run("simulate", "--report", str(bad), "--paths", paths,
                 "--days", "1000000000000", "--out", str(out))
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["input error: kappa_t 2.5 is outside 0 < kappa_t < 2, "
                       "the stable range of the Euler day step"]
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

    @pytest.mark.parametrize("command", ["simulate", "synth"])
    def test_report_byte_order_mark_is_ignored(self, tmp_path, command):
        # Some Windows editors save JSON with a leading byte-order mark.
        bom = tmp_path / "bom.json"
        bom.write_bytes(b"\xef\xbb\xbf" + GOLDEN_REPORT.read_bytes())
        argv = {"simulate": ["--paths", "3", "--days", "400"],
                "synth": ["--years", "2"]}[command]
        outputs = []
        for path in (GOLDEN_REPORT, bom):
            out = tmp_path / f"{path.stem}.csv"
            assert run(command, "--report", str(path), *argv, "--out", str(out)) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_single_path_sd_is_zero(self, tmp_path):
        out = tmp_path / "e.csv"
        assert run("simulate", "--report", str(GOLDEN_REPORT), "--paths", "1",
                   "--days", "400", "--out", str(out)) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 400
        assert {sd for _, _, sd, _, _ in rows} == {"0.0"}
        assert all(mean == p05 == p95 for _, mean, _, p05, p95 in rows)

    @pytest.mark.parametrize("argv, says", [
        (["simulate", "--paths", "0", "--days", "5"], "n_paths and n_days must be >= 1"),
        (["simulate", "--paths", "2", "--days", "0"], "n_paths and n_days must be >= 1"),
        (["simulate", "--paths", "2", "--days", "5", "--seed", "-1"],
         "master_seed must be non-negative"),
        (["synth", "--years", "0"], "n_years must be >= 1"),
    ], ids=["zero-paths", "zero-days", "negative-seed", "zero-years"])
    def test_bad_size_or_seed_exit_2(self, tmp_path, capsys, argv, says):
        out = tmp_path / "out.csv"
        report = ["--report", str(GOLDEN_REPORT)] if argv[0] == "simulate" else []
        assert run(*argv, *report, "--out", str(out)) == 2
        assert capsys.readouterr().err.splitlines() == [f"input error: {says}"]
        assert not out.exists()

    # numpy refuses each of these sizes before allocating, and the
    # simulation config refuses them before numpy sees them.
    # The message names only the size flags the command has.
    @pytest.mark.parametrize("argv, lower", [
        (["simulate", "--paths", "1000000000000000000", "--days", "5"], "--paths or --days"),
        (["simulate", "--paths", "2", "--days", "99999999999999999999"], "--paths or --days"),
        (["evaluate", "--paths", "1000000000000000000"], "--paths"),
    ], ids=["paths", "days", "evaluate-paths"])
    def test_ensemble_beyond_any_array_exit_2(self, small_synth, tmp_path, capsys, argv,
                                              lower):
        out = tmp_path / "e.csv"
        files = (["--report", str(GOLDEN_REPORT), "--out", str(out)]
                 if argv[0] == "simulate" else ["--input", str(small_synth)])
        assert run(*argv, *files) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"input error: not enough memory for this ensemble; lower {lower}"]
        assert not out.exists()

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

    def test_one_path_exit_2(self, small_synth, capsys):
        assert run("evaluate", "--input", str(small_synth), "--paths", "1") == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.splitlines() == [
            "input error: evaluation needs at least 2 paths"]

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


class TestUnstableKappa:
    """A valid CSV whose fitted kappa_T is 2 or more: the seasonal mean
    plus i.i.d. N(0, 1) noise, whose residuals have no day-to-day
    persistence (weighted lag-1 ratio near 0, kappa_T 3.61)."""

    @pytest.fixture()
    def iid_csv(self, tmp_path):
        t = np.arange(1461)
        days = (np.datetime64("2001-01-01") + t).astype(str).tolist()
        temps = (26.4 + 1.75 * np.sin(2 * np.pi * t / 365 + 0.531)
                 + np.random.default_rng(0).standard_normal(t.size))
        path = tmp_path / "iid.csv"
        path.write_text("date,t_avg_c\n" + "".join(
            f"{d},{x!r}\n" for d, x in zip(days, temps.tolist())))
        return path

    def test_fit_exits_0_with_a_note(self, iid_csv, tmp_path, capsys):
        assert run("fit", "--input", str(iid_csv), "--out", str(tmp_path / "r.json")) == 0
        captured = capsys.readouterr()
        assert "kappa_T                    3.61" in captured.out
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("note: kappa_t 3.61")
        assert "0 < kappa_t < 2" in err[0] and "simulate and evaluate" in err[0]

    def test_evaluate_exits_3(self, iid_csv, capsys):
        assert run("evaluate", "--input", str(iid_csv), "--paths", "20") == 3
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == "" and len(err) == 1
        assert err[0].startswith("estimation failure: [mean_reversion] kappa_t 3.61")
        assert "0 < kappa_t < 2" in err[0]

    def test_simulate_on_its_report_exits_2(self, iid_csv, tmp_path, capsys):
        report, out = tmp_path / "r.json", tmp_path / "e.csv"
        assert run("fit", "--input", str(iid_csv), "--out", str(report)) == 0
        capsys.readouterr()
        assert run("simulate", "--report", str(report), "--paths", "3",
                   "--days", "100", "--out", str(out)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("input error: kappa_t 3.61")
        assert not out.exists()


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

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_sigma_override_exit_2(self, tmp_path, capsys, value):
        out = tmp_path / "s.csv"
        assert run("synth", "--years", "1", "--sigma-override", value,
                   "--out", str(out)) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"input error: the constant volatility {value} must be finite and non-negative"]
        assert not out.exists()

    # nan is refused before simulating; 1e308 overflows the path, which
    # must raise no numpy warning on the way; 100 leaves the sane
    # temperature range.
    @pytest.mark.parametrize("value", ["nan", "100", "1e308"])
    def test_sigma_override_that_breaks_the_series_exit_2(self, tmp_path, capsys, value):
        out = tmp_path / "s.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("synth", "--years", "2", "--sigma-override", value,
                       "--out", str(out)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("input error:")
        assert "volatility" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("argv, cause", [
        (["--years", "2", "--sigma-override", "100"], "its volatility 100.0 is too large"),
        # The trend b_T * t carries m(t) below -90 degC after about 4,150 years.
        (["--years", "4300", "--sigma-override", "0"],
         "its seasonal mean leaves that range within the years 2000..6299")],
        ids=["volatility", "seasonal-mean"])
    def test_range_error_names_its_cause(self, tmp_path, capsys, argv, cause):
        out = tmp_path / "s.csv"
        assert run("synth", *argv, "--out", str(out)) == 2
        assert capsys.readouterr().err.splitlines() == [
            "input error: synthetic series: temperature outside sane range "
            f"[-90.0, 60.0] degC; {cause}"]
        assert not out.exists()

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
    (["simulate", "--report", "IN", "--days", "5", "--out", "OUT"],
     b'{"kappa_t": ' + b"9" * 5000 + b"}"),
], ids=["describe-not-utf8", "fit-not-utf8", "evaluate-not-utf8",
        "report-not-utf8", "report-nested-990", "report-int-5000-digits"])
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
