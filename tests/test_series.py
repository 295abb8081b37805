import datetime as dt
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outemp import InputError, fit_full_model, parse_csv, strip_leap_days
from outemp import series as series_module
from outemp.seasonal import design_matrix
from outemp.series import TemperatureSeries, _civil, is_leap_day, leap_free_calendar, serialize_csv


def make_csv(rows, header="date,t_avg_c"):
    return header + "\n" + "\n".join(rows) + "\n"


def daily_rows(start, n, temp=25.0):
    d = start
    rows = []
    for _ in range(n):
        rows.append(f"{d.isoformat()},{temp}")
        d += dt.timedelta(days=1)
    return rows


class TestParseCsv:
    def test_minimal_three_rows(self):
        s = parse_csv(make_csv(daily_rows(dt.date(2000, 1, 1), 3)))
        assert len(s) == 3
        assert s.dates[0] == dt.date(2000, 1, 1)
        assert np.all(s.temps == 25.0)
        assert s.precip is None

    def test_precip_column(self):
        text = make_csv(["2000-01-01,25.0,0.0", "2000-01-02,26.0,12.5"],
                        header="date,t_avg_c,precip_mm")
        s = parse_csv(text)
        assert s.precip is not None
        assert s.precip[1] == 12.5

    def test_empty_temperature_names_line(self):
        text = make_csv(["2000-01-01,25.0", "2000-01-02,"])
        with pytest.raises(InputError, match="line 3"):
            parse_csv(text)

    def test_bad_date_names_line(self):
        text = make_csv(["2000-01-01,25.0", "not-a-date,25.0"])
        with pytest.raises(InputError, match="line 3.*date"):
            parse_csv(text)

    def test_bad_number_names_line(self):
        with pytest.raises(InputError, match="line 2.*temperature"):
            parse_csv(make_csv(["2000-01-01,warm"]))

    def test_duplicate_date(self):
        text = make_csv(["2000-01-01,25.0", "2000-01-01,26.0"])
        with pytest.raises(InputError, match="duplicate"):
            parse_csv(text)

    def test_out_of_order_date(self):
        text = make_csv(["2000-01-02,25.0", "2000-01-01,26.0"])
        with pytest.raises(InputError, match="out-of-order"):
            parse_csv(text)

    def test_bad_header(self):
        with pytest.raises(InputError, match="header"):
            parse_csv("datum,temp\n2000-01-01,25.0\n")

    def test_temperature_out_of_range(self):
        with pytest.raises(InputError, match="range"):
            parse_csv(make_csv(["2000-01-01,99.0"]))

    def test_negative_precip(self):
        text = make_csv(["2000-01-01,25.0,-1.0"], header="date,t_avg_c,precip_mm")
        with pytest.raises(InputError, match="precipitation"):
            parse_csv(text)

    def test_24_years_including_leap_days(self):
        # 2000..2023 has 6 leap years: 2000, 2004, ..., 2020.
        rows = daily_rows(dt.date(2000, 1, 1), (dt.date(2023, 12, 31)
                                                - dt.date(2000, 1, 1)).days + 1)
        s = parse_csv(make_csv(rows))
        assert len(s) == 8766

    def test_round_trip(self):
        rows = ["2000-01-01,25.125,0.0", "2000-01-02,24.5,3.25"]
        s = parse_csv(make_csv(rows, header="date,t_avg_c,precip_mm"))
        assert parse_csv(serialize_csv(s)) == s

    def test_quoted_crlf_file_reads_like_plain(self):
        plain = make_csv(["2000-01-01,25.0", "2000-01-02,-1.5"])
        quoted = plain.replace("25.0", '"25.0"').replace("\n", "\r\n")
        assert series_module._parse_columns(quoted) is None
        assert parse_csv(quoted) == parse_csv(plain)

    @pytest.mark.parametrize("number", ["2_5", "\uff12\uff15"])
    @pytest.mark.parametrize("ending", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_only_plain_ascii_decimals(self, number, ending):
        # float() reads both as 25.0. The CRLF copy takes the row path;
        # the LF copy takes the columnar path, whose header holds "_".
        template = make_csv(["2000-01-01,25.0,0.0", "2000-01-02,{},1.5"],
                            header="date,t_avg_c,precip_mm").replace("\n", ending)
        columnar = series_module._parse_columns(template.format("25"))
        assert (columnar is not None) == (ending == "\n")
        assert list(parse_csv(template.format("25")).temps) == [25.0, 25.0]
        with pytest.raises(InputError, match=re.escape(
                f"line 3: unparsable temperature {number!r}")):
            parse_csv(template.format(number))

    def test_padded_fields_accepted(self):
        text = make_csv([" 2000-01-01 ,\t25.0 ", "2000-01-02, 26.0"])
        assert list(parse_csv(text).temps) == [25.0, 26.0]

    def test_oversized_field_names_line(self):
        text = make_csv(["2000-01-01,25.0", "2000-01-02," + " " * 200_000 + "1.0"])
        with pytest.raises(InputError, match="line 3"):
            parse_csv(text)


def reference_parse(text):
    """parse_csv with the columnar path switched off: every file is read
    row by row."""
    with mock.patch.object(series_module, "_parse_columns", return_value=None):
        return parse_csv(text)


def outcome(parse, text):
    """The series a parser returns, or the message (with its line) of the
    InputError it raises."""
    try:
        return parse(text)
    except InputError as exc:
        return f"InputError: {exc}"


number_texts = st.one_of(
    st.floats(-90, 60).map(repr),
    st.floats(-90, 60).map(lambda x: f"{x:.1f}"),
    st.integers(-90, 60).map(str),
    st.sampled_from(["0", "-0.0", "1e1", ".5", "5.", "+3.25", "2.5E-3"]),
)


@st.composite
def csv_tables(draw):
    """(header, rows) of a valid CSV: increasing dates, in-range
    temperatures and non-negative precipitation, in varied number forms."""
    width = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 25))
    day = draw(st.dates(dt.date(1, 1, 1), dt.date(9000, 12, 31)))
    rows = []
    for _ in range(n):
        row = [day.isoformat(), draw(number_texts)]
        if width == 3:
            row.append(draw(number_texts.filter(lambda t: not t.startswith("-"))))
        rows.append(row)
        day += dt.timedelta(days=draw(st.integers(1, 3)))
    return list(series_module.CSV_HEADER[:width]), rows


def render(header, rows, ending="\n"):
    return ending.join(",".join(r) for r in [header, *rows]) + ending


ROW_MUTATIONS = ["blank_line", "pad_header", "extra_field", "missing_field",
                 "wrapped_row", "duplicate_date", "out_of_order_date"]
# name -> (which fields it may edit, new text from old text and a draw)
FIELD_MUTATIONS = {
    "quote": ("any", lambda f, draw: f'"{f}"'),
    "quote_inside": ("any", lambda f, draw: f[:1] + '"' + f[1:]),
    "pad": ("any", lambda f, draw: draw(
        st.sampled_from([" ", "\t", "\u2003", "\x1c"])) * 2 + f + " "),
    "empty": ("any", lambda f, draw: ""),
    "lone_cr": ("number", lambda f, draw: f + "\r"),
    "non_finite": ("number", lambda f, draw: draw(
        st.sampled_from(["nan", "inf", "-inf", "NaN", " Infinity"]))),
    "underscore": ("number", lambda f, draw: draw(
        st.sampled_from(["1_0", "1__0", "_1"]))),
    "out_of_range": ("number", lambda f, draw: "99.0"),
    "basic_date": ("date", lambda f, draw: f.replace("-", "")),
    "week_date": ("date", lambda f, draw: "2000-W01-1"),
    "impossible_date": ("date", lambda f, draw: draw(st.sampled_from([
        "2001-02-29", "2000-02-30", "2000-13-01", "2000-00-10", "2000-01-00",
        "0000-01-01", "2000-1a-01", "+200-01-01"]))),
}
MUTATIONS = sorted(ROW_MUTATIONS + list(FIELD_MUTATIONS))


def mutate(name, header, rows, draw):
    """Apply one named mutation, at drawn places, to a (header, rows)
    table in place."""
    i = draw(st.integers(0, len(rows) - 1))
    row = rows[i]
    if name == "blank_line":
        rows.insert(i, [])
    elif name == "pad_header":
        k = draw(st.integers(0, len(header) - 1))
        header[k] = f" {header[k]}\t"
    elif not row:
        return
    elif name == "extra_field":
        row.append("1.0")
    elif name == "missing_field":
        row.pop()
    elif name == "wrapped_row":
        # The next row's first field moves to the end of this row: the
        # fields, read without line breaks, are the same.
        if i + 1 < len(rows) and rows[i + 1]:
            row.append(rows[i + 1].pop(0))
    elif name in ("duplicate_date", "out_of_order_date"):
        back = 1 if name == "duplicate_date" else 2
        if len(rows) > back:
            i = draw(st.integers(back, len(rows) - 1))
            if rows[i] and rows[i - back]:
                rows[i][0] = rows[i - back][0]
    else:
        where, edit = FIELD_MUTATIONS[name]
        first = 1 if where == "number" else 0
        last = 0 if where == "date" else len(row) - 1
        if first <= last:
            k = draw(st.integers(first, last))
            row[k] = edit(row[k], draw)


class TestColumnarParser:
    @given(csv_tables())
    def test_valid_files_take_the_columnar_path(self, table):
        text = render(*table)
        assert series_module._parse_columns(text) is not None
        assert parse_csv(text) == reference_parse(text)

    @pytest.mark.parametrize("mutation", MUTATIONS)
    @settings(max_examples=40, deadline=None)
    @given(csv_tables(), st.lists(st.sampled_from(MUTATIONS), max_size=2),
           st.sampled_from(["\n", "\r\n", "\r"]), st.booleans(), st.data())
    def test_matches_row_reader(self, mutation, table, more, ending, trailing, data):
        header, rows = table
        for name in [mutation, *more]:
            mutate(name, header, rows, data.draw)
        text = render(header, rows, ending)
        if not trailing:
            text = text[:-len(ending)]
        assert outcome(parse_csv, text) == outcome(reference_parse, text)


    @pytest.mark.parametrize("text", [
        "",
        "\n",
        "date,t_avg_c\n",
        "date,t_avg_c,precip_mm\n2000-01-01,1.0\r,2.0\n2000-01-02,1.0,2.0\n",
        "date,t_avg_c\n2000-01-01,1.0\r2000-01-02,2.0\n",
        'date,t_avg_c\n2000-01-01,"1,0"\n',
        'date,t_avg_c\n2000-01-01,"1.0\n2000-01-02",2.0\n',
        "date,t_avg_c\n2000-01-01,1.0\x00\n",
        "\ufeffdate,t_avg_c\n2000-01-01,1.0\n",
        "date,t_avg_c\n2000-01-01,\x1c1.0\u2003\n",
        "date,t_avg_c\n\u20032000-01-01,1.0\n",
        "date,t_avg_c\n2000-01-01,1.0,\n",
        "date,t_avg_c\n 2000-01-01,1.0\n2000-01-01,2.0\n",
        "date,t_avg_c\n2000-02-30,1.0\n",
        "date,t_avg_c\n0000-01-01,1.0\n",
        "date,t_avg_c\n2000-01-01,1.0\n \n",
        "date,t_avg_c\n2000-01-01,1.0,2000-01-02\n3.0\n",
        "date,t_avg_c\n2000-01-01,1.0\n\n2000-01-02,2.0\n",
        "date,t_avg_c\n2000-01-01,1.0\n2000-01-02,2.0\n\n\n",
        "date,t_avg_c\n2000-01-01,\u0661\u0662\n",
    ], ids=["empty", "newline", "header-only", "lone-cr-mid-row", "lone-cr-row-end",
            "quoted-comma", "quoted-newline", "nul", "bom", "unicode-pad-number",
            "unicode-pad-date", "trailing-comma", "padded-duplicate", "feb-30",
            "year-0", "space-line", "wrapped-row", "blank-line", "trailing-blank-lines",
            "arabic-digits"])
    def test_edge_cases_match_row_reader(self, text):
        assert outcome(parse_csv, text) == outcome(reference_parse, text)


class TestStripLeapDays:
    def test_identity_without_leap_days(self):
        s = parse_csv(make_csv(daily_rows(dt.date(2001, 1, 1), 10)))
        assert strip_leap_days(s) == s

    def test_removes_feb_29(self):
        text = make_csv(["2000-02-28,25.0", "2000-02-29,26.0", "2000-03-01,27.0"])
        s = strip_leap_days(parse_csv(text))
        assert [d.isoformat() for d in s.dates.tolist()] == ["2000-02-28", "2000-03-01"]
        assert list(s.temps) == [25.0, 27.0]

    def test_24_year_count(self):
        rows = daily_rows(dt.date(2000, 1, 1), 8766)
        s = strip_leap_days(parse_csv(make_csv(rows)))
        assert len(s) == 24 * 365 == 8760

    def test_idempotent(self):
        rows = daily_rows(dt.date(2000, 1, 1), 400)
        once = strip_leap_days(parse_csv(make_csv(rows)))
        assert strip_leap_days(once) == once

    def test_gap_detected(self):
        text = make_csv(["2000-01-01,25.0", "2000-01-03,25.0"])
        with pytest.raises(InputError, match="gap.*2000-01-02"):
            strip_leap_days(parse_csv(text))

    @pytest.mark.parametrize("first,second,ok", [
        ("2000-02-28", "2000-03-01", True),    # leap year, Feb 29 absent
        ("2001-02-28", "2001-03-02", False),   # two days, no leap day between
        ("2000-03-01", "2000-03-03", False),
        ("1900-02-28", "1900-03-01", True),    # 1900 is not a leap year
    ])
    def test_two_day_step_only_across_feb_29(self, first, second, ok):
        s = parse_csv(make_csv([f"{first},25.0", f"{second},25.0"]))
        if ok:
            assert strip_leap_days(s) == s
        else:
            with pytest.raises(InputError, match="gap"):
                strip_leap_days(s)


class TestSeasonalBasis:
    """The sin/cos columns of the seasonal design matrix: the annual
    phase 2*pi*t/365 at day index t."""

    def test_zero_phase(self):
        assert design_matrix(1)[0, 2:].tolist() == [0.0, 1.0]

    def test_periodicity(self):
        s, c = design_matrix(366)[365, 2:]
        assert abs(s) < 1e-12 and abs(c - 1.0) < 1e-12

    def test_direct_evaluation(self):
        s, c = design_matrix(92)[91, 2:]
        assert s == pytest.approx(math.sin(2 * math.pi * 91 / 365), abs=1e-15)
        assert c == pytest.approx(math.cos(2 * math.pi * 91 / 365), abs=1e-15)
        assert s == pytest.approx(0.9999, abs=5e-4)

    def test_unit_circle(self):
        s, c = design_matrix(10 ** 6 + 1)[:, 2:].T
        assert np.all(np.abs(s * s + c * c - 1.0) < 1e-12)


def test_leap_free_days_skips_feb_29():
    assert leap_free_calendar(dt.date(2000, 2, 28), 2).dates[1] == dt.date(2000, 3, 1)
    assert leap_free_calendar(dt.date(2001, 2, 28), 2).dates[1] == dt.date(2001, 3, 1)
    assert leap_free_calendar(dt.date(2000, 12, 31), 2).dates[1] == dt.date(2001, 1, 1)
    with pytest.raises(InputError, match="Feb 29"):
        leap_free_calendar(dt.date(2000, 2, 29), 1)


def test_is_leap_day():
    days = np.arange(np.datetime64("1896-01-01"), np.datetime64("2105-01-01"))
    expected = [d.month == 2 and d.day == 29 for d in days.tolist()]
    assert is_leap_day(days).tolist() == expected


def test_civil_matches_datetime_date():
    # Every day from 0001-01-01 to 9999-12-31, as YYYYMMDD integers.
    n = dt.date.max.toordinal()
    year, month, day = _civil(np.datetime64("0001-01-01") + np.arange(n))
    expected = np.fromiter((d.year * 10_000 + d.month * 100 + d.day
                            for d in map(dt.date.fromordinal, range(1, n + 1))),
                           np.int64, n)
    assert np.array_equal((year * 100 + month) * 100 + day, expected)


def test_days_from_civil_inverts_civil():
    # Every day from 0001-01-01 to 9999-12-31.
    days = np.arange(np.datetime64("0001-01-01"), np.datetime64("10000-01-01"))
    year, month, day = _civil(days)
    back = series_module._days_from_civil(year, month, day)
    assert np.array_equal(back, days.astype(np.int64))


class TestLeapFreeCalendar:
    def test_arrays_are_read_only(self):
        calendar = series_module.leap_free_calendar("2000-01-01", 400)
        for array in (calendar.dates, calendar.month_id):
            with pytest.raises(ValueError):
                array[0] = array[1]
        assert isinstance(calendar.months, tuple)

    def test_same_calendar_for_any_spelling_of_the_start(self):
        calendar = series_module.leap_free_calendar(dt.date(2000, 1, 1), 30)
        assert series_module.leap_free_calendar("2000-01-01", 30) is calendar
        assert series_module.leap_free_calendar(np.datetime64("2000-01-01"), 30) is calendar

    @pytest.mark.parametrize("year", [1900, 2000, 2100])
    @pytest.mark.parametrize("month, day", [(2, 28), (3, 1), (12, 31)])
    def test_matches_an_uncached_recomputation(self, year, month, day):
        start, n = dt.date(year, month, day), 3 * 365 + 7
        expected, d = [], start
        while len(expected) < n:
            if (d.month, d.day) != (2, 29):
                expected.append(d)
            d += dt.timedelta(days=1)
        assert leap_free_calendar(start, n).dates.tolist() == expected
        months = list(dict.fromkeys((d.year, d.month) for d in expected))
        calendar = series_module.leap_free_calendar(start, n)
        assert calendar.month_id.tolist() == [months.index((d.year, d.month))
                                              for d in expected]
        assert list(calendar.months) == months

    def test_strip_returns_a_leap_free_series_itself(self):
        s = TemperatureSeries(leap_free_calendar("2000-02-27", 5).dates, np.zeros(5))
        assert strip_leap_days(s) is s

    def test_strip_still_checks_a_series_that_needs_it(self):
        s = parse_csv(make_csv(daily_rows(dt.date(2000, 2, 27), 5)))
        stripped = strip_leap_days(s)
        assert len(stripped) == 4 and not is_leap_day(stripped.dates).any()
        assert strip_leap_days(stripped) is stripped

    def test_series_starting_on_feb_29(self):
        # No leap-free calendar starts on a Feb 29, so the series is none.
        s = parse_csv(make_csv(daily_rows(dt.date(2000, 2, 29), 400)))
        back = parse_csv(serialize_csv(s))
        assert np.array_equal(back.dates, s.dates) and np.array_equal(back.temps, s.temps)
        stripped = strip_leap_days(s)
        assert str(stripped.dates[0]) == "2000-03-01" and len(stripped) == 399
        with pytest.raises(InputError, match="strip_leap_days"):
            fit_full_model(s)


def test_serialize_dates_match_numpy_text():
    dates = np.append(np.arange(np.datetime64("0001-01-01"), np.datetime64("9999-12-31"), 13),
                      np.datetime64("9999-12-31"))
    text = serialize_csv(TemperatureSeries(dates, np.zeros(dates.size)))
    written = [line[:line.index(",")] for line in text.splitlines()[1:]]
    assert written == dates.astype(str).tolist()


@pytest.mark.parametrize("date", ["0000-12-31", "10000-01-01"])
def test_serialize_rejects_dates_outside_years_1_to_9999(date):
    series = TemperatureSeries(np.array([date], dtype="datetime64[D]"), [20.0])
    with pytest.raises(InputError, match="outside years 1..9999"):
        serialize_csv(series)


def test_month_index():
    s = parse_csv(make_csv(daily_rows(dt.date(2001, 1, 25), 12)))
    calendar = leap_free_calendar(s.dates[0], len(s.dates))
    assert calendar.months == ((2001, 1), (2001, 2))
    assert calendar.month_id.tolist() == [0] * 7 + [1] * 5


def test_series_immutable():
    s = parse_csv(make_csv(daily_rows(dt.date(2000, 1, 1), 3)))
    with pytest.raises(ValueError):
        s.temps[0] = 0.0
    with pytest.raises(ValueError):
        s.dates[0] = np.datetime64("1999-12-31")


def test_read_only_copy():
    array = series_module.read_only_copy([1, 2, 3], float)
    assert array.dtype == float and array.tolist() == [1.0, 2.0, 3.0]
    assert not array.flags.writeable
    source = np.arange(3.0)
    assert not np.shares_memory(series_module.read_only_copy(source, float), source)


def caller_arrays():
    return (np.arange(np.datetime64("2000-01-01"), np.datetime64("2000-01-04")),
            np.array([25.0, 26.0, 24.0]), np.array([0.0, 1.5, 3.0]))


@pytest.mark.parametrize("edit, says", [
    (lambda d, t, p: (d[:2], t, p), "dates and temperatures have different lengths"),
    (lambda d, t, p: (d[:0], t[:0], None), "empty series"),
    (lambda d, t, p: (d, [25.0, np.inf, 24.0], p), "non-finite temperature value"),
    (lambda d, t, p: (d, t + 40.0, p), "temperature outside sane range"),
    (lambda d, t, p: (d[::-1], t, p), "dates not strictly increasing at 2000-01-02"),
    (lambda d, t, p: (d, t, p[:2]), "precipitation length mismatch"),
    (lambda d, t, p: (d, t, [0.0, np.nan, 3.0]), "non-finite precipitation value"),
    (lambda d, t, p: (d, t, p - 0.5), "precipitation outside sane range"),
    (lambda d, t, p: (d, t, p + 1998.0), r"precipitation outside sane range \[0, 2000.0\] mm"),
], ids=["lengths", "empty", "non-finite-temperature", "hot", "unordered",
        "precipitation-length", "non-finite-precipitation", "negative-precipitation",
        "precipitation-beyond-record"])
def test_series_invariants(edit, says):
    with pytest.raises(InputError, match=f"^{says}"):
        TemperatureSeries(*edit(*caller_arrays()))


def test_precipitation_bound_is_inclusive():
    d, t, _ = caller_arrays()
    assert TemperatureSeries(d, t, [0.0, 2000.0, 1.0]).precip.max() == 2000.0


def test_series_leaves_caller_arrays_writable():
    d, t, p = caller_arrays()
    TemperatureSeries(dates=d, temps=t, precip=p)
    assert d.flags.writeable and t.flags.writeable and p.flags.writeable


@pytest.mark.parametrize("write", [
    lambda d, t, p: d.__setitem__(2, np.datetime64("1999-12-31")),
    lambda d, t, p: t.__setitem__(1, np.nan),
    lambda d, t, p: p.__setitem__(0, -1.0),
], ids=["earlier-date", "nan-temperature", "negative-precipitation"])
def test_caller_writes_do_not_reach_the_series(write):
    d, t, p = caller_arrays()
    s = TemperatureSeries(dates=d, temps=t, precip=p)
    write(d, t, p)
    assert s == TemperatureSeries(*caller_arrays())
    assert np.all(np.diff(s.dates) > np.timedelta64(0, "D"))
    assert np.all(np.isfinite(s.temps)) and s.precip.min() >= 0


def test_writes_to_the_base_of_a_view_do_not_reach_the_series():
    base = np.array([20.0, 25.0, 21.0, 26.0, 22.0, 24.0])
    dates = leap_free_calendar("2000-01-01", 3).dates
    s = TemperatureSeries(dates=dates, temps=base[1::2])
    base[3] = np.nan
    assert s.temps.tolist() == [25.0, 26.0, 24.0]
    assert base.flags.writeable
