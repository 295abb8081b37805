import datetime as dt
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outemp import InputError, parse_csv, strip_leap_days
from outemp import series as series_module
from outemp.seasonal import design_matrix
from outemp.series import (TemperatureSeries, _civil, is_leap_day, leap_free_days,
                           month_index, serialize_csv)


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
    st.sampled_from(["0", "-0.0", "1e1", ".5", "5.", "+3.25", "1_0", "2.5E-3"]),
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
    assert leap_free_days(dt.date(2000, 2, 28), 2)[1] == dt.date(2000, 3, 1)
    assert leap_free_days(dt.date(2001, 2, 28), 2)[1] == dt.date(2001, 3, 1)
    assert leap_free_days(dt.date(2000, 12, 31), 2)[1] == dt.date(2001, 1, 1)
    with pytest.raises(InputError, match="Feb 29"):
        leap_free_days(dt.date(2000, 2, 29), 1)


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
    month_id, months = month_index(s.dates)
    assert months == [(2001, 1), (2001, 2)]
    assert month_id.tolist() == [0] * 7 + [1] * 5


def test_series_immutable():
    s = parse_csv(make_csv(daily_rows(dt.date(2000, 1, 1), 3)))
    with pytest.raises(ValueError):
        s.temps[0] = 0.0
    with pytest.raises(ValueError):
        s.dates[0] = np.datetime64("1999-12-31")
