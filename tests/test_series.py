import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from outemp import InputError, parse_csv, seasonal_basis, serialize_csv, strip_leap_days
from outemp.series import TemperatureSeries, is_leap_day, leap_free_days, month_index


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
    def test_zero_phase(self):
        assert seasonal_basis(0) == (0.0, 1.0)

    def test_periodicity(self):
        s, c = seasonal_basis(365)
        assert abs(s) < 1e-12 and abs(c - 1.0) < 1e-12

    def test_direct_evaluation(self):
        s, c = seasonal_basis(91)
        assert s == pytest.approx(math.sin(2 * math.pi * 91 / 365), abs=1e-15)
        assert c == pytest.approx(math.cos(2 * math.pi * 91 / 365), abs=1e-15)
        assert s == pytest.approx(0.9999, abs=5e-4)

    @given(st.integers(min_value=0, max_value=10 ** 6))
    def test_unit_circle(self, t):
        s, c = seasonal_basis(t)
        assert abs(s * s + c * c - 1.0) < 1e-12


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
