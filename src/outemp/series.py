"""Calendar-indexed daily temperature series and the leap-free calendar.

The modeling conventions live here: series are strictly date-ordered,
leap days (Feb 29) are removed before any fitting, and after stripping
the series must be gap-free with exactly 365 observations per full year.
The day index ``t`` is the 0-based position within the leap-stripped
series, and the seasonal phase of index t is 2*pi*t/365 with no leap
adjustment. Volatility is constant within the calendar months that
:func:`leap_free_calendar` numbers, for fitting and simulation alike.

Every calendar question is answered from one integer civil calendar:
:func:`_civil` turns ``datetime64[D]`` day numbers into year, month and
day arrays with a dozen integer operations (Hinnant's days-to-civil),
and :func:`_days_from_civil` turns them back, which is how the CSV
reader decodes its dates. Leap days, month numbering and the date text
that :func:`serialize_csv` writes all come from it.

The leap-free calendar of n days from a start is built once and cached
(:func:`leap_free_calendar`, a few calendars at a time): its read-only
dates, month ids and months serve the simulator, the fit and
:func:`strip_leap_days`, and :func:`serialize_csv` caches the date text
of the ones it writes. A synth -> serialize -> parse -> strip -> fit
replicate of a calendar seen before converts one date column, the
reader's, where it converted seven without the cache.
:func:`float_rows` writes every float of every CSV the package outputs.
"""

from __future__ import annotations

import csv
import datetime as dt
import functools
import io
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputError

DAYS_PER_YEAR = 365

# Sanity bounds for daily average temperature in degrees Celsius.
TEMP_MIN_C = -90.0
TEMP_MAX_C = 60.0
# Upper bound for daily precipitation in mm, above the 1,825 mm world-record day.
PRECIP_MAX_MM = 2000.0

CSV_HEADER = ("date", "t_avg_c", "precip_mm")

# date.toordinal() of 1970-01-01, day 0 of datetime64[D].
_EPOCH_ORDINAL = 719_163
# (column in YYYY-MM-DD, place value in the integer YYYYMMDD) of each digit.
_DATE_DIGITS = tuple(zip((0, 1, 2, 3, 5, 6, 8, 9), [10 ** k for k in range(7, -1, -1)]))


def read_only_copy(values, dtype) -> np.ndarray:
    """A read-only copy of ``values``: the only way a value type takes an array."""
    array = np.array(values, dtype=dtype)
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class TemperatureSeries:
    """Ordered daily temperature records, optionally with precipitation.

    Each array is a read-only copy of the one given: ``dates`` strictly
    increasing ``datetime64[D]``, ``temps`` floats of the same length in
    degrees Celsius, ``precip`` (mm) None or parallel floats in
    [0, PRECIP_MAX_MM].
    """

    dates: np.ndarray
    temps: np.ndarray
    precip: np.ndarray | None = None

    def __post_init__(self):
        dates = read_only_copy(self.dates, "datetime64[D]")
        temps = read_only_copy(self.temps, float)
        precip = None if self.precip is None else read_only_copy(self.precip, float)
        for name, value in (("dates", dates), ("temps", temps), ("precip", precip)):
            object.__setattr__(self, name, value)
        if dates.shape != temps.shape:
            raise InputError("dates and temperatures have different lengths")
        if temps.size == 0:
            raise InputError("empty series")
        if not np.all(np.isfinite(temps)):
            raise InputError("non-finite temperature value")
        if temps.min() < TEMP_MIN_C or temps.max() > TEMP_MAX_C:
            raise InputError(
                f"temperature outside sane range [{TEMP_MIN_C}, {TEMP_MAX_C}] degC")
        unordered = np.flatnonzero(np.diff(dates) <= np.timedelta64(0, "D"))
        if unordered.size:
            raise InputError(
                f"dates not strictly increasing at {dates[unordered[0] + 1]}")
        if precip is not None:
            if precip.size != temps.size:
                raise InputError("precipitation length mismatch")
            if not np.all(np.isfinite(precip)):
                raise InputError("non-finite precipitation value")
            if precip.min() < 0 or precip.max() > PRECIP_MAX_MM:
                raise InputError(
                    f"precipitation outside sane range [0, {PRECIP_MAX_MM}] mm")

    def __len__(self) -> int:
        return self.temps.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, TemperatureSeries):
            return NotImplemented
        return (np.array_equal(self.dates, other.dates)
                and np.array_equal(self.temps, other.temps)
                and np.array_equal(self.precip, other.precip))   # None equals only None


def _civil(dates) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(year, month, day) integer arrays of ``datetime64[D]`` dates, by
    Howard Hinnant's days-to-civil algorithm on the proleptic Gregorian
    calendar."""
    z = np.asarray(dates, dtype="datetime64[D]").astype(np.int64) + 719_468
    era = z // 146_097                        # 400-year eras from 0000-03-01
    # The day of the era (0..146096) fits int32, whose division is faster.
    doe = (z - era * 146_097).astype(np.int32)
    yoe = (doe - doe // 1460 + doe // 36_524 - doe // 146_096) // 365
    doy = doe - (365 * yoe + yoe // 4 - yoe // 100)   # from March 1, 0..365
    mp = (5 * doy + 2) // 153                 # March is 0, February 11
    day = doy - (153 * mp + 2) // 5 + 1
    return era * 400 + yoe + (mp >= 10), (mp + 2) % 12 + 1, day


def _days_from_civil(year, month, day) -> np.ndarray:
    """Days since 1970-01-01 of integer (year, month, day) arrays, by
    Hinnant's days-from-civil, the inverse of :func:`_civil` on valid
    dates. An invalid date maps to some day whose :func:`_civil` differs."""
    year = np.asarray(year, np.int64) - (np.asarray(month) <= 2)
    era = year // 400
    yoe = year - era * 400                    # 0..399
    doy = (153 * ((month + 9) % 12) + 2) // 5 + day - 1   # from March 1
    return era * 146_097 + yoe * 365 + yoe // 4 - yoe // 100 + doy - 719_468


def is_leap_day(dates) -> np.ndarray:
    """True where a date falls on February 29."""
    _, month, day = _civil(dates)
    return (month == 2) & (day == 29)


class LeapFreeCalendar(NamedTuple):
    """``n`` consecutive days from a start, Feb 29 skipped: the read-only
    ``dates``, each day's ``month_id``, numbering the calendar-month runs
    from 0, and the (year, month) of each run in ``months``."""

    dates: np.ndarray
    month_id: np.ndarray
    months: tuple[tuple[int, int], ...]


def leap_free_calendar(start, n: int) -> LeapFreeCalendar:
    """The leap-free calendar of ``n`` days from ``start``, shared by every
    caller that asks for the same one; a start on Feb 29 raises InputError."""
    return _calendar(int(np.datetime64(start, "D").astype(np.int64)), int(n))


# A 24-year calendar is 0.14 MB; the few a process uses stay cached.
@functools.lru_cache(maxsize=8)
def _calendar(start: int, n: int) -> LeapFreeCalendar:
    first = np.datetime64(start, "D")
    if is_leap_day(first):
        raise InputError(f"start date {first} falls on Feb 29, "
                         "which the leap-free calendar skips")
    # n days plus room for every Feb 29 they can straddle.
    days = np.arange(first, first + n + n // DAYS_PER_YEAR + 2)
    year, month, day = _civil(days)
    keep = ~((month == 2) & (day == 29))
    dates, year, month = days[keep][:n], year[keep][:n], month[keep][:n]
    year_month = year * 12 + month
    starts = np.concatenate(([True], year_month[1:] != year_month[:-1]))
    month_id = np.cumsum(starts) - 1
    for array in (dates, month_id):
        array.flags.writeable = False
    return LeapFreeCalendar(dates, month_id,
                            tuple(zip(year[starts].tolist(), month[starts].tolist())))


def leap_free_days(start, n: int) -> np.ndarray:
    """``n`` consecutive calendar days from ``start``, Feb 29 skipped
    (read-only: :func:`leap_free_calendar`'s ``dates``)."""
    return leap_free_calendar(start, n).dates


def on_leap_free_calendar(dates: np.ndarray) -> LeapFreeCalendar | None:
    """The leap-free calendar that ``dates`` are, from their first day,
    or None when they hold a Feb 29 or a gap."""
    try:
        calendar = leap_free_calendar(dates[0], len(dates))
    except InputError:   # the first date is a Feb 29
        return None
    return calendar if np.array_equal(dates, calendar.dates) else None


def parse_iso_date(text: str) -> dt.date:
    """The date written ``YYYY-MM-DD``; ValueError for any other text."""
    # Python 3.11's fromisoformat also reads 20000101 and 2000-W01-1; the
    # length and dashes leave only YYYY-MM-DD, whose digits it checks on
    # every supported Python.
    if len(text) != 10 or text[4] != "-" or text[7] != "-":
        raise ValueError(f"not a YYYY-MM-DD date: {text!r}")
    return dt.date.fromisoformat(text)


def parse_csv(text: str) -> TemperatureSeries:
    """Parse a `date,t_avg_c[,precip_mm]` CSV into a TemperatureSeries.

    Dates must be ISO-8601 ``YYYY-MM-DD`` and strictly increasing. Every
    parse failure raises InputError naming the 1-based line number. Leap
    days are kept; use :func:`strip_leap_days` before fitting.

    A well-formed file is read by columns (:func:`_parse_columns`). Any
    file that path declines, which includes every bad one, is read again
    row by row with the ``csv`` module (:func:`_parse_rows`), which finds
    the first bad line. Both read dates by :func:`parse_iso_date`'s rules
    and numbers with ``float``, but only plain ASCII ones with no ``_``.
    The row reader strips each field first; ``float`` strips the same
    characters but for ``\x1c``-``\x1f``, which the columnar path
    declines. So a file the columnar path accepts gives the same series
    row by row.
    """
    columns = _parse_columns(text)
    days, temps, precip = columns if columns is not None else _parse_rows(text)
    return TemperatureSeries(dates=np.asarray(days, np.int64).view("datetime64[D]"),
                             temps=temps, precip=precip)


def _parse_header(fields: list[str]) -> int | None:
    """The column count of a valid header row, else None."""
    header = [h.strip() for h in fields]
    if header in (list(CSV_HEADER[:2]), list(CSV_HEADER)):
        return len(header)
    return None


def _parse_columns(text: str):
    """``(days, temps, precip)`` of a well-formed CSV, else None.

    Days count from 1970-01-01. Without quotes or carriage returns the
    ``csv`` module reads a line as the text between its commas, so the
    fields are taken by one split of the whole body, after checking, on a
    byte array, that every line has exactly as many fields as the header.
    The dates are read from that byte array (:func:`_decode_dates`) and
    each number column is converted in one pass. The result is None
    whenever anything is off, and then only the row-by-row reader says
    what: a quote, carriage return or non-ASCII character anywhere, an
    underscore below the header, a bad header, no rows, a blank line
    between rows, a wrong field count, a field longer than the ``csv``
    module reads, a date that is not ``YYYY-MM-DD`` with no padding or
    not a real day, a value that does not convert, a non-finite number
    or dates that do not strictly increase.
    """
    if '"' in text or "\r" in text or not text.isascii():
        return None
    header, _, body = text.partition("\n")
    width = _parse_header(header.split(","))
    # The csv module skips blank lines, so trailing ones change nothing.
    body = body.rstrip("\n") + "\n"
    # float() reads "2_5", which the row reader refuses; the header's
    # names t_avg_c and precip_mm hold underscores.
    if width is None or body == "\n" or "_" in body:
        return None
    raw = np.frombuffer(body.encode("ascii"), np.uint8)
    at = np.flatnonzero((raw == ord(",")) | (raw == ord("\n")))
    # Every line must be width - 1 commas and then a newline.
    row_ends = np.frombuffer(b"," * (width - 1) + b"\n", np.uint8)
    if at.size % width or np.any(raw[at].reshape(-1, width) != row_ends):
        return None
    if max(at[0], np.diff(at).max(initial=0) - 1) > csv.field_size_limit():
        return None
    # Each line starts after the previous one's newline, with its date.
    starts = np.concatenate(([0], at[width - 1:-1:width] + 1))
    days = _decode_dates(raw, starts, at[::width])
    if days is None:
        return None
    fields = body[:-1].replace("\n", ",").split(",")
    n = len(days)
    try:
        values = [np.fromiter(map(float, fields[k::width]), float, n)
                  for k in range(1, width)]
    except ValueError:
        return None
    if not (np.all(np.diff(days) > 0) and all(np.all(np.isfinite(v)) for v in values)):
        return None
    return days, values[0], values[1] if width == 3 else None


def _decode_dates(raw: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """Days since 1970-01-01 of the fields ``raw[starts[i]:ends[i]]``, or
    None unless every one is a ``YYYY-MM-DD`` date that
    :func:`parse_iso_date` reads the same, unchanged by ``strip``: ten
    characters, dashes at 4 and 7, ASCII digits elsewhere, a year from 1
    and a month and day that exist, which :func:`_civil` confirms by
    giving back the same (year, month, day)."""
    if np.any(ends - starts != 10):
        return None
    chars = raw[starts[:, None] + np.arange(10)]
    digits = chars[:, [col for col, _ in _DATE_DIGITS]] - np.uint8(ord("0"))
    if np.any(chars[:, [4, 7]] != ord("-")) or np.any(digits > 9):
        return None
    stamp = digits.astype(np.int64) @ np.array([place for _, place in _DATE_DIGITS])
    year, month, day = stamp // 10_000, stamp // 100 % 100, stamp % 100
    days = _days_from_civil(year, month, day)
    y, m, d = _civil(days.view("datetime64[D]"))
    if year.min() < 1 or np.any((y != year) | (m != month) | (d != day)):
        return None
    return days


def _parse_rows(text: str):
    """``(days, temps, precip)`` of the CSV, read row by row; raises the
    InputError, with its line number, of the first bad line."""
    rows = _csv_rows(text)
    try:
        _, header = next(rows)
    except StopIteration:
        raise InputError("empty input, expected header", line=1) from None
    width = _parse_header(header)
    if width is None:
        raise InputError(
            "expected header 'date,t_avg_c[,precip_mm]', got "
            f"{','.join(h.strip() for h in header)!r}", line=1)
    has_precip = width == 3

    days: list[int] = []  # from 1970-01-01
    temps: list[float] = []
    precip: list[float] = []
    prev: dt.date | None = None
    for lineno, row in rows:
        if not row:
            continue
        if len(row) != width:
            raise InputError(
                f"expected {width} fields, got {len(row)}", line=lineno)
        try:
            date = parse_iso_date(row[0].strip())
        except ValueError:
            raise InputError(f"unparsable date {row[0]!r}", line=lineno) from None
        if prev is not None:
            if date == prev:
                raise InputError(f"duplicate date {date}", line=lineno)
            if date < prev:
                raise InputError(f"out-of-order date {date}", line=lineno)
        prev = date
        temps.append(_parse_number(row[1], "temperature", lineno))
        if has_precip:
            precip.append(_parse_number(row[2], "precipitation", lineno))
        days.append(date.toordinal() - _EPOCH_ORDINAL)

    if not days:
        raise InputError("no data rows")
    return days, temps, precip if has_precip else None


def _csv_rows(text: str):
    """(line number, fields) of each row the ``csv`` module reads; its
    errors, such as an overlong field, become InputError."""
    reader = csv.reader(io.StringIO(text))
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise InputError(f"unreadable CSV: {exc}", line=reader.line_num) from None


def _parse_number(fieldtext: str, what: str, lineno: int) -> float:
    fieldtext = fieldtext.strip()
    if not fieldtext:
        raise InputError(f"missing {what} value", line=lineno)
    try:
        # float() also reads "2_5" and non-ASCII digits such as "２５".
        if not fieldtext.isascii() or "_" in fieldtext:
            raise ValueError
        value = float(fieldtext)
    except ValueError:
        raise InputError(f"unparsable {what} {fieldtext!r}", line=lineno) from None
    if not math.isfinite(value):
        raise InputError(f"non-finite {what} {fieldtext!r}", line=lineno)
    return value


def float_rows(leads: str, values: np.ndarray) -> str:
    """CSV rows of plain floats: row i is line i of ``leads`` (its key
    text, with no ``%``) followed by ``,repr(v)`` for each v in row i of
    the 2-D ``values``.

    The only writer of an output float: one ``%`` format, in which ``,%r``
    goes before each newline of ``leads`` and ``%r`` of a float is its
    ``repr``. Float reprs never need CSV quoting.
    """
    template = leads.replace("\n", ",%r" * values.shape[1] + "\n")
    return template % tuple(values.ravel().tolist())


def serialize_csv(series: TemperatureSeries) -> str:
    """Inverse of :func:`parse_csv`; round-trips exactly.

    Dates are written ``YYYY-MM-DD`` by :func:`_date_lines`, whose text
    for a leap-free calendar is cached, and the values by
    :func:`float_rows`. Dates outside years 1..9999, which ``YYYY-MM-DD``
    cannot write, raise InputError.
    """
    years, _, _ = _civil(series.dates[[0, -1]])
    if years[0] < 1 or years[1] > 9999:
        raise InputError(f"dates {series.dates[0]} .. {series.dates[-1]} "
                         "outside years 1..9999")
    columns = [series.temps] if series.precip is None else [series.temps, series.precip]
    if on_leap_free_calendar(series.dates) is None:
        dates = _date_lines(series.dates)
    else:
        dates = _calendar_date_lines(int(series.dates[0].astype(np.int64)), len(series))
    header = ",".join(CSV_HEADER[:1 + len(columns)])
    return f"{header}\n" + float_rows(dates, np.column_stack(columns))


def _date_lines(dates: np.ndarray) -> str:
    """``YYYY-MM-DD`` and a newline for each date, from one byte template."""
    year, month, day = _civil(dates)
    stamp = ((year * 100 + month) * 100 + day).astype(np.int32)   # YYYYMMDD
    lines = np.empty((len(stamp), 11), np.uint8)
    lines[:] = np.frombuffer(b"YYYY-MM-DD\n", np.uint8)
    for col, place in _DATE_DIGITS:
        lines[:, col] = ord("0") + stamp // place % 10
    return lines.tobytes().decode("ascii")


# Built only when a calendar is written; 8,760 days are 96 kB of text.
@functools.lru_cache(maxsize=4)
def _calendar_date_lines(start: int, n: int) -> str:
    """:func:`_date_lines` of the leap-free calendar of ``n`` days from
    day ``start`` (counted from 1970-01-01)."""
    return _date_lines(_calendar(start, n).dates)


def strip_leap_days(series: TemperatureSeries) -> TemperatureSeries:
    """Remove all Feb 29 records and verify the result is gap-free.

    Consecutive records in the returned series differ by exactly one
    calendar day with Feb 29 skipped. Any other gap raises InputError.
    A series that is already so is returned itself, so this is idempotent.
    """
    if on_leap_free_calendar(series.dates) is not None:
        return series
    keep = ~is_leap_day(series.dates)
    stripped = TemperatureSeries(series.dates[keep], series.temps[keep],
                                 None if series.precip is None else series.precip[keep])
    dates = stripped.dates
    expected = leap_free_days(dates[0], len(dates))
    gaps = np.flatnonzero(dates != expected)
    if gaps.size:
        i = gaps[0]
        raise InputError(
            f"gap in series: expected {expected[i]} after {dates[i - 1]}, got {dates[i]}")
    return stripped
