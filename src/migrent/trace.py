"""CPU-utilization time series: parsing, smoothing, peaks, and integrals.

A trace is a strictly increasing sequence of POSIX timestamps (UTC) with a
utilization fraction in [0, 1] at each sample. Between samples the signal
is treated as piecewise linear, so integrals use the trapezoid rule on the
irregular grid.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import InsufficientDataError, TraceError
from .table import read_bytes, read_table

TRACE_COLUMNS = ("timestamp", "cpu_utilization_percent")

DEFAULT_WINDOW_SECONDS = 300.0
DEFAULT_PERCENTILE = 95.0
DEFAULT_MIN_DAYS = 7

_UTC = dt.timezone.utc
_SECONDS_PER_DAY = 86400.0
_EPOCH_ORDINAL = dt.date(1970, 1, 1).toordinal()
# the instants a trace may hold, in POSIX seconds: from 0001-01-01T00:00:00Z
# up to, but not including, 10000-01-01T00:00:00Z (the years datetime has)
STAMP_RANGE = (-62_135_596_800.0, 253_402_300_800.0)

# numpy 2 renamed trapz; fall back for older installs
_trapezoid = getattr(np, "trapezoid", None) or np.trapz


@dataclass(frozen=True)
class UtilizationTrace:
    """A machine's utilization samples as parallel read-only float arrays.

    ``times`` holds POSIX seconds (UTC) in ``STAMP_RANGE`` and must be
    strictly increasing; ``values`` holds utilization fractions in [0, 1].
    """

    machine_id: str
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.ascontiguousarray(self.times, dtype=np.float64)
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.ndim != 1 or times.shape != values.shape:
            raise TraceError("times and values must be 1-d arrays of equal length")
        if times.size < 2:
            raise TraceError(f"a trace needs at least 2 samples, got {times.size}")
        # min and max are NaN if any value is, and NaN fails every comparison,
        # so these reductions also reject NaN without a full-size mask
        first, end = STAMP_RANGE
        if not (times.min() >= first and times.max() < end):
            raise TraceError("timestamps must be finite and in the years 1 to 9999 (UTC)")
        if not (times[1:] > times[:-1]).all():
            raise TraceError("timestamps must be strictly increasing")
        if not (values.min() >= 0.0 and values.max() <= 1.0):
            raise TraceError("utilization values must lie in [0, 1]")
        times.setflags(write=False)
        values.setflags(write=False)

    def __len__(self) -> int:
        return int(self.times.size)

    @property
    def duration_seconds(self) -> float:
        return float(self.times[-1] - self.times[0])


@dataclass(frozen=True)
class DailyMaxima:
    """Per-UTC-day maxima of a (usually smoothed) utilization trace."""

    dates: tuple[dt.date, ...]
    values: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if len(self.dates) != values.size:
            raise ValueError("dates and values must have equal length")
        values.setflags(write=False)

    def __len__(self) -> int:
        return int(self.values.size)


def parse_timestamp(text: str) -> float:
    """ISO-8601 string to POSIX seconds. Accepts 'Z'; naive means UTC."""
    cleaned = text.strip()
    if cleaned.endswith(("Z", "z")):
        cleaned = cleaned[:-1] + "+00:00"
    moment = dt.datetime.fromisoformat(cleaned)
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=_UTC)
    return moment.timestamp()


def format_timestamp(posix_seconds: float) -> str:
    """POSIX seconds to the ISO-8601 form used in trace files."""
    moment = dt.datetime.fromtimestamp(posix_seconds, tz=_UTC).replace(tzinfo=None)
    text = moment.isoformat()  # pads the year to four digits, unlike strftime's %Y
    return (text.rstrip("0") if moment.microsecond else text) + "Z"


def parse_trace(source, machine_id: str | None = None) -> UtilizationTrace:
    """Parse a trace CSV (timestamp, cpu_utilization_percent) into a trace.

    ``source`` may be a path or an open text stream. Percent values must lie
    in [0, 100] and are converted to fractions. All errors name the 1-based
    line they were found on.

    A file exactly as ``write_trace`` emits it is parsed a column at a time;
    any other file goes through the row loop, which alone produces errors.
    """
    if hasattr(source, "read"):
        return _parse_rows(source, machine_id or "trace")
    path = Path(source)
    data = read_bytes(path, TraceError, "trace")
    columns = _parse_canonical(data)
    if columns is None:
        return _parse_rows(data, machine_id or path.stem)
    return UtilizationTrace(machine_id or path.stem, *columns)


def _parse_rows(source, machine_id: str) -> UtilizationTrace:
    """The row loop: any ISO-8601 stamp, any float, errors with line numbers."""
    times: list[float] = []
    values: list[float] = []
    prev = -math.inf
    first, end = STAMP_RANGE
    for line, (stamp_text, percent_text) in read_table(source, TRACE_COLUMNS, TraceError, "trace"):
        try:
            stamp = parse_timestamp(stamp_text)
        except ValueError:
            raise TraceError(f"bad timestamp {stamp_text!r}", line=line) from None
        if not first <= stamp < end:
            raise TraceError(f"timestamp {stamp_text} is outside the years 1 to 9999 (UTC)", line=line)
        try:
            percent = float(percent_text)
        except ValueError:
            raise TraceError(f"bad utilization {percent_text!r}", line=line) from None
        if math.isnan(percent) or not 0.0 <= percent <= 100.0:
            raise TraceError(
                f"utilization must be in [0, 100] percent, got {percent_text}", line=line
            )
        if stamp <= prev:
            raise TraceError(
                f"timestamp {stamp_text} is not after the previous sample", line=line
            )
        prev = stamp
        times.append(stamp)
        values.append(percent / 100.0)

    if len(times) < 2:
        raise TraceError(f"a trace needs at least 2 data rows, got {len(times)}")
    return UtilizationTrace(machine_id, np.array(times), np.array(values))


# write_trace's form, which parse_trace reads by digit arithmetic: this
# header, then rows of "YYYY-MM-DDTHH:MM:SSZ," (the head; '0' in a template
# marks a digit) and a percent of 1 to 3 digits, '.' and 4 decimals.
_HEADER_LINE = ",".join(TRACE_COLUMNS) + "\n"
_HEAD_TEMPLATE = b"0000-00-00T00:00:00Z,"
_PERCENT_TEMPLATE = b"000.0000"  # the widest, "100.0000"; a field is right-aligned in it
_PERCENT_WIDTHS = (6, 8)


def _word(data) -> np.uint64:
    """Eight bytes as one little-endian integer."""
    return np.uint64(int.from_bytes(bytes(data), "little"))


def _word_check(template: bytes) -> tuple[np.uint64, np.uint64, np.uint64]:
    """(xor, add, mask) that check 8 bytes, read as a little-endian word, against ``template``.

    '0' in the template stands for a digit and NUL for any byte; any other
    byte must match. ``x = word ^ xor`` then holds 0 at each literal and each
    digit's value at its byte, and ``(x | (x + add)) & mask`` is 0 exactly
    when every byte is right: ``add`` carries a digit byte of 10 to 15 into
    its high half, and a carry out of a byte happens only when that byte's
    high half is set already.
    """
    return (_word(template),
            _word(6 if c == ord("0") else 0 for c in template),
            _word(0xF0 if c == ord("0") else 0 if c == 0 else 0xFF for c in template))


# a head is gathered with the 3 bytes after it, the start of its row's
# percent field (a row is at least 28 bytes), so that it is 3 whole words
_HEAD_BYTES = 24
_HEAD_CHECKS = tuple(_word_check((_HEAD_TEMPLATE + bytes(3))[i : i + 8]) for i in range(0, _HEAD_BYTES, 8))
_PERCENT_CHECK = _word_check(_PERCENT_TEMPLATE)
# by a field's width, the bytes of the percent word that hold it: its top ones
_PERCENT_KEEP = np.array([(1 << 64) - (1 << 8 * (8 - width)) for width in range(9)], dtype=np.uint64)


def _parse_canonical(data: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """(times, values) of a file in write_trace's exact form, else None.

    Gathers each row's percent field and head with one fancy index each and
    checks and reads their digits eight bytes at a time, so no Python object
    or string is made per row. Returns None for anything else, which the
    row loop reads: other headers, layouts, percent forms or line endings,
    blank rows, fewer than two rows, year 0000, impossible dates, percents
    over 100 and times that do not increase.
    """
    if not data.startswith(_HEADER_LINE.encode()) or not data.endswith(b"\n"):
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    newlines = np.flatnonzero(buf == 10)
    widths = np.diff(newlines)
    widths -= len(_HEAD_TEMPLATE) + 1  # of the percent fields
    least, most = _PERCENT_WIDTHS
    if widths.size < 2 or not least <= widths.min() <= widths.max() <= most:
        return None
    # from here on newlines[i] is `most` bytes before the i-th newline: where
    # the percent field of the row that newline ends is gathered from, and
    # `most + 1` bytes before the start of the next row's head
    newlines -= most
    values = _percents(_gather(buf, newlines[1:], most), widths)
    del widths
    if values is None or not values.max() <= 100.0:
        return None
    values /= 100.0
    heads = _gather(buf[most + 1 :], newlines[:-1], _HEAD_BYTES)
    del newlines
    seconds = _stamp_seconds(heads)
    del heads
    if seconds is None or not (seconds[1:] > seconds[:-1]).all():
        return None
    return seconds, values


def _gather(buf: np.ndarray, offsets: np.ndarray, width: int) -> np.ndarray:
    """The ``width`` bytes of ``buf`` from each offset, a row each, as a new array."""
    records = np.ndarray((buf.size - width + 1,), dtype=f"V{width}", buffer=buf, strides=(1,))
    return records[offsets].view(np.uint8).reshape(offsets.size, width)


def _off_form(x: np.ndarray, add: np.uint64, mask: np.uint64) -> bool:
    """Whether a word, XORed with its template, breaks the check of ``_word_check``."""
    y = x + add
    y |= x
    y &= mask
    return bool(y.any())


def _stamp_seconds(heads: np.ndarray) -> np.ndarray | None:
    """POSIX seconds of the rows' heads, or None if one is off-form or no real time."""
    rows = heads.shape[0]
    words = heads.view("<u8")  # a row of 3 words per head
    x = np.empty(rows, dtype=np.uint64)
    for column, (xor, add, mask) in enumerate(_HEAD_CHECKS):
        np.bitwise_xor(words[:, column], xor, out=x)
        if _off_form(x, add, mask):
            return None
    del x
    zero = np.uint8(ord("0"))
    clock = []  # hour, minute, second
    for tens, limit in ((11, 24), (14, 60), (17, 60)):
        value = (heads[:, tens] - zero) * np.uint8(10) + (heads[:, tens + 1] - zero)
        if value.max() >= limit:
            return None
        clock.append(value)
    # a date is worked out once, at the first row of each run that shares it;
    # a row starts a run if its ten date bytes (word 0 and bytes 8 and 9)
    # differ from the row before's
    firsts = np.ones(rows, dtype=bool)
    np.not_equal(words[1:, 0], words[:-1, 0], out=firsts[1:])
    date_end = heads[:, 8:10].view("<u2")[:, 0]
    firsts[1:] |= date_end[1:] != date_end[:-1]
    firsts = np.flatnonzero(firsts)
    dates = heads[firsts, :10].tobytes()
    try:
        ordinals = [dt.date.fromisoformat(str(dates[i : i + 10], "ascii")).toordinal()
                    for i in range(0, len(dates), 10)]
    except ValueError:  # year 0000 or a day its month lacks
        return None
    days = np.array(ordinals, dtype=np.int64) - _EPOCH_ORDINAL
    # every sum is of whole numbers far below 2**53, so it is exact in float64
    seconds = np.repeat(days * 86_400.0, np.diff(firsts, append=rows))
    hour, minute, second = clock
    seconds += (hour.astype(np.int32) * 60 + minute) * 60 + second
    return seconds


def _percents(fields: np.ndarray, widths: np.ndarray) -> np.ndarray | None:
    """The percents right-aligned in ``fields``, each ``widths`` bytes, or None.

    A field is 1 to 3 digits, '.' and 4 digits, so its '.' is at byte 3.
    Works in ``fields``, which it overwrites.
    """
    xor, add, mask = _PERCENT_CHECK
    words = fields.view("<u8")[:, 0]  # a word per field; its first byte is the low one
    words ^= xor
    words &= _PERCENT_KEEP[widths]  # the bytes before a shorter field read as digit 0
    if _off_form(words, add, mask):
        return None
    # the eight digits ('.' now reads 0) as one number: neighbouring lanes of
    # 1, 2 and then 4 digits are joined, the first digit being the low byte,
    # as the lane that comes first times 10, 100 or 10**4 plus the next one
    carry = np.empty_like(words)
    for bits, scale, lanes in ((8, 10, 0x00FF00FF00FF00FF), (16, 100, 0x0000FFFF0000FFFF), (32, 10_000, 0xFFFFFFFF)):
        np.right_shift(words, np.uint64(bits), out=carry)
        words *= np.uint64(scale)
        words += carry
        words &= np.uint64(lanes)
    # a field a.b reads as a·10**5 + b with b < 10**4, and its mantissa is
    # a·10**4 + b; at most 7 digits and 1e4 are exact doubles, so their
    # quotient is float() of the text
    np.floor_divide(words, np.uint64(100_000), out=carry)
    carry *= np.uint64(90_000)
    words -= carry
    del carry
    mantissa = words.astype(np.float64)
    mantissa /= 1e4
    return mantissa


def write_trace(trace: UtilizationTrace, dest) -> None:
    """Write a trace back to CSV in the same format parse_trace reads.

    ``dest`` may be a path or an open text stream. Rows are made and written
    ``_BLOCK_ROWS`` at a time, so memory does not grow with the trace.
    """
    blocks = (
        _format_rows(trace.times[i : i + _BLOCK_ROWS], trace.values[i : i + _BLOCK_ROWS])
        for i in range(0, len(trace), _BLOCK_ROWS)
    )
    if hasattr(dest, "write"):
        dest.write(_HEADER_LINE)
        for block in blocks:
            dest.write(str(block, "ascii"))
        return
    path = Path(dest)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as stream:
        stream.write(_HEADER_LINE.encode())
        for block in blocks:
            stream.write(block)


# write_trace makes a block's rows as records over copies of _ROW_TEMPLATE,
# one field per variable part, with the percent right-aligned behind filler.
# The filler occurs in no row and is dropped before the block is written; it
# also stands for the microseconds' trailing zeros and a whole second's '.'.
_BLOCK_ROWS = 65_536
_FILLER = ord(" ")
_ROW = np.dtype({
    "names": ["date", "hour_minute", "second", "point", "milli", "micro", "whole", "decimals"],
    "formats": ["S10", "S5", "S2", "S1", "S3", "S3", "S3", "S4"],
    "offsets": [0, 11, 17, 19, 20, 23, 28, 32],
    "itemsize": 37,
})
_ROW_TEMPLATE = np.frombuffer(b"0000-00-00T00:00:00       Z,  0.0000\n", dtype=np.uint8)
_TWO_DIGITS = np.array([f"{i:02d}" for i in range(100)], dtype="S2")
_THREE_DIGITS = np.char.add(np.arange(10).astype("S1")[:, None], _TWO_DIGITS).ravel()
_THREE_DIGITS_TRIMMED = np.char.ljust(np.char.rstrip(_THREE_DIGITS, b"0"), 3, b" ")  # "5  " for 500
_FOUR_DIGITS = np.char.add(_TWO_DIGITS[:, None], _TWO_DIGITS).ravel()
_HOURS_MINUTES = np.char.add(np.char.add(_TWO_DIGITS[:24, None], b":"), _TWO_DIGITS[:60]).ravel()
_WHOLE_PERCENTS = np.array([f"{i:3d}" for i in range(101)], dtype="S3")  # padded with the filler
# s = percent * 1e4 is within 6e-11 of the exact product while s <= 1e6, so
# rint(s) rounds as .4f does unless s lies this close to a half
_TIE_MARGIN = 1e-9


def _format_rows(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The bytes of one block's rows, as format_timestamp and ``.4f`` write them."""
    rows = np.tile(_ROW_TEMPLATE, times.size).view(_ROW)
    # microseconds as datetime.fromtimestamp rounds them: the whole seconds
    # plus the rest rounded half-even, which may carry or borrow a second
    seconds = np.trunc(times)
    micros = seconds.astype(np.int64) * 1_000_000 + np.round((times - seconds) * 1e6).astype(np.int64)
    days, micros = np.divmod(micros, 86_400_000_000)
    clock, micros = np.divmod(micros, 1_000_000)
    new_day = np.r_[True, days[1:] != days[:-1]]
    rows["date"] = days[new_day].astype("datetime64[D]").astype("S10")[np.cumsum(new_day) - 1]
    minutes, secs = np.divmod(clock, 60)
    rows["hour_minute"], rows["second"] = _HOURS_MINUTES[minutes], _TWO_DIGITS[secs]
    if micros.any():  # else the template's filler stands for the whole field
        milli, micro = np.divmod(micros, 1000)
        rows["point"] = np.where(micros > 0, b".", b" ")
        rows["milli"] = np.where(micro > 0, _THREE_DIGITS[milli], _THREE_DIGITS_TRIMMED[milli])
        rows["micro"] = _THREE_DIGITS_TRIMMED[micro]
    percents = values * 100.0
    scaled = percents * 1e4
    whole, fraction = np.divmod(np.rint(scaled).astype(np.int64), 10_000)
    rows["whole"] = _WHOLE_PERCENTS[whole]
    rows["decimals"] = _FOUR_DIGITS[fraction]
    # near a tie, and for -0.0, only Python's correctly rounded .4f will do
    for i in np.flatnonzero((np.abs(scaled - np.floor(scaled) - 0.5) <= _TIE_MARGIN) | np.signbit(percents)):
        text = f"{percents[i]:8.4f}".encode()
        rows["whole"][i], rows["decimals"][i] = text[:3], text[4:]
    flat = rows.view(np.uint8)
    return flat[flat != _FILLER]


def check_window_seconds(window_seconds: float) -> float:
    """The smoothing window in seconds, which must be finite and positive."""
    if not (math.isfinite(window_seconds) and window_seconds > 0):
        raise ValueError(f"window_seconds must be finite and positive, got {window_seconds}")
    return float(window_seconds)


def check_percentile(percentile: float) -> float:
    """A percentile, which must lie in (0, 100]."""
    if not 0.0 < percentile <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {percentile}")
    return percentile


def check_min_days(min_days: int) -> int:
    """The fewest days of data a peak estimate accepts, at least 1."""
    if min_days < 1:
        raise ValueError(f"min_days must be at least 1, got {min_days}")
    return min_days


def smooth(trace: UtilizationTrace, window_seconds: float = DEFAULT_WINDOW_SECONDS) -> UtilizationTrace:
    """Trailing-window time-weighted average of the utilization signal.

    Each sample's value is held over the interval it terminates (the span
    since the previous sample), and output sample i is the mean of that
    step signal over ``[t_i - window, t_i]``. Before the first sample the
    signal is extended flat at the first value, so the earliest outputs are
    averaged against that level. Output timestamps equal input timestamps.
    Raises ``TraceError`` when the window is below the timestamps'
    resolution, the float spacing at the largest stamp's magnitude.
    """
    window = check_window_seconds(window_seconds)
    t = trace.times
    u = trace.values
    # at or above the stamps' resolution every window starts before its own
    # sample, so no window start is searched past the last sample
    resolution = float(np.spacing(max(abs(t[0]), abs(t[-1]))))
    if window < resolution:
        raise TraceError(
            f"smoothing window of {window:g} s is below the timestamps' resolution of {resolution:g} s"
        )

    # cumulative area of the step signal lets every window be evaluated as
    # "full segments inside the window" plus one partial segment at the
    # window start; the partial segment's value is u[js] (or the flat
    # extension value u[0] when the window starts before the trace).
    # Each step below writes into an array it no longer needs, so the
    # smoothed values take few full-size temporaries and the same arithmetic.
    starts = t - window
    js = np.searchsorted(t, starts, side="right")  # first sample index with t > window start
    cum = np.empty(t.size)
    cum[0] = 0.0
    np.subtract(t[1:], t[:-1], out=cum[1:])
    cum[1:] *= u[1:]
    np.cumsum(cum[1:], out=cum[1:])
    smoothed = cum.take(js)
    np.subtract(cum, smoothed, out=smoothed)  # the full segments inside each window
    del cum
    head = t.take(js)  # the partial segment's length as (t[js] - t) + window, which rounds once
    head -= t
    head += window
    np.take(u, js, out=starts, mode="clip")  # cum.take checked js; "clip" fills out without a copy
    head *= starts  # the partial segment at each window's start
    del js, starts
    smoothed += head
    del head
    smoothed /= window
    np.clip(smoothed, 0.0, 1.0, out=smoothed)
    return UtilizationTrace(trace.machine_id, t, smoothed)  # times are read-only, so they are shared


def daily_maxima(trace: UtilizationTrace) -> DailyMaxima:
    """Maximum sample value within each UTC calendar day the trace touches.

    Days without samples (gaps longer than a day) simply do not appear.
    """
    days = np.floor(trace.times / _SECONDS_PER_DAY).astype(np.int64)
    boundaries = np.flatnonzero(np.diff(days)) + 1
    starts = np.concatenate(([0], boundaries))
    maxima = np.maximum.reduceat(trace.values, starts)
    dates = tuple(dt.date.fromordinal(_EPOCH_ORDINAL + int(d)) for d in days[starts])
    return DailyMaxima(dates, maxima)


def nearest_rank(values, percentile: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of mass.

    Rank is ceil(p * n / 100) in a 1-based ascending sort, so the result is
    always one of the input values.
    """
    check_percentile(percentile)
    data = np.sort(np.asarray(values, dtype=np.float64))
    if data.size == 0:
        raise ValueError("nearest_rank needs at least one value")
    rank = math.ceil(percentile * data.size / 100.0)
    rank = min(max(rank, 1), data.size)
    return float(data[rank - 1])


def peak_utilization(
    maxima: DailyMaxima,
    percentile: float = DEFAULT_PERCENTILE,
    min_days: int = DEFAULT_MIN_DAYS,
) -> float:
    """Percentile of the daily maxima, refusing traces with too few days."""
    check_min_days(min_days)
    available = len(maxima)
    if available < min_days:
        raise InsufficientDataError(
            f"peak estimation needs at least {min_days} days of data, trace covers {available}",
            required=min_days,
            available=available,
        )
    return nearest_rank(maxima.values, percentile)


def estimate_peak(
    trace: UtilizationTrace,
    window_seconds: float = DEFAULT_WINDOW_SECONDS,
    percentile: float = DEFAULT_PERCENTILE,
    min_days: int = DEFAULT_MIN_DAYS,
) -> float:
    """Full peak pipeline: smooth, take daily maxima, take their percentile."""
    return peak_utilization(daily_maxima(smooth(trace, window_seconds)), percentile, min_days)


def integrate(trace: UtilizationTrace, pointwise: Callable[[np.ndarray], np.ndarray] | None = None) -> float:
    """Trapezoid integral of ``pointwise(u(t))`` over the trace's time span.

    ``pointwise`` must accept a numpy array of utilizations and return an
    array of the same shape; ``None`` integrates the utilization itself.
    The result is in value-seconds.
    """
    y = trace.values if pointwise is None else np.asarray(pointwise(trace.values), dtype=np.float64)
    if y.shape != trace.values.shape:
        raise ValueError("pointwise function must preserve the array shape")
    return float(_trapezoid(y, trace.times))


def coverage_gaps(trace: UtilizationTrace, max_gap_seconds: float = 3600.0) -> list[tuple[float, float]]:
    """Sampling gaps longer than ``max_gap_seconds``, as (start, end) pairs."""
    if not max_gap_seconds > 0:
        raise ValueError(f"max_gap_seconds must be positive, got {max_gap_seconds}")
    deltas = np.diff(trace.times)
    where = np.flatnonzero(deltas > max_gap_seconds)
    return [(float(trace.times[i]), float(trace.times[i + 1])) for i in where]
