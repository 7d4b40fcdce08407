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

# numpy 2 renamed trapz; fall back for older installs
_trapezoid = getattr(np, "trapezoid", None) or np.trapz


@dataclass(frozen=True)
class UtilizationTrace:
    """A machine's utilization samples as parallel read-only float arrays.

    ``times`` holds POSIX seconds (UTC) and must be strictly increasing;
    ``values`` holds utilization fractions in [0, 1].
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
        if not np.all(np.isfinite(times)):
            raise TraceError("timestamps must be finite")
        if not np.all(np.diff(times) > 0):
            raise TraceError("timestamps must be strictly increasing")
        # NaN fails both comparisons, so this also rejects non-finite values
        if not (np.all(values >= 0.0) and np.all(values <= 1.0)):
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
    for line, (stamp_text, percent_text) in read_table(source, TRACE_COLUMNS, TraceError, "trace"):
        try:
            stamp = parse_timestamp(stamp_text)
        except ValueError:
            raise TraceError(f"bad timestamp {stamp_text!r}", line=line) from None
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
# header, then rows of "YYYY-MM-DDTHH:MM:SSZ," (the head; '0' in the template
# marks a digit) and a percent of 1 to 3 digits, '.' and 4 decimals.
_HEADER_LINE = ",".join(TRACE_COLUMNS) + "\n"
_HEAD_TEMPLATE = np.frombuffer(b"0000-00-00T00:00:00Z,", dtype=np.uint8)
# the most a head byte may exceed the template's: 9 at a digit, 0 at a literal
_HEAD_LIMITS = np.where(_HEAD_TEMPLATE == ord("0"), 9, 0).astype(np.uint8)[:, None]
_CLOCK_LIMITS = np.array([[24], [60], [60]], dtype=np.uint8)  # hour, minute, second
_PERCENT_WIDTHS = (6, 8)  # "0.0000" to "100.0000"
_DOT = np.uint8((ord(".") - ord("0")) % 256)  # '.' less '0', wrapped as uint8 wraps


def _parse_canonical(data: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """(times, values) of a file in write_trace's exact form, else None.

    Gathers each row's head and percent field with one fancy index each and
    computes seconds and percents from the digits, so no Python object or
    string is made per row. Returns None for anything else, which the row
    loop reads: other headers, layouts, percent forms or line endings, blank
    rows, fewer than two rows, year 0000, impossible dates, percents over 100
    and times that do not increase.
    """
    if not data.startswith(_HEADER_LINE.encode()) or not data.endswith(b"\n"):
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    newlines = np.flatnonzero(buf == 10)
    widths = np.diff(newlines) - (_HEAD_TEMPLATE.size + 1)  # of the percent fields
    least, most = _PERCENT_WIDTHS
    if widths.size < 2 or not least <= widths.min() <= widths.max() <= most:
        return None
    seconds = _stamp_seconds(_gather(buf, newlines[:-1] + 1, _HEAD_TEMPLATE.size))
    if seconds is None or not (seconds[1:] > seconds[:-1]).all():
        return None
    values = _percents(_gather(buf, newlines[1:] - most, most), widths)
    if values is None or not values.max() <= 100.0:
        return None
    values /= 100.0
    return seconds.astype(np.float64), values


def _gather(buf: np.ndarray, offsets: np.ndarray, width: int) -> np.ndarray:
    """The ``width`` bytes of ``buf`` from each offset, a row each."""
    records = np.ndarray((buf.size - width + 1,), dtype=f"V{width}", buffer=buf, strides=(1,))
    return records[offsets].view(np.uint8).reshape(offsets.size, width)


def _stamp_seconds(heads: np.ndarray) -> np.ndarray | None:
    """POSIX seconds of the rows' heads, or None if one is off-form or no real time."""
    digits = np.ascontiguousarray(heads.T)  # a row per head byte
    digits -= _HEAD_TEMPLATE[:, None]
    if (digits > _HEAD_LIMITS).any():  # bytes below '0' wrap past 9
        return None
    clock = digits[[11, 14, 17]] * np.uint8(10) + digits[[12, 15, 18]]
    if (clock >= _CLOCK_LIMITS).any():
        return None
    hour, minute, second = clock.astype(np.int32)
    # a date is worked out once, at the first row of each run that shares it
    firsts = np.ones(heads.shape[0], dtype=bool)
    np.any(digits[:10, 1:] != digits[:10, :-1], axis=0, out=firsts[1:])
    firsts = np.flatnonzero(firsts)
    dates = str(heads[firsts, :10].tobytes(), "ascii")
    try:
        ordinals = [dt.date.fromisoformat(dates[i : i + 10]).toordinal() for i in range(0, len(dates), 10)]
    except ValueError:  # year 0000 or a day its month lacks
        return None
    days = np.array(ordinals, dtype=np.int64) - _EPOCH_ORDINAL
    day_starts = np.repeat(days * 86_400, np.diff(firsts, append=heads.shape[0]))
    return day_starts + (hour * 60 + minute) * 60 + second


def _percents(fields: np.ndarray, widths: np.ndarray) -> np.ndarray | None:
    """The percents right-aligned in ``fields``, each ``widths`` bytes, or None.

    A field is 1 to 3 digits, '.' and 4 digits, so its '.' is at byte 3.
    """
    digits = np.ascontiguousarray(fields.T)  # a row per byte of the fields
    digits -= np.uint8(ord("0"))
    width = fields.shape[1]
    digits *= np.arange(width)[:, None] >= width - widths  # the bytes before a field read as 0
    if not (digits[3] == _DOT).all():
        return None
    digits[3] = 0
    if (digits > 9).any():
        return None
    # Horner's rule over the seven digit columns; a mantissa of at most 7
    # digits and 1e4 are exact doubles, so their quotient is float() of the text
    mantissa = np.zeros(fields.shape[0])
    for column in digits[[0, 1, 2, 4, 5, 6, 7]]:
        mantissa *= 10.0
        mantissa += column
    mantissa /= 1e4
    return mantissa


def write_trace(trace: UtilizationTrace, dest) -> None:
    """Write a trace back to CSV in the same format parse_trace reads.

    ``dest`` may be a path or an open text stream. Rows are made and written
    ``_BLOCK_ROWS`` at a time, so memory does not grow with the trace.
    """
    # every stamp between two that format does too, so a trace with a stamp
    # that cannot be written fails before anything is written
    format_timestamp(float(trace.times[0]))
    format_timestamp(float(trace.times[-1]))
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
    """
    window = check_window_seconds(window_seconds)
    t = trace.times
    u = trace.values

    # cumulative area of the step signal lets every window be evaluated as
    # "full segments inside the window" plus one partial segment at the
    # window start; the partial segment's value is u[js] (or the flat
    # extension value u[0] when the window starts before the trace).
    starts = t - window
    js = np.searchsorted(t, starts, side="right")  # first sample index with t > window start
    cum = np.concatenate(([0.0], np.cumsum(u[1:] * np.diff(t))))
    interior = cum[np.arange(t.size)] - cum[js]
    head = u[js] * (t[js] - starts)
    smoothed = np.clip((interior + head) / window, 0.0, 1.0)
    return UtilizationTrace(trace.machine_id, t.copy(), smoothed)


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
