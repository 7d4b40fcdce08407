"""Trace parsing, smoothing, daily maxima, percentiles, and integration."""

import datetime as dt
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from migrent import (
    DailyMaxima,
    InsufficientDataError,
    TraceError,
    UtilizationTrace,
    coverage_gaps,
    daily_maxima,
    estimate_peak,
    integrate,
    nearest_rank,
    parse_trace,
    peak_utilization,
    smooth,
    write_trace,
)
from migrent.trace import STAMP_RANGE, _BLOCK_ROWS, _parse_canonical, _parse_rows, format_timestamp, parse_timestamp

from conftest import POSIX_2016_06_01, constant_trace, make_trace
from oracles import daily_maxima_ref, nearest_rank_ref, riemann, smooth_ref


YEAR_1 = int(parse_timestamp("0001-01-01T00:00:00Z"))
YEAR_9999_LAST = int(parse_timestamp("9999-12-31T23:59:59Z"))


def trace_csv(rows) -> io.StringIO:
    return io.StringIO("\n".join(["timestamp,cpu_utilization_percent", *rows]) + "\n")


class TestParseTrace:
    def test_percent_converted_to_fraction(self):
        trace = parse_trace(trace_csv([
            "2016-06-01T00:00:00Z,50.0",
            "2016-06-01T00:00:30Z,75.0",
        ]), machine_id="m1")
        assert trace.machine_id == "m1"
        assert trace.values.tolist() == [0.5, 0.75]
        assert trace.times[1] - trace.times[0] == 30.0

    def test_out_of_range_percent_names_line(self):
        with pytest.raises(TraceError, match="line 3"):
            parse_trace(trace_csv([
                "2016-06-01T00:00:00Z,50.0",
                "2016-06-01T00:00:30Z,101.2",
            ]))

    def test_equal_timestamps_rejected(self):
        with pytest.raises(TraceError, match="line 3.*not after"):
            parse_trace(trace_csv([
                "2016-06-01T00:00:00Z,50.0",
                "2016-06-01T00:00:00Z,60.0",
            ]))

    @pytest.mark.parametrize("rows, line", [
        (["0001-01-01T00:00:00+01:00,50", "0001-01-01T00:00:30Z,60"], 2),
        (["9999-12-31T23:58:00Z,50", "9999-12-31T23:59:00-01:00,60"], 3),
    ], ids=["before year 1", "after year 9999"])
    def test_offset_stamp_outside_the_years_1_to_9999_names_line(self, tmp_path, rows, line):
        path = tmp_path / "t.csv"
        path.write_text(trace_csv(rows).getvalue())
        stamp = rows[line - 2].split(",")[0]
        with pytest.raises(TraceError) as info:
            parse_trace(path)
        assert str(info.value) == f"line {line}: timestamp {stamp} is outside the years 1 to 9999 (UTC)"

    def test_unsorted_rejected_not_sorted(self):
        with pytest.raises(TraceError, match="not after"):
            parse_trace(trace_csv([
                "2016-06-01T00:01:00Z,50.0",
                "2016-06-01T00:00:00Z,60.0",
            ]))

    def test_malformed_timestamp_names_line(self):
        with pytest.raises(TraceError, match="line 2.*timestamp"):
            parse_trace(trace_csv(["yesterday,50.0", "2016-06-01T00:00:30Z,60.0"]))

    def test_fewer_than_two_rows_rejected(self):
        with pytest.raises(TraceError, match="2 data rows"):
            parse_trace(trace_csv(["2016-06-01T00:00:00Z,50.0"]))

    def test_bad_header_rejected(self):
        with pytest.raises(TraceError, match="header"):
            parse_trace(io.StringIO("time,util\n1,2\n"))

    def test_negative_percent_rejected(self):
        with pytest.raises(TraceError, match=r"\[0, 100\]"):
            parse_trace(trace_csv(["2016-06-01T00:00:00Z,-1", "2016-06-01T00:00:30Z,1"]))

    def test_missing_file_errors(self, tmp_path):
        with pytest.raises(TraceError, match="cannot read"):
            parse_trace(tmp_path / "absent.csv")

    def test_timezone_offsets_normalize_to_utc(self):
        trace = parse_trace(trace_csv([
            "2016-06-01T02:00:00+02:00,10",
            "2016-06-01T00:00:30Z,20",
        ]))
        assert trace.times[0] == POSIX_2016_06_01

    def test_posix_seconds_rejected(self, tmp_path):
        path = tmp_path / "posix.csv"
        path.write_text("timestamp,cpu_utilization_percent\n1464739200,50\n1464739230,50\n")
        with pytest.raises(TraceError, match=r"^line 2: bad timestamp '1464739200'$"):
            parse_trace(path)

    def test_round_trip_through_write(self, tmp_path):
        trace = make_trace(POSIX_2016_06_01 + np.array([0.0, 30.0, 60.0]), [0.1, 0.52345, 0.9])
        path = tmp_path / "t.csv"
        write_trace(trace, path)
        back = parse_trace(path)
        assert np.array_equal(back.times, trace.times)
        assert np.allclose(back.values, trace.values, atol=1e-6)


_EPOCH = dt.datetime(1970, 1, 1)
_ROW_FORMS = {
    # each takes the canonical stamp and percent of one row and returns its text
    None: lambda stamp, pct: f"{stamp},{pct}\n",
    "offset": lambda stamp, pct: f"{stamp[:-1]}+02:00,{pct}\n",
    "lowercase z": lambda stamp, pct: f"{stamp[:-1]}z,{pct}\n",
    "naive": lambda stamp, pct: f"{stamp[:-1]},{pct}\n",
    "space separator": lambda stamp, pct: f"{stamp.replace('T', ' ')},{pct}\n",
    "crlf": lambda stamp, pct: f"{stamp},{pct}\r\n",
    "blank row": lambda stamp, pct: f"\n{stamp},{pct}\n",
    "quoted": lambda stamp, pct: f'"{stamp}",{pct}\n',
    "fractional seconds": lambda stamp, pct: f"{stamp[:-1]}.5Z,{pct}\n",
    "year 0000": lambda stamp, pct: f"0000-01-01{stamp[10:]},{pct}\n",
    "february 30": lambda stamp, pct: f"2016-02-30{stamp[10:]},{pct}\n",
    "hour 24": lambda stamp, pct: f"{stamp[:11]}24{stamp[13:]},{pct}\n",
    "nan": lambda stamp, pct: f"{stamp},nan\n",
    "exponent": lambda stamp, pct: f"{stamp},1e2\n",
    "leading space": lambda stamp, pct: f"{stamp}, 5.0000\n",
    "over 100": lambda stamp, pct: f"{stamp},100.0001\n",
    "no decimals": lambda stamp, pct: f"{stamp},{float(pct):.0f}\n",
    "two decimals": lambda stamp, pct: f"{stamp},{float(pct):.2f}\n",
    "17 digits": lambda stamp, pct: f"{stamp},{float(pct):#.17g}\n",  # '#' keeps the trailing zeros
    "no point": lambda stamp, pct: f"{stamp},{pct.replace('.', '')}\n",
    "third field": lambda stamp, pct: f"{stamp},{pct},x\n",
    "no final newline": lambda stamp, pct: f"{stamp},{pct}",
}


@st.composite
def trace_files(draw):
    """A trace file in write_trace's form, or one with a single row changed."""
    n = draw(st.integers(2, 12))
    start = draw(st.integers(-62_135_596_800, 253_402_300_799 - 12 * 10**6))
    gaps = draw(st.lists(st.integers(1, 10**6), min_size=n - 1, max_size=n - 1))
    seconds = np.cumsum([start, *gaps]).tolist()
    stamps = [(_EPOCH + dt.timedelta(seconds=s)).isoformat() + "Z" for s in seconds]
    percents = [f"{v:.4f}" for v in draw(st.lists(st.floats(0.0, 100.0), min_size=n, max_size=n))]
    kind = draw(st.sampled_from(list(_ROW_FORMS)))
    where = n - 1 if kind == "no final newline" else draw(st.integers(0, n - 1))
    rows = [_ROW_FORMS[kind if i == where else None](s, p) for i, (s, p) in enumerate(zip(stamps, percents))]
    return kind, ("timestamp,cpu_utilization_percent\n" + "".join(rows)).encode()


def _outcome(parse):
    try:
        trace = parse()
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    return trace.times.tobytes(), trace.values.tobytes()


class TestColumnParseMatchesRowLoop:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=trace_files())
    def test_same_arrays_or_same_error(self, case, tmp_path):
        kind, data = case
        path = tmp_path / "m.csv"
        path.write_bytes(data)
        assert (_parse_canonical(data) is not None) == (kind is None)
        assert _outcome(lambda: parse_trace(path, "m")) == _outcome(lambda: _parse_rows(data, "m"))

    @pytest.mark.parametrize("rows", [
        ["2016-06-01T00:00:00Z,5.0000", "2016-06-01T00:00:00Z,6.0000"],
        ["2016-06-01T00:00:30Z,5.0000", "2016-06-01T00:00:00Z,6.0000"],
        ["2016-06-01T00:00:00Z,5.0000"],
        ["2016-06-01T00:00:00Z,1.2.3", "2016-06-01T00:00:30Z,6.0000"],
        ["2016-06-01T00:00:00Z,.", "2016-06-01T00:00:30Z,6.0000"],
        ["2016-13-01T00:00:00Z,5.0000", "2016-06-01T00:00:30Z,6.0000"],
        ["2016-06-01T00:00:60Z,5.0000", "2016-06-01T00:01:30Z,6.0000"],
        ["2016-06-01T00:00:00Z," + "0" * 200 + "5", "2016-06-01T00:00:30Z,6.0000"],
    ])
    def test_off_form_files_take_the_row_loop(self, rows, tmp_path):
        data = ("timestamp,cpu_utilization_percent\n" + "".join(f"{r}\n" for r in rows)).encode()
        path = tmp_path / "m.csv"
        path.write_bytes(data)
        assert _parse_canonical(data) is None
        assert _outcome(lambda: parse_trace(path, "m")) == _outcome(lambda: _parse_rows(data, "m"))

    @pytest.mark.parametrize("rows, canonical", [
        (["1900-02-28T00:00:00Z,5.0000", "1900-02-29T00:00:00Z,6.0000"], False),
        (["2015-02-28T00:00:00Z,5.0000", "2015-02-29T00:00:00Z,6.0000"], False),
        (["2000-02-28T00:00:00Z,5.0000", "2000-02-29T00:00:00Z,6.0000"], True),
        (["2016-02-29T00:00:00Z,5.0000", "2016-02-29T00:00:30Z,6.0000"], True),
        (["2016-06-00T00:00:00Z,5.0000", "2016-06-01T00:00:30Z,6.0000"], False),
        (["2016-00-01T00:00:00Z,5.0000", "2016-06-01T00:00:30Z,6.0000"], False),
        (["2016-06-01T00:60:00Z,5.0000", "2016-06-01T01:00:30Z,6.0000"], False),
        (["0000-12-31T23:59:30Z,5.0000", "0001-01-01T00:00:00Z,6.0000"], False),
        (["0001-01-01T00:00:00Z,5.0000", "0001-01-01T00:00:30Z,6.0000"], True),
        (["9999-12-31T23:59:30Z,5.0000", "9999-12-31T23:59:59Z,6.0000"], True),
        (["2016-06-01T23:59:30Z,5.0000", "2016-06-02T00:00:00Z,6.0000"], True),
        (["2016-06-01T00:00:00Z,0.0000", "2016-06-01T00:00:30Z,100.0000"], True),
        (["2016-06-01T00:00:00Z,100.0001", "2016-06-01T00:00:30Z,5.0000"], False),
        (["2016-06-01T00:00:00Z,1000.0000", "2016-06-01T00:00:30Z,5.0000"], False),
        (["2016-06-01T00:00:00Z,12.34567", "2016-06-01T00:00:30Z,5.0000"], False),
        (["2016-06-01T00:00:00Z,5.000", "2016-06-01T00:00:30Z,5.0000"], False),
        (["2016-06-01T00:00:00Z,0000050", "2016-06-01T00:00:30Z,5.0000"], False),
        # percents in any form but .4f take the row loop
        (["2016-06-01T00:00:00Z,5.", "2016-06-01T00:00:30Z,.5"], False),
        (["2016-06-01T00:00:00Z,007", "2016-06-01T00:00:30Z,100."], False),
        (["2016-06-01T00:00:00Z,0", "2016-06-01T00:00:30Z,100"], False),
        (["2016-06-01T00:00:00Z,12.3456789012345", "2016-06-01T00:00:30Z,5"], False),
        (["2016-06-01T00:00:00Z,98.35806966599173", "2016-06-01T00:00:30Z,5"], False),
        (["2016-06-01T00:00:00Z,95.748906828836075", "2016-06-01T00:00:30Z,5"], False),
        (["2016-06-01T00:00:00Z,0.1000000000000001", "2016-06-01T00:00:30Z,5"], False),
        (["2016-06-01T00:00:00Z,0000000000000000000000099.999999", "2016-06-01T00:00:30Z,5"], False),
        (["2016-06-01T00:00:00Z,00000000000000000000000099.999999", "2016-06-01T00:00:30Z,5"], False),
    ], ids=[
        "feb 29 1900", "feb 29 2015", "feb 29 2000", "feb 29 2016", "day 00", "month 00", "minute 60",
        "year 0", "year 1", "year 9999", "date change", "0.0000 and 100.0000", "100.0001", "1000.0000",
        "5 decimals", "3 decimals", "7 digits", "5. and .5", "007 and 100.", "0 and 100", "15 digits",
        "16 digits", "17 digits", "16 decimals", "32 bytes", "33 bytes",
    ])
    def test_edge_cases_match_the_row_loop(self, rows, canonical, tmp_path):
        data = ("timestamp,cpu_utilization_percent\n" + "".join(f"{r}\n" for r in rows)).encode()
        path = tmp_path / "m.csv"
        path.write_bytes(data)
        assert (_parse_canonical(data) is not None) == canonical
        assert _outcome(lambda: parse_trace(path, "m")) == _outcome(lambda: _parse_rows(data, "m"))

    def test_every_single_byte_change_is_refused_or_read_exactly(self):
        # the fast path checks each row 8 bytes at a time; no byte it lets
        # through may change what the row loop reads, or be one it refuses
        header = b"timestamp,cpu_utilization_percent\n"
        rows = b"2016-06-01T23:59:58Z,5.0000\n2016-06-01T23:59:59Z,50.0000\n2016-06-02T00:00:00Z,100.0000\n"
        accepted = 0
        for at in range(len(rows) - 1):  # the final newline marks the file's end
            for byte in range(256):
                if byte == rows[at]:
                    continue
                data = header + rows[:at] + bytes([byte]) + rows[at + 1 :]
                canonical = _parse_canonical(data)
                if canonical is not None:
                    accepted += 1
                    read = _parse_rows(data, "m")
                    assert (canonical[0].tobytes(), canonical[1].tobytes()) == (
                        read.times.tobytes(), read.values.tobytes()), (at, byte)
        assert accepted > 100  # digits for digits

    @settings(max_examples=200, deadline=None)
    @given(
        whole=st.lists(st.integers(YEAR_1, YEAR_9999_LAST), min_size=2, max_size=50, unique=True),
        # these bounds draw 0.0 but never -0.0, whose .4f is "-0.0000"
        values=st.lists(st.floats(0.0, 1.0), min_size=50, max_size=50),
    )
    def test_write_trace_output_takes_the_fast_path(self, whole, values):
        trace = make_trace(np.sort(whole), values[: len(whole)])
        out = io.StringIO()
        write_trace(trace, out)
        data = out.getvalue().encode()
        canonical = _parse_canonical(data)
        assert canonical is not None
        rows = _parse_rows(data, "m")
        assert canonical[0].tobytes() == rows.times.tobytes()
        assert canonical[1].tobytes() == rows.values.tobytes()

    def test_memory_is_bounded_by_the_file(self, tmp_path):
        n = 23_040  # 8 days at 30 s
        path = tmp_path / "t.csv"
        write_trace(make_trace(POSIX_2016_06_01 + 30.0 * np.arange(n), np.random.default_rng(8).random(n)), path)
        tracemalloc.start()
        try:
            parse_trace(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _parse_canonical(path.read_bytes()) is not None
        assert peak <= 3 * path.stat().st_size  # about 2.82 times the file


class TestWriteMatchesFormatTimestamp:
    @staticmethod
    def row_by_row(trace):
        return "timestamp,cpu_utilization_percent\n" + "".join(
            f"{format_timestamp(t)},{v * 100.0:.4f}\n"
            for t, v in zip(trace.times.tolist(), trace.values.tolist())
        )

    @staticmethod
    def written(trace):
        out = io.StringIO()
        write_trace(trace, out)
        return out.getvalue()

    def test_random_fractional_stamps(self):
        rng = np.random.default_rng(20160601)
        n = 20_000
        whole = np.sort(rng.choice(250_000_000_000, n, replace=False)).astype(np.float64)
        fractions = np.select(
            [np.arange(n) % 4 == k for k in range(4)],
            [
                rng.random(n),                                 # anything
                (rng.integers(0, 10**6, n) + 0.5) / 1e6,       # half a microsecond
                rng.integers(0, 10**6, n) / 1e6,               # trailing zeros to trim
                0.9999995 + rng.random(n) * 5e-7,              # carries into the next second
            ],
        )
        times = np.concatenate(([POSIX_2016_06_01 + 0.9999996], POSIX_2016_06_01 + 10 + whole + fractions))
        trace = make_trace(times, rng.random(times.size))
        text = self.written(trace)
        assert text.splitlines()[1].startswith("2016-06-01T00:00:01Z,")
        assert text == self.row_by_row(trace)

    def test_stamps_before_1970(self):
        trace = make_trace([-86_400.25, -0.5, 0.0, 0.75], [0.1, 0.2, 0.3, 0.4])
        assert self.written(trace) == self.row_by_row(trace)

    def test_fractional_stamps_in_years_below_1000(self):
        rng = np.random.default_rng(999)
        whole = np.unique(rng.integers(YEAR_1, parse_timestamp("0999-12-31T23:59:59Z"), 5000))
        trace = make_trace(whole + rng.random(whole.size), rng.random(whole.size))
        text = self.written(trace)
        assert text.splitlines()[1].startswith("0")
        assert text == self.row_by_row(trace)

    def test_last_writable_stamps(self):
        top = parse_timestamp("9999-12-31T23:59:59.999Z")
        trace = make_trace([np.nextafter(top - 1.0, 0.0), top - 1.0, np.nextafter(top, 0.0), top], [0.1, 0.2, 0.3, 0.4])
        text = self.written(trace)
        assert text.splitlines()[-1].startswith("9999-12-31T23:59:59.998")  # the float nearest .999
        assert text == self.row_by_row(trace)

    def test_half_microsecond_ties_before_1970(self):
        # j/128 s is an exact float and an exact half microsecond for odd j
        j = np.arange(1, 4000)
        trace = make_trace(-86_400.0 * 400 + 3.0 * j + j % 128 / 128.0, np.full(j.size, 0.5))
        assert self.written(trace) == self.row_by_row(trace)

    @settings(max_examples=100, deadline=None)
    @given(
        whole=st.lists(st.integers(YEAR_1, YEAR_9999_LAST - 1), min_size=2, max_size=50, unique=True),
        fractions=st.lists(
            st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 127).map(lambda j: j / 128.0)),
            min_size=50, max_size=50,
        ),
    )
    def test_any_stamp_in_years_1_to_9999(self, whole, fractions):
        times = np.unique(np.sort(whole) + np.array(fractions[: len(whole)]))  # a sum may round up to the next
        assume(times.size >= 2)
        trace = make_trace(times, np.linspace(0.0, 1.0, times.size))
        assert self.written(trace) == self.row_by_row(trace)

    @pytest.mark.parametrize("times", [
        [-86_401.0, -86_400.0, -1.0, 0.0, 1.0],
        [parse_timestamp("1000-01-01T00:00:00Z") + s for s in (-1.0, 0.0, 1.0, 86_399.0, 86_400.0)],
        [parse_timestamp("9999-12-31T23:59:59Z") + s for s in (-86_400.0, -1.0, 0.0)],
        [POSIX_2016_06_01 + s for s in (0.0, 30.0, 60.5, 90.0, 120.25, 150.0)],
    ], ids=["before 1970", "year 1000", "year 9999", "mixed with fractional"])
    def test_whole_second_stamps(self, times):
        trace = make_trace(times, np.linspace(0.1, 0.9, len(times)))
        assert self.written(trace) == self.row_by_row(trace)

    def test_percents_at_ties_and_edges(self):
        k = np.random.default_rng(6).integers(0, 10**6, 2000) / 1e6
        halves = k + 0.5e-6  # percent x 1e4 lands within 1e-9 of a half
        values = np.concatenate((
            [0.0, 1.0, -0.0], np.nextafter(k, 0.0), np.nextafter(k, 1.0), halves, np.nextafter(halves, 1.0),
        ))
        scaled = values * 100.0 * 1e4
        assert np.sum(np.abs(scaled - np.floor(scaled) - 0.5) <= 1e-9) > 2000
        trace = make_trace(POSIX_2016_06_01 + 30.0 * np.arange(values.size), values)
        text = self.written(trace)
        assert text.splitlines()[1:4] == [
            "2016-06-01T00:00:00Z,0.0000", "2016-06-01T00:00:30Z,100.0000", "2016-06-01T00:01:00Z,-0.0000",
        ]
        assert text == self.row_by_row(trace)

    def test_trace_longer_than_a_block(self, tmp_path):
        n = 2 * _BLOCK_ROWS + 7
        times = POSIX_2016_06_01 + 30.0 * np.arange(n)
        times[-3:] += 0.25  # the last block has fractional stamps, the others do not
        trace = make_trace(times, np.random.default_rng(7).random(n))
        expected = self.row_by_row(trace)
        assert self.written(trace) == expected
        path = tmp_path / "t.csv"
        write_trace(trace, path)
        assert path.read_bytes() == expected.encode()

    def test_memory_is_bounded_by_the_block(self, tmp_path):
        def peak_bytes(blocks):
            trace = make_trace(30.0 * np.arange(blocks * _BLOCK_ROWS), np.full(blocks * _BLOCK_ROWS, 0.5))
            tracemalloc.start()
            try:
                write_trace(trace, tmp_path / "t.csv")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak_bytes(8) < 1.25 * peak_bytes(2)

    def test_unwritable_stamp_writes_nothing(self, tmp_path):
        stamps = [0.0, parse_timestamp("9999-12-31T23:59:59Z") + 1.0]
        with pytest.raises(TraceError, match="years 1 to 9999"):  # the trace cannot be made
            write_trace(make_trace(stamps, [0.1, 0.2]), tmp_path / "t.csv")
        assert not (tmp_path / "t.csv").exists()

    def test_both_ends_of_the_stamp_range_round_trip(self, tmp_path):
        first, end = STAMP_RANGE
        trace = make_trace([first, first + 30.0, end - 30.0, end - 1.0], [0.0, 0.25, 0.5, 1.0])
        path = tmp_path / "t.csv"
        write_trace(trace, path)
        assert path.read_text().splitlines()[1::3] == ["0001-01-01T00:00:00Z,0.0000", "9999-12-31T23:59:59Z,100.0000"]
        back = parse_trace(path)
        assert np.array_equal(back.times, trace.times)
        assert np.array_equal(back.values, trace.values)


class TestTimestampHelpers:
    def test_z_suffix(self):
        assert parse_timestamp("2016-06-01T00:00:30Z") == POSIX_2016_06_01 + 30

    def test_naive_is_utc(self):
        assert parse_timestamp("2016-06-01T00:00:30") == POSIX_2016_06_01 + 30

    def test_format_round_trip(self):
        assert format_timestamp(POSIX_2016_06_01) == "2016-06-01T00:00:00Z"
        assert parse_timestamp(format_timestamp(1_464_825_661.0)) == 1_464_825_661.0

    @pytest.mark.parametrize("stamp", ["0500-01-01T00:00:00Z", "0999-12-31T23:59:59.5Z"])
    def test_years_below_1000_round_trip_through_files(self, tmp_path, stamp):
        start = parse_timestamp(stamp)
        trace = make_trace([start, start + 30.0], [0.25, 0.5])
        path = tmp_path / "t.csv"
        write_trace(trace, path)
        assert path.read_text().splitlines()[1] == f"{stamp},25.0000"
        back = parse_trace(path)
        assert np.array_equal(back.times, trace.times)
        assert np.array_equal(back.values, trace.values)

    def test_years_1000_to_9999_keep_their_bytes(self):
        # the form strftime gave before the year was padded, for every year it wrote in full
        rng = np.random.default_rng(1000)
        lo = dt.datetime(1000, 1, 1, tzinfo=dt.timezone.utc).timestamp()
        hi = dt.datetime(9999, 12, 31, 23, 59, 59, tzinfo=dt.timezone.utc).timestamp()
        stamps = np.concatenate((np.floor(rng.uniform(lo, hi, 500)), rng.uniform(lo, hi, 500), [lo, hi]))
        for t in stamps.tolist():
            moment = dt.datetime.fromtimestamp(t, tz=dt.timezone.utc)
            old = moment.strftime("%Y-%m-%dT%H:%M:%S.%f").rstrip("0") + "Z" if moment.microsecond \
                else moment.strftime("%Y-%m-%dT%H:%M:%SZ")
            assert format_timestamp(t) == old


class TestTraceInvariants:
    def test_needs_two_samples(self):
        with pytest.raises(TraceError):
            make_trace([0.0], [0.5])

    @pytest.mark.parametrize("times, values", [([0.0, 1.0, 2.0], [0.5, 0.5]), ([[0.0, 1.0]], [[0.5, 0.5]])])
    def test_arrays_must_be_1d_and_of_equal_length(self, times, values):
        with pytest.raises(TraceError, match="1-d arrays of equal length"):
            make_trace(times, values)

    def test_strictly_increasing_required(self):
        with pytest.raises(TraceError, match="increasing"):
            make_trace([0.0, 0.0], [0.5, 0.5])

    def test_value_range_enforced(self):
        with pytest.raises(TraceError, match="0, 1"):
            make_trace([0.0, 1.0], [0.5, 1.5])

    def test_nan_rejected(self):
        with pytest.raises(TraceError):
            make_trace([0.0, 1.0], [0.5, np.nan])

    @pytest.mark.parametrize("values", [[-0.1, 0.5], [0.5, -5e-324], [np.nan, 0.5], [0.5, np.nan, 0.5],
                                        [0.5, np.inf], [-np.inf, 0.5]])
    def test_values_outside_the_unit_interval_rejected(self, values):
        with pytest.raises(TraceError, match=r"\[0, 1\]"):
            make_trace(np.arange(len(values), dtype=float), values)

    def test_unit_interval_ends_accepted(self):
        assert make_trace([0.0, 1.0, 2.0], [-0.0, 1.0, 0.0]).values.tolist() == [0.0, 1.0, 0.0]

    @pytest.mark.parametrize("times", [[0.0, np.inf], [-np.inf, 0.0], [0.0, np.nan, 2.0], [np.nan, 1.0]])
    def test_non_finite_timestamps_rejected(self, times):
        with pytest.raises(TraceError, match="finite"):
            make_trace(times, [0.5] * len(times))

    def test_stamp_range_is_the_years_datetime_has(self):
        utc = dt.timezone.utc
        assert STAMP_RANGE == (dt.datetime.min.replace(tzinfo=utc).timestamp(),
                               dt.datetime.max.replace(tzinfo=utc).timestamp())
        assert STAMP_RANGE == (parse_timestamp("0001-01-01T00:00:00Z"), YEAR_9999_LAST + 1.0)

    @pytest.mark.parametrize("times", [[-62135596800.0, 0.0], [0.0, 253402300799.0]])
    def test_stamps_at_the_ends_of_the_range_accepted(self, times):
        assert make_trace(times, [0.5, 0.5]).times.tolist() == times

    @pytest.mark.parametrize("times", [[-62135596801.0, 0.0], [0.0, 253402300800.0]])
    def test_stamps_outside_the_range_rejected(self, times):
        with pytest.raises(TraceError, match=r"^timestamps must be finite and in the years 1 to 9999 \(UTC\)$"):
            make_trace(times, [0.5, 0.5])

    def test_arrays_read_only(self):
        trace = make_trace([0.0, 1.0], [0.5, 0.6])
        with pytest.raises(ValueError):
            trace.values[0] = 0.9


class TestSmooth:
    def test_constant_is_fixed_point(self):
        trace = constant_trace(0.4, days=1.0)
        assert np.allclose(smooth(trace).values, 0.4)

    def test_worked_example(self):
        trace = make_trace([60.0, 120.0, 180.0, 240.0, 300.0], [0.0, 0.0, 0.0, 0.0, 1.0])
        assert smooth(trace, 300.0).values[-1] == pytest.approx(0.2, abs=1e-12)

    def test_window_shorter_than_spacing_is_identity(self):
        trace = make_trace([0.0, 100.0, 250.0], [0.1, 0.9, 0.4])
        assert np.allclose(smooth(trace, 10.0).values, trace.values)

    def test_nonpositive_window_rejected(self):
        trace = make_trace([0.0, 1.0], [0.5, 0.6])
        with pytest.raises(ValueError):
            smooth(trace, 0.0)

    @pytest.mark.parametrize("window", [-5.0, math.inf, -math.inf, math.nan])
    def test_non_finite_or_negative_window_rejected(self, window):
        trace = make_trace([0.0, 1.0], [0.5, 0.6])
        with pytest.raises(ValueError, match="window_seconds must be finite and positive"):
            smooth(trace, window)

    def test_window_below_stamp_resolution_rejected(self):
        # at 2016 stamps float64 resolves about 2.4e-7 s, so t - 1e-10 == t
        trace = make_trace(POSIX_2016_06_01 + np.array([0.0, 30.0, 60.0]), [0.1, 0.9, 0.4])
        with pytest.raises(TraceError, match=r"window of 1e-10 s is below the timestamps' resolution of 2\.38419e-07 s"):
            smooth(trace, 1e-10)

    def test_window_below_one_resolution_works_at_finer_one(self):
        trace = make_trace([0.0, 1.0, 2.0], [0.1, 0.9, 0.4])  # resolved to 4.4e-16 s
        assert np.allclose(smooth(trace, 1e-10).values, trace.values, rtol=1e-5)

    @settings(max_examples=300, deadline=None)
    @given(
        value=st.floats(1e-6, 1.0),
        start=st.floats(-3e9, 3e9),
        period=st.sampled_from([0.37, 30.0, 617.3]),
        share=st.floats(0.0, 1.0),
    )
    def test_constant_trace_keeps_its_value_below_the_spacing(self, value, start, period, share):
        # fractional stamps and a window from the stamps' resolution up to half
        # the spacing: only the partial segment counts, and its length must keep
        # the window's bits, not those of t - (t - window)
        t = start + period * np.arange(40)
        resolution = float(np.spacing(max(abs(t[0]), abs(t[-1]))))
        window = resolution * (0.5 * period / resolution) ** share
        smoothed = smooth(make_trace(t, np.full(t.size, value)), window).values
        assert np.abs(smoothed - value).max() <= np.spacing(value)

    def test_matches_brute_force_on_random_traces(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(3, 60))
            t = np.cumsum(rng.uniform(5.0, 400.0, n)) + POSIX_2016_06_01
            u = rng.uniform(0.0, 1.0, n)
            trace = make_trace(t, u)
            expected = smooth_ref(t, u, 300.0)
            assert np.allclose(smooth(trace, 300.0).values, expected, atol=1e-12)

    def test_stays_within_raw_value_range(self):
        rng = np.random.default_rng(8)
        t = POSIX_2016_06_01 + np.cumsum(rng.uniform(10.0, 120.0, 200))
        u = rng.uniform(0.2, 0.7, 200)
        smoothed = smooth(make_trace(t, u), 300.0).values
        assert smoothed.min() >= 0.2 - 1e-12
        assert smoothed.max() <= 0.7 + 1e-12


@st.composite
def day_edge_traces(draw):
    """Stamps within a microsecond of UTC midnights or anywhere in a day,
    before and after 1970, with gaps longer than a day, or all in one day."""
    midnight = 86400.0 * draw(st.integers(-20000, 20000))  # a first day from 1915-03-31 to 2024-10-04
    one_day = draw(st.booleans())
    near = st.floats(-1e-6, 1e-6)
    inside = st.floats(0.0, 86399.0)
    stamps = set()
    for _ in range(draw(st.integers(2, 12))):
        stamps.add(midnight + draw(inside if one_day else st.one_of(near, inside)))
        if not one_day:
            midnight += 86400.0 * draw(st.sampled_from([0, 1, 1, 3, 40]))  # 3 and 40 leave days without samples
    times = sorted(stamps)
    assume(len(times) >= 2)
    values = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0),
                           min_size=len(times), max_size=len(times)))
    return make_trace(times, values)


class TestDailyMaxima:
    @settings(max_examples=300, deadline=None)
    @given(trace=day_edge_traces())
    def test_matches_calendar_oracle(self, trace):
        maxima = daily_maxima(trace)
        dates, values = daily_maxima_ref(trace.times, trace.values)
        assert maxima.dates == dates
        assert maxima.values.tolist() == values

    def test_two_days(self):
        t = POSIX_2016_06_01 + np.array([0.0, 3600.0, 86400.0, 90000.0])
        maxima = daily_maxima(make_trace(t, [0.2, 0.6, 0.8, 0.3]))
        assert maxima.values.tolist() == [0.6, 0.8]
        assert maxima.dates[0] == dt.date(2016, 6, 1)
        assert maxima.dates[1] == dt.date(2016, 6, 2)

    def test_single_day(self):
        maxima = daily_maxima(constant_trace(0.5, days=0.5))
        assert len(maxima) == 1

    def test_gap_day_absent(self):
        t = POSIX_2016_06_01 + np.array([0.0, 3600.0, 2 * 86400.0, 2 * 86400.0 + 3600.0])
        maxima = daily_maxima(make_trace(t, [0.2, 0.6, 0.8, 0.3]))
        assert len(maxima) == 2
        assert maxima.dates == (dt.date(2016, 6, 1), dt.date(2016, 6, 3))

    def test_dates_and_values_must_pair_up(self):
        with pytest.raises(ValueError, match="equal length"):
            DailyMaxima((dt.date(2016, 6, 1),), [0.2, 0.6])


class TestPeakUtilization:
    def test_nearest_rank_20_values(self):
        values = [i / 20 for i in range(1, 21)]
        assert nearest_rank(values, 95.0) == 0.95

    def test_nearest_rank_needs_a_value(self):
        with pytest.raises(ValueError, match="at least one value"):
            nearest_rank([], 95.0)

    def test_all_equal(self):
        maxima = daily_maxima(constant_trace(0.7, days=9.0))
        assert peak_utilization(maxima) == 0.7

    def test_too_few_days(self):
        maxima = daily_maxima(constant_trace(0.7, days=5.0))
        with pytest.raises(InsufficientDataError, match="7 days.*5"):
            peak_utilization(maxima, min_days=7)

    def test_error_carries_required_and_available(self):
        maxima = daily_maxima(constant_trace(0.7, days=3.0))
        try:
            peak_utilization(maxima)
        except InsufficientDataError as exc:
            assert exc.required == 7
            assert exc.available == 3

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        values = rng.uniform(0.0, 1.0, 13)
        shuffled = values[rng.permutation(13)]
        assert nearest_rank(values, 95.0) == nearest_rank(shuffled, 95.0)

    def test_matches_reference(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            values = rng.uniform(0.0, 1.0, int(rng.integers(1, 40)))
            pct = float(rng.uniform(1.0, 100.0))
            assert nearest_rank(values, pct) == nearest_rank_ref(values, pct)

    def test_bounded_by_min_and_max(self):
        rng = np.random.default_rng(13)
        values = rng.uniform(0.2, 0.9, 15)
        peak = nearest_rank(values, 95.0)
        assert values.min() <= peak <= values.max()

    def test_full_pipeline_on_constant(self):
        assert estimate_peak(constant_trace(0.4)) == pytest.approx(0.4, abs=1e-12)


class TestIntegrate:
    def test_constant_identity(self):
        trace = make_trace([0.0, 40.0, 100.0], [0.5, 0.5, 0.5])
        assert integrate(trace) == pytest.approx(50.0, abs=1e-9)

    def test_ramp(self):
        trace = make_trace([0.0, 10.0], [0.0, 1.0])
        assert integrate(trace) == pytest.approx(5.0, abs=1e-12)

    def test_pointwise_must_keep_the_shape(self):
        with pytest.raises(ValueError, match="preserve the array shape"):
            integrate(make_trace([0.0, 10.0], [0.0, 1.0]), lambda u: u[:1])

    def test_energy_curve_on_constant(self, model):
        from migrent import relative_power

        trace = make_trace([0.0, 60.0], [0.4, 0.4])
        expected = 60.0 * relative_power(model, 0.4)
        assert integrate(trace, lambda u: relative_power(model, u)) == pytest.approx(expected, rel=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(21)
        t = np.cumsum(rng.uniform(1.0, 50.0, 300))
        u = rng.uniform(0.0, 1.0, 300)
        trace = make_trace(t, u)
        f = lambda x: x**2
        g = lambda x: np.sqrt(x)
        combined = integrate(trace, lambda x: 2.0 * f(x) + 3.0 * g(x))
        parts = 2.0 * integrate(trace, f) + 3.0 * integrate(trace, g)
        assert combined == pytest.approx(parts, rel=1e-9)

    def test_bounded_by_monotone_envelope(self):
        rng = np.random.default_rng(22)
        t = np.cumsum(rng.uniform(1.0, 50.0, 100))
        u = rng.uniform(0.1, 0.9, 100)
        trace = make_trace(t, u)
        f = lambda x: x**3
        total = integrate(trace, f)
        duration = t[-1] - t[0]
        assert duration * f(u.min()) <= total <= duration * f(u.max())

    def test_close_to_riemann_reference(self):
        rng = np.random.default_rng(23)
        t = np.cumsum(rng.uniform(20.0, 200.0, 400))
        u = np.clip(0.4 + np.cumsum(rng.normal(0.0, 0.01, 400)), 0.0, 1.0)
        trace = make_trace(t, u)
        f = lambda x: 0.33 + 0.67 * (0.36 * x + 0.64 * x * x)
        assert integrate(trace, f) == pytest.approx(riemann(t, u, f), rel=1e-4)


class TestCoverageGaps:
    def test_no_gaps(self):
        assert coverage_gaps(constant_trace(0.5, days=0.2, period=30.0)) == []

    @pytest.mark.parametrize("max_gap", [0.0, -1.0, math.nan])
    def test_max_gap_must_be_positive(self, max_gap):
        with pytest.raises(ValueError, match="max_gap_seconds must be positive"):
            coverage_gaps(constant_trace(0.5, days=0.2, period=30.0), max_gap)

    def test_finds_long_gap(self):
        t = POSIX_2016_06_01 + np.array([0.0, 30.0, 30.0 + 7200.0, 30.0 + 7230.0])
        gaps = coverage_gaps(make_trace(t, [0.1, 0.2, 0.3, 0.4]))
        assert len(gaps) == 1
        assert gaps[0] == (t[1], t[2])
