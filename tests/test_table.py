"""The shared CSV table reader, through each of the four loaders built on it."""

import io

import pytest

from migrent import CatalogError, ManifestError, MigrentError, TraceError
from migrent.catalog import load_catalog
from migrent.energy import load_power_samples
from migrent.fleet import load_manifest
from migrent.table import read_table, write_table
from migrent.trace import parse_trace

LOADERS = [
    pytest.param(parse_trace, TraceError, b"timestamp,cpu_utilization_percent\n2016-06-01T00:00:00Z,5\n", id="trace"),
    pytest.param(
        load_catalog, CatalogError,
        b"model_name,spec_score,tdp_watts,release_date,cores,cloud\nbox,300,95,2010-01-01,4,true\n",
        id="catalog",
    ),
    pytest.param(
        load_manifest, ManifestError,
        b"machine_id,trace_path,cpu_model,datacenter_id\nm1,a.csv,box,dc\n",
        id="manifest",
    ),
    pytest.param(
        load_power_samples, MigrentError, b"utilization_percent,relative_power\n50,0.7\n", id="power",
    ),
]


@pytest.mark.parametrize("load, error_cls, good", LOADERS)
def test_bytes_not_utf8_raise_the_loaders_error_with_line(load, error_cls, good, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(good + b"\xff\xfe,\x80\n")
    with pytest.raises(error_cls, match=r"^line 3: not UTF-8 text \(invalid start byte\)$") as info:
        load(path)
    assert info.value.line == 3


@pytest.mark.parametrize("load, error_cls, good", LOADERS)
def test_oversized_field_raises_the_loaders_error_with_line(load, error_cls, good, tmp_path):
    path = tmp_path / "huge.csv"
    path.write_bytes(good + b"x" * 140_000 + b",1\n")
    with pytest.raises(error_cls, match=r"^line 3: field larger than field limit \(131072\)$"):
        load(path)


def test_decode_error_in_a_stream_has_no_line():
    stream = io.TextIOWrapper(io.BytesIO(b"timestamp,cpu_utilization_percent\n\xff\n"), encoding="utf-8")
    with pytest.raises(TraceError, match=r"^not UTF-8 text") as info:
        parse_trace(stream)
    assert info.value.line is None


def test_written_table_reads_back(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ("a", "b"), [("x,y", "1"), ("", "2")])
    assert path.read_bytes() == b'a,b\n"x,y",1\n,2\n'
    assert list(read_table(path, ("a", "b"), MigrentError, "test")) == [(2, ["x,y", "1"]), (3, ["", "2"])]


def test_blank_rows_skipped_and_lines_counted():
    text = "a,b\n\n1,2\n ,  \n3,4\n"
    assert list(read_table(io.StringIO(text), ("a", "b"), MigrentError, "test")) == [
        (3, ["1", "2"]),
        (5, ["3", "4"]),
    ]
