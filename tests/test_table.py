"""The shared CSV table reader, through each of the four loaders built on it."""

import codecs
import io

import pytest

from migrent import CatalogError, ManifestError, MigrentError, TraceError, UtilizationTrace
from migrent.catalog import Catalog, load_catalog
from migrent.energy import load_power_samples
from migrent.fleet import load_manifest
from migrent.table import read_table, write_table
from migrent.trace import parse_trace

TRACE = b"timestamp,cpu_utilization_percent\n2016-06-01T00:00:00Z,5\n"
CATALOG = b"model_name,spec_score,tdp_watts,release_date,cores,cloud\nbox,300,95,2010-01-01,4,true\n"
MANIFEST = b"machine_id,trace_path,cpu_model,datacenter_id\nm1,a.csv,box,dc\n"
POWER = b"utilization_percent,relative_power\n50,0.7\n"

LOADERS = [
    pytest.param(parse_trace, TraceError, TRACE, id="trace"),
    pytest.param(load_catalog, CatalogError, CATALOG, id="catalog"),
    pytest.param(load_manifest, ManifestError, MANIFEST, id="manifest"),
    pytest.param(load_power_samples, MigrentError, POWER, id="power"),
]

# (loader, its error class, a good file, a bad third line, the error that line raises)
FIELD_RULES = [
    pytest.param(load_catalog, CatalogError, CATALOG, "beta,abc,95,2010-01-01,4,false",
                 "spec_score must be a number, got 'abc'", id="catalog-spec_score"),
    pytest.param(load_catalog, CatalogError, CATALOG, "beta,300,,2010-01-01,4,false",
                 "tdp_watts must be a number, got ''", id="catalog-tdp_watts"),
    pytest.param(load_catalog, CatalogError, CATALOG, "beta,300,95, 2010-13-01,4,false",
                 "release_date must be YYYY-MM-DD, got ' 2010-13-01'", id="catalog-release_date"),
    pytest.param(load_catalog, CatalogError, CATALOG, "beta,300,95,2010-01-01,4.5,false",
                 "cores must be an integer, got '4.5'", id="catalog-cores"),
    pytest.param(load_catalog, CatalogError, CATALOG, "beta,300,95,2010-01-01,4,yes",
                 "cloud must be 'true' or 'false', got 'yes'", id="catalog-cloud"),
    pytest.param(load_catalog, CatalogError, CATALOG, " ,300,95,2010-01-01,4,false",
                 "model_name must be non-empty", id="catalog-empty-key"),
    pytest.param(load_catalog, CatalogError, CATALOG, " box ,118,95,2009-07-15,4,false",
                 "duplicate model_name 'box' (first on line 2)", id="catalog-duplicate-key"),
    pytest.param(load_manifest, ManifestError, MANIFEST, " ,b.csv,box,dc",
                 "machine_id must be non-empty", id="manifest-empty-key"),
    pytest.param(load_manifest, ManifestError, MANIFEST, "m1 ,b.csv,box,dc",
                 "duplicate machine_id 'm1' (first on line 2)", id="manifest-duplicate-key"),
    pytest.param(load_power_samples, MigrentError, POWER, "abc,0.5",
                 "utilization_percent must be a number, got 'abc'", id="power-utilization_percent"),
    pytest.param(load_power_samples, MigrentError, POWER, "50,abc",
                 "relative_power must be a number, got 'abc'", id="power-relative_power"),
]


@pytest.mark.parametrize("load, error_cls, good, row, message", FIELD_RULES)
def test_loader_rules_name_the_line(load, error_cls, good, row, message):
    with pytest.raises(error_cls) as info:
        load(io.StringIO(good.decode() + row + "\n"))
    assert str(info.value) == f"line 3: {message}"
    assert info.value.line == 3


def test_catalog_fields_are_stripped_and_the_cloud_flag_ignores_case():
    catalog = load_catalog(io.StringIO(CATALOG.decode() + " beta , 500 , 100 , 2014-05-01 , 8 , TRUE \n"))
    beta = catalog.lookup("beta")
    assert (beta.spec_score, beta.tdp_watts, beta.release_date.isoformat(), beta.cores) == (500.0, 100.0, "2014-05-01", 8)
    assert beta.cloud is True and catalog.lookup("box").cloud is True


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


def _by_value(loaded):
    """A loader's result in a form that compares by value."""
    if isinstance(loaded, UtilizationTrace):
        return loaded.machine_id, loaded.times.tolist(), loaded.values.tolist()
    if isinstance(loaded, Catalog):
        return list(loaded), loaded.cloud_spec
    return loaded


@pytest.mark.parametrize("load, error_cls, good", LOADERS)
def test_byte_order_mark_is_dropped(load, error_cls, good, tmp_path):
    good += b"2016-06-01T00:00:30Z,6\n" if load is parse_trace else b""  # a trace needs two rows
    plain, marked = tmp_path / "t.csv", tmp_path / "bom" / "t.csv"
    marked.parent.mkdir()
    plain.write_bytes(good)
    marked.write_bytes(codecs.BOM_UTF8 + good)
    assert _by_value(load(marked)) == _by_value(load(plain))


@pytest.mark.parametrize("load, error_cls, good", LOADERS)
def test_bytes_not_utf8_after_a_byte_order_mark_keep_their_line(load, error_cls, good, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(codecs.BOM_UTF8 + good + b"\xff\xfe,\x80\n")
    with pytest.raises(error_cls, match=r"^line 3: not UTF-8 text \(invalid start byte\)$") as info:
        load(path)
    assert info.value.line == 3


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
