"""Relations that ``migrent fleet`` output keeps on any corpus.

Each test rewrites one small seeded corpus in a way whose effect on the
output is known exactly, runs ``fleet`` with ``--emit-csv`` on both forms,
and compares stdout and the CSV files byte for byte.
"""

import contextlib
import csv
import io
import json
import random
import re
from importlib import resources

import pytest

from migrent import (
    ManifestEntry,
    ParamRanges,
    UtilizationTrace,
    generate_fleet,
    load_manifest,
    parse_trace,
    write_fleet,
    write_manifest,
    write_trace,
)
from migrent.cli import main
from migrent.report import dumps_stable
from migrent.trace import format_timestamp, parse_timestamp

STAMP = re.compile(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d(?:\.\d+)?Z")
# the synthetic traces start on 2016-06-01; this shift moves them across 1970-01-01
SHIFT_SECONDS = -16_955 * 86_400


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Five synthetic machines, one with a sampling gap, plus a missing and a too-short trace."""
    root = tmp_path_factory.mktemp("corpus")
    ranges = ParamRanges(duration_days=(8, 9), sample_periods=(30,))
    write_fleet(generate_fleet(5, machines=5, datacenters=3, ranges=ranges), root)
    entries = load_manifest(root / "manifest.csv")
    gapped = root / entries[1].trace_path
    lines = gapped.read_bytes().splitlines(keepends=True)
    gapped.write_bytes(b"".join(lines[:1000] + lines[1200:]))  # 200 rows of 30 s: one 6,030 s gap
    (root / "traces" / "short.csv").write_bytes(b"".join(lines[:2 * 2880]))  # two days
    entries[2:2] = [ManifestEntry("ghost", "traces/ghost.csv", entries[0].cpu_model, "dc000")]
    entries.append(ManifestEntry("short", "traces/short.csv", entries[0].cpu_model, "dc001"))
    write_manifest(entries, root / "manifest.csv")
    (root / "catalog.csv").write_text(resources.files("migrent.data").joinpath("fixture_catalog.csv").read_text())
    return root


def run_fleet(manifest, catalog="catalog.csv"):
    """``fleet`` stdout and the bytes of each ``--emit-csv`` file, by name."""
    csv_dir = manifest.parent / f"{manifest.stem}-{catalog}-emitted"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([
            "fleet", str(manifest), "--jobs", "1", "--catalog", str(manifest.parent / catalog),
            "--emit-csv", str(csv_dir),
        ])
    assert code == 0
    return out.getvalue(), {path.name: path.read_bytes() for path in sorted(csv_dir.iterdir())}


@pytest.fixture(scope="module")
def base(corpus):
    stdout, csvs = run_fleet(corpus / "manifest.csv")
    payload = json.loads(stdout)
    assert dumps_stable(payload) == stdout  # so a payload edited below renders as fleet would
    assert [e["machine_id"] for e in payload["exclusions"]] == ["ghost", "short"]
    assert sum(bool(m["coverage_warnings"]) for m in payload["machines"]) == 1
    return stdout, csvs


def rewrite_traces(corpus, name, rewrite):
    """A manifest ``name``.csv over copies of the traces, each passed through ``rewrite(path)``."""
    (corpus / name).mkdir()
    entries = []
    for entry in load_manifest(corpus / "manifest.csv"):
        source = corpus / entry.trace_path
        if source.exists():
            (corpus / name / source.name).write_bytes(rewrite(source))
            entry = ManifestEntry(entry.machine_id, f"{name}/{source.name}", entry.cpu_model, entry.datacenter_id)
        entries.append(entry)
    write_manifest(entries, corpus / f"{name}.csv")
    return corpus / f"{name}.csv"


def test_manifest_order_permutes_only_the_exclusions(corpus, base):
    entries = load_manifest(corpus / "manifest.csv")
    shuffled = entries[:]
    random.Random(4).shuffle(shuffled)
    write_manifest(shuffled, corpus / "shuffled.csv")
    stdout, csvs = run_fleet(corpus / "shuffled.csv")

    expected = json.loads(base[0])
    by_id = {e["machine_id"]: e for e in expected["exclusions"]}
    expected["exclusions"] = [by_id[e.machine_id] for e in shuffled if e.machine_id in by_id]
    assert [e["machine_id"] for e in expected["exclusions"]] == ["short", "ghost"]  # the order did change
    assert stdout == dumps_stable(expected)
    assert csvs == base[1]


def test_row_parser_gives_the_same_output(corpus, base):
    def off_form(path):
        return path.read_bytes().replace(b"Z,", b"+00:00,").replace(b"\n", b"\r\n")

    assert run_fleet(rewrite_traces(corpus, "crlf", off_form)) == base


def test_whole_day_shift_moves_only_the_warning_stamps(corpus, base):
    def shifted(path):
        trace = parse_trace(path)
        out = io.StringIO()
        write_trace(UtilizationTrace(trace.machine_id, trace.times + SHIFT_SECONDS, trace.values), out)
        return out.getvalue().encode()

    stdout, csvs = run_fleet(rewrite_traces(corpus, "shifted", shifted))
    assert len(STAMP.findall(base[0])) == 2  # the gap's two ends
    expected = STAMP.sub(lambda m: format_timestamp(parse_timestamp(m.group()) + SHIFT_SECONDS), base[0])
    assert stdout == expected
    assert csvs == base[1]


def test_catalog_scale_keeps_every_fraction(corpus, base):
    rows = list(csv.reader(io.StringIO((corpus / "catalog.csv").read_text())))
    score = rows[0].index("spec_score")
    for row in rows[1:]:
        row[score] = repr(float(row[score]) * 8)
    with open(corpus / "catalog-x8.csv", "w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)
    assert run_fleet(corpus / "manifest.csv", "catalog-x8.csv") == base
