"""The command-line interface, exercised in-process through main()."""

import contextlib
import datetime as dt
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import migrent
from migrent import write_trace
from migrent.cli import _usable_cpus, main
from migrent.report import dumps_stable
from migrent.trace import STAMP_RANGE, format_timestamp

from conftest import POSIX_2016_06_01, constant_trace, far_stamp_trace

CATALOG_TEXT = """\
model_name,spec_score,tdp_watts,release_date,cores,cloud
old-box,300,95,2010-01-01,4,false
new-box,660,110,2015-03-01,12,false
box-a,31.579,10,2012-01-01,8,false
cloud-box,50,10,2016-01-01,16,true
"""


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli-data")
    (d / "catalog.csv").write_text(CATALOG_TEXT)
    write_trace(constant_trace(0.4, days=8.0, machine_id="const-04"), d / "const-04.csv")
    write_trace(constant_trace(0.4, days=3.0, machine_id="short"), d / "short.csv")
    write_trace(constant_trace(0.0, days=8.0, machine_id="idle"), d / "idle.csv")
    # 8 days at 5 minutes, every percent 1e-168: with idle fraction 0 and the
    # square curve, u² underflows and the on-premises energy is 0, demand not
    stamps = POSIX_2016_06_01 + 300.0 * np.arange(8 * 288 + 1)
    rows = "".join(f"{format_timestamp(s)},1e-168\n" for s in stamps)
    (d / "tiny.csv").write_text("timestamp,cpu_utilization_percent\n" + rows)
    return d


ZERO_BASELINE_MODEL = ("--idle-fraction", "0", "--linear-mix", "0")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def error_payload(err):
    return json.loads(err)["error"]


class TestAnalyze:
    def test_basic_report(self, capsys, data_dir):
        payload = run_json(
            capsys,
            "analyze",
            str(data_dir / "const-04.csv"),
            "old-box",
            "--catalog",
            str(data_dir / "catalog.csv"),
            "--targets",
            "0.8",
        )
        assert payload["machine_id"] == "const-04"
        assert payload["cpu_model"] == "old-box"
        assert payload["idle_machine"] is False
        assert payload["peak_utilization"] == 0.4
        row = payload["targets"][0]
        assert row["target"] == 0.8
        assert row["static_resize"] == pytest.approx(0.805303, abs=5e-7)
        assert row["combined"] == pytest.approx(row["lift_and_shift"] * row["static_resize"], rel=1e-4)
        assert set(row["autoscale_vs"]) == {"lift-and-shift", "static-resized"}

    def test_machine_id_flag(self, capsys, data_dir):
        payload = run_json(
            capsys,
            "analyze",
            str(data_dir / "const-04.csv"),
            "old-box",
            "--catalog",
            str(data_dir / "catalog.csv"),
            "--machine-id",
            "rack-42",
            "--datacenter",
            "dc-west",
        )
        assert payload["machine_id"] == "rack-42"
        assert payload["datacenter_id"] == "dc-west"

    def test_missing_trace_exits_2(self, capsys, data_dir):
        code, _, err = run(
            capsys, "analyze", str(data_dir / "nope.csv"), "old-box",
            "--catalog", str(data_dir / "catalog.csv"),
        )
        assert code == 2
        assert "nope.csv" in error_payload(err)["message"]

    def test_infinite_window_exits_2(self, capsys, data_dir):
        code, out, err = run(
            capsys, "analyze", str(data_dir / "const-04.csv"), "old-box",
            "--catalog", str(data_dir / "catalog.csv"), "--window-seconds", "inf",
        )
        assert code == 2
        assert out == ""
        assert error_payload(err) == {
            "type": "MigrentError", "message": "window_seconds must be finite and positive, got inf",
        }

    def test_window_below_stamp_resolution_exits_2(self, capsys, data_dir):
        code, out, err = run(
            capsys, "analyze", str(data_dir / "const-04.csv"), "old-box",
            "--catalog", str(data_dir / "catalog.csv"), "--window-seconds", "1e-10",
        )
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        payload = error_payload(err)
        assert payload["type"] == "TraceError"
        assert "below the timestamps' resolution" in payload["message"]

    def test_offset_stamp_before_year_1_exits_2(self, capsys, data_dir, tmp_path):
        path = tmp_path / "year-1.csv"
        path.write_text("timestamp,cpu_utilization_percent\n0001-01-01T00:00:00+01:00,10\n0001-01-01T00:00:30Z,20\n")
        code, out, err = run(capsys, "analyze", str(path), "old-box", "--catalog", str(data_dir / "catalog.csv"))
        assert (code, out, err.count("\n")) == (2, "", 1)
        assert error_payload(err) == {
            "type": "TraceError",
            "message": "line 2: timestamp 0001-01-01T00:00:00+01:00 is outside the years 1 to 9999 (UTC)",
        }

    def test_zero_baseline_energy_exits_2(self, capsys, data_dir):
        code, out, err = run(
            capsys, "analyze", str(data_dir / "tiny.csv"), "old-box",
            "--catalog", str(data_dir / "catalog.csv"), *ZERO_BASELINE_MODEL,
        )
        assert (code, out) == (2, "")
        assert "Traceback" not in err
        assert error_payload(err) == {
            "type": "MigrentError",
            "message": "tiny: a baseline energy is 0 but the energy over it is not, no fraction exists",
        }

    def test_short_trace_exits_3(self, capsys, data_dir):
        code, _, err = run(
            capsys, "analyze", str(data_dir / "short.csv"), "old-box",
            "--catalog", str(data_dir / "catalog.csv"),
        )
        assert code == 3
        assert error_payload(err)["type"] == "InsufficientDataError"

    def test_min_days_flag_rescues_short_trace(self, capsys, data_dir):
        payload = run_json(
            capsys, "analyze", str(data_dir / "short.csv"), "old-box",
            "--catalog", str(data_dir / "catalog.csv"), "--min-days", "2",
        )
        assert payload["peak_utilization"] == 0.4

    def test_idle_machine_reported_not_failed(self, capsys, data_dir):
        payload = run_json(
            capsys, "analyze", str(data_dir / "idle.csv"), "old-box",
            "--catalog", str(data_dir / "catalog.csv"), "--targets", "0.8",
        )
        assert payload["idle_machine"] is True
        assert payload["targets"][0]["static_resize"] is None
        assert payload["targets"][0]["autoscale_ideal"] == 0.0

    def test_unknown_cpu_exits_2(self, capsys, data_dir):
        code, _, err = run(
            capsys, "analyze", str(data_dir / "const-04.csv"), "old-bax",
            "--catalog", str(data_dir / "catalog.csv"),
        )
        assert code == 2
        assert "old-box" in error_payload(err)["message"]  # spelling hint

    @pytest.mark.parametrize("targets", ["0,0.5", "1.5", "abc", ""])
    def test_bad_targets_exit_2(self, capsys, data_dir, targets):
        code, _, err = run(
            capsys, "analyze", str(data_dir / "const-04.csv"), "old-box",
            "--catalog", str(data_dir / "catalog.csv"), "--targets", targets,
        )
        assert code == 2

    def test_duplicate_targets_exit_2(self, capsys, data_dir):
        code, out, err = run(
            capsys, "analyze", str(data_dir / "const-04.csv"), "old-box",
            "--catalog", str(data_dir / "catalog.csv"), "--targets", "0.5,0.5000001,0.5",
        )
        assert code == 2
        assert out == ""
        assert error_payload(err)["message"] == "duplicate target utilization 0.5 in '0.5,0.5000001,0.5'"

    def test_bad_baseline_rejected_by_argparse(self, data_dir):
        with pytest.raises(SystemExit):
            main([
                "analyze", str(data_dir / "const-04.csv"), "old-box",
                "--baseline", "something-else",
            ])


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A deterministic synthetic corpus created through the CLI itself."""
    d = tmp_path_factory.mktemp("cli-corpus")
    code = main([
        "synth", "--out", str(d), "--seed", "42", "--machines", "8",
        "--datacenters", "3", "--duration-days", "8,9",
    ])
    assert code == 0
    return d


class TestFleet:
    def test_full_run(self, capsys, corpus):
        payload = run_json(capsys, "fleet", str(corpus / "manifest.csv"), "--targets", "0.5,0.8")
        assert payload["machines_analyzed"] == 8
        assert payload["machines_excluded"] == 0
        assert payload["targets"] == [0.5, 0.8]
        assert len(payload["mean_table"]) == 10
        assert len(payload["machines"]) == 8
        assert payload["machines"] == sorted(payload["machines"], key=lambda m: m["machine_id"])

    def test_deterministic_output(self, capsys, corpus):
        args = ("fleet", str(corpus / "manifest.csv"), "--targets", "0.8")
        code_a, out_a, _ = run(capsys, *args)
        code_b, out_b, _ = run(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_jobs_flag_gives_same_output(self, capsys, corpus):
        targets = [(k + 1) / 100 for k in range(100)]
        base = ("fleet", str(corpus / "manifest.csv"), "--targets", ",".join(map(str, targets)))
        _, out_seq, _ = run(capsys, *base, "--jobs", "1")
        _, out_par, _ = run(capsys, *base, "--jobs", "2")
        entries = migrent.load_manifest(corpus / "manifest.csv")
        fleet = migrent.analyze_manifest(entries, corpus, migrent.bundled_catalog(), migrent.EnergyModel(), targets)
        # the streaming writer against the whole-tree renderer
        assert out_seq == out_par == dumps_stable(fleet.to_dict())

    def test_partial_failure_is_excluded(self, capsys, corpus, tmp_path):
        manifest = (corpus / "manifest.csv").read_text()
        manifest += "ghost,traces/ghost.csv,fx-quad-2011,dc000\n"
        patched = tmp_path / "manifest.csv"
        patched.write_text(manifest)
        (tmp_path / "traces").symlink_to(corpus / "traces")
        payload = run_json(capsys, "fleet", str(patched), "--targets", "0.8")
        assert payload["machines_excluded"] == 1
        assert payload["exclusions"][0]["machine_id"] == "ghost"

    @pytest.mark.parametrize("bad_trace", [
        pytest.param(random.Random(3).randbytes(3072), id="random-bytes"),
        pytest.param(
            b"timestamp,cpu_utilization_percent\n2016-06-01T00:00:00Z," + b"1" * 140_000 + b"\n",
            id="field-over-csv-limit",
        ),
    ])
    def test_unreadable_trace_is_excluded(self, capsys, corpus, tmp_path, bad_trace):
        (tmp_path / "bad.csv").write_bytes(bad_trace)
        (tmp_path / "good.csv").symlink_to(corpus / "traces" / "m0000.csv")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(
            "machine_id,trace_path,cpu_model,datacenter_id\n"
            "good,good.csv,fx-quad-2011,dc000\n"
            "bad,bad.csv,fx-quad-2011,dc000\n"
        )
        payload = run_json(capsys, "fleet", str(manifest), "--targets", "0.8", "--jobs", "1")
        assert payload["machines_analyzed"] == 1
        assert [e["machine_id"] for e in payload["exclusions"]] == ["bad"]

    def test_zero_baseline_energy_is_excluded(self, capsys, corpus, data_dir, tmp_path):
        (tmp_path / "tiny.csv").symlink_to(data_dir / "tiny.csv")
        (tmp_path / "good.csv").symlink_to(corpus / "traces" / "m0000.csv")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(
            "machine_id,trace_path,cpu_model,datacenter_id\n"
            "good,good.csv,fx-quad-2011,dc000\n"
            "tiny,tiny.csv,fx-quad-2011,dc000\n"
        )
        payload = run_json(capsys, "fleet", str(manifest), "--targets", "0.8", "--jobs", "1", *ZERO_BASELINE_MODEL)
        assert [m["machine_id"] for m in payload["machines"]] == ["good"]
        assert [e["machine_id"] for e in payload["exclusions"]] == ["tiny"]
        assert payload["exclusions"][0]["reason"].startswith("tiny: a baseline energy is 0")

    def test_implausible_span_is_excluded(self, capsys, corpus, tmp_path):
        write_trace(far_stamp_trace(), tmp_path / "far.csv")
        (tmp_path / "good.csv").symlink_to(corpus / "traces" / "m0000.csv")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(
            "machine_id,trace_path,cpu_model,datacenter_id\n"
            "good,good.csv,fx-quad-2011,dc000\n"
            "far,far.csv,fx-quad-2011,dc000\n"
        )
        payload = run_json(capsys, "fleet", str(manifest), "--targets", "0.8", "--jobs", "1")
        assert payload["machines_analyzed"] == 1
        assert [e["machine_id"] for e in payload["exclusions"]] == ["far"]
        assert "clock hours" in payload["exclusions"][0]["reason"]

    def test_all_failures_exit_4(self, capsys, tmp_path):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(
            "machine_id,trace_path,cpu_model,datacenter_id\n"
            "ghost,traces/ghost.csv,fx-quad-2011,dc000\n"
        )
        code, _, err = run(capsys, "fleet", str(manifest), "--targets", "0.8")
        assert code == 4
        assert error_payload(err)["type"] == "FleetError"

    def test_duplicate_targets_exit_2(self, capsys, corpus, tmp_path):
        # both would be written to cdf_<scenario>_0.8.csv
        code, out, err = run(
            capsys, "fleet", str(corpus / "manifest.csv"), "--targets", "0.8,0.80000001",
            "--emit-csv", str(tmp_path / "csv"),
        )
        assert code == 2
        assert out == ""
        assert "duplicate target utilization 0.8" in error_payload(err)["message"]
        assert not (tmp_path / "csv").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("percentile", 150, "percentile must be in (0, 100], got 150.0"),
        ("percentile", 0, "percentile must be in (0, 100], got 0.0"),
        ("window_seconds", -5, "window_seconds must be finite and positive, got -5.0"),
        ("window_seconds", float("inf"), "window_seconds must be finite and positive, got inf"),
        ("window_seconds", float("nan"), "window_seconds must be finite and positive, got nan"),
        ("min_days", 0, "min_days must be at least 1, got 0"),
        ("idle_fraction", 1.5, "idle_fraction must be in [0, 1), got 1.5"),
    ])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_bad_analysis_setting_fails_before_any_work(self, capsys, tmp_path, key, value, message, source):
        # the catalog and manifest do not exist: reading either would fail with another error
        missing = tmp_path / "missing"
        args = [
            "fleet", str(missing / "manifest.csv"), "--jobs", "2",
            "--catalog", str(missing / "catalog.csv"), "--emit-csv", str(tmp_path / "csv"),
        ]
        if source == "flag":
            args += ["--" + key.replace("_", "-"), str(value)]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({key: value}))
            args += ["--config", str(config)]
        code, out, err = run(capsys, *args)
        assert code == 2
        assert out == ""
        assert error_payload(err) == {"type": "MigrentError", "message": message}
        assert not (tmp_path / "csv").exists()

    def test_jobs_help_names_the_cpu_count_default(self, capsys):
        with pytest.raises(SystemExit):
            main(["fleet", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "worker processes (default: the number of CPUs this process may run on)" in help_text

    def test_default_jobs_counts_the_cpus_the_process_may_use(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert _usable_cpus() == 2
        monkeypatch.delattr(os, "sched_getaffinity")
        assert _usable_cpus() == 64
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _usable_cpus() == 1

    def test_missing_manifest_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "fleet", str(tmp_path / "none.csv"))
        assert code == 2

    def test_csv_dir_under_a_file_exits_2(self, capsys, corpus, tmp_path):
        (tmp_path / "file").write_text("")
        out_dir = tmp_path / "file" / "sub"
        code, out, err = run(capsys, "fleet", str(corpus / "manifest.csv"), "--emit-csv", str(out_dir))
        assert (code, out) == (2, "")
        error = error_payload(err)
        assert error["type"] == "MigrentError"
        assert error["message"].startswith(f"cannot create output directory {out_dir}: ")

    def test_emit_csv(self, capsys, corpus, tmp_path):
        out_dir = tmp_path / "csv"
        payload = run_json(
            capsys, "fleet", str(corpus / "manifest.csv"),
            "--targets", "0.8", "--emit-csv", str(out_dir),
        )
        assert (out_dir / "mean_table.csv").exists()
        assert (out_dir / "size_bins.csv").exists()
        assert (out_dir / "util_by_release.csv").exists()
        cdf_files = sorted(p.name for p in out_dir.glob("cdf_*.csv"))
        assert "cdf_lift_and_shift_0.8.csv" in cdf_files
        assert payload["machines_analyzed"] == 8


class TestSynth:
    def test_message_and_layout(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "synth", "--out", str(tmp_path / "corpus"), "--seed", "1",
            "--machines", "4", "--datacenters", "2",
        )
        assert code == 0
        assert "wrote 4 traces across 2 datacenters" in out
        assert (tmp_path / "corpus" / "manifest.csv").exists()
        assert (tmp_path / "corpus" / "traces" / "m0003.csv").exists()

    def test_same_seed_byte_identical(self, capsys, tmp_path):
        for name in ("a", "b"):
            code, _, _ = run(
                capsys, "synth", "--out", str(tmp_path / name), "--seed", "7",
                "--machines", "3", "--datacenters", "2", "--duration-days", "8",
            )
            assert code == 0
        for rel in ("manifest.csv", "traces/m0000.csv", "traces/m0001.csv", "traces/m0002.csv"):
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_different_seed_differs(self, capsys, tmp_path):
        for name, seed in (("a", "7"), ("b", "8")):
            run(
                capsys, "synth", "--out", str(tmp_path / name), "--seed", seed,
                "--machines", "3", "--datacenters", "2",
            )
        assert (
            (tmp_path / "a" / "traces" / "m0000.csv").read_bytes()
            != (tmp_path / "b" / "traces" / "m0000.csv").read_bytes()
        )

    def test_invalid_range_exits_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "synth", "--out", str(tmp_path / "x"),
            "--base-util", "0.9,0.2",
        )
        assert code == 2
        assert "base_utilization" in error_payload(err)["message"]

    @pytest.mark.parametrize("seed", ["1", "2", "3"])
    @pytest.mark.parametrize("flags, setting", [
        (["--noise", "inf"], "noise_stddev"),
        (["--growth", "nan"], "growth_per_day"),
        (["--diurnal", "nan"], "diurnal_amplitude"),
        (["--duration-days", "0,9"], "duration_days"),
        (["--machines", "2.5"], "machines"),
        (["--seed", "-1"], "seed"),
        (["--datacenters", "x"], "datacenters"),
        (["--base-util", "0.1,0.2,0.3"], "base_utilization"),
    ])
    def test_bad_number_fails_before_any_draw(self, capsys, tmp_path, seed, flags, setting):
        out = tmp_path / "x"
        code, stdout, err = run(
            capsys, "synth", "--out", str(out), "--seed", seed, "--machines", "2", "--datacenters", "1", *flags,
        )
        assert (code, stdout) == (2, "")
        error = error_payload(err)
        assert error["type"] == "MigrentError"
        assert error["message"].startswith(f"{setting} must be ")
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--start", "garbage"],
        ["--start", "9999-12-31T00:00:00Z", "--duration-days", "8,8"],  # would write the year 10000
    ])
    def test_bad_start_fails_before_anything_is_written(self, capsys, tmp_path, flags):
        out = tmp_path / "fresh"
        code, stdout, err = run(capsys, "synth", "--out", str(out), "--machines", "2", "--datacenters", "1", *flags)
        assert (code, stdout) == (2, "")
        error = error_payload(err)
        assert error["type"] == "MigrentError"
        assert error["message"].startswith("start must be ")
        assert not out.exists()

    def test_trace_dir_taken_by_a_file_is_one_json_error(self, capsys, tmp_path):
        out = tmp_path / "corpus"
        out.mkdir()
        (out / "traces").write_text("")
        code, stdout, err = run(capsys, "synth", "--out", str(out), "--machines", "2", "--datacenters", "1")
        assert (code, stdout) == (2, "")
        assert len(err.splitlines()) == 1
        error = error_payload(err)
        assert error["type"] == "MigrentError"  # as for fleet --emit-csv under a file
        assert error["message"].startswith(f"cannot create output directory {out / 'traces'}: ")
        assert [p.name for p in out.iterdir()] == ["traces"]  # nothing written

    def test_invalid_period_exits_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "synth", "--out", str(tmp_path / "x"), "--periods", "45")
        assert code == 2

    def test_single_value_range(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "synth", "--out", str(tmp_path / "x"), "--machines", "2",
            "--datacenters", "1", "--duration-days", "8", "--noise", "0.01",
        )
        assert code == 0


class TestCatalog:
    def test_list_bundled(self, capsys):
        code, out, _ = run(capsys, "catalog", "list")
        assert code == 0
        lines = out.strip().splitlines()
        names = [line.split(" ")[0] for line in lines]
        assert names == sorted(names)
        assert sum("(cloud reference)" in line for line in lines) == 1

    def test_list_custom_catalog(self, capsys, data_dir):
        code, out, _ = run(capsys, "catalog", "list", "--catalog", str(data_dir / "catalog.csv"))
        assert code == 0
        assert "cloud-box (cloud reference)" in out

    def test_show(self, capsys, data_dir):
        payload = run_json(
            capsys, "catalog", "show", "old-box", "--catalog", str(data_dir / "catalog.csv")
        )
        assert payload["model_name"] == "old-box"
        assert payload["spec_score"] == 300
        assert payload["ce"] == pytest.approx(300 / 95, rel=1e-4)

    def test_show_unknown_exits_2(self, capsys, data_dir):
        code, _, err = run(
            capsys, "catalog", "show", "mystery", "--catalog", str(data_dir / "catalog.csv")
        )
        assert code == 2

    def test_ce_prints_fraction(self, capsys, data_dir):
        code, out, _ = run(
            capsys, "catalog", "ce", "box-a", "--catalog", str(data_dir / "catalog.csv")
        )
        assert code == 0
        assert out.strip() == "0.63158"

    def test_ce_with_explicit_cloud_model(self, capsys, data_dir):
        code, out, _ = run(
            capsys, "catalog", "ce", "old-box", "old-box",
            "--catalog", str(data_dir / "catalog.csv"),
        )
        assert code == 0
        assert out.strip() == "1"

    @pytest.mark.parametrize("rows, message", [
        (["old-box,300,95,2010-01-01,4,false", "cloud-box,50,inf,2016-01-01,16,true"],
         "line 3: cloud-box: tdp_watts must be finite and positive, got inf"),
        (["old-box,inf,95,2010-01-01,4,false", "cloud-box,50,10,2016-01-01,16,true"],
         "line 2: old-box: spec_score must be finite and positive, got inf"),
    ])
    def test_ce_with_non_finite_catalog_value_exits_2(self, capsys, tmp_path, rows, message):
        catalog = tmp_path / "catalog.csv"
        catalog.write_text("\n".join(["model_name,spec_score,tdp_watts,release_date,cores,cloud", *rows, ""]))
        code, out, err = run(capsys, "catalog", "ce", "old-box", "--catalog", str(catalog))
        assert (code, out) == (2, "")
        assert error_payload(err) == {"type": "CatalogError", "message": message}

    def test_env_var_supplies_catalog(self, capsys, data_dir, monkeypatch):
        monkeypatch.setenv("MIGRENT_CATALOG", str(data_dir / "catalog.csv"))
        code, out, _ = run(capsys, "catalog", "list")
        assert code == 0
        assert "box-a" in out

    def test_flag_beats_env_var(self, capsys, data_dir, monkeypatch, tmp_path):
        bogus = tmp_path / "bogus.csv"
        bogus.write_text("not,a,catalog\n")
        monkeypatch.setenv("MIGRENT_CATALOG", str(bogus))
        code, out, _ = run(capsys, "catalog", "list", "--catalog", str(data_dir / "catalog.csv"))
        assert code == 0
        assert "box-a" in out


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, data_dir, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"targets": [0.7], "min_days": 2}))
        payload = run_json(
            capsys, "analyze", str(data_dir / "short.csv"), "old-box",
            "--catalog", str(data_dir / "catalog.csv"), "--config", str(config),
        )
        assert [row["target"] for row in payload["targets"]] == [0.7]

    def test_flag_beats_config(self, capsys, data_dir, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"targets": [0.7], "min_days": 2}))
        payload = run_json(
            capsys, "analyze", str(data_dir / "short.csv"), "old-box",
            "--catalog", str(data_dir / "catalog.csv"), "--config", str(config),
            "--targets", "0.9",
        )
        assert [row["target"] for row in payload["targets"]] == [0.9]

    def test_unknown_config_key_exits_2(self, capsys, data_dir, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"windowseconds": 60}))
        code, _, err = run(
            capsys, "analyze", str(data_dir / "const-04.csv"), "old-box",
            "--catalog", str(data_dir / "catalog.csv"), "--config", str(config),
        )
        assert code == 2
        assert "windowseconds" in error_payload(err)["message"]

    def test_malformed_config_exits_2(self, capsys, data_dir, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("{not json")
        code, _, _ = run(
            capsys, "analyze", str(data_dir / "const-04.csv"), "old-box",
            "--catalog", str(data_dir / "catalog.csv"), "--config", str(config),
        )
        assert code == 2

    @pytest.mark.parametrize("content", [
        pytest.param(b'{"jobs": ' + b"1" * 5000 + b"}", id="over-the-integer-string-limit"),
        pytest.param(b"\xff\xfe{", id="not-utf-8"),
    ])
    def test_config_json_cannot_read_names_the_file(self, capsys, tmp_path, content):
        config = tmp_path / "big.json"
        config.write_bytes(content)
        code, out, err = run(capsys, "fleet", str(tmp_path / "manifest.csv"), "--config", str(config))
        assert (code, out) == (2, "")
        error = error_payload(err)
        assert error["type"] == "MigrentError"
        assert error["message"].startswith(f"config {config} is not valid JSON: ")

    @pytest.mark.parametrize("kind", ["directory", "missing"])
    def test_unreadable_config_names_the_file(self, capsys, tmp_path, kind):
        config = tmp_path / "config.json"
        if kind == "directory":
            config.mkdir()
        code, out, err = run(capsys, "fleet", str(tmp_path / "manifest.csv"), "--config", str(config))
        assert (code, out) == (2, "")
        error = error_payload(err)
        assert error["type"] == "MigrentError"
        assert error["message"].startswith(f"cannot read config {config}: ")

    def test_non_object_config_exits_2(self, capsys, data_dir, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("[1, 2]")
        code, _, _ = run(
            capsys, "analyze", str(data_dir / "const-04.csv"), "old-box",
            "--catalog", str(data_dir / "catalog.csv"), "--config", str(config),
        )
        assert code == 2

    @pytest.mark.parametrize("source, setting", [
        ({"min_days": 7.9}, "min_days"),
        ({"min_days": True}, "min_days"),
        ({"jobs": 1.5}, "jobs"),
        ({"percentile": True}, "percentile"),
        ({"targets": [True]}, "targets"),
        (["--min-days", "2.5"], "min_days"),
        (["--percentile", "abc"], "percentile"),
        ({"targets": 0.5}, "targets"),
    ])
    def test_value_of_the_wrong_kind_is_one_json_error(self, capsys, tmp_path, source, setting):
        # booleans are not numbers, and an integer setting does not truncate a fraction
        args = ["fleet", str(tmp_path / "manifest.csv")]
        if isinstance(source, dict):
            config = tmp_path / "config.json"
            config.write_text(json.dumps(source))
            args += ["--config", str(config)]
        else:
            args += source
        code, out, err = run(capsys, *args)
        assert (code, out) == (2, "")
        error = error_payload(err)
        assert error["type"] == "MigrentError"
        assert error["message"].startswith(f"{setting} must be ")

    @pytest.mark.parametrize("flag_value, config_value", [("2.5", 2.5), ("0", 0), ("150", 150), ("abc", "abc")])
    @pytest.mark.parametrize("key", ["idle_fraction", "linear_mix", "window_seconds", "percentile", "min_days", "jobs"])
    def test_flag_and_config_value_give_the_same_outcome(self, capsys, tmp_path, key, flag_value, config_value):
        # neither file exists, so a valid value ends at the same read error both ways
        base = ["fleet", str(tmp_path / "manifest.csv"), "--catalog", str(tmp_path / "catalog.csv")]
        by_flag = run(capsys, *base, "--" + key.replace("_", "-"), flag_value)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: config_value}))
        by_config = run(capsys, *base, "--config", str(config))
        assert by_flag == by_config
        code, out, err = by_flag
        assert (code, out) == (2, "")
        assert "message" in error_payload(err)


ANALYSIS_FLAGS = {
    "--targets": "0.7",
    "--baseline": "static-resized",
    "--idle-fraction": "0.3",
    "--linear-mix": "0.5",
    "--window-seconds": "600",
    "--percentile": "90",
    "--min-days": "2",
}


class TestOptionGroups:
    @pytest.mark.parametrize("flag", ANALYSIS_FLAGS)
    @pytest.mark.parametrize("command", [
        ["synth", "--out", "unused"],
        ["catalog", "list"],
        ["catalog", "show", "fx-quad-2011"],
        ["catalog", "ce", "fx-quad-2011"],
    ])
    def test_analysis_flags_rejected_where_nothing_reads_them(self, capsys, tmp_path, command, flag):
        with pytest.raises(SystemExit) as excinfo:
            main([*command, flag, ANALYSIS_FLAGS[flag]])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "unused").exists()

    def test_analyze_takes_every_analysis_flag_like_the_config(self, capsys, data_dir, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "targets": [0.7], "baseline": "static-resized", "idle_fraction": 0.3, "linear_mix": 0.5,
            "window_seconds": 600, "percentile": 90, "min_days": 2,
        }))
        base = ("analyze", str(data_dir / "short.csv"), "old-box", "--catalog", str(data_dir / "catalog.csv"))
        flags = [part for item in ANALYSIS_FLAGS.items() for part in item]
        by_flags = run_json(capsys, *base, *flags)
        by_config = run_json(capsys, *base, "--config", str(config))
        assert by_flags == by_config
        assert [row["target"] for row in by_flags["targets"]] == [0.7]

    def test_fleet_takes_every_analysis_flag(self, capsys, corpus):
        flags = [part for item in ANALYSIS_FLAGS.items() for part in item]
        payload = run_json(capsys, "fleet", str(corpus / "manifest.csv"), "--jobs", "1", *flags)
        assert payload["baseline"] == "static-resized"
        assert payload["targets"] == [0.7]

    @pytest.mark.parametrize("command", [["catalog", "list"], ["synth", "--machines", "1", "--datacenters", "1",
                                                              "--duration-days", "1"]])
    def test_config_with_analysis_keys_serves_every_command(self, capsys, tmp_path, command):
        # values no catalog or synth run reads are not checked by them
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"targets": [7], "baseline": "nope", "min_days": 2, "jobs": 0}))
        if command[0] == "synth":
            command = [*command, "--out", str(tmp_path / "corpus")]
        code, _, err = run(capsys, *command, "--config", str(config))
        assert code == 0, err
        config.write_text(json.dumps({"min_days": 2, "bogus": 1}))
        code, _, err = run(capsys, *command, "--config", str(config))
        assert code == 2
        assert "unknown keys: bogus" in error_payload(err)["message"]

    def test_duplicate_targets_in_config_exit_2(self, capsys, data_dir, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"targets": [0.8, 0.8]}))
        code, _, err = run(
            capsys, "analyze", str(data_dir / "const-04.csv"), "old-box", "--config", str(config),
        )
        assert code == 2
        assert "duplicate target utilization 0.8" in error_payload(err)["message"]

    @pytest.mark.parametrize("command", ["analyze", "fleet"])
    def test_help_shows_every_catalog_and_analysis_default(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "1000")  # no help text is wrapped, at a hyphen or elsewhere
        with pytest.raises(SystemExit):
            main([command, "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        for flag, default in (
            ("--catalog", "$MIGRENT_CATALOG or the bundled catalog"),
            ("--cloud-ref", "newest cloud entry"),
            ("--targets", "0.5,0.6,0.7,0.8,0.9"),
            ("--baseline", "lift-and-shift"),
            ("--idle-fraction", "0.33"),
            ("--linear-mix", "0.36"),
            ("--window-seconds", "300"),
            ("--percentile", "95"),
            ("--min-days", "7"),
        ):
            entry = help_text.split(f" {flag} ", 1)[1].split(" --", 1)[0]  # the flag's line in the listing
            assert entry.endswith(f"(default: {default})"), entry

    def test_synth_help_shows_the_param_range_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main(["synth", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        for what, default in (
            ("trace length range in days", migrent.ParamRanges().duration_days),
            ("sample noise stddev range", migrent.ParamRanges().noise_stddev),
            ("allowed sample periods in seconds", migrent.ParamRanges().sample_periods),
        ):
            assert f"{what} (default: {','.join(f'{v:g}' for v in default)})" in help_text


# A clean hourly trace; each fuzz case breaks one copy of it in one way.
_HOURLY_ROWS = 8 * 24


def _stamp(posix: float, offset_hours: int = 0) -> str:
    local = dt.datetime.fromtimestamp(posix, dt.timezone(dt.timedelta(hours=offset_hours)))
    return local.isoformat()


@st.composite
def malformed_traces(draw) -> bytes:
    """A trace file no reader may accept, as bytes."""
    kind = draw(st.sampled_from(["bytes", "truncated", "non-finite", "huge", "duplicate", "offset", "offset-range"]))
    if kind == "bytes":
        return draw(st.binary(max_size=2048))
    times = POSIX_2016_06_01 + 3600.0 * np.arange(_HOURLY_ROWS)
    if kind == "offset-range":  # the rows moved to year 1 from its first hour, or to year 9999 up to its last
        early = draw(st.booleans())
        times += (STAMP_RANGE[0] if early else STAMP_RANGE[1] - 3600.0 * _HOURLY_ROWS) - times[0]
    rows = [f"{_stamp(t)[:19]}Z,{draw(st.integers(0, 100))}" for t in times]
    i = draw(st.integers(1, _HOURLY_ROWS - 1))
    stamp, percent = rows[i].split(",")
    if kind == "truncated":  # cut inside the stamp or just after the comma
        rows[i] = rows[i][:draw(st.integers(1, len(stamp) + 1))]
    elif kind == "non-finite":
        rows[i] = f"{stamp},{draw(st.sampled_from(['nan', 'NaN', 'inf', '-inf', 'Infinity']))}"
    elif kind == "huge":  # past the hourly span bound, past year 9999, or a far timestamp mid-trace
        big = draw(st.sampled_from(["9999-12-31T23:59:59Z", "99999-01-01T00:00:00Z", "1e300"]))
        i = draw(st.sampled_from([i, _HOURLY_ROWS - 1]))
        rows[i] = f"{big},{percent}"
    elif kind == "duplicate":
        rows[i] = f"{rows[i - 1].split(',')[0]},{percent}"
    elif kind == "offset-range":  # the first or last stamp, its offset moving its instant out of the years 1 to 9999
        hours = draw(st.integers(1, 14))
        i = 0 if early else _HOURLY_ROWS - 1
        rows[i] = f"{rows[i][:19]}{'+' if early else '-'}{hours:02d}:00,{rows[i].split(',')[1]}"
    else:  # the previous instant in another zone, or an offset out of range
        hours = draw(st.integers(-12, 14).filter(bool))
        shifted = _stamp(times[i - 1], hours)
        rows[i] = f"{draw(st.sampled_from([shifted, stamp[:19] + '+24:00']))},{percent}"
    text = "timestamp,cpu_utilization_percent\n" + "\n".join(rows) + "\n"
    return text.encode()


class TestFleetFuzz:
    @settings(max_examples=60, deadline=None)
    @given(bad=st.lists(malformed_traces(), min_size=1, max_size=3), with_good=st.booleans())
    def test_malformed_trace_files_are_excluded(self, bad, with_good):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            lines = ["machine_id,trace_path,cpu_model,datacenter_id"]
            for k, data in enumerate(bad):
                (root / f"bad{k}.csv").write_bytes(data)
                lines.append(f"bad{k},bad{k}.csv,fx-quad-2011,dc0")
            if with_good:
                write_trace(constant_trace(0.4, machine_id="good"), root / "good.csv")
                lines.append("good,good.csv,fx-quad-2011,dc0")
            (root / "manifest.csv").write_text("\n".join(lines) + "\n")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["fleet", str(root / "manifest.csv"), "--jobs", "1", "--targets", "0.8"])
        out, err = out.getvalue(), err.getvalue()
        assert "Traceback" not in out + err
        bad_ids = [f"bad{k}" for k in range(len(bad))]
        if with_good:
            assert code == 0, err
            payload = json.loads(out)
            assert [e["machine_id"] for e in payload["exclusions"]] == bad_ids
            assert [m["machine_id"] for m in payload["machines"]] == ["good"]
        else:
            assert code == 4
            assert out == ""
            assert err.count("\n") == 1
            assert error_payload(err)["type"] == "FleetError"
            assert error_payload(err)["message"] == f"all {len(bad)} machines failed to analyze"


class TestEntrypoints:
    @staticmethod
    def child_env():
        """The environment for a child Python that imports the same `migrent` as this process."""
        package_parent = str(Path(migrent.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_parent, os.environ.get("PYTHONPATH")]))
        return env

    @pytest.mark.parametrize("command", ["analyze", "fleet"])
    def test_target_below_the_floor_is_one_json_error(self, data_dir, corpus, tmp_path, command):
        # a child process, so any numpy warning would reach its stderr
        if command == "analyze":
            args = ["analyze", str(data_dir / "const-04.csv"), "old-box", "--catalog", str(data_dir / "catalog.csv")]
        else:
            args = ["fleet", str(corpus / "manifest.csv"), "--jobs", "1", "--emit-csv", str(tmp_path / "csv")]
        proc = subprocess.run([sys.executable, "-m", "migrent", *args, "--targets", "0.5,1e-308"],
                              capture_output=True, text=True, env=self.child_env())
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.count("\n") == 1
        assert error_payload(proc.stderr) == {
            "type": "MigrentError", "message": "target utilization must be at least 1e-06, got 1e-308",
        }
        assert not (tmp_path / "csv").exists()

    def test_no_arguments_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "migrent", "catalog", "list"],
            capture_output=True,
            text=True,
            env=self.child_env(),
        )
        assert proc.returncode == 0
        assert "(cloud reference)" in proc.stdout

    def test_console_script(self):
        # The repo's part of the console script is the [project.scripts] declaration
        # and the callable it names; the launcher file is written by the installer.
        # Run the launcher an install would write, so no install is needed.
        if sys.version_info >= (3, 11):
            import tomllib
        else:
            tomllib = pytest.importorskip("tomli")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        with pyproject.open("rb") as f:
            target = tomllib.load(f)["project"]["scripts"]["migrent"]
        module, _, attr = target.partition(":")
        launcher = f"import sys; from {module} import {attr}; sys.argv[0] = 'migrent'; sys.exit({attr}())"
        proc = subprocess.run(
            [sys.executable, "-c", launcher, "catalog", "list"],
            capture_output=True,
            text=True,
            env=self.child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert "(cloud reference)" in proc.stdout

    @pytest.mark.skipif(shutil.which("migrent") is None, reason="migrent console script not installed")
    def test_installed_console_script(self):
        proc = subprocess.run(["migrent", "catalog", "list"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "(cloud reference)" in proc.stdout
