"""Fleet manifests, aggregation tables, distribution curves, and CSV output."""

import concurrent.futures
import csv
import dataclasses
import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import migrent.fleet
from migrent import (
    BASELINE_LIFT_AND_SHIFT,
    BASELINE_STATIC_RESIZED,
    BASELINES,
    SCENARIO_NAMES,
    EnergyModel,
    Exclusion,
    FleetError,
    ManifestEntry,
    MachineRecord,
    ManifestError,
    MigrentError,
    ParamRanges,
    ScenarioReport,
    TargetScenarios,
    aggregate,
    analyze_machine,
    analyze_manifest,
    cdf,
    generate_fleet,
    group_by_size,
    load_manifest,
    nearest_rank,
    utilization_by_release,
    write_csv_reports,
    write_fleet,
    write_manifest,
    write_trace,
)

from migrent.report import dumps_stable, format_float

from conftest import ODD_FLOATS, ODD_TEXT, POSIX_2016_06_01, constant_trace, make_trace
from oracles import size_bins_ref


def fake_report(
    machine_id,
    dc,
    ls,
    static=0.5,
    ideal=0.4,
    hourly=0.45,
    peak=0.5,
    cpu="old-box",
    target=0.8,
):
    """Hand-built per-machine report for aggregation tests."""
    combined = None if static is None else ls * static
    vs = {
        BASELINE_LIFT_AND_SHIFT: {"ideal": ideal, "hourly": hourly},
        BASELINE_STATIC_RESIZED: {"ideal": None, "hourly": None},
    }
    row = TargetScenarios(
        target=target,
        lift_and_shift=ls,
        static_resize=static,
        combined=combined,
        autoscale_ideal=ideal,
        autoscale_hourly=hourly,
        autoscale_vs=vs,
    )
    return ScenarioReport(
        machine_id=machine_id,
        cpu_model=cpu,
        datacenter_id=dc,
        baseline=BASELINE_LIFT_AND_SHIFT,
        peak_utilization=peak,
        idle_machine=static is None,
        lift_and_shift=ls,
        targets=(row,),
    )


class TestManifest:
    def test_round_trip(self, tmp_path):
        entries = [
            ManifestEntry("m1", "traces/m1.csv", "old-box", "dc-a"),
            ManifestEntry("m2", "traces/m2.csv", "new-box", "dc-b"),
        ]
        path = tmp_path / "manifest.csv"
        write_manifest(entries, path)
        assert load_manifest(path) == entries

    def test_duplicate_machine_id(self):
        text = (
            "machine_id,trace_path,cpu_model,datacenter_id\n"
            "m1,a.csv,old-box,dc-a\n"
            "m1,b.csv,old-box,dc-a\n"
        )
        with pytest.raises(ManifestError, match="line 3.*line 2") as excinfo:
            load_manifest(io.StringIO(text))
        assert excinfo.value.line == 3

    def test_blank_machine_id_names_line(self):
        text = "machine_id,trace_path,cpu_model,datacenter_id\nm1,a.csv,old-box,dc-a\n ,b.csv,old-box,dc-a\n"
        with pytest.raises(ManifestError, match="line 3: machine_id must be non-empty") as excinfo:
            load_manifest(io.StringIO(text))
        assert excinfo.value.line == 3

    def test_bad_header(self):
        with pytest.raises(ManifestError, match="header"):
            load_manifest(io.StringIO("id,path\nm1,a.csv\n"))

    def test_wrong_field_count(self):
        text = "machine_id,trace_path,cpu_model,datacenter_id\nm1,a.csv,old-box\n"
        with pytest.raises(ManifestError, match="line 2"):
            load_manifest(io.StringIO(text))

    def test_empty_file(self):
        with pytest.raises(ManifestError, match="empty"):
            load_manifest(io.StringIO(""))

    def test_header_only(self):
        with pytest.raises(ManifestError, match="no data rows"):
            load_manifest(io.StringIO("machine_id,trace_path,cpu_model,datacenter_id\n"))

    def test_blank_lines_skipped(self):
        text = "machine_id,trace_path,cpu_model,datacenter_id\n\nm1,a.csv,old-box,dc-a\n\n"
        assert len(load_manifest(io.StringIO(text))) == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(ManifestError, match="no-such"):
            load_manifest(tmp_path / "no-such.csv")


class TestCdf:
    def test_single_value(self):
        assert cdf([0.5]) == [(0.5, 1.0)]

    def test_duplicates_collapse_to_highest_probability(self):
        assert cdf([0.2, 0.4, 0.4, 0.8]) == [(0.2, 0.25), (0.4, 0.75), (0.8, 1.0)]

    def test_input_order_irrelevant(self):
        assert cdf([0.8, 0.2, 0.4, 0.4]) == cdf([0.2, 0.4, 0.4, 0.8])

    def test_empty_rejected(self):
        with pytest.raises(MigrentError):
            cdf([])

    def test_nan_rejected(self):
        with pytest.raises(MigrentError, match="NaN"):
            cdf([float("nan"), 0.5, float("nan")])

    def test_shape_invariants(self):
        rng = np.random.default_rng(11)
        points = cdf(rng.uniform(0, 1, 200).round(2))
        values = [v for v, _ in points]
        probs = [p for _, p in points]
        assert values == sorted(set(values))
        assert probs == sorted(probs)
        assert probs[-1] == 1.0


class TestAggregate:
    def test_no_targets_rejected(self, small_catalog):
        with pytest.raises(ValueError, match="at least one target"):
            aggregate([fake_report("m1", "dc-a", ls=0.5)], [], [], small_catalog)

    def test_out_of_range_target_rejected(self, small_catalog):
        with pytest.raises(ValueError, match=r"target utilization must be in \(0, 1\], got 1.5"):
            aggregate([fake_report("m1", "dc-a", ls=0.5)], [], [0.8, 1.5], small_catalog)

    def test_reads_each_rows_own_autoscale_fields(self, small_catalog):
        plain = fake_report("m1", "dc-a", ls=0.5)
        row = dataclasses.replace(plain.targets[0], autoscale_ideal=0.41)  # autoscale_vs still says 0.4
        report = dataclasses.replace(plain, targets=(row,))
        fleet = aggregate([report], [], [0.8], small_catalog)
        assert fleet.reports == (report,)
        mean = next(m for m in fleet.means if m["scenario"] == "autoscale_ideal")
        assert mean["machine_mean"] == report.scenario_value("autoscale_ideal", 0.8) == 0.41

    def test_machine_and_datacenter_means_weight_differently(self, small_catalog):
        reports = [
            fake_report("m1", "dc-a", ls=0.2),
            fake_report("m2", "dc-a", ls=0.4),
            fake_report("m3", "dc-b", ls=0.9),
        ]
        fleet = aggregate(reports, [], [0.8], small_catalog)
        row = next(m for m in fleet.means if m["scenario"] == "lift_and_shift")
        assert row["machine_mean"] == pytest.approx(0.5, rel=1e-12)
        # dc-a mean 0.3, dc-b mean 0.9 -> 0.6
        assert row["datacenter_mean"] == pytest.approx(0.6, rel=1e-12)
        assert row["machines"] == 3

    def test_none_values_skipped(self, small_catalog):
        reports = [
            fake_report("m1", "dc-a", ls=0.5, static=0.6),
            fake_report("m2", "dc-a", ls=0.5, static=None, ideal=0.0, hourly=0.0, peak=0.0),
        ]
        fleet = aggregate(reports, [], [0.8], small_catalog)
        static_row = next(m for m in fleet.means if m["scenario"] == "static_resize")
        ls_row = next(m for m in fleet.means if m["scenario"] == "lift_and_shift")
        assert static_row["machines"] == 1
        assert static_row["machine_mean"] == pytest.approx(0.6)
        assert ls_row["machines"] == 2

    def test_all_none_scenario_reported_empty(self, small_catalog):
        reports = [fake_report("m1", "dc-a", ls=0.5, static=None, peak=0.0)]
        fleet = aggregate(reports, [], [0.8], small_catalog)
        static_row = next(m for m in fleet.means if m["scenario"] == "static_resize")
        assert static_row["machine_mean"] is None
        assert static_row["machines"] == 0
        assert ("static_resize", 0.8) not in fleet.cdfs

    def test_reports_sorted_by_machine_id(self, small_catalog):
        reports = [fake_report("m2", "dc-a", ls=0.5), fake_report("m1", "dc-a", ls=0.5)]
        fleet = aggregate(reports, [], [0.8], small_catalog)
        assert [r.machine_id for r in fleet.reports] == ["m1", "m2"]

    def test_cdfs_are_built_only_when_read(self, fleet_dir, model):
        from migrent import bundled_catalog

        entries = load_manifest(fleet_dir / "manifest.csv")
        fleet = analyze_manifest(entries, fleet_dir, bundled_catalog(), model, [0.5, 0.8])
        assert "cdfs" not in vars(fleet)
        fleet.write_json(io.StringIO())
        assert "cdfs" not in vars(fleet)
        assert len(fleet.cdfs) == 10
        assert "cdfs" in vars(fleet)

    def test_cdf_per_scenario_and_target(self, small_catalog):
        reports = [fake_report("m1", "dc-a", ls=0.3), fake_report("m2", "dc-a", ls=0.7)]
        fleet = aggregate(reports, [], [0.8], small_catalog)
        assert fleet.cdfs[("lift_and_shift", 0.8)] == [(0.3, 0.5), (0.7, 1.0)]

    def test_empty_reports_rejected(self, small_catalog):
        with pytest.raises(FleetError):
            aggregate([], [Exclusion("m1", "broken")], [0.8], small_catalog)

    def test_to_dict_shape(self, small_catalog):
        fleet = aggregate(
            [fake_report("m1", "dc-a", ls=0.5)],
            [Exclusion("m2", "missing trace")],
            [0.8],
            small_catalog,
        )
        d = fleet.to_dict()
        assert list(d) == [
            "baseline",
            "targets",
            "machines_analyzed",
            "machines_excluded",
            "mean_table",
            "size_bins",
            "utilization_by_release",
            "exclusions",
            "machines",
        ]
        assert d["machines_analyzed"] == 1
        assert d["machines_excluded"] == 1
        assert d["exclusions"] == [{"machine_id": "m2", "reason": "missing trace"}]


def reference_tables(reports, targets, catalog):
    """The fleet tables by a plain scan of every report for every cell.

    Machines go in machine-id order and datacenters in the order of their
    first machine, idle machines included, so each mean sums its values in
    the order ``aggregate`` must keep.
    """
    reports = sorted(reports, key=lambda r: r.machine_id)
    by_dc = {}
    for r in reports:
        by_dc.setdefault(r.datacenter_id or "unknown", []).append(r)

    def present(group, scenario, target):
        return [v for r in group if (v := r.scenario_value(scenario, target)) is not None]

    means, cdfs = [], {}
    for target in targets:
        for scenario in SCENARIO_NAMES:
            values = present(reports, scenario, target)
            dc_means = [float(np.mean(vs)) for g in by_dc.values() if (vs := present(g, scenario, target))]
            means.append({
                "target": target,
                "scenario": scenario,
                "machine_mean": float(np.mean(values)) if values else None,
                "datacenter_mean": float(np.mean(dc_means)) if dc_means else None,
                "machines": len(values),
            })
            if values:
                cdfs[(scenario, target)] = cdf(values)

    dc_rows = sorted((len(g), dc, float(np.mean([r.lift_and_shift for r in g]))) for dc, g in by_dc.items())
    size_bins = []
    # array_split gives the earlier bins the remainder
    for b, chunk in enumerate(np.array_split(np.arange(len(dc_rows)), migrent.fleet.DEFAULT_SIZE_BINS)):
        if chunk.size:
            rows = [dc_rows[i] for i in chunk]
            fractions = [row[2] for row in rows]
            size_bins.append({
                "bin": b + 1, "datacenters": len(rows), "machines": sum(row[0] for row in rows),
                "mean": float(np.mean(fractions)), "min": min(fractions), "max": max(fractions),
            })

    by_year = {}
    for r in reports:
        by_year.setdefault(catalog.lookup(r.cpu_model).release_date.year, []).append(r.peak_utilization)
    by_release = [
        {"release_year": year, "machines": len(peaks), "mean": float(np.mean(peaks)),
         **{f"p{q}": nearest_rank(peaks, float(q)) for q in (10, 25, 75, 90)}}
        for year, peaks in sorted(by_year.items())
    ]
    return means, cdfs, size_bins, by_release


class TestAggregateDifferential:
    # (datacenter, CPU) per machine, in machine-id order: nine datacenters of
    # one to four machines, one of them unnamed; m00 is idle and first in dc-c,
    # so dc-c comes first among the datacenters of every column. Every machine
    # in dc-f and dc-h is idle, so their resize columns hold no value.
    PLACEMENT = [
        ("dc-c", "old-box"), ("dc-a", "mid-box"), ("dc-b", "new-box"), ("dc-c", "mid-box"),
        ("dc-d", "old-box"), ("dc-a", "new-box"), (None, "old-box"), ("dc-e", "mid-box"),
        ("dc-b", "old-box"), ("dc-f", "new-box"), ("dc-c", "new-box"), ("dc-h", "old-box"),
        ("dc-a", "old-box"), ("dc-c", "mid-box"), ("dc-d", "new-box"), ("dc-e", "old-box"),
        ("dc-h", "mid-box"), ("dc-g", "old-box"),
    ]
    IDLE = {"m00", "m09", "m11", "m16"}

    def traces(self):
        rng = np.random.default_rng(11)
        times = POSIX_2016_06_01 + np.arange(8 * 144) * 600.0
        for i, (dc, cpu) in enumerate(self.PLACEMENT):
            machine_id = f"m{i:02d}"
            values = rng.uniform(0.0, rng.uniform(0.1, 1.0), times.size)
            if machine_id in self.IDLE:
                values[:] = 0.0
            yield MachineRecord(machine_id, make_trace(times, values, machine_id), cpu, dc)

    def reports(self, catalog, baseline):
        reports = [analyze_machine(r, (0.5, 0.8), EnergyModel(), catalog, baseline=baseline) for r in self.traces()]
        return reports[::-1]  # aggregate sorts them

    def check(self, fleet, reports, targets, catalog):
        means, cdfs, size_bins, by_release = reference_tables(reports, targets, catalog)
        assert list(fleet.means) == means
        assert fleet.cdfs == cdfs
        assert list(fleet.size_bins) == size_bins
        assert list(fleet.utilization_by_release) == by_release
        assert any(m["machines"] < len(reports) for m in means)  # the idle machines' None values

    @pytest.mark.parametrize("baseline", BASELINES)
    def test_matches_plain_scan_exactly(self, small_catalog, baseline):
        reports = self.reports(small_catalog, baseline)
        assert sum(r.idle_machine for r in reports) == len(self.IDLE)
        targets = [0.8, 0.5]  # the reverse of the reports' rows
        self.check(aggregate(reports, [], targets, small_catalog, baseline), reports, targets, small_catalog)

    def test_large_datacenters_match_plain_scan_exactly(self, small_catalog):
        # numpy sums a row of 8 or more in 8 partial sums, so this catches a mean taken over a column-major copy
        rng = np.random.default_rng(5)
        reports = [
            fake_report(f"m{i:02d}", f"dc-{i % 2}", ls=ls, static=None if static < 0.2 else static, ideal=ideal,
                        hourly=hourly)
            for i, (ls, static, ideal, hourly) in enumerate(rng.uniform(0.0, 1.0, (40, 4)).tolist())
        ]
        self.check(aggregate(reports, [], [0.8], small_catalog), reports, [0.8], small_catalog)

    @pytest.mark.parametrize("baseline", BASELINES)
    def test_manifest_columns_match_plain_scan_exactly(self, small_catalog, baseline, tmp_path):
        entries = []
        for record in self.traces():
            write_trace(record.trace, tmp_path / f"{record.machine_id}.csv")
            entries.append(ManifestEntry(record.machine_id, f"{record.machine_id}.csv", record.on_prem_cpu,
                                         record.datacenter_id or ""))
        targets = [0.8, 0.5]
        fleet = analyze_manifest(entries[::-1], tmp_path, small_catalog, EnergyModel(), targets, baseline)
        assert sum(r.idle_machine for r in fleet.reports) == len(self.IDLE)
        self.check(fleet, fleet.reports, targets, small_catalog)
        dc_h = [r for r in fleet.reports if r.datacenter_id == "dc-h"]
        assert len(dc_h) == 2 and all(r.idle_machine for r in dc_h)

    def test_missing_target_raises_key_error(self, small_catalog):
        reports = self.reports(small_catalog, BASELINE_LIFT_AND_SHIFT)
        with pytest.raises(KeyError, match="target 0.3 not in report for m00"):
            aggregate(reports, [], [0.8, 0.3], small_catalog)


FRACTIONS = st.one_of(st.sampled_from(ODD_FLOATS), st.floats(-1e6, 1e6, allow_nan=False))
TEXTS = st.one_of(st.sampled_from(ODD_TEXT), st.text(max_size=8))


@st.composite
def fleets(draw):
    """Canonical reports, as analyze_machine shapes them, with exclusions and targets."""
    targets = draw(st.lists(st.floats(0.001, 1.0), min_size=1, max_size=3, unique_by=lambda t: f"{t:.6g}"))
    baseline = draw(st.sampled_from(BASELINES))
    ids = draw(st.lists(TEXTS.filter(bool), min_size=1, max_size=5, unique=True))
    reports = []
    for machine_id in ids:
        idle = draw(st.booleans())
        ls = draw(FRACTIONS)
        rows = []
        for target in targets:
            cells = [None if idle and i not in (2, 3) else draw(st.one_of(st.none(), FRACTIONS)) for i in range(6)]
            vs = {b: {"ideal": cells[i], "hourly": cells[i + 1]} for i, b in zip((2, 4), BASELINES)}
            rows.append(TargetScenarios(target, ls, cells[0], cells[1], *vs[baseline].values(), vs))
        reports.append(ScenarioReport(
            machine_id, draw(st.sampled_from(["old-box", "mid-box", "new-box"])),
            draw(st.one_of(st.none(), TEXTS)), baseline, draw(FRACTIONS), idle, ls, tuple(rows),
            tuple(draw(st.lists(TEXTS, max_size=2))),
        ))
    exclusions = [Exclusion(machine_id, reason) for machine_id, reason in draw(st.lists(st.tuples(TEXTS, TEXTS)))]
    return reports, exclusions, targets, baseline


class TestStreamingWriter:
    # the catalog is only read, so one instance may serve every example
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(fleet=fleets())
    def test_matches_dumps_stable(self, small_catalog, fleet):
        reports, exclusions, targets, baseline = fleet
        summary = aggregate(reports, exclusions, targets, small_catalog, baseline)
        assert summary.reports == tuple(sorted(reports, key=lambda r: r.machine_id))  # the columns lose nothing
        out = io.StringIO()
        summary.write_json(out)
        assert out.getvalue() == dumps_stable(summary.to_dict())

    def test_refuses_infinity_as_dumps_stable_does(self, small_catalog):
        summary = aggregate([fake_report("m1", "dc-a", ls=0.5, ideal=float("inf"))], [], [0.8], small_catalog)
        with pytest.raises(ValueError, match="not JSON compliant"):
            dumps_stable(summary.to_dict())
        with pytest.raises(ValueError, match="not JSON compliant"):
            summary.write_json(io.StringIO())


class TestGroupBySize:
    def make_dcs(self, sizes, ls_by_dc=None):
        reports = []
        for d, size in enumerate(sizes):
            dc = f"dc{d:03d}"
            ls = ls_by_dc[dc] if ls_by_dc else 0.5
            for i in range(size):
                reports.append(fake_report(f"m-{dc}-{i}", dc, ls=ls))
        return reports

    def test_seven_datacenters_seven_bins(self):
        bins = group_by_size(self.make_dcs([1, 2, 3, 4, 5, 6, 7]), 7)
        assert [b["datacenters"] for b in bins] == [1] * 7
        assert [b["machines"] for b in bins] == [1, 2, 3, 4, 5, 6, 7]
        assert [b["bin"] for b in bins] == [1, 2, 3, 4, 5, 6, 7]

    def test_remainder_goes_to_earlier_bins(self):
        bins = group_by_size(self.make_dcs([1, 2, 3, 4, 5, 6, 7, 8]), 7)
        assert [b["datacenters"] for b in bins] == [2, 1, 1, 1, 1, 1, 1]
        assert bins[0]["machines"] == 3  # the two smallest datacenters

    def test_fewer_datacenters_than_bins(self):
        bins = group_by_size(self.make_dcs([4, 9, 2]), 7)
        assert len(bins) == 3
        assert [b["machines"] for b in bins] == [2, 4, 9]

    def test_single_datacenter(self):
        bins = group_by_size(self.make_dcs([5]), 7)
        assert len(bins) == 1
        assert bins[0] == {
            "bin": 1,
            "datacenters": 1,
            "machines": 5,
            "mean": 0.5,
            "min": 0.5,
            "max": 0.5,
        }

    def test_spread_over_datacenter_means(self):
        ls_by_dc = {"dc000": 0.3, "dc001": 0.5, "dc002": 0.9}
        bins = group_by_size(self.make_dcs([2, 2, 2], ls_by_dc), 1)
        assert len(bins) == 1
        assert bins[0]["mean"] == pytest.approx((0.3 + 0.5 + 0.9) / 3)
        assert bins[0]["min"] == 0.3
        assert bins[0]["max"] == 0.9

    def test_equal_sizes_tie_break_on_datacenter_id(self):
        ls_by_dc = {"dc000": 0.9, "dc001": 0.1}
        bins = group_by_size(self.make_dcs([3, 3], ls_by_dc), 2)
        assert bins[0]["mean"] == pytest.approx(0.9)  # dc000 sorts first
        assert bins[1]["mean"] == pytest.approx(0.1)

    def test_invalid_bin_count(self):
        with pytest.raises(ValueError):
            group_by_size(self.make_dcs([1]), 0)

    def test_no_machines_no_bins(self):
        assert group_by_size([], 7) == []

    @settings(max_examples=100, deadline=None)
    @given(sizes=st.lists(st.integers(1, 3), max_size=45), bin_count=st.integers(1, 50), data=st.data())
    def test_matches_the_cursor_loop(self, sizes, bin_count, data):
        ls_by_dc = {f"dc{d:03d}": data.draw(FRACTIONS) for d in range(len(sizes))}
        reports = self.make_dcs(sizes, ls_by_dc)
        machines = [(r.datacenter_id, r.lift_and_shift) for r in reports]
        assert group_by_size(reports, bin_count) == size_bins_ref(machines, bin_count)


class TestUtilizationByRelease:
    def test_percentiles_by_year(self, small_catalog):
        peaks = [i / 10 for i in range(1, 11)]
        reports = [
            fake_report(f"m{i}", "dc-a", ls=0.5, peak=p, cpu="old-box")
            for i, p in enumerate(peaks)
        ]
        rows = utilization_by_release(reports, small_catalog)
        assert len(rows) == 1
        row = rows[0]
        assert row["release_year"] == 2010
        assert row["machines"] == 10
        assert row["mean"] == pytest.approx(0.55)
        assert row["p10"] == 0.1
        assert row["p25"] == 0.3
        assert row["p75"] == 0.8
        assert row["p90"] == 0.9

    def test_years_sorted(self, small_catalog):
        reports = [
            fake_report("m1", "dc-a", ls=0.5, peak=0.4, cpu="new-box"),
            fake_report("m2", "dc-a", ls=0.5, peak=0.6, cpu="old-box"),
        ]
        rows = utilization_by_release(reports, small_catalog)
        assert [r["release_year"] for r in rows] == [2010, 2015]


@pytest.fixture(scope="module")
def fleet_dir(tmp_path_factory):
    """A small on-disk synthetic fleet, long enough for peak estimation."""
    out = tmp_path_factory.mktemp("fleet")
    ranges = ParamRanges(duration_days=(8, 10))
    fleet = generate_fleet(9, machines=6, datacenters=2, ranges=ranges)
    write_fleet(fleet, out)
    return out


class TestAnalyzeManifest:
    def test_full_run(self, fleet_dir, model):
        from migrent import bundled_catalog

        entries = load_manifest(fleet_dir / "manifest.csv")
        fleet = analyze_manifest(entries, fleet_dir, bundled_catalog(), model, [0.5, 0.8])
        assert len(fleet.reports) == 6
        assert fleet.exclusions == ()
        assert fleet.targets == (0.5, 0.8)
        assert len(fleet.means) == 10  # 5 scenarios x 2 targets
        for m in fleet.means:
            if m["scenario"] == "lift_and_shift":
                assert 0.0 < m["machine_mean"] < 2.0

    def test_partial_failures_become_exclusions(self, fleet_dir, model):
        from migrent import bundled_catalog

        entries = load_manifest(fleet_dir / "manifest.csv")
        broken = entries[:3] + [
            ManifestEntry("ghost", "traces/ghost.csv", entries[0].cpu_model, "dc-x"),
            ManifestEntry("wrong-cpu", entries[0].trace_path, "not-a-cpu", "dc-x"),
        ]
        fleet = analyze_manifest(broken, fleet_dir, bundled_catalog(), model, [0.8])
        assert len(fleet.reports) == 3
        reasons = {e.machine_id: e.reason for e in fleet.exclusions}
        assert set(reasons) == {"ghost", "wrong-cpu"}
        assert "ghost.csv" in reasons["ghost"]
        assert "not-a-cpu" in reasons["wrong-cpu"]

    def test_window_below_stamp_resolution_is_excluded(self, fleet_dir, tmp_path, model):
        from migrent import bundled_catalog

        # 1e-8 s resolves stamps of 1970's first days but not of 2016
        write_trace(constant_trace(0.4, start=0.0, machine_id="epoch"), tmp_path / "epoch.csv")
        good = load_manifest(fleet_dir / "manifest.csv")[0]
        (tmp_path / "m2016.csv").symlink_to(fleet_dir / good.trace_path)
        entries = [ManifestEntry("m2016", "m2016.csv", good.cpu_model, "dc-x"),
                   ManifestEntry("epoch", "epoch.csv", good.cpu_model, "dc-x")]
        fleet = analyze_manifest(entries, tmp_path, bundled_catalog(), model, [0.8], window_seconds=1e-8)
        assert [r.machine_id for r in fleet.reports] == ["epoch"]
        [exclusion] = fleet.exclusions
        assert exclusion.machine_id == "m2016"
        assert "below the timestamps' resolution" in exclusion.reason

    def test_all_failures_raise(self, fleet_dir, model):
        from migrent import bundled_catalog

        entries = [ManifestEntry("ghost", "traces/ghost.csv", "fx-quad-2011", "dc-x")]
        with pytest.raises(FleetError) as excinfo:
            analyze_manifest(entries, fleet_dir, bundled_catalog(), model, [0.8])
        assert len(excinfo.value.exclusions) == 1

    def test_parallel_matches_sequential(self, fleet_dir, model):
        from migrent import bundled_catalog

        entries = load_manifest(fleet_dir / "manifest.csv")
        catalog = bundled_catalog()
        seq = analyze_manifest(entries, fleet_dir, catalog, model, [0.8], jobs=1)
        par = analyze_manifest(entries, fleet_dir, catalog, model, [0.8], jobs=2)
        assert seq.to_dict() == par.to_dict()

    @pytest.mark.parametrize("setting, value, message", [
        pytest.param("jobs", 0, "jobs must be", id="jobs"),
        pytest.param("targets", [2.0], "target utilization must be", id="targets"),
        pytest.param("baseline", "no-such-baseline", "baseline must be", id="baseline"),
        pytest.param("window_seconds", 0.0, "window_seconds must be", id="window_seconds"),
        pytest.param("percentile", 0.0, "percentile must be", id="percentile"),
        pytest.param("min_days", 0, "min_days must be", id="min_days"),
    ])
    def test_invalid_setting(self, tmp_path, model, setting, value, message):
        from migrent import bundled_catalog

        # no trace exists, so only an up-front check can name the setting
        entries = [ManifestEntry(f"ghost{i}", f"traces/ghost{i}.csv", "fx-quad-2011", "dc-x") for i in range(2)]
        settings = {"targets": [0.8], setting: value}
        with pytest.raises(ValueError, match=message):
            analyze_manifest(entries, tmp_path, bundled_catalog(), model, **settings)

    @pytest.fixture
    def pool_calls(self, monkeypatch):
        """The pool size and the chunk size each fleet run asks for; the work runs in this process."""
        calls = []

        class RecordingPool:
            def __init__(self, max_workers):
                calls.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, items, chunksize=1):
                calls.append(chunksize)
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)  # fleet imports it on use
        return calls

    def test_pool_has_no_more_workers_than_rows(self, fleet_dir, model, pool_calls):
        from migrent import bundled_catalog

        entries = load_manifest(fleet_dir / "manifest.csv")[:3]
        fleet = analyze_manifest(entries, fleet_dir, bundled_catalog(), model, [0.8], jobs=64)
        assert pool_calls == [3, 1]
        assert len(fleet.reports) == 3

    @pytest.mark.parametrize("rows, chunksize", [
        pytest.param(12, 2, id="12-rows-6-and-6"),  # a fixed chunk of 8 split them 8 + 4
        pytest.param(20, 3, id="20-rows-four-chunks-per-worker-rounded-up"),
    ])
    def test_chunks_are_balanced_over_workers(self, fleet_dir, model, pool_calls, rows, chunksize):
        from migrent import bundled_catalog

        traces = load_manifest(fleet_dir / "manifest.csv")
        entries = [ManifestEntry(f"m{i:02d}", traces[i % len(traces)].trace_path, traces[0].cpu_model, "dc-a")
                   for i in range(rows)]
        fleet = analyze_manifest(entries, fleet_dir, bundled_catalog(), model, [0.8], jobs=2)
        assert pool_calls == [2, chunksize]
        assert len(fleet.reports) == rows


def check_cdf_files(fleet, out, written):
    """Each cell with a value has a file holding ``cdf`` of those values, read from ``fleet.reports``."""
    expected = {}
    for target in fleet.targets:
        for scenario in SCENARIO_NAMES:
            values = [v for r in fleet.reports if (v := r.scenario_value(scenario, target)) is not None]
            if values:
                lines = [f"{format_float(v)},{format_float(p)}\n" for v, p in cdf(values)]
                expected[f"cdf_{scenario}_{target:g}.csv"] = "value,cumulative_probability\n" + "".join(lines)
    tables = {"mean_table.csv", "size_bins.csv", "util_by_release.csv"}
    assert {p.name for p in written} == tables | set(expected)
    assert {p.name for p in out.iterdir()} == tables | set(expected)
    for name, text in expected.items():
        assert (out / name).read_text() == text, name
    return expected


class TestWriteCsvReports:
    def test_file_set_and_contents(self, fleet_dir, model, tmp_path):
        from migrent import bundled_catalog

        entries = load_manifest(fleet_dir / "manifest.csv")
        fleet = analyze_manifest(entries, fleet_dir, bundled_catalog(), model, [0.5, 0.8])
        out = tmp_path / "csv"
        written = write_csv_reports(fleet, out)
        assert len(check_cdf_files(fleet, out, written)) == 10

        with (out / "mean_table.csv").open() as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["target", "scenario", "machine_mean", "datacenter_mean", "machines"]
        assert len(rows) == 1 + len(fleet.means)

    def test_writing_keeps_no_cdf_on_the_report(self, fleet_dir, model, tmp_path):
        from migrent import bundled_catalog

        entries = load_manifest(fleet_dir / "manifest.csv")
        fleet = analyze_manifest(entries, fleet_dir, bundled_catalog(), model, [0.5, 0.8])
        check_cdf_files(fleet, tmp_path, write_csv_reports(fleet, tmp_path))
        assert "cdfs" not in vars(fleet)

    def test_cdf_files_skip_undefined_values(self, small_catalog, tmp_path):
        reports = [
            fake_report("m1", "dc-a", ls=0.3, static=0.6, hourly=None),
            fake_report("m2", "dc-b", ls=0.7, static=None, ideal=0.0, hourly=None, peak=0.0),  # idle
            fake_report("m3", "dc-a", ls=0.3, static=0.5, hourly=None),
        ]
        fleet = aggregate(reports, [], [0.8], small_catalog)
        expected = check_cdf_files(fleet, tmp_path, write_csv_reports(fleet, tmp_path))
        assert "cdf_autoscale_hourly_0.8.csv" not in expected  # no machine has a value
        assert expected["cdf_static_resize_0.8.csv"] == "value,cumulative_probability\n0.5,0.5\n0.6,1\n"

    def test_table_headers_are_the_row_keys(self, small_catalog, tmp_path):
        fleet = aggregate([fake_report("m1", "dc-a", ls=0.5)], [], [0.8], small_catalog)
        write_csv_reports(fleet, tmp_path)
        for name, rows in (
            ("mean_table", fleet.means),
            ("size_bins", fleet.size_bins),
            ("util_by_release", fleet.utilization_by_release),
        ):
            with (tmp_path / f"{name}.csv").open() as f:
                assert next(csv.reader(f)) == list(rows[0])

    def test_targets_sharing_a_file_name_write_nothing(self, fleet_dir, model, tmp_path):
        from migrent import bundled_catalog

        entries = load_manifest(fleet_dir / "manifest.csv")
        fleet = analyze_manifest(entries, fleet_dir, bundled_catalog(), model, [0.5, 0.5000001])
        assert len(fleet.cdfs) == 10  # each would be written to cdf_<scenario>_0.5.csv
        with pytest.raises(ValueError, match="duplicate target utilization 0.5"):
            write_csv_reports(fleet, tmp_path / "csv")
        assert not (tmp_path / "csv").exists()

    def test_none_serializes_as_empty_cell(self, small_catalog, tmp_path):
        fleet = aggregate(
            [fake_report("m1", "dc-a", ls=0.5, static=None, ideal=0.0, hourly=0.0, peak=0.0)],
            [],
            [0.8],
            small_catalog,
        )
        write_csv_reports(fleet, tmp_path)
        with (tmp_path / "mean_table.csv").open() as f:
            rows = {r[1]: r for r in csv.reader(f)}
        assert rows["static_resize"][2] == ""
