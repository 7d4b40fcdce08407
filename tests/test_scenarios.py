"""Per-machine migration scenarios: resizing, auto-scaling, and the full report."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from migrent import (
    BASELINE_LIFT_AND_SHIFT,
    BASELINE_STATIC_RESIZED,
    BASELINES,
    CatalogError,
    EnergyModel,
    IdleMachineError,
    InsufficientDataError,
    MachineRecord,
    MigrentError,
    SynthParams,
    TraceError,
    analyze_machine,
    autoscale_hourly_fraction,
    autoscale_ideal_fraction,
    combined_fraction,
    estimate_peak,
    generate_trace,
    hourly_capacities,
    integrate,
    lift_and_shift_fraction,
    relative_power,
    scaled_power,
    smooth,
    static_resize_fraction,
)
from migrent.scenarios import (
    _MAX_HOURS,
    MIN_TARGET,
    _capacity_energy,
    _hour_moments,
    _resized_energy,
    _sample_moments,
    check_targets,
    machine_columns,
)

from conftest import POSIX_2016_06_01, constant_trace, far_stamp_trace, make_trace
from oracles import (
    curve,
    hour_moments_ref,
    hourly_capacities_ref,
    hourly_fraction_ref,
    ideal_fraction_ref,
    machine_values_ref,
    random_walk_trace,
    sample_moments_ref,
    smooth_vectorized_ref,
    static_fraction_ref,
)


def two_level_trace(low=0.2, high=0.8, machine_id="two-level"):
    """Half an hour at `low`, half an hour at `high`, near-instant switch."""
    eps = 1e-6
    return make_trace(
        [0.0, 1800.0, 1800.0 + eps, 3600.0 + eps],
        [low, low, high, high],
        machine_id=machine_id,
    )


class TestStaticResize:
    def test_constant_trace_known_value(self, model):
        trace = constant_trace(0.4)
        got = static_resize_fraction(trace, 0.8, model, peak=0.4)
        # capacity 0.5, so relative_power(0.8) * 0.5 / relative_power(0.4)
        expected = relative_power(model, 0.8) * 0.5 / relative_power(model, 0.4)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.805303, abs=1e-6)

    def test_target_equal_to_peak_is_unity(self, model):
        trace = constant_trace(0.55)
        assert static_resize_fraction(trace, 0.55, model, peak=0.55) == pytest.approx(1.0, rel=1e-12)

    def test_idle_machine_rejected(self, model):
        trace = constant_trace(0.0)
        with pytest.raises(IdleMachineError):
            static_resize_fraction(trace, 0.8, model, peak=0.0)

    def test_invalid_target_rejected(self, model):
        trace = constant_trace(0.4)
        for bad in (0.0, -0.2, 1.5):
            for peak in (0.4, 2.0):  # a bad target is reported before a bad peak
                with pytest.raises(ValueError, match=f"^target utilization must be in \\(0, 1\\], got {bad}$"):
                    static_resize_fraction(trace, bad, model, peak=peak)

    def test_monotone_in_target_below_marginal_threshold(self, model):
        trace = constant_trace(0.4)
        fracs = [static_resize_fraction(trace, t, model, peak=0.4) for t in (0.3, 0.5, 0.7, 0.85)]
        assert all(a > b for a, b in zip(fracs, fracs[1:]))

    def test_upsizing_wastes_energy(self, model):
        trace = constant_trace(0.4)
        assert static_resize_fraction(trace, 0.05, model, peak=0.4) > 1.0

    def test_matches_reference_on_random_traces(self, model):
        rng = np.random.default_rng(101)
        for _ in range(20):
            t, u = random_walk_trace(rng, 400)
            trace = make_trace(t, u)
            peak = float(u.max())
            target = float(rng.uniform(0.4, 0.95))
            got = static_resize_fraction(trace, target, model, peak=peak)
            want = static_fraction_ref(t, u, target, peak, 0.33, 0.36)
            assert got == pytest.approx(want, rel=1e-3)

    def test_time_rescaling_invariance(self, model):
        rng = np.random.default_rng(7)
        t, u = random_walk_trace(rng, 300)
        stretched = t[0] + 3.0 * (t - t[0])
        a = static_resize_fraction(make_trace(t, u), 0.7, model, peak=float(u.max()))
        b = static_resize_fraction(make_trace(stretched, u), 0.7, model, peak=float(u.max()))
        assert a == pytest.approx(b, rel=1e-9)


class TestCombined:
    def test_product_of_parts(self, model, small_catalog):
        trace = constant_trace(0.4)
        on_prem = small_catalog.lookup("old-box")
        cloud = small_catalog.cloud_spec
        got = combined_fraction(trace, 0.8, model, on_prem, cloud, peak=0.4)
        ls = lift_and_shift_fraction(on_prem, cloud)
        static = static_resize_fraction(trace, 0.8, model, peak=0.4)
        assert got == pytest.approx(ls * static, rel=1e-15)

    def test_identical_hardware_reduces_to_static(self, model, small_catalog):
        trace = constant_trace(0.4)
        cloud = small_catalog.cloud_spec
        got = combined_fraction(trace, 0.8, model, cloud, cloud, peak=0.4)
        assert got == pytest.approx(static_resize_fraction(trace, 0.8, model, peak=0.4), rel=1e-15)

    def test_idle_machine_rejected(self, model, small_catalog):
        on_prem, cloud = small_catalog.lookup("old-box"), small_catalog.cloud_spec
        with pytest.raises(IdleMachineError):
            combined_fraction(constant_trace(0.0), 0.8, model, on_prem, cloud, peak=0.0)


class TestAutoscaleIdeal:
    def test_two_level_trace_known_value(self, model):
        trace = two_level_trace()
        got = autoscale_ideal_fraction(trace, 0.8, model)
        # demand is (0.2 + 0.8)/2 for an hour; instance always runs at 0.8
        num = relative_power(model, 0.8) / 0.8 * 0.5 * 3600.0
        den = (relative_power(model, 0.2) + relative_power(model, 0.8)) * 1800.0
        assert got == pytest.approx(num / den, abs=1e-6)
        assert got == pytest.approx(0.835642, abs=1e-5)

    def test_constant_trace_at_target_is_unity(self, model):
        trace = constant_trace(0.6)
        assert autoscale_ideal_fraction(trace, 0.6, model) == pytest.approx(1.0, rel=1e-12)

    def test_zero_demand_gives_zero(self, model):
        trace = constant_trace(0.0)
        assert autoscale_ideal_fraction(trace, 0.8, model) == 0.0

    def test_static_baseline_rejects_idle_peak(self, model):
        trace = constant_trace(0.0)
        with pytest.raises(IdleMachineError):
            autoscale_ideal_fraction(trace, 0.8, model, BASELINE_STATIC_RESIZED, peak=0.0)

    def test_unknown_baseline_rejected(self, model):
        with pytest.raises(ValueError):
            autoscale_ideal_fraction(constant_trace(0.4), 0.8, model, "other")

    def test_matches_reference_on_random_traces(self, model):
        rng = np.random.default_rng(102)
        for _ in range(20):
            t, u = random_walk_trace(rng, 400)
            trace = make_trace(t, u)
            target = float(rng.uniform(0.4, 0.95))
            got = autoscale_ideal_fraction(trace, target, model)
            want = ideal_fraction_ref(t, u, target, 0.33, 0.36)
            assert got == pytest.approx(want, rel=1e-3)

    def test_static_resized_baseline_matches_reference(self, model):
        rng = np.random.default_rng(103)
        t, u = random_walk_trace(rng, 400)
        trace = make_trace(t, u)
        peak = float(u.max())
        got = autoscale_ideal_fraction(trace, 0.7, model, BASELINE_STATIC_RESIZED, peak=peak)
        want = ideal_fraction_ref(t, u, 0.7, 0.33, 0.36, baseline="static-resized", peak=peak)
        assert got == pytest.approx(want, rel=1e-3)

    def test_time_rescaling_invariance(self, model):
        rng = np.random.default_rng(8)
        t, u = random_walk_trace(rng, 300)
        stretched = t[0] + 2.0 * (t - t[0])
        a = autoscale_ideal_fraction(make_trace(t, u), 0.7, model)
        b = autoscale_ideal_fraction(make_trace(stretched, u), 0.7, model)
        assert a == pytest.approx(b, rel=1e-9)


class TestAutoscaleHourly:
    def test_two_hour_trace_known_value(self, model):
        eps = 1e-6
        trace = make_trace(
            [0.0, 3600.0 - eps, 3600.0, 7200.0 - eps],
            [0.2, 0.2, 0.8, 0.8],
        )
        starts, caps = hourly_capacities(trace, 0.8)
        assert starts.tolist() == [0.0, 3600.0]
        assert caps == pytest.approx([0.25, 1.0], abs=1e-9)
        got = autoscale_hourly_fraction(trace, 0.8, model)
        # each hour runs flat at 0.8 on its own capacity
        num = relative_power(model, 0.8) * (0.25 + 1.0) * 3600.0
        den = (relative_power(model, 0.2) + relative_power(model, 0.8)) * 3600.0
        assert got == pytest.approx(num / den, abs=1e-6)
        assert got == pytest.approx(0.835642, abs=1e-5)

    def test_constant_trace_equals_static(self, model):
        trace = constant_trace(0.4)
        hourly = autoscale_hourly_fraction(trace, 0.8, model)
        static = static_resize_fraction(trace, 0.8, model, peak=0.4)
        assert hourly == pytest.approx(static, rel=1e-12)

    def test_zero_hours_are_powered_off(self, model):
        # hour 0 idle, hour 1 steady at 0.5: only hour 1 consumes energy
        t = np.array([0.0, 3599.0, 3600.0, 7199.0])
        u = np.array([0.0, 0.0, 0.5, 0.5])
        trace = make_trace(t, u)
        got = autoscale_hourly_fraction(trace, 0.5, model)
        num = relative_power(model, 0.5) * 3599.0
        den = (
            relative_power(model, 0.0) * 3599.0
            + 0.5 * (relative_power(model, 0.0) + relative_power(model, 0.5))
            + relative_power(model, 0.5) * 3599.0
        )
        assert got == pytest.approx(num / den, rel=1e-12)

    def test_all_zero_trace_gives_zero(self, model):
        assert autoscale_hourly_fraction(constant_trace(0.0), 0.8, model) == 0.0

    def test_static_baseline_rejects_idle_peak(self, model):
        with pytest.raises(IdleMachineError):
            autoscale_hourly_fraction(constant_trace(0.0), 0.8, model, BASELINE_STATIC_RESIZED, peak=0.0)

    def test_span_bound(self, model):
        # the hourly split allocates per clock hour, so the span is bounded before it allocates
        at_bound = make_trace([0.0, (_MAX_HOURS - 1) * 3600.0], [0.2, 0.4])
        assert hourly_capacities(at_bound, 0.8)[0].size == _MAX_HOURS
        assert autoscale_hourly_fraction(at_bound, 0.8, model) > 0.0
        over = make_trace([0.0, _MAX_HOURS * 3600.0], [0.2, 0.4])
        with pytest.raises(TraceError, match=f"spans {_MAX_HOURS + 1} clock hours"):
            hourly_capacities(over, 0.8)

    def test_eleven_year_span_rejected(self, model):
        with pytest.raises(TraceError, match="clock hours"):
            autoscale_hourly_fraction(far_stamp_trace(), 0.8, model)

    def test_gap_hour_capacity_from_interpolation(self, model):
        # no samples in hour 1; capacity falls back to the interpolated ends
        t = np.array([0.0, 3000.0, 7500.0, 7800.0])
        u = np.array([0.2, 0.2, 0.6, 0.6])
        starts, caps = hourly_capacities(make_trace(t, u), 0.5)
        assert starts.tolist() == [0.0, 3600.0, 7200.0]
        u_at_3600 = np.interp(3600.0, t, u)
        u_at_7200 = np.interp(7200.0, t, u)
        assert caps[1] == pytest.approx(max(u_at_3600, u_at_7200) / 0.5, rel=1e-12)

    def test_matches_reference_on_random_traces(self, model):
        rng = np.random.default_rng(104)
        for _ in range(10):
            t, u = random_walk_trace(rng, 400)
            trace = make_trace(t, u)
            target = float(rng.uniform(0.4, 0.95))
            got = autoscale_hourly_fraction(trace, target, model)
            want = hourly_fraction_ref(t, u, target, 0.33, 0.36)
            assert got == pytest.approx(want, rel=1e-3)

    def test_static_resized_baseline_matches_reference(self, model):
        rng = np.random.default_rng(105)
        t, u = random_walk_trace(rng, 400)
        trace = make_trace(t, u)
        peak = float(u.max())
        got = autoscale_hourly_fraction(trace, 0.7, model, BASELINE_STATIC_RESIZED, peak=peak)
        want = hourly_fraction_ref(t, u, 0.7, 0.33, 0.36, baseline="static-resized", peak=peak)
        assert got == pytest.approx(want, rel=1e-3)


@pytest.mark.parametrize("fraction", [autoscale_ideal_fraction, autoscale_hourly_fraction])
class TestStaticResizedBaselinePeak:
    def test_omitted_peak_is_the_default_estimate(self, model, fraction):
        rng = np.random.default_rng(107)
        t, u = random_walk_trace(rng, 1600, dt_range=(400.0, 500.0))  # ~8 days
        trace = make_trace(t, u)
        peak = estimate_peak(trace)
        assert fraction(trace, 0.7, model, BASELINE_STATIC_RESIZED) == fraction(
            trace, 0.7, model, BASELINE_STATIC_RESIZED, peak=peak
        )

    def test_idle_estimated_peak_rejected(self, model, fraction):
        # the denominator is undefined whether the idle peak is given or estimated
        trace = constant_trace(0.0)
        assert estimate_peak(trace) == 0.0
        with pytest.raises(IdleMachineError):
            fraction(trace, 0.8, model, BASELINE_STATIC_RESIZED)

    def test_peak_checked_even_for_zero_demand(self, model, fraction):
        with pytest.raises(ValueError, match="peak utilization"):
            fraction(constant_trace(0.0), 0.8, model, BASELINE_STATIC_RESIZED, peak=1.5)


class TestAnalyzeMachine:
    def test_memory_is_bounded_by_the_samples(self, model, small_catalog):
        # 8 days at 30 s, whose hour boundaries fall on samples that lie above
        # the hour before's maximum; the peak is about 3.15 times the trace's
        # 16 bytes a sample
        n = 23_040
        trace = make_trace(POSIX_2016_06_01 + 30.0 * np.arange(n), np.random.default_rng(8).random(n))
        record = MachineRecord("test", trace, "old-box")
        tracemalloc.start()
        try:
            machine_columns(record, [0.5, 0.6, 0.7, 0.8, 0.9], model, small_catalog)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _hour_moments(trace).sorted_u.size > 0
        assert peak <= 3.6 * 16 * n

    @pytest.fixture
    def record(self):
        rng = np.random.default_rng(106)
        t, u = random_walk_trace(rng, 1600, dt_range=(400.0, 500.0))  # ~8 days
        trace = make_trace(t, u, machine_id="m-1")
        return MachineRecord("m-1", trace, "old-box", "dc-east")

    def test_matches_public_functions_exactly(self, model, small_catalog, record):
        # every baseline and a wide range of targets; equal, not approximately equal
        targets = [0.01, 0.05, 0.5, 0.8, 1.0]
        trace = record.trace
        peak = estimate_peak(trace)
        on_prem, cloud = small_catalog.lookup("old-box"), small_catalog.cloud_spec
        names = ("static_resize", "combined", "autoscale_ideal", "autoscale_hourly")
        for baseline in BASELINES:
            report = analyze_machine(record, targets, model, small_catalog, baseline=baseline)
            assert report.peak_utilization == peak
            assert report.lift_and_shift == lift_and_shift_fraction(on_prem, cloud)
            for target in targets:
                assert [report.scenario_value(name, target) for name in names] == [
                    static_resize_fraction(trace, target, model, peak),
                    combined_fraction(trace, target, model, on_prem, cloud, peak),
                    autoscale_ideal_fraction(trace, target, model, baseline),
                    autoscale_hourly_fraction(trace, target, model, baseline),
                ], (baseline, target)
        with pytest.raises(KeyError, match="target 0.3 not in report for m-1"):
            report.scenario_value("combined", 0.3)

    def test_both_baselines_reported(self, model, small_catalog, record):
        report = analyze_machine(record, [0.8], model, small_catalog)
        row = report.targets[0]
        vs = row.autoscale_vs
        assert set(vs) == {BASELINE_LIFT_AND_SHIFT, BASELINE_STATIC_RESIZED}
        assert vs[BASELINE_LIFT_AND_SHIFT]["ideal"] == row.autoscale_ideal
        trace, peak = record.trace, report.peak_utilization
        assert vs[BASELINE_STATIC_RESIZED]["ideal"] == autoscale_ideal_fraction(
            trace, 0.8, model, BASELINE_STATIC_RESIZED, peak=peak
        )
        assert vs[BASELINE_STATIC_RESIZED]["hourly"] == autoscale_hourly_fraction(
            trace, 0.8, model, BASELINE_STATIC_RESIZED, peak=peak
        )

    def test_static_resized_baseline_headline(self, model, small_catalog, record):
        report = analyze_machine(record, [0.8], model, small_catalog, baseline=BASELINE_STATIC_RESIZED)
        row = report.targets[0]
        assert report.baseline == BASELINE_STATIC_RESIZED
        assert row.autoscale_ideal == row.autoscale_vs[BASELINE_STATIC_RESIZED]["ideal"]
        assert row.autoscale_hourly == row.autoscale_vs[BASELINE_STATIC_RESIZED]["hourly"]

    def test_combined_is_product(self, model, small_catalog, record):
        report = analyze_machine(record, [0.8], model, small_catalog)
        row = report.targets[0]
        assert row.combined == pytest.approx(report.lift_and_shift * row.static_resize, rel=1e-15)

    def test_idle_machine_flagged_not_failed(self, model, small_catalog):
        trace = constant_trace(0.0, machine_id="idle-1")
        record = MachineRecord("idle-1", trace, "old-box")
        report = analyze_machine(record, [0.8], model, small_catalog)
        assert report.idle_machine is True
        assert report.peak_utilization == 0.0
        row = report.targets[0]
        assert row.static_resize is None
        assert row.combined is None
        assert row.autoscale_ideal == 0.0
        assert row.autoscale_hourly == 0.0
        assert row.autoscale_vs[BASELINE_STATIC_RESIZED]["ideal"] is None
        assert report.lift_and_shift > 0.0

    def test_zero_baseline_energy_under_nonzero_energy_is_an_error(self, small_catalog):
        # with idle fraction 0 and the square curve, u² of 1e-170 underflows: the
        # on-premises energy is 0 while the ideal and hourly energies are not
        trace = constant_trace(1e-170, machine_id="tiny")
        model = EnergyModel(0.0, 0.0)
        record = MachineRecord("tiny", trace, "old-box")
        for call in (lambda: analyze_machine(record, [0.5, 0.8], model, small_catalog),
                     lambda: autoscale_ideal_fraction(trace, 0.8, model),
                     lambda: autoscale_hourly_fraction(trace, 0.8, model)):
            with pytest.raises(MigrentError, match="^tiny: a baseline energy is 0 but"):
                call()
        # the resized energy underflows too, and 0 / 0 is 0.0
        assert static_resize_fraction(trace, 0.8, model, peak=1e-170) == 0.0

    def test_record_trace_mismatch_rejected(self):
        trace = constant_trace(0.4, machine_id="other")
        with pytest.raises(ValueError, match="other"):
            MachineRecord("m-1", trace, "old-box")

    def test_eleven_year_span_rejected(self, model, small_catalog):
        record = MachineRecord("far", far_stamp_trace(), "old-box")
        with pytest.raises(TraceError, match="clock hours"):
            analyze_machine(record, [0.8], model, small_catalog)

    def test_short_trace_raises_insufficient_data(self, model, small_catalog):
        trace = constant_trace(0.4, days=3.0, machine_id="short")
        record = MachineRecord("short", trace, "old-box")
        with pytest.raises(InsufficientDataError):
            analyze_machine(record, [0.8], model, small_catalog)

    def test_min_days_override(self, model, small_catalog):
        trace = constant_trace(0.4, days=3.0, machine_id="short")
        record = MachineRecord("short", trace, "old-box")
        report = analyze_machine(record, [0.8], model, small_catalog, min_days=2)
        assert report.peak_utilization == pytest.approx(0.4, abs=1e-12)

    def test_unknown_cpu_rejected(self, model, small_catalog):
        record = MachineRecord("m-1", constant_trace(0.4, machine_id="m-1"), "no-such-cpu")
        with pytest.raises(CatalogError):
            analyze_machine(record, [0.8], model, small_catalog)

    def test_empty_targets_rejected(self, model, small_catalog, record):
        with pytest.raises(ValueError):
            analyze_machine(record, [], model, small_catalog)

    @pytest.mark.parametrize("target", [MIN_TARGET / 2, 1e-308, 5e-324])
    def test_targets_below_the_floor_rejected(self, target):
        with pytest.raises(ValueError, match=f"^target utilization must be at least 1e-06, got {target}$"):
            check_targets([0.5, target])

    def test_smallest_target_on_the_longest_span_stays_finite(self, model, small_catalog):
        # fractions grow like 1/target; the hourly numerator also with the hours covered
        trace = make_trace([0.0, (_MAX_HOURS - 1) * 3600.0], [0.2, 0.4])
        assert check_targets([MIN_TARGET]) == [1e-6]
        columns = machine_columns(MachineRecord("test", trace, "old-box"), [MIN_TARGET, 1.0], model, small_catalog,
                                  min_days=2)
        assert np.isfinite(columns.values).all() and np.isfinite(columns.by_baseline).all()

    @pytest.mark.parametrize("tiny", [1e-320, 1e-304])
    def test_boundary_over_a_tiny_hour_maximum_stays_finite(self, model, small_catalog, tiny):
        # the 01:00 boundary, ~0.5, over the first hour's maximum overflows the
        # divide (subnormal) or (w·v)·v (normal); the report is the one with
        # that hour off, and no overflow warning is raised
        times = [0.0, 1800.0, 5400.0] + [d * 86400.0 + 1800.0 for d in range(1, 9)]

        def record(first_hour):
            trace = make_trace(POSIX_2016_06_01 + np.array(times), [first_hour] * 2 + [1.0] + [0.5] * 8)
            return MachineRecord("test", trace, "old-box")

        for baseline in BASELINES:
            reports = [analyze_machine(record(u), [0.5, 1e-6, 1.0], model, small_catalog, baseline, min_days=1)
                       for u in (tiny / 100.0, 0.0)]
            assert repr(reports[0].to_dict()) == repr(reports[1].to_dict()), baseline

    def test_coverage_warning_for_gaps(self, model, small_catalog):
        t = POSIX_2016_06_01 + np.concatenate(
            [np.arange(0, 4 * 86400, 300.0), np.arange(4 * 86400 + 7200, 8 * 86400, 300.0)]
        )
        u = np.full(t.size, 0.4)
        record = MachineRecord("gappy", make_trace(t, u, machine_id="gappy"), "old-box")
        report = analyze_machine(record, [0.8], model, small_catalog)
        assert len(report.coverage_warnings) == 1
        assert "7500s gap" in report.coverage_warnings[0]

    def test_report_dict_shape(self, model, small_catalog, record):
        report = analyze_machine(record, [0.5, 0.8], model, small_catalog)
        d = report.to_dict()
        assert list(d) == [
            "machine_id",
            "cpu_model",
            "datacenter_id",
            "baseline",
            "peak_utilization",
            "idle_machine",
            "lift_and_shift",
            "targets",
            "coverage_warnings",
        ]
        assert [row["target"] for row in d["targets"]] == [0.5, 0.8]
        assert d["datacenter_id"] == "dc-east"

    def test_demand_preserving_rearrangement_favors_ideal(self, model, small_catalog):
        # same total demand, flat vs bursty: ideal autoscaling is identical,
        # the bursty machine pays more under lift-and-shift (convexity)
        flat = constant_trace(0.5, machine_id="flat")
        n = flat.times.size
        bursty_values = np.where(np.arange(n) % 2 == 0, 0.2, 0.8)
        bursty = make_trace(flat.times, bursty_values, machine_id="bursty")
        num_flat = relative_power(model, 0.8) / 0.8 * integrate(flat)
        num_bursty = relative_power(model, 0.8) / 0.8 * integrate(bursty)
        assert num_flat == pytest.approx(num_bursty, rel=1e-9)
        den_flat = integrate(flat, lambda u: relative_power(model, u))
        den_bursty = integrate(bursty, lambda u: relative_power(model, u))
        assert den_bursty > den_flat


# numpy 2 renamed trapz; fall back for older installs
_trapezoid = getattr(np, "trapezoid", None) or np.trapz
_HOUR = 3600.0


def per_sample_energy(t, u, a, m, capacity):
    """Reference: the trapezoid rule over c * power(min(u / c, 1)), evaluated at every sample."""
    return float(_trapezoid(capacity * curve(a, m, np.minimum(u / capacity, 1.0)), t))


def per_segment_hourly_energy(t, u, a, m, target):
    """Reference: the hourly energy summed segment by segment, with each hour's maximum.

    The trace is split at clock hours by interpolation. An hour's maximum is
    its largest sample, or for an hour inside a gap, the largest endpoint of
    its segments; capacity is that maximum over the target, and an hour of
    capacity 0 draws nothing.
    """
    first, last = int(t[0] // _HOUR), int(t[-1] // _HOUR)
    bounds = np.arange(first + 1, last + 1, dtype=float) * _HOUR
    ts = np.union1d(t, bounds)
    us = np.interp(ts, t, u)
    seg_hour = (0.5 * (ts[:-1] + ts[1:]) // _HOUR).astype(np.int64) - first
    hour_max = np.full(last - first + 1, -1.0)
    np.maximum.at(hour_max, (t // _HOUR).astype(np.int64) - first, u)
    fallback = np.full(hour_max.size, -1.0)
    np.maximum.at(fallback, seg_hour, np.maximum(us[:-1], us[1:]))
    hour_max = np.where(hour_max < 0.0, fallback, hour_max)
    capacity = hour_max[seg_hour] / target
    active = capacity > 0.0
    c = np.where(active, capacity, 1.0)
    left = curve(a, m, np.minimum(us[:-1] / c, 1.0))
    right = curve(a, m, np.minimum(us[1:] / c, 1.0))
    per_segment = np.where(active, 0.5 * (left + right) * c * np.diff(ts), 0.0)
    return float(np.sum(per_segment)), hour_max


def assert_moment_kernel_matches(trace, model, peak, targets):
    t, u = trace.times, trace.values
    a, m = model.idle_fraction, model.linear_mix
    moments, hours = _sample_moments(trace), _hour_moments(trace)
    assert _capacity_energy(moments, model, 1.0) == pytest.approx(per_sample_energy(t, u, a, m, 1.0), rel=1e-12)
    for target in targets:
        if peak > 0.0:
            want = per_sample_energy(t, u, a, m, peak / target)
            assert _resized_energy(moments, model, peak, target) == pytest.approx(want, rel=1e-12), target
        want, hour_max = per_segment_hourly_energy(t, u, a, m, target)
        assert _capacity_energy(hours, model, 1.0 / target) == pytest.approx(want, rel=1e-12), target
        assert np.array_equal(hourly_capacities(trace, target)[1], hour_max / target)


_LEVELS = st.one_of(st.sampled_from([0.0, 1.0]), st.integers(0, 1_000_000).map(lambda k: k / 1e6))


@st.composite
def hour_block_traces(draw):
    """Traces built from blocks of samples: busy, all zero, or after a gap longer than an hour."""
    t = POSIX_2016_06_01 + draw(st.sampled_from([0.0, 0.0, 0.25, 1799.5]))  # on an hour boundary or not
    times, values = [], []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["busy", "zero", "gap"]))
        if kind == "gap":
            t += draw(st.sampled_from([_HOUR, 1.5 * _HOUR, 2.5 * _HOUR, 26 * _HOUR]))
        step = draw(st.sampled_from([30.0, 300.0, 900.0, 1234.5]))
        for _ in range(draw(st.integers(1, 14))):
            times.append(t)
            values.append(0.0 if kind == "zero" else draw(_LEVELS))
            t += step
    assume(len(times) >= 2)
    return make_trace(times, values, machine_id="blocks")


class TestMomentKernel:
    """The moment-form energies against per-sample evaluation of the same trapezoid rule."""

    def test_listed_cases(self):
        # hour 0 rises from a sample on its start boundary; hour 1 is all zero;
        # hour 2's next-hour sample (0.95, on the boundary) lies above its maximum 0.9;
        # hours 4 and 5 fall inside a gap; hour 6 starts at an interpolated 0.39,
        # above its maximum 0.3; the peak 0.7 is below the raw maximum 0.95
        offsets = [0, 600, 1200, 1800, 2400, 3000] + [3600 + 600 * i for i in range(6)]
        offsets += [7200, 7800, 8400, 9000, 9600, 10200, 10800, 11400, 23400, 24000]
        values = [0.1, 0.2, 0.3, 0.4, 0.5, 0.2] + [0.0] * 6
        values += [0.9, 0.3, 0.3, 0.3, 0.3, 0.2, 0.95, 0.9, 0.3, 0.1]
        trace = make_trace(POSIX_2016_06_01 + np.array(offsets, dtype=float), values)
        _, hour_max = per_segment_hourly_energy(trace.times, trace.values, 0.33, 0.36, 1.0)
        assert hour_max[1] == 0.0
        assert hour_max[4:6] == pytest.approx([0.75, 0.57])  # from the interpolated boundaries
        assert _hour_moments(trace).sorted_u.size == 2  # the two endpoints above their hour's maximum
        for model in (EnergyModel(), EnergyModel(0.0, 0.0), EnergyModel(0.9, 1.0)):
            assert_moment_kernel_matches(trace, model, 0.7, [0.01, 0.3, 0.5, 0.9, 0.96, 1.0])

    @settings(max_examples=300, deadline=None)
    @given(
        trace=hour_block_traces(),
        idle=st.sampled_from([0.0, 0.33, 0.9]),
        mix=st.sampled_from([0.0, 0.36, 1.0]),
        peak_share=st.sampled_from([1.0, 0.8, 0.3]),
        target=st.floats(0.01, 1.0),
    )
    def test_matches_per_sample_evaluation(self, trace, idle, mix, peak_share, target):
        peak = float(trace.values.max()) * peak_share  # below the raw maximum, some samples clip
        assert_moment_kernel_matches(trace, EnergyModel(idle, mix), peak, [0.01, target, 1.0])

    def test_sweep_targets_on_a_synth_trace(self, model):
        params = SynthParams(seed=3, duration_days=8, base_utilization=0.35,
                             diurnal_amplitude=0.25, noise_stddev=0.05)
        trace = generate_trace(params, "sweep")
        targets = [round((k + 1) / 100, 6) for k in range(100)]
        assert_moment_kernel_matches(trace, model, estimate_peak(trace), targets)


@st.composite
def long_traces(draw):
    """Hundreds to thousands of samples, so np.sum's pairwise blocks and the
    prefix sums run long, with values on a coarse grid so the sort sees ties;
    optionally a gap of a few hours and an hour of zeros."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(200, 3000))
    t = POSIX_2016_06_01 + draw(st.sampled_from([0.0, 12.5])) + draw(st.sampled_from([30.0, 300.0, 617.3])) * np.arange(n)
    u = np.round(np.clip(rng.normal(0.4, 0.25, n), 0.0, 1.0), 2)
    if draw(st.booleans()):
        t[n // 2 :] += draw(st.sampled_from([1.5, 5.0])) * _HOUR
    if draw(st.booleans()):
        u[t // _HOUR == t[n // 3] // _HOUR + 1] = 0.0
    return make_trace(t, u, machine_id="long")


_MOMENT_FIELDS = ("sorted_u", "lo_w", "lo_u", "lo_uu", "hi_w")


class TestKernelMatchesReferenceBits:
    """The in-place kernel against copies of its first, concatenating form, bit for bit."""

    @staticmethod
    def assert_same_bits(trace, target):
        t, u = trace.times, trace.values
        for got, want in ((_sample_moments(trace), sample_moments_ref(t, u)),
                          (_hour_moments(trace), hour_moments_ref(t, u))):
            assert [getattr(got, f).tobytes() for f in _MOMENT_FIELDS] == [a.tobytes() for a in want]
        got, want = hourly_capacities(trace, target), hourly_capacities_ref(t, u, target)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert smooth(trace, 300.0).values.tobytes() == smooth_vectorized_ref(t, u, 300.0).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(trace=hour_block_traces(), target=st.floats(0.01, 1.0))
    def test_hour_blocks(self, trace, target):
        self.assert_same_bits(trace, target)

    @settings(max_examples=60, deadline=None)
    @given(trace=long_traces(), target=st.floats(0.01, 1.0))
    def test_long_traces(self, trace, target):
        self.assert_same_bits(trace, target)

    @pytest.mark.parametrize("offsets, values, over", [
        # the 0.9 on the boundary lies above hour 0's maximum 0.5
        ([0, 1200, 2400, 3600, 4800], [0.2, 0.5, 0.4, 0.9, 0.1], True),
        ([0, 1200, 2400, 3600, 4800], [0.5, 0.5, 0.5, 0.5, 0.5], False),
        # hour 0 is off and nothing lies above its hour's maximum
        ([0, 1200, 2400, 3600, 4800], [0.0, 0.0, 0.0, 0.7, 0.3], False),
        # hour 1 is off; 10800 s falls between samples, where 0.84 lies above hour 2's maximum 0.8
        ([0, 1200, 2400, 4000, 5000, 7000, 7400, 10000, 11000], [0.1, 0.1, 0.1, 0.0, 0.0, 0.0, 0.8, 0.2, 1.0], True),
    ])
    def test_listed_cases(self, offsets, values, over):
        trace = make_trace(POSIX_2016_06_01 + np.array(offsets, dtype=float), values)
        assert (_hour_moments(trace).sorted_u.size > 0) == over
        self.assert_same_bits(trace, 0.7)

    def test_single_hour_and_gap_hours(self):
        single = make_trace(POSIX_2016_06_01 + 600.0 + 30.0 * np.arange(100), np.linspace(0.1, 0.9, 100))
        gap = make_trace(POSIX_2016_06_01 + np.array([0.0, 1800.0, 5.5 * _HOUR, 6 * _HOUR]), [0.3, 0.6, 0.9, 0.2])
        gappy = [
            # hour 1 is empty and both its boundaries are interpolated
            ([0.0, 0.5, 2.5, 3.0], [0.2, 0.7, 0.4, 0.1]),
            # the gap starts at a sample on the 1 h boundary; hour 2 is empty
            ([0.0, 0.5, 1.0, 3.5, 4.0], [0.1, 0.3, 0.8, 0.5, 0.2]),
            # the gap ends at a sample on the 3 h boundary; hours 1 and 2 are empty
            ([0.0, 0.5, 3.0, 3.5], [0.4, 0.9, 0.6, 0.3]),
            # a run of five empty hours, neither end on a boundary
            ([0.1, 0.2, 6.7, 6.9], [0.5, 0.2, 0.7, 0.0]),
            # two samples spanning 31 hours
            ([0.03, 30.8], [0.2, 0.8]),
        ]
        traces = [single, gap] + [make_trace(POSIX_2016_06_01 + _HOUR * np.array(hours), values)
                                  for hours, values in gappy]
        for trace in traces:
            self.assert_same_bits(trace, 0.5)


class TestArrayPassMatchesTargetLoop:
    """machine_columns' one array pass over the targets against the per-target loop, bit for bit."""

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        trace=st.one_of(hour_block_traces(), long_traces()),
        idle_machine=st.booleans(),
        targets=st.lists(st.floats(1e-300, 1.0), min_size=1, max_size=12),  # 1 / target overflows near 1e-308
        idle=st.sampled_from([0.0, 0.33, 0.9]),
        mix=st.sampled_from([0.0, 0.36, 1.0]),
        baseline=st.sampled_from(BASELINES),
    )
    def test_values_are_the_loops_bits(self, small_catalog, trace, idle_machine, targets, idle, mix, baseline):
        if idle_machine:
            trace = make_trace(trace.times, np.zeros(len(trace)), machine_id=trace.machine_id)
        record = MachineRecord(trace.machine_id, trace, "old-box")
        got = machine_columns(record, targets, EnergyModel(idle, mix), small_catalog, baseline, min_days=1)
        peak, ls = got.machine.peak_utilization, got.machine.lift_and_shift
        assert peak == 0.0 or not idle_machine
        want = machine_values_ref(trace.times, trace.values, targets, idle, mix, peak, ls, baseline)
        assert np.hstack((got.values, got.by_baseline)).tobytes() == want.tobytes()
