"""Per-machine energy fractions for the cloud-migration scenarios.

Every scenario is reported as a fraction: energy the workload would use
after migration divided by the energy of a baseline. The baseline is
either the untouched on-premise machine ("lift-and-shift") or that machine
already resized to the optimal static cloud instance ("static-resized").

Scenarios, in increasing order of operational change:

* lift_and_shift: same work on the cloud reference CPU, nothing resized.
  Pure hardware-efficiency ratio, independent of the utilization trace.
* static_resize: one cloud instance sized so the machine's estimated peak
  lands on the target utilization; the instance runs the original demand.
* combined: lift_and_shift and static_resize applied together.
* autoscale_ideal: capacity tracks demand instantly and exactly, so the
  instance always runs at the target utilization.
* autoscale_hourly: capacity is fixed within each clock-aligned UTC hour,
  sized so that hour's observed maximum lands on the target utilization.

The public ``*_fraction`` functions are views of the same energy functions
``analyze_machine`` uses (each written once), so they return its exact numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .catalog import Catalog, CpuSpec, lift_and_shift_fraction
from .energy import EnergyModel, power_unchecked
from .errors import IdleMachineError, TraceError
from .trace import (
    DEFAULT_MIN_DAYS,
    DEFAULT_PERCENTILE,
    DEFAULT_WINDOW_SECONDS,
    UtilizationTrace,
    coverage_gaps,
    estimate_peak,
    format_timestamp,
    integrate,
)

BASELINE_LIFT_AND_SHIFT = "lift-and-shift"
BASELINE_STATIC_RESIZED = "static-resized"
BASELINES = (BASELINE_LIFT_AND_SHIFT, BASELINE_STATIC_RESIZED)

SCENARIO_NAMES = (
    "lift_and_shift",
    "static_resize",
    "combined",
    "autoscale_ideal",
    "autoscale_hourly",
)

_SECONDS_PER_HOUR = 3600.0
_MAX_HOURS = 10 * 366 * 24  # about ten years; bounds _hourly_split's per-hour arrays


@dataclass(frozen=True)
class MachineRecord:
    """A machine to analyze: its trace plus catalog and placement metadata."""

    machine_id: str
    trace: UtilizationTrace
    on_prem_cpu: str
    datacenter_id: str | None = None

    def __post_init__(self):
        if self.trace.machine_id != self.machine_id:
            raise ValueError(
                f"trace belongs to {self.trace.machine_id!r}, record says {self.machine_id!r}"
            )


@dataclass(frozen=True)
class TargetScenarios:
    """All scenario fractions for one target utilization.

    ``None`` marks a scenario that is undefined for the machine (resizing
    an always-idle machine has no finite size). ``autoscale_vs`` carries the
    auto-scaling fractions against both baselines; ``autoscale_ideal`` and
    ``autoscale_hourly`` are the values for the report's chosen baseline.
    """

    target: float
    lift_and_shift: float
    static_resize: float | None
    combined: float | None
    autoscale_ideal: float | None
    autoscale_hourly: float | None
    autoscale_vs: Mapping[str, Mapping[str, float | None]]

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "lift_and_shift": self.lift_and_shift,
            "static_resize": self.static_resize,
            "combined": self.combined,
            "autoscale_ideal": self.autoscale_ideal,
            "autoscale_hourly": self.autoscale_hourly,
            "autoscale_vs": {k: dict(v) for k, v in self.autoscale_vs.items()},
        }


@dataclass(frozen=True)
class ScenarioReport:
    """Full analysis of one machine across all requested targets."""

    machine_id: str
    cpu_model: str
    datacenter_id: str | None
    baseline: str
    peak_utilization: float
    idle_machine: bool
    lift_and_shift: float
    targets: tuple[TargetScenarios, ...]
    coverage_warnings: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "machine_id": self.machine_id,
            "cpu_model": self.cpu_model,
            "datacenter_id": self.datacenter_id,
            "baseline": self.baseline,
            "peak_utilization": self.peak_utilization,
            "idle_machine": self.idle_machine,
            "lift_and_shift": self.lift_and_shift,
            "targets": [t.to_dict() for t in self.targets],
            "coverage_warnings": list(self.coverage_warnings),
        }

    def scenario_value(self, scenario: str, target: float) -> float | None:
        for row in self.targets:
            if row.target == target:
                return getattr(row, scenario)
        raise KeyError(f"target {target} not in report for {self.machine_id}")


def _check_target(target: float) -> float:
    if not 0.0 < target <= 1.0:
        raise ValueError(f"target utilization must be in (0, 1], got {target}")
    return float(target)


def _check_baseline(baseline: str) -> str:
    if baseline not in BASELINES:
        raise ValueError(f"baseline must be one of {BASELINES}, got {baseline!r}")
    return baseline


def _check_peak(peak: float) -> float:
    if not 0.0 <= peak <= 1.0:
        raise ValueError(f"peak utilization must be in [0, 1], got {peak}")
    return float(peak)


def _on_prem_energy(trace: UtilizationTrace, model: EnergyModel) -> float:
    """Trapezoid energy of the unresized machine, the lift-and-shift baseline."""
    return integrate(trace, lambda u: power_unchecked(model, u))


def _resized_energy(trace: UtilizationTrace, model: EnergyModel, peak: float, target: float) -> float:
    """Energy of the static instance of capacity c = peak / target: integral of c * power(min(u / c, 1))."""
    if peak == 0.0:
        raise IdleMachineError(f"{trace.machine_id}: peak utilization is 0, static resizing is undefined")
    capacity = peak / target
    return integrate(trace, lambda u: power_unchecked(model, np.clip(u / capacity, 0.0, 1.0)) * capacity)


def _ideal_energy(model: EnergyModel, target: float, demand: float) -> float:
    """Energy of an instance that always runs at ``target``, for ``demand`` value-seconds of work."""
    return (power_unchecked(model, target) / target) * demand


def _ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, but 0.0 for a zero numerator even over a zero denominator."""
    return numerator / denominator if numerator != 0.0 else 0.0


def _baseline_energy(
    trace: UtilizationTrace, model: EnergyModel, baseline: str, target: float, peak: float | None
) -> float:
    """Denominator of an auto-scaling fraction; the static baseline estimates a missing peak."""
    if baseline == BASELINE_LIFT_AND_SHIFT:
        return _on_prem_energy(trace, model)
    peak = estimate_peak(trace) if peak is None else _check_peak(peak)
    return _resized_energy(trace, model, peak, target)


def static_resize_fraction(
    trace: UtilizationTrace,
    target: float,
    model: EnergyModel,
    peak: float,
) -> float:
    """Energy fraction of replacing the machine with one static instance.

    The instance's capacity is ``peak / target`` of the original machine, so
    the estimated peak runs at exactly the target utilization. The fraction
    compares the resized instance's energy to the unresized machine's energy
    over the same trace.
    """
    target, peak = _check_target(target), _check_peak(peak)
    return _resized_energy(trace, model, peak, target) / _on_prem_energy(trace, model)


def combined_fraction(
    trace: UtilizationTrace,
    target: float,
    model: EnergyModel,
    on_prem: CpuSpec,
    cloud: CpuSpec,
    peak: float,
) -> float:
    """Lift-and-shift and static resizing applied together.

    The hardware-efficiency ratio multiplies the resize fraction: the two
    effects are independent, one from the CPU change and one from running
    the smaller instance hotter.
    """
    return lift_and_shift_fraction(on_prem, cloud) * static_resize_fraction(trace, target, model, peak)


def autoscale_ideal_fraction(
    trace: UtilizationTrace,
    target: float,
    model: EnergyModel,
    baseline: str = BASELINE_LIFT_AND_SHIFT,
    peak: float | None = None,
) -> float:
    """Energy fraction when capacity tracks demand instantly.

    The instance always runs exactly at the target utilization, so its power
    per unit of work is fixed at ``relative_power(target) / target`` and the
    numerator reduces to that constant times the integrated demand. ``peak``
    is only needed for the static-resized baseline (estimated from the trace
    with default settings when omitted).
    """
    target = _check_target(target)
    denominator = _baseline_energy(trace, model, _check_baseline(baseline), target, peak)
    return _ratio(_ideal_energy(model, target, integrate(trace)), denominator)


def hourly_capacities(trace: UtilizationTrace, target: float) -> tuple[np.ndarray, np.ndarray]:
    """Capacity chosen for each clock-aligned UTC hour the trace touches.

    Capacity is that hour's maximum observed sample divided by the target,
    so the hour's peak runs at the target utilization; an hour whose maximum
    is 0 gets capacity 0 (the instance is off). Returns (hour start times in
    POSIX seconds, capacities).
    """
    target = _check_target(target)
    first_hour, n_hours, _, _, _, _, hour_max = _hourly_split(trace)
    starts = (first_hour + np.arange(n_hours)) * _SECONDS_PER_HOUR
    return starts, hour_max / target


def _hourly_split(trace: UtilizationTrace):
    """Split the trace at hour boundaries and find each hour's sample maximum.

    Returns (first_hour_index, n_hours, split_times, split_values,
    segment_hour_index, segment_durations, hour_max). Hours that contain no
    raw sample (inside a long gap) fall back to the maximum of the
    interpolated segment endpoints so their capacity is still defined.
    """
    t = trace.times
    u = trace.values
    first_hour = int(t[0] // _SECONDS_PER_HOUR)
    last_hour = int(t[-1] // _SECONDS_PER_HOUR)
    n_hours = last_hour - first_hour + 1
    if n_hours > _MAX_HOURS:
        raise TraceError(f"trace spans {n_hours} clock hours, the hourly scenario allows at most {_MAX_HOURS}")

    bounds = np.arange(first_hour + 1, last_hour + 1, dtype=np.float64) * _SECONDS_PER_HOUR
    ts = np.union1d(t, bounds)
    us = np.interp(ts, t, u)
    durations = np.diff(ts)
    mids = 0.5 * (ts[:-1] + ts[1:])
    seg_hour = (mids // _SECONDS_PER_HOUR).astype(np.int64) - first_hour

    hour_max = np.full(n_hours, -1.0)
    sample_hour = (t // _SECONDS_PER_HOUR).astype(np.int64) - first_hour
    np.maximum.at(hour_max, sample_hour, u)
    missing = hour_max < 0.0
    if missing.any():
        endpoint_max = np.maximum(us[:-1], us[1:])
        fallback = np.full(n_hours, -1.0)
        np.maximum.at(fallback, seg_hour, endpoint_max)
        hour_max = np.where(missing, fallback, hour_max)

    return first_hour, n_hours, ts, us, seg_hour, durations, hour_max


def _hourly_energy(split, target: float, model: EnergyModel) -> float:
    """Trapezoid energy of the hourly-rescaled instance over the whole trace."""
    _, _, _, us, seg_hour, durations, hour_max = split
    capacity = hour_max[seg_hour] / target
    active = capacity > 0.0
    safe_c = np.where(active, capacity, 1.0)
    left = power_unchecked(model, np.clip(us[:-1] / safe_c, 0.0, 1.0))
    right = power_unchecked(model, np.clip(us[1:] / safe_c, 0.0, 1.0))
    per_segment = np.where(active, 0.5 * (left + right) * safe_c * durations, 0.0)
    return float(np.sum(per_segment))


def autoscale_hourly_fraction(
    trace: UtilizationTrace,
    target: float,
    model: EnergyModel,
    baseline: str = BASELINE_LIFT_AND_SHIFT,
    peak: float | None = None,
) -> float:
    """Energy fraction when capacity is re-chosen once per UTC clock hour.

    Within each hour the instance has the fixed capacity from
    :func:`hourly_capacities`; demand above it is clamped at full load.
    Hours with capacity 0 contribute no energy.
    """
    target = _check_target(target)
    denominator = _baseline_energy(trace, model, _check_baseline(baseline), target, peak)
    return _ratio(_hourly_energy(_hourly_split(trace), target, model), denominator)


def _gap_warnings(trace: UtilizationTrace) -> tuple[str, ...]:
    return tuple(
        f"no samples between {format_timestamp(start)} and {format_timestamp(end)} ({end - start:.0f}s gap)"
        for start, end in coverage_gaps(trace)
    )


def analyze_machine(
    machine: MachineRecord,
    targets: Sequence[float],
    model: EnergyModel,
    catalog: Catalog,
    baseline: str = BASELINE_LIFT_AND_SHIFT,
    window_seconds: float = DEFAULT_WINDOW_SECONDS,
    percentile: float = DEFAULT_PERCENTILE,
    min_days: int = DEFAULT_MIN_DAYS,
) -> ScenarioReport:
    """Compute every scenario fraction for one machine at each target.

    Always-idle machines (estimated peak 0) are flagged rather than failed:
    their resize-based scenarios are ``None`` and auto-scaling is reported
    against the lift-and-shift baseline only.
    """
    baseline = _check_baseline(baseline)
    targets = [_check_target(t) for t in targets]
    if not targets:
        raise ValueError("at least one target utilization is required")

    on_prem = catalog.lookup(machine.on_prem_cpu)
    ls = lift_and_shift_fraction(on_prem, catalog.cloud_spec)
    trace = machine.trace
    peak = estimate_peak(trace, window_seconds, percentile, min_days)
    idle = peak == 0.0

    demand = integrate(trace)
    den_ls = _on_prem_energy(trace, model)
    split = _hourly_split(trace)

    rows = []
    for target in targets:
        num_ideal = _ideal_energy(model, target, demand)
        num_hourly = _hourly_energy(split, target, model)
        vs_ls = {"ideal": _ratio(num_ideal, den_ls), "hourly": _ratio(num_hourly, den_ls)}
        if idle:
            static = combined = None
            vs_sr = {"ideal": None, "hourly": None}
        else:
            den_sr = _resized_energy(trace, model, peak, target)
            static = den_sr / den_ls
            combined = ls * static
            vs_sr = {"ideal": _ratio(num_ideal, den_sr), "hourly": _ratio(num_hourly, den_sr)}
        by_baseline = {BASELINE_LIFT_AND_SHIFT: vs_ls, BASELINE_STATIC_RESIZED: vs_sr}
        chosen = by_baseline[baseline]
        rows.append(
            TargetScenarios(
                target=target,
                lift_and_shift=ls,
                static_resize=static,
                combined=combined,
                autoscale_ideal=chosen["ideal"],
                autoscale_hourly=chosen["hourly"],
                autoscale_vs=by_baseline,
            )
        )

    return ScenarioReport(
        machine_id=machine.machine_id,
        cpu_model=machine.on_prem_cpu,
        datacenter_id=machine.datacenter_id,
        baseline=baseline,
        peak_utilization=peak,
        idle_machine=idle,
        lift_and_shift=ls,
        targets=tuple(rows),
        coverage_warnings=_gap_warnings(trace),
    )
