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

Every energy is the trapezoid rule over the samples, Σ wᵢ·c·power(min(uᵢ / c, 1))
with wᵢ half the sum of sample i's two adjacent intervals, and is evaluated
in moment form. The power curve is quadratic, so below capacity c the term
c·power(u / c) = a·c + (1 − a)·(m·u + (1 − m)·u² / c) is a weighted sum of
1, u and u²; samples above c run at full power and contribute c·w. Sorting
the samples once by utilization and prefix-summing w, w·u and w·u² lets one
binary search give the energy at any capacity, so each target costs
O(log n), not a pass over the samples. The hourly scenario splits the trace
at clock hours and measures each segment endpoint in units of its hour's
maximum: every hour then has capacity 1 / target, and the same query serves.

The public ``*_fraction`` functions are views of the same energy functions
``analyze_machine`` uses (each written once), so they return its exact numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .catalog import Catalog, CpuSpec, lift_and_shift_fraction
from .energy import EnergyModel, power_unchecked
from .errors import IdleMachineError, MigrentError, TraceError
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
MIN_TARGET = 1e-6  # fractions grow like 1/target and fleet sums like machines/target


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


@dataclass(frozen=True)
class MachineColumns:
    """One machine's analysis as numbers, the form a fleet worker sends back.

    ``machine`` is the report without its target rows. ``values`` and
    ``by_baseline`` have a row per target, in the order the targets were
    given. A row of ``values`` holds the mean table's scenarios after
    lift_and_shift (static_resize, combined, autoscale_ideal,
    autoscale_hourly), one of ``by_baseline`` the ideal and hourly fractions
    against each of ``BASELINES`` in turn: together, a report row's values
    after target and lift_and_shift, in ``to_dict`` order. NaN marks a value
    that is undefined, ``None`` in the report.
    """

    machine: ScenarioReport
    values: np.ndarray
    by_baseline: np.ndarray

    @classmethod
    def from_report(cls, report: ScenarioReport, targets: Sequence[float]) -> MachineColumns:
        """``report``'s first row for each of ``targets``, as columns."""
        rows = {row.target: row for row in reversed(report.targets)}
        values = []
        for target in targets:
            if target not in rows:
                raise KeyError(f"target {target} not in report for {report.machine_id}")
            row = rows[target]
            values.append([row.static_resize, row.combined, row.autoscale_ideal, row.autoscale_hourly,
                           *(row.autoscale_vs[b][k] for b in BASELINES for k in ("ideal", "hourly"))])
        table = np.array(values, dtype=np.float64)  # None becomes NaN
        return cls(replace(report, targets=()), table[:, :4].copy(), table[:, 4:].copy())

    def to_report(self, targets: Sequence[float]) -> ScenarioReport:
        """The full report, ``targets`` naming the rows of ``values`` and ``by_baseline``."""
        rows = []
        for target, row, vs in zip(targets, self.values.tolist(), self.by_baseline.tolist()):
            cells = [None if v != v else v for v in row + vs]
            by_baseline = {b: {"ideal": cells[i], "hourly": cells[i + 1]} for i, b in zip((4, 6), BASELINES)}
            rows.append(TargetScenarios(target, self.machine.lift_and_shift, *cells[:4], by_baseline))
        return replace(self.machine, targets=tuple(rows))


def _check_target(target: float) -> float:
    if not 0.0 < target <= 1.0:
        raise ValueError(f"target utilization must be in (0, 1], got {target}")
    if target < MIN_TARGET:
        raise ValueError(f"target utilization must be at least {MIN_TARGET:g}, got {target}")
    return float(target)


def check_targets(targets: Sequence[float]) -> list[float]:
    """The target utilizations as floats: at least one, each in [``MIN_TARGET``, 1]."""
    checked = [_check_target(t) for t in targets]
    if not checked:
        raise ValueError("at least one target utilization is required")
    return checked


def check_baseline(baseline: str) -> str:
    """The name of an auto-scaling baseline, one of ``BASELINES``."""
    if baseline not in BASELINES:
        raise ValueError(f"baseline must be one of {BASELINES}, got {baseline!r}")
    return baseline


def _check_peak(peak: float) -> float:
    if not 0.0 <= peak <= 1.0:
        raise ValueError(f"peak utilization must be in [0, 1], got {peak}")
    return float(peak)


@dataclass(frozen=True)
class _Moments:
    """Weighted utilizations sorted ascending, with prefix sums of their moments.

    ``lo_w[k]``, ``lo_u[k]`` and ``lo_uu[k]`` sum w, w·u and w·u² over the
    k lowest values, plus a base: the same sums over values kept out of the
    sort because no queried capacity is below them. ``hi_w[k]`` sums w over
    the values from the k-th on.
    """

    machine_id: str
    sorted_u: np.ndarray
    lo_w: np.ndarray
    lo_u: np.ndarray
    lo_uu: np.ndarray
    hi_w: np.ndarray


def _sorted_moments(machine_id: str, values: np.ndarray, weights: np.ndarray, base=(0.0, 0.0, 0.0)) -> _Moments:
    # each prefix sum is the cumsum of [base, terms...], built in place in its
    # own output; cumsum adds in order, so this is the cumsum of the concatenation
    order = np.argsort(values)
    u = values[order]
    lo_w = np.empty(u.size + 1)
    w = lo_w[1:]
    np.take(weights, order, out=w, mode="clip")  # argsort's indices are in range
    del order
    lo_u, lo_uu, hi_w = np.empty(lo_w.size), np.empty(lo_w.size), np.empty(lo_w.size)
    lo_w[0], lo_u[0], lo_uu[0] = base
    np.multiply(w, u, out=lo_u[1:])  # w·u² as (w·u)·u: u·u alone overflows for a large hourly ratio u / max_h
    np.multiply(lo_u[1:], u, out=lo_uu[1:])
    hi_w[-1] = 0.0
    np.cumsum(w[::-1], out=hi_w[-2::-1])
    for prefix in (lo_w, lo_u, lo_uu):
        np.cumsum(prefix, out=prefix)
    return _Moments(machine_id, u, lo_w, lo_u, lo_uu, hi_w)


def _sample_moments(trace: UtilizationTrace) -> _Moments:
    """The samples with their trapezoid weights: half of each adjacent interval."""
    half = np.diff(trace.times)
    half *= 0.5
    weights = np.empty(half.size + 1)
    weights[0], weights[-1] = half[0], half[-1]
    np.add(half[1:], half[:-1], out=weights[1:-1])
    del half
    return _sorted_moments(trace.machine_id, trace.values, weights)


def _capacity_energy(moments: _Moments, model: EnergyModel, capacity):
    """The sum of w·c·power(min(u / c, 1)) at capacity c, from the moments.

    Below c, c·power(u / c) = a·c + (1 − a)·(m·u + (1 − m)·u² / c), which is
    linear in 1, u and u²; values above c run at full power, c. ``capacity``
    may be an array: one search and the same elementwise arithmetic, so each
    energy has the bits of a query at that capacity alone.
    """
    a = model.idle_fraction
    m = model.linear_mix
    k = moments.sorted_u.searchsorted(capacity, side="right")
    loaded = m * moments.lo_u[k] + (1.0 - m) * moments.lo_uu[k] / capacity
    below = a * capacity * moments.lo_w[k] + (1.0 - a) * loaded
    return below + capacity * moments.hi_w[k]


def _resized_energy(moments: _Moments, model: EnergyModel, peak: float, target):
    """Trapezoid energy of the static instance of capacity c = peak / target."""
    if peak == 0.0:
        raise IdleMachineError(f"{moments.machine_id}: peak utilization is 0, static resizing is undefined")
    return _capacity_energy(moments, model, peak / target)


def _ratio(numerator, denominator, machine_id: str) -> np.ndarray:
    """``numerator / denominator`` elementwise, but 0.0 for a zero numerator even over a zero denominator.

    A non-zero numerator over a zero denominator raises ``MigrentError``.
    """
    nonzero = np.not_equal(numerator, 0.0)
    if (nonzero & np.equal(denominator, 0.0)).any():
        raise MigrentError(f"{machine_id}: a baseline energy is 0 but the energy over it is not, no fraction exists")
    return np.divide(numerator, denominator, out=np.zeros(np.shape(nonzero)), where=nonzero)


def _fraction(trace: UtilizationTrace, target: float, model: EnergyModel, baseline: str,
              peak: float | None, numerator) -> float:
    """``numerator(target, moments)`` over the baseline energy; a missing static-resized peak is estimated."""
    target, baseline = _check_target(target), check_baseline(baseline)
    moments = _sample_moments(trace)
    if baseline == BASELINE_LIFT_AND_SHIFT:
        denominator = _capacity_energy(moments, model, 1.0)
    else:
        peak = estimate_peak(trace) if peak is None else _check_peak(peak)
        denominator = _resized_energy(moments, model, peak, target)
    return float(_ratio(numerator(target, moments), denominator, trace.machine_id))


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
    return _fraction(trace, target, model, BASELINE_LIFT_AND_SHIFT, None,
                     lambda t, moments: _resized_energy(moments, model, _check_peak(peak), t))


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
    return _fraction(trace, target, model, baseline, peak,
                     lambda t, _: (power_unchecked(model, t) / t) * integrate(trace))


def hourly_capacities(trace: UtilizationTrace, target: float) -> tuple[np.ndarray, np.ndarray]:
    """Capacity chosen for each clock-aligned UTC hour the trace touches.

    Capacity is that hour's maximum observed sample divided by the target,
    so the hour's peak runs at the target utilization; an hour whose maximum
    is 0 gets capacity 0 (the instance is off). An hour without a sample,
    inside a gap, takes the larger of the values interpolated at its two
    boundaries. Returns (hour start times in POSIX seconds, capacities).
    """
    target = _check_target(target)
    first_hour, hour_max, *_ = _hourly_split(trace)
    starts = (first_hour + np.arange(hour_max.size)) * _SECONDS_PER_HOUR
    return starts, hour_max / target


def _hourly_split(trace: UtilizationTrace):
    """Split the trace at hour boundaries and find each hour's sample maximum.

    Returns (first_hour_index, hour_max, per_hour, ts, us): the sample times
    with every hour boundary added, the values there, and how many of the
    segments between consecutive ``ts`` fall in each hour. A boundary between
    samples gets the interpolated value there. An hour with no raw sample
    lies inside a gap, where one segment joins its two boundaries, so its
    maximum is the larger of the values at those boundaries.
    """
    t = trace.times
    u = trace.values
    first_hour = int(t[0] // _SECONDS_PER_HOUR)
    last_hour = int(t[-1] // _SECONDS_PER_HOUR)
    n_hours = last_hour - first_hour + 1
    if n_hours > _MAX_HOURS:
        raise TraceError(f"trace spans {n_hours} clock hours, the hourly scenario allows at most {_MAX_HOURS}")

    # times are sorted, so each hour's samples are one run of indices,
    # found by searching for the hour boundaries
    bounds = np.arange(first_hour + 1, last_hour + 1, dtype=np.float64) * _SECONDS_PER_HOUR
    at = np.searchsorted(t, bounds)  # first sample at or after each boundary
    hour_max = np.maximum.reduceat(u, np.concatenate(([0], at)))  # an hour without samples is replaced below
    new = t[at] != bounds  # boundaries that are not already sample times
    if new.any():
        edges = np.interp(bounds, t, u)  # at a boundary that is a sample time, that sample exactly
        ts = np.insert(t, at[new], bounds[new])
        us = np.insert(u, at[new], edges[new])
        empty = np.flatnonzero(at[1:] == at[:-1]) + 1
        hour_max[empty] = np.maximum(edges[empty - 1], edges[empty])
        at += np.cumsum(new) - new  # each boundary's index in ts
    else:
        ts, us = t, u
    # a boundary's index in ts is also the number of segments before it
    per_hour = np.diff(at, prepend=0, append=ts.size - 1)
    return first_hour, hour_max, per_hour, ts, us


def _hour_moments(trace: UtilizationTrace) -> _Moments:
    """The hour-split segment endpoints, each in units of its hour's maximum.

    Every segment gives half its duration as weight to each endpoint. In
    hour h the capacity is c_h = max_h / target, and an endpoint u of weight
    w draws w·c_h·power(min(u / c_h, 1)). With v = u / max_h and weight
    w·max_h that is the same term at capacity 1 / target, so one query at
    1 / target gives the whole hourly energy. Endpoints with v <= 1 never
    clip and go into the base; only an hour-boundary endpoint can lie above
    its hour's maximum. Hours whose maximum is 0 are powered off and left out.
    """
    _, hour_max, per_hour, ts, us = _hourly_split(trace)
    seg_max = np.repeat(hour_max, per_hour)
    # a slice, which copies nothing, when no hour is off
    on = slice(None) if (hour_max > 0.0).all() else seg_max > 0.0
    seg_max = seg_max[on]
    m = seg_max.size
    # w holds each segment's half duration times its hour's maximum, twice;
    # v holds every left endpoint over that maximum, then every right one
    w = np.empty(2 * m)
    np.subtract(ts[1:][on], ts[:-1][on], out=w[:m])
    del ts
    w[:m] *= 0.5
    w[:m] *= seg_max
    w[m:] = w[:m]
    v = np.empty(2 * m)
    with np.errstate(over="ignore"):  # a boundary over a tiny maximum; capped below
        np.divide(us[:-1][on], seg_max, out=v[:m])
        np.divide(us[1:][on], seg_max, out=v[m:])
    del us, seg_max, on

    if m and v.max() > 1.0:
        over = v > 1.0
        high_v, high_w = v[over], w[over]
        np.minimum(high_v, 1e300, out=high_v)  # above any 1 / target; (w·v)·v stays finite, as w·v <= 1800
        np.logical_not(over, out=over)
        v = v[over]  # one at a time, so that only one old array is alive beside its copy
        w = w[over]
        del over
    else:
        high_v = high_w = np.empty(0)
    # np.sum's pairwise blocks depend on the array it is given, so the base
    # sums each take one contiguous array of the kept endpoints: w, w·v, w·v·v
    base_w = np.sum(w)
    np.multiply(w, v, out=w)
    base_u = np.sum(w)
    np.multiply(w, v, out=w)
    base = (base_w, base_u, np.sum(w))
    del v, w
    return _sorted_moments(trace.machine_id, high_v, high_w, base)


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
    return _fraction(trace, target, model, baseline, peak,
                     lambda t, _: _capacity_energy(_hour_moments(trace), model, 1.0 / t))


def _gap_warnings(trace: UtilizationTrace) -> tuple[str, ...]:
    return tuple(
        f"no samples between {format_timestamp(start)} and {format_timestamp(end)} ({end - start:.0f}s gap)"
        for start, end in coverage_gaps(trace)
    )


def machine_columns(
    machine: MachineRecord,
    targets: Sequence[float],
    model: EnergyModel,
    catalog: Catalog,
    baseline: str = BASELINE_LIFT_AND_SHIFT,
    window_seconds: float = DEFAULT_WINDOW_SECONDS,
    percentile: float = DEFAULT_PERCENTILE,
    min_days: int = DEFAULT_MIN_DAYS,
) -> MachineColumns:
    """:func:`analyze_machine`'s results as numbers, the form a fleet worker sends back.

    ``targets`` and ``baseline`` must already be checked. All targets are evaluated in one array pass.
    """
    on_prem = catalog.lookup(machine.on_prem_cpu)
    ls = lift_and_shift_fraction(on_prem, catalog.cloud_spec)
    trace = machine.trace
    peak = estimate_peak(trace, window_seconds, percentile, min_days)
    idle = peak == 0.0

    mid = machine.machine_id
    tg = np.array(targets, dtype=np.float64)
    # the ideal and hourly numerators, a row each; the hours before the samples,
    # so the split's temporaries are freed before the sort
    nums = np.stack(((power_unchecked(model, tg) / tg) * integrate(trace),
                     _capacity_energy(_hour_moments(trace), model, 1.0 / tg)))
    moments = _sample_moments(trace)
    den_ls = _capacity_energy(moments, model, 1.0)
    vs_ls = _ratio(nums, den_ls, mid)
    if idle:
        static = combined = np.full(tg.size, np.nan)  # NaN is None in the report
        vs_sr = np.full(nums.shape, np.nan)
    else:
        den_sr = _resized_energy(moments, model, peak, tg)
        static, vs_sr = _ratio(den_sr, den_ls, mid), _ratio(nums, den_sr, mid)
        combined = ls * static
    chosen = vs_ls if baseline == BASELINE_LIFT_AND_SHIFT else vs_sr

    shell = ScenarioReport(mid, machine.on_prem_cpu, machine.datacenter_id, baseline,
                           peak, idle, ls, (), _gap_warnings(trace))
    return MachineColumns(shell, np.column_stack((static, combined, *chosen)), np.column_stack((*vs_ls, *vs_sr)))


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
    targets, baseline = check_targets(targets), check_baseline(baseline)
    columns = machine_columns(machine, targets, model, catalog, baseline, window_seconds, percentile, min_days)
    return columns.to_report(targets)
