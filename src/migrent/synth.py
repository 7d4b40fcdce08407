"""Deterministic synthetic utilization traces and whole-fleet corpora.

Traces follow a simple generative story: a base load, slow linear growth
that resets every hardware-refresh period, a sinusoidal day/night swing,
and Gaussian sampling noise, all clipped to [0, 1]. Everything is driven
by explicit seeds through numpy's PCG64 generator, so the same seed always
reproduces the same bytes on disk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .catalog import Catalog, bundled_catalog
from .fleet import ManifestEntry, write_manifest
from .scenarios import _MAX_HOURS
from .trace import STAMP_RANGE, UtilizationTrace, parse_timestamp, write_trace

DEFAULT_START = "2016-06-01T00:00:00Z"

_SECONDS_PER_DAY = 86400.0
_ALLOWED_PERIODS = (20, 30)
_MAX_DAYS = _MAX_HOURS // 24  # about ten years, the longest span the hourly scenario analyzes

# Each drawn knob's rule, written once: the name of its ParamRanges range, the
# SynthParams field a draw sets, and the least and greatest value it may take.
# A range whose bounds pass the rule draws only values that pass it too.
_KNOBS = (
    ("duration_days", "duration_days", 1, _MAX_DAYS),
    ("base_utilization", "base_utilization", 0.0, 1.0),
    ("growth_per_day", "growth_per_day", 0.0, math.inf),
    ("refresh_days", "refresh_period_days", 1, _MAX_DAYS),
    ("diurnal_amplitude", "diurnal_amplitude", 0.0, 1.0),
    ("noise_stddev", "noise_stddev", 0.0, math.inf),
)


def _check_knob(name: str, value, lo, hi) -> None:
    """Refuse a ``value`` that is not finite or lies outside [lo, hi]."""
    if not lo <= value <= hi or value == math.inf:  # NaN fails every comparison
        bound = f"in [{lo}, {hi}]" if hi < math.inf else f"finite and at least {lo}"
        raise ValueError(f"{name} must be {bound}, got {value}")


def _check_period(name: str, period) -> None:
    if period not in _ALLOWED_PERIODS:
        raise ValueError(f"{name} must be one of {_ALLOWED_PERIODS}, got {period}")


@dataclass(frozen=True)
class SynthParams:
    """Generator knobs for one machine's trace."""

    seed: int
    duration_days: int = 14
    sample_period_seconds: int = 30
    base_utilization: float = 0.3
    growth_per_day: float = 0.0
    refresh_period_days: int = 90
    diurnal_amplitude: float = 0.0
    noise_stddev: float = 0.0

    def __post_init__(self):
        _check_period("sample_period_seconds", self.sample_period_seconds)
        for _, name, lo, hi in _KNOBS:
            _check_knob(name, getattr(self, name), lo, hi)


def generate_trace(params: SynthParams, machine_id: str, start: str | float = DEFAULT_START) -> UtilizationTrace:
    """Generate one utilization trace.

    The machine is taken to have been refreshed at the trace start, so the
    growth ramp restarts every ``refresh_period_days`` counted from there.
    The diurnal swing follows the UTC hour of day.
    """
    start_s = parse_timestamp(start) if isinstance(start, str) else float(start)
    n = params.duration_days * 86400 // params.sample_period_seconds
    offsets = np.arange(n, dtype=np.float64) * params.sample_period_seconds
    times = start_s + offsets

    days_since_refresh = np.floor(offsets / _SECONDS_PER_DAY) % params.refresh_period_days
    hour_of_day = (times % _SECONDS_PER_DAY) / 3600.0
    u = (
        params.base_utilization
        + params.growth_per_day * days_since_refresh
        + params.diurnal_amplitude * np.sin(2.0 * np.pi * hour_of_day / 24.0)
    )
    if params.noise_stddev > 0.0:
        rng = np.random.Generator(np.random.PCG64(params.seed))
        u = u + rng.normal(0.0, params.noise_stddev, n)
    return UtilizationTrace(machine_id, times, np.clip(u, 0.0, 1.0))


@dataclass(frozen=True)
class ParamRanges:
    """Ranges the fleet generator draws per-machine parameters from."""

    duration_days: tuple[int, int] = (10, 15)
    sample_periods: tuple[int, ...] = (20, 30)
    base_utilization: tuple[float, float] = (0.05, 0.6)
    growth_per_day: tuple[float, float] = (0.0, 0.015)
    refresh_days: tuple[int, int] = (30, 120)
    diurnal_amplitude: tuple[float, float] = (0.0, 0.3)
    noise_stddev: tuple[float, float] = (0.005, 0.05)

    def __post_init__(self):
        for name, _, lo, hi in _KNOBS:
            low, high = getattr(self, name)
            _check_knob(name, low, lo, hi)
            _check_knob(name, high, lo, hi)
            if low > high:
                raise ValueError(f"{name}: lower bound {low} exceeds upper bound {high}")
        if not self.sample_periods:
            raise ValueError("sample_periods must not be empty")
        for period in self.sample_periods:
            _check_period("sample_periods", period)


def check_seed(seed: int) -> int:
    """A fleet seed; numpy's ``SeedSequence`` takes only non-negative integers."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return seed


@dataclass(frozen=True)
class SynthMachine:
    """One generated fleet member: identity, placement, hardware, knobs."""

    machine_id: str
    datacenter_id: str
    cpu_model: str
    params: SynthParams


def generate_fleet(
    fleet_seed: int,
    machines: int,
    datacenters: int,
    ranges: ParamRanges = ParamRanges(),
    catalog: Catalog | None = None,
) -> list[SynthMachine]:
    """Draw a reproducible fleet of machines.

    Each machine gets its own child generator spawned from ``fleet_seed``,
    so the fleet is stable under changes to the machine count: machine i is
    the same no matter how many follow it. Machines rotate round-robin over
    the datacenters. Older CPU models are biased toward higher base
    utilization, mirroring how long-lived machines accrete load.
    """
    check_seed(fleet_seed)
    if machines < 1:
        raise ValueError(f"machines must be at least 1, got {machines}")
    if not 1 <= datacenters <= machines:
        raise ValueError(f"datacenters must be in [1, {machines}], got {datacenters}")
    catalog = catalog or bundled_catalog()
    models = sorted(
        (spec for spec in catalog if not spec.cloud),
        key=lambda spec: (spec.release_date, spec.model_name),
    )
    if not models:
        models = sorted(catalog, key=lambda spec: (spec.release_date, spec.model_name))

    base_lo, base_hi = ranges.base_utilization
    fleet = []
    for i in range(machines):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(fleet_seed, spawn_key=(i,))))
        duration = int(rng.integers(ranges.duration_days[0], ranges.duration_days[1] + 1))
        period = int(ranges.sample_periods[rng.integers(len(ranges.sample_periods))])
        cpu_index = int(rng.integers(len(models)))
        # oldest model -> bias 1, newest -> bias 0
        age_bias = 1.0 - cpu_index / (len(models) - 1) if len(models) > 1 else 0.5
        base = base_lo + (base_hi - base_lo) * float(np.clip(0.5 * age_bias + 0.5 * rng.uniform(), 0.0, 1.0))
        growth = float(rng.uniform(*ranges.growth_per_day))
        refresh = int(rng.integers(ranges.refresh_days[0], ranges.refresh_days[1] + 1))
        amplitude = float(rng.uniform(*ranges.diurnal_amplitude))
        noise = float(rng.uniform(*ranges.noise_stddev))
        trace_seed = int(rng.integers(0, 2**63))
        fleet.append(
            SynthMachine(
                machine_id=f"m{i:04d}",
                datacenter_id=f"dc{i % datacenters:03d}",
                cpu_model=models[cpu_index].model_name,
                params=SynthParams(
                    seed=trace_seed,
                    duration_days=duration,
                    sample_period_seconds=period,
                    base_utilization=base,
                    growth_per_day=growth,
                    refresh_period_days=refresh,
                    diurnal_amplitude=amplitude,
                    noise_stddev=noise,
                ),
            )
        )
    return fleet


def check_start(start: str | float, fleet: list[SynthMachine]) -> float:
    """``start`` in POSIX seconds, if every trace of ``fleet`` fits in the years 1 to 9999."""
    try:
        start_s = parse_timestamp(start) if isinstance(start, str) else float(start)
    except ValueError:
        raise ValueError(f"start must be an ISO-8601 timestamp, got {start!r}") from None
    days = max((machine.params.duration_days for machine in fleet), default=0)
    lo, hi = STAMP_RANGE
    if not (lo <= start_s and start_s + days * _SECONDS_PER_DAY <= hi):  # NaN fails too
        raise ValueError(
            f"start must be in the years 1 to 9999 with room for the longest trace ({days} days), got {start!r}"
        )
    return start_s


def write_fleet(fleet: list[SynthMachine], out_dir, start: str | float = DEFAULT_START) -> Path:
    """Write trace CSVs plus a manifest for a generated fleet.

    Traces land in ``out_dir/traces/<machine_id>.csv`` and the manifest at
    ``out_dir/manifest.csv`` with paths relative to the manifest. Returns
    the manifest path. Output is byte-identical for identical inputs. A
    ``start`` that ``check_start`` refuses fails before anything is written.
    """
    start = check_start(start, fleet)
    out = Path(out_dir)
    entries = []
    for machine in fleet:
        trace = generate_trace(machine.params, machine.machine_id, start)
        rel_path = f"traces/{machine.machine_id}.csv"
        write_trace(trace, out / rel_path)
        entries.append(
            ManifestEntry(machine.machine_id, rel_path, machine.cpu_model, machine.datacenter_id)
        )
    manifest_path = out / "manifest.csv"
    write_manifest(entries, manifest_path)
    return manifest_path
