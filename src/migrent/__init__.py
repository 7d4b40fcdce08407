"""Estimate energy-consumption changes when moving workloads to the cloud.

The library answers one question several ways: if an on-premise machine's
work moved to a cloud instance, what fraction of its current energy would
the work consume? Scenarios range from copying the workload unchanged onto
newer hardware to per-hour auto-scaling driven by the machine's CPU trace.
"""

from types import ModuleType as _ModuleType

from .catalog import Catalog, CpuSpec, bundled_catalog, compute_ce, lift_and_shift_fraction, load_catalog
from .energy import (
    DEFAULT_IDLE_FRACTION,
    DEFAULT_LINEAR_MIX,
    EnergyModel,
    PowerSample,
    capacity_marginal_power,
    fit,
    load_power_samples,
    marginal_gain_threshold,
    relative_power,
    scaled_power,
)
from .errors import (
    CatalogError,
    FleetError,
    IdleMachineError,
    InsufficientDataError,
    ManifestError,
    MigrentError,
    TraceError,
)
from .fleet import (
    Exclusion,
    FleetReport,
    ManifestEntry,
    aggregate,
    analyze_manifest,
    cdf,
    group_by_size,
    load_manifest,
    utilization_by_release,
    write_csv_reports,
    write_manifest,
)
from .scenarios import (
    BASELINE_LIFT_AND_SHIFT,
    BASELINE_STATIC_RESIZED,
    BASELINES,
    SCENARIO_NAMES,
    MachineRecord,
    ScenarioReport,
    TargetScenarios,
    analyze_machine,
    autoscale_hourly_fraction,
    autoscale_ideal_fraction,
    combined_fraction,
    hourly_capacities,
    static_resize_fraction,
)
from .synth import ParamRanges, SynthMachine, SynthParams, generate_fleet, generate_trace, write_fleet
from .trace import (
    DailyMaxima,
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

__version__ = "0.1.0"

# the imported names, without the submodules that importing them binds here
__all__ = [name for name in dir() if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
