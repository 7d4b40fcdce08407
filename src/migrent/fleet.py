"""Fleet-level analysis: manifests, aggregation, and distribution curves.

A fleet is described by a manifest CSV listing one machine per row with the
path of its utilization trace, its CPU model, and the datacenter it lives
in. Machines that cannot be analyzed (missing trace, unknown CPU, too few
days of data) are excluded with a reason instead of failing the run; only a
fleet where *every* machine fails raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .catalog import Catalog
from .energy import EnergyModel
from .errors import FleetError, ManifestError, MigrentError
from .report import check_target_names, format_float, write_machines
from .scenarios import (
    BASELINE_LIFT_AND_SHIFT,
    SCENARIO_NAMES,
    MachineColumns,
    MachineRecord,
    ScenarioReport,
    check_baseline,
    check_targets,
    machine_columns,
)
from .table import read_table, write_table
from .trace import (
    DEFAULT_MIN_DAYS,
    DEFAULT_PERCENTILE,
    DEFAULT_WINDOW_SECONDS,
    check_min_days,
    check_percentile,
    check_window_seconds,
    nearest_rank,
    parse_trace,
)

MANIFEST_COLUMNS = ("machine_id", "trace_path", "cpu_model", "datacenter_id")

DEFAULT_SIZE_BINS = 7


@dataclass(frozen=True)
class ManifestEntry:
    machine_id: str
    trace_path: str
    cpu_model: str
    datacenter_id: str


@dataclass(frozen=True)
class Exclusion:
    """A machine dropped from a fleet run, and why."""

    machine_id: str
    reason: str

    def to_dict(self) -> dict:
        return {"machine_id": self.machine_id, "reason": self.reason}


def load_manifest(source) -> list[ManifestEntry]:
    """Parse a fleet manifest CSV; machine ids must be unique."""
    entries: list[ManifestEntry] = []
    seen: dict[str, int] = {}
    for line, row in read_table(source, MANIFEST_COLUMNS, ManifestError, "manifest"):
        machine_id = row[0].strip()
        if not machine_id:
            raise ManifestError("machine_id must be non-empty", line=line)
        if machine_id in seen:
            raise ManifestError(
                f"duplicate machine_id {machine_id!r} (first on line {seen[machine_id]})", line=line
            )
        seen[machine_id] = line
        entries.append(ManifestEntry(machine_id, row[1].strip(), row[2].strip(), row[3].strip()))
    if not entries:
        raise ManifestError("manifest has no data rows")
    return entries


def write_manifest(entries: Iterable[ManifestEntry], dest) -> None:
    path = Path(dest)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_table(path, MANIFEST_COLUMNS,
                ((e.machine_id, e.trace_path, e.cpu_model, e.datacenter_id) for e in entries))


def _analyze_entry(
    entry: ManifestEntry, base_dir: str, analyze: Callable[[MachineRecord], MachineColumns]
) -> MachineColumns | Exclusion:
    """Worker for one manifest row: the machine's results, or why it was excluded."""
    try:
        trace = parse_trace(Path(base_dir) / entry.trace_path, machine_id=entry.machine_id)
        record = MachineRecord(entry.machine_id, trace, entry.cpu_model, entry.datacenter_id)
        return analyze(record)
    except MigrentError as exc:
        return Exclusion(entry.machine_id, str(exc))


@dataclass(frozen=True)
class FleetReport:
    """Aggregated fleet results plus each machine's, as columns in machine-id order.

    ``reports`` builds the machines' ``ScenarioReport`` objects on first use,
    and ``cdfs`` the distribution curves.
    """

    baseline: str
    targets: tuple[float, ...]
    columns: tuple[MachineColumns, ...] = field(repr=False, compare=False)
    exclusions: tuple[Exclusion, ...]
    means: tuple[dict, ...]
    size_bins: tuple[dict, ...]
    utilization_by_release: tuple[dict, ...]

    @cached_property
    def reports(self) -> tuple[ScenarioReport, ...]:
        return tuple(c.to_report(self.targets) for c in self.columns)

    @cached_property
    def cdfs(self) -> dict[tuple[str, float], list[tuple[float, float]]]:
        """The ``cdf`` of each (scenario, target) cell's values; a cell no machine has a value for has none."""
        cells = [(scenario, target) for target in self.targets for scenario in SCENARIO_NAMES]
        rows = (row[~np.isnan(row)] for row in _block(self.columns, self.targets))
        return {cell: cdf(values) for cell, values in zip(cells, rows) if values.size}

    def _head(self) -> dict:
        return {
            "baseline": self.baseline,
            "targets": list(self.targets),
            "machines_analyzed": len(self.columns),
            "machines_excluded": len(self.exclusions),
            "mean_table": [dict(m) for m in self.means],
            "size_bins": [dict(b) for b in self.size_bins],
            "utilization_by_release": [dict(r) for r in self.utilization_by_release],
            "exclusions": [e.to_dict() for e in self.exclusions],
        }

    def to_dict(self) -> dict:
        return {**self._head(), "machines": [r.to_dict() for r in self.reports]}

    def write_json(self, stream) -> None:
        """Write ``dumps_stable(self.to_dict())`` to ``stream``, one machine at a time, from the columns."""
        write_machines(stream, self._head(), self.columns, self.targets)


def cdf(values: Sequence[float]) -> list[tuple[float, float]]:
    """Empirical CDF points (value, cumulative probability).

    Sorted ascending; repeated values collapse to one point carrying the
    highest probability. The last point always has probability 1.
    """
    data = np.sort(np.asarray(values, dtype=np.float64))
    if len(data) == 0 or np.isnan(data[-1]):  # NaN sorts last
        raise MigrentError("cdf needs at least one value, and no NaN")
    data = data.tolist()
    n = len(data)
    return [(v, (i + 1) / n) for i, v in enumerate(data) if i + 1 == n or data[i + 1] != v]


def _group(values: Iterable, keys: Iterable) -> dict[object, list]:
    """``values`` split by their ``keys``.

    Groups come in the order their key first appears, and each group keeps
    its values in input order, so a mean over a group sums in that order.
    """
    groups: dict[object, list] = {}
    for value, key in zip(values, keys):
        groups.setdefault(key, []).append(value)
    return groups


def _datacenters(reports: Sequence[ScenarioReport]) -> list[str]:
    return [report.datacenter_id or "unknown" for report in reports]


def _block(columns: Sequence[MachineColumns], targets: Sequence[float]) -> np.ndarray:
    """The machines' values as one C-contiguous block, NaN where a value is undefined.

    A row per (target, scenario) cell, in mean-table order, and a column per
    machine, in the order of ``columns``.
    """
    machines = [c.machine for c in columns]
    return np.concatenate((
        np.broadcast_to([m.lift_and_shift for m in machines], (len(targets), 1, len(machines))),
        np.stack([c.scenario_values() for c in columns], axis=-1),
    ), axis=1).reshape(-1, len(machines))


def _row_means(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's mean over its non-NaN values (NaN if there are none), and their count.

    Rows without NaN take one ``np.mean(axis=1)``, which over a C-contiguous
    block sums each row pairwise as ``np.mean`` over the row alone does, so
    the last bits agree; ``np.bincount`` and ``np.add.reduceat`` would not,
    nor would the same mean over a column-major block such as
    ``block[:, group]``, which is therefore copied first.
    """
    block = np.ascontiguousarray(block)
    present = ~np.isnan(block)
    counts = present.sum(axis=1)
    means = np.mean(block, axis=1)  # NaN for every row holding NaN
    for i in np.flatnonzero((counts < block.shape[1]) & (counts > 0)):
        means[i] = np.mean(block[i, present[i]])  # the row's values compacted
    return means, counts


def _summarize(
    columns: Iterable[MachineColumns], exclusions: Sequence[Exclusion], targets: tuple[float, ...],
    catalog: Catalog, baseline: str,
) -> FleetReport:
    """The fleet tables from per-machine columns: the kernel of ``aggregate`` and ``analyze_manifest``.

    The values form one block with a row per (target, scenario) cell, in
    mean-table order, and a column per machine, in machine-id order. For the
    datacenter means its columns are regrouped into one block per
    datacenter, in order of each one's first machine.
    """
    columns = tuple(sorted(columns, key=lambda c: c.machine.machine_id))
    machines = [c.machine for c in columns]
    block = _block(columns, targets)

    machine_means, counts = _row_means(block)
    groups = _group(range(len(machines)), _datacenters(machines)).values()
    dc_means, _ = _row_means(np.stack([_row_means(block[:, group])[0] for group in groups], axis=-1))
    cells = [(target, scenario) for target in targets for scenario in SCENARIO_NAMES]
    means = tuple(
        {"target": t, "scenario": s, "machine_mean": None if m != m else m,
         "datacenter_mean": None if d != d else d, "machines": n}
        for (t, s), m, d, n in zip(cells, machine_means.tolist(), dc_means.tolist(), counts.tolist())
    )
    return FleetReport(baseline, targets, columns, tuple(exclusions), means, tuple(group_by_size(machines)),
                       tuple(utilization_by_release(machines, catalog)))


def aggregate(
    reports: Sequence[ScenarioReport],
    exclusions: Sequence[Exclusion],
    targets: Sequence[float],
    catalog: Catalog,
    baseline: str = BASELINE_LIFT_AND_SHIFT,
) -> FleetReport:
    """Build the fleet-level summary from per-machine reports.

    Machine means average over machines that have a value for the scenario;
    datacenter means first average within each datacenter, then across
    datacenters, so a huge datacenter cannot drown out the small ones. The
    reports are read into the columns ``analyze_manifest`` builds (see
    ``MachineColumns.from_report``).
    """
    if not reports:
        raise FleetError("no machines to aggregate", exclusions)
    targets = tuple(check_targets(targets))  # the means table has a row per target and scenario
    columns = [MachineColumns.from_report(r, targets) for r in sorted(reports, key=lambda r: r.machine_id)]
    return _summarize(columns, exclusions, targets, catalog, baseline)


def group_by_size(reports: Sequence[ScenarioReport], bin_count: int = DEFAULT_SIZE_BINS) -> list[dict]:
    """Datacenters grouped into contiguous bins by machine count.

    Datacenters are sorted by machine count and split into ``bin_count``
    near-equal groups, earlier bins taking the remainder; bins that would
    be empty are omitted. Each bin reports the spread of its datacenters'
    mean lift-and-shift fraction, showing whether bigger datacenters run
    newer hardware.
    """
    if bin_count < 1:
        raise ValueError(f"bin_count must be at least 1, got {bin_count}")
    by_dc = _group([r.lift_and_shift for r in reports], _datacenters(reports))
    dc_rows = [(len(fractions), dc, float(np.mean(fractions))) for dc, fractions in by_dc.items()]
    dc_rows.sort(key=lambda row: (row[0], row[1]))

    n = len(dc_rows)
    bins = min(bin_count, n)
    base, remainder = divmod(n, bins)
    out = []
    cursor = 0
    for b in range(bins):
        width = base + (1 if b < remainder else 0)
        chunk = dc_rows[cursor:cursor + width]
        cursor += width
        fractions = [row[2] for row in chunk]
        out.append(
            {
                "bin": b + 1,
                "datacenters": len(chunk),
                "machines": sum(row[0] for row in chunk),
                "mean": float(np.mean(fractions)),
                "min": float(np.min(fractions)),
                "max": float(np.max(fractions)),
            }
        )
    return out


def utilization_by_release(reports: Sequence[ScenarioReport], catalog: Catalog) -> list[dict]:
    """Peak-utilization spread grouped by the on-premise CPU's release year."""
    by_year = _group(
        [r.peak_utilization for r in reports],
        [catalog.lookup(r.cpu_model).release_date.year for r in reports],
    )
    out = []
    for year in sorted(by_year):
        peaks = by_year[year]
        out.append(
            {
                "release_year": year,
                "machines": len(peaks),
                "mean": float(np.mean(peaks)),
                "p10": nearest_rank(peaks, 10.0),
                "p25": nearest_rank(peaks, 25.0),
                "p75": nearest_rank(peaks, 75.0),
                "p90": nearest_rank(peaks, 90.0),
            }
        )
    return out


def check_jobs(jobs: int) -> int:
    """The number of worker processes, at least 1."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    return jobs


def analyze_manifest(
    entries: Sequence[ManifestEntry],
    base_dir,
    catalog: Catalog,
    model: EnergyModel,
    targets: Sequence[float],
    baseline: str = BASELINE_LIFT_AND_SHIFT,
    jobs: int = 1,
    window_seconds: float = DEFAULT_WINDOW_SECONDS,
    percentile: float = DEFAULT_PERCENTILE,
    min_days: int = DEFAULT_MIN_DAYS,
) -> FleetReport:
    """Analyze every machine in a manifest and aggregate the results.

    ``base_dir`` anchors relative trace paths (normally the manifest's own
    directory). With ``jobs > 1`` machines are analyzed in worker processes;
    results are identical to a sequential run. Every setting is checked
    before a trace is read, so a bad one raises ``ValueError`` naming it.
    """
    check_jobs(jobs)
    targets = tuple(check_targets(targets))
    check_baseline(baseline)
    check_window_seconds(window_seconds)
    check_percentile(percentile)
    check_min_days(min_days)
    # one picklable callable carries every setting to the workers
    analyze = partial(
        machine_columns, targets=targets, model=model, catalog=catalog, baseline=baseline,
        window_seconds=window_seconds, percentile=percentile, min_days=min_days,
    )
    work = partial(_analyze_entry, base_dir=str(base_dir), analyze=analyze)
    if jobs == 1 or len(entries) <= 1:
        results = [work(entry) for entry in entries]
    else:
        # imported here, as multiprocessing would add to every command's start-up
        from concurrent.futures import ProcessPoolExecutor

        # the pool forks all its workers at the first submit, and at most one per row has work
        workers = min(jobs, len(entries))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # four chunks per worker, as multiprocessing.Pool.map sizes them, so no worker idles long
            results = list(pool.map(work, entries, chunksize=-(-len(entries) // (4 * workers))))

    columns = [r for r in results if isinstance(r, MachineColumns)]
    exclusions = [r for r in results if isinstance(r, Exclusion)]
    if not columns:
        raise FleetError(
            f"all {len(exclusions)} machines failed to analyze", exclusions
        )
    return _summarize(columns, exclusions, targets, catalog, baseline)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def write_csv_reports(report: FleetReport, out_dir) -> list[Path]:
    """Emit the fleet aggregates as CSV files and return the paths written.

    One CDF file per scenario and target plus the mean table, the
    datacenter size bins, and the peak-utilization-by-release-year table.
    Each table's header is its rows' keys. Targets that share a file name
    raise ``ValueError`` before any file is written.
    """
    check_target_names(report.targets)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, rows in (
        ("mean_table", report.means),
        ("size_bins", report.size_bins),
        ("util_by_release", report.utilization_by_release),
    ):
        path = out / f"{name}.csv"
        write_table(path, rows[0].keys(), ([_fmt(v) for v in row.values()] for row in rows))
        written.append(path)

    for (scenario, target), points in sorted(report.cdfs.items()):
        path = out / f"cdf_{scenario}_{target:g}.csv"
        write_table(path, ("value", "cumulative_probability"), ([_fmt(v) for v in p] for p in points))
        written.append(path)

    return written
