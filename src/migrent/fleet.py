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
from typing import Callable, Iterable, Iterator, Sequence

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
from .table import keyed_rows, read_table, write_table
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
    rows = keyed_rows(read_table(source, MANIFEST_COLUMNS, ManifestError, "manifest"), "machine_id", ManifestError)
    entries = [ManifestEntry(machine_id, *(f.strip() for f in row[1:])) for _, machine_id, row in rows]
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
    """Aggregated fleet results plus each machine's, in machine-id order.

    ``_block`` has a row per mean-table cell and a column per machine: the
    means and ``cdfs`` come from its rows, and ``columns`` view its columns;
    ``reports`` builds the machines' ``ScenarioReport`` objects on first use.
    """

    baseline: str
    targets: tuple[float, ...]
    exclusions: tuple[Exclusion, ...]
    means: tuple[dict, ...]
    size_bins: tuple[dict, ...]
    utilization_by_release: tuple[dict, ...]
    _block: np.ndarray = field(repr=False, compare=False)
    _machines: tuple[ScenarioReport, ...] = field(repr=False, compare=False)
    _by_baseline: tuple[np.ndarray, ...] = field(repr=False, compare=False)

    @property
    def columns(self) -> tuple[MachineColumns, ...]:
        cells = self._block.reshape(len(self.targets), len(SCENARIO_NAMES), -1)  # a view
        return tuple(map(MachineColumns, self._machines, np.moveaxis(cells[:, 1:], -1, 0), self._by_baseline))

    @cached_property
    def reports(self) -> tuple[ScenarioReport, ...]:
        return tuple(c.to_report(self.targets) for c in self.columns)

    @cached_property
    def cdfs(self) -> dict[tuple[str, float], list[tuple[float, float]]]:
        """The ``cdf`` of each (scenario, target) cell's values; a cell no machine has a value for has none."""
        return dict(_cell_cdfs(self))

    def _head(self) -> dict:
        return {
            "baseline": self.baseline,
            "targets": list(self.targets),
            "machines_analyzed": len(self._machines),
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


def _cell_cdfs(report: FleetReport) -> Iterator[tuple[tuple[str, float], list[tuple[float, float]]]]:
    """Each (scenario, target) cell with a value and its ``cdf`` from the report's block, by scenario then target."""
    for scenario, target, row in sorted((m["scenario"], m["target"], i) for i, m in enumerate(report.means)):
        values = report._block[row][~np.isnan(report._block[row])]
        if values.size:
            yield (scenario, target), cdf(values)


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


def _row_means(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's mean over its non-NaN values (NaN if there are none), and their count.

    Rows without NaN take one ``np.mean(axis=1)``, which over a C-contiguous
    block sums each row pairwise as ``np.mean`` over the row alone does, so
    the last bits agree; ``np.bincount`` and ``np.add.reduceat`` would not,
    nor would a column-major ``block[:, group]``: pass ``block.take(group, axis=1)``.
    """
    missing = np.isnan(block)
    counts = block.shape[1] - missing.sum(axis=1)
    means = np.mean(block, axis=1)  # NaN for every row holding NaN
    for i in np.flatnonzero((counts < block.shape[1]) & (counts > 0)):
        means[i] = np.mean(block[i, ~missing[i]])  # the row's values compacted
    return means, counts


def _summarize(
    results: Iterable[MachineColumns | Exclusion], ranks: Sequence[int], targets: tuple[float, ...],
    catalog: Catalog, baseline: str,
) -> FleetReport:
    """The fleet tables from each machine's results: the kernel of ``aggregate`` and ``analyze_manifest``.

    Each result's values are copied into one block as the result arrives, at
    the column ``ranks`` gives it (its machine id's place in sorted order); a
    row per (target, scenario) cell, in mean-table order. The analyzed columns
    are then packed in place, row by row, at the head of the buffer, a
    C-contiguous block the report keeps. The datacenter means ``take`` each
    datacenter's columns, in order of its first machine, unless it has them all.
    """
    block = np.empty((len(targets) * len(SCENARIO_NAMES), len(ranks)))
    grid = block.reshape(len(targets), len(SCENARIO_NAMES), -1)
    machines, by_baseline, exclusions = [None] * len(ranks), [None] * len(ranks), []
    for rank, result in zip(ranks, results):
        if isinstance(result, Exclusion):
            exclusions.append(result)
        else:  # the block takes the scenarios after lift_and_shift (MachineColumns)
            grid[:, 1:, rank], machines[rank], by_baseline[rank] = result.values, result.machine, result.by_baseline
    kept = np.flatnonzero([machine is not None for machine in machines])  # one index array for every row
    if kept.size == 0:
        raise FleetError(f"all {len(exclusions)} machines failed to analyze", exclusions)
    if kept.size < len(ranks):
        for i, row in enumerate(block):  # earlier rows were packed below row i; row[kept] copies it first
            block.reshape(-1)[i * kept.size:(i + 1) * kept.size] = row[kept]
        block = block.reshape(-1)[:len(block) * kept.size].reshape(len(block), kept.size)
        machines, by_baseline = [machines[r] for r in kept], [by_baseline[r] for r in kept]
    block.reshape(len(targets), len(SCENARIO_NAMES), -1)[:, 0] = [m.lift_and_shift for m in machines]

    machine_means, counts = _row_means(block)
    groups = _group(range(len(machines)), _datacenters(machines)).values()
    blocks = (block if len(groups) == 1 else block.take(group, axis=1) for group in groups)
    dc_means, _ = _row_means(np.stack([_row_means(b)[0] for b in blocks], axis=-1))
    cells = [(target, scenario) for target in targets for scenario in SCENARIO_NAMES]
    means = tuple(
        {"target": t, "scenario": s, "machine_mean": None if m != m else m,
         "datacenter_mean": None if d != d else d, "machines": n}
        for (t, s), m, d, n in zip(cells, machine_means.tolist(), dc_means.tolist(), counts.tolist())
    )
    return FleetReport(baseline, targets, tuple(exclusions), means, tuple(group_by_size(machines)),
                       tuple(utilization_by_release(machines, catalog)), block, tuple(machines), tuple(by_baseline))


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
    return _summarize([*columns, *exclusions], range(len(columns) + len(exclusions)), targets, catalog, baseline)


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
    if n == 0:  # every bin would be empty
        return []
    out = []
    for b, rows in enumerate(np.array_split(np.arange(n), min(bin_count, n)), start=1):
        chunk = [dc_rows[i] for i in rows]
        fractions = [row[2] for row in chunk]
        out.append(
            {
                "bin": b,
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
    # each row's column: the rank of its machine id, ties in manifest order
    ranks = np.argsort(sorted(range(len(entries)), key=lambda i: entries[i].machine_id)).tolist()
    if jobs == 1 or len(entries) <= 1:
        return _summarize(map(work, entries), ranks, targets, catalog, baseline)
    # imported here, as multiprocessing would add to every command's start-up
    from concurrent.futures import ProcessPoolExecutor

    # the pool forks all its workers at the first submit, and at most one per row has work
    workers = min(jobs, len(entries))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        # four chunks per worker, as multiprocessing.Pool.map sizes them, so no worker idles long
        return _summarize(pool.map(work, entries, chunksize=-(-len(entries) // (4 * workers))),
                          ranks, targets, catalog, baseline)


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

    for (scenario, target), points in _cell_cdfs(report):
        path = out / f"cdf_{scenario}_{format_float(target)}.csv"
        write_table(path, ("value", "cumulative_probability"), ([_fmt(v) for v in p] for p in points))
        written.append(path)

    return written
