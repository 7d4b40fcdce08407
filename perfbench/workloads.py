"""Seeded corpora for the migrent benchmark and the checks on its outputs.

Each workload is a fleet corpus drawn from a seed plus the flags its CLI
runs take. ``dense`` and ``sweep`` are written by ``migrent synth``;
``wide`` has hourly samples, which ``synth`` does not offer, so the
benchmark draws it here with the same generative story and writes it with
the package's ``write_trace`` and ``write_manifest``.

Every corpus fixes the trace length and sample period, so a seed changes
the values but not the amount of work, and run-to-run spread stays a
property of the program rather than of the draw. ``wide`` keeps a range of
lengths on purpose: it is what sends machines to the exclusion ledger, and
with 1000 machines the total varies little between seeds.
"""

from __future__ import annotations

import hashlib
import importlib.util
import math
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from migrent.catalog import bundled_catalog
from migrent.fleet import ManifestEntry, load_manifest, write_manifest
from migrent.synth import DEFAULT_START, ParamRanges, generate_fleet, generate_trace
from migrent.trace import (
    DEFAULT_MIN_DAYS,
    DEFAULT_PERCENTILE,
    DEFAULT_WINDOW_SECONDS,
    UtilizationTrace,
    parse_timestamp,
    write_trace,
)

HOURLY_SECONDS = 3600
# The reference below uses the package's own quadrature, so only rounding
# may separate the two: the report's, to 6 significant digits, plus float
# rounding. Criterion 3's 1e-3 is the gap it allows between the trapezoid
# rule and the oversampled oracle on smooth random walks.
REPORT_DIGITS = 6
RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: how to draw its corpus and how to run it."""

    name: str
    machines: int
    datacenters: int
    ranges: ParamRanges
    hourly: bool = False
    targets: tuple[float, ...] | None = None  # None: the CLI default
    emit_csv: bool = False

    def synth_args(self) -> list[str]:
        """``migrent synth`` flags that reproduce ``ranges``."""
        r = self.ranges
        return [
            "--machines", str(self.machines),
            "--datacenters", str(self.datacenters),
            "--duration-days", f"{r.duration_days[0]},{r.duration_days[1]}",
            "--periods", ",".join(str(p) for p in r.sample_periods),
        ]

    def target_flags(self) -> list[str]:
        """Flags shared by the workload's ``fleet`` and ``analyze`` runs."""
        if self.targets is None:
            return []
        return ["--targets", ",".join(f"{t:g}" for t in self.targets)]


def _sweep_targets(n: int) -> tuple[float, ...]:
    return tuple(round((k + 1) / n, 6) for k in range(n))


# why dense and sweep exist is recorded in BENCHMARK.json. wide (per-machine
# overhead, pool dispatch of 1000 small tasks, the exclusion ledger and a
# 2 MB report) is left out of it, because at the run length that steadies
# the timings on a 2-CPU host only two workloads fit the run budget; it is
# run by hand with --workload wide.
FULL = {
    "dense": Workload("dense", 16, 4, ParamRanges(duration_days=(8, 8), sample_periods=(30,))),
    "sweep": Workload(
        "sweep", 12, 3, ParamRanges(duration_days=(8, 8), sample_periods=(30,)),
        targets=_sweep_targets(100), emit_csv=True,
    ),
    "wide": Workload("wide", 1000, 100, ParamRanges(duration_days=(5, 14)), hourly=True),
}

# seconds-long versions of the same workloads, for the harness smoke test
TINY = {
    "dense": Workload("dense", 2, 2, ParamRanges(duration_days=(8, 8), sample_periods=(30,))),
    "sweep": Workload(
        "sweep", 3, 2, ParamRanges(duration_days=(8, 8), sample_periods=(30,)),
        targets=_sweep_targets(10), emit_csv=True,
    ),
    "wide": Workload("wide", 40, 8, ParamRanges(duration_days=(5, 14)), hourly=True),
}


def draw_fleet(workload: Workload, seed: int):
    return generate_fleet(seed, workload.machines, workload.datacenters, workload.ranges, bundled_catalog())


def expected_exclusions(workload: Workload, seed: int) -> set[str]:
    """Machines whose traces cover fewer UTC days than peak estimation needs.

    Every trace starts at midnight UTC, so a trace of ``d`` whole days
    touches exactly ``d`` calendar days.
    """
    return {m.machine_id for m in draw_fleet(workload, seed) if m.params.duration_days < DEFAULT_MIN_DAYS}


def hourly_trace(params, machine_id: str, start: float) -> UtilizationTrace:
    """``synth.generate_trace``'s story (base, growth ramp, diurnal swing,
    noise) sampled once an hour, which ``SynthParams`` does not allow."""
    n = params.duration_days * 24
    offsets = np.arange(n, dtype=np.float64) * HOURLY_SECONDS
    times = start + offsets
    days_since_refresh = np.floor(offsets / 86400.0) % params.refresh_period_days
    hour_of_day = (times % 86400.0) / 3600.0
    u = (
        params.base_utilization
        + params.growth_per_day * days_since_refresh
        + params.diurnal_amplitude * np.sin(2.0 * np.pi * hour_of_day / 24.0)
    )
    rng = np.random.Generator(np.random.PCG64(params.seed))
    u = u + rng.normal(0.0, params.noise_stddev, n)
    return UtilizationTrace(machine_id, times, np.clip(u, 0.0, 1.0))


def write_corpus(workload: Workload, seed: int, out: Path, tracer=None) -> Path:
    """Write the workload's corpus in-process, as ``synth.write_fleet`` does.

    For the synth-based workloads the bytes equal ``migrent synth``'s. With
    a tracer, each generate and write call gets its own span.
    """
    span = tracer.span if tracer is not None else (lambda *a, **k: nullcontext())
    start = parse_timestamp(DEFAULT_START)
    with span("synth.generate_fleet"):
        fleet = draw_fleet(workload, seed)
    entries = []
    for machine in fleet:
        with span("synth.generate", machine.machine_id):
            if workload.hourly:
                trace = hourly_trace(machine.params, machine.machine_id, start)
            else:
                trace = generate_trace(machine.params, machine.machine_id, start)
        rel_path = f"traces/{machine.machine_id}.csv"
        with span("synth.write", machine.machine_id, samples=len(trace)):
            write_trace(trace, out / rel_path)
        entries.append(ManifestEntry(machine.machine_id, rel_path, machine.cpu_model, machine.datacenter_id))
    manifest = out / "manifest.csv"
    with span("fleet.write_manifest"):
        write_manifest(entries, manifest)
    return manifest


@dataclass(frozen=True)
class Corpus:
    """What a written corpus holds: the bases every ratio is given against."""

    manifest: Path
    rows: int
    samples: int
    bytes: int
    digest: str


def describe(manifest: Path) -> Corpus:
    digest = hashlib.sha256()
    samples = size = 0
    entries = load_manifest(manifest)
    for path in [manifest] + [manifest.parent / e.trace_path for e in entries]:
        data = path.read_bytes()
        digest.update(data)
        size += len(data)
        if path != manifest:
            samples += data.count(b"\n") - 1
    return Corpus(manifest, len(entries), samples, size, digest.hexdigest())


# ---------------------------------------------------------------- output gate


def check_fleet(report: dict, corpus: Corpus, expected_excluded: set[str]) -> list[str]:
    """Problems with one parsed fleet report; empty when it is right."""
    problems = []
    analyzed, excluded = report["machines_analyzed"], report["machines_excluded"]
    if analyzed + excluded != corpus.rows:
        problems.append(f"{analyzed} analyzed + {excluded} excluded != {corpus.rows} manifest rows")
    if len(report["machines"]) != analyzed:
        problems.append(f"report lists {len(report['machines'])} machines, says {analyzed}")
    got = {e["machine_id"] for e in report["exclusions"]}
    if got != expected_excluded:
        problems.append(
            f"excluded {sorted(got ^ expected_excluded)[:5]} differ from the machines drawn under "
            f"{DEFAULT_MIN_DAYS} days"
        )
    return problems


def check_csv_dir(report: dict, csv_dir: Path) -> list[str]:
    """The ``--emit-csv`` directory holds the three tables plus one CDF per
    (scenario, target) that has values."""
    want = 3 + sum(1 for row in report["mean_table"] if row["machines"])
    got = len(list(csv_dir.iterdir()))
    return [] if got == want else [f"{csv_dir.name}: {got} CSV files, expected {want}"]


def dir_digest(path: Path) -> str:
    digest = hashlib.sha256()
    for file in sorted(path.iterdir()):
        digest.update(file.name.encode() + b"\0" + file.read_bytes())
    return digest.hexdigest()


def trapezoid_riemann(t, u, f, lo: float | None = None, hi: float | None = None) -> float:
    """``oracles.riemann`` with the trapezoid rule on the sample grid in
    place of its oversampled midpoint sum.

    The trapezoid rule is the package's documented quadrature
    (``migrent.trace.integrate``). On a rough signal it differs from the
    exact integral of the piecewise-linear utilization by more than
    criterion 3 allows; that gap is reported, not gated.
    """
    t = np.asarray(t, dtype=float)
    u = np.asarray(u, dtype=float)
    lo = t[0] if lo is None else max(lo, t[0])
    hi = t[-1] if hi is None else min(hi, t[-1])
    if hi <= lo:
        return 0.0
    ts = np.unique(np.concatenate((t[(t > lo) & (t < hi)], [lo, hi])))
    y = f(np.interp(ts, t, u))
    return float(np.sum(0.5 * (y[:-1] + y[1:]) * np.diff(ts)))


def load_oracles(root: Path, riemann=None):
    """A fresh copy of ``tests/oracles.py``, its quadrature optionally
    replaced: every reference fraction there integrates through its
    module-level ``riemann``."""
    spec = importlib.util.spec_from_file_location("migrent_oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if riemann is not None:
        module.riemann = riemann
    return module


def read_trace_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Trace file to (POSIX seconds, fractions) without the package's parser."""
    lines = path.read_text(encoding="utf-8").split()[1:]
    stamps, percents = zip(*(line.split(",") for line in lines))
    moments = np.array([s.rstrip("Z") for s in stamps], dtype="datetime64[us]")
    seconds = (moments - np.datetime64("1970-01-01T00:00:00", "us")) / np.timedelta64(1, "s")
    return seconds.astype(np.float64), np.array(percents, dtype=np.float64) / 100.0


def _smooth_ref(oracles, t, u, window: float, block: int = 16) -> np.ndarray:
    """``oracles.smooth_ref`` block by block, so a long trace stays affordable.

    Each block is computed from a slice that starts one sample before its
    earliest window, where the slice's flat extension equals the real
    signal, so every output is the brute-force value for the whole trace.
    """
    out = np.empty_like(u)
    for b0 in range(0, t.size, block):
        b1 = min(b0 + block, t.size)
        lo = int(np.searchsorted(t, t[b0] - window, side="right"))
        out[b0:b1] = oracles.smooth_ref(t[lo:b1], u[lo:b1], window)[b0 - lo:]
    return out


def check_oracle(root: Path, trace_path: Path, machine: dict, target: float, model) -> tuple[list[str], float]:
    """Peak and all five fractions of one machine at one target, against
    the brute-force references in ``tests/oracles.py``.

    The peak and lift-and-shift need no integral. The four integral
    fractions are gated against the oracle formulas with the trapezoid
    rule (:func:`trapezoid_riemann`); returns the problems and the largest
    relative gap between the package and the oracles' own oversampled
    quadrature.
    """
    oracles, trapezoid = load_oracles(root), load_oracles(root, trapezoid_riemann)
    t, u = read_trace_csv(trace_path)
    a, m = model.idle_fraction, model.linear_mix
    smoothed = _smooth_ref(oracles, t, u, DEFAULT_WINDOW_SECONDS)
    days = np.floor(t / 86400.0)
    maxima = [smoothed[days == d].max() for d in np.unique(days)]
    peak = oracles.nearest_rank_ref(maxima, DEFAULT_PERCENTILE)

    catalog = bundled_catalog()
    on_prem, cloud = catalog.lookup(machine["cpu_model"]), catalog.cloud_spec
    ls = oracles.lift_and_shift_ref(on_prem.spec_score, on_prem.tdp_watts, cloud.spec_score, cloud.tdp_watts)
    row = next(r for r in machine["targets"] if math.isclose(r["target"], target))

    def fractions(ref):
        static = ref.static_fraction_ref(t, u, target, peak, a, m)
        return {
            "static_resize": static,
            "combined": ls * static,
            "autoscale_ideal": ref.ideal_fraction_ref(t, u, target, a, m),
            "autoscale_hourly": ref.hourly_fraction_ref(t, u, target, a, m),
        }

    want = {"peak_utilization": (machine["peak_utilization"], peak), "lift_and_shift": (row["lift_and_shift"], ls)}
    want.update((name, (row[name], ref)) for name, ref in fractions(trapezoid).items())
    problems = [
        f"{machine['machine_id']} {name} at target {target:g}: {got!r} vs reference {ref:.12g}"
        for name, (got, ref) in want.items()
        if not _reported_as(got, ref)
    ]
    gap = max(abs(row[name] - ref) / abs(ref) for name, ref in fractions(oracles).items() if ref and row[name] is not None)
    return problems, gap


def _reported_as(got: float | None, ref: float) -> bool:
    """``got`` is ``ref`` rounded to the report's significant digits."""
    if got is None:
        return False
    half_unit = 0.5 * 10.0 ** (math.floor(math.log10(abs(ref))) - REPORT_DIGITS + 1) if ref else 0.0
    return abs(got - ref) <= half_unit + RTOL * abs(ref) + 1e-12


def oracle_machine(report: dict) -> dict:
    """The first analyzed, non-idle machine in manifest order."""
    return next(m for m in report["machines"] if not m["idle_machine"])
