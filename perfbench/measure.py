"""The benchmark's two modes: end-to-end CLI runs, and the traced run.

End to end (``--trace 0``), a single closed-loop client runs the real CLI
as a subprocess, one invocation at a time, and never with more workers
than the CPUs it may use. The traced run (``--trace 1``) drives the same
pipeline in-process through each module's public functions, with a span
around every call, and compares its report with an untraced CLI run.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import migrent
import workloads as wl
from migrent.catalog import bundled_catalog
from migrent.cli import DEFAULT_TARGETS
from migrent.energy import EnergyModel, relative_power
from migrent.errors import MigrentError
from migrent.fleet import Exclusion, aggregate, analyze_manifest, load_manifest, write_csv_reports
from migrent.report import dumps_stable
from migrent.scenarios import MachineRecord, analyze_machine, autoscale_hourly_fraction
from migrent.trace import estimate_peak, parse_trace, smooth
from spans import Tracer

NPROC = len(os.sched_getaffinity(0))
HELD_OUT_SEED = 9001  # claims of a gain must also hold on this seed
CHILD_TIMEOUT_S = 150.0

NOTES = [
    "the CLI runs as `python -m migrent` with src on PYTHONPATH: the console script needs an "
    "install, which pyproject.toml makes require setuptools>=68 and the wheel package",
    "every fleet run passes --jobs: its help says 'default: 1' but the code defaults to os.cpu_count()",
]


class BenchError(Exception):
    """A step the run cannot go on without failed."""


@dataclass(frozen=True)
class Child:
    seconds: float
    code: int
    rss_mb: float
    stdout: bytes
    stderr: str


def run_cli(args: list[str], root: Path, work: Path) -> Child:
    """Run ``python -m migrent ARGS`` from spawn to exit, stdout captured.

    Peak RSS comes from ``wait4``, so it is this child's alone.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    out_path, err_path = work / "child.stdout", work / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "migrent", *args], stdout=out, stderr=err, env=env, cwd=root
        )
        pidfd = os.pidfd_open(proc.pid)
        try:
            if not select.select([pidfd], [], [], CHILD_TIMEOUT_S)[0]:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(seconds, proc.returncode, usage.ru_maxrss / 1024.0, out_path.read_bytes(),
                 err_path.read_text(encoding="utf-8", errors="replace"))


def summarize(values: list[float]) -> dict:
    """Median and the highest nearest-rank percentile with at least ten
    samples above it (the maximum when there are too few samples)."""
    data = sorted(values)
    n = len(data)
    if n > 10:
        pct = math.floor(1000.0 * (n - 10) / n) / 10.0
        tail = data[math.ceil(pct * n / 100.0) - 1]
    else:
        pct, tail = "max", data[-1]
    return {"median": statistics.median(data), "tail": tail, "tail_pct": pct, "n": n}


class Gate:
    """Counts machine analyses attempted and those in runs that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, machines: int, problems: list[str]) -> bool:
        self.attempted += machines
        if problems:
            self.failed += machines
            self.problems += [f"{what}: {p}" for p in problems]
        return not problems


def environment(root: Path) -> dict:
    src = hashlib.sha256()
    for path in sorted((root / "src" / "migrent").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    sha = None
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        sha = done.stdout.strip() or None
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "migrent": migrent.__version__,
        "nproc": NPROC,
    }


def bases(seed: int, corpus, report: dict) -> dict:
    return {
        "seed": seed,
        "machines": corpus.rows,
        "analyzed": report["machines_analyzed"],
        "excluded": report["machines_excluded"],
        "samples": corpus.samples,
        "corpus_bytes": corpus.bytes,
        "targets": len(report["targets"]),
    }


def _machine_row(manifest: Path, machine_id: str):
    return next(e for e in load_manifest(manifest) if e.machine_id == machine_id)


def _oracle(root: Path, manifest: Path, report: dict, gate: Gate) -> dict:
    """Gate one machine against the references; returns what was checked,
    with the gap to the oversampled oracle quadrature."""
    machine = wl.oracle_machine(report)
    targets = report["targets"]
    entry = _machine_row(manifest, machine["machine_id"])
    target = targets[len(targets) // 2]
    problems, gap = wl.check_oracle(root, manifest.parent / entry.trace_path, machine, target, EnergyModel())
    if problems:
        gate.failed += 1
        gate.problems += [f"oracle: {p}" for p in problems]
    return {"machine": machine["machine_id"], "target": target, "rel_tol": wl.RTOL, "midpoint_rel_gap": gap}


# ---------------------------------------------------------------- end to end


def end_to_end(workload, seed: int, seconds: float, work: Path, root: Path, repeats: int):
    """``repeats`` corpus builds give setup_s; then cycles of fleet --jobs 1,
    fleet --jobs NPROC and ``repeats`` analyze runs, at least ``repeats``
    cycles and otherwise as many as fit in ``seconds``."""
    corpus_dir = work / "corpus"
    setup_s, corpora = [], []
    for _ in range(repeats):
        shutil.rmtree(corpus_dir, ignore_errors=True)
        if workload.hourly:
            start = time.perf_counter()
            wl.write_corpus(workload, seed, corpus_dir)
            setup_s.append(time.perf_counter() - start)
        else:
            child = run_cli(["synth", "--seed", str(seed), "--out", str(corpus_dir), *workload.synth_args()],
                            root, work)
            if child.code != 0:
                raise BenchError(f"synth exited {child.code}: {child.stderr[-500:]}")
            setup_s.append(child.seconds)
        corpora.append(wl.describe(corpus_dir / "manifest.csv"))
    if len({c.digest for c in corpora}) != 1:
        raise BenchError("the same seed wrote different corpora")
    corpus = corpora[-1]
    manifest = corpus.manifest
    expected = wl.expected_exclusions(workload, seed)

    gate = Gate()
    series = {"fleet_s": [], "fleet_par_s": [], "analyze_s": [], "fleet_rss_mb": []}
    first = {"stdout": None, "report": None, "csv": None}

    def fleet(jobs: int) -> None:
        args = ["fleet", str(manifest), "--jobs", str(jobs), *workload.target_flags()]
        csv_dir = work / f"csv_j{jobs}"
        if workload.emit_csv:
            shutil.rmtree(csv_dir, ignore_errors=True)
            args += ["--emit-csv", str(csv_dir)]
        child = run_cli(args, root, work)
        problems = [] if child.code == 0 else [f"exit {child.code}: {child.stderr[-500:]}"]
        if not problems and first["stdout"] is None:
            first["stdout"], first["report"] = child.stdout, json.loads(child.stdout)
            problems = wl.check_fleet(first["report"], corpus, expected)
            if workload.emit_csv:
                problems += wl.check_csv_dir(first["report"], csv_dir)
                first["csv"] = wl.dir_digest(csv_dir)
        elif not problems:
            if child.stdout != first["stdout"]:
                problems.append("stdout differs from the first --jobs 1 run")
            if workload.emit_csv and wl.dir_digest(csv_dir) != first["csv"]:
                problems.append("--emit-csv files differ from the first --jobs 1 run")
        if not gate.record(f"fleet --jobs {jobs}", corpus.rows, problems) and first["report"] is None:
            raise BenchError("; ".join(gate.problems))
        if jobs == 1:
            series["fleet_s"].append(child.seconds)
            series["fleet_rss_mb"].append(child.rss_mb)
        else:
            series["fleet_par_s"].append(child.seconds)

    def analyze(machine: dict, entry) -> None:
        child = run_cli(
            ["analyze", str(manifest.parent / entry.trace_path), entry.cpu_model,
             "--machine-id", entry.machine_id, "--datacenter", entry.datacenter_id, *workload.target_flags()],
            root, work,
        )
        problems = [] if child.code == 0 else [f"exit {child.code}: {child.stderr[-500:]}"]
        if not problems and json.loads(child.stdout) != machine:
            problems.append(f"report for {entry.machine_id} differs from its entry in the fleet report")
        gate.record("analyze", 1, problems)
        series["analyze_s"].append(child.seconds)

    deadline = time.perf_counter() + seconds
    cycle_s: list[float] = []
    target = None
    while len(cycle_s) < repeats or time.perf_counter() + statistics.median(cycle_s) <= deadline:
        start = time.perf_counter()
        fleet(1)
        fleet(NPROC)
        if target is None:
            machine = wl.oracle_machine(first["report"])
            target = (machine, _machine_row(manifest, machine["machine_id"]))
        for _ in range(repeats):
            analyze(*target)
        cycle_s.append(time.perf_counter() - start)
    oracle = _oracle(root, manifest, first["report"], gate)

    series["setup_s"] = setup_s
    timings = {name: {**summarize(values), "values": values} for name, values in series.items()}
    metrics = {
        "setup_s": (timings["setup_s"]["median"], "s"),
        "fleet_s": (timings["fleet_s"]["median"], "s"),
        "fleet_par_s": (timings["fleet_par_s"]["median"], "s"),
        "analyze_s": (timings["analyze_s"]["median"], "s"),
        "fleet_rss_mb": (timings["fleet_rss_mb"]["median"], "MB"),
    }
    detail = {
        "bases": bases(seed, corpus, first["report"]),
        "timings": timings,
        "cycles": len(cycle_s),
        "oracle": oracle,
        "fail_frac": gate.failed / gate.attempted,
    }
    return gate, metrics, detail


# ---------------------------------------------------------------- traced run


def traced_pass(tracer: Tracer, manifest: Path, targets, catalog, model, work: Path, root: Path, repeats: int):
    """One in-process pass over the corpus.

    Returns the rendered report and the ways the whole-fleet calls
    disagree with it.
    """
    base = manifest.parent
    for _ in range(repeats):
        with tracer.span("cli.startup"):
            child = run_cli(["catalog", "list"], root, work)
        if child.code != 0:
            raise BenchError(f"catalog list exited {child.code}: {child.stderr[-500:]}")
    with tracer.span("fleet.load_manifest"):
        entries = load_manifest(manifest)
    reports, exclusions = [], []
    middle = targets[len(targets) // 2]
    for entry in entries:
        with tracer.span("machine", entry.machine_id):
            path = base / entry.trace_path
            with tracer.span("trace.parse", entry.machine_id, bytes=path.stat().st_size):
                trace = parse_trace(path, machine_id=entry.machine_id)
            record = MachineRecord(entry.machine_id, trace, entry.cpu_model, entry.datacenter_id)
            try:
                with tracer.span("scenarios.analyze", entry.machine_id, samples=len(trace)):
                    reports.append(analyze_machine(record, targets, model, catalog))
            except MigrentError as exc:
                exclusions.append(Exclusion(entry.machine_id, str(exc)))
                continue
            with tracer.span("trace.smooth", entry.machine_id):
                smooth(trace)
            with tracer.span("trace.peak", entry.machine_id):
                estimate_peak(trace)
            with tracer.span("energy.relative_power", entry.machine_id, samples=len(trace)):
                relative_power(model, trace.values)
            with tracer.span("scenarios.hourly_fraction", entry.machine_id):
                autoscale_hourly_fraction(trace, middle, model)
    with tracer.span("fleet.aggregate"):
        report = aggregate(reports, exclusions, targets, catalog)
    with tracer.span("report.render"):
        text = dumps_stable(report.to_dict())
    csv_dir = work / "csv_traced"
    shutil.rmtree(csv_dir, ignore_errors=True)
    with tracer.span("fleet.write_csv"):
        write_csv_reports(report, csv_dir)
    problems = []
    for name, jobs in (("fleet.analyze_manifest", 1), ("fleet.analyze_manifest_par", NPROC)):
        with tracer.span(name, jobs=jobs):
            again = analyze_manifest(entries, base, catalog, model, targets, jobs=jobs)
        if dumps_stable(again.to_dict()) != text:
            problems.append(f"analyze_manifest(jobs={jobs}) differs from the per-call pipeline")
    return text, problems


def _pass_values(spans) -> dict:
    """Per-layer sums over one pass's spans."""
    def total(name, ok_only=False):
        return sum(s.seconds for s in spans if s.name == name and not (ok_only and s.error))

    def count(name, key, ok_only=False):
        return sum(s.counts[key] for s in spans if s.name == name and not (ok_only and s.error))

    return {
        "parse_s": total("trace.parse"),
        "bytes_read": count("trace.parse", "bytes"),
        "analyze_all_s": total("scenarios.analyze"),
        "analyze_s": total("scenarios.analyze", ok_only=True),
        "analyzed_samples": count("scenarios.analyze", "samples", ok_only=True),
        "peak_s": total("trace.peak"),
        "smooth_s": total("trace.smooth"),
        "relative_power_s": total("energy.relative_power"),
        "hourly_fraction_s": total("scenarios.hourly_fraction"),
        "load_manifest_s": total("fleet.load_manifest"),
        "aggregate_s": total("fleet.aggregate"),
        "render_s": total("report.render"),
        "write_csv_s": total("fleet.write_csv"),
        "analyze_manifest_s": total("fleet.analyze_manifest"),
        "analyze_manifest_par_s": total("fleet.analyze_manifest_par"),
        "startup_s": statistics.median(s.seconds for s in spans if s.name == "cli.startup"),
    }


def traced(workload, seed: int, seconds: float, work: Path, root: Path, repeats: int):
    """One traced corpus build, then traced passes (at least one) for
    ``seconds``, then one untraced fleet --jobs 1 run to compare against."""
    tracer = Tracer()
    corpus_dir = work / "corpus"
    shutil.rmtree(corpus_dir, ignore_errors=True)
    with tracer.span("setup"):
        manifest = wl.write_corpus(workload, seed, corpus_dir, tracer)
    setup_spans = list(tracer.spans)
    corpus = wl.describe(manifest)
    targets = workload.targets or DEFAULT_TARGETS
    catalog, model = bundled_catalog(), EnergyModel()

    gate = Gate()
    passes, text = [], None
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() + statistics.median(p["pass_s"] for p in passes) <= deadline:
        first = len(tracer.spans)
        with tracer.span("pass") as span:
            rendered, problems = traced_pass(tracer, manifest, targets, catalog, model, work, root, repeats)
        if text is None:
            text, report = rendered, json.loads(rendered)
            problems += wl.check_fleet(report, corpus, wl.expected_exclusions(workload, seed))
        elif rendered != text:
            problems.append("report differs from the first pass")
        # each pass analyzes every machine three times: per call, then in both analyze_manifest runs
        gate.record("traced pass", 3 * corpus.rows, problems)
        values = _pass_values(tracer.spans[first:])
        values["pass_s"] = span.seconds
        passes.append(values)

    child = run_cli(["fleet", str(manifest), "--jobs", "1", *workload.target_flags()], root, work)
    problems = [] if child.code == 0 else [f"exit {child.code}: {child.stderr[-500:]}"]
    if not problems and child.stdout.decode() != text:
        problems.append("CLI stdout differs from the traced in-process report")
    gate.record("untraced fleet --jobs 1", corpus.rows, problems)
    oracle = _oracle(root, manifest, report, gate)

    def med(key):
        return statistics.median(p[key] for p in passes)

    per_machine = {name: [] for name in ("trace.parse", "scenarios.analyze")}
    for span in tracer.spans:
        if span.name in per_machine and not span.error:
            per_machine[span.name].append(span.seconds * 1e3)
    parse_ms, analyze_ms = summarize(per_machine["trace.parse"]), summarize(per_machine["scenarios.analyze"])
    written = [s for s in setup_spans if s.name == "synth.write"]
    pipeline = [med(k) for k in ("startup_s", "load_manifest_s", "parse_s", "analyze_all_s", "aggregate_s", "render_s")]
    n_targets = len(targets)
    metrics = {
        "trace.parse_s": (med("parse_s"), "s"),
        "trace.parse_ns_per_sample": (med("parse_s") / corpus.samples * 1e9, "ns"),
        "trace.parse_ms_p50": (parse_ms["median"], "ms"),
        "trace.parse_ms_tail": (parse_ms["tail"], "ms"),
        "trace.samples": (corpus.samples, "count"),
        "trace.bytes_read": (passes[0]["bytes_read"], "bytes"),
        "trace.peak_s": (med("peak_s"), "s"),
        "trace.smooth_s": (med("smooth_s"), "s"),
        "trace.write_ns_per_sample": (
            sum(s.seconds for s in written) / sum(s.counts["samples"] for s in written) * 1e9, "ns"),
        "energy.relative_power_ns_per_sample": (med("relative_power_s") / passes[0]["analyzed_samples"] * 1e9, "ns"),
        "scenarios.analyze_s": (med("analyze_s"), "s"),
        "scenarios.analyze_ms_p50": (analyze_ms["median"], "ms"),
        "scenarios.analyze_ms_tail": (analyze_ms["tail"], "ms"),
        "scenarios.ns_per_sample_target": (
            med("analyze_s") / (passes[0]["analyzed_samples"] * n_targets) * 1e9, "ns"),
        # an estimate: analyze_machine's own peak step is not visible from outside
        "scenarios.kernel_s": (statistics.median(p["analyze_s"] - p["peak_s"] for p in passes), "s"),
        "scenarios.hourly_fraction_s": (med("hourly_fraction_s"), "s"),
        "fleet.load_manifest_s": (med("load_manifest_s"), "s"),
        "fleet.analyze_manifest_s": (med("analyze_manifest_s"), "s"),
        "fleet.analyze_manifest_par_s": (med("analyze_manifest_par_s"), "s"),
        "fleet.parallel_efficiency": (
            statistics.median(p["analyze_manifest_s"] / (NPROC * p["analyze_manifest_par_s"]) for p in passes),
            "ratio"),
        "fleet.aggregate_s": (med("aggregate_s"), "s"),
        "fleet.write_csv_s": (med("write_csv_s"), "s"),
        "fleet.machines": (corpus.rows, "count"),
        "fleet.excluded": (report["machines_excluded"], "count"),
        "report.render_s": (med("render_s"), "s"),
        "report.json_bytes": (len(text.encode()), "bytes"),
        "synth.generate_s": (
            sum(s.seconds for s in setup_spans if s.name in ("synth.generate_fleet", "synth.generate")), "s"),
        "synth.write_s": (
            sum(s.seconds for s in setup_spans if s.name in ("synth.write", "fleet.write_manifest")), "s"),
        "synth.bytes_written": (corpus.bytes, "bytes"),
        "cli.startup_s": (med("startup_s"), "s"),
        "bench.trace_overhead_frac": (sum(pipeline) / child.seconds - 1.0, "frac"),
    }
    layer_s = {name: metrics[name][0] for name in (
        "trace.parse_s", "trace.peak_s", "trace.smooth_s", "scenarios.analyze_s", "scenarios.hourly_fraction_s",
        "fleet.load_manifest_s", "fleet.aggregate_s", "fleet.write_csv_s", "report.render_s")}
    detail = {
        "bases": bases(seed, corpus, report),
        "passes": len(passes),
        "untraced_fleet_s": child.seconds,
        "largest_layer": max(layer_s, key=layer_s.get),
        "aggregate_render_share": (med("aggregate_s") + med("render_s")) / sum(pipeline),
        "per_machine_ms": {"trace.parse": parse_ms, "scenarios.analyze": analyze_ms},
        "layers": tracer.layers(),
        "oracle": oracle,
        "fail_frac": gate.failed / gate.attempted,
    }
    tracer.dump(work / "spans.json")
    return gate, metrics, detail
