"""Command-line interface.

Four subcommands: ``analyze`` one trace, ``fleet`` for a whole manifest,
``synth`` to generate a reproducible synthetic corpus, and ``catalog`` to
inspect CPU data. Results go to stdout as JSON (or plain text where noted);
errors go to stderr as a one-object JSON document.

Exit codes: 0 success, 2 bad arguments or malformed input, 3 not enough
days of data for peak estimation, 4 every machine in a fleet failed, 141
(128 + SIGPIPE) stdout closed early, with an empty stderr.
Option precedence: command-line flag, then ``--config`` file, then the
built-in default. The ``MIGRENT_CATALOG`` environment variable supplies a
catalog path when ``--catalog`` is absent; the bundled fictional catalog is
the last resort.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import fleet as fleet_mod
from . import synth as synth_mod
from .catalog import bundled_catalog, compute_ce, lift_and_shift_fraction, load_catalog
from .energy import DEFAULT_IDLE_FRACTION, DEFAULT_LINEAR_MIX, EnergyModel
from .errors import FleetError, InsufficientDataError, MigrentError
from .report import check_target_names, dumps_stable, format_float
from .scenarios import BASELINES, BASELINE_LIFT_AND_SHIFT, MachineRecord, analyze_machine, check_baseline, check_targets
from .table import read_bytes
from .trace import (
    DEFAULT_MIN_DAYS,
    DEFAULT_PERCENTILE,
    DEFAULT_WINDOW_SECONDS,
    check_min_days,
    check_percentile,
    check_window_seconds,
    parse_trace,
)

ENV_CATALOG = "MIGRENT_CATALOG"

DEFAULT_TARGETS = (0.5, 0.6, 0.7, 0.8, 0.9)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INSUFFICIENT_DATA = 3
EXIT_ALL_FAILED = 4
EXIT_CLOSED_STDOUT = 141


def _usable_cpus() -> int:
    """How many CPUs this process may run on: its affinity set where the OS
    reports one (a ``taskset`` or container cpuset shrinks it), else the host's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# the settings analyze_machine takes as keywords, passed on unchanged
_ANALYSIS_KEYS = ("baseline", "window_seconds", "percentile", "min_days")


def _strict(kind: type, check=lambda value: value):
    """One setting's converter: a strict ``kind`` parse, then the library's ``check``.

    Flag strings, config values and defaults all take this path. Booleans are
    not numbers (``type(True)`` is ``bool``), and an integer setting refuses
    "2.5" or 7.9 instead of truncating it.
    """
    accepted = (str, int, float) if kind is float else (str, int)
    what = "a number" if kind is float else "an integer"

    def convert(key: str, raw):
        try:
            if type(raw) not in accepted:  # a list, null or boolean
                raise TypeError(raw)
            value = kind(raw)
        except (TypeError, ValueError, OverflowError):  # OverflowError: an integer too large for a float
            raise ValueError(f"{key} must be {what}, got {raw}") from None
        return check(value)

    return convert


_number = _strict(float)


def _parse_targets(key: str, raw) -> tuple[float, ...]:
    if isinstance(raw, str):
        try:
            values = [_number(key, p) for p in raw.split(",") if p.strip()]
        except ValueError:
            raise ValueError(f"targets must be comma-separated numbers, got {raw!r}") from None
    elif isinstance(raw, (list, tuple)):
        values = [_number(key, v) for v in raw]
    else:
        raise ValueError(f"targets must be a list or comma-separated string, got {raw!r}")
    check_targets(values)
    try:
        check_target_names(values)
    except ValueError as exc:
        raise ValueError(f"{exc} in {raw!r}") from None
    return tuple(values)


# Every setting a flag or the --config file can give: its default, how a
# flag, config or default value becomes the setting (None: kept as is) and
# its flag's help, where "{}" shows the default. One config file serves every
# subcommand; each subcommand resolves only the settings its parser defines.
_SETTINGS = {
    "catalog": (None, None, f"catalog CSV path (default: ${ENV_CATALOG} or the bundled catalog)"),
    "cloud_ref": (None, None, "cloud reference CPU model (default: newest cloud entry)"),
    "targets": (DEFAULT_TARGETS, _parse_targets, "comma-separated target utilizations (default: {})"),
    "baseline": (BASELINE_LIFT_AND_SHIFT, lambda key, raw: check_baseline(str(raw)),
                 "denominator for auto-scaling fractions (default: {})"),
    # idle_fraction is checked together with linear_mix by EnergyModel
    "idle_fraction": (DEFAULT_IDLE_FRACTION, _number, "relative power at zero utilization (default: {})"),
    "linear_mix": (DEFAULT_LINEAR_MIX, _number, "linear share of the loaded power curve (default: {})"),
    "window_seconds": (DEFAULT_WINDOW_SECONDS, _strict(float, check_window_seconds),
                       "smoothing window for peak estimation (default: {})"),
    "percentile": (DEFAULT_PERCENTILE, _strict(float, check_percentile),
                   "percentile of daily maxima used as the peak (default: {})"),
    "min_days": (DEFAULT_MIN_DAYS, _strict(int, check_min_days), "minimum days of data required (default: {})"),
    "jobs": (_usable_cpus(), _strict(int, fleet_mod.check_jobs),
             "worker processes (default: the number of CPUs this process may run on)"),
}


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    data = read_bytes(path, MigrentError, "config")
    try:
        config = json.loads(data.decode("utf-8"))
    except ValueError as exc:  # JSONDecodeError, undecodable bytes or an over-long integer
        raise MigrentError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise MigrentError(f"config {path} must hold a JSON object")
    unknown = sorted(set(config) - set(_SETTINGS))
    if unknown:
        raise MigrentError(f"config {path} has unknown keys: {', '.join(unknown)}")
    return config


class _Settings:
    """Flag > config file > default for each setting the subcommand defines."""

    def __init__(self, args: argparse.Namespace):
        config = _load_config(args.config)
        try:
            for key, (default, convert, _) in _SETTINGS.items():
                if not hasattr(args, key):
                    continue  # another subcommand's setting
                value = getattr(args, key)
                if value is None:
                    value = config.get(key, default)
                setattr(self, key, value if convert is None else convert(key, value))
        except ValueError as exc:
            raise MigrentError(str(exc)) from None
        if self.catalog is None:
            self.catalog = os.environ.get(ENV_CATALOG) or None

    @property
    def analysis(self) -> dict:
        """The keyword settings of ``analyze_machine`` and ``analyze_manifest``."""
        return {key: getattr(self, key) for key in _ANALYSIS_KEYS}

    def load_catalog(self):
        if self.catalog is None:
            return bundled_catalog(self.cloud_ref)
        return load_catalog(self.catalog, self.cloud_ref)

    def energy_model(self) -> EnergyModel:
        try:
            return EnergyModel(self.idle_fraction, self.linear_mix)
        except ValueError as exc:
            raise MigrentError(str(exc)) from None


def _shown(value) -> str:
    """A default as it is typed on the command line: numbers as %g, a tuple comma-joined."""
    if isinstance(value, tuple):
        return ",".join(_shown(v) for v in value)
    return value if isinstance(value, str) else f"{value:g}"


def _add_settings(group, keys) -> None:
    """A ``--key-with-dashes`` flag for each setting; an absent one reads None."""
    for key in keys:
        default, _, text = _SETTINGS[key]
        group.add_argument("--" + key.replace("_", "-"), choices=BASELINES if key == "baseline" else None,
                           help=text if default is None else text.format(_shown(default)))


def _add_catalog_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("catalog options")
    _add_settings(group, ("catalog", "cloud_ref"))
    group.add_argument("--config", help="JSON file supplying defaults for the catalog and analysis options")


def _add_analysis_options(parser: argparse.ArgumentParser) -> None:
    _add_settings(parser.add_argument_group("analysis options"), (
        "targets", "baseline", "idle_fraction", "linear_mix", "window_seconds", "percentile", "min_days"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="migrent",
        description="Estimate energy-consumption changes from moving workloads to cloud instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="analyze one machine's utilization trace")
    p_analyze.add_argument("trace", help="trace CSV (timestamp,cpu_utilization_percent)")
    p_analyze.add_argument("cpu_model", help="the machine's CPU model, as named in the catalog")
    p_analyze.add_argument("--machine-id", dest="machine_id", help="identifier in the report (default: trace file stem)")
    p_analyze.add_argument("--datacenter", help="datacenter identifier in the report")
    _add_catalog_options(p_analyze)
    _add_analysis_options(p_analyze)

    p_fleet = sub.add_parser("fleet", help="analyze every machine in a manifest")
    p_fleet.add_argument("manifest", help="manifest CSV (machine_id,trace_path,cpu_model,datacenter_id)")
    p_fleet.add_argument("--emit-csv", dest="emit_csv", metavar="DIR",
                         help="also write CDF/table CSVs into DIR")
    _add_settings(p_fleet, ("jobs",))
    _add_catalog_options(p_fleet)
    _add_analysis_options(p_fleet)

    p_synth = sub.add_parser("synth", help="generate a synthetic fleet corpus")
    p_synth.add_argument("--out", required=True, help="output directory for traces and manifest")
    p_synth.add_argument("--seed", default=0, help="fleet seed (default: %(default)s)")
    p_synth.add_argument("--machines", default=20, help="number of machines (default: %(default)s)")
    p_synth.add_argument("--datacenters", default=5, help="number of datacenters (default: %(default)s)")
    p_synth.add_argument("--start", default=synth_mod.DEFAULT_START,
                         help="trace start timestamp (default: %(default)s)")
    # each range flag's dest is the ParamRanges field it sets
    ranges = synth_mod.ParamRanges()
    for flag, dest, metavar, what in (
        ("--duration-days", "duration_days", "LO[,HI]", "trace length range in days"),
        ("--base-util", "base_utilization", "LO[,HI]", "base utilization range"),
        ("--growth", "growth_per_day", "LO[,HI]", "per-day growth range"),
        ("--refresh-days", "refresh_days", "LO[,HI]", "hardware refresh period range in days"),
        ("--diurnal", "diurnal_amplitude", "LO[,HI]", "day/night amplitude range"),
        ("--noise", "noise_stddev", "LO[,HI]", "sample noise stddev range"),
        ("--periods", "sample_periods", "P[,P]", "allowed sample periods in seconds"),
    ):
        p_synth.add_argument(flag, dest=dest, metavar=metavar,
                             help=f"{what} (default: {_shown(getattr(ranges, dest))})")
    _add_catalog_options(p_synth)

    p_cat = sub.add_parser("catalog", help="inspect the CPU catalog")
    cat_sub = p_cat.add_subparsers(dest="catalog_command", required=True)
    c_list = cat_sub.add_parser("list", help="list model names")
    _add_catalog_options(c_list)
    c_show = cat_sub.add_parser("show", help="show one model as JSON")
    c_show.add_argument("model")
    _add_catalog_options(c_show)
    c_ce = cat_sub.add_parser("ce", help="lift-and-shift fraction of a model vs the cloud reference")
    c_ce.add_argument("on_prem", help="on-premise CPU model")
    c_ce.add_argument("cloud", nargs="?", help="cloud CPU model (default: the catalog's cloud reference)")
    _add_catalog_options(c_ce)

    return parser


def _ensure_writable_dir(path: str) -> Path:
    """Create the output directory up front so failures precede the compute."""
    target = Path(path)
    try:
        target.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise MigrentError(f"cannot create output directory {target}: {exc}") from exc
    if not os.access(target, os.W_OK):
        raise MigrentError(f"output directory {target} is not writable")
    return target


def cmd_analyze(args: argparse.Namespace) -> int:
    settings = _Settings(args)
    model = settings.energy_model()
    catalog = settings.load_catalog()
    trace_path = Path(args.trace)
    machine_id = args.machine_id or trace_path.stem
    trace = parse_trace(trace_path, machine_id=machine_id)
    record = MachineRecord(machine_id, trace, args.cpu_model, args.datacenter)
    report = analyze_machine(record, settings.targets, model, catalog, **settings.analysis)
    sys.stdout.write(dumps_stable(report.to_dict()))
    return EXIT_OK


def cmd_fleet(args: argparse.Namespace) -> int:
    settings = _Settings(args)
    model = settings.energy_model()
    catalog = settings.load_catalog()
    manifest_path = Path(args.manifest)
    entries = fleet_mod.load_manifest(manifest_path)
    csv_dir = _ensure_writable_dir(args.emit_csv) if args.emit_csv else None
    report = fleet_mod.analyze_manifest(
        entries, manifest_path.parent, catalog, model, settings.targets,
        jobs=settings.jobs, **settings.analysis,
    )
    if csv_dir is not None:
        fleet_mod.write_csv_reports(report, csv_dir)
    report.write_json(sys.stdout)
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    settings = _Settings(args)
    try:
        seed = _strict(int, synth_mod.check_seed)("seed", args.seed)
        machines = _strict(int)("machines", args.machines)  # generate_fleet checks both counts
        datacenters = _strict(int)("datacenters", args.datacenters)
        overrides = {}
        for name, default in dataclasses.asdict(synth_mod.ParamRanges()).items():
            raw = getattr(args, name)
            if raw is None:
                continue
            convert = _strict(type(default[0]))  # int or float, as the default
            values = tuple(convert(name, p) for p in raw.split(",") if p.strip())
            if name != "sample_periods":  # every other field is a LO,HI pair
                if len(values) == 1:
                    values *= 2
                elif len(values) != 2:
                    raise ValueError(f"{name} must be LO or LO,HI, got {raw!r}")
            overrides[name] = values
        ranges = synth_mod.ParamRanges(**overrides)  # checks every bound before any draw
        fleet = synth_mod.generate_fleet(seed, machines, datacenters, ranges, settings.load_catalog())
        start = synth_mod.check_start(args.start, fleet)
    except ValueError as exc:
        raise MigrentError(str(exc)) from None
    _ensure_writable_dir(_ensure_writable_dir(args.out) / "traces")  # write_fleet puts every trace there
    manifest = synth_mod.write_fleet(fleet, args.out, start=start)
    print(f"wrote {len(fleet)} traces across {datacenters} datacenters; manifest at {manifest}")
    return EXIT_OK


def cmd_catalog(args: argparse.Namespace) -> int:
    settings = _Settings(args)
    catalog = settings.load_catalog()
    if args.catalog_command == "list":
        for name in catalog.model_names():
            marker = " (cloud reference)" if name == catalog.cloud_reference else ""
            print(f"{name}{marker}")
        return EXIT_OK
    if args.catalog_command == "show":
        spec = catalog.lookup(args.model)
        payload = spec.to_dict()
        payload["ce"] = compute_ce(spec)
        sys.stdout.write(dumps_stable(payload))
        return EXIT_OK
    on_prem = catalog.lookup(args.on_prem)
    cloud = catalog.lookup(args.cloud) if args.cloud else catalog.cloud_spec
    print(format_float(lift_and_shift_fraction(on_prem, cloud)))
    return EXIT_OK


_COMMANDS = {
    "analyze": cmd_analyze,
    "fleet": cmd_fleet,
    "synth": cmd_synth,
    "catalog": cmd_catalog,
}


def _fail(code: int, exc: Exception) -> int:
    payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    sys.stderr.write(json.dumps(payload) + "\n")
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # so a closed stdout fails here at the latest, not at exit
        return code
    except BrokenPipeError:
        with open(os.devnull, "w") as devnull:  # takes what the flush at exit would write to the pipe
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    except InsufficientDataError as exc:
        return _fail(EXIT_INSUFFICIENT_DATA, exc)
    except FleetError as exc:
        return _fail(EXIT_ALL_FAILED, exc)
    except (MigrentError, ValueError, OSError) as exc:
        return _fail(EXIT_USAGE, exc)


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
