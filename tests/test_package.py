"""The package namespace: ``migrent.__all__`` and ``from migrent import *``."""

import types

import migrent

SUBMODULES = {"catalog", "energy", "errors", "fleet", "report", "scenarios", "synth", "table", "trace"}


def test_all_exports_no_module():
    assert [name for name in migrent.__all__ if isinstance(getattr(migrent, name), types.ModuleType)] == []
    assert SUBMODULES.isdisjoint(migrent.__all__)


def test_every_name_resolves():
    namespace = {}
    exec("from migrent import *", namespace)
    for name in migrent.__all__:
        assert namespace[name] is getattr(migrent, name)
    assert not any(isinstance(value, types.ModuleType) for value in namespace.values())


def test_public_functions_and_classes_all_present():
    public = {
        name
        for name, value in vars(migrent).items()
        if not name.startswith("_") and (isinstance(value, type) or isinstance(value, types.FunctionType))
    }
    assert public <= set(migrent.__all__)
    assert {
        "analyze_machine", "analyze_manifest", "parse_trace", "write_trace", "relative_power",
        "static_resize_fraction", "autoscale_hourly_fraction", "EnergyModel", "FleetReport",
        "MigrentError", "TraceError", "BASELINES", "SCENARIO_NAMES", "DEFAULT_IDLE_FRACTION",
    } <= set(migrent.__all__)
