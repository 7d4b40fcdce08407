"""Shared fixtures and trace builders for the test suite."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make `oracles` importable

from migrent import Catalog, CpuSpec, EnergyModel, UtilizationTrace

import datetime as dt

POSIX_2016_06_01 = 1_464_739_200.0  # 2016-06-01T00:00:00Z

# strings that json.dumps escapes, and floats whose six-digit text differs from their repr
ODD_TEXT = ['say "hi"', "back\\slash", "naïve — ü", "tab\tnew\nline", "\x00", "雲"]
ODD_FLOATS = [1e-05, 100.0, 0.0, 1234567.0, 0.123456789, 2.5e-300]


def make_trace(times, values, machine_id="test") -> UtilizationTrace:
    return UtilizationTrace(machine_id, np.asarray(times, dtype=float), np.asarray(values, dtype=float))


def constant_trace(value: float, days: float = 8.0, period: float = 300.0,
                   start: float = POSIX_2016_06_01, machine_id="const") -> UtilizationTrace:
    n = int(days * 86400 / period)
    t = start + np.arange(n) * period
    return UtilizationTrace(machine_id, t, np.full(n, value))


def far_stamp_trace(machine_id="far") -> UtilizationTrace:
    """Eight good days and one stamp eleven years later (about 96k clock hours)."""
    good = constant_trace(0.4, machine_id=machine_id)
    far = good.times[-1] + 11 * 366 * 86400.0
    return make_trace(np.append(good.times, far), np.append(good.values, 0.4), machine_id)


@pytest.fixture
def model() -> EnergyModel:
    return EnergyModel()


@pytest.fixture
def small_catalog() -> Catalog:
    specs = [
        CpuSpec("old-box", 300.0, 95.0, dt.date(2010, 1, 1), 4),
        CpuSpec("mid-box", 500.0, 100.0, dt.date(2013, 6, 1), 8),
        CpuSpec("new-box", 660.0, 110.0, dt.date(2015, 3, 1), 12),
        CpuSpec("cloud-box", 600.0, 120.0, dt.date(2016, 1, 1), 16, cloud=True),
    ]
    return Catalog(specs, "cloud-box")
