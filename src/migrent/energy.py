"""Relative server power draw as a function of CPU utilization.

The curve has an idle floor and rises to exactly 1.0 at full load through a
blend of a linear and a quadratic term:

    power(u) = idle + (1 - idle) * (mix * u + (1 - mix) * u**2)

``idle`` is the fraction of peak power the machine burns while doing
nothing; ``mix`` slides the loaded part between purely quadratic (0) and
purely linear (1). The defaults describe a recent-generation server. A
machine downsized to capacity ``c`` (relative to the original) runs at
utilization ``u / c`` and draws ``power(u / c) * c``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import MigrentError
from .table import parse_field, read_table

DEFAULT_IDLE_FRACTION = 0.33
DEFAULT_LINEAR_MIX = 0.36

POWER_SAMPLE_COLUMNS = ("utilization_percent", "relative_power")


@dataclass(frozen=True)
class EnergyModel:
    """Parameters of the relative power curve.

    By construction ``relative_power(model, 0.0) == idle_fraction`` and
    ``relative_power(model, 1.0) == 1.0``.
    """

    idle_fraction: float = DEFAULT_IDLE_FRACTION
    linear_mix: float = DEFAULT_LINEAR_MIX

    def __post_init__(self):
        if not 0.0 <= self.idle_fraction < 1.0:
            raise ValueError(f"idle_fraction must be in [0, 1), got {self.idle_fraction}")
        if not 0.0 <= self.linear_mix <= 1.0:
            raise ValueError(f"linear_mix must be in [0, 1], got {self.linear_mix}")


@dataclass(frozen=True)
class PowerSample:
    """One measured point on a power curve: utilization fraction and power."""

    utilization: float
    relative_power: float

    def __post_init__(self):
        if not 0.0 <= self.utilization <= 1.0:
            raise ValueError(f"utilization must be in [0, 1], got {self.utilization}")
        if not (math.isfinite(self.relative_power) and self.relative_power > 0.0):
            raise ValueError(f"relative_power must be finite and positive, got {self.relative_power}")


def power_unchecked(model: EnergyModel, u):
    """:func:`relative_power` without its range check, for inputs known to be valid."""
    a = model.idle_fraction
    m = model.linear_mix
    return a + (1.0 - a) * (m * u + (1.0 - m) * u * u)


def relative_power(model: EnergyModel, utilization):
    """Power draw relative to full load, for utilizations in [0, 1].

    Accepts a scalar or numpy array and returns the same shape.
    """
    u = np.asarray(utilization, dtype=np.float64)
    if np.any(u < 0.0) or np.any(u > 1.0) or not np.all(np.isfinite(u)):
        raise ValueError("utilization must lie in [0, 1]")
    out = power_unchecked(model, u)
    return float(out) if np.ndim(utilization) == 0 else out


def scaled_power(model: EnergyModel, utilization, capacity):
    """Power of a machine resized to ``capacity`` times the original.

    ``utilization`` is the demand in units of the original machine and must
    be finite and non-negative. The same absolute work runs at utilization
    ``u / capacity`` (capped at 1: demand beyond the resized machine is
    dropped at full load), and power scales with the machine's size.
    """
    c = np.asarray(capacity, dtype=np.float64)
    if np.any(c <= 0.0) or not np.all(np.isfinite(c)):
        raise ValueError("capacity must be positive")
    u = np.asarray(utilization, dtype=np.float64)
    if np.any(u < 0.0) or not np.all(np.isfinite(u)):
        raise ValueError("utilization must be finite and non-negative")
    out = power_unchecked(model, np.minimum(u / c, 1.0)) * c
    if np.ndim(utilization) == 0 and np.ndim(capacity) == 0:
        return float(out)
    return out


def capacity_marginal_power(model: EnergyModel, utilization_of_capacity):
    """Derivative of scaled power with respect to capacity.

    Expressed in terms of ``x = u / c``, the utilization the resized machine
    actually sees. Negative values mean shrinking the machine further still
    saves power at that operating point.
    """
    x = np.asarray(utilization_of_capacity, dtype=np.float64)
    a = model.idle_fraction
    out = a - (1.0 - a) * (1.0 - model.linear_mix) * x * x
    return float(out) if np.ndim(utilization_of_capacity) == 0 else out


def marginal_gain_threshold(model: EnergyModel) -> float:
    """Operating utilization above which a smaller machine saves power.

    This is the root of :func:`capacity_marginal_power`. Below it the idle
    floor of the added capacity is cheaper than the quadratic cost of
    running hotter, so downsizing no longer pays. Infinite when the curve
    has no quadratic part.
    """
    a = model.idle_fraction
    quad = (1.0 - a) * (1.0 - model.linear_mix)
    if quad == 0.0:
        return math.inf if a > 0.0 else 0.0
    return math.sqrt(a / quad)


def load_power_samples(source) -> list[PowerSample]:
    """Parse measured power-curve points from a two-column CSV."""
    samples = []
    for line, row in read_table(source, POWER_SAMPLE_COLUMNS, MigrentError, "power sample"):
        percent = parse_field(row[0], float, "utilization_percent", "a number", MigrentError, line)
        power = parse_field(row[1], float, "relative_power", "a number", MigrentError, line)
        try:
            samples.append(PowerSample(percent / 100.0, power))
        except ValueError as exc:  # out of range
            raise MigrentError(str(exc), line=line) from None
    return samples


def _grid_best(sums: Sequence[float], a_grid: np.ndarray, m_grid: np.ndarray) -> tuple[float, float]:
    """Exhaustive SSE minimum over the (idle, mix) grid.

    The squared error is quadratic in the mix for a fixed idle value, and its
    three coefficients are quadratics in the idle value over the sample sums,
    so memory does not grow with the number of samples. Ties resolve to the
    smallest idle value, then the smallest mix (row-major argmin).
    """
    sxx, sxy, sxz, syy, syz, szz = sums
    b = 1.0 - a_grid
    # residual(a, m) = alpha(a) + m * beta(a), with alpha = a·x + y and beta = (1 − a)·z
    saa = a_grid * a_grid * sxx + 2.0 * a_grid * sxy + syy
    sab = b * (a_grid * sxz + syz)
    sbb = b * b * szz
    sse = saa[:, None] + 2.0 * np.outer(sab, m_grid) + np.outer(sbb, m_grid * m_grid)
    flat = int(np.argmin(sse))
    ai, mi = divmod(flat, m_grid.size)
    return float(a_grid[ai]), float(m_grid[mi])


def fit(samples: Sequence[PowerSample] | Iterable[PowerSample]) -> EnergyModel:
    """Fit curve parameters to measured samples by deterministic grid search.

    Runs a coarse scan (step 0.001 on both axes) over idle in [0, 1) and
    mix in [0, 1], then one refinement pass at step 0.0001 in a +/-0.001
    box around the coarse winner, still clipped to the valid ranges. Needs
    at least three samples spanning two distinct utilizations.
    """
    samples = list(samples)
    us = np.array([s.utilization for s in samples], dtype=np.float64)
    ps = np.array([s.relative_power for s in samples], dtype=np.float64)
    if us.size < 3 or np.unique(us).size < 2:
        raise MigrentError("fitting needs at least three samples spanning two distinct utilizations")

    a_coarse = np.arange(1000) / 1000.0          # [0, 0.999]
    m_coarse = np.arange(1001) / 1000.0          # [0, 1]
    # a sample's residual is a·x + y + m·(1 − a)·z, with x = 1 − u², y = u² − p
    # and z = u − u², so both grid passes need only these six sums of products
    u2 = us * us
    x, y, z = 1.0 - u2, u2 - ps, us - u2
    sums = [float(np.sum(f * g)) for f, g in ((x, x), (x, y), (x, z), (y, y), (y, z), (z, z))]
    a0, m0 = _grid_best(sums, a_coarse, m_coarse)

    steps = np.arange(-10, 11) / 10000.0
    a_fine = np.unique(np.clip(a0 + steps, 0.0, 0.9999))
    m_fine = np.unique(np.clip(m0 + steps, 0.0, 1.0))
    a1, m1 = _grid_best(sums, a_fine, m_fine)
    return EnergyModel(a1, m1)
