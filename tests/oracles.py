"""Independent reference implementations used to cross-check the package.

Everything here is written from the definitions, in plain loops or direct
numpy, without importing the package's computational code. Integrals use a
midpoint Riemann sum on a 10x-refined grid over the piecewise-linear
utilization signal, where the package uses the trapezoid rule, so agreement
is approximate (tight for smooth signals) and meaningfully independent.
"""

from __future__ import annotations

import json
import math
from datetime import datetime, timezone

import numpy as np

OVERSAMPLE = 10


def curve(a: float, m: float, u):
    """Reference relative-power curve."""
    u = np.asarray(u, dtype=float)
    return a + (1.0 - a) * (m * u + (1.0 - m) * u**2)


def smooth_ref(t, u, window: float) -> np.ndarray:
    """Brute-force trailing-window mean of the backward sample-and-hold signal."""
    t = np.asarray(t, dtype=float)
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    for i in range(t.size):
        start = t[i] - window
        acc = 0.0
        for j in range(1, t.size):
            lo = max(t[j - 1], start)
            hi = min(t[j], t[i])
            if hi > lo:
                acc += u[j] * (hi - lo)
        hi = min(t[0], t[i])
        if hi > start:
            acc += u[0] * (hi - start)
        out[i] = acc / window
    return np.clip(out, 0.0, 1.0)


def daily_maxima_ref(t, u) -> tuple[tuple, list[float]]:
    """(UTC dates, the largest sample of each), grouping the samples by calendar day.

    The stamp is floored to whole seconds first: midnights are whole seconds,
    and fromtimestamp rounds to the microsecond, which would move a sample
    less than half a microsecond before midnight into the next day.
    """
    dates, maxima = [], []
    for stamp, value in zip(t, u):
        day = datetime.fromtimestamp(math.floor(stamp), timezone.utc).date()
        if dates and dates[-1] == day:
            maxima[-1] = max(maxima[-1], float(value))
        else:
            dates.append(day)
            maxima.append(float(value))
    return tuple(dates), maxima


def nearest_rank_ref(values, pct: float) -> float:
    data = sorted(float(v) for v in values)
    rank = math.ceil(pct * len(data) / 100.0)
    return data[max(rank, 1) - 1]


def riemann(t, u, f, lo: float | None = None, hi: float | None = None) -> float:
    """Midpoint Riemann integral of f(u(s)) with u piecewise linear in s.

    Optionally restricted to [lo, hi]; each linear piece is cut into
    OVERSAMPLE equal slices evaluated at their midpoints.
    """
    t = np.asarray(t, dtype=float)
    u = np.asarray(u, dtype=float)
    lo = t[0] if lo is None else max(lo, t[0])
    hi = t[-1] if hi is None else min(hi, t[-1])
    if hi <= lo:
        return 0.0
    # resample the boundary points onto the sample grid
    ts = np.unique(np.concatenate((t[(t > lo) & (t < hi)], [lo, hi])))
    us = np.interp(ts, t, u)
    dt = np.diff(ts)
    frac = (np.arange(OVERSAMPLE) + 0.5) / OVERSAMPLE
    mid_u = us[:-1, None] + (us[1:] - us[:-1])[:, None] * frac[None, :]
    return float(np.sum(f(mid_u) * (dt[:, None] / OVERSAMPLE)))


def lift_and_shift_ref(score_a, tdp_a, score_b, tdp_b) -> float:
    return (score_a / tdp_a) / (score_b / tdp_b)


def static_fraction_ref(t, u, target, peak, a, m) -> float:
    c = peak / target
    num = riemann(t, u, lambda x: curve(a, m, np.clip(x / c, 0.0, 1.0)) * c)
    den = riemann(t, u, lambda x: curve(a, m, x))
    return num / den


def _baseline_ref(t, u, target, a, m, baseline, peak) -> float:
    if baseline == "lift-and-shift":
        return riemann(t, u, lambda x: curve(a, m, x))
    c = peak / target
    return riemann(t, u, lambda x: curve(a, m, np.clip(x / c, 0.0, 1.0)) * c)


def ideal_fraction_ref(t, u, target, a, m, baseline="lift-and-shift", peak=None) -> float:
    num = float(curve(a, m, target)) / target * riemann(t, u, lambda x: x)
    if num == 0.0:
        return 0.0
    return num / _baseline_ref(t, u, target, a, m, baseline, peak)


def _hour_sample_max(t, u, h0: float, h1: float) -> float:
    mask = (t >= h0) & (t < h1)
    if mask.any():
        return float(u[mask].max())
    # hour inside a sampling gap: use the interpolated hour-boundary values
    return float(max(np.interp(h0, t, u), np.interp(h1, t, u)))


def hourly_fraction_ref(t, u, target, a, m, baseline="lift-and-shift", peak=None) -> float:
    t = np.asarray(t, dtype=float)
    u = np.asarray(u, dtype=float)
    first = int(t[0] // 3600)
    last = int(t[-1] // 3600)
    num = 0.0
    for h in range(first, last + 1):
        h0, h1 = h * 3600.0, (h + 1) * 3600.0
        hmax = _hour_sample_max(t, u, h0, h1)
        if hmax <= 0.0:
            continue
        c = hmax / target
        num += riemann(t, u, lambda x: curve(a, m, np.clip(x / c, 0.0, 1.0)) * c, lo=h0, hi=h1)
    if num == 0.0:
        return 0.0
    return num / _baseline_ref(t, u, target, a, m, baseline, peak)


def fit_ref(us, ps) -> tuple[float, float]:
    """Brute-force two-stage grid search for the least-squares curve fit."""
    us = np.asarray(us, dtype=float)
    ps = np.asarray(ps, dtype=float)

    def scan(a_values, m_values):
        best = (math.inf, None, None)
        m_col = np.asarray(m_values, dtype=float)[:, None]
        for a in a_values:
            preds = a + (1.0 - a) * (m_col * us[None, :] + (1.0 - m_col) * us[None, :] ** 2)
            sse = np.sum((preds - ps[None, :]) ** 2, axis=1)
            k = int(np.argmin(sse))
            if sse[k] < best[0]:
                best = (float(sse[k]), float(a), float(m_col[k, 0]))
        return best[1], best[2]

    a0, m0 = scan([k / 1000.0 for k in range(1000)], [k / 1000.0 for k in range(1001)])
    fine = [k / 10000.0 for k in range(-10, 11)]
    a_fine = sorted({min(max(a0 + s, 0.0), 0.9999) for s in fine})
    m_fine = sorted({min(max(m0 + s, 0.0), 1.0) for s in fine})
    return scan(a_fine, m_fine)


def random_walk_trace(rng: np.random.Generator, n: int, dt_range=(400.0, 900.0),
                      start: float = 1_464_739_200.0, sigma: float = 0.02,
                      u0_range=(0.1, 0.7), clip=(0.02, 0.98)):
    """Irregularly sampled random-walk utilization arrays (times, values)."""
    gaps = rng.uniform(dt_range[0], dt_range[1], n - 1)
    t = start + np.concatenate(([0.0], np.cumsum(gaps)))
    steps = rng.normal(0.0, sigma, n)
    steps[0] = 0.0
    u = np.clip(rng.uniform(*u0_range) + np.cumsum(steps), clip[0], clip[1])
    return t, u


def dumps_stable_ref(obj) -> str:
    """Stable report JSON from its definition: every float rounded to 6
    significant digits, then the standard library's indented encoder."""

    def rounded(value):
        if isinstance(value, float):
            return float(f"{value:.6g}")
        if isinstance(value, dict):
            return {k: rounded(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [rounded(v) for v in value]
        return value

    return json.dumps(rounded(obj), indent=2, allow_nan=False) + "\n"


# The scenario kernel and the smoothing step in their first vectorized form,
# which concatenated and copied freely. The package now builds the same
# arrays in place; these copies pin its bits (compare with ``tobytes()``).
# Each moments function returns (sorted_u, lo_w, lo_u, lo_uu, hi_w).

HOUR = 3600.0


def smooth_vectorized_ref(t, u, window: float) -> np.ndarray:
    starts = t - window
    js = np.searchsorted(t, starts, side="right")
    cum = np.concatenate(([0.0], np.cumsum(u[1:] * np.diff(t))))
    interior = cum[np.arange(t.size)] - cum[js]
    head = u[js] * (t[js] - starts)
    return np.clip((interior + head) / window, 0.0, 1.0)


def sorted_moments_ref(values, weights, base=(0.0, 0.0, 0.0)):
    order = np.argsort(values)
    u, w = values[order], weights[order]
    wu = w * u
    base_w, base_u, base_uu = base
    return (
        u,
        np.cumsum(np.concatenate(([base_w], w))),
        np.cumsum(np.concatenate(([base_u], wu))),
        np.cumsum(np.concatenate(([base_uu], wu * u))),
        np.concatenate((np.cumsum(w[::-1])[::-1], [0.0])),
    )


def sample_moments_ref(t, u):
    half = 0.5 * np.diff(t)
    weights = np.concatenate((half, [0.0])) + np.concatenate(([0.0], half))
    return sorted_moments_ref(u, weights)


def hourly_split_ref(t, u):
    """(first_hour, hour_max, (seg_hour, left, right, half_durations))."""
    first_hour = int(t[0] // HOUR)
    last_hour = int(t[-1] // HOUR)
    n_hours = last_hour - first_hour + 1
    bounds = np.arange(first_hour + 1, last_hour + 1, dtype=np.float64) * HOUR
    at = np.searchsorted(t, bounds)
    starts = np.concatenate(([0], at))
    has_sample = np.diff(starts, append=t.size) > 0
    hour_max = np.maximum.reduceat(u, starts)
    new = t[at] != bounds
    ts = np.insert(t, at[new], bounds[new])
    us = np.insert(u, at[new], np.interp(bounds[new], t, u))
    mids = 0.5 * (ts[:-1] + ts[1:])
    per_hour = np.diff(np.searchsorted(mids, bounds), prepend=0, append=mids.size)
    seg_hour = np.repeat(np.arange(n_hours), per_hour)
    left, right = us[:-1], us[1:]
    if not has_sample.all():
        fallback = np.full(n_hours, -1.0)
        np.maximum.at(fallback, seg_hour, np.maximum(left, right))
        hour_max = np.where(has_sample, hour_max, fallback)
    return first_hour, hour_max, (seg_hour, left, right, 0.5 * np.diff(ts))


def hour_moments_ref(t, u):
    _, hour_max, (seg_hour, left, right, half) = hourly_split_ref(t, u)
    seg_max = hour_max[seg_hour]
    on = seg_max > 0.0
    seg_max, half = seg_max[on], half[on]
    v = np.concatenate((left[on] / seg_max, right[on] / seg_max))
    w = np.tile(half * seg_max, 2)
    over = v > 1.0
    kept_v, kept_w = v[~over], w[~over]
    kept_wv = kept_w * kept_v
    base = (np.sum(kept_w), np.sum(kept_wv), np.sum(kept_wv * kept_v))
    return sorted_moments_ref(v[over], w[over], base)


def hourly_capacities_ref(t, u, target: float):
    first_hour, hour_max, _ = hourly_split_ref(t, u)
    return (first_hour + np.arange(hour_max.size)) * HOUR, hour_max / target


# The per-machine columns as the kernel first built them: a Python loop over
# the targets, one scalar query of the moments per energy. The package now
# evaluates all targets in one array pass; this pins its bits.

_trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy 2 renamed trapz


def capacity_energy_ref(moments, a: float, m: float, capacity: float) -> float:
    """The energy at one capacity from (sorted_u, lo_w, lo_u, lo_uu, hi_w)."""
    sorted_u, lo_w, lo_u, lo_uu, hi_w = moments
    k = int(sorted_u.searchsorted(capacity, side="right"))
    loaded = m * lo_u[k] + (1.0 - m) * lo_uu[k] / capacity
    return float(a * capacity * lo_w[k] + (1.0 - a) * loaded + capacity * hi_w[k])


def _ratio_ref(numerator: float, denominator: float) -> float:
    """0.0 for a zero numerator, even over 0; a non-zero one over 0 raises ZeroDivisionError."""
    return numerator / denominator if numerator != 0.0 else 0.0


def machine_values_ref(t, u, targets, a: float, m: float, peak: float, ls: float,
                       baseline: str = "lift-and-shift") -> np.ndarray:
    """``MachineColumns.values``: a row per target of static_resize, combined,
    the chosen baseline's ideal and hourly fractions, then both baselines'.
    An idle machine (peak 0) has NaN for every value resized to its peak."""
    samples, hours = sample_moments_ref(t, u), hour_moments_ref(t, u)
    demand = float(_trapezoid(u, t))
    den_ls = capacity_energy_ref(samples, a, m, 1.0)
    rows = []
    for target in targets:
        num_ideal = ((a + (1.0 - a) * (m * target + (1.0 - m) * target * target)) / target) * demand
        num_hourly = capacity_energy_ref(hours, a, m, 1.0 / target)
        vs_ls = (_ratio_ref(num_ideal, den_ls), _ratio_ref(num_hourly, den_ls))
        static = combined = math.nan
        vs_sr = (math.nan, math.nan)
        if peak != 0.0:
            den_sr = capacity_energy_ref(samples, a, m, peak / target)
            static = _ratio_ref(den_sr, den_ls)
            combined, vs_sr = ls * static, (_ratio_ref(num_ideal, den_sr), _ratio_ref(num_hourly, den_sr))
        chosen = vs_ls if baseline == "lift-and-shift" else vs_sr
        rows.append((static, combined, *chosen, *vs_ls, *vs_sr))
    return np.array(rows, dtype=np.float64)


def size_bins_ref(machines, bin_count: int) -> list[dict]:
    """``group_by_size`` from ``(datacenter_id, lift_and_shift)`` pairs: the
    datacenters sorted by (machine count, id), then cut by a cursor into
    ``min(bin_count, datacenters)`` contiguous bins, the first
    ``datacenters % bins`` of them one datacenter larger."""
    by_dc: dict = {}
    for dc, ls in machines:
        by_dc.setdefault(dc, []).append(ls)
    rows = sorted((len(values), dc, float(np.mean(values))) for dc, values in by_dc.items())
    bins = min(bin_count, len(rows))
    out, cursor = [], 0
    for b in range(bins):
        width = len(rows) // bins + (1 if b < len(rows) % bins else 0)
        chunk = rows[cursor:cursor + width]
        cursor += width
        means = [row[2] for row in chunk]
        out.append({"bin": b + 1, "datacenters": len(chunk), "machines": sum(row[0] for row in chunk),
                    "mean": float(np.mean(means)), "min": min(means), "max": max(means)})
    return out
