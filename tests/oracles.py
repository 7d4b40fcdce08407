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
