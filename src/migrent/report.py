"""Stable JSON rendering for analysis reports.

Floats are rounded to 6 significant digits before serialization so output
is compact and byte-identical across runs; key order is the insertion
order chosen by the report builders.
"""

from __future__ import annotations

import json


def format_float(value: float) -> str:
    """A float as text with 6 significant digits, the precision of all output."""
    return f"{value:.6g}"


def round_floats(obj):
    """Recursively round every float to 6 significant digits."""
    if isinstance(obj, float):
        return float(format_float(obj))
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    return obj


def dumps_stable(obj) -> str:
    """Serialize a report dict deterministically (trailing newline included)."""
    return json.dumps(round_floats(obj), indent=2, allow_nan=False) + "\n"
