"""Stable JSON rendering for analysis reports.

Floats are written with 6 significant digits so output is compact and
byte-identical across runs; key order is the insertion order chosen by the
report builders. One encoder, ``iterencode``, yields the text an indented
``json.dumps`` gives for the rounded tree, in pieces, and writes an
iterator as a list without holding it. ``dumps_stable`` joins its pieces
for ``analyze`` and ``catalog show``; ``write_machines`` streams them for
``fleet``, filling one template per target row.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii

from .scenarios import BASELINES, TargetScenarios


def format_float(value: float) -> str:
    """A float as text with 6 significant digits, the precision of all output."""
    return f"{value:.6g}"


def check_target_names(targets) -> None:
    """Refuse two target utilizations that read the same at output precision.

    Reports and CSV file names show a target with six significant digits,
    so ``0.5`` and ``0.5000001`` would share a row name and a file.
    """
    seen = set()
    for target in targets:
        if (shown := format_float(target)) in seen:
            raise ValueError(f"duplicate target utilization {shown}")
        seen.add(shown)


def dumps_stable(obj) -> str:
    """Serialize a report dict deterministically (trailing newline included)."""
    return "".join(iterencode(obj)) + "\n"


def json_float(value: float) -> str:
    """A float as every report writes it; refuses infinity and NaN, as ``json.dumps(allow_nan=False)`` does."""
    if not math.isfinite(value):
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return repr(float(format_float(value)))


class Raw(str):
    """Text that :func:`iterencode` writes as it is: a value already in JSON form."""


def _scalar(value) -> str:
    if isinstance(value, str):
        return value if isinstance(value, Raw) else encode_basestring_ascii(value)  # json.dumps's own escaping
    if isinstance(value, float):
        return json_float(value)
    return json.dumps(value)  # null, a boolean or an integer


def iterencode(value, indent: str = ""):
    """Yield the stable JSON text of ``value`` in pieces, without the final newline.

    ``indent`` is the indentation of the line on which ``value`` starts. An
    iterator is written as a list, one item at a time.
    """
    if not isinstance(value, (dict, list, tuple, Iterator)):
        yield _scalar(value)
        return
    opening, closing = "{}" if isinstance(value, dict) else "[]"
    items = value.items() if isinstance(value, dict) else ((None, item) for item in value)
    inner = indent + "  "
    separator = opening + "\n" + inner
    for key, item in items:
        prefix = separator if key is None else f"{separator}{encode_basestring_ascii(key)}: "
        if isinstance(item, (dict, list, tuple, Iterator)):
            yield prefix
            yield from iterencode(item, inner)
        else:
            yield prefix + _scalar(item)
        separator = ",\n" + inner
    yield "\n" + indent + closing if separator[0] == "," else opening + closing


def write_machines(stream, head: dict, machines, targets) -> None:
    """Write ``dumps_stable({**head, "machines": [...]})`` to ``stream``, one machine at a time.

    ``machines`` are ``MachineColumns`` and the list holds each one's
    ``to_report(targets).to_dict()``. Each target row of that text is one
    template, filled with each value written once, so no report object and
    no whole text is built.
    """
    slot = Raw("%s")  # one per value, in the key order of TargetScenarios.to_dict
    row = "".join(iterencode(TargetScenarios(*[slot] * 6, {b: {"ideal": slot, "hourly": slot} for b in BASELINES})
                             .to_dict(), " " * 8))  # the indent of a row in a machine's "targets"
    target_texts = [json_float(t) for t in targets]

    def entry(columns) -> Raw:
        fields = columns.machine.to_dict()
        ls = json_float(columns.machine.lift_and_shift)
        # each row of values holds a target row's fields after target and lift_and_shift, in order
        fields["targets"] = [Raw(row % (t, ls, *["null" if v != v else json_float(v) for v in values]))
                             for t, values in zip(target_texts, columns.values.tolist())]
        return Raw("".join(iterencode(fields, " " * 4)))

    # pieces are joined into writes of about 64 KiB: with PYTHONUNBUFFERED or -u,
    # each write to stdout is a system call of its own
    pieces, size = [], 0
    for piece in iterencode({**head, "machines": map(entry, machines)}):
        pieces.append(piece)
        size += len(piece)
        if size >= 1 << 16:
            stream.write("".join(pieces))
            pieces, size = [], 0
    stream.write("".join(pieces) + "\n")
