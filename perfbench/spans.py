"""In-memory spans for the benchmark's traced run.

A span records one call from the benchmark into a migrent module: its
name, start, end, parent span, the machine it concerned and any counts
taken at that boundary. Spans stay in memory while the run measures and
are written once, at the end, so tracing adds no I/O to what it times.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    machine: str | None = None
    error: str | None = None
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, machine: str | None = None, **counts):
        """Time the enclosed block as a child of the innermost open span.

        An exception leaves the span closed, with its type in ``error``.
        """
        record = Span(name, 0.0, 0.0, self._open[-1] if self._open else None, machine, counts=counts)
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        record.start = time.perf_counter()
        try:
            yield record
        except BaseException as exc:
            record.error = type(exc).__name__
            raise
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def self_seconds(self) -> list[float]:
        """Each span's duration less the part of it its children cover."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        out = []
        for index, span in enumerate(self.spans):
            covered, reach = 0.0, span.start
            for child in sorted(children.get(index, ()), key=lambda s: s.start):
                lo, hi = max(child.start, reach), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                reach = max(reach, hi)
            out.append(span.seconds - covered)
        return out

    def layers(self) -> dict:
        """Calls, total seconds and self seconds per span name."""
        table: dict[str, dict] = {}
        for span, own in zip(self.spans, self.self_seconds()):
            row = table.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += span.seconds
            row["self_s"] += own
        return table

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]) + "\n", encoding="utf-8")
