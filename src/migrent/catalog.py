"""CPU catalog: benchmark scores, rated power, and efficiency ratios.

A catalog row describes one CPU model by its throughput benchmark score and
its thermal design power. The ratio score/TDP is the model's computational
efficiency; dividing the on-premise efficiency by the cloud reference's
efficiency gives the energy fraction left after an unchanged move of the
workload onto the cloud hardware.
"""

from __future__ import annotations

import datetime as dt
import difflib
import io
import math
from dataclasses import dataclass
from importlib import resources
from typing import Iterator, Mapping

from .errors import CatalogError
from .table import keyed_rows, parse_field, read_table

CATALOG_COLUMNS = ("model_name", "spec_score", "tdp_watts", "release_date", "cores", "cloud")

# the value columns after model_name: how each field converts and what a bad one must be
_VALUE_FIELDS = (
    (float, "a number"),
    (float, "a number"),
    (lambda text: dt.date.fromisoformat(text.strip()), "YYYY-MM-DD"),
    (int, "an integer"),
    (lambda text: ("false", "true").index(text.strip().lower()) == 1, "'true' or 'false'"),
)


@dataclass(frozen=True)
class CpuSpec:
    """One CPU model: benchmark throughput, rated power draw, and metadata."""

    model_name: str
    spec_score: float
    tdp_watts: float
    release_date: dt.date
    cores: int
    cloud: bool = False

    def __post_init__(self):
        if not self.model_name:
            raise CatalogError("model_name must be non-empty")
        for name, value in (("spec_score", self.spec_score), ("tdp_watts", self.tdp_watts)):
            if not (math.isfinite(value) and value > 0):
                raise CatalogError(f"{self.model_name}: {name} must be finite and positive, got {value}")
        if self.cores < 1:
            raise CatalogError(f"{self.model_name}: cores must be at least 1, got {self.cores}")

    def to_dict(self) -> dict:
        return {
            "model_name": self.model_name,
            "spec_score": self.spec_score,
            "tdp_watts": self.tdp_watts,
            "release_date": self.release_date.isoformat(),
            "cores": self.cores,
            "cloud": self.cloud,
        }


def compute_ce(spec: CpuSpec) -> float:
    """Computational efficiency: benchmark score per watt of rated power."""
    return spec.spec_score / spec.tdp_watts


def lift_and_shift_fraction(on_prem: CpuSpec, cloud: CpuSpec) -> float:
    """Energy fraction after moving the workload unchanged onto the cloud CPU.

    Below 1.0 the move saves energy; above 1.0 the on-premise part was
    already more efficient than the cloud reference and the move costs
    energy.
    """
    return compute_ce(on_prem) / compute_ce(cloud)


def _did_you_mean(name: str, known) -> str:
    """A spelling hint naming up to three close matches, or ''."""
    close = difflib.get_close_matches(name, known, n=3)
    return f" (did you mean: {', '.join(close)}?)" if close else ""


class Catalog:
    """Immutable collection of CPU specs plus a designated cloud reference."""

    def __init__(self, entries: Mapping[str, CpuSpec] | list[CpuSpec], cloud_reference: str):
        if not isinstance(entries, Mapping):
            entries = {spec.model_name: spec for spec in entries}
        self._entries: dict[str, CpuSpec] = dict(entries)
        if not self._entries:
            raise CatalogError("catalog has no entries")
        if cloud_reference not in self._entries:
            raise CatalogError(
                f"cloud reference {cloud_reference!r} is not in the catalog"
                f"{_did_you_mean(cloud_reference, self._entries)}"
            )
        self.cloud_reference = cloud_reference

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[CpuSpec]:
        return iter(self._entries.values())

    def __contains__(self, model_name: str) -> bool:
        return model_name in self._entries

    @property
    def cloud_spec(self) -> CpuSpec:
        return self._entries[self.cloud_reference]

    def model_names(self) -> list[str]:
        return sorted(self._entries)

    def lookup(self, model_name: str) -> CpuSpec:
        """Return the entry for ``model_name`` or raise with a spelling hint."""
        try:
            return self._entries[model_name]
        except KeyError:
            raise CatalogError(
                f"unknown CPU model {model_name!r}{_did_you_mean(model_name, self._entries)}"
            ) from None

    def lift_and_shift(self, model_name: str) -> float:
        """Lift-and-shift energy fraction of a model against the cloud reference."""
        return lift_and_shift_fraction(self.lookup(model_name), self.cloud_spec)


def load_catalog(source, cloud_reference: str | None = None) -> Catalog:
    """Parse a catalog CSV into a :class:`Catalog`.

    ``source`` may be a path or an open text stream. Columns must match
    ``CATALOG_COLUMNS`` exactly. When ``cloud_reference`` is omitted the
    cloud-flagged entry with the newest release date is used (ties broken
    by model name).
    """
    entries: dict[str, CpuSpec] = {}
    rows = keyed_rows(read_table(source, CATALOG_COLUMNS, CatalogError, "catalog"), "model_name", CatalogError)
    for line, name, row in rows:
        values = [parse_field(text, convert, column, what, CatalogError, line)
                  for text, column, (convert, what) in zip(row[1:], CATALOG_COLUMNS[1:], _VALUE_FIELDS)]
        try:
            entries[name] = CpuSpec(name, *values)
        except CatalogError as exc:
            raise CatalogError(str(exc), line=line) from None

    if not entries:
        raise CatalogError("catalog has no data rows")

    if cloud_reference is None:
        cloud_models = [name for name, spec in entries.items() if spec.cloud]
        if not cloud_models:
            raise CatalogError("no cloud-flagged entry in catalog and no cloud reference given")
        cloud_reference = max(cloud_models, key=lambda n: (entries[n].release_date, n))

    return Catalog(entries, cloud_reference)


def bundled_catalog(cloud_reference: str | None = None) -> Catalog:
    """Load the small fictional catalog shipped with the package."""
    text = resources.files("migrent.data").joinpath("fixture_catalog.csv").read_text("utf-8")
    return load_catalog(io.StringIO(text), cloud_reference)
