"""Exception hierarchy shared across the package.

Everything raised on bad *data* derives from MigrentError so callers can
catch one base class. Programming mistakes (bad argument types, out-of-range
knobs) raise plain ValueError/TypeError as usual.
"""

from __future__ import annotations


class MigrentError(Exception):
    """Base class for all data and input errors raised by this package.

    Carries the 1-based source line when the error points into a file.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class CatalogError(MigrentError):
    """Malformed catalog data, or a CPU model that cannot be resolved."""


class TraceError(MigrentError):
    """Malformed utilization trace."""


class ManifestError(MigrentError):
    """Malformed fleet manifest file."""


class InsufficientDataError(MigrentError):
    """A trace does not span enough days to estimate peak utilization."""

    def __init__(self, message: str, required: int | None = None, available: int | None = None):
        super().__init__(message)
        self.required = required
        self.available = available


class IdleMachineError(MigrentError):
    """Peak utilization is zero, so resize ratios are undefined for this machine."""


class FleetError(MigrentError):
    """No machine in a fleet run could be analyzed."""

    def __init__(self, message: str, exclusions=()):
        super().__init__(message)
        self.exclusions = tuple(exclusions)
