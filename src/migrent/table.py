"""Headered CSV tables: the one row loop behind every file migrent reads.

Trace, catalog, manifest and power-sample files share a layout: a header
row that must match the expected column names, then data rows with a fixed
field count, where blank rows are skipped. ``read_table`` checks that
layout and yields the data rows with their 1-based line numbers, so each
loader only interprets fields, each through ``parse_field``, whose error
names the column. ``keyed_rows`` holds the rule for tables keyed by their
first column (catalog, manifest): a non-empty key that no earlier row used.
Every failure, including bytes that are not UTF-8 and rows the csv module
rejects, is raised as the loader's own error class, which fleet runs record
in the exclusion ledger. ``write_table`` writes the same layout for
manifests and the fleet report tables.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .errors import MigrentError


def read_bytes(path, error_cls: type[MigrentError], what: str) -> bytes:
    """The raw contents of ``path``; an unreadable file, or a path holding a NUL byte, raises ``error_cls``."""
    path = Path(path)
    try:
        return path.read_bytes()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise error_cls(f"cannot read {what} {path}: {exc}") from exc


def read_table(
    source,
    columns: Sequence[str],
    error_cls: type[MigrentError],
    what: str,
) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line, fields)`` for every non-blank data row of a CSV table.

    ``source`` may be a path, the file's bytes, or an open text stream.
    ``what`` names the file kind in messages ("trace", "catalog", ...).
    The header must equal ``columns`` (cells are stripped) and every data
    row must have ``len(columns)`` fields.
    """
    data = None
    if hasattr(source, "read"):
        stream = source
    else:
        data = source if isinstance(source, bytes) else read_bytes(source, error_cls, what)
        # decodes in the same chunks as a file opened in text mode; a leading BOM is dropped
        stream = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="")
    reader = csv.reader(stream)
    line = 0  # the last line read; a csv or decode error belongs to the next
    try:
        header = next(reader, None)
        line = 1
        if header is None:
            raise error_cls(f"{what} file is empty")
        if tuple(h.strip() for h in header) != tuple(columns):
            raise error_cls(
                f"expected header {','.join(columns)!r}, got {','.join(header)!r}", line=1
            )
        for line, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(columns):
                raise error_cls(f"expected {len(columns)} fields, got {len(row)}", line=line)
            yield line, row
    except UnicodeDecodeError as exc:
        raise error_cls(f"not UTF-8 text ({exc.reason})", line=_bad_byte_line(data)) from None
    except csv.Error as exc:
        raise error_cls(str(exc), line=line + 1) from None


def parse_field(text: str, convert: Callable, column: str, what: str, error_cls: type[MigrentError], line: int):
    """``convert(text)``; its ``ValueError`` raises ``error_cls``: ``<column> must be <what>, got '<text>'``."""
    try:
        return convert(text)
    except ValueError:
        raise error_cls(f"{column} must be {what}, got {text!r}", line=line) from None


def keyed_rows(rows: Iterable[tuple[int, list[str]]], column: str, error_cls: type[MigrentError]) -> Iterator:
    """``(line, key, fields)`` for ``read_table``'s rows, keyed by the stripped first field,
    named ``column``: a key must be non-empty and not repeat an earlier row's."""
    first_line: dict[str, int] = {}
    for line, row in rows:
        key = row[0].strip()
        if not key:
            raise error_cls(f"{column} must be non-empty", line=line)
        if key in first_line:
            raise error_cls(f"duplicate {column} {key!r} (first on line {first_line[key]})", line=line)
        first_line[key] = line
        yield line, key, row


def write_table(path, columns: Iterable[str], rows: Iterable[Iterable]) -> None:
    """Write a header row and then ``rows`` to the CSV file at ``path``, with LF line ends."""
    with Path(path).open("w", encoding="utf-8", newline="") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


def _bad_byte_line(data: bytes | None) -> int | None:
    """1-based line of the first byte that is not UTF-8, when the bytes are known."""
    if data is None:
        return None
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return data.count(b"\n", 0, exc.start) + 1
    return None
