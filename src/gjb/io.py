"""Sample-file ingestion and report serialization.

Input format: single-column CSV in UTF-8 (a leading byte-order mark is
dropped), one numeric value per line, decimal point '.', optional single
header row (auto-detected when the first row is not numeric). Multi-column
files are rejected rather than guessing a column. A file that does not
decode or that the CSV reader rejects raises SampleParseError, like a bad
row. Plain files, which may start with a quoted header such as R's
``"value"``, are streamed in blocks of lines through ``float()``; a file
with a line the CSV reader might read differently (any other quote, a
comma, a lone carriage return, an over-long line) or a line that fails is
read again through ``csv.reader``, so both paths give the same values,
counts and errors.

Report format: a flat JSON object with fixed, documented keys

    {schema_version, command, alpha, n, duplication_factor, a_n, b_n,
     a, b, sigma: {s11, s22, s12, det}, j_n, p_value, verdict}

plus command-specific extras. Numbers are serialized with full round-trip
precision (>= 15 significant digits). CSV output is the same payload as a
single flat row, nested keys joined with '.', list values joined with ';'.

Every writer sends its text to a path, or to stdout when the destination
is None.
"""

from __future__ import annotations

import csv
import json
import math
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from io import StringIO
from itertools import filterfalse, islice
from typing import IO, Any, Iterator

import numpy as np

from .errors import DomainError, EmptyInputError, SampleParseError
from .testing import TestOutcome

SCHEMA_VERSION = "1"
# lines per np.fromiter call on the plain path: bounds the text held at once
_BLOCK_LINES = 4096
# one quoted field on a line of its own (R's write.csv quotes its header);
# the CSV reader reads it as the text between the quotes
_QUOTED_LINE = re.compile(r'"([^",\r\n]*)"(\r?\n)?')

__all__ = [
    "SampleFile",
    "Report",
    "read_sample_csv",
    "write_sample_csv",
    "test_report",
    "write_report",
]


@dataclass(frozen=True)
class SampleFile:
    """The values read from a sample file and the count of blank and header
    lines skipped; ``parsed_rows`` is the count of values."""

    values: np.ndarray
    skipped_rows: int

    @property
    def parsed_rows(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class Report:
    """A serializable run report; ``payload`` holds the schema keys."""

    command: str
    payload: dict[str, Any]
    wall_time_ms: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            **self.payload,
            "wall_time_ms": self.wall_time_ms,
        }


def read_sample_csv(path: str) -> SampleFile:
    """Parse a single-column CSV of real numbers.

    The file is read as UTF-8; a leading byte-order mark is dropped. Blank
    lines are skipped and counted; a non-numeric first non-blank row is
    treated as a header and also counted as skipped. Any later non-numeric
    row, a non-finite value, or a multi-column row raises SampleParseError
    with its line number, as does a row the CSV reader rejects; a file that
    is not UTF-8 raises SampleParseError naming the file.

    A plain file is streamed in blocks of lines, each line converted with
    ``float()``, the same conversion the CSV reader's rows get; its first
    non-blank line may be one quoted field without a comma or an inner
    quote, which is read as the text between the quotes. A file with any
    other line holding a quote or a comma, a carriage return not followed by a
    line feed, more characters than ``csv.field_size_limit()``, a value
    ``float()`` rejects or a non-finite value is read again through the CSV
    reader, which alone raises the errors above. Values, row counts and
    errors are the same on both paths.
    """
    sample = _read_plain(path)
    return _read_csv(path) if sample is None else sample


def _read_plain(path: str) -> SampleFile | None:
    """``path`` read block by block with ``float()``, or None when it holds
    a line the CSV reader might split, unquote or reject, a value ``float()``
    rejects, a non-finite value, or no value: ``_read_csv`` reads those.

    The first non-blank line may be one quoted field without a comma or an
    inner quote, such as a quoted header; it is read as the CSV reader reads
    it, as the text between the quotes."""
    blocks: list[np.ndarray] = []
    skipped = 0
    header_checked = False
    limit = csv.field_size_limit()
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            while lines := list(islice(fh, _BLOCK_LINES)):
                if not header_checked:
                    first = next((i for i, line in enumerate(lines) if not line.isspace()), 0)
                    if quoted := _QUOTED_LINE.fullmatch(lines[first]):
                        lines[first] = quoted[1] + (quoted[2] or "")
                text = "".join(lines)
                if ('"' in text or "," in text
                        or ("\r" in text and text.count("\r") != text.count("\r\n"))
                        or (len(text) > limit and max(map(len, lines)) > limit)):
                    return None
                numeric = list(filterfalse(str.isspace, lines))
                skipped += len(lines) - len(numeric)
                if numeric and not header_checked:
                    header_checked = True
                    try:
                        float(numeric[0])
                    except ValueError:
                        del numeric[0]
                        skipped += 1
                blocks.append(np.fromiter(map(float, numeric), float, len(numeric)))
    except ValueError:  # float() or the UTF-8 decoder rejected the text
        return None
    values = np.concatenate(blocks) if blocks else np.empty(0)
    if not values.size or not np.isfinite(values).all():
        return None
    return SampleFile(values=values, skipped_rows=skipped)


def _read_csv(path: str) -> SampleFile:
    """``path`` read row by row through ``csv.reader``; see read_sample_csv."""
    values: list[float] = []
    skipped = 0
    header_seen = False
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            for row in reader:
                lineno = reader.line_num
                fields = [f.strip() for f in row]
                if not any(fields):
                    skipped += 1
                    continue
                if sum(1 for f in fields if f) > 1:
                    raise SampleParseError(
                        f"{path}:{lineno}: expected a single column, got {len(fields)} fields",
                        line=lineno,
                    )
                text = next(f for f in fields if f)
                try:
                    value = float(text)
                except ValueError:
                    if not values and not header_seen:
                        header_seen = True
                        skipped += 1
                        continue
                    raise SampleParseError(
                        f"{path}:{lineno}: not a number: {text!r}", line=lineno
                    ) from None
                if not math.isfinite(value):
                    raise SampleParseError(
                        f"{path}:{lineno}: non-finite value: {text!r}", line=lineno
                    )
                values.append(value)
        except UnicodeDecodeError as exc:
            # decoding runs ahead of the reader, so no line is known here
            raise SampleParseError(
                f"{path}: not UTF-8 text: {exc.reason} (byte {exc.object[exc.start]:#04x})"
            ) from None
        except csv.Error as exc:
            raise SampleParseError(
                f"{path}:{reader.line_num}: {exc}", line=reader.line_num
            ) from None
    if not values:
        raise EmptyInputError(f"{path}: no numeric values found")
    return SampleFile(values=np.asarray(values, dtype=float), skipped_rows=skipped)


def write_sample_csv(values: np.ndarray, dest: str | None = None) -> None:
    """Write one value per line with full round-trip precision to ``dest``
    (path) or stdout (None)."""
    with _sink(dest) as fh:
        fh.writelines(f"{float(v)!r}\n" for v in values)


def test_report(
    command: str,
    outcome: TestOutcome,
    extras: dict[str, Any] | None = None,
) -> Report:
    """Assemble the fixed-schema report for a single test outcome."""
    payload: dict[str, Any] = {
        "alpha": outcome.alpha,
        "n": outcome.n,
        "duplication_factor": outcome.duplication_factor,
        "a_n": outcome.a_n,
        "b_n": outcome.b_n,
        "a": outcome.a,
        "b": outcome.b,
        "sigma": {
            "s11": outcome.sigma.s11,
            "s22": outcome.sigma.s22,
            "s12": outcome.sigma.s12,
            "det": outcome.sigma.det,
        },
        "j_n": outcome.j_n,
        "p_value": outcome.p_value,
        "verdict": outcome.verdict,
    }
    if extras:
        payload.update(extras)
    return Report(command=command, payload=payload)


@contextmanager
def _sink(dest: str | None) -> Iterator[IO[str]]:
    """The file at path ``dest``, or stdout for None."""
    if dest is None:
        yield sys.stdout  # looked up per call: callers may redirect it
        return
    with open(dest, "w", newline="") as fh:
        yield fh


def _flatten(obj: dict[str, Any], prefix: str = "") -> dict[str, str]:
    """One CSV cell per leaf of a ``_jsonable`` payload."""
    flat: dict[str, str] = {}
    for key, value in obj.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, prefix=f"{name}."))
        elif isinstance(value, list):
            flat[name] = ";".join(map(str, value))
        else:
            flat[name] = str(value)
    return flat


def _jsonable(value: Any) -> Any:
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def write_report(report: Report, dest: str | None = None, fmt: str = "json") -> None:
    """Serialize a report to ``dest`` (path) or stdout (None)."""
    if fmt not in ("json", "csv"):
        raise DomainError(f"format must be 'json' or 'csv', got {fmt!r}")
    obj = _jsonable(report.to_dict())
    if fmt == "json":
        text = json.dumps(obj, indent=2) + "\n"
    else:
        flat = _flatten(obj)
        buffer = StringIO()
        csv.writer(buffer, lineterminator="\n").writerows([flat.keys(), flat.values()])
        text = buffer.getvalue()
    with _sink(dest) as fh:
        fh.write(text)
