"""Sample-file ingestion and report serialization.

Input format: single-column CSV, one numeric value per line, decimal point
'.', optional single header row (auto-detected when the first row is not
numeric). Multi-column files are rejected rather than guessing a column.

Report format: a flat JSON object with fixed, documented keys

    {schema_version, command, alpha, n, duplication_factor, a_n, b_n,
     a, b, sigma: {s11, s22, s12, det}, j_n, p_value, verdict}

plus command-specific extras. Numbers are serialized with full round-trip
precision (>= 15 significant digits). CSV output is the same payload as a
single flat row, nested keys joined with '.', list values joined with ';'.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass
from typing import Any, IO

import numpy as np

from .errors import EmptyInputError, SampleParseError
from .testing import TestOutcome

SCHEMA_VERSION = "1"

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
    values: np.ndarray
    source_path: str
    parsed_rows: int
    skipped_rows: int


@dataclass(frozen=True)
class Report:
    """A serializable run report; ``payload`` holds the schema keys."""

    command: str
    payload: dict[str, Any]
    wall_time_ms: int = 0
    schema_version: str = SCHEMA_VERSION

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "command": self.command,
            **self.payload,
            "wall_time_ms": self.wall_time_ms,
        }

    @classmethod
    def from_dict(cls, obj: dict[str, Any]) -> "Report":
        data = dict(obj)
        version = data.pop("schema_version")
        command = data.pop("command")
        wall = data.pop("wall_time_ms", 0)
        return cls(command=command, payload=data, wall_time_ms=wall, schema_version=version)


def read_sample_csv(path: str) -> SampleFile:
    """Parse a single-column CSV of real numbers.

    Blank lines are skipped and counted; a non-numeric first non-blank row
    is treated as a header and also counted as skipped. Any later
    non-numeric row, a non-finite value, or a multi-column row raises
    SampleParseError with its line number.
    """
    values: list[float] = []
    skipped = 0
    header_seen = False
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
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
    if not values:
        raise EmptyInputError(f"{path}: no numeric values found")
    return SampleFile(
        values=np.asarray(values, dtype=float),
        source_path=path,
        parsed_rows=len(values),
        skipped_rows=skipped,
    )


def write_sample_csv(values: np.ndarray, dest: str | IO[str]) -> None:
    """Write one value per line with full round-trip precision."""
    def _write(fh: IO[str]) -> None:
        for v in values:
            fh.write(repr(float(v)))
            fh.write("\n")

    if isinstance(dest, str):
        with open(dest, "w", newline="") as fh:
            _write(fh)
    else:
        _write(dest)


def test_report(
    command: str,
    alpha: float,
    outcome: TestOutcome,
    extras: dict[str, Any] | None = None,
) -> Report:
    """Assemble the fixed-schema report for a single test outcome."""
    payload: dict[str, Any] = {
        "alpha": alpha,
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


def _flatten(obj: dict[str, Any], prefix: str = "") -> dict[str, str]:
    flat: dict[str, str] = {}
    for key, value in obj.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, prefix=f"{name}."))
        elif isinstance(value, (list, tuple, np.ndarray)):
            flat[name] = ";".join(_scalar_text(v) for v in value)
        else:
            flat[name] = _scalar_text(value)
    return flat


def _scalar_text(value: Any) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


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
        raise ValueError(f"format must be 'json' or 'csv', got {fmt!r}")
    obj = _jsonable(report.to_dict())
    if fmt == "json":
        text = json.dumps(obj, indent=2) + "\n"
        if dest is None:
            sys.stdout.write(text)
        else:
            with open(dest, "w") as fh:
                fh.write(text)
        return
    flat = _flatten(obj)
    def _write_csv(fh: IO[str]) -> None:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(flat.keys())
        writer.writerow(flat.values())

    if dest is None:
        _write_csv(sys.stdout)
    else:
        with open(dest, "w", newline="") as fh:
            _write_csv(fh)
