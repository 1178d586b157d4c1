"""Sample-file ingestion and report serialization.

Input format: single-column CSV in UTF-8 (a leading byte-order mark is
dropped), one numeric value per line, decimal point '.', optional single
header row (auto-detected when the first row is not numeric). Multi-column
files are rejected rather than guessing a column. A file that does not
decode or that the CSV reader rejects raises SampleParseError, like a bad
row. Plain files, which may start with a quoted header such as R's
``"value"``, have their header found line by line, then are read in
blocks of bytes, each CRLF line end read as LF as its bytes are read,
and each value is ``float()`` of its line: a line ``[+-]digits[.digits]``
is computed exactly from its bytes as an integer scaled in long double
where long double allows it (x87 extended or IEEE
quad of 16 little-endian bytes: x86-64 and aarch64 Linux), unless the long
double quotient lies exactly halfway between two doubles, which its low
mantissa bits show; any other line, and every line on other platforms, is
decoded on its own and goes through ``float()``. A file with a line the
CSV reader might read differently (any other quote, a comma, a lone
carriage return, an over-long line) or a line that fails is read again
through ``csv.reader``, so both paths give the same values, counts and
errors.

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
from contextlib import AbstractContextManager, nullcontext
from dataclasses import asdict, dataclass
from io import StringIO
from itertools import filterfalse
from typing import IO, Any

import numpy as np

from .errors import DomainError, EmptyInputError, SampleParseError
from .testing import TestOutcome

SCHEMA_VERSION = "1"
# bytes per block on the plain path: bounds the text held at once, and stays
# below the CSV reader's default field limit, so a block no longer than the
# limit holds no over-long line
_BLOCK_BYTES = 1 << 16
_UTF8_BOM = b"\xef\xbb\xbf"
_LONG_DOUBLE = np.finfo(np.longdouble)
# A decimal w / 10**k with |w| < 2**63 and k <= 27 is w and 10**k held
# exactly, divided with one IEEE rounding, when long double keeps 64-bit
# integers and has a 15-bit exponent (x87 extended, IEEE quad; not IBM
# double-double, whose division is not correctly rounded), and _on_halfway
# finds its low mantissa word as the first 8 of 16 little-endian bytes (not
# in 32-bit x86's 12). Elsewhere every line goes through float().
_EXTENDED_PRECISION = (_LONG_DOUBLE.nmant >= 63 and _LONG_DOUBLE.nexp == 15
                       and _LONG_DOUBLE.dtype.itemsize == 16 and sys.byteorder == "little")
# On a double's halfway point, a long double's nmant - 52 mantissa bits below
# a double's 53 are 1 then 0s; in x87 extended and IEEE quad of 16
# little-endian bytes they are the low bits of the first 8
_LOW_BITS = np.uint64((1 << _LONG_DOUBLE.nmant >> 52) - 1)
_HALF = np.uint64(1 << _LONG_DOUBLE.nmant >> 53)
# 10**k for k <= 27, each an exact product
_POW10 = np.multiply.accumulate(np.r_[1, np.full(27, 10)].astype(np.longdouble))
# the magnitude, as uint64, of a mantissa np.fromstring clamped to the int64 range
_CLAMPED = np.uint64(np.iinfo(np.int64).max)
# one quoted field on a line of its own (R's write.csv quotes its header);
# the CSV reader reads it as the text between the quotes
_QUOTED_LINE = re.compile(r'"([^",\r\n]*)"(\n)?')

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

    A plain file has its header found line by line, then is read in blocks
    of bytes, each CRLF line end read as LF, and each value is ``float()``
    of its line, the conversion the CSV reader's rows get: a line
    ``[+-]digits[.digits]`` is computed exactly from its bytes where long
    double allows it, any other line is decoded on its own and goes through
    ``float()``. Its first non-blank line may be one quoted field without a
    comma or an inner quote, which is read as the text between the quotes.
    A file with any other line holding a quote or a comma, a carriage
    return not followed by a line feed, a block of more bytes than
    ``csv.field_size_limit()``, a value ``float()`` rejects or a non-finite
    value is read again through the CSV reader, which alone raises the
    errors above. Values, row counts and errors are the same on both paths.
    """
    sample = _read_plain(path)
    return _read_csv(path) if sample is None else sample


def _read_plain(path: str) -> SampleFile | None:
    """``path`` read block by block, each value ``float()`` of its line, or
    None when it holds a line the CSV reader might split, unquote or reject,
    a value ``float()`` rejects, a non-finite value, no value, or text that
    is not UTF-8: ``_read_csv`` reads those.

    Each CRLF is read as LF exactly once, as its bytes are read, through
    ``_lf``: each line of the header step, and each block together with the
    line that tops it up, so a CRLF split across a block's byte offset is
    read whole. A second pass would read the lone carriage return of a
    ``\\r\\r\\n`` as part of a CRLF. What reaches the converters is LF text,
    and a carriage return left in a block stands alone, which sends the
    file to ``_read_csv``.

    The lines up to the first non-blank one are read first, and start the
    first block. That line may be one quoted field without a comma or an
    inner quote, such as a quoted header; it is read as the CSV reader
    reads it, as the text between the quotes, and it is the header when
    ``float()`` rejects it. The header is cut from the first block only
    after the block's checks, which must see its bytes. A block is
    ``_BLOCK_BYTES`` bytes topped up to the end of a line, so it never ends
    inside a UTF-8 sequence, and no block is decoded here: ``_decimal_lines``
    reads each line of the form ``[+-]digits[.digits]`` exactly, whatever
    else its block holds, and decodes each line it sends to ``float()``;
    ``_float_lines`` decodes its whole block, so text that is not UTF-8
    raises in either. The CRLF conversion and the quote, comma and
    carriage-return checks run on the bytes, in which those bytes never
    occur inside a UTF-8 sequence. A block of more bytes than
    ``csv.field_size_limit()`` is left to ``_read_csv``; a block has no more
    characters than bytes, so one within the limit holds no over-long
    line."""
    blocks: list[np.ndarray] = []
    limit = csv.field_size_limit()
    convert = _decimal_lines if _EXTENDED_PRECISION else _float_lines
    try:
        with open(path, "rb") as fh:
            # the lines up to the first non-blank one, the first block's
            # start; more lines than the limit make a block over it, which
            # is left to _read_csv, so stop there
            lines = [_lf(fh.readline().removeprefix(_UTF8_BOM))]
            while (text := lines[-1].decode()).isspace() and len(lines) <= limit:
                lines.append(_lf(fh.readline()))
            data = b"".join(lines)
            start = len(data) - len(lines[-1])
            if quoted := _QUOTED_LINE.fullmatch(text):
                text = quoted[1] + (quoted[2] or "")
                data = data[:start] + text.encode()
            # the header, cut after the first block's checks; at the end of
            # the file, the empty line is taken for one, but then no value
            # is read and _read_csv reads the file
            skipped, stop = 0, start
            try:
                float(text)
            except ValueError:
                skipped, stop = 1, len(data)
            data += _lf(fh.read(_BLOCK_BYTES) + fh.readline())
            while data:
                if b'"' in data or b"," in data or b"\r" in data or len(data) > limit:
                    return None
                values, blank = convert(data[:start] + data[stop:])
                blocks.append(values)
                skipped += blank
                start = stop = 0
                data = _lf(fh.read(_BLOCK_BYTES) + fh.readline())
    # float() or the UTF-8 decoder rejected the text
    except ValueError:
        return None
    values = np.concatenate(blocks) if blocks else np.empty(0)
    if not values.size or not np.isfinite(values).all():
        return None
    return SampleFile(values=values, skipped_rows=skipped)


def _lf(data: bytes) -> bytes:
    """``data`` with each CRLF read as LF. Only text holding a carriage
    return pays for the two-byte search; LF text costs one byte scan."""
    return data.replace(b"\r\n", b"\n") if b"\r" in data else data


def _float_lines(data: bytes) -> tuple[np.ndarray, int]:
    """``float()`` of each non-blank line of ``data``, decoded whole as
    UTF-8, and the count of blank (whitespace-only) lines."""
    lines = StringIO(data.decode(), newline="").readlines()
    numeric = list(filterfalse(str.isspace, lines))
    return np.fromiter(map(float, numeric), float, len(numeric)), len(lines) - len(numeric)


def _decimal_lines(data: bytes) -> tuple[np.ndarray, int]:
    """``float()`` of each non-blank line of ``data``, split at line feeds,
    and the count of blank lines, without a Python object per line of the
    form ``[+-]digits[.digits]``: ``_float_lines(data)`` bit for bit on the
    LF text ``_read_plain`` passes. ``data`` may hold any bytes: a line with
    a carriage return or a byte of 0x80 or above is never of the form, so it
    is decoded on its own for ``float()``, and a line that is not UTF-8
    raises UnicodeDecodeError.

    Such a line with digits w and k of them after the point is w / 10**k
    (Clinger, 1990): |w| < 2**63 and 10**k with k <= 27 are exact in long
    double, and rounding the long double quotient to float64 gives the
    correctly rounded value unless the quotient lies exactly halfway
    between two doubles. It does so when its mantissa bits below a double's
    53 are 1 then 0s, which ``_on_halfway`` reads off the long double's low
    mantissa word; every quotient is 0 or of a normal double's size, from
    1e-27 to 2**63 in magnitude. The sign comes from the line's first byte,
    so ``-0`` is -0.0. Any other line goes through ``float()`` on its own: one
    with another byte (an exponent, a space, ``_``, non-ASCII text), no
    digit, two points, k > 27, a mantissa np.fromstring clamps to the int64
    range, or a quotient on a halfway point.

    The lines not of the form stay in the block: in a copy of it, each of
    their bytes that is not a digit or their line feed is overwritten with
    ``0``, so np.fromstring, whose line-feed separator swallows empty
    lines, reads one integer per non-empty line, and ``float()`` overwrites
    their values. So the lines of the form keep the exact path whatever
    shares their block."""
    if data and not data.endswith(b"\n"):
        data += b"\n"
    b = np.frombuffer(data, np.uint8)
    at = np.flatnonzero(b - np.uint8(48) > 9)  # every byte but a digit
    byte = b.take(at)
    newline = np.flatnonzero(byte == 10)  # each line's \n, as an index into at
    ends = at.take(newline)
    starts = np.empty_like(ends)
    starts[:1] = 0
    np.add(ends[:-1], 1, out=starts[1:])
    count = newline + 1  # non-digit bytes on each line, its \n among them
    np.subtract(newline[1:], newline[:-1], out=count[1:])
    first = b.take(starts)
    signed = (first == 43) | (first == 45)
    # beyond a leading sign, a line of the form holds no non-digit byte but
    # its \n and one point, the last of them before the \n, and it holds a
    # digit: more bytes than non-digit ones
    other = count - signed
    # the non-digit byte before each \n, or a \n where a line holds none (for
    # the first line, index -1 is the last \n)
    dot = at.take(newline - 1)
    point = (other == 2) & (b.take(dot) == 46)
    k = (ends - dot - 1) * point  # digits after the point
    scaled = ((other == 1) | point) & (ends - starts >= count) & (k <= 27)
    rows, empty = data, 0
    if not scaled.all():
        # a line not of the form reads as digits: each non-digit byte of it
        # but its \n becomes a 0
        patched = b.copy()
        patched[at.compress(np.repeat(~scaled, count) & (byte != 10))] = 48
        rows = patched.tobytes()
        full = np.flatnonzero(ends > starts)  # the lines np.fromstring reads
        empty = ends.size - full.size
        if not full.size:  # np.fromstring reads a 0 from whitespace alone
            return np.empty(0), empty
        # a line not of the form reads as an integer, 10**0 its scale
        starts, ends, first, scaled = (a.take(full) for a in (starts, ends, first, scaled))
        k = k.take(full) * scaled
    w = np.fromstring(rows.replace(b".", b""), dtype=np.int64, sep="\n")
    mantissa = np.abs(w)  # -2**63 stays -2**63, which is 2**63 as uint64
    exact = mantissa.astype(np.longdouble) / _POW10.take(k)
    values = exact.astype(np.float64)
    by_float = ~scaled | (mantissa.view(np.uint64) >= _CLAMPED) | _on_halfway(exact)
    values *= np.where(first == 45, -1.0, 1.0)
    blank = []
    for i in np.flatnonzero(by_float).tolist():
        line_text = data[starts[i]:ends[i] + 1].decode()
        if line_text.isspace():
            blank.append(i)
        else:
            values[i] = float(line_text)
    if blank:
        values = np.delete(values, blank)
    return values, empty + len(blank)


def _on_halfway(exact: np.ndarray) -> np.ndarray:
    """Whether each long double of ``exact``, 0 or of a normal double's
    size, lies exactly halfway between two doubles, read off its low
    mantissa bits."""
    return exact.view(np.uint64)[::2] & _LOW_BITS == _HALF


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
    (path) or stdout (None); an array of any shape is written flattened."""
    flat = np.asarray(values, dtype=float).ravel()
    with _sink(dest) as fh:
        fh.writelines(f"{float(v)!r}\n" for v in flat)


def test_report(
    command: str,
    outcome: TestOutcome,
    extras: dict[str, Any] | None = None,
) -> Report:
    """Assemble the fixed-schema report for a single test outcome: its
    fields in order, with ``sigma.det`` after ``sigma``'s entries, then
    ``extras``."""
    payload = asdict(outcome)
    payload["sigma"]["det"] = outcome.sigma.det
    if extras:
        payload.update(extras)
    return Report(command=command, payload=payload)


def _sink(dest: str | None) -> AbstractContextManager[IO[str]]:
    """The file at path ``dest``, or stdout for None, looked up per call:
    callers may redirect it."""
    return nullcontext(sys.stdout) if dest is None else open(dest, "w", newline="")


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
