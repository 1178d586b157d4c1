"""Tests for CSV ingestion and report serialization."""

import csv
import dataclasses
import hashlib
import json
import math
import re
import tracemalloc
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gjb import SkewNormalShape, sample_sn
from gjb import io as gjb_io
from gjb.cli import main
from gjb.asymptotics import CovarianceMatrix2
from gjb.errors import DomainError, EmptyInputError, SampleParseError
from gjb.testing import TestOutcome


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestReadSampleCsv:
    def test_plain_values(self, tmp_path):
        sf = gjb_io.read_sample_csv(write(tmp_path, "1.0\n2.0\n3.0\n"))
        assert list(sf.values) == [1.0, 2.0, 3.0]
        assert sf.parsed_rows == 3
        assert sf.skipped_rows == 0

    def test_header_auto_skipped(self, tmp_path):
        sf = gjb_io.read_sample_csv(write(tmp_path, "x\n1.0\n"))
        assert list(sf.values) == [1.0]
        assert sf.skipped_rows == 1

    def test_only_first_row_may_be_header(self, tmp_path):
        with pytest.raises(SampleParseError) as info:
            gjb_io.read_sample_csv(write(tmp_path, "value\nunits\n1.0\n2.5\n3.0\n"))
        assert info.value.line == 2

    def test_non_numeric_row_has_line_number(self, tmp_path):
        with pytest.raises(SampleParseError) as info:
            gjb_io.read_sample_csv(write(tmp_path, "1.0\nabc\n"))
        assert info.value.line == 2

    def test_blank_lines_skipped_and_counted(self, tmp_path):
        sf = gjb_io.read_sample_csv(write(tmp_path, "1.0\n\n2.0\n\n\n"))
        assert list(sf.values) == [1.0, 2.0]
        assert sf.skipped_rows == 3

    def test_multi_column_rejected(self, tmp_path):
        with pytest.raises(SampleParseError) as info:
            gjb_io.read_sample_csv(write(tmp_path, "1.0,2.0\n"))
        assert "single column" in str(info.value)

    def test_non_finite_rejected(self, tmp_path):
        with pytest.raises(SampleParseError):
            gjb_io.read_sample_csv(write(tmp_path, "1.0\ninf\n"))

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(EmptyInputError):
            gjb_io.read_sample_csv(write(tmp_path, "\n\n"))

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            gjb_io.read_sample_csv(str(tmp_path / "nope.csv"))

    def test_comma_decimal_rejected(self, tmp_path):
        # decimal point is '.', so "1,5" parses as two columns
        with pytest.raises(SampleParseError):
            gjb_io.read_sample_csv(write(tmp_path, "1,5\n"))

    def test_utf8_bom_keeps_first_value(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf1.5\n2.5\n-0.5\n3.0\n")
        sf = gjb_io.read_sample_csv(str(path))
        assert list(sf.values) == [1.5, 2.5, -0.5, 3.0]
        assert sf.skipped_rows == 0

    def test_undecodable_file_is_parse_error(self, tmp_path):
        path = tmp_path / "utf16.csv"
        path.write_bytes("1.5\n2.5\n".encode("utf-16"))  # starts with b"\xff\xfe"
        with pytest.raises(SampleParseError, match="not UTF-8") as info:
            gjb_io.read_sample_csv(str(path))
        assert str(path) in str(info.value)

    def test_oversized_field_is_parse_error_with_line(self, tmp_path):
        path = write(tmp_path, "1.0\n2.0\n" + "9" * 131_073 + "\n")
        with pytest.raises(SampleParseError, match="field limit") as info:
            gjb_io.read_sample_csv(path)
        assert info.value.line == 3
        assert f"{path}:3:" in str(info.value)

    def test_roundtrip_with_writer(self, tmp_path):
        values = np.array([1.25, -3.5e-7, 0.1, 12345.678901234567])
        path = str(tmp_path / "out.csv")
        gjb_io.write_sample_csv(values, path)
        back = gjb_io.read_sample_csv(path)
        assert np.array_equal(back.values, values)

    def test_column_vector_writes_its_flat_values(self, tmp_path):
        column = SAMPLE_VALUES.reshape(-1, 1)
        path = tmp_path / "column.csv"
        gjb_io.write_sample_csv(column, str(path))
        assert sha256(path.read_bytes()) == PINNED_SHA256["sample.csv"]
        back = gjb_io.read_sample_csv(str(path)).values
        assert back.view(np.uint64).tolist() == SAMPLE_VALUES.view(np.uint64).tolist()

    def test_peak_memory_is_under_three_doubles_per_row(self, tmp_path):
        # a list of floats costs ~40 B/row and the whole text split into
        # lines ~100 B/row; the streamed path holds one block and the array
        n = 100_000
        path = str(tmp_path / "big.csv")
        gjb_io.write_sample_csv(np.random.default_rng(0).standard_normal(n), path)
        tracemalloc.start()
        try:
            sample = gjb_io.read_sample_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sample.parsed_rows == n
        assert peak < 3 * 8 * n

    @pytest.mark.skipif(not gjb_io._EXTENDED_PRECISION,
                        reason="every line goes through float() here")
    @pytest.mark.parametrize(("header", "end"), [("", "\n"), ("value", "\n"), ("", "\r\n")],
                             ids=["no-header", "header", "crlf"])
    def test_written_sample_stays_on_the_block_path(self, tmp_path, monkeypatch, header, end):
        # what the decide and test speed rests on: a file write_sample_csv
        # wrote is read without a Python object per line but the odd one,
        # and no block is decoded and split into lines whole
        values = sample_sn(SkewNormalShape(1.0), 50_000, 0)
        path = tmp_path / "sn1.csv"
        gjb_io.write_sample_csv(values, str(path))
        lines = [line + end for line in [header] * bool(header) + path.read_text().splitlines()]
        path.write_bytes("".join(lines).encode())
        calls = []

        def counting_float(x):
            calls.append(x)
            return float(x)

        def no_string_io(*args, **kwargs):
            raise AssertionError("a block was split into lines through StringIO")

        monkeypatch.setattr(gjb_io, "float", counting_float, raising=False)
        monkeypatch.setattr(gjb_io, "StringIO", no_string_io)
        sample = gjb_io._read_plain(str(path))
        assert isinstance(sample, gjb_io.SampleFile)
        assert sample.values.view(np.uint64).tolist() == values.view(np.uint64).tolist()
        assert sample.skipped_rows == bool(header)
        rows = lines[sample.skipped_rows:]
        # the header check of the first line, each exponent-form line, and
        # the few lines whose long double quotient lies on a halfway point
        # (8 of these 5*10^4), all in file order, each read with an LF end
        assert calls[0] == lines[0].replace("\r\n", "\n")
        assert [x for x in calls[1:] if "e" in x] == [
            line.replace("\r\n", "\n") for line in rows if "e" in line]
        assert len([x for x in calls[1:] if "e" not in x]) <= len(rows) >> 12


FIELD_LIMIT = csv.field_size_limit()
# ends the first block on a line end, so what follows starts a later one
LATER_BLOCK = b"0.5\n" * (gjb_io._BLOCK_BYTES // 4 + 1)
# Lines the streamed path reads itself, and lines on which it and the CSV
# reader could part ways: each file mixes the first with a few of the second.
PLAIN_LINES = st.tuples(
    st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.sampled_from([
            "", "  ", "\t", "\u2003",  # blank and whitespace-only
            "1_000", "0x1p3", "\u0663\u0661", "\uff17", "\u3000-2.5\u00a0",
        ]),
    ),
    st.sampled_from(["\n", "\r\n"]),
)
ODD_LINES = st.tuples(
    st.one_of(
        st.sampled_from([
            "x", "value",  # a header, or a non-numeric later row
            '"1.5"', '"1\n2"', '"', 'a"b',  # quotes, one spanning two lines
            # quoted headers, as R writes them, and malformed ones
            '"value"', '""', '" "', '"nan"', '"a,b"', '"va"lue"', '"value',
            'value"', ' "value"', '"value" ', '"x"y', '"1"2',
            "1,", ",1", "1,5",
            "nan", "inf", "-Infinity", "1\x00", "\x00",
            # fields of FIELD_LIMIT - 1, FIELD_LIMIT and FIELD_LIMIT + 1 characters
            "0." + "0" * (FIELD_LIMIT - 3), "0." + "0" * (FIELD_LIMIT - 2),
            "0." + "0" * (FIELD_LIMIT - 1),
        ]),
        st.text(max_size=4),
    ),
    st.sampled_from(["\n", "\r\n", "\r", "\r\r\n"]),
)


@st.composite
def sample_files(draw) -> bytes:
    odd = draw(st.lists(ODD_LINES, max_size=2)) if draw(st.booleans()) else []
    line = st.one_of(PLAIN_LINES, st.sampled_from(odd)) if odd else PLAIN_LINES

    def lines():
        return "".join(a + b for a, b in draw(st.lists(line, max_size=8)))

    # padding puts the second group of lines in a later block than the
    # first, the block boundary falling just before, on or after a line end
    padding = draw(st.sampled_from([0, *(gjb_io._BLOCK_BYTES // 4 + d for d in (-1, 0, 1))]))
    text = lines() + "0.5\n" * padding + lines()
    if draw(st.booleans()):
        text = "".join(draw(ODD_LINES)) + text  # a header, or a row taken for one
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    data = text.encode()
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]  # never valid UTF-8
    return data


def read_outcome(read, path):
    try:
        sample = read(path)
    except (SampleParseError, EmptyInputError) as exc:
        return type(exc), getattr(exc, "line", None), str(exc)
    assert sample.values.dtype == np.float64
    return sample.values.tobytes(), sample.parsed_rows, sample.skipped_rows


class TestStreamedPathMatchesCsvReader:
    """read_sample_csv against the csv.reader loop it falls back to."""

    @pytest.mark.parametrize("header", ['"value"\n', '"value"\r\n', '\n"x 1"\n'],
                             ids=["lf", "crlf", "after-blank-line"])
    def test_quoted_header_stays_on_streamed_path(self, tmp_path, header):
        # R's write.csv quotes the header; the rest of the file is plain
        path = tmp_path / "data.csv"
        path.write_text(header + "1.5\n2.5\n", newline="")
        sample = gjb_io._read_plain(str(path))
        assert sample is not None
        assert (sample.values.tolist(), sample.parsed_rows) == ([1.5, 2.5], 2)
        assert sample.skipped_rows == header.count("\n")  # blank lines and the header

    @settings(max_examples=300, deadline=None)
    @given(data=sample_files())
    # files on which a reader that trusted float() alone, or that took a
    # header in any block, would part ways with the CSV reader
    @example(data=b'"1.5"\n2.5\n')  # quoted, so a value, not a header
    @example(data=b"1,\n2.5\n")  # "1" and an empty field: a value
    @example(data=b",1\n2.5\n")
    @example(data=b"1.0\r2.0\r\r\n3.0\n")  # lone carriage returns
    @example(data=b"1.0\r\n2.0\r")  # and one that ends the file
    @example(data=("0." + "0" * (FIELD_LIMIT - 1) + "\n").encode())  # over the limit
    @example(data=("0." + "0" * (FIELD_LIMIT - 3) + "\r\n").encode())  # within it as LF
    @example(data=b"1.0\ninf\n")
    @example(data=LATER_BLOCK + b"x\n")  # no header in a later block
    # an exponent, a whitespace-only line and -0.0 in a later block
    @example(data=LATER_BLOCK + b"1.2e-05\n \t\n-0.0\n")
    @example(data=LATER_BLOCK[8:] + b"1.5\r\n2.5\r\n")  # a block ending on \r of \r\n
    @example(data=b'\n"value"\r\n1.5\n')  # a quoted header, read as one
    @example(data=b'""\n"value"\n1.5\n')  # a blank field, then a quoted header
    @example(data=b'"value"\n1.5\n"2.5"\n')  # a later quoted line
    @example(data=b'"1"2\n3\n')  # text after the closing quote: the value 12
    @example(data=b'\xef\xbb\xbf"value"\n1.5\n')  # a byte-order mark, then a quoted header
    @example(data=b"\xef\xbb\xbf")  # a byte-order mark alone
    @example(data=LATER_BLOCK + "\u0663\u0661\n\u3000-2.5 \n".encode())  # non-ASCII lines
    # a 2-byte character across the first block's byte offset, then a later one's
    @example(data=b"0.5\n" * (gjb_io._BLOCK_BYTES // 4 - 1) + "1.5\u00a0\n2.5\n".encode())
    @example(data=LATER_BLOCK + b"0.5\n" * (gjb_io._BLOCK_BYTES // 4 - 1)
             + "1.5\u00a0\n2.5\n".encode())
    @example(data=LATER_BLOCK + b"1.5\xff\n")  # not UTF-8, after an ASCII block
    # the header step: a first non-blank line the CSV reader splits, one it
    # reads as two fields, blank lines it splits, no non-blank line, a
    # header that is not UTF-8, a byte-order mark before blank lines, a
    # header over the limit, and one line over the limit in bytes but not
    # in characters
    @example(data=b"x\r0.0\n0.0\n")
    @example(data=b"a,b\n1\n")
    @example(data=b" \r \nvalue\n1\n")
    @example(data=b"\n\n\n")
    @example(data=b"\xffvalue\n1\n")
    @example(data=b"\xef\xbb\xbf\n\nvalue\n1.5\n")
    @example(data=("x" * (FIELD_LIMIT + 1) + "\n1\n").encode())
    @example(data=("\u0663" * (gjb_io._BLOCK_BYTES + 1) + "\n").encode())
    # a lone carriage return before a CRLF, which a reader that converted
    # CRLF to LF twice would lose
    @example(data=b" +0\r\r\n")
    @example(data=b"1.5\r\r\n3.25")
    @example(data="value\r\r\n-21e3\u2028\x85".encode())
    def test_same_values_counts_and_errors(self, tmp_path_factory, data):
        assert_same_outcome(tmp_path_factory, data)

    @settings(max_examples=100, deadline=None)
    @given(data=sample_files())
    @example(data=LATER_BLOCK + b"1.2e-05\n \t\n-0.0\n")
    def test_float_lines_path_matches(self, tmp_path_factory, data):
        # the path of a platform without an extended long double or whose
        # long double fails the layout check: no block reaches _decimal_lines
        def no_decimal_lines(data):
            raise AssertionError("a block went through _decimal_lines")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gjb_io, "_EXTENDED_PRECISION", False)
            mp.setattr(gjb_io, "_decimal_lines", no_decimal_lines)
            assert_same_outcome(tmp_path_factory, data)

    @pytest.mark.parametrize("block", [b"", LATER_BLOCK], ids=["first-block", "later-block"])
    @pytest.mark.parametrize("tail", [b"1.0\r\n2.0\r", b"1.0\r\n\r\r\n2.0\r\n", b"1.0\r2.0\n"],
                             ids=["at-end", "before-crlf", "inner"])
    def test_lone_carriage_return_goes_to_csv_reader(self, tmp_path, block, tail):
        path = tmp_path / "data.csv"
        path.write_bytes(block + tail)
        assert gjb_io._read_plain(str(path)) is None

    @pytest.mark.parametrize("exact", [True, False], ids=["decimal-lines", "float-lines"])
    def test_no_carriage_return_reaches_the_converter(self, tmp_path, monkeypatch, exact):
        if exact and not gjb_io._EXTENDED_PRECISION:
            pytest.skip("every line goes through float() here")
        name = "_decimal_lines" if exact else "_float_lines"
        convert = getattr(gjb_io, name)
        blocks = []

        def recording(data):
            blocks.append(data)
            return convert(data)

        monkeypatch.setattr(gjb_io, "_EXTENDED_PRECISION", exact)
        monkeypatch.setattr(gjb_io, name, recording)
        # a byte-order mark, a blank line and a quoted header, then 12 bytes
        # of values before the CRLF copy of LATER_BLOCK, so the first block's
        # byte offset falls between the \r and the \n of a line
        path = tmp_path / "data.csv"
        path.write_bytes(b'\xef\xbb\xbf\r\n"value"\r\n1.5\r\n\r\n-25\r\n'
                         + LATER_BLOCK.replace(b"\n", b"\r\n") + b"1.2e-05\r\n \r\n+3\r\n")
        sample = gjb_io._read_plain(str(path))
        assert sample is not None
        assert len(blocks) == 2 and not any(b"\r" in block for block in blocks)
        reference = gjb_io._read_csv(str(path))
        assert sample.values.view(np.uint64).tolist() == reference.values.view(np.uint64).tolist()
        assert sample.skipped_rows == reference.skipped_rows

    @pytest.mark.parametrize("lead", [5000, gjb_io._BLOCK_BYTES // 2 + 1],
                             ids=["first-block", "later-block"])
    @pytest.mark.parametrize("tail", [
        "12\n-\n3\n", "12\n.\n3\n", "12\n+\n-3\n", "12\n-.\n3\n",
        "12\n1.2.3\n", "12\n5-3\n", "12\n5-\n3\n",
        "12345678901234567890\n3\n", "-98765432109876543210.5\n3\n",
        "9223372036854775807\n-9223372036854775808\n",
    ], ids=["sign", "point", "plus", "sign-point", "two-points", "inner-sign", "last-sign",
            "20-digits", "20-digits-negative", "int64-limits"])
    def test_lenient_integer_parse_cannot_leak(self, tmp_path, lead, tail):
        # np.fromstring joins a lone sign to the next line, skips a lone
        # point's line and clamps an overflowing mantissa
        path = write(tmp_path, "1\n" * lead + tail)
        assert read_outcome(gjb_io.read_sample_csv, path) == read_outcome(gjb_io._read_csv, path)


def assert_same_outcome(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("equiv") / "data.csv"
    path.write_bytes(data)
    assert read_outcome(gjb_io.read_sample_csv, str(path)) == read_outcome(
        gjb_io._read_csv, str(path))


def fraction_cut(text: str, count: int) -> str:
    """``text`` cut after its ``count``-th significant digit, if that digit
    is after the point."""
    seen = 0
    for i, ch in enumerate(text):
        seen += ch.isdigit() and (seen > 0 or ch != "0")
        if seen == count:
            return text[:i + 1] if "." in text[:i] else text
    return text


@st.composite
def fixed_point(draw) -> str:
    digits = draw(st.text("0123456789", min_size=1, max_size=25))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(digits)))
        digits = f"{digits[:at]}.{digits[at:]}"
    return draw(st.sampled_from(["", "-", "+"])) + digits


@st.composite
def long_mantissa(draw) -> str:
    digits = str(draw(st.integers(10**18, 10**25 - 1)))
    at = draw(st.integers(0, len(digits)))
    return draw(st.sampled_from(["", "-"])) + f"{digits[:at]}.{digits[at:]}"


@st.composite
def midpoint(draw) -> str:
    """A value exactly halfway between a double and the next one up,
    written out in full or cut to 17-19 significant digits, which falls
    just short of it. A mantissa of 2**53 - 1 puts it just below a power
    of two, whose gap above is twice its gap below."""
    mantissa = draw(st.integers(2**52, 2**53 - 1) | st.just(2**53 - 1))
    x = math.ldexp(mantissa, draw(st.integers(-90, 10)))
    with localcontext() as ctx:
        ctx.prec = 1200  # enough for every digit of a double
        text = format((Decimal(x) + Decimal(math.nextafter(x, math.inf))) / 2, "f")
    if draw(st.booleans()):
        text = fraction_cut(text, draw(st.integers(17, 19)))
    return draw(st.sampled_from(["", "-"])) + text


FINITE = st.floats(allow_nan=False, allow_infinity=False)
DECIMAL_LINES = st.one_of(
    FINITE.map(repr),
    fixed_point(),
    st.sampled_from(["-0", "+0.000", ".5", "5.", "-0.0"]),
    FINITE.map(lambda x: "%.15g" % x),
    FINITE.map(lambda x: "%.3f" % x),
    long_mantissa(),
    midpoint(),
)


# one line of each shape that takes the block kernel off its exact path, or
# that it reads there with a sign, each joined with \n
EDGE_LINES = {
    "exponent": "1.2e-05", "empty": "", "crlf-only": "\r", "whitespace": " \t",
    "plus": "+1.5", "minus": "-2.25", "point": ".", "sign": "-",
    "k-28": "0." + "0" * 27 + "1", "mantissa-20": "-12345678901234567890.5",
    "non-ascii": "\u0663\u0661.\u0665",
}
UNPARSED = {"point", "sign"}  # float() rejects these
# decimals whose long double quotient lies a quarter of a gap from a double,
# next to a power of two or not: none lies on a halfway point
QUARTER_GAP = ["4785228655507545.75", "9456610372726765.5", "138642353215363628"]


def block_outcome(convert, data):
    try:
        values, blank = convert(data)
    except ValueError as exc:
        return type(exc), str(exc)
    return values.view(np.uint64).tolist(), blank


@pytest.mark.skipif(not gjb_io._EXTENDED_PRECISION,
                    reason="long double cannot scale a decimal exactly here")
class TestDecimalLines:
    """The block converter against float() of each line, bit for bit."""

    @settings(max_examples=500, deadline=None)
    @given(lines=st.lists(st.tuples(DECIMAL_LINES, st.sampled_from(["\n", "\r\n"])),
                          min_size=1, max_size=40))
    @example(lines=[("0.1", "\n"), ("-0", "\r\n"), ("1.2e-05", "\n"), ("2.5", "\n")])
    # 19 digits just short of a halfway point, onto which the long double
    # quotient rounds; a quarter of the gap from a power of two in the last two
    @example(lines=[(x, "\n") for x in [
        "5.723849386572662734", "-562698.6479319037753",
        "0.06249999999999999653", "-8589934591.999999523"]])
    @example(lines=[("1.5", "\n"), ("-2.25", "\r\n"), ("+3", "\n"), ("0.001", "\n")])  # all plain
    # 2**53 + 1, halfway between two doubles, among plain lines
    @example(lines=[("1.5", "\n"), ("9007199254740993", "\n"), ("-2.25", "\r\n")])
    @example(lines=[(x, "\n") for x in QUARTER_GAP])
    def test_values_are_float_of_each_line(self, lines):
        values, blank = gjb_io._decimal_lines("".join(a + b for a, b in lines).encode())
        expected = np.array([float(a) for a, _ in lines])
        assert blank == 0
        assert values.view(np.uint64).tolist() == expected.view(np.uint64).tolist()

    def test_only_a_halfway_quotient_goes_to_float(self, monkeypatch):
        # 2**53 + 1 between decimals whose quotients are its x87 neighbours,
        # then quotients a quarter of a gap from a double, off halfway
        calls = []

        def counting_float(x):
            calls.append(x)
            return float(x)

        monkeypatch.setattr(gjb_io, "float", counting_float, raising=False)
        lines = ["9007199254740992.999", "9007199254740993", "9007199254740993.001",
                 *QUARTER_GAP]
        values, _ = gjb_io._decimal_lines("".join(x + "\n" for x in lines).encode())
        assert calls == ["9007199254740993\n"]
        assert values.tolist() == [float(x) for x in lines]

    def test_layout_probe_holds(self):
        # where the layout check lets the exact path run, the halfway test
        # flags a midpoint and not its long double neighbours
        midpoint = np.longdouble(2**53) + 1
        probe = np.array([np.nextafter(midpoint, -np.inf), midpoint,
                          np.nextafter(midpoint, np.inf)])
        assert gjb_io._on_halfway(probe).tolist() == [False, True, False]

    @pytest.mark.parametrize("line", ["-", "+", ".", "-.", "5-", "5-3", "+-1", "1.2.3"])
    def test_malformed_line_goes_to_float(self, line):
        # np.fromstring would join a lone sign to the next line, skip a lone
        # point and read "1.2.3" without its points as 123
        with pytest.raises(ValueError, match="could not convert string to float"):
            gjb_io._decimal_lines(f"12\n{line}\n3\n".encode())

    @pytest.mark.parametrize("middle", ["parsed", "every"])
    @pytest.mark.parametrize("edge", EDGE_LINES)
    def test_patched_block_reads_as_float_lines(self, edge, middle):
        # each shape first and last in a block that mixes every shape that
        # parses, or every shape, with lines of the exact path
        lines = [line for name, line in EDGE_LINES.items()
                 if middle == "every" or name not in UNPARSED]
        data = "\n".join([EDGE_LINES[edge], "0.5", *lines, "-3.75", EDGE_LINES[edge]]) + "\n"
        assert (block_outcome(gjb_io._decimal_lines, data.encode())
                == block_outcome(gjb_io._float_lines, data.encode()))

    @pytest.mark.parametrize("data", [b"\n", b"\n\n\n", b"\r\n\n", b" \n\n", b"\n\n1.5\n\n"])
    def test_blank_lines_alone_read_no_value(self, data):
        # np.fromstring reads a 0 from a text of whitespace alone
        assert block_outcome(gjb_io._decimal_lines, data) == block_outcome(gjb_io._float_lines, data)

    def test_every_line_reaches_fromstring_as_one_integer(self, monkeypatch):
        # so np.fromstring cannot stop short of the end of its text, and no
        # warning it gives on such text needs catching
        texts = []
        fromstring = np.fromstring

        def recording(text, *args, **kwargs):
            texts.append(text)
            return fromstring(text, *args, **kwargs)

        monkeypatch.setattr(np, "fromstring", recording)
        data = "\n".join(EDGE_LINES.values()).encode()
        with pytest.raises(ValueError, match="could not convert string to float"):
            gjb_io._decimal_lines(data)
        [text] = texts
        lines = text.split(b"\n")
        # every line of data, which gains a \n at its end, then the empty rest
        assert len(lines) == data.count(b"\n") + 2
        assert all(re.fullmatch(rb"([+-]?[0-9]+)?", line) for line in lines)
        assert sum(map(bool, lines)) == len(fromstring(text, dtype=np.int64, sep="\n"))


def make_outcome(p=0.5, j=1.3862943611198906, alpha=1.0) -> TestOutcome:
    return TestOutcome(
        alpha=alpha,
        n=100,
        a_n=3.1,
        b_n=0.05,
        a=3.0617475407988635,
        b=0.13701600830823914,
        j_n=j,
        p_value=p,
        sigma=CovarianceMatrix2(30.176, 6.414, 4.909),
        duplication_factor=1,
        verdict="accept",
    )


class TestReports:
    def test_schema_keys(self):
        report = gjb_io.test_report("test", make_outcome())
        obj = report.to_dict()
        expected = [
            "schema_version", "command", "alpha", "n", "duplication_factor",
            "a_n", "b_n", "a", "b", "sigma", "j_n", "p_value", "verdict",
            "wall_time_ms",
        ]
        assert list(obj) == expected
        assert set(obj["sigma"]) == {"s11", "s22", "s12", "det"}
        keys = list(obj)
        between = keys[keys.index("command") + 1 : keys.index("wall_time_ms")]
        assert between == [f.name for f in dataclasses.fields(TestOutcome)]
        assert list(obj["sigma"]) == ["s11", "s22", "s12", "det"]

    def test_zero_statistic_serializes_exactly(self):
        report = gjb_io.test_report("test", make_outcome(p=1.0, j=0.0, alpha=0.0))
        text = json_text(report)
        obj = json.loads(text)
        assert obj["j_n"] == 0
        assert obj["p_value"] == 1

    def test_json_roundtrip(self, tmp_path):
        report = gjb_io.test_report("test", make_outcome())
        path = str(tmp_path / "report.json")
        gjb_io.write_report(report, path, "json")
        assert json.loads(Path(path).read_text()) == report.to_dict()

    def test_randomized_roundtrips(self, tmp_path):
        rng = np.random.default_rng(77)
        path = str(tmp_path / "report.json")
        for i in range(100):
            scale = 10.0 ** rng.integers(-8, 8)
            # any nonsingular covariance: |correlation| < 1
            s11, s22 = float(abs(rng.normal()) * scale), float(abs(rng.normal()))
            s12 = float(rng.uniform(-1.0, 1.0) * math.sqrt(s11 * s22))
            outcome = TestOutcome(
                n=int(rng.integers(2, 10**6)),
                a_n=float(rng.normal() * scale),
                b_n=float(rng.normal() * scale),
                a=float(rng.normal()),
                b=float(rng.normal()),
                j_n=float(abs(rng.normal()) * scale),
                p_value=float(rng.uniform()),
                sigma=CovarianceMatrix2(s11, s22, s12),
                duplication_factor=int(rng.integers(1, 100)),
                verdict="accept",
                alpha=float(rng.normal()),
            )
            report = gjb_io.test_report("test", outcome)
            gjb_io.write_report(report, path, "json")
            assert json.loads(Path(path).read_text()) == report.to_dict(), f"roundtrip {i}"

    def test_full_precision(self, tmp_path):
        value = 0.1234567890123456789  # needs 17 significant digits
        report = gjb_io.Report(command="x", payload={"v": value})
        path = str(tmp_path / "p.json")
        gjb_io.write_report(report, path, "json")
        assert json.loads(Path(path).read_text())["v"] == value

    def test_csv_flat_row(self, tmp_path):
        report = gjb_io.test_report("test", make_outcome())
        path = str(tmp_path / "report.csv")
        gjb_io.write_report(report, path, "csv")
        header, row = Path(path).read_text().splitlines()
        names = header.split(",")
        assert "sigma.s11" in names
        assert "p_value" in names
        assert len(names) == len(row.split(","))

    def test_p_values_list_flattens_in_csv(self, tmp_path):
        report = gjb_io.Report(command="simulate", payload={"p_values": [0.25, 0.5]})
        path = str(tmp_path / "c.csv")
        gjb_io.write_report(report, path, "csv")
        header, row = Path(path).read_text().splitlines()
        assert "p_values" in header
        assert "0.25;0.5" in row

    def test_bad_format_rejected(self):
        # the library's entry-check error, which is still a ValueError
        report = gjb_io.Report(command="x", payload={})
        with pytest.raises(DomainError, match="format must be 'json' or 'csv', got 'yaml'"):
            gjb_io.write_report(report, None, "yaml")
        assert issubclass(DomainError, ValueError)


def json_text(report) -> str:
    import io as stdio
    import sys

    buffer = stdio.StringIO()
    old = sys.stdout
    sys.stdout = buffer
    try:
        gjb_io.write_report(report, None, "json")
    finally:
        sys.stdout = old
    return buffer.getvalue()


# SHA-256 of the exact bytes each writer emits. The writers' output is part
# of the CLI contract, so these digests only change with a documented
# format change; parsing the output back would not notice one.
SAMPLE_VALUES = np.array([1.25, -3.5e-7, 0.1, 12345.678901234567, -0.0, 1e300, 2.0 / 3.0])
PINNED_SHA256 = {
    "test_report.json":
        "6b490228334d64d7e71e5ffa49b647f4472786997d1e5e3cfcace2c579953ba7",
    "test_report.csv":
        "aac2460ae82978053f087a79e7cfbaff7956fd87a3d8f932328e6623668451ca",
    "numpy_payload.json":
        "5197558b44b74bfefd98eb73a5669e099fd83ff67475527a7af78d93a351fd11",
    "numpy_payload.csv":
        "e79205c5c9148ce9d89105581a086114d7744852281bcefc182fa72938691d8c",
    "sample.csv":
        "6180f8df42563ec36a7bacbf29829eaa434b737cd61eb43603a7a9046611a702",
    "sample_cli.csv":
        "41048800a43d243994ead92fe4dcef1399a46db0f27d13fea67d2b7ea5f1729a",
}


def pinned_report(kind: str) -> gjb_io.Report:
    if kind == "test_report":
        report = gjb_io.test_report(
            "test", make_outcome(),
            extras={"config": {"data": "x.csv", "seed": 3, "legacy": False}},
        )
    else:
        report = gjb_io.Report(command="simulate", payload={
            "alpha": 1.5,
            "data_alpha": None,
            "n": np.int64(10),
            "mean_p_value": np.float64(0.4123456789012345),
            "p_values": [np.float64(0.1), np.float64(1.0 / 3.0), np.float64(0.0),
                         np.float64(1.0), np.float64(2.5e-300)],
            "trace": [[10, 0.5], [20, 0.01]],
        })
    return dataclasses.replace(report, wall_time_ms=17)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestWrittenBytes:
    @pytest.mark.parametrize("kind", ["test_report", "numpy_payload"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_report_bytes_to_path(self, tmp_path, kind, fmt):
        path = tmp_path / f"report.{fmt}"
        gjb_io.write_report(pinned_report(kind), str(path), fmt)
        assert sha256(path.read_bytes()) == PINNED_SHA256[f"{kind}.{fmt}"]

    @pytest.mark.parametrize("kind", ["test_report", "numpy_payload"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_report_bytes_to_stdout(self, capsys, kind, fmt):
        gjb_io.write_report(pinned_report(kind), None, fmt)
        assert sha256(capsys.readouterr().out.encode()) == PINNED_SHA256[f"{kind}.{fmt}"]

    def test_sample_bytes_to_stdout(self, capsys):
        gjb_io.write_sample_csv(SAMPLE_VALUES, None)
        assert sha256(capsys.readouterr().out.encode()) == PINNED_SHA256["sample.csv"]

    def test_sample_bytes_to_path(self, tmp_path):
        path = tmp_path / "sample.csv"
        gjb_io.write_sample_csv(SAMPLE_VALUES, str(path))
        assert sha256(path.read_bytes()) == PINNED_SHA256["sample.csv"]

    def test_sample_command_bytes_to_stdout_and_path(self, tmp_path, capsys):
        argv = ["sample", "--alpha", "2", "--n", "25", "--seed", "11"]
        assert main(argv) == 0
        assert sha256(capsys.readouterr().out.encode()) == PINNED_SHA256["sample_cli.csv"]
        path = tmp_path / "s.csv"
        assert main(argv + ["--out", str(path)]) == 0
        assert sha256(path.read_bytes()) == PINNED_SHA256["sample_cli.csv"]
