"""Tests for CSV ingestion and report serialization."""

import json
import math

import numpy as np
import pytest

from gjb import io as gjb_io
from gjb.asymptotics import CovarianceMatrix2
from gjb.errors import EmptyInputError, SampleParseError
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

    def test_roundtrip_with_writer(self, tmp_path):
        values = np.array([1.25, -3.5e-7, 0.1, 12345.678901234567])
        path = str(tmp_path / "out.csv")
        gjb_io.write_sample_csv(values, path)
        back = gjb_io.read_sample_csv(path)
        assert np.array_equal(back.values, values)


def make_outcome(p=0.5, j=1.3862943611198906) -> TestOutcome:
    return TestOutcome(
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
        report = gjb_io.test_report("test", 1.0, make_outcome())
        obj = report.to_dict()
        expected = [
            "schema_version", "command", "alpha", "n", "duplication_factor",
            "a_n", "b_n", "a", "b", "sigma", "j_n", "p_value", "verdict",
            "wall_time_ms",
        ]
        assert list(obj) == expected
        assert set(obj["sigma"]) == {"s11", "s22", "s12", "det"}

    def test_zero_statistic_serializes_exactly(self):
        report = gjb_io.test_report("test", 0.0, make_outcome(p=1.0, j=0.0))
        text = json_text(report)
        obj = json.loads(text)
        assert obj["j_n"] == 0
        assert obj["p_value"] == 1

    def test_json_roundtrip(self, tmp_path):
        report = gjb_io.test_report("test", 1.0, make_outcome())
        path = str(tmp_path / "report.json")
        gjb_io.write_report(report, path, "json")
        back = gjb_io.Report.from_dict(json.loads(open(path).read()))
        assert back.to_dict() == report.to_dict()

    def test_randomized_roundtrips(self, tmp_path):
        rng = np.random.default_rng(77)
        path = str(tmp_path / "report.json")
        for i in range(100):
            scale = 10.0 ** rng.integers(-8, 8)
            outcome = TestOutcome(
                n=int(rng.integers(2, 10**6)),
                a_n=float(rng.normal() * scale),
                b_n=float(rng.normal() * scale),
                a=float(rng.normal()),
                b=float(rng.normal()),
                j_n=float(abs(rng.normal()) * scale),
                p_value=float(rng.uniform()),
                sigma=CovarianceMatrix2(
                    float(abs(rng.normal()) * scale),
                    float(abs(rng.normal())),
                    float(rng.normal()),
                ),
                duplication_factor=int(rng.integers(1, 100)),
                verdict="accept",
            )
            report = gjb_io.test_report("test", float(rng.normal()), outcome)
            gjb_io.write_report(report, path, "json")
            back = gjb_io.Report.from_dict(json.loads(open(path).read()))
            assert back.to_dict() == report.to_dict(), f"roundtrip {i}"

    def test_full_precision(self, tmp_path):
        value = 0.1234567890123456789  # needs 17 significant digits
        report = gjb_io.Report(command="x", payload={"v": value})
        path = str(tmp_path / "p.json")
        gjb_io.write_report(report, path, "json")
        assert json.loads(open(path).read())["v"] == value

    def test_csv_flat_row(self, tmp_path):
        report = gjb_io.test_report("test", 1.0, make_outcome())
        path = str(tmp_path / "report.csv")
        gjb_io.write_report(report, path, "csv")
        header, row = open(path).read().splitlines()
        names = header.split(",")
        assert "sigma.s11" in names
        assert "p_value" in names
        assert len(names) == len(row.split(","))

    def test_p_values_list_flattens_in_csv(self, tmp_path):
        report = gjb_io.Report(command="simulate", payload={"p_values": [0.25, 0.5]})
        path = str(tmp_path / "c.csv")
        gjb_io.write_report(report, path, "csv")
        header, row = open(path).read().splitlines()
        assert "p_values" in header
        assert "0.25;0.5" in row

    def test_bad_format_rejected(self):
        report = gjb_io.Report(command="x", payload={})
        with pytest.raises(ValueError):
            gjb_io.write_report(report, None, "yaml")


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
