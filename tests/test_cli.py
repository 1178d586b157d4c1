"""End-to-end CLI tests: flags, exit codes, determinism of report payloads."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gjb
from gjb.cli import main
from gjb.distributions import SkewNormalShape, sample_sn
from gjb.io import write_sample_csv


def run(args):
    return main(args)


def payload(path):
    obj = json.loads(open(path).read())
    obj.pop("wall_time_ms")
    return obj


def sample_file(tmp_path, alpha, n, seed, name="data.csv"):
    path = str(tmp_path / name)
    write_sample_csv(sample_sn(SkewNormalShape(alpha), n, seed), path)
    return path


class TestSampleCommand:
    def test_deterministic_files(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert run(["sample", "--alpha", "0", "--n", "5", "--seed", "7", "--out", a]) == 0
        assert run(["sample", "--alpha", "0", "--n", "5", "--seed", "7", "--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_mean_matches_first_moment(self, tmp_path):
        out = str(tmp_path / "big.csv")
        assert run(["sample", "--alpha", "1", "--n", "1000000", "--seed", "1",
                    "--out", out]) == 0
        values = np.loadtxt(out)
        assert abs(values.mean() - 0.5641895835477563) < 0.004

    def test_n_zero_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            run(["sample", "--alpha", "0", "--n", "0"])
        assert info.value.code == 2


class TestTestCommand:
    def test_true_model_accepts(self, tmp_path):
        data = sample_file(tmp_path, 1.0, 10_000, seed=3)
        out = str(tmp_path / "report.json")
        assert run(["test", "--data", data, "--alpha", "1", "--out", out]) == 0
        obj = payload(out)
        assert obj["p_value"] > 0.05
        assert obj["verdict"] == "accept"
        assert obj["n"] == 10_000

    def test_normal_hypothesis_rejected_with_duplication(self, tmp_path):
        # SN(1) data tested against alpha=0 at the reference rejection size
        data = sample_file(tmp_path, 1.0, 400, seed=3)
        out = str(tmp_path / "report.json")
        assert run(["test", "--data", data, "--alpha", "0", "--duplicate", "8",
                    "--out", out]) == 0
        assert payload(out)["p_value"] < 0.05

    def test_sigma_routes_agree_on_statistic(self, tmp_path):
        data = sample_file(tmp_path, 1.0, 2_000, seed=5)
        out_a = str(tmp_path / "a.json")
        out_m = str(tmp_path / "m.json")
        assert run(["test", "--data", data, "--alpha", "1", "--sigma", "analytic",
                    "--out", out_a]) == 0
        assert run(["test", "--data", data, "--alpha", "1", "--sigma", "mc",
                    "--seed", "0", "--out", out_m]) == 0
        ja, jm = payload(out_a)["j_n"], payload(out_m)["j_n"]
        assert abs(ja - jm) / ja < 0.03

    def test_payload_deterministic(self, tmp_path):
        data = sample_file(tmp_path, 0.5, 100, seed=9)
        out1, out2 = str(tmp_path / "1.json"), str(tmp_path / "2.json")
        run(["test", "--data", data, "--alpha", "0.5", "--out", out1])
        run(["test", "--data", data, "--alpha", "0.5", "--out", out2])
        assert payload(out1) == payload(out2)

    def test_missing_data_file_is_runtime_error(self, tmp_path, capsys):
        assert run(["test", "--data", str(tmp_path / "nope.csv"), "--alpha", "1"]) == 3
        assert "error" in capsys.readouterr().err

    def test_parse_error_is_runtime_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0\nwat\n")
        assert run(["test", "--data", str(bad), "--alpha", "1"]) == 3
        assert "wat" in capsys.readouterr().err


class TestCampaignCommands:
    def test_simulate_report(self, tmp_path):
        out = str(tmp_path / "sim.json")
        assert run(["simulate", "--alpha", "1", "--size", "10", "--reps", "300",
                    "--seed", "4", "--out", out]) == 0
        obj = payload(out)
        assert 0.0 < obj["mean_p_value"] < 1.0
        assert "p_values" not in obj

    def test_simulate_full_includes_p_values(self, tmp_path):
        out = str(tmp_path / "sim.json")
        assert run(["simulate", "--alpha", "1", "--size", "10", "--reps", "50",
                    "--seed", "4", "--full", "--out", out]) == 0
        obj = payload(out)
        assert len(obj["p_values"]) == 50
        assert obj["mean_p_value"] == pytest.approx(np.mean(obj["p_values"]))

    def test_simulate_deterministic(self, tmp_path):
        out1, out2 = str(tmp_path / "1.json"), str(tmp_path / "2.json")
        args = ["simulate", "--alpha", "1", "--size", "10", "--reps", "100",
                "--seed", "4", "--full"]
        run(args + ["--out", out1])
        run(args + ["--out", out2])
        assert payload(out1) == payload(out2)

    def test_power_against_normal(self, tmp_path):
        out = str(tmp_path / "p.json")
        assert run(["power", "--alpha", "6", "--size", "130", "--reps", "300",
                    "--seed", "4", "--out", out]) == 0
        obj = payload(out)
        assert obj["mean_p_value"] < 0.05
        assert obj["data_alpha"] is None

    def test_power_with_sn_alternative_matches_simulate(self, tmp_path):
        out_p = str(tmp_path / "p.json")
        out_s = str(tmp_path / "s.json")
        run(["power", "--alpha", "1", "--size", "20", "--reps", "100",
             "--seed", "4", "--data-alpha", "1", "--full", "--out", out_p])
        run(["simulate", "--alpha", "1", "--size", "20", "--reps", "100",
             "--seed", "4", "--full", "--out", out_s])
        assert payload(out_p)["p_values"] == payload(out_s)["p_values"]


class TestRejectSizeCommand:
    def test_alpha_ten(self, tmp_path):
        out = str(tmp_path / "rs.json")
        assert run(["reject-size", "--alpha", "10", "--reps", "200",
                    "--seed", "2", "--out", out]) == 0
        obj = payload(out)
        assert obj["capped"] is False
        assert 59 <= obj["n"] <= 236  # within a factor 2 of the reference 118
        assert obj["trace"][-1][1] < 0.05

    def test_cap_reported(self, tmp_path):
        out = str(tmp_path / "rs.json")
        assert run(["reject-size", "--alpha", "0.15", "--cap", "50",
                    "--reps", "100", "--seed", "2", "--out", out]) == 0
        obj = payload(out)
        assert obj["capped"] is True
        assert obj["n"] is None


class TestTablesCommand:
    def test_shape_table(self, capsys):
        assert run(["tables", "--which", "3"]) == 0
        out = capsys.readouterr().out
        assert "3.06174" in out  # computed kurtosis at alpha=1
        assert "0.95556" in out  # computed skewness at alpha=10

    def test_mean_pvalue_table_runs(self, capsys):
        assert run(["tables", "--which", "1", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "ref 64.34" in out


class TestDecideCommand:
    def test_reject_exit_code(self, tmp_path):
        data = sample_file(tmp_path, 6.0, 50, seed=1)
        out = str(tmp_path / "d.json")
        assert run(["decide", "--data", data, "--seed", "0", "--out", out]) == 1
        obj = payload(out)
        assert obj["verdict"] == "reject-normality"
        assert obj["alpha_hat"] > 0.5

    def test_accept_exit_code(self, tmp_path):
        rng = np.random.default_rng(10)
        data = str(tmp_path / "n.csv")
        write_sample_csv(rng.standard_normal(50), data)
        out = str(tmp_path / "d.json")
        assert run(["decide", "--data", data, "--seed", "0", "--out", out]) == 0
        assert payload(out)["verdict"] == "accept-symmetry"


def flat_items(obj, prefix=""):
    for key, value in obj.items():
        if isinstance(value, dict):
            yield from flat_items(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


def assert_cell_matches(text, value):
    if isinstance(value, list):
        pieces = text.split(";") if value else []
        assert len(pieces) == len(value)
        for piece, v in zip(pieces, value):
            assert (json.loads(piece) if isinstance(v, list) else float(piece)) == v
    elif isinstance(value, (bool, str)) or value is None:
        assert text == str(value)
    else:
        assert float(text) == value


class TestCsvFormat:
    """A CSV report is the JSON report flattened into one header and one row."""

    def check(self, tmp_path, args, code=0):
        out_j, out_c = str(tmp_path / "r.json"), str(tmp_path / "r.csv")
        assert run(args + ["--out", out_j]) == code
        assert run(args + ["--format", "csv", "--out", out_c]) == code
        expected = list(flat_items(json.loads(open(out_j).read())))
        with open(out_c, newline="") as fh:
            header, row = list(csv.reader(fh))
        assert header == [key for key, _ in expected]
        for (key, value), text in zip(expected, row):
            if key != "wall_time_ms":
                assert_cell_matches(text, value)
        return dict(zip(header, row))

    def test_test(self, tmp_path):
        data = sample_file(tmp_path, 1.0, 500, seed=3)
        row = self.check(tmp_path, ["test", "--data", data, "--alpha", "1"])
        assert row["config.sigma_route"] == "analytic"

    def test_simulate_full(self, tmp_path):
        row = self.check(tmp_path, ["simulate", "--alpha", "1", "--size", "10",
                                    "--reps", "20", "--seed", "4", "--full"])
        assert len(row["p_values"].split(";")) == 20

    def test_reject_size(self, tmp_path):
        row = self.check(tmp_path, ["reject-size", "--alpha", "10", "--reps", "100",
                                    "--seed", "2"])
        assert row["capped"] == "False"

    def test_decide_reject(self, tmp_path):
        data = sample_file(tmp_path, 6.0, 50, seed=1)
        row = self.check(tmp_path, ["decide", "--data", data, "--seed", "0"], code=1)
        assert row["verdict"] == "reject-normality"

    def test_decide_exit_code_through_module_entry_point(self, tmp_path):
        data = sample_file(tmp_path, 6.0, 50, seed=1)
        src = str(Path(gjb.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "gjb.cli", "decide", "--data", data, "--format", "csv"],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 1
        header, row = list(csv.reader(proc.stdout.splitlines()))
        assert dict(zip(header, row))["verdict"] == "reject-normality"


class TestUsageErrors:
    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as info:
            run(["simulate", "--alpha", "1", "--size", "10", "--bogus"])
        assert info.value.code == 2

    def test_missing_required(self):
        with pytest.raises(SystemExit) as info:
            run(["test", "--alpha", "1"])
        assert info.value.code == 2

    def test_bad_level(self):
        with pytest.raises(SystemExit) as info:
            run(["decide", "--data", "x.csv", "--level", "1.5"])
        assert info.value.code == 2

    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as info:
            run(["--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        for name in ("sample", "test", "simulate", "power", "reject-size",
                     "tables", "decide"):
            assert name in out
