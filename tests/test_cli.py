"""End-to-end CLI tests: flags, exit codes, determinism of report payloads."""

import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gjb
import gjb.cli
import gjb.testing
from gjb.cli import main
from gjb.distributions import SkewNormalShape, sample_sn
from gjb.io import write_sample_csv
from gjb.reference import REFERENCE_MEAN_PVALUES, REFERENCE_REJECTION_SIZES
from gjb.testing import CampaignConfig, rejection_size_search, simulate_true_model


def run(args):
    return main(args)


def payload(path):
    obj = json.loads(Path(path).read_text())
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
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_mean_matches_first_moment(self, tmp_path):
        out = str(tmp_path / "big.csv")
        assert run(["sample", "--alpha", "1", "--n", "1000000", "--seed", "1",
                    "--out", out]) == 0
        values = np.loadtxt(out)
        assert abs(values.mean() - 0.5641895835477563) < 0.004

    def test_empty_out_is_runtime_error(self, capsys):
        assert run(["sample", "--alpha", "0", "--n", "3", "--out", ""]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in captured.err

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

    @pytest.mark.parametrize("k", ["1" + "0" * 308, "1" + "0" * 309], ids=["1e308", "1e309"])
    def test_duplication_past_the_float_range_is_a_runtime_error(self, tmp_path, k, capsys):
        data = sample_file(tmp_path, 1.0, 50, seed=1)
        assert run(["test", "--data", data, "--alpha", "0", "--duplicate", k]) == 3
        assert capsys.readouterr().err.startswith("gjb: error: duplication_factor ")

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

    @pytest.mark.parametrize("reps", [1000, 2000, 5000])
    def test_mean_is_exact_when_every_p_is_equal(self, tmp_path, reps):
        # every replicate at n = 2 has the same p; numpy's pairwise mean of
        # these equal values would land a few ulps off it
        out = str(tmp_path / "p.json")
        assert run(["power", "--alpha", "6", "--size", "2", "--reps", str(reps),
                    "--seed", "4", "--full", "--out", out]) == 0
        obj = payload(out)
        assert set(obj["p_values"]) == {obj["mean_p_value"]}

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

    def test_cap_below_start_is_runtime_error(self, capsys):
        # a cap below the default start of 10 would search no size at all
        assert run(["reject-size", "--alpha", "6", "--cap", "5"]) == 3
        assert "need cap >= 10, got 5" in capsys.readouterr().err


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

    def test_rejection_size_table(self, capsys):
        # desk budget: one row per desk alpha, each n that of a search at the
        # command's level, seed and cap
        assert run(["tables", "--which", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "Size needed to reject normality at the 5% level (budget=desk)"
        assert lines[1].split() == ["alpha", "n", "reference", "n"]
        rows = [line.split() for line in lines[3:]]
        assert [float(row[0]) for row in rows] == [1.5, 6.0, 10.0]
        for alpha_text, n_text, ref_text in rows:
            alpha = float(alpha_text)
            assert int(n_text) == rejection_size_search(alpha, 0.05, 0, cap=4_000_000).n
            assert int(ref_text) == REFERENCE_REJECTION_SIZES[alpha]

    @pytest.mark.parametrize("budget", ["desk", "full"])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_mean_pvalue_table_is_per_cell_campaigns(self, seed, budget, capsys):
        # one pass per size prints what one campaign per cell prints
        reps = 1000 if budget == "desk" else 2000
        sizes = sorted({size for size, _ in REFERENCE_MEAN_PVALUES})
        alphas = sorted({alpha for _, alpha in REFERENCE_MEAN_PVALUES})
        rows = []
        for size in sizes:
            row = [str(size)]
            for alpha in alphas:
                config = CampaignConfig(sample_size=size, replications=reps,
                                        seed=seed, legacy=True)
                mean_p = float(simulate_true_model(config, alpha).mean())
                row.append(f"{100 * mean_p:.2f} (ref {REFERENCE_MEAN_PVALUES[(size, alpha)]})")
            rows.append(row)
        print(f"Mean p-values under the true model (percent, reps={reps}, "
              f"legacy conventions to match the reference grid)")
        gjb.cli._print_table(["size \\ alpha"] + [str(a) for a in alphas], rows)
        expected = capsys.readouterr().out
        assert run(["tables", "--which", "1", "--seed", str(seed), "--budget", budget]) == 0
        assert capsys.readouterr().out == expected

    def test_mean_pvalue_table_draws_no_two_value_campaign(self, monkeypatch, capsys):
        # every sample of two values has one (a_n, b_n), so the n = 2 row is
        # computed in closed form and only the n = 10 row runs a campaign
        sizes = []
        real = gjb.testing.map_replicates

        def recorded(draw, make_kernel, reps, n, *args, **kwargs):
            sizes.append(n)
            return real(draw, make_kernel, reps, n, *args, **kwargs)

        monkeypatch.setattr(gjb.testing, "map_replicates", recorded)
        assert run(["tables", "--which", "1"]) == 0
        assert sizes == [10]
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines[3:]] == ["2", "10"]


class TestDecideCommand:
    def test_reject_exit_code(self, tmp_path):
        data = sample_file(tmp_path, 6.0, 50, seed=1)
        out = str(tmp_path / "d.json")
        assert run(["decide", "--data", data, "--seed", "0", "--out", out]) == 1
        obj = payload(out)
        assert obj["verdict"] == "reject-normality"
        assert obj["alpha_hat"] > 0.5
        assert obj["ci_method"] == "bootstrap"

    def test_accept_exit_code(self, tmp_path):
        rng = np.random.default_rng(10)
        data = str(tmp_path / "n.csv")
        write_sample_csv(rng.standard_normal(50), data)
        out = str(tmp_path / "d.json")
        assert run(["decide", "--data", data, "--seed", "0", "--out", out]) == 0
        assert payload(out)["verdict"] == "accept-symmetry"

    def test_out_of_memory_is_runtime_error(self, tmp_path, monkeypatch, capsys):
        # exit 1 means reject-normality, so a crash must not exit 1
        data = sample_file(tmp_path, 6.0, 50, seed=1)
        for exc, message in [
            (MemoryError("Unable to allocate 7.45 GiB"), "Unable to allocate 7.45 GiB"),
            (MemoryError(), "out of memory"),  # numpy's bare error for a list too long
        ]:
            def exhausted(*args, **kwargs):
                raise exc

            monkeypatch.setattr(gjb.cli, "duplication_decision", exhausted)
            assert run(["decide", "--data", data]) == 3
            assert capsys.readouterr().err == f"gjb: error: {message}\n"


class TestCountsTooLargeForAnArray:
    # numpy's float arrays hold at most this many values (2^60 - 1 on 64 bits)
    MOST = np.iinfo(np.intp).max // 8

    @pytest.mark.parametrize("argv, message", [
        (["sample", "--alpha", "1", "--n", str(2**62)], f"n <= {MOST // 2}, got {2**62}"),
        (["simulate", "--alpha", "1", "--size", str(10**20), "--reps", "1"],
         f"sample_size <= {MOST // 2}, got {10**20}"),
        (["reject-size", "--alpha", "1", "--start", str(10**20), "--cap", str(10**20)],
         f"sample_size <= {MOST // 2}, got {10**20}"),
        (["simulate", "--alpha", "1", "--size", "2", "--reps", str(10**20)],
         f"replications <= {MOST}, got {10**20}"),
    ], ids=["sample-n", "simulate-size", "reject-size-start", "simulate-reps"])
    def test_is_runtime_error_naming_the_count(self, argv, message, capsys):
        # exit 1 means reject-normality, so an oversize count must exit 3
        assert run(argv) == 3
        assert capsys.readouterr().err == f"gjb: error: need {message}\n"


class TestInputLayouts:
    """One sample written in several layouts gives one report, apart from
    the count of skipped lines."""

    LAYOUTS = {
        "lf": (0, lambda lines: "".join(f"{v}\n" for v in lines)),
        "crlf": (0, lambda lines: "".join(f"{v}\r\n" for v in lines)),
        "header": (1, lambda lines: "value\n" + "".join(f"{v}\n" for v in lines)),
        "quoted-header": (1, lambda lines: '"value"\r\n' + "".join(f"{v}\r\n" for v in lines)),
        "trailing-blank-lines": (
            3, lambda lines: "".join(f"{v}\n" for v in lines) + "\n \n\n"
        ),
    }

    @pytest.mark.parametrize("argv", [
        ["test", "--alpha", "1"],
        ["decide", "--seed", "3"],
    ], ids=["test", "decide"])
    def test_payload_does_not_depend_on_layout(self, tmp_path, argv):
        lines = [repr(float(v)) for v in sample_sn(SkewNormalShape(1.0), 300, 11)]
        data, out = tmp_path / "data.csv", str(tmp_path / "r.json")
        reports = {}
        for name, (skipped, layout) in self.LAYOUTS.items():
            data.write_text(layout(lines), newline="")
            code = run(argv + ["--data", str(data), "--out", out])
            report = payload(out)
            assert report["config"].pop("skipped_rows") == skipped, name
            reports[name] = code, report
        assert reports["lf"][1]["n"] == 300
        assert reports["lf"][1]["config"]["parsed_rows"] == 300
        for name in self.LAYOUTS:
            assert reports[name] == reports["lf"], name


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
        expected = list(flat_items(json.loads(Path(out_j).read_text())))
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
        assert row["ci_method"] == "bootstrap"

    def test_decide_influence_interval(self, tmp_path):
        data = sample_file(tmp_path, 1.0, 20_000, seed=8)
        row = self.check(tmp_path, ["decide", "--data", data], code=1)
        assert row["ci_method"] == "influence"

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


class TestUnreadableInput:
    @pytest.mark.parametrize("content", [
        "1.5\n2.5\n".encode("utf-16"),  # starts with b"\xff\xfe": not UTF-8
        b"1.0\n2.0\n" + b"9" * 131_073 + b"\n",  # over the CSV field limit
    ], ids=["utf-16", "oversized-field"])
    def test_decide_exits_with_parse_error(self, tmp_path, capsys, content):
        data = tmp_path / "bad.csv"
        data.write_bytes(content)
        assert run(["decide", "--data", str(data)]) == 3
        assert str(data) in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as info:
            run(["simulate", "--alpha", "1", "--size", "10", "--bogus"])
        assert info.value.code == 2

    def test_missing_required(self):
        with pytest.raises(SystemExit) as info:
            run(["test", "--alpha", "1"])
        assert info.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["simulate", "--alpha", "1", "--size", "1"],
        ["power", "--alpha", "1", "--size", "1"],
        ["reject-size", "--alpha", "1", "--start", "1"],
    ])
    def test_sample_size_below_two_names_the_flag(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            run(argv)
        assert info.value.code == 2
        assert f"argument {argv[-2]}: must be >= 2, got 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["sample", "--alpha", "0", "--n", "3"],
        ["decide", "--data", "s.csv"],
    ])
    def test_negative_seed_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            run(argv + ["--seed", "-1"])
        assert info.value.code == 2
        assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err

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


class TestOneCommandParser:
    """``main`` builds the parser of the command it runs only; that parser
    reads the command's options to the same namespace, and prints the same
    help and errors, as the full parser's subparser. Only an unrecognized
    argument is reported differently: by the command, not by ``gjb``."""

    # the argvs of this file's CLI tests, one list per command
    ARGVS = {
        "sample": [["--alpha", "0", "--n", "5", "--seed", "7", "--out", "a.csv"],
                   ["--alpha", "1", "--n", "1000000", "--seed", "1", "--out", "big.csv"],
                   ["--alpha", "0", "--n", "3", "--out", ""]],
        "test": [["--data", "d.csv", "--alpha", "1", "--out", "r.json"],
                 ["--data", "d.csv", "--alpha", "0", "--duplicate", "8"],
                 ["--data", "d.csv", "--alpha", "1", "--sigma", "mc", "--seed", "3",
                  "--legacy", "--level", "0.1", "--format", "csv"]],
        "simulate": [["--alpha", "1", "--size", "10", "--reps", "300", "--out", "r.json"],
                     ["--alpha", "1", "--size", "10", "--reps", "50", "--full", "--seed", "4"]],
        "power": [["--alpha", "6", "--size", "130", "--reps", "300"],
                  ["--alpha", "1", "--size", "20", "--reps", "100", "--data-alpha", "1"]],
        "reject-size": [["--alpha", "10", "--reps", "200", "--seed", "2"],
                        ["--alpha", "0.15", "--cap", "50", "--start", "3"]],
        "tables": [["--which", "3"], ["--which", "1", "--seed", "7", "--budget", "full"]],
        "decide": [["--data", "d.csv", "--seed", "0", "--out", "r.json"],
                   ["--data", "d.csv", "--k-cap", "5", "--level", "0.01", "--format", "csv"]],
    }

    @staticmethod
    def outcome(parse, argv, capsys):
        """(exit code, stdout, stderr) of ``parse(argv)``, which exits."""
        with pytest.raises(SystemExit) as info:
            parse(argv)
        captured = capsys.readouterr()
        return info.value.code, captured.out, captured.err

    def test_every_command_is_covered(self):
        assert list(self.ARGVS) == list(gjb.cli._COMMANDS)

    @pytest.mark.parametrize("command", list(ARGVS))
    def test_same_namespace(self, command):
        for argv in self.ARGVS[command]:
            one = gjb.cli._command_parser(command).parse_args(argv)
            full = gjb.cli.build_parser().parse_args([command] + argv)
            assert vars(one) == vars(full)

    @pytest.mark.parametrize("command", list(ARGVS))
    def test_same_help(self, command, capsys):
        one = self.outcome(gjb.cli._command_parser(command).parse_args, ["-h"], capsys)
        full = self.outcome(gjb.cli.build_parser().parse_args, [command, "-h"], capsys)
        assert one == full
        assert one[0] == 0 and one[1].startswith(f"usage: gjb {command} [-h]")

    @pytest.mark.parametrize("argv", [
        ["tables"],
        ["tables", "--which", "4"],
        ["decide", "--bogus"],  # reported by decide's parser: --data is missing
        ["power", "--alpha", "1", "--size", "1"],
    ])
    def test_same_usage_error(self, argv, capsys):
        one = self.outcome(gjb.cli.main, argv, capsys)
        full = self.outcome(gjb.cli.build_parser().parse_args, argv, capsys)
        assert one == full
        assert one[0] == 2

    def test_unrecognized_argument_is_reported_by_the_command(self, capsys):
        # the full parser reports it as "gjb: error:" under its own usage
        code, out, err = self.outcome(gjb.cli.main, ["tables", "--which", "1", "--bogus"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("usage: gjb tables [-h]")
        assert err.endswith("gjb tables: error: unrecognized arguments: --bogus\n")

    @pytest.mark.parametrize("argv,code", [([], 2), (["-h"], 0), (["nope"], 2)])
    def test_no_command_gets_the_full_parser(self, argv, code, capsys):
        one = self.outcome(gjb.cli.main, argv, capsys)
        full = self.outcome(gjb.cli.build_parser().parse_args, argv, capsys)
        assert one == full
        assert one[0] == code
        usage = "usage: gjb [-h] {sample,test,simulate,power,reject-size,tables,decide} ..."
        assert (one[1] if code == 0 else one[2]).startswith(usage)

    def test_main_builds_one_parser(self, monkeypatch, capsys):
        # the subcommand's alone, not the top-level one and all seven
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert main(["tables", "--which", "3"]) == 0
        assert built == ["gjb tables"]


def test_import_loads_no_scipy_pandas_or_pools():
    # numpy is the only runtime dependency (scipy serves the tests' oracles).
    # The library starts threads only inside map_replicates, plain threads
    # joined before it returns, and no processes: it imports no pool. Nor
    # numpy.polynomial: the library uses none of it, and importing it raises
    # the peak RSS of every command
    src = str(Path(gjb.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import gjb.cli, sys; "
            "print([m for m in sys.modules if m.split('.')[0] in "
            "('scipy', 'pandas', 'multiprocessing') "
            "or m.startswith(('concurrent.futures', 'numpy.polynomial'))])")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
