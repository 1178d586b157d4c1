"""Self-tests of the benchmark, at a quick size.

Run from the repository root: ``python3 -m pytest -q bench/tests``.
"""

import contextlib
import dataclasses
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import worker
from workloads import WORKLOADS, _CELL, check_op, payload_sha256

from gjb import SkewNormalShape, sample_sn
from gjb.io import write_sample_csv
import gjb.cli

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = gjb.cli.main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Genuine op outputs and the references they are checked against."""
    tmp = tmp_path_factory.mktemp("bench")
    y = sample_sn(SkewNormalShape(3.0), 5000, seed=5)
    write_sample_csv(y, str(tmp / "sn3.csv"))
    # decide runs on SN(3) data, which rejects normality at this small n
    data = {"decide-5e4": str(tmp / "sn3.csv"), "campaign-small-n": None}
    return {
        name: (*_cli(w.argv(data[name], 3)), w.reference())
        for name, w in WORKLOADS.items()
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_genuine_output_passes(outputs, name):
    code, stdout, ref = outputs[name]
    assert check_op(WORKLOADS[name], code, stdout, ref) == []


def _edit_json(fn):
    def corrupt(stdout):
        report = json.loads(stdout)
        fn(report)
        return json.dumps(report)
    return corrupt


def _shift_first_cell(stdout):
    m = _CELL.search(stdout)
    moved = f"{float(m.group(1)) + 8.0:.2f}"
    return stdout[:m.start(1)] + moved + stdout[m.end(1):]


def _drop_first_cell(stdout):
    return _CELL.sub("", stdout, count=1)


CORRUPTIONS = [
    ("decide-5e4", "verdict", _edit_json(lambda r: r.update(verdict="inconclusive"))),
    ("decide-5e4", "ci_low", _edit_json(lambda r: r.update(ci_low=0.49))),
    ("decide-5e4", "not-json", lambda s: s[: len(s) // 2]),
    ("campaign-small-n", "cell", _shift_first_cell),
    ("campaign-small-n", "missing-cell", _drop_first_cell),
    ("campaign-small-n", "empty", lambda s: ""),
]


@pytest.mark.parametrize("name, what, corrupt", CORRUPTIONS, ids=[f"{n}-{w}" for n, w, _ in CORRUPTIONS])
def test_check_rejects_corrupted_output(outputs, name, what, corrupt):
    code, stdout, ref = outputs[name]
    assert check_op(WORKLOADS[name], code, corrupt(stdout), ref) != []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_check_rejects_wrong_exit_code(outputs, name):
    code, stdout, ref = outputs[name]
    assert check_op(WORKLOADS[name], 1 - code, stdout, ref) != []


def test_payload_hash_ignores_wall_time_only():
    a = json.dumps({"j_n": 1.5, "wall_time_ms": 10})
    b = json.dumps({"wall_time_ms": 99, "j_n": 1.5})
    c = json.dumps({"j_n": 1.5000001, "wall_time_ms": 10})
    assert payload_sha256(a) == payload_sha256(b) != payload_sha256(c)


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        (1, 0, "cli.main", 0, 100),
        (2, 1, "rng.map_replicates", 10, 90),
        (3, 2, "rng.substream", 20, 50),  # two pool threads overlap
        (4, 2, "rng.substream", 40, 60),
    ]
    own = tracing.self_times(spans)
    assert own == {1: 20, 2: 40, 3: 30, 4: 20}


def test_count_mismatch_is_reported():
    same = {k: 7 for k in tracing.COUNT_METRICS}
    assert tracing.count_mismatches([same, dict(same)]) == []
    other = dict(same, **{"rng.substream_calls": 8})
    assert tracing.count_mismatches([same, other]) != []


def test_tracer_wraps_caller_bindings_and_restores():
    import gjb.rng
    import gjb.testing

    original = gjb.rng.substream
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert gjb.testing.substream is gjb.rng.substream is not original
        tracer.op(gjb.testing.empirical_shape, [1.0, 2.0, 4.0])
    finally:
        tracer.restore()
    assert gjb.testing.substream is gjb.rng.substream is original
    assert [s[2] for s in tracer.spans] == ["testing.empirical_shape", tracing.ROOT_SPAN]
    assert tracer.counts["testing.empirical_shape_rows"] == 3


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(monkeypatch, capsys, trace, group):
    # decide on 5000 SN(3) rows: quick, and it still rejects normality
    quick = dataclasses.replace(WORKLOADS["decide-5e4"], rows=5000)
    monkeypatch.setattr(run, "WORKLOADS", {quick.name: quick})
    monkeypatch.setattr(run, "SN_ALPHA", 3.0)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "MIN_OPS", 1)
    monkeypatch.setattr(run, "MIN_TRACED_OPS", 1)
    argv = ["--workload", quick.name, "--seed", "424242", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float)) and math.isfinite(value["value"])


def test_calibration_child_is_reaped():
    assert 0 < worker._calibrate() < 60
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_benchmark_json_matches_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["command"] == ["python3", "bench/run.py"] and SPEC["paths"] == ["bench"]
    for w in WORKLOADS.values():
        assert w.dominant in {m["name"] for m in SPEC["per_layer"]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "decide-5e4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert not re.search(r'"correct"', done.stdout)
