"""Golden payload digests: each command in ``golden_payloads.json`` gives the
payload it gave when the file was written, bit for bit.

A digest is the SHA-256 of what a command prints: a JSON report in
canonical form, or a CSV report's rows, with ``wall_time_ms`` removed; any
other output as printed. The commands run in-process through ``cli.main`` on
two lanes, in a directory that holds the input files, written by ``gjb
sample`` (LF, and a CRLF copy). The float results of numpy's SIMD kernels can differ in the
last bit between CPU dispatch targets, so the digests are checked only
under the numpy version and dispatch targets recorded in the file.

A documented payload change, or a command added to the file's argv lists,
rewrites its digests::

    PYTHONPATH=src python tests/test_golden_payloads.py
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import gjb.cli
import gjb.rng

GOLDEN = Path(__file__).resolve().with_name("golden_payloads.json")

# each data file is (name, the sample argv that writes it, CRLF line ends)
DATA_FILES = [
    ("lf.csv", ["sample", "--alpha", "3", "--n", "500", "--seed", "4"], False),
    ("crlf.csv", ["sample", "--alpha", "3", "--n", "500", "--seed", "4"], True),
    ("big.csv", ["sample", "--alpha", "1", "--n", "20000", "--seed", "9"], False),
]

RECORD = json.loads(GOLDEN.read_text())
COMMANDS = [entry["argv"] for entry in RECORD["payloads"]]


def dispatch_targets() -> list[str]:
    """The CPU dispatch targets numpy's SIMD kernels use in this process."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]


def digest(text: str) -> str:
    """SHA-256 of a JSON report in canonical form, or of a CSV report's
    rows, without ``wall_time_ms``; of other output as printed."""
    try:
        obj = json.loads(text)
    except ValueError:
        obj = None
    rows = list(csv.reader(io.StringIO(text)))
    if isinstance(obj, dict):
        obj.pop("wall_time_ms", None)
        text = json.dumps(obj, sort_keys=True)
    elif rows and "wall_time_ms" in rows[0]:
        i = rows[0].index("wall_time_ms")
        text = json.dumps([row[:i] + row[i + 1 :] for row in rows])
    return hashlib.sha256(text.encode()).hexdigest()


def payload_digest(argv) -> str:
    """The digest of what ``gjb argv`` prints; it must exit 0 or 1."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert gjb.cli.main(argv) in (0, 1)
    return digest(buffer.getvalue())


def write_data_files(directory: Path) -> None:
    for name, argv, crlf in DATA_FILES:
        out = directory / name
        assert gjb.cli.main(argv + ["--out", str(out)]) == 0
        if crlf:
            out.write_bytes(out.read_bytes().replace(b"\n", b"\r\n"))


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    write_data_files(directory)
    return directory


def test_commands_cover_every_subcommand():
    assert {argv[0] for argv in COMMANDS} == set(gjb.cli._COMMANDS)


@pytest.mark.parametrize("entry", RECORD["payloads"], ids=[" ".join(a) for a in COMMANDS])
def test_payload_digest(entry, data_dir, monkeypatch):
    here = {"numpy": np.__version__, "dispatch": dispatch_targets()}
    there = {"numpy": RECORD["numpy"], "dispatch": RECORD["dispatch"]}
    if here != there:
        pytest.skip(f"digests recorded under {there}, running under {here}")
    monkeypatch.chdir(data_dir)
    monkeypatch.setattr(gjb.rng, "worker_count", lambda: 2)
    assert payload_digest(entry["argv"]) == entry["sha256"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        write_data_files(Path(tmp))
        os.chdir(tmp)
        gjb.rng.worker_count = lambda: 2
        payloads = [{"argv": argv, "sha256": payload_digest(argv)} for argv in COMMANDS]
    head = {"numpy": np.__version__, "dispatch": dispatch_targets()}
    lines = ",\n".join(f"  {json.dumps(entry)}" for entry in payloads)
    GOLDEN.write_text(f'{json.dumps(head)[:-1]}, "payloads": [\n{lines}\n]}}\n')
    print(f"wrote {GOLDEN}", file=sys.stderr)
