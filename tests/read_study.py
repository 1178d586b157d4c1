"""Seeded study of the plain reader's block kernel on SN(1) sample files.

Run as a script (pytest does not collect it), from the repository root:

    PYTHONPATH=src python tests/read_study.py

It writes SN(1) samples of 5*10^4 and 10^6 rows (``sample_sn`` with seed
``SEED``), one value per line as ``write_sample_csv`` writes it, in three
forms: ``none``, with every value below 1e-4 in magnitude moved off it so
no line has an exponent; ``few``, as written (about 4 exponent lines per
5*10^4 rows); ``many``, with every ``EVERY``-th line in exponent form. Each
form is written with ``\\n`` and with ``\\r\\n`` line ends. For each file it
prints the median ms per read and ns per row of ``read_sample_csv`` over
``READS`` reads, the ``float()`` calls of one read (the header check, the
lines off the exact path and the halfway points), of them the halfway points
(lines of the form ``[+-]digits[.digits]`` after the header check: no line
of these files has too many digits for the exact path), how many blocks took
the patch path (a line not of the form in the block), and whether the values
and skipped count equal ``_read_csv``'s, the values bit for bit.

Each row is one unpaired median, from one run of one tree. Two runs of the
same tree have differed by up to 31% on a row, so rows from two trees are no
before/after evidence; compare trees with paired, interleaved reads.
"""

from __future__ import annotations

import re
import statistics
import tempfile
import time
import types
from pathlib import Path

import numpy as np

from gjb import SkewNormalShape, sample_sn
from gjb import io as gjb_io

SEED = 0
SIZES = (50_000, 1_000_000)
READS = {50_000: 20, 1_000_000: 5}
EVERY = 64  # one line in EVERY is in exponent form in the "many" files
DECIMAL = re.compile(r"[+-]?[0-9]+(\.[0-9]+)?\r?\n")  # a line of the exact path's form


def lines_of(x: np.ndarray, form: str) -> list[str]:
    if form == "none":
        x = np.where(np.abs(x) < 1e-4, x + np.copysign(1e-3, x), x)
    lines = [repr(v) for v in x.tolist()]
    if form == "many":
        lines[::EVERY] = [f"{v:.16e}" for v in x[::EVERY].tolist()]
    return lines


def counted_read(path: str) -> tuple[gjb_io.SampleFile, list[str], int]:
    """One read, with the texts of its ``float()`` calls and the count of
    its patch-path blocks, recorded by stand-ins for the names ``gjb.io``
    looks up: ``float`` and ``np.repeat``, which only the patch path calls."""
    texts = []
    calls = {"patch": 0}

    def counting_float(text):
        texts.append(text)
        return float(text)

    def counting_repeat(*args, **kwargs):
        calls["patch"] += 1
        return np.repeat(*args, **kwargs)

    numpy = types.SimpleNamespace(**{**vars(np), "repeat": counting_repeat})
    gjb_io.float, gjb_io.np = counting_float, numpy
    try:
        sample = gjb_io.read_sample_csv(path)
    finally:
        del gjb_io.float
        gjb_io.np = np
    return sample, texts, calls["patch"]


def study(path: str, n: int) -> str:
    times = []
    for _ in range(READS[n]):
        start = time.perf_counter()
        gjb_io.read_sample_csv(path)
        times.append(time.perf_counter() - start)
    sample, texts, patched = counted_read(path)
    halfway = sum(bool(DECIMAL.fullmatch(text)) for text in texts[1:])
    reference = gjb_io._read_csv(path)
    same = (sample.values.view(np.uint64).tolist() == reference.values.view(np.uint64).tolist()
            and sample.skipped_rows == reference.skipped_rows)
    blocks = -(-Path(path).stat().st_size // gjb_io._BLOCK_BYTES)
    ms = statistics.median(times) * 1e3
    return (f"{ms:9.2f} {ms * 1e6 / n:7.1f} {len(texts):7d} {halfway:7d} {patched:4d}/{blocks:<4d}"
            f" {'yes' if same else 'NO'}")


def main() -> None:
    print(f"SN(1) samples, seed {SEED}; long double exact path:"
          f" {'yes' if gjb_io._EXTENDED_PRECISION else 'no'}")
    print(f"{'rows':>8} {'form':>5} {'ends':>5} {'e-lines':>7} {'ms/read':>9}"
          f" {'ns/row':>7} {'float()':>7} {'halfway':>7} {'patched':>9} {'same':>4}")
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "sample.csv")
        for n in SIZES:
            x = sample_sn(SkewNormalShape(1.0), n, SEED)
            for form in ("none", "few", "many"):
                lines = lines_of(x, form)
                exponents = sum("e" in line for line in lines)
                for end in ("\n", "\r\n"):
                    Path(path).write_bytes("".join(line + end for line in lines).encode())
                    ends = "lf" if end == "\n" else "crlf"
                    print(f"{n:8d} {form:>5} {ends:>5} {exponents:7d} {study(path, n)}")


if __name__ == "__main__":
    main()
