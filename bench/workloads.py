"""The benchmark's workloads: their inputs, CLI argv and correctness checks.

Each workload is one ``gjb`` CLI command, run through ``gjb.cli.main``.
Inputs are SN(1) samples drawn from the benchmark seed through the public
``sample_sn`` + ``write_sample_csv``; the program only sees the file and argv.

The checks do not depend on the random stream: they compare the report with
a tolerance the acceptance suite already uses, or with the verdict that
SN(1) data must get, so a documented stream change does not count as a
failure.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from typing import Callable

SN_ALPHA = 1.0
# acceptance criterion 3: mean p-value cells within 5 pp, 7 pp on the size-2 row
TABLE_TOL_PP = {2: 7.0, 10: 5.0}


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int | None  # rows of the SN(1) input CSV; None: the command reads no file
    expected_exit: int
    dominant: str  # per-layer metric expected to hold most of the traced op time
    argv: Callable[[str | None, int], list[str]]  # (input path, seed) -> CLI argv
    reference: Callable[[], dict]  # what check compares the output with
    check: Callable[[str, dict], list[str]]  # (stdout, reference) -> problems


def payload_sha256(stdout: str) -> str:
    """SHA-256 of an op's payload, ``wall_time_ms`` removed.

    JSON reports are hashed in canonical form; other output (the tables
    command) as printed.
    """
    try:
        obj = json.loads(stdout)
    except ValueError:
        obj = None
    if isinstance(obj, dict):
        obj.pop("wall_time_ms", None)
        text = json.dumps(obj, sort_keys=True)
    else:
        text = stdout
    return hashlib.sha256(text.encode()).hexdigest()


def _report(stdout: str) -> dict:
    obj = json.loads(stdout)
    if not isinstance(obj, dict):
        raise ValueError("report is not a JSON object")
    return obj


def table1_reference() -> dict:
    from gjb.reference import REFERENCE_MEAN_PVALUES

    return {"mean_p_percent": dict(REFERENCE_MEAN_PVALUES)}


def check_decide_report(stdout: str, ref: dict) -> list[str]:
    """``decide`` on SN(1) data: reject normality with a CI clear of 0.5."""
    report = _report(stdout)
    problems = []
    if report["verdict"] != "reject-normality":
        problems.append(f"verdict {report['verdict']!r}")
    if not report["ci_low"] >= 0.5:
        problems.append(f"ci_low {report['ci_low']!r} < 0.5")
    return problems


_CELL = re.compile(r"(-?\d+(?:\.\d+)?) \(ref [^)]*\)")


def check_table1(stdout: str, ref: dict) -> list[str]:
    """``tables --which 1``: every cell within the criterion-3 tolerance.

    The reference values come from the library's ``REFERENCE_MEAN_PVALUES``,
    not from the printed ``(ref ...)`` text.
    """
    lines = [line for line in stdout.splitlines() if line.strip()]
    header = next((i for i, line in enumerate(lines) if line.startswith("size")), None)
    if header is None:
        return ["no table header"]
    alphas = [float(tok) for tok in lines[header].split("alpha", 1)[1].split()]
    problems = []
    seen = 0
    for line in lines[header + 2:]:
        size = int(line.split()[0])
        cells = [float(v) for v in _CELL.findall(line)]
        if len(cells) != len(alphas):
            problems.append(f"row {size}: {len(cells)} cells for {len(alphas)} alphas")
            continue
        for alpha, value in zip(alphas, cells):
            expected = ref["mean_p_percent"].get((size, alpha))
            if expected is None:
                problems.append(f"unexpected cell (n={size}, alpha={alpha})")
                continue
            seen += 1
            gap = abs(value - expected)
            if not gap <= TABLE_TOL_PP[size]:
                problems.append(
                    f"(n={size}, alpha={alpha}): {value} vs {expected} "
                    f"({gap:.2f} pp > {TABLE_TOL_PP[size]} pp)"
                )
    if seen != len(ref["mean_p_percent"]):
        problems.append(f"{seen} cells checked, expected {len(ref['mean_p_percent'])}")
    return problems


def check_op(workload: Workload, exit_code, stdout: str, ref: dict) -> list[str]:
    """Problems with one op's outcome; an empty list means it is correct."""
    if exit_code != workload.expected_exit:
        return [f"exit code {exit_code!r}, expected {workload.expected_exit}"]
    try:
        return workload.check(stdout, ref)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]


# Two more workloads were tried and dropped: ``test`` on a 10^6-row CSV and
# ``test --sigma mc`` on a 10^4-row CSV. On a 2-vCPU shared host the medians
# of their runs spread 25-27% between runs of the same code, because the
# host's CPU speed drifts by that much over minutes, so no bound tight enough
# to catch a regression held for them.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "campaign-small-n", None, 0, "testing.campaign_s",
            lambda data, seed: ["tables", "--which", "1", "--seed", str(seed)],
            table1_reference, check_table1,
        ),
        # exit code 1 is decide's documented code for reject-normality
        Workload(
            "decide-5e4", 50_000, 1, "testing.bootstrap_self_s",
            lambda data, seed: ["decide", "--data", data],
            dict, check_decide_report,
        ),
    )
}
