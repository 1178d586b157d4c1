"""Benchmark of the gjb CLI: end-to-end metrics per workload, or a traced run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads and metrics are listed in ``BENCHMARK.json``; ``bench/workloads.py``
defines the commands and their correctness checks. Set-up draws the
workload's SN(1) input from ``--seed`` (excluded from every metric) and, with
``--trace 0``, times ``SETUP_PROBES`` cold starts of a fresh interpreter that
imports ``gjb.cli`` and builds the parser (``setup_s``, their median). A child
process (``bench/worker.py``) then runs the workload's ops, each one
``gjb.cli.main(argv)`` call, for ``--seconds`` seconds and at least
``MIN_OPS`` times. ``GJB_THREADS`` is passed through as found, normally
unset, so the ops use the default worker count.

``--trace 0`` reports ``op_s`` and ``cpu_s`` (medians per op), the child's
``peak_rss_mb`` and ``setup_s``. The three times are scaled to a reference
host speed (``REF_CALIBRATION_S``) by a calibration kernel the child runs
before each op; the unscaled medians are printed too. ``--trace 1`` reports
the per-layer metrics of ``bench/tracing.py`` from traced ops, unscaled, plus
``trace.overhead_s``: traced minus untraced median op time in the same child. Every op's output is
checked; ``error_rate`` is failed / attempted ops, given as ``failed`` and
``attempted`` in the result. Human-readable lines come first; the last line
of stdout is the JSON result. Records and spans are written to
``bench/_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import count_mismatches, median_metrics
from workloads import SN_ALPHA, WORKLOADS, check_op, payload_sha256

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"

SETUP_PROBES = 7
MIN_OPS = 3
MIN_TRACED_OPS = 2
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 30
# Median time of the worker's calibration kernel on the host the benchmark
# was tuned on (2 vCPUs of a shared x86-64 host). The host's speed drifted by
# 20-40% over minutes there, with op times following it, so every reported
# time is scaled to this reference speed: a time t measured while the kernel
# took c seconds is reported as t * REF_CALIBRATION_S / c. On ten runs per
# workload there, the quartile spread of op_s over its median was 0.062
# (campaign-small-n) and 0.072 (decide-5e4) scaled, 0.121 and 0.103 unscaled;
# unscaled, it had reached 0.27 on campaign-small-n in an earlier hour.
REF_CALIBRATION_S = 0.2
# Prints the moment the parser is built: CLOCK_MONOTONIC is system-wide, and
# timing the child's exit instead would round to subprocess's 50 ms polling.
SETUP_PROBE = "import time, gjb.cli; gjb.cli.build_parser(); print(time.monotonic_ns())"


class BenchError(Exception):
    """The benchmark itself could not produce a trustworthy result."""


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_gjb():
    """Import gjb from this checkout's ``src`` and nowhere else."""
    if not (SRC / "gjb" / "__init__.py").is_file():
        raise BenchError(f"no gjb package under {SRC}")
    sys.path.insert(0, str(SRC))
    import gjb

    if Path(gjb.__file__).resolve().parent != SRC / "gjb":
        raise BenchError(f"imported gjb from {gjb.__file__}, not from {SRC}")
    return gjb


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _metric_specs() -> dict[str, dict[str, str]]:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _context() -> dict:
    import numpy
    import scipy
    import gjb.rng

    digest = hashlib.sha256()
    for path in sorted((SRC / "gjb").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    revision = "n/a (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        revision = done.stdout.strip() or revision
    return {
        "git_revision": revision,
        "source_sha256": digest.hexdigest(),
        "GJB_THREADS": os.environ.get("GJB_THREADS", "unset"),
        "worker_count": gjb.rng.worker_count(),
        "cpu_count": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _make_input(workload, seed: int) -> str:
    """Write the workload's SN(1) sample; returns its checkout-relative path."""
    from gjb import SkewNormalShape, sample_sn
    from gjb.io import write_sample_csv

    values = sample_sn(SkewNormalShape(SN_ALPHA), workload.rows, seed)
    path = OUT / "inputs" / f"sn1-{workload.rows}-seed{seed}.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    write_sample_csv(values, str(path))
    return str(path.relative_to(ROOT))


def _setup_seconds(env) -> list[float]:
    """Seconds from spawning a fresh interpreter to its built parser."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic_ns()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=env, check=True,
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        times.append((int(done.stdout) - t0) / 1e9)
    return times


def _run_worker(spec: dict, env, stem: str) -> dict:
    spec_path, result_path = OUT / f"{stem}.spec.json", OUT / f"{stem}.result.json"
    spec_path.write_text(json.dumps(spec))
    try:
        done = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(spec_path), str(result_path)],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, timeout=WORKER_TIMEOUT_S,
        )
        if done.returncode != 0:
            raise BenchError(f"worker exited with code {done.returncode}")
        result = json.loads(result_path.read_text())
    finally:
        spec_path.unlink(missing_ok=True)
        result_path.unlink(missing_ok=True)
    if Path(result["gjb_file"]).resolve().parent != SRC / "gjb":
        raise BenchError(f"worker imported gjb from {result['gjb_file']}")
    return result


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run(args) -> dict:
    workload = WORKLOADS[args.workload]
    specs = _metric_specs()
    _import_gjb()
    env = _child_env()
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    print(f"gjb benchmark: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    context = _context()
    print("context: " + " ".join(f"{k}={v}" for k, v in context.items()))

    data, ref_start = None, time.perf_counter()
    if workload.rows is not None:
        data = _make_input(workload, args.seed)
    try:
        ref = workload.reference()
        print(f"set-up: {workload.rows or 0} input rows written and reference computed "
              f"in {time.perf_counter() - ref_start:.3f} s (outside every metric)")
        setup = [] if args.trace else _setup_seconds(env)
        argv = workload.argv(data, args.seed)
        print("op: gjb " + " ".join(argv))
        result = _run_worker(
            {"argv": argv, "seconds": args.seconds, "trace": bool(args.trace),
             "min_ops": MIN_TRACED_OPS if args.trace else MIN_OPS,
             "spans": str(OUT / f"{stem}.spans.jsonl")},
            env, stem,
        )
    finally:
        if data is not None:
            (ROOT / data).unlink(missing_ok=True)

    ops = result.get("warmup_ops", []) + result["ops"] + result.get("traced_ops", [])
    problems = [check_op(workload, op["exit"], op["stdout"], ref) for op in ops]
    failed = sum(1 for p in problems if p)
    for i, p in enumerate(problems):
        if p:
            print(f"op {i} FAILED: " + "; ".join(p))
    hashes = sorted({payload_sha256(op["stdout"]) for op in ops})
    print(f"payload sha256 without wall_time_ms (information only; "
          f"{len(hashes)} distinct over {len(ops)} ops): " + " ".join(hashes))

    walls = [op["wall_s"] for op in result["ops"]]
    if not args.trace:
        calib = [op["calib_s"] for op in result["ops"]]
        speed = REF_CALIBRATION_S / statistics.median(calib)
        metrics = {
            "op_s": REF_CALIBRATION_S * statistics.median(
                op["wall_s"] / op["calib_s"] for op in result["ops"]),
            "cpu_s": REF_CALIBRATION_S * statistics.median(
                op["cpu_s"] / op["calib_s"] for op in result["ops"]),
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": speed * statistics.median(setup),
        }
        print(f"setup_s samples ({len(setup)} cold starts): " + " ".join(map(_fmt, setup)))
        print(f"op_s samples ({len(walls)} ops): " + " ".join(map(_fmt, walls)))
        print("calibration kernel samples, one before each op: " + " ".join(map(_fmt, calib)))
        print(f"unscaled medians: op {_fmt(statistics.median(walls))} s, cpu "
              f"{_fmt(statistics.median(op['cpu_s'] for op in result['ops']))} s, setup "
              f"{_fmt(statistics.median(setup))} s; host speed factor {_fmt(speed)} "
              f"(reference / median kernel time)")
        wanted = specs["end_to_end"]
    else:
        layer_ops = result["layer_ops"]
        mismatches = count_mismatches(layer_ops)
        if mismatches:
            raise BenchError("exact counts differ between traced ops: " + "; ".join(mismatches))
        metrics = median_metrics(layer_ops)
        traced_walls = [op["wall_s"] for op in result["traced_ops"]]
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        print(f"traced ops: {len(traced_walls)}, untraced ops: {len(walls)}; "
              f"counts repeat exactly across traced ops")
        share = metrics[workload.dominant] / metrics["trace.op_s"]
        verdict = "confirmed" if share > 0.5 else "NOT confirmed"
        print(f"layer mapping {verdict}: {workload.dominant} holds {100 * share:.1f}% "
              f"of the median traced op (a majority means no disjoint layer span is larger)")
        print(f"note: distributions has {metrics['distributions.calls']} public calls in this "
              f"op; campaigns sample inline, so its cost shows only inside its callers")
        wanted = specs["per_layer"]

    out_metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in wanted.items()}
    for name, m in out_metrics.items():
        print(f"{name} = {_fmt(m['value'])} {m['unit']}")
    print(f"error_rate = {failed / len(ops):.6g} ({failed} failed / {len(ops)} attempted ops)")

    record = {
        "args": vars(args), "context": context, "argv": argv,
        "ops": [{k: v for k, v in op.items() if k != "stdout"} for op in ops],
        "problems": problems, "payload_sha256": hashes, "setup_s_samples": setup,
        "metrics": metrics, "peak_rss_mb": result["peak_rss_mb"],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": out_metrics}


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        result = run(args)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
