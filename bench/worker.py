"""Benchmark child process: runs one workload's CLI ops and reports them.

Usage: ``python3 bench/worker.py SPEC.json RESULT.json``, from the checkout
root with ``src`` on ``PYTHONPATH``. ``run.py`` starts it; a separate process
gives the workload its own peak RSS.

SPEC holds ``argv`` (the CLI arguments of one op), ``seconds`` (how long to
keep starting ops), ``min_ops`` and ``trace``. Each op is one
``gjb.cli.main(argv)`` call in this already-warm interpreter, with stdout
captured. One untimed warm-up op comes first. With ``trace`` untraced and
traced ops alternate, and the spans of the traced ones are written to the
path ``spans`` in SPEC. Without it, each op is preceded by a run of a fixed
calibration kernel, whose time (``calib_s``) tracks the host's speed at that
moment; ``run.py`` uses it to scale the op times.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _one_op(run) -> dict:
    out = io.StringIO()
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        try:
            code = run()
        except SystemExit as exc:
            code = exc.code
        except Exception:  # an op that crashes is a failed op, not a dead run
            code = "exception: " + traceback.format_exc(limit=3)
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    return {"wall_s": wall, "cpu_s": cpu, "exit": code, "stdout": out.getvalue()}


def _calibration_kernel() -> None:
    """Fixed work of the two kinds that dominate the workloads: interpreted
    Python, and passes over an array larger than the CPU caches."""
    total = 0
    for i in range(1_000_000):
        total += i * i
    big = np.full(4_000_000, 1.5)  # 32 MB
    for _ in range(3):
        dev = big - big.mean()
        (dev * dev * dev).sum()


def _calibrate() -> float:
    """Seconds the calibration kernel takes now.

    It runs in a forked child, so that its memory stays out of this
    process's peak RSS and its CPU time out of the op's.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            t0 = time.perf_counter()
            _calibration_kernel()
            os.write(write_fd, repr(time.perf_counter() - t0).encode())
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        text = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not text:
        raise RuntimeError(f"calibration child failed with wait status {status}")
    return float(text)


def _more(durations: list[float], start: float, seconds: float, minimum: int) -> bool:
    """Go on if the minimum count is not met or a typical round still fits."""
    if len(durations) < minimum:
        return True
    return time.perf_counter() - start + statistics.median(durations) <= seconds


def _traced_run(argv, seconds: float, min_pairs: int, spans_path: str, result: dict) -> None:
    """Alternate untraced and traced ops, so both see the same conditions.

    A first, untimed op lets lazy set-up finish (the first op of a process
    pays for fresh memory), so it does not land on either side.
    """
    import gjb.cli
    import tracing

    tracer = tracing.Tracer()
    warmup = [_one_op(lambda: gjb.cli.main(argv))]
    untraced, traced, per_op, spans, rounds = [], [], [], [], []
    start = time.perf_counter()
    while _more(rounds, start, seconds, min_pairs):
        round_start = time.perf_counter()
        untraced.append(_one_op(lambda: gjb.cli.main(argv)))
        tracer.install()
        try:
            op = _one_op(lambda: tracer.op(gjb.cli.main, argv))
        finally:
            tracer.restore()
        per_op.append(tracing.op_metrics(
            tracer.spans, tracer.counts, result["worker_count"], len(op["stdout"].encode())
        ))
        traced.append(op)
        spans.append(tracer.spans)
        rounds.append(time.perf_counter() - round_start)
    result.update(warmup_ops=warmup, ops=untraced, traced_ops=traced, layer_ops=per_op)
    with open(spans_path, "w") as fh:
        for i, op_spans in enumerate(spans):
            for span in op_spans:
                fh.write(json.dumps([i, *span]) + "\n")


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    import gjb.cli
    import gjb.rng

    argv = spec["argv"]
    result = {"gjb_file": gjb.__file__, "worker_count": gjb.rng.worker_count()}
    if spec["trace"]:
        _traced_run(argv, spec["seconds"], spec["min_ops"], spec["spans"], result)
    else:
        # untimed, like the traced run's: the first op pays for fresh memory
        result["warmup_ops"] = [_one_op(lambda: gjb.cli.main(argv))]
        ops, rounds = [], []
        start = time.perf_counter()
        while _more(rounds, start, spec["seconds"], spec["min_ops"]):
            round_start = time.perf_counter()
            calib_s = _calibrate()
            ops.append(dict(_one_op(lambda: gjb.cli.main(argv)), calib_s=calib_s))
            rounds.append(time.perf_counter() - round_start)
        result["ops"] = ops
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
