"""Span recording around the public functions of each ``gjb`` module.

The benchmark's traced run wraps the layer entry points from outside the
program: ``gjb`` modules bind names at import (``from .rng import
substream``), so each wrapper replaces the binding in every ``gjb`` module
namespace that holds the original function, and ``restore`` puts the
originals back. Spans are kept in memory as ``(id, parent, name, start_ns,
end_ns)``; a span opened on a pool thread with no open span of its own takes
the innermost open span of the op's thread as its parent.

Layers are the ``gjb`` modules. ``errors`` holds only exception classes and
``reference`` only tables plus ``rejection_size_hint``; ``distributions`` has
no public call inside any workload op, because campaigns sample inline, so
its cost shows only inside its callers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import statistics
import threading
import time
from collections import Counter, defaultdict

import numpy as np

ENTRY_POINTS = {
    "io": ("read_sample_csv", "write_report", "test_report", "write_sample_csv"),
    "testing": (
        "run_test", "empirical_shape", "gjb_statistic", "simulate_true_model",
        "simulate_alternative", "rejection_size_search", "duplication_decision",
        "estimate_alpha", "estimate_alpha_with_flag",
    ),
    "asymptotics": (
        "sigma_analytic", "sigma_monte_carlo", "chi2_survival",
        "influence_polynomials", "legacy_influence_polynomials",
    ),
    "moments": (
        "sn_raw_moments", "shape_statistics", "analytic_shape_statistics",
        "centered_moment", "delta_from_skewness",
    ),
    "rng": ("substream", "map_replicates", "worker_count"),
    "distributions": ("sample_sn", "sn_pdf"),
    "reference": ("rejection_size_hint",),
}
MODULES = ("io", "testing", "asymptotics", "moments", "rng", "distributions",
           "reference", "errors", "cli")

ROOT_SPAN = "cli.main"

# Bytes of the arrays the bootstrap in testing.duplication_decision builds per
# resample element: the int64 index array, x[idx], dev, dev**2 and dev**3.
# Computed from the code's array shapes, not measured.
BOOTSTRAP_BYTES_PER_ELEMENT = 5 * 8

COUNT_METRICS = (
    "io.rows_parsed",
    "testing.empirical_shape_calls",
    "rng.substream_calls",
    "asymptotics.sigma_analytic_calls",
    "asymptotics.chi2_survival_calls",
    "moments.sn_raw_moments_calls",
    "testing.bootstrap_elements",
    "testing.bootstrap_bytes_computed",
    "rng.worker_count",
    "distributions.calls",
)


def _count_rows(counts, args, kwargs, result):
    counts["io.rows_parsed"] += result.parsed_rows


def _count_shape_rows(counts, args, kwargs, result):
    counts["testing.empirical_shape_rows"] += np.size(args[0])


def _count_reps(counts, args, kwargs, result):
    counts["testing.campaign_reps"] += args[0].replications


def _bootstrap_counter(fn):
    signature = inspect.signature(fn)

    def count(counts, args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        elements = bound.arguments["resamples"] * np.size(bound.arguments["sample"])
        counts["testing.bootstrap_elements"] += elements
        counts["testing.bootstrap_bytes_computed"] += BOOTSTRAP_BYTES_PER_ELEMENT * elements

    return count


_COUNTERS = {
    "io.read_sample_csv": lambda fn: _count_rows,
    "testing.empirical_shape": lambda fn: _count_shape_rows,
    "testing.simulate_true_model": lambda fn: _count_reps,
    "testing.duplication_decision": _bootstrap_counter,
}


class Tracer:
    """Records spans and counts; one instance per traced run."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op_stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        return self._op_stack[-1] if self._op_stack else 0

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                self.spans.append((sid, parent, name, start, end))
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every entry point in every gjb namespace that binds it."""
        modules = [importlib.import_module("gjb")] + [
            importlib.import_module(f"gjb.{m}") for m in MODULES
        ]
        wrappers = {}
        for layer, names in ENTRY_POINTS.items():
            module = importlib.import_module(f"gjb.{layer}")
            for attr in names:
                fn = getattr(module, attr)
                span = f"{layer}.{attr}"
                make_count = _COUNTERS.get(span)
                count = make_count(fn) if make_count else None
                wrappers[id(fn)] = (fn, self.wrap(span, fn, count))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._installed.append((module, attr, value))

    def restore(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def op(self, fn, *args):
        """Run one op as the root span; its spans and counts are left in
        ``self.spans`` and ``self.counts`` until the next op."""
        self.spans, self.counts = [], Counter()
        stack = self._stack()
        sid = next(self._ids)
        self._op_stack = stack
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            result = fn(*args)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, 0, ROOT_SPAN, start, end))
            self._op_stack = []
        return result


def _union_ns(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    covered, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the part of it its child spans cover (ns).

    Children on pool threads overlap each other, so their union is taken.
    """
    children = defaultdict(list)
    for sid, parent, _name, start, end in spans:
        children[parent].append((start, end))
    return {
        sid: (end - start) - _union_ns(children.get(sid, []), start, end)
        for sid, _parent, _name, start, end in spans
    }


def op_metrics(spans, counts, worker_count: int, stdout_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced op (times in the unit each name says).

    ``stdout_bytes`` is the size of the op's captured stdout, which
    ``io.write_report`` alone writes in the commands that call it.
    """
    calls: Counter = Counter()
    total_ns: Counter = Counter()
    self_ns: Counter = Counter()
    own = self_times(spans)
    root = next(s for s in spans if s[2] == ROOT_SPAN)
    for sid, _parent, name, start, end in spans:
        calls[name] += 1
        total_ns[name] += end - start
        self_ns[name] += own[sid]

    def seconds(name):
        return total_ns[name] / 1e9

    def per_call_us(name):
        return total_ns[name] / 1e3 / calls[name] if calls[name] else 0.0

    def per_unit(ns: float, units: float, scale: float):
        return ns * scale / units if units else 0.0

    op_ns = root[4] - root[3]
    rows = counts["io.rows_parsed"]
    shape_rows = counts["testing.empirical_shape_rows"]
    reps = counts["testing.campaign_reps"]
    return {
        "io.read_sample_csv_s": seconds("io.read_sample_csv"),
        "io.read_ns_per_row": per_unit(total_ns["io.read_sample_csv"], rows, 1.0),
        "io.rows_parsed": rows,
        "io.write_report_s": seconds("io.write_report"),
        "io.report_bytes": stdout_bytes if calls["io.write_report"] else 0,
        "testing.empirical_shape_calls": calls["testing.empirical_shape"],
        "testing.empirical_shape_s": seconds("testing.empirical_shape"),
        "testing.empirical_shape_ns_per_row": per_unit(
            total_ns["testing.empirical_shape"], shape_rows, 1.0),
        "testing.campaign_s": seconds("testing.simulate_true_model"),
        "testing.campaign_us_per_rep": per_unit(
            total_ns["testing.simulate_true_model"], reps, 1e-3),
        "rng.substream_calls": calls["rng.substream"],
        "rng.substream_us": per_call_us("rng.substream"),
        "rng.map_replicates_s": seconds("rng.map_replicates"),
        "rng.worker_count": worker_count,
        "asymptotics.sigma_analytic_calls": calls["asymptotics.sigma_analytic"],
        "asymptotics.sigma_analytic_us": per_call_us("asymptotics.sigma_analytic"),
        "asymptotics.chi2_survival_calls": calls["asymptotics.chi2_survival"],
        "moments.sn_raw_moments_calls": calls["moments.sn_raw_moments"],
        "moments.sn_raw_moments_us": per_call_us("moments.sn_raw_moments"),
        "moments.delta_from_skewness_us": per_call_us("moments.delta_from_skewness"),
        "testing.duplication_decision_s": seconds("testing.duplication_decision"),
        "testing.bootstrap_self_s": self_ns["testing.duplication_decision"] / 1e9,
        "testing.estimate_alpha_s": seconds("testing.estimate_alpha_with_flag"),
        "testing.run_test_s": seconds("testing.run_test"),
        "testing.bootstrap_elements": counts["testing.bootstrap_elements"],
        "testing.bootstrap_bytes_computed": counts["testing.bootstrap_bytes_computed"],
        "cli.self_s": own[root[0]] / 1e9,
        "trace.coverage": 1.0 - own[root[0]] / op_ns,
        "trace.op_s": op_ns / 1e9,
        "distributions.calls": calls["distributions.sample_sn"] + calls["distributions.sn_pdf"],
    }


def median_metrics(per_op: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the traced ops; exact counts as counted."""
    return {
        k: per_op[0][k] if k in COUNT_METRICS else statistics.median(m[k] for m in per_op)
        for k in per_op[0]
    }


def count_mismatches(per_op: list[dict[str, float]]) -> list[str]:
    """Exact counts that differ between traced ops of one run."""
    first = per_op[0]
    return [
        f"{k}: {[m[k] for m in per_op]}"
        for k in COUNT_METRICS
        if any(m[k] != first[k] for m in per_op[1:])
    ]
