"""Bytes that the draw and the kernel of a replicate consumer allocate."""

import tracemalloc

import gjb.rng


def per_call_allocations(monkeypatch, module, run):
    """Call ``run()`` with ``module.map_replicates`` wrapped, and return, for
    ``"draw"`` and ``"kernel"``, the peak bytes each call allocated beyond
    what was live when it started, one entry per stream chunk.

    The call runs on one lane: tracemalloc's peak is the process's, so
    chunks running at once on other lanes would count toward each other's.
    The lane's row buffer and kernel scratch are allocated before its first
    chunk and are not counted.
    """
    extra = {"draw": [], "kernel": []}
    real = module.map_replicates

    def measured(name, fn):
        def wrapped(*args):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = fn(*args)
            extra[name].append(tracemalloc.get_traced_memory()[1] - base)
            return result

        return wrapped

    def spy(draw, kernel, *args, **kwargs):
        return real(measured("draw", draw), measured("kernel", kernel), *args, **kwargs)

    monkeypatch.setattr(module, "map_replicates", spy)
    monkeypatch.setattr(gjb.rng, "worker_count", lambda: 1)
    tracemalloc.start()
    try:
        run()
    finally:
        tracemalloc.stop()
    return extra
