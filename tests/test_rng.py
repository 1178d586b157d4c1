"""Tests for the seeded substream machinery and the replicate loop."""

import os
import sys
import threading
import time

import numpy as np
import pytest

import gjb.asymptotics
import gjb.distributions
import gjb.rng
import gjb.testing
from gjb.asymptotics import sigma_monte_carlo
from gjb.distributions import SkewNormalShape, sample_sn
from gjb.errors import DegenerateSampleError
from gjb.rng import chunk_rows, map_replicates, substream, worker_count
from gjb.testing import CampaignConfig, simulate_true_model

from reference_streams import replicate_generator


def _normals(g, rows):
    g.standard_normal(out=rows)


def _identity(block):
    # a copy: a kernel returns a new array, and xs is its lane's row buffer
    return lambda xs: xs.copy()


def _on_lanes(monkeypatch, lanes):
    """Make ``map_replicates`` run on ``lanes`` lanes, whatever the host has."""
    monkeypatch.setattr(gjb.rng, "worker_count", lambda: lanes)


def reference_replicate(seed, key_prefix, i, n):
    """Replicate i of a ``_normals`` consumer, drawn on its own."""
    g, rows, row = replicate_generator(seed, key_prefix, i, n)
    return g.standard_normal((rows, n))[row]


def test_substream_deterministic():
    a = substream(42).standard_normal(16)
    b = substream(42).standard_normal(16)
    assert np.array_equal(a, b)


def test_substream_keys_are_distinct():
    draws = {
        (): substream(7).standard_normal(8),
        (0,): substream(7, 0).standard_normal(8),
        (1,): substream(7, 1).standard_normal(8),
        (0, 0): substream(7, 0, 0).standard_normal(8),
    }
    keys = list(draws)
    for i, k1 in enumerate(keys):
        for k2 in keys[i + 1 :]:
            assert not np.array_equal(draws[k1], draws[k2]), (k1, k2)


def _key(g):
    return tuple(g.bit_generator.state["state"]["key"].tolist())


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
def test_consumer_keys_are_distinct(seed, monkeypatch):
    # sample_sn, campaigns, the bootstrap and sigma_monte_carlo each draw
    # under their own Philox key, read off the generators they really use;
    # a consumer sharing sample_sn's key would replay sample_sn(seed)
    seen = []

    def spy(draw, kernel, reps, n, seed, **kwargs):
        def recorded(g, rows):
            seen.append(_key(g))
            draw(g, rows)

        return map_replicates(recorded, kernel, reps, n, seed, **kwargs)

    def recorded_substream(seed, *key):
        g = substream(seed, *key)
        seen.append(_key(g))
        return g

    monkeypatch.setattr(gjb.testing, "map_replicates", spy)
    monkeypatch.setattr(gjb.asymptotics, "map_replicates", spy)
    monkeypatch.setattr(gjb.distributions, "substream", recorded_substream)
    sample_sn(SkewNormalShape(1.0), 10, seed)
    simulate_true_model(CampaignConfig(sample_size=10, replications=3, seed=seed), 1.0)
    gjb.testing._bootstrap_alphas(np.arange(5.0), 3, seed)
    sigma_monte_carlo(SkewNormalShape(1.0), 3, 10, seed)
    assert len(seen) == 4
    assert len(set(seen)) == 4, seen


def test_chunk_rows():
    assert [chunk_rows(n) for n in (1, 2, 10, 2**16, 2**16 + 1, 2**20)] == [
        2**16, 2**15, 6553, 1, 1, 1
    ]


def test_map_replicates_block_size_irrelevant():
    # n = 2^14: four rows per chunk, and the kernel sees one chunk per call.
    # 10 replicates end on a short chunk of 2 rows, 12 on a full one and 5 on
    # one row; every replicate is the same whichever block it falls in. Lanes
    # may run the chunks in any order, so the block sizes are compared sorted.
    blocks = []

    def row_sums(block):
        def kernel(xs):
            blocks.append(len(xs))
            return xs.sum(axis=1)

        return kernel

    n = 2**14
    assert chunk_rows(n) == 4
    full = map_replicates(_normals, row_sums, 12, n, seed=3, key_prefix=(0,))
    assert blocks == [4, 4, 4]
    for reps, sizes in ((10, [4, 4, 2]), (5, [4, 1]), (1, [1])):
        blocks.clear()
        out = map_replicates(_normals, row_sums, reps, n, seed=3, key_prefix=(0,))
        assert sorted(blocks, reverse=True) == sizes
        assert np.array_equal(out, full[:reps])
    assert full[9] == reference_replicate(3, (0,), 9, n).sum()


def test_map_replicates_key_prefix_namespaces():
    zero = map_replicates(_normals, _identity, 10, 1, seed=3, key_prefix=(0,))
    one = map_replicates(_normals, _identity, 10, 1, seed=3, key_prefix=(1,))
    assert not np.array_equal(zero, one)
    assert np.array_equal(one[4], reference_replicate(3, (1,), 4, 1))


def test_worker_count_is_the_lane_budget(monkeypatch):
    # the cores this process may use; no environment variable changes it
    monkeypatch.setenv("GJB_THREADS", "3")
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    assert worker_count() == usable >= 1
    # map_replicates runs on worker_count() lanes, each with a kernel of its
    # own: the caller's thread and worker_count() - 1 threads it starts
    started = []

    class Thread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    kernels = []

    def make_kernel(block):
        kernels.append(block)
        return lambda xs: xs[:, 0]

    monkeypatch.setattr(gjb.rng.threading, "Thread", Thread)
    _on_lanes(monkeypatch, 5)
    map_replicates(_normals, make_kernel, 8, 2**16, seed=0, key_prefix=(0,))
    assert len(started) == 4
    assert len(kernels) == 5


def test_worker_count_without_affinity_call(monkeypatch):
    # platforms without sched_getaffinity (macOS) fall back to the CPU count
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert worker_count() == (os.cpu_count() or 1)


@pytest.mark.parametrize("reps", [1, 5, 4 * 2**16 + 3])
def test_map_replicates_order(reps, monkeypatch):
    # n = 1: 2^16 rows per chunk. Small campaigns are checked row by row, the
    # long one (four full chunks and a short one) at the chunk seams, on
    # one, two and three lanes: each lane runs its own chunks, and every
    # result lands at its replicate's offset
    if reps <= 5:
        rows = list(range(reps))
    else:
        rows = [0, 2**16 - 1, 2**16, 3 * 2**16 + 1, 4 * 2**16, reps // 2, reps - 1]
    expected = np.stack([reference_replicate(0, (0,), i, 1) for i in rows])
    for lanes in (1, 2, 3):
        _on_lanes(monkeypatch, lanes)
        out = map_replicates(_normals, _identity, reps, 1, seed=0, key_prefix=(0,))
        assert out.shape == (reps, 1)
        assert np.array_equal(out[rows], expected), lanes


class _ChunkFailure(Exception):
    pass


def _chunk_index(g, rows):
    """Fill the rows with the index of the chunk whose generator ``g`` is."""
    rows.fill(g.bit_generator.state["state"]["counter"][1])


@pytest.mark.parametrize("lanes", [1, 2, 3])
def test_lowest_failing_chunk_raises(lanes, monkeypatch):
    # n = 2^16: one row per chunk, ten chunks. Chunks 4 and 5 fail, and the
    # lane of chunk 4 is held up before it, so on several lanes 5's failure
    # is seen first: that lane still runs chunk 4, and 4's error is raised
    _on_lanes(monkeypatch, lanes)
    seen = []

    def failing(block):
        def kernel(xs):
            j = int(xs[0, 0])
            seen.append(j)
            if j < 4 and j % lanes == 4 % lanes:
                time.sleep(0.05)
            if j in (4, 5):
                raise _ChunkFailure(j)
            return xs[:, 0]

        return kernel

    before = threading.active_count()
    with pytest.raises(_ChunkFailure) as info:
        map_replicates(_chunk_index, failing, 10, 2**16, seed=0, key_prefix=(0,))
    assert info.value.args == (4,)
    assert threading.active_count() == before
    assert 4 in seen
    assert (5 in seen) == (lanes > 1)


@pytest.mark.parametrize("lanes", [2, 3])
def test_no_lane_starts_a_chunk_above_a_recorded_failure(lanes, monkeypatch):
    # n = 2^16: one row per chunk, twelve chunks. Chunk 1 fails; every other
    # chunk waits for that failure and a while longer, so it is recorded
    # before the chunk ends: the other lanes finish the chunk they are on
    # (0, and 2 on three lanes) and start none above it
    _on_lanes(monkeypatch, lanes)
    chunk_one_failed = threading.Event()
    seen = []

    def failing(block):
        def kernel(xs):
            j = int(xs[0, 0])
            seen.append(j)
            if j == 1:
                chunk_one_failed.set()
                raise _ChunkFailure(j)
            chunk_one_failed.wait(5.0)
            time.sleep(0.05)
            return xs[:, 0]

        return kernel

    with pytest.raises(_ChunkFailure) as info:
        map_replicates(_chunk_index, failing, 12, 2**16, seed=0, key_prefix=(0,))
    assert info.value.args == (1,)
    assert max(seen) <= 2


@pytest.mark.parametrize("lanes", [1, 2, 3])
def test_chunk_zero_fails_while_other_lanes_run(lanes, monkeypatch):
    # chunk 0 runs on the caller's lane like any other chunk: it fails while
    # the other lanes are under way, and its error is raised once they are
    # joined
    _on_lanes(monkeypatch, lanes)
    other_lane_ran = threading.Event()
    seen = []

    def failing(block):
        def kernel(xs):
            j = int(xs[0, 0])
            seen.append(j)
            if j == 0:
                other_lane_ran.wait(5.0)
                raise _ChunkFailure(j)
            other_lane_ran.set()
            time.sleep(0.01)
            return xs[:, 0]

        return kernel

    if lanes == 1:
        other_lane_ran.set()
    before = threading.active_count()
    with pytest.raises(_ChunkFailure) as info:
        map_replicates(_chunk_index, failing, 8, 2**16, seed=0, key_prefix=(0,))
    assert info.value.args == (0,)
    assert threading.active_count() == before
    assert (len(seen) > 1) == (lanes > 1)


def test_make_kernel_failure_on_one_lane(monkeypatch):
    # lane 1, the first thread started, cannot build its kernel: its error is
    # raised, though lane 0 runs chunk 0, and every thread is joined first
    _on_lanes(monkeypatch, 3)
    started = []

    class Thread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    ran = []

    def make_kernel(block):
        if threading.current_thread() in started[:1]:
            raise _ChunkFailure("lane 1")

        def kernel(xs):
            ran.append(int(xs[0, 0]))
            return xs[:, 0]

        return kernel

    monkeypatch.setattr(gjb.rng.threading, "Thread", Thread)
    before = threading.active_count()
    with pytest.raises(_ChunkFailure) as info:
        map_replicates(_chunk_index, make_kernel, 6, 2**16, seed=0, key_prefix=(0,))
    assert info.value.args == ("lane 1",)
    assert len(started) == 2
    assert not any(t.is_alive() for t in started)
    assert threading.active_count() == before
    assert 0 in ran
    assert 1 not in ran


@pytest.mark.parametrize("lanes", [1, 2, 3])
def test_constant_replicate_error_on_any_lane_count(lanes, monkeypatch):
    # the campaign kernel's error leaves map_replicates whichever lane hit
    # it, after every lane has been joined
    _on_lanes(monkeypatch, lanes)

    real = gjb.testing.map_replicates

    def spy(draw, make_kernel, reps, n, seed, **kwargs):
        def constant_in_chunk_two(g, z):
            draw(g, z)
            if g.bit_generator.state["state"]["counter"][1] == 2:
                z[-1] = 1.0  # Z1 and Z2 constant, so the SN sample is too

        return real(constant_in_chunk_two, make_kernel, reps, n, seed, **kwargs)

    monkeypatch.setattr(gjb.testing, "map_replicates", spy)
    config = CampaignConfig(sample_size=2**14, replications=20, seed=0)
    before = threading.active_count()
    with pytest.raises(DegenerateSampleError, match="a replicate sample is constant"):
        simulate_true_model(config, 1.0)
    assert threading.active_count() == before


def test_threads_start_and_are_joined(monkeypatch):
    # lane threads live only inside the call; a one-chunk call starts none
    _on_lanes(monkeypatch, 3)
    before = threading.active_count()
    during = []

    def counting(block):
        def kernel(xs):
            during.append(threading.active_count())
            return xs[:, 0]

        return kernel

    map_replicates(_normals, counting, 3, 2**14, seed=0, key_prefix=(0,))
    assert during == [before]
    assert threading.active_count() == before
    during.clear()
    map_replicates(_normals, counting, 9, 2**16, seed=0, key_prefix=(0,))
    assert len(during) == 9
    assert max(during) > before
    assert threading.active_count() == before


def test_interrupt_on_lane_zero_stops_every_lane(monkeypatch):
    # a Ctrl-C reaches the caller's thread, lane 0, at chunk 20 while the
    # slower lane 1 is still on its first chunks: lane 1 stops at its next
    # chunk instead of running the odd chunks below 20
    _on_lanes(monkeypatch, 2)
    caller = threading.current_thread()
    seen = []

    def interrupted(block):
        def kernel(xs):
            j = int(xs[0, 0])
            seen.append(j)
            if threading.current_thread() is not caller:
                time.sleep(0.01)
            elif j == 20:
                raise KeyboardInterrupt
            return xs[:, 0]

        return kernel

    before = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        map_replicates(_chunk_index, interrupted, 40, 2**16, seed=0, key_prefix=(0,))
    assert threading.active_count() == before
    assert len([j for j in seen if j % 2]) < 6


def test_interrupt_in_a_join_stops_every_lane(monkeypatch):
    # a Ctrl-C reaches the caller while it waits to join lane 1, which is
    # still on its first chunk: lane 1 stops at its next chunk instead of
    # running the odd chunks above 1, and it is joined before the interrupt
    # leaves map_replicates
    _on_lanes(monkeypatch, 2)
    caller = threading.current_thread()
    lane_one_busy, release = threading.Event(), threading.Event()
    joins = []
    seen = []

    class Thread(threading.Thread):
        def join(self, timeout=None):
            joins.append(self)
            if len(joins) == 1:
                lane_one_busy.wait(5.0)
                raise KeyboardInterrupt
            release.set()
            super().join(timeout)

    def held_up(block):
        def kernel(xs):
            seen.append(int(xs[0, 0]))
            if threading.current_thread() is not caller and not lane_one_busy.is_set():
                lane_one_busy.set()
                release.wait(5.0)
            return xs[:, 0].copy()

        return kernel

    monkeypatch.setattr(gjb.rng.threading, "Thread", Thread)
    before = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        map_replicates(_chunk_index, held_up, 40, 2**16, seed=0, key_prefix=(0,))
    alive = threading.active_count()
    release.set()  # frees lane 1, should it still be waiting
    assert alive == before
    assert len(joins) == 2
    assert [j for j in seen if j % 2] == [1]


def test_more_lanes_than_cores_under_fast_thread_switching(monkeypatch):
    # eight lanes, switching threads every microsecond: every chunk's
    # results still land at its own offset, and of several failing chunks
    # the lowest one's error is raised
    def row_sums(block):
        return lambda xs: xs.sum(axis=1)

    def failing(block):
        def kernel(xs):
            j = int(xs[0, 0])
            if j in (9, 17, 40, 63):
                raise _ChunkFailure(j)
            return xs[:, 0]

        return kernel

    n = 2**12  # 16 rows per chunk, 64 chunks
    _on_lanes(monkeypatch, 1)
    expected = map_replicates(_normals, row_sums, 1024, n, seed=5, key_prefix=(0,))
    _on_lanes(monkeypatch, 8)
    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            out = map_replicates(_normals, row_sums, 1024, n, seed=5, key_prefix=(0,))
            assert np.array_equal(out, expected)
            with pytest.raises(_ChunkFailure) as info:
                map_replicates(_chunk_index, failing, 1024, n, seed=5, key_prefix=(0,))
            assert info.value.args == (9,)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before
