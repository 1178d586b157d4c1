"""Reproducible random streams and the replicate loop.

All randomness in this package comes from counter-based Philox generators
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11) keyed
by ``SeedSequence(seed, spawn_key=key)``:

* :func:`substream` is the generator keyed by ``(seed, *key)`` with its
  counter at 0; ``sample_sn`` draws from ``substream(seed)``, key ``()``.
* :func:`map_replicates` serves the replicate consumers, each under its own
  key prefix: campaigns ``(0,)``, the bootstrap in ``duplication_decision``
  ``(1,)`` and ``sigma_monte_carlo`` ``(2,)``. A consumer derives its
  Philox key ``K`` once. Its replicates of length ``n`` are grouped into
  stream chunks of ``R(n) = max(1, 2**16 // n)`` rows (:func:`chunk_rows`):
  chunk ``j`` draws from ``Philox(key=K, counter=[0, j, 0, 0])``, so every
  chunk owns a disjoint range of 2^64 counter blocks, and fills its
  ``(rows, width)`` slice row-major with one generator call. ``width`` is
  the count of values drawn per replicate: ``n``, or ``2n`` for the
  skew-normal consumers, whose replicate is built from n pairs (Z1, Z2).

Standard normals are numpy's ziggurat (``Generator.standard_normal``) and
bootstrap indices come from ``Generator.integers``; both draw sequentially,
so replicate ``i`` is row ``i % R`` of chunk ``i // R`` whether that chunk
is drawn whole or short. Each replicate is therefore a pure function of
(seed, consumer, i, n): it does not depend on the replicate count, and its
draws are the same across runs and platforms. What is computed from them is
bit-reproducible for a given seed, numpy build and set of CPU features that
numpy dispatches to: numpy picks SIMD kernels (``np.exp``, ``np.power``) at
run time, and their last bits can differ between dispatch targets.

:func:`map_replicates` shares a consumer's chunks among as many lanes as
the process has usable cores (:func:`worker_count`), at most one lane per
chunk. Every lane runs the same loop: the caller's thread is lane 0, and
each other lane is a thread started for the call and joined before it
returns. Lane ``w`` of ``L`` draws and reduces chunks ``j = w, w + L, ...``
one at a time in a ``(R, width)`` row buffer and the consumer's count of
``(R, n)`` scratch blocks, both its own and allocated once, and keeps each
chunk's results, a new array, or the exception it raised; once every lane
is joined the first exception is raised, else the results are concatenated
in chunk order. A kernel is a plain function of a chunk's rows and scratch,
and may build several samples from the same drawn rows: campaigns that
share a seed and n evaluate every shape from one draw per chunk (common
random numbers). They copy the chunk's Z1 and Z2 once into their two
scratch blocks, column-major for rows shorter than 16 values, then build
and reduce the shapes' samples one at a time in the used-up row buffer.
numpy releases the GIL in the draws, gathers and ufunc loops that fill
and reduce the rows, so the lanes run in parallel.
Since every chunk owns its counter range, results are bit-identical for any
core count or affinity mask, and memory is O(L R(n) n) whatever the
replicate count.
"""

from __future__ import annotations

import operator
import os
import threading
from typing import Callable

import numpy as np

from .errors import DomainError

# Values per stream chunk. It defines the replicate streams, so it is no
# tuning knob: changing it changes every result.
_CHUNK_ELEMENTS = 1 << 16

# the most float values one array can hold: numpy caps its size in bytes
# at what np.intp can index
_MAX_VALUES = np.iinfo(np.intp).max // np.dtype(float).itemsize


def _check_count(name: str, value, least: int, width: int = 0) -> None:
    """Raise DomainError naming ``name`` unless ``value`` is an integer
    (``operator.index`` accepts it, as it does numpy integers) >= ``least``.

    A count that sizes an array of ``width`` float values per unit
    (``width > 0``) must also keep that array within numpy's size limit."""
    try:
        operator.index(value)
    except TypeError:
        raise DomainError(f"need an integer {name}, got {value!r}") from None
    if value < least:
        raise DomainError(f"need {name} >= {least}, got {value}")
    if width and value > _MAX_VALUES // width:
        raise DomainError(f"need {name} <= {_MAX_VALUES // width}, got {value}")


def substream(seed: int, *key: int) -> np.random.Generator:
    """Return the deterministic generator keyed by ``(seed, *key)``."""
    _check_count("seed", seed, 0)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def worker_count() -> int:
    """Lanes :func:`map_replicates` may run stream chunks on: the cores this
    process may run on, by its affinity mask, else the CPU count. Results do
    not depend on it."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def chunk_rows(n: int) -> int:
    """Rows of length ``n`` per stream chunk, ``R(n) = max(1, 2**16 // n)``."""
    return max(1, _CHUNK_ELEMENTS // n)


def map_replicates(
    draw: Callable[[np.random.Generator, np.ndarray], None],
    kernel: Callable[[np.ndarray, np.ndarray], np.ndarray],
    reps: int,
    n: int,
    seed: int,
    *,
    key_prefix: tuple[int, ...],
    width: int | None = None,
    scratch: int = 0,
) -> np.ndarray:
    """Row-wise kernel results for replicates 0..reps-1, in order.

    ``draw(g, rows)`` fills the ``(r, width)`` rows of one chunk (r is
    ``chunk_rows(n)``, or fewer for the last chunk; ``width`` defaults to
    ``n``) from the chunk's generator ``g``, drawing them in row order.
    ``kernel(rows, work)`` then maps the drawn rows to one result per row,
    where ``work`` is the chunk's ``(scratch, r, n)`` slice of the lane's
    own scratch; the kernel may overwrite the rows and the scratch.
    Lanes run at once, so ``draw`` and ``kernel`` may write only the rows
    and scratch they are given. A kernel returns a new array of its results;
    they are gathered per chunk along the first axis. ``key_prefix`` names
    the consumer, so distinct consumers of the same seed never share a stream.
    It has no default: the empty prefix is ``substream(seed)``'s key, so
    chunk 0 would replay ``sample_sn(seed)``.

    Each lane allocates its row buffer and scratch once, before its first
    chunk. Each chunk records its results or the exception it raised (a lane
    whose buffers cannot be allocated fails at its first chunk), and each
    lane the chunk at which it failed. A lane runs its chunks in order and
    skips those above any lane's failure, and every lane stops at its next
    chunk on a Ctrl-C. Every thread is joined before this returns or raises:
    the first exception in chunk order is the lowest failing chunk's,
    whatever the lane count.
    """
    _check_count("seed", seed, 0)
    key = np.random.SeedSequence(seed, spawn_key=key_prefix).generate_state(2, np.uint64)
    per_chunk = chunk_rows(n)
    chunks = -(-reps // per_chunk)
    block = (min(per_chunk, reps), n)
    lanes = min(chunks, worker_count())
    results: list[np.ndarray | BaseException | None] = [None] * chunks
    failed = [chunks] * lanes  # lane w's failing chunk, or -1 to stop every lane

    def lane(w: int) -> None:
        j = w
        try:
            buf = np.empty((block[0], n if width is None else width))
            work = np.empty((scratch,) + block)
            for j in range(w, chunks, lanes):
                if j > min(failed):
                    return
                rows = buf[: reps - j * per_chunk]
                draw(np.random.Generator(np.random.Philox(key=key, counter=[0, j, 0, 0])), rows)
                results[j] = kernel(rows, work[:, : len(rows)])
        except Exception as exc:  # raised once every lane has stopped
            results[j], failed[w] = exc, j
        except BaseException as exc:  # a Ctrl-C: stop every lane at its next chunk
            results[j], failed[w] = exc, -1
            raise

    started = []
    try:
        for w in range(1, lanes):
            t = threading.Thread(target=lane, args=(w,))
            t.start()
            started.append(t)
        lane(0)
        for t in started:
            t.join()
    except BaseException:  # an interrupt (in a join too), or a lane that could not start
        failed[0] = -1
        raise
    finally:
        for t in started:
            t.join()
    for outcome in results:  # the lowest failing chunk's, as every chunk below it ran
        if isinstance(outcome, BaseException):
            raise outcome
    return np.concatenate(results)
