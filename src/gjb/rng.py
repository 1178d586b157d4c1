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
  ``(rows, n)`` slice row-major with one generator call.

Standard normals are numpy's ziggurat (``Generator.standard_normal``) and
bootstrap indices come from ``Generator.integers``; both draw sequentially,
so replicate ``i`` is row ``i % R`` of chunk ``i // R`` whether that chunk
is drawn whole or short. Each replicate is therefore a pure function of
(seed, consumer, i, n): it does not depend on the replicate count, and it is
bit-reproducible across runs and platforms.

The library is single-threaded: :func:`map_replicates` draws one chunk at a
time into one reused ``(R, n)`` buffer and reduces it with a row-wise kernel
before drawing the next, so its memory is O(R(n) n) whatever the replicate
count.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

# Values per stream chunk. It defines the replicate streams, so it is no
# tuning knob: changing it changes every result.
_CHUNK_ELEMENTS = 1 << 16


def substream(seed: int, *key: int) -> np.random.Generator:
    """Return the deterministic generator keyed by ``(seed, *key)``."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def worker_count() -> int:
    """Always 1: the library starts no threads and runs replicates serially."""
    return 1


def chunk_rows(n: int) -> int:
    """Rows of length ``n`` per stream chunk, ``R(n) = max(1, 2**16 // n)``."""
    return max(1, _CHUNK_ELEMENTS // n)


def map_replicates(
    draw: Callable[[np.random.Generator, np.ndarray], None],
    kernel: Callable[[np.ndarray], np.ndarray],
    reps: int,
    n: int,
    seed: int,
    *,
    key_prefix: tuple[int, ...],
) -> np.ndarray:
    """Row-wise ``kernel`` results for replicates 0..reps-1, in order.

    Each stream chunk is drawn and reduced before the next one is drawn.
    ``draw(g, rows)`` fills the ``(r, n)`` rows of one chunk (r is
    ``chunk_rows(n)``, or fewer for the last chunk) from the chunk's
    generator ``g``, drawing them in row order; the rows are one buffer
    reused for every chunk. ``kernel`` maps those rows to one result per
    row, and the results are gathered along the first axis. ``key_prefix``
    names the consumer, so distinct consumers of the same seed never share a
    stream. It has no default: the empty prefix is ``substream(seed)``'s
    key, so chunk 0 would replay ``sample_sn(seed)``.
    """
    key = np.random.SeedSequence(seed, spawn_key=key_prefix).generate_state(2, np.uint64)
    per_chunk = chunk_rows(n)
    buf = np.empty((min(per_chunk, reps), n))
    out = None
    for j, start in enumerate(range(0, reps, per_chunk)):
        rows = buf[: reps - start]
        draw(np.random.Generator(np.random.Philox(key=key, counter=[0, j, 0, 0])), rows)
        result = kernel(rows)
        if out is None:
            out = np.empty((reps,) + result.shape[1:], result.dtype)
        out[start : start + len(rows)] = result
    return out
