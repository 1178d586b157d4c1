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
(seed, consumer, i, n): it depends neither on the replicate count nor on the
block size, and it is bit-reproducible across runs and platforms.

The library is single-threaded: :func:`map_replicates` draws replicates into
row blocks of whole chunks, at most :data:`BLOCK_ELEMENTS` values unless one
chunk is larger, and reduces each block with a row-wise kernel.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

# Upper bound on rows * n for one block (8 MB of float64) when a chunk fits;
# a block always holds at least one chunk.
BLOCK_ELEMENTS = 1 << 20

# Values per stream chunk. It defines the replicate streams, so unlike
# BLOCK_ELEMENTS it is no tuning knob: changing it changes every result.
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


def block_rows(n: int) -> int:
    """Rows of length ``n`` per block: the most whole chunks that fit in
    ``BLOCK_ELEMENTS`` values, at least one chunk."""
    per_chunk = chunk_rows(n)
    return per_chunk * max(1, BLOCK_ELEMENTS // (per_chunk * n))


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

    ``draw(g, rows)`` fills the ``(r, n)`` rows of one stream chunk (r is
    ``chunk_rows(n)``, or fewer for the last chunk) from the chunk's
    generator ``g``, drawing them in row order. ``kernel`` maps a block of
    whole chunks to one result per row, and the results are concatenated
    along the first axis. ``key_prefix`` names the consumer, so distinct
    consumers of the same seed never share a stream. It has no default: the
    empty prefix is ``substream(seed)``'s key, so chunk 0 would replay
    ``sample_sn(seed)``.
    """
    key = np.random.SeedSequence(seed, spawn_key=key_prefix).generate_state(2, np.uint64)
    per_chunk = chunk_rows(n)
    step = block_rows(n)
    parts = []
    for start in range(0, reps, step):
        xs = np.empty((min(step, reps - start), n))
        for lo in range(0, len(xs), per_chunk):
            counter = [0, (start + lo) // per_chunk, 0, 0]
            g = np.random.Generator(np.random.Philox(key=key, counter=counter))
            draw(g, xs[lo : lo + per_chunk])
        parts.append(kernel(xs))
    return np.concatenate(parts)
