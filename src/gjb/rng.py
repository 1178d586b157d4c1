"""Reproducible random streams and the replicate loop.

All randomness in this package flows through :func:`substream`, which keys a
counter-based Philox generator with ``SeedSequence(seed, spawn_key=key)``.
Two consequences:

* the stream for a given ``(seed, key)`` is bit-reproducible across runs and
  platforms;
* replicate ``i`` of a campaign draws from ``substream(seed, i)``, so a
  campaign's result does not depend on how replicates are grouped.

Standard normals come from numpy's ``Generator.standard_normal`` (ziggurat).

The library is single-threaded: :func:`map_replicates` draws replicates into
row blocks bounded by :data:`BLOCK_ELEMENTS` values and reduces each block
with a row-wise kernel; no result depends on the block size.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

# Upper bound on rows * n for one block (8 MB of float64); a block always
# holds at least one row.
BLOCK_ELEMENTS = 1 << 20


def substream(seed: int, *key: int) -> np.random.Generator:
    """Return the deterministic generator keyed by ``(seed, *key)``."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def worker_count() -> int:
    """Always 1: the library starts no threads and runs replicates serially."""
    return 1


def block_rows(n: int) -> int:
    """Rows of length ``n`` per block: at most ``BLOCK_ELEMENTS // n``, at least 1."""
    return max(1, BLOCK_ELEMENTS // n)


def map_replicates(
    draw: Callable[[np.random.Generator, np.ndarray], None],
    kernel: Callable[[np.ndarray], np.ndarray],
    reps: int,
    n: int,
    seed: int,
    *,
    key_prefix: tuple[int, ...] = (),
) -> np.ndarray:
    """Row-wise ``kernel`` results for replicates 0..reps-1, in order.

    Replicate ``i`` is the length-``n`` row that ``draw(g, row)`` fills from
    ``g = substream(seed, *key_prefix, i)``. Rows are gathered into blocks
    (see :func:`block_rows`); ``kernel`` maps a ``(rows, n)`` block to one
    result per row, and the results are concatenated along the first axis.
    ``key_prefix`` namespaces the replicate streams so distinct consumers of
    the same seed never share a stream.
    """
    step = block_rows(n)
    parts = []
    for start in range(0, reps, step):
        xs = np.empty((min(step, reps - start), n))
        for i, row in enumerate(xs, start):
            draw(substream(seed, *key_prefix, i), row)
        parts.append(kernel(xs))
    return np.concatenate(parts)
