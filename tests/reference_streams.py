"""The replicate stream layout, written out independently of ``gjb.rng``.

A consumer of ``map_replicates`` derives one Philox key from
``SeedSequence(seed, spawn_key=key_prefix)``; replicate i of length n is row
``i % R`` of the chunk of ``R = max(1, 2**16 // n)`` rows that a fresh
``Philox(key=K, counter=[0, i // R, 0, 0])`` draws in one call.
"""

import numpy as np


def replicate_generator(seed, key_prefix, i, n):
    """``(g, rows, row)``: a fresh generator at the start of replicate i's
    chunk, the chunk's full row count R, and i's row in it."""
    rows = max(1, 2**16 // n)
    key = np.random.SeedSequence(seed, spawn_key=key_prefix).generate_state(2, np.uint64)
    g = np.random.Generator(np.random.Philox(key=key, counter=[0, i // rows, 0, 0]))
    return g, rows, i % rows


def sn_row(g, rows, row, n, delta):
    """Row ``row`` of a full-chunk SN draw: one ``(rows, 2n)`` normal draw,
    Z1 the first n values of each row and Z2 the next n."""
    z = g.standard_normal((rows, 2 * n))[row]
    return delta * np.abs(z[:n]) + np.sqrt(1.0 - delta * delta) * z[n:]
