"""Tests for the seeded substream machinery and the replicate loop."""

import numpy as np
import pytest

import gjb.rng
from gjb.rng import block_rows, map_replicates, substream, worker_count


def _normals(g, row):
    g.standard_normal(out=row)


def _identity(xs):
    return xs


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


def test_map_replicates_block_size_irrelevant(monkeypatch):
    def row_sums(xs):
        return xs.sum(axis=1)

    default = map_replicates(_normals, row_sums, 500, 4, seed=3)
    monkeypatch.setattr(gjb.rng, "BLOCK_ELEMENTS", 3)
    assert block_rows(4) == 1
    one_row = map_replicates(_normals, row_sums, 500, 4, seed=3)
    assert np.array_equal(default, one_row)


def test_map_replicates_key_prefix_namespaces():
    plain = map_replicates(_normals, _identity, 10, 1, seed=3)
    prefixed = map_replicates(_normals, _identity, 10, 1, seed=3, key_prefix=(1,))
    assert not np.array_equal(plain, prefixed)
    assert np.array_equal(prefixed[4], substream(3, 1, 4).standard_normal(1))


def test_worker_count_is_one(monkeypatch):
    monkeypatch.setenv("GJB_THREADS", "3")
    assert worker_count() == 1


@pytest.mark.parametrize("reps", [1, 5])
def test_map_replicates_order(reps, monkeypatch):
    monkeypatch.setattr(gjb.rng, "BLOCK_ELEMENTS", 6)  # two rows per block
    out = map_replicates(_normals, _identity, reps, 3, seed=0)
    expected = [substream(0, i).standard_normal(3) for i in range(reps)]
    assert np.array_equal(out, np.stack(expected))


@pytest.mark.parametrize("n", [1, 3, 1000, gjb.rng.BLOCK_ELEMENTS, 2 * gjb.rng.BLOCK_ELEMENTS])
def test_block_rows_bounds_block_elements(n):
    rows = block_rows(n)
    assert rows >= 1
    assert rows == 1 or rows * n <= gjb.rng.BLOCK_ELEMENTS < (rows + 1) * n
