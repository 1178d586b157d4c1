"""Tests for the seeded substream machinery and the replicate loop."""

import numpy as np
import pytest

import gjb.asymptotics
import gjb.distributions
import gjb.rng
import gjb.testing
from gjb.asymptotics import sigma_monte_carlo
from gjb.distributions import SkewNormalShape, sample_sn
from gjb.rng import chunk_rows, map_replicates, substream, worker_count
from gjb.testing import CampaignConfig, simulate_true_model

from reference_streams import replicate_generator


def _normals(g, rows):
    g.standard_normal(out=rows)


def _identity(xs):
    return xs


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

    monkeypatch.setattr(gjb.testing, "map_replicates", spy)
    monkeypatch.setattr(gjb.asymptotics, "map_replicates", spy)
    monkeypatch.setattr(gjb.distributions, "fill_sn", lambda g, out, d: seen.append(_key(g)))
    sample_sn(SkewNormalShape(1.0), 10, seed)
    simulate_true_model(CampaignConfig(alpha=1.0, sample_size=10, replications=3, seed=seed))
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
    # one row; every replicate is the same whichever block it falls in.
    blocks = []

    def row_sums(xs):
        blocks.append(len(xs))
        return xs.sum(axis=1)

    n = 2**14
    assert chunk_rows(n) == 4
    full = map_replicates(_normals, row_sums, 12, n, seed=3, key_prefix=(0,))
    assert blocks == [4, 4, 4]
    for reps, sizes in ((10, [4, 4, 2]), (5, [4, 1]), (1, [1])):
        blocks.clear()
        out = map_replicates(_normals, row_sums, reps, n, seed=3, key_prefix=(0,))
        assert blocks == sizes
        assert np.array_equal(out, full[:reps])
    assert full[9] == reference_replicate(3, (0,), 9, n).sum()


def test_map_replicates_key_prefix_namespaces():
    zero = map_replicates(_normals, _identity, 10, 1, seed=3, key_prefix=(0,))
    one = map_replicates(_normals, _identity, 10, 1, seed=3, key_prefix=(1,))
    assert not np.array_equal(zero, one)
    assert np.array_equal(one[4], reference_replicate(3, (1,), 4, 1))


def test_worker_count_is_one(monkeypatch):
    monkeypatch.setenv("GJB_THREADS", "3")
    assert worker_count() == 1


@pytest.mark.parametrize("reps", [1, 5, 4 * 2**16 + 3])
def test_map_replicates_order(reps):
    # n = 1: 2^16 rows per chunk. Small campaigns are checked row by row, the
    # long one (four full chunks and a short one) at the chunk seams.
    if reps <= 5:
        rows = list(range(reps))
    else:
        rows = [0, 2**16 - 1, 2**16, 3 * 2**16 + 1, 4 * 2**16, reps // 2, reps - 1]
    expected = np.stack([reference_replicate(0, (0,), i, 1) for i in rows])
    out = map_replicates(_normals, _identity, reps, 1, seed=0, key_prefix=(0,))
    assert out.shape == (reps, 1)
    assert np.array_equal(out[rows], expected)
