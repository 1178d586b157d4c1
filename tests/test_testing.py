"""Tests for the test statistic, campaigns, estimator, and decision protocol."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import numpy.polynomial.polynomial as P

import gjb.asymptotics
import gjb.rng
import gjb.testing
from gjb.asymptotics import (
    CovarianceMatrix2,
    chi2_survival,
    influence_polynomials,
    sigma_analytic,
    sigma_monte_carlo,
)
from gjb.distributions import SkewNormalShape, sample_sn
from gjb.errors import DegenerateSampleError, DomainError
from gjb.moments import shape_statistics, sn_raw_moments
from gjb.reference import REFERENCE_MEAN_PVALUES
from gjb.testing import (
    SKEWNESS_CLAMP,
    CampaignConfig,
    duplication_decision,
    empirical_shape,
    estimate_alpha,
    estimate_alpha_with_flag,
    gjb_statistic,
    rejection_size_search,
    run_test,
    simulate_alternative,
    simulate_true_model,
)

from allocation_probe import per_call_allocations
from reference_streams import replicate_generator, sn_row


def reference_campaign_p_values(config, alpha, data_alpha):
    """The per-replicate campaign loop that the blocked kernel replaced, each
    replicate drawn on its own from its chunk of the campaign stream."""
    shape = SkewNormalShape(alpha)
    raw = sn_raw_moments(shape)
    ab = shape_statistics(raw)
    sig = sigma_analytic(raw, legacy=config.legacy)
    n = config.sample_size
    ddof = 1 if config.legacy else 0
    d = 0.0 if data_alpha is None else SkewNormalShape(data_alpha).delta
    ps = []
    for i in range(config.replications):
        g, rows, row = replicate_generator(config.seed, (0,), i, n)
        if d == 0.0:
            x = g.standard_normal((rows, n))[row]
        else:
            x = sn_row(g, rows, row, n, d)
        dev = x - x.mean()
        v = float(dev @ dev) / (n - ddof)
        da = float((dev**4).mean()) / (v * v) - ab.kurtosis
        db = float((dev**3).mean()) / v**1.5 - ab.skewness
        quad = (sig.s22 * da * da + sig.s11 * db * db - 2 * sig.s12 * da * db) / sig.det
        ps.append(math.exp(-0.5 * n * quad))
    return np.array(ps)


def reference_bootstrap_indices(n, resamples, seed):
    """Resample i's indices, drawn on its own from its chunk of the
    bootstrap stream."""
    idx = []
    for i in range(resamples):
        g, rows, row = replicate_generator(seed, (1,), i, n)
        idx.append(g.integers(0, n, size=(rows, n))[row])
    return np.stack(idx)


def reference_bootstrap_alphas(x, resamples, seed):
    """The bootstrap that the blocked kernel replaced: all resamples at once
    (resample i indexed on its own from its chunk of the bootstrap stream),
    skewness by dev**3, and a 100-step vector bisection of the skewness map."""
    xs = x[reference_bootstrap_indices(x.size, resamples, seed)]
    dev = xs - xs.mean(axis=1, keepdims=True)
    mu2 = (dev**2).mean(axis=1)
    mu3 = (dev**3).mean(axis=1)
    b = np.zeros_like(mu2)
    np.divide(mu3, mu2**1.5, out=b, where=mu2 > 0.0)
    target = np.clip(b, -SKEWNESS_CLAMP, SKEWNESS_CLAMP)
    lo, hi = np.full_like(target, -1.0), np.ones_like(target)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        val = math.sqrt(2.0) * (4.0 - math.pi) * mid**3 / (math.pi - 2.0 * mid * mid) ** 1.5
        below = val < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    d = 0.5 * (lo + hi)
    return d / np.sqrt(1.0 - d * d)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "entry",
    [
        lambda x: run_test(x, 1.0),
        estimate_alpha,
        lambda x: duplication_decision(x, seed=0),
    ],
    ids=["run_test", "estimate_alpha", "duplication_decision"],
)
def test_non_finite_sample_rejected_at_entry(entry, bad):
    with pytest.raises(DomainError, match="sample has a non-finite value"):
        entry([1.0, 2.0, bad, 4.0])


# the most values numpy lets a float array hold (2^60 - 1 on 64 bits)
_MOST_VALUES = np.iinfo(np.intp).max // 8


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda x: duplication_decision(x, k_cap=0), "need k_cap >= 1, got 0"),
        (lambda x: duplication_decision(x, level=1.5), r"level must be in \(0, 1\), got 1.5"),
        (lambda x: duplication_decision(x, level=-1.0), r"level must be in \(0, 1\), got -1.0"),
        (lambda x: run_test(x, 0.0, level=1.5), r"level must be in \(0, 1\), got 1.5"),
        (lambda x: run_test(x, 0.0, level=0.0), r"level must be in \(0, 1\), got 0.0"),
        (lambda x: rejection_size_search(1.0, start=1), "need start >= 2, got 1"),
        (lambda x: sample_sn(SkewNormalShape(1.0), 10, seed=-1), "need seed >= 0, got -1"),
        (lambda x: sample_sn(SkewNormalShape(1.0), 2.5, seed=0), "need an integer n, got 2.5"),
        (lambda x: run_test(x, 1.0, sigma_route="monte-carlo", seed=-1),
         "need seed >= 0, got -1"),
        (lambda x: run_test(x, 1.0, sigma_route="exact"),
         r"sigma_route must be one of \('analytic', 'monte-carlo'\), got 'exact'"),
        (lambda x: run_test(x, 1.0, seed=-1), "need seed >= 0, got -1"),
        (lambda x: run_test(x, 1.0, seed=1.5), "need an integer seed, got 1.5"),
        (lambda x: CampaignConfig(10, 10, -1), "need seed >= 0, got -1"),
        (lambda x: CampaignConfig(10, 10, 1.5), "need an integer seed, got 1.5"),
        (lambda x: duplication_decision(x, seed=-1), "need seed >= 0, got -1"),
        (lambda x: duplication_decision(x, seed=1.5), "need an integer seed, got 1.5"),
        # from 10^4 values on decide draws nothing, and still checks the seed
        (lambda x: duplication_decision(np.tile(x, 400), seed=-1), "need seed >= 0, got -1"),
        (lambda x: duplication_decision(np.tile(x, 400), seed=1.5),
         "need an integer seed, got 1.5"),
        (lambda x: run_test(x, 1.0, duplication_factor=2.5),
         "need an integer duplication_factor, got 2.5"),
        (lambda x: CampaignConfig(10, 2.5, 0), "need an integer replications, got 2.5"),
        (lambda x: CampaignConfig(10.5, 10, 0), "need an integer sample_size, got 10.5"),
        (lambda x: duplication_decision(x, resamples=10.5),
         "need an integer resamples, got 10.5"),
        (lambda x: duplication_decision(x, k_cap=2.0), "need an integer k_cap, got 2.0"),
        (lambda x: rejection_size_search(1.0, start=10.0), "need an integer start, got 10.0"),
        (lambda x: rejection_size_search(1.0, reps=2.5), "need an integer reps, got 2.5"),
        (lambda x: sigma_monte_carlo(SkewNormalShape(1.0), 10.0, 100, 0),
         "need an integer reps, got 10.0"),
        (lambda x: sigma_monte_carlo(SkewNormalShape(1.0), 10, 100.5, 0),
         "need an integer per_rep_n, got 100.5"),
        (lambda x: rejection_size_search(6.0, cap=5), "need cap >= 10, got 5"),
        (lambda x: rejection_size_search(6.0, cap=math.nan), "need an integer cap, got nan"),
        (lambda x: rejection_size_search(6.0, cap=2.5e6), "need an integer cap, got 2500000.0"),
        (lambda x: rejection_size_search(6.0, cap=math.inf), "need an integer cap, got inf"),
        # k * J_n is inf at k = 10^308, and k is no float at all at 10^309
        (lambda x: run_test(x, 0.0, duplication_factor=10**308),
         rf"^duplication_factor must keep k \* J_n finite, got {10**308}$"),
        (lambda x: run_test(x, 0.0, duplication_factor=10**309),
         rf"^duplication_factor must keep k \* J_n finite, got {10**309}$"),
        # an n = 2 campaign draws nothing, and still checks its data shapes
        (lambda x: gjb.testing.simulate_campaigns(CampaignConfig(2, 10, 0), [1.0], [math.nan]),
         "^alpha must be finite, got nan$"),
        # counts that size a float array stop short of numpy's size limit
        (lambda x: sample_sn(SkewNormalShape(1.0), 2**62, 0),
         f"^need n <= {_MOST_VALUES // 2}, got {2**62}$"),
        (lambda x: CampaignConfig(10**20, 10, 0),
         f"^need sample_size <= {_MOST_VALUES // 2}, got {10**20}$"),
        (lambda x: CampaignConfig(10, 10**20, 0),
         f"^need replications <= {_MOST_VALUES}, got {10**20}$"),
        (lambda x: sigma_monte_carlo(SkewNormalShape(1.0), 10**20, 100, 0),
         f"^need reps <= {_MOST_VALUES // 3}, got {10**20}$"),
        (lambda x: sigma_monte_carlo(SkewNormalShape(1.0), 10, 10**20, 0),
         f"^need per_rep_n <= {_MOST_VALUES // 2}, got {10**20}$"),
        (lambda x: duplication_decision(x, resamples=10**20),
         f"^need resamples <= {_MOST_VALUES}, got {10**20}$"),
    ],
    ids=["k_cap", "decide-level-high", "decide-level-negative", "test-level-high",
         "test-level-zero", "start", "sample-seed", "sample-n-float", "test-mc-seed",
         "test-sigma-route", "test-seed", "test-seed-float", "campaign-seed",
         "campaign-seed-float", "decide-seed", "decide-seed-float", "decide-influence-seed",
         "decide-influence-seed-float", "duplication_factor-float",
         "replications-float", "sample_size-float", "resamples-float", "k_cap-float",
         "start-float", "search-reps-float", "mc-reps-float", "mc-per_rep_n-float",
         "cap-below-start", "cap-nan", "cap-float", "cap-inf",
         "duplication_factor-1e308", "duplication_factor-1e309", "campaign-n2-data-alpha-nan",
         "sample-n-oversize", "sample_size-oversize", "replications-oversize",
         "mc-reps-oversize", "mc-per_rep_n-oversize", "resamples-oversize"],
)
def test_bad_argument_named_at_entry(call, message):
    with pytest.raises(DomainError, match=message):
        call(sample_sn(SkewNormalShape(6.0), 50, seed=1))


@pytest.mark.parametrize(
    "entry,n",
    [
        (lambda x: duplication_decision(x, seed=0), 200),
        (lambda x: duplication_decision(x, seed=0), 20_000),
        (lambda x: run_test(x, 1.0), 200),
        (estimate_alpha, 200),
        (empirical_shape, 200),
    ],
    ids=["decide-bootstrap", "decide-influence", "run_test", "estimate_alpha",
         "empirical_shape"],
)
def test_column_vector_reads_as_flat(entry, n):
    # a sample of shape (n, 1) is its n values; centred along the length-1
    # axis instead, every value would be 0
    x = sample_sn(SkewNormalShape(6.0), n, seed=1)
    assert entry(x.reshape(-1, 1)) == entry(x)


def test_numpy_integer_counts_accepted():
    x = sample_sn(SkewNormalShape(6.0), 50, seed=np.int64(1))
    assert run_test(x, 1.0, duplication_factor=np.int64(2)) == run_test(x, 1.0, duplication_factor=2)
    config = CampaignConfig(np.int32(10), np.int64(20), np.uint8(3))
    assert np.array_equal(simulate_alternative(config, 1.0), simulate_alternative(
        CampaignConfig(10, 20, 3), 1.0))
    decision = duplication_decision(x, k_cap=np.int64(5), seed=np.int64(2), resamples=np.int16(50))
    assert decision == duplication_decision(x, k_cap=5, seed=2, resamples=50)


def test_count_bound_is_the_array_limit_and_spares_seeds():
    gjb.rng._check_count("n", _MOST_VALUES // 2, 1, width=2)
    with pytest.raises(DomainError, match=f"^need n <= {_MOST_VALUES // 2}, got"):
        gjb.rng._check_count("n", np.uint64(_MOST_VALUES // 2 + 1), 1, width=2)
    assert CampaignConfig(10, 10, 10**41).seed == 10**41


def same_bits(a, b):
    """Equal arrays, signed zeros told apart; NaNs match any NaN."""
    nan = np.isnan(b)
    return (
        a.shape == b.shape
        and np.array_equal(np.isnan(a), nan)
        and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64))
    )


# a value of magnitude 1e-300..1e300 and either sign, or a signed zero;
# values of like magnitude, where the order of the additions shows, too
_WIDE = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda e, sign: sign * 10.0**e, st.floats(-300.0, 300.0),
              st.sampled_from([1.0, -1.0])),
    st.floats(-10.0, 10.0),
)


def left_to_right_sums(x):
    """Row sums of a 2-d array by a Python float loop started at 0.0."""
    sums = []
    for row in x.tolist():
        s = 0.0
        for v in row:
            s += v
        sums.append(s)
    return np.array(sums)


@pytest.mark.parametrize("n", [3, 15, 16, 17])
def test_sample_block_is_a_view_of_a_chunk_prefix(n):
    """A last chunk's ``(r, n)`` block views the first r n values of its
    lane buffer, column-major below 16 values a row and row-major above."""
    buf = np.arange(7.0 * n).reshape(7, n)
    block = gjb.testing._sample_block(buf[:4], 4, n)
    assert block.shape == (4, n) and np.shares_memory(block, buf)
    column_major = n < gjb.testing._COLUMN_SUM_BELOW
    assert block.flags.f_contiguous if column_major else block.flags.c_contiguous
    flat = buf.reshape(-1)[: 4 * n]
    assert np.array_equal(block, flat.reshape(n, 4).T if column_major else flat.reshape(4, n))


class TestRowSums:
    """``_row_sums`` adds a row shorter than ``_COLUMN_SUM_BELOW`` values left
    to right from 0.0, bit for bit, and hands longer rows to numpy's own row
    reduction; checked for every loop length and the first numpy one, on
    each layout a block can come in."""

    LENGTHS = range(1, gjb.testing._COLUMN_SUM_BELOW + 1)

    @staticmethod
    def layouts(x):
        """``x`` row-major; column-major; as the first rows of a taller
        column-major block, whose column stride exceeds their count (a last
        chunk); and each row alone, as a one-row column-major block and as
        a one-row slice of the taller one."""
        rows, n = x.shape
        tall = np.zeros((rows + 3, n), order="F")
        tall[:rows] = x
        yield from (x, np.asfortranarray(x), tall[:rows])
        for i in range(rows):
            yield x[i].copy().reshape(n, 1).T
            yield tall[i : i + 1]

    def check(self, x):
        for block in self.layouts(x):
            with np.errstate(over="ignore", invalid="ignore"):
                sums = gjb.testing._row_sums(block)
                if x.shape[1] < gjb.testing._COLUMN_SUM_BELOW:
                    assert same_bits(sums, left_to_right_sums(block))
                else:
                    assert same_bits(sums, np.add.reduce(block, axis=1))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.sampled_from(LENGTHS), rows=st.integers(1, 5))
    def test_matches_numpy_on_wide_values(self, data, n, rows):
        values = data.draw(st.lists(_WIDE, min_size=rows * n, max_size=rows * n))
        self.check(np.array(values).reshape(rows, n))

    @pytest.mark.parametrize("n", LENGTHS)
    def test_matches_numpy_on_special_rows(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal((12, n))
        x[6:9] *= 10.0 ** rng.integers(-300, 300, size=(3, n))
        x[0] = -0.0  # both sums start from +0.0
        x[1] = 0.0
        x[2, ::2], x[2, 1::2] = 0.5, -0.5  # cancels exactly, or leaves 0.5
        x[3] = 1e300  # overflows from 2 values on
        x[4, 0], x[4, -1] = np.inf, -np.inf  # nan, or -inf at n = 1
        x[5] = 0.1  # rounding in every partial sum
        self.check(x)

    def test_threshold_is_where_numpy_takes_over(self):
        # table 1's rows (n = 2 and 10) take the loop, and rows past numpy's
        # one-block length keep its pairwise sum, whose error bound grows as
        # log2 n rather than n
        assert 10 < gjb.testing._COLUMN_SUM_BELOW <= 128


class TestEmpiricalShape:
    def test_hand_example(self):
        # mu2 = 2/3, mu3 = 0, mu4 = 2/3 -> a_n = 1.5, b_n = 0
        a_n, b_n = empirical_shape([-1.0, 0.0, 1.0])
        assert a_n == pytest.approx(1.5, rel=1e-15)
        assert b_n == 0.0

    def test_hand_example_unbiased_scaling(self):
        # legacy=True: variance scale 1 instead of 2/3
        a_n, b_n = empirical_shape([-1.0, 0.0, 1.0], legacy=True)
        assert a_n == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert b_n == 0.0

    def test_ddof_keyword_gone(self):
        # legacy is the one conventions switch, so no denominator offset
        # outside {0, 1} (a kurtosis of 0.167 here at 2, nan at 5) is reachable
        with pytest.raises(TypeError, match="ddof"):
            empirical_shape([1.0, 2.0, 4.0], ddof=1)

    @pytest.mark.parametrize(
        "make,expected",
        [
            (lambda: [1.0, 2.0, 4.0], ("0x1.5555555555555p-1", "0x1.a9a0f8fcb0eb2p-3")),
            (lambda: sample_sn(SkewNormalShape(2.0), 50, seed=9),
             ("0x1.5fefa110bbccdp+1", "0x1.741beb3677df4p-3")),
            (lambda: 1e-200 * sample_sn(SkewNormalShape(-3.0), 1000, seed=2) + 5e-199,
             ("0x1.b40f300648f99p+1", "-0x1.543ba06b5aeecp-1")),
        ],
        ids=["integers", "sn2-n50", "sn-3-tiny-offset"],
    )
    def test_legacy_values_pinned(self, make, expected):
        # the values the unbiased-variance convention gave when it was
        # spelled ddof=1, bit for bit
        assert empirical_shape(make(), legacy=True) == tuple(map(float.fromhex, expected))

    @settings(max_examples=60, deadline=None)
    @given(
        scale=st.floats(0.01, 100.0),
        shift=st.floats(-50.0, 50.0),
    )
    def test_affine_invariance(self, scale, shift):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(64)
        base = empirical_shape(x)
        moved = empirical_shape(scale * x + shift)
        assert moved[0] == pytest.approx(base[0], rel=1e-9, abs=1e-9)
        assert moved[1] == pytest.approx(base[1], rel=1e-9, abs=1e-9)

    def test_duplication_invariance(self):
        x = sample_sn(SkewNormalShape(2.0), 40, seed=9)
        base = empirical_shape(x)
        doubled = empirical_shape(np.tile(x, 2))
        assert doubled[0] == pytest.approx(base[0], rel=1e-12)
        assert doubled[1] == pytest.approx(base[1], rel=1e-12)

    def test_degenerate_value_at_n_two(self):
        # with nonzero spread, (a_n, b_n) = (1, 0) for any two points
        a_n, b_n = empirical_shape([3.0, 7.0])
        assert a_n == pytest.approx(1.0, rel=1e-15)
        assert b_n == 0.0

    @pytest.mark.parametrize("legacy,kurtosis", [(False, 1.5), (True, 2.0 / 3.0)])
    @settings(max_examples=100, deadline=None)
    @given(
        x1=st.floats(-1.0, 1.0),
        x2=st.floats(-1.0, 1.0),
        scale=st.floats(1e-3, 1e3),
        offset=st.floats(-100.0, 100.0),
    )
    def test_any_three_values_have_one_kurtosis(self, legacy, kurtosis, x1, x2, scale, offset):
        # centred, the values are x1, x2, x3 = -x1 - x2, and then
        # sum x^4 = 2 (x1^2 + x1 x2 + x2^2)^2 = (sum x^2)^2 / 2: a_n is 3/2,
        # or 2/3 under legacy, whatever the sample, and only b_n sees the data
        assume(max(abs(x1), abs(x2)) >= 0.1)  # spread >= 0.1
        sample = scale * (np.array([x1, x2, -x1 - x2]) + offset)
        a_n, _ = empirical_shape(sample, legacy=legacy)
        assert a_n == pytest.approx(kurtosis, rel=1e-9)

    @pytest.mark.parametrize("legacy,kurtosis", [(False, 1.0), (True, 0.25)])
    @settings(max_examples=100, deadline=None)
    @given(
        x1=st.floats(-1.0, 1.0),
        x2=st.floats(-1.0, 1.0),
        exponent=st.floats(-100.0, 100.0),
        offset=st.floats(-1e8, 1e8),
    )
    @example(x1=0.0, x2=1.0, exponent=0.0, offset=0.0)
    @example(x1=-1.0, x2=1.0, exponent=0.0, offset=0.0)
    def test_any_two_values_have_one_shape(self, legacy, kurtosis, x1, x2, exponent, offset):
        # any two distinct values are their mean -+ d: a_n is 1, or 1/4
        # under legacy, and b_n is 0, whatever the sample; table 1's n = 2
        # row rests on this
        assume(abs(x1 - x2) >= 0.1)
        sample = 10.0**exponent * (np.array([x1, x2]) + offset)
        a_n, b_n = empirical_shape(sample, legacy=legacy)
        assert a_n == pytest.approx(kurtosis, rel=1e-12)
        assert abs(b_n) <= 1e-12

    def test_constant_sample_rejected(self):
        with pytest.raises(DegenerateSampleError):
            empirical_shape([2.0, 2.0, 2.0])

    @pytest.mark.parametrize("value,n", [(0.1, 3), (0.7, 3), (0.1, 7), (0.7, 7)])
    def test_constant_sample_rejected_whatever_its_mean_rounds_to(self, value, n):
        # the float mean of these samples misses their value by an ulp
        with pytest.raises(DegenerateSampleError):
            empirical_shape([value] * n)

    def test_too_small_rejected(self):
        with pytest.raises(DegenerateSampleError):
            empirical_shape([1.0])


class TestStatistic:
    def test_zero_at_null(self):
        sig = CovarianceMatrix2(24.0, 6.0, 0.0)
        assert gjb_statistic(3.0, 0.0, 3.0, 0.0, sig, 500) == 0.0

    def test_diagonal_hand_value(self):
        sig = CovarianceMatrix2(24.0, 6.0, 0.0)
        j = gjb_statistic(3.6, 0.3, 3.0, 0.0, sig, 100)
        assert j == pytest.approx(3.0, rel=1e-13)

    def test_diagonal_reduces_to_weighted_sum(self):
        sig = CovarianceMatrix2(30.0, 7.0, 0.0)
        da, db, n = 0.41, -0.17, 350
        j = gjb_statistic(3.0 + da, db, 3.0, 0.0, sig, n)
        expected = n * (da * da / sig.s11 + db * db / sig.s22)
        assert j == pytest.approx(expected, rel=1e-12)


class TestRunTest:
    def test_duplication_scaling_exact(self):
        x = sample_sn(SkewNormalShape(1.0), 25, seed=3)
        base = run_test(x, 1.0)
        for k in (2, 3, 7):
            dup = run_test(x, 1.0, duplication_factor=k)
            assert dup.j_n == k * base.j_n  # bitwise
            assert dup.n == k * base.n
            assert dup.p_value <= base.p_value

    def test_duplication_equals_literal_concatenation(self):
        x = sample_sn(SkewNormalShape(0.5), 30, seed=8)
        via_factor = run_test(x, 0.5, duplication_factor=2)
        literal = run_test(np.tile(x, 2), 0.5)
        assert literal.j_n == pytest.approx(via_factor.j_n, rel=1e-12)
        assert literal.n == via_factor.n

    def test_affine_invariance(self):
        x = sample_sn(SkewNormalShape(1.0), 200, seed=12)
        base = run_test(x, 1.0)
        moved = run_test(3.7 * x + 11.0, 1.0)
        assert moved.j_n == pytest.approx(base.j_n, abs=1e-10, rel=1e-10)
        assert moved.p_value == pytest.approx(base.p_value, abs=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(exponent=st.floats(-150.0, 150.0), offset=st.floats(-1e6, 1e6))
    @example(exponent=-170.0, offset=0.0)
    def test_affine_invariance_at_any_scale(self, exponent, offset):
        # rescaling is exact at any finite scale; the sample is centred once,
        # so an offset t costs only the rounding of the input itself. Worst
        # drift over 60000 random scales and offsets: 5.5e-10 on J_n, 2.4e-10
        # on estimate_alpha
        x = sample_sn(SkewNormalShape(1.0), 1000, seed=0)
        s = 10.0**exponent
        y = s * x + offset * s
        assert run_test(y, 1.0).j_n == pytest.approx(run_test(x, 1.0).j_n, rel=1e-7)
        assert estimate_alpha(y) == pytest.approx(estimate_alpha(x), rel=2e-9)

    def test_true_model_typically_accepts(self):
        x = sample_sn(SkewNormalShape(1.0), 10_000, seed=17)
        out = run_test(x, 1.0)
        assert out.p_value > 0.05
        assert out.verdict == "accept"

    def test_p_value_matches_chi2_survival(self):
        from gjb.asymptotics import chi2_survival

        x = sample_sn(SkewNormalShape(2.0), 100, seed=4)
        out = run_test(x, 2.0)
        assert out.p_value == chi2_survival(out.j_n)
        assert out.j_n >= 0.0

    def test_empty_sample_rejected(self):
        with pytest.raises(DegenerateSampleError):
            run_test([], 1.0)

    def test_bad_duplication_rejected(self):
        with pytest.raises(DomainError):
            run_test([1.0, 2.0, 3.0], 1.0, duplication_factor=0)

    def test_shape_past_square_overflow_is_the_saturated_law(self):
        # delta is exactly 1 from |alpha| ~ 1.4e8 on; past alpha^2 -> inf
        # neither sampling nor the test may fall back to the normal law
        x = sample_sn(SkewNormalShape(1e200), 500, seed=2)
        assert np.array_equal(x, sample_sn(SkewNormalShape(1e100), 500, seed=2))
        # every field but the recorded alpha is compared
        assert dataclasses.replace(run_test(x, 1e200), alpha=1e100) == run_test(x, 1e100)

    def test_sigma_routes_agree(self):
        x = sample_sn(SkewNormalShape(1.0), 2_000, seed=6)
        analytic = run_test(x, 1.0, sigma_route="analytic")
        mc = run_test(x, 1.0, sigma_route="monte-carlo", seed=0)
        assert mc.j_n == pytest.approx(analytic.j_n, rel=0.03)


class TestCampaigns:
    def test_deterministic(self):
        config = CampaignConfig(sample_size=10, replications=200, seed=5)
        r1 = simulate_true_model(config, 1.0)
        r2 = simulate_true_model(config, 1.0)
        assert np.array_equal(r1, r2)

    def test_alternative_equal_to_true_model_when_laws_match(self):
        config = CampaignConfig(sample_size=20, replications=150, seed=2)
        same = simulate_alternative(config, 1.0, data_alpha=1.0)
        true = simulate_true_model(config, 1.0)
        assert np.array_equal(same, true)

    def test_true_model_mean_p_is_high(self):
        config = CampaignConfig(sample_size=50, replications=400, seed=3)
        assert float(simulate_true_model(config, 1.0).mean()) > 0.4

    def test_power_example_alpha_six(self):
        # hypothesis SN(6) vs standard normal data at the reference size
        config = CampaignConfig(sample_size=130, replications=300, seed=7)
        assert float(simulate_alternative(config, 6.0).mean()) < 0.05

    def test_power_example_alpha_one_point_five(self):
        config = CampaignConfig(sample_size=750, replications=300, seed=7)
        assert float(simulate_alternative(config, 1.5).mean()) < 0.05

    @pytest.mark.parametrize(
        "alpha,size,legacy,data_alpha",
        [
            (1.0, 10, True, 1.0),
            (6.0, 2, True, 6.0),
            (1.5, 50, False, None),
            (0.0, 7, False, 0.0),
            (1.0, 700, False, 1.0),  # four chunks of 93 rows, the last one short
        ],
    )
    def test_matches_per_replicate_reference(self, alpha, size, legacy, data_alpha):
        config = CampaignConfig(sample_size=size, replications=300, seed=11, legacy=legacy)
        ps = simulate_alternative(config, alpha, data_alpha=data_alpha)
        ref = reference_campaign_p_values(config, alpha, data_alpha)
        assert np.max(np.abs(ps - ref)) <= 1e-12

    def test_block_size_irrelevant(self):
        # n = 2000: 32 rows per chunk, one chunk per kernel call. 200
        # replicates end on a short block of 8 rows, 224 on a full one and 33
        # on one row; each replicate's p-value is the same in all three.
        def p_values(reps):
            config = CampaignConfig(sample_size=2000, replications=reps, seed=5)
            return simulate_true_model(config, 1.0)

        assert gjb.rng.chunk_rows(2000) == 32
        full = p_values(224)
        assert np.array_equal(p_values(200), full[:200])
        assert np.array_equal(p_values(33), full[:33])

    @pytest.mark.parametrize("data_alpha", [None, 1.0])
    def test_replicates_independent_of_replicate_count(self, data_alpha):
        # the first rows of a short campaign are those of a longer one whose
        # first chunk is full and whose second is drawn short
        n = 10
        long_reps = gjb.rng.chunk_rows(n) + 3
        short, long = (
            simulate_alternative(
                CampaignConfig(sample_size=n, replications=reps, seed=4),
                1.0,
                data_alpha=data_alpha,
            )
            for reps in (5, long_reps)
        )
        assert np.array_equal(short, long[:5])

    def test_draw_called_once_per_chunk(self, monkeypatch):
        # guards the speed-up: samples are drawn one stream chunk per call,
        # not one replicate per call
        calls = []
        real = gjb.testing.map_replicates

        def spy(draw, kernel, reps, n, seed, **kwargs):
            def counted(g, rows):
                calls.append(len(rows))
                draw(g, rows)

            return real(counted, kernel, reps, n, seed, **kwargs)

        monkeypatch.setattr(gjb.testing, "map_replicates", spy)
        reps, n = 1000, 10
        simulate_true_model(CampaignConfig(sample_size=n, replications=reps, seed=0), 1.0)
        assert len(calls) <= math.ceil(reps / gjb.rng.chunk_rows(n))
        assert sum(calls) == reps

    def test_constant_replicate_rejected(self, monkeypatch):
        monkeypatch.setattr(
            gjb.testing, "sn_from_normals", lambda z1, z2, d, out, scratch: out.fill(1.0)
        )
        config = CampaignConfig(sample_size=10, replications=5, seed=0)
        with pytest.raises(DegenerateSampleError):
            simulate_true_model(config, 1.0)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            CampaignConfig(sample_size=1, replications=10, seed=0)
        with pytest.raises(DomainError):
            CampaignConfig(sample_size=10, replications=0, seed=0)
        with pytest.raises(DomainError):
            CampaignConfig(sample_size=10, replications=10, seed=0, sigma_route="exact")


class TestSimulateCampaigns:
    """The shapes of one config share one pass over the stream."""

    ALPHAS = (0.1, 1.0, 6.0, -2.5, 1.5)
    DATA_ALPHAS = (0.1, 1.0, None, -2.5, 0.0)  # SN and standard normal data

    def config(self, n, reps, *, legacy=False):
        return CampaignConfig(sample_size=n, replications=reps, seed=3, legacy=legacy)

    @pytest.mark.parametrize("lanes", [1, 2, 3])
    @pytest.mark.parametrize("legacy", [False, True])
    def test_rows_are_one_shape_calls(self, lanes, legacy, monkeypatch):
        # n = 10, 20000 replicates: four chunks of 6553 rows, the last short;
        # every shape reads the chunk's normals after the others have built
        # and reduced their samples from them
        monkeypatch.setattr(gjb.rng, "worker_count", lambda: lanes)
        config = self.config(10, 20_000, legacy=legacy)
        assert -(-20_000 // gjb.rng.chunk_rows(10)) == 4
        rows = gjb.testing.simulate_campaigns(config, self.ALPHAS, self.DATA_ALPHAS)
        assert rows.shape == (len(self.ALPHAS), 20_000)
        for row, alpha, data_alpha in zip(rows, self.ALPHAS, self.DATA_ALPHAS):
            assert np.array_equal(row, simulate_alternative(config, alpha, data_alpha))

    @pytest.mark.parametrize("legacy", [False, True])
    def test_rows_match_numpy_row_reductions(self, legacy):
        # n = 10, 2000 replicates: one chunk, from which the 5 shapes build
        # and reduce their samples in turn; each row is what left-to-right
        # row sums give on that shape's samples alone
        n, reps = 10, 2000
        config = self.config(n, reps, legacy=legacy)
        rows = gjb.testing.simulate_campaigns(config, self.ALPHAS, self.DATA_ALPHAS)
        z = replicate_generator(3, (0,), 0, n)[0].standard_normal((reps, 2 * n))
        for row, alpha, data_alpha in zip(rows, self.ALPHAS, self.DATA_ALPHAS):
            d = 0.0 if data_alpha is None else SkewNormalShape(data_alpha).delta
            if d == 0.0:
                x = z.reshape(-1)[: reps * n].reshape(reps, n)
            else:
                x = d * np.abs(z[:, :n]) + math.sqrt(1.0 - d * d) * z[:, n:]
            dev = x - (left_to_right_sums(x) / n)[:, None]
            d2 = dev * dev
            v = left_to_right_sums(d2) / (n - 1 if legacy else n)
            a_n = left_to_right_sums(d2 * d2) / n / (v * v)
            b_n = left_to_right_sums(d2 * dev) / n / v**1.5
            raw = sn_raw_moments(SkewNormalShape(alpha))
            ab = shape_statistics(raw)
            sigma = sigma_analytic(raw, legacy=legacy)
            j = gjb_statistic(a_n, b_n, ab.kurtosis, ab.skewness, sigma, n)
            assert np.array_equal(row, np.exp(-0.5 * j))

    @pytest.mark.parametrize("legacy", [False, True])
    def test_two_value_samples_match_the_closed_form(self, legacy):
        # any two distinct values have (a_n, b_n) = (1, 0), or (1/4, 0) under
        # legacy, so every replicate p of table 1's n = 2 row is known in
        # closed form
        alphas = sorted({alpha for _, alpha in REFERENCE_MEAN_PVALUES})
        assert len(alphas) == 6
        config = CampaignConfig(sample_size=2, replications=2000, seed=0, legacy=legacy)
        rows = gjb.testing.simulate_campaigns(config, alphas, alphas)
        assert rows.shape == (6, 2000) and rows.flags.c_contiguous
        a_n = 0.25 if legacy else 1.0
        for row, alpha in zip(rows, alphas):
            raw = sn_raw_moments(SkewNormalShape(alpha))
            ab = shape_statistics(raw)
            sigma = sigma_analytic(raw, legacy=legacy)
            p = chi2_survival(gjb_statistic(a_n, 0.0, ab.kurtosis, ab.skewness, sigma, 2))
            assert np.array_equal(row, np.full(2000, p))

    def test_two_value_campaigns_draw_nothing(self, monkeypatch):
        # the rows are the same whatever the seed and the data law, and no
        # replicate is drawn
        def no_draw(*args, **kwargs):
            raise AssertionError("an n = 2 campaign drew replicates")

        monkeypatch.setattr(gjb.testing, "map_replicates", no_draw)
        alphas = [1.0, 6.0, -2.5]
        rows = [
            gjb.testing.simulate_campaigns(CampaignConfig(2, 300, seed), alphas, [data] * 3)
            for seed in (0, 1) for data in (None, 6.0)
        ]
        assert all(np.array_equal(row, rows[0]) for row in rows[1:])

    def test_normal_data_only(self):
        # no SN data: the chunk holds n normals per replicate, read in place
        config = self.config(40, 500)
        rows = gjb.testing.simulate_campaigns(config, [1.0, 6.0], [None, 0.0])
        for row, alpha in zip(rows, (1.0, 6.0)):
            assert np.array_equal(row, simulate_alternative(config, alpha))
            assert np.max(np.abs(row - reference_campaign_p_values(config, alpha, None))) <= 1e-12

    @pytest.mark.parametrize("index", [0, 1, 3])
    def test_constant_replicate_in_any_shape(self, index, monkeypatch):
        # the error of a one-shape campaign, whichever shape meets it
        real = gjb.testing.sn_from_normals
        target = SkewNormalShape(self.DATA_ALPHAS[index]).delta

        def constant_for_target(z1, z2, d, out, scratch):
            real(z1, z2, d, out, scratch)
            if d == target:
                out[-1] = 1.0

        monkeypatch.setattr(gjb.testing, "sn_from_normals", constant_for_target)
        with pytest.raises(
            DegenerateSampleError, match=r"^a replicate sample is constant \(zero variance\)$"
        ):
            gjb.testing.simulate_campaigns(self.config(10, 50), self.ALPHAS, self.DATA_ALPHAS)

    def test_empty_rejected(self):
        with pytest.raises(DomainError, match="^need at least one alpha$"):
            gjb.testing.simulate_campaigns(self.config(10, 50), [], [])

    def test_one_data_alpha_per_config(self):
        with pytest.raises(DomainError, match="^need one data_alpha per alpha, got 1 for 5$"):
            gjb.testing.simulate_campaigns(self.config(10, 50), self.ALPHAS, [1.0])

    def test_draw_allocates_no_chunk_temporaries(self, monkeypatch):
        # each lane draws a chunk's normals into a (R, 2n) array of its own
        # and builds every shape's samples in its own rows, so a draw
        # allocates nothing of the chunk's size
        n = 1000
        chunk_bytes = gjb.rng.chunk_rows(n) * n * 8
        config = self.config(n, 200)
        extra = per_call_allocations(
            monkeypatch,
            gjb.testing,
            lambda: gjb.testing.simulate_campaigns(config, [1.0, 6.0], [1.0, 6.0]),
        )
        assert len(extra["draw"]) == len(extra["kernel"]) == 4
        assert max(extra["draw"]) < 0.5 * chunk_bytes
        assert max(extra["kernel"]) < 0.5 * chunk_bytes

    def test_lane_memory_does_not_grow_with_the_shape_count(self, monkeypatch):
        # one lane, one chunk of 1000 rows of 10: the shapes take turns in the
        # lane's one sample block and its scratch, so K shapes peak above one
        # shape by less than 3 K reps doubles (the shapes' statistics, their
        # p-values and one temporary of that size), not by K more blocks; and
        # as the normals are copied once into the lane's two scratch blocks
        # and the row buffer then holds the sample block and its scratch, the
        # call peaks below those three arrays plus 3 K reps doubles
        monkeypatch.setattr(gjb.rng, "worker_count", lambda: 1)
        n, reps, alphas = 10, 1000, (0.1, 1.0, 1.5, 3.0, 6.0, 10.0)
        config = CampaignConfig(sample_size=n, replications=reps, seed=0)

        def peak(k):
            gjb.testing.simulate_campaigns(config, alphas[:k], alphas[:k])  # warm
            tracemalloc.start()
            try:
                gjb.testing.simulate_campaigns(config, alphas[:k], alphas[:k])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        k, rows = len(alphas), min(gjb.rng.chunk_rows(n), reps)
        assert peak(k) - peak(1) < 3 * k * reps * 8
        assert peak(k) < (rows * 2 * n + 2 * rows * n + 3 * k * reps) * 8


class TestNullLaws:
    @pytest.mark.parametrize("legacy", [False, True])
    @settings(max_examples=60, deadline=None)
    @given(alphas=st.lists(st.floats(-300.0, 300.0), min_size=1, max_size=12))
    @example(alphas=[0.0, 1e-8, -1e-8, 0.1, 240.0, 1e8, 1e200])
    def test_array_path_matches_per_shape(self, legacy, alphas):
        # one pass over the shapes gives each shape's own law: bit for bit
        # the one-shape pass, and within 1e-13 the scalar entry points; s12
        # is measured against sqrt(s11 s22), since it vanishes at alpha = 0
        laws = gjb.testing._null_laws(alphas, "analytic", 0, legacy=legacy)
        assert len(laws) == len(alphas)
        for alpha, (a, b, sigma) in zip(alphas, laws):
            raw = sn_raw_moments(SkewNormalShape(alpha))
            one = shape_statistics(raw)
            ref = sigma_analytic(raw, legacy=legacy)
            assert gjb.testing._null_laws([alpha], "analytic", 0, legacy=legacy) == [(a, b, sigma)]
            assert a == pytest.approx(one.kurtosis, rel=1e-13)
            assert b == pytest.approx(one.skewness, rel=1e-13)
            assert sigma.s11 == pytest.approx(ref.s11, rel=1e-13)
            assert sigma.s22 == pytest.approx(ref.s22, rel=1e-13)
            assert abs(sigma.s12 - ref.s12) <= 1e-13 * math.sqrt(ref.s11 * ref.s22)
            assert type(a) is type(b) is type(sigma.s11) is float

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_alpha_rejected(self, bad):
        with pytest.raises(DomainError, match="^alpha must be finite"):
            gjb.testing._null_laws([1.0, bad, 6.0], "analytic", 0, legacy=False)
        with pytest.raises(DomainError, match="^alpha must be finite"):
            gjb.testing._null_laws(np.array([0.5, bad]), "analytic", 0, legacy=True)

    def test_monte_carlo_route_is_per_shape(self, monkeypatch):
        # each shape's covariance is estimated on its own, from the seed
        calls = []
        monkeypatch.setattr(gjb.testing, "_MC_BUDGET", (50, 40))
        real = gjb.testing.sigma_monte_carlo

        def recorded(shape, *args, **kwargs):
            calls.append(shape.alpha)
            return real(shape, *args, **kwargs)

        monkeypatch.setattr(gjb.testing, "sigma_monte_carlo", recorded)
        laws = gjb.testing._null_laws([1.0, 6.0], "monte-carlo", 3, legacy=True)
        assert calls == [1.0, 6.0]
        for alpha, (_, _, sigma) in zip((1.0, 6.0), laws):
            assert sigma == real(SkewNormalShape(alpha), 50, 40, 3, legacy=True)


class TestRejectionSizeSearch:
    def test_alpha_six_lands_near_reference(self):
        result = rejection_size_search(6.0, 0.05, seed=1, reps=200)
        assert not result.capped
        assert 65 <= result.n <= 260  # within a factor 2 of 130
        assert result.trace[-1][1] < 0.05

    def test_cap_reported_not_raised(self):
        result = rejection_size_search(0.15, 0.05, seed=1, cap=100, reps=100)
        assert result.capped
        assert result.n is None
        assert len(result.trace) >= 1

    def test_zero_alpha_rejected(self):
        with pytest.raises(DomainError):
            rejection_size_search(0.0, 0.05, seed=1)

    def test_bad_level_rejected(self):
        with pytest.raises(DomainError):
            rejection_size_search(1.0, 1.5, seed=1)

    @pytest.mark.parametrize("reps", [1000, 5000])
    def test_mean_is_exact_when_every_p_is_equal(self, reps):
        # every replicate of an n = 2 campaign has the same p, which the
        # trace reports exactly, not a pairwise mean a few ulps off it
        [p] = set(simulate_alternative(CampaignConfig(2, reps, 0), 6.0).tolist())
        result = rejection_size_search(6.0, seed=0, cap=2, reps=reps, start=2)
        assert result.trace == [(2, p)]


class TestEstimateAlpha:
    def test_consistency_large_sample(self):
        x = sample_sn(SkewNormalShape(1.0), 100_000, seed=13)
        assert abs(estimate_alpha(x) - 1.0) < 0.15

    def test_symmetric_sample_gives_zero(self):
        assert estimate_alpha([-2.0, -1.0, 1.0, 2.0]) == pytest.approx(0.0, abs=1e-9)

    def test_clamped_beyond_attainable_range(self):
        rng = np.random.default_rng(3)
        x = rng.standard_exponential(2_000)  # skewness ~ 2, outside the family
        alpha_hat, clamped = estimate_alpha_with_flag(x)
        assert clamped
        assert math.isfinite(alpha_hat)
        assert alpha_hat > 50.0

    def test_sign_equivariance(self):
        x = sample_sn(SkewNormalShape(2.0), 5_000, seed=21)
        assert estimate_alpha(-x) == pytest.approx(-estimate_alpha(x), abs=1e-10)

    def test_clamp_constant(self):
        from gjb.moments import SKEWNESS_SUP

        assert SKEWNESS_CLAMP < SKEWNESS_SUP

    def test_too_small_rejected(self):
        with pytest.raises(DegenerateSampleError):
            estimate_alpha([1.0, 2.0])


class TestDuplicationDecision:
    def test_strongly_skewed_sample_rejected(self):
        x = sample_sn(SkewNormalShape(6.0), 50, seed=1)
        outcome = duplication_decision(x, seed=0)
        assert outcome.verdict == "reject-normality"
        assert outcome.duplication_factor * 50 >= 100
        assert outcome.test.p_value < 0.05

    @pytest.mark.parametrize(
        "alpha,n,seed",
        # rejected with 1 to 6 copies on either side, and accepted
        [(6.0, 50, 1), (-3.0, 200, 9), (2.0, 300, 5), (1.0, 2000, 8),
         (-6.0, 50, 3), (0.0, 50, 4), (-1.0, 2000, 7),
         # bounded by the influence interval
         (1.0, 20_000, 8), (-3.0, 20_000, 9), (0.0, 20_000, 4)],
    )
    def test_reflection_mirrors_the_decision(self, alpha, n, seed):
        # the gate is two-sided: -x gets the same verdict, copies and test,
        # with the shape estimate and its bounds negated
        x = sample_sn(SkewNormalShape(alpha), n, seed=seed)
        right = duplication_decision(x, seed=0)
        left = duplication_decision(-x, seed=0)
        assert left.verdict == right.verdict
        assert left.duplication_factor == right.duplication_factor
        assert left.capped == right.capped
        assert left.test.p_value == right.test.p_value
        assert left.alpha_hat == -right.alpha_hat
        assert (left.ci_low, left.ci_high) == (-right.ci_high, -right.ci_low)

    @pytest.mark.parametrize("seed", [6, 11, 12])
    def test_inner_test_is_the_test_command(self, seed):
        # decide tests the sample as given, as `gjb test --duplicate k` does;
        # a re-centred copy of an offset sample moves the p-value in its last
        # bits
        x = sample_sn(SkewNormalShape(1.0), 1000, seed=seed) + 1e3
        decision = duplication_decision(x, seed=seed)
        k = decision.duplication_factor
        assert decision.test == run_test(x, 0.0, duplication_factor=k)

    def test_normal_sample_accepted(self):
        g = np.random.default_rng(10)
        outcome = duplication_decision(g.standard_normal(50), seed=0)
        assert outcome.verdict == "accept-symmetry"
        assert outcome.ci_low < 0.5

    def test_near_symmetric_shape_accepted(self):
        x = sample_sn(SkewNormalShape(0.01), 200, seed=2)
        outcome = duplication_decision(x, seed=0)
        assert outcome.verdict in ("accept-symmetry", "inconclusive")

    def test_deterministic(self):
        x = sample_sn(SkewNormalShape(6.0), 50, seed=1)
        a = duplication_decision(x, seed=0)
        b = duplication_decision(x, seed=0)
        assert a == b

    def test_cap_binds(self):
        x = sample_sn(SkewNormalShape(10.0), 5, seed=40)
        outcome = duplication_decision(x, seed=0, k_cap=2)
        if outcome.verdict != "accept-symmetry":
            assert outcome.capped
            assert outcome.duplication_factor == 2

    @pytest.mark.parametrize(
        "x,resamples",
        [
            (sample_sn(SkewNormalShape(6.0), 50, seed=1), 300),
            (np.array([1.0, 2.0, 4.0]), 300),  # about one resample in nine is constant
            (np.random.default_rng(3).standard_exponential(400), 300),  # clamped
            # 31 chunks of 32 rows and a short one of 8
            (sample_sn(SkewNormalShape(2.0), 2000, seed=5), 1000),
            # one 5 among 2000 twos: about 37% of the resamples are constant,
            # spread over all 32 chunks
            (np.r_[np.full(1999, 2.0), 5.0], 1000),
        ],
        ids=["sn6", "tiny", "exponential", "many-chunks", "constant-in-chunks"],
    )
    def test_bootstrap_matches_reference(self, x, resamples):
        alphas = gjb.testing._bootstrap_alphas(x, resamples, seed=4)
        ref = reference_bootstrap_alphas(x, resamples, seed=4)
        np.testing.assert_allclose(alphas, ref, rtol=1e-10, atol=1e-15)

    @pytest.mark.parametrize(
        "x",
        [[1.0, 2.0, 4.0], [0.1, 0.2, 0.4], [0.1] * 1999 + [0.7]],
        ids=["integers", "tenths", "tenths-in-chunks"],
    )
    def test_constant_resamples_score_zero(self, x):
        # a resample repeating one value is no asymmetry evidence, even when
        # the float mean of the repeats misses the value
        alphas = gjb.testing._bootstrap_alphas(gjb.testing._prepare_sample(np.array(x)), 300, 4)
        idx = reference_bootstrap_indices(len(x), 300, 4)
        constant = (np.asarray(x)[idx] == np.asarray(x)[idx[:, :1]]).all(axis=1)
        assert constant.sum() > 10
        assert (alphas[constant] == 0.0).all()
        assert (alphas[~constant] != 0.0).all()

    def test_block_size_irrelevant(self):
        # n = 2000: 1000 resamples are 31 chunks of 32 rows and a short one of
        # 8; each resample scores the same as in a run of 32 full chunks, and
        # the decision's bounds are the percentiles of those scores
        x = sample_sn(SkewNormalShape(2.0), 2000, seed=3)
        xc = gjb.testing._prepare_sample(x)
        alphas = gjb.testing._bootstrap_alphas(xc, 1000, seed=7)
        assert np.array_equal(alphas, gjb.testing._bootstrap_alphas(xc, 1024, seed=7)[:1000])
        outcome = duplication_decision(x, seed=7)
        tail = 100.0 * (1.0 - 0.95) / 2.0
        expected = np.percentile(alphas, [tail, 100.0 - tail])
        assert (outcome.ci_low, outcome.ci_high) == tuple(expected)

    def test_bootstrap_memory_bounded(self, monkeypatch):
        # each lane draws and scores one stream chunk (here one resample of
        # 10^5) at a time into reused buffers: its peak is the chunk's rows,
        # which the skewness kernel overwrites with the deviations, one
        # scratch array and the indices, three rows' worth whatever
        # resamples x n is (here 2e7 values). A buffered gather or a second
        # scratch array adds a fourth.
        n = 100_000
        x = sample_sn(SkewNormalShape(1.0), n, seed=6)
        for lanes in (1, 2, 3):
            monkeypatch.setattr(gjb.rng, "worker_count", lambda: lanes)
            tracemalloc.start()
            try:
                gjb.testing._bootstrap_alphas(x, 200, seed=0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 3.5 * n * 8 * lanes, lanes

    def test_bootstrap_kernels_allocate_no_chunk_temporaries(self, monkeypatch):
        # the gather writes straight into the chunk's rows, allocating only
        # the indices, and the skewness kernel works in its scratch arrays;
        # a chunk-sized temporary in either would churn memory every chunk
        n = 20_000
        chunk_bytes = gjb.rng.chunk_rows(n) * n * 8
        x = sample_sn(SkewNormalShape(1.0), n, seed=6)
        extra = per_call_allocations(
            monkeypatch, gjb.testing, lambda: gjb.testing._bootstrap_alphas(x, 10, seed=0)
        )
        assert len(extra["draw"]) == len(extra["kernel"]) == 4
        assert max(extra["draw"]) < 1.5 * chunk_bytes
        assert max(extra["kernel"]) < 0.5 * chunk_bytes

    def test_extreme_scale(self):
        for n in (1000, 20_000):  # bootstrap, then influence interval
            x = sample_sn(SkewNormalShape(1.0), n, seed=0)
            base = duplication_decision(x)
            big = duplication_decision(1e100 * x)
            assert big.verdict == base.verdict
            assert (big.ci_low, big.ci_high) == pytest.approx(
                (base.ci_low, base.ci_high), rel=1e-12
            )

    @pytest.mark.parametrize("n,method", [(9_999, "bootstrap"), (10_000, "influence")])
    def test_interval_method_switches_at_ten_thousand(self, n, method):
        x = sample_sn(SkewNormalShape(1.0), n, seed=3)
        decision = duplication_decision(x, seed=2)
        assert decision.ci_method == method
        y = gjb.testing._prepare_sample(x)
        if method == "bootstrap":
            expected = gjb.testing._bootstrap_bounds(y, 1000, 2)
        else:
            expected = gjb.testing._influence_bounds(y, empirical_shape(x)[1])
        assert (decision.ci_low, decision.ci_high) == tuple(expected)

    def test_influence_interval_draws_nothing(self):
        # from the threshold on, neither the seed nor the resample count
        # reaches the result; both are still checked at entry
        x = sample_sn(SkewNormalShape(1.0), 20_000, seed=4)
        base = duplication_decision(x, seed=0)
        assert base.ci_method == "influence"
        assert duplication_decision(x, seed=5) == base
        assert duplication_decision(x, seed=5, resamples=1) == base
        with pytest.raises(DomainError, match="need resamples >= 1"):
            duplication_decision(x, resamples=0)

    def test_influence_branch_evaluates_the_shape_once(self, monkeypatch):
        # one (a_n, b_n) gives alpha-hat, centres the interval and feeds the
        # inner test
        real = gjb.testing._shape_rows
        rows = []

        def spy(xs, *args, **kwargs):
            rows.append(xs.shape)
            return real(xs, *args, **kwargs)

        monkeypatch.setattr(gjb.testing, "_shape_rows", spy)
        x = sample_sn(SkewNormalShape(1.0), 20_000, seed=4)
        assert duplication_decision(x).ci_method == "influence"
        assert rows == [(1, 20_000)]

    @pytest.mark.parametrize("alpha,seed", [(0.0, 0), (1.0, 1), (6.0, 2)])
    def test_influence_interval_matches_reference(self, alpha, seed):
        # the textbook influence function of the skewness mu3/s^3,
        # ((x-m)^3 - mu3)/s^3 - 3 (x-m)/s - (3/2) mu3 ((x-m)^2 - s^2)/s^5,
        # on the centred, scaled sample, with its 1/n spread over sqrt(n)
        x = sample_sn(SkewNormalShape(alpha), 10_000, seed)
        y = gjb.testing._prepare_sample(x)
        dev = y - y.mean()
        s2, mu3 = (dev**2).mean(), (dev**3).mean()
        s = math.sqrt(s2)
        infl = (dev**3 - mu3) / s**3 - 3 * dev / s - 1.5 * mu3 * (dev**2 - s2) / s**5
        se = infl.std() / math.sqrt(y.size)
        b = mu3 / s**3
        d = np.array([b - 1.959963984540054 * se, b + 1.959963984540054 * se])
        np.testing.assert_allclose(
            gjb.testing._influence_bounds(y, empirical_shape(x)[1]),
            gjb.testing._alpha_from_skewness(d),
            rtol=1e-10,
        )

    @pytest.mark.parametrize("alpha,seed", [(0.0, 0), (1.0, 1), (6.0, 2)])
    def test_influence_interval_near_bootstrap(self, alpha, seed):
        # at n = 10^4 the endpoints, in skewness space, lie within 0.008 of
        # the 1000-resample bootstrap's: three times the largest median gap
        # between two bootstraps of one sample (tests/influence_study.py)
        def skewness(bounds):
            return [shape_statistics(sn_raw_moments(SkewNormalShape(a))).skewness
                    for a in bounds]

        x = sample_sn(SkewNormalShape(alpha), 10_000, seed)
        y = gjb.testing._prepare_sample(x)
        infl = skewness(gjb.testing._influence_bounds(y, empirical_shape(x)[1]))
        boot = skewness(gjb.testing._bootstrap_bounds(y, 1000, seed))
        np.testing.assert_allclose(infl, boot, rtol=0, atol=0.008)

    def test_too_small_rejected(self):
        with pytest.raises(DegenerateSampleError):
            duplication_decision([1.0, 2.0], seed=0)


def test_replicate_consumers_do_not_depend_on_lane_count(monkeypatch):
    # every consumer's chunks are shared among 1, 2 or 3 lanes with the same
    # bits, and those bits are the reference streams'. Each call spans
    # several chunks: the campaign 4 of 93 rows, the bootstrap 32 of 32 and
    # the Monte-Carlo covariance 5 of 65.
    config = CampaignConfig(sample_size=700, replications=300, seed=11)
    x = sample_sn(SkewNormalShape(2.0), 2000, seed=5)
    xc = gjb.testing._prepare_sample(x)
    shape = SkewNormalShape(1.5)
    real = gjb.asymptotics.map_replicates
    mc_rows = []

    def spy(*args, **kwargs):
        mc_rows.append(real(*args, **kwargs))
        return mc_rows[-1]

    monkeypatch.setattr(gjb.asymptotics, "map_replicates", spy)
    runs = []
    for lanes in (1, 2, 3):
        monkeypatch.setattr(gjb.rng, "worker_count", lambda: lanes)
        decision = duplication_decision(x, seed=7)
        sigma_monte_carlo(shape, reps=300, per_rep_n=1000, seed=8)
        runs.append((
            simulate_true_model(config, 1.0),
            gjb.testing._bootstrap_alphas(xc, 1000, seed=7),
            mc_rows[-1],
            np.array([decision.ci_low, decision.ci_high]),
        ))
    for other in runs[1:]:
        for got, expected in zip(other, runs[0]):
            assert np.array_equal(got, expected)
    ps, alphas, rows, _ = runs[0]
    assert np.max(np.abs(ps - reference_campaign_p_values(config, 1.0, 1.0))) <= 1e-12
    np.testing.assert_allclose(
        alphas, reference_bootstrap_alphas(xc, 1000, seed=7), rtol=1e-10, atol=1e-15
    )
    cc, bb = influence_polynomials(sn_raw_moments(shape))
    for i in (0, 64, 65, 200, 299):
        z = sn_row(*replicate_generator(8, (2,), i, 1000), 1000, shape.delta)
        cov = np.cov(P.polyval(z, cc), P.polyval(z, bb), ddof=1)
        np.testing.assert_allclose(
            rows[i], [cov[0, 0], cov[1, 1], cov[0, 1]], rtol=1e-9, atol=1e-12
        )
