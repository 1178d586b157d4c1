"""Tests for the test statistic, campaigns, estimator, and decision protocol."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gjb.rng
import gjb.testing
from gjb.asymptotics import CovarianceMatrix2, sigma_analytic
from gjb.distributions import SkewNormalShape, sample_sn
from gjb.errors import DegenerateSampleError, DomainError
from gjb.moments import shape_statistics, sn_raw_moments
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


def reference_campaign_p_values(config, data_alpha):
    """The per-replicate campaign loop that the blocked kernel replaced, each
    replicate drawn on its own from its chunk of the campaign stream."""
    shape = SkewNormalShape(config.alpha)
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


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda x: duplication_decision(x, k_cap=0), "need k_cap >= 1, got 0"),
        (lambda x: duplication_decision(x, level=1.5), r"level must be in \(0, 1\), got 1.5"),
        (lambda x: duplication_decision(x, level=-1.0), r"level must be in \(0, 1\), got -1.0"),
        (lambda x: run_test(x, 0.0, level=1.5), r"level must be in \(0, 1\), got 1.5"),
        (lambda x: run_test(x, 0.0, level=0.0), r"level must be in \(0, 1\), got 0.0"),
        (lambda x: rejection_size_search(1.0, start=1), "need start >= 2, got 1"),
    ],
    ids=["k_cap", "decide-level-high", "decide-level-negative", "test-level-high",
         "test-level-zero", "start"],
)
def test_bad_argument_named_at_entry(call, message):
    with pytest.raises(DomainError, match=message):
        call(sample_sn(SkewNormalShape(6.0), 50, seed=1))


class TestEmpiricalShape:
    def test_hand_example(self):
        # mu2 = 2/3, mu3 = 0, mu4 = 2/3 -> a_n = 1.5, b_n = 0
        a_n, b_n = empirical_shape([-1.0, 0.0, 1.0])
        assert a_n == pytest.approx(1.5, rel=1e-15)
        assert b_n == 0.0

    def test_hand_example_unbiased_scaling(self):
        # ddof=1: variance scale 1 instead of 2/3
        a_n, b_n = empirical_shape([-1.0, 0.0, 1.0], ddof=1)
        assert a_n == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert b_n == 0.0

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

    def test_sigma_routes_agree(self):
        x = sample_sn(SkewNormalShape(1.0), 2_000, seed=6)
        analytic = run_test(x, 1.0, sigma_route="analytic")
        mc = run_test(x, 1.0, sigma_route="monte-carlo", seed=0)
        assert mc.j_n == pytest.approx(analytic.j_n, rel=0.03)


class TestCampaigns:
    def test_deterministic(self):
        config = CampaignConfig(alpha=1.0, sample_size=10, replications=200, seed=5)
        r1 = simulate_true_model(config)
        r2 = simulate_true_model(config)
        assert np.array_equal(r1.p_values, r2.p_values)

    def test_alternative_equal_to_true_model_when_laws_match(self):
        config = CampaignConfig(alpha=1.0, sample_size=20, replications=150, seed=2)
        same = simulate_alternative(config, data_alpha=1.0)
        true = simulate_true_model(config)
        assert np.array_equal(same.p_values, true.p_values)

    def test_true_model_mean_p_is_high(self):
        config = CampaignConfig(alpha=1.0, sample_size=50, replications=400, seed=3)
        assert simulate_true_model(config).mean_p_value > 0.4

    def test_power_example_alpha_six(self):
        # hypothesis SN(6) vs standard normal data at the reference size
        config = CampaignConfig(alpha=6.0, sample_size=130, replications=300, seed=7)
        assert simulate_alternative(config).mean_p_value < 0.05

    def test_power_example_alpha_one_point_five(self):
        config = CampaignConfig(alpha=1.5, sample_size=750, replications=300, seed=7)
        assert simulate_alternative(config).mean_p_value < 0.05

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
        config = CampaignConfig(
            alpha=alpha, sample_size=size, replications=300, seed=11, legacy=legacy
        )
        ps = simulate_alternative(config, data_alpha=data_alpha).p_values
        ref = reference_campaign_p_values(config, data_alpha)
        assert np.max(np.abs(ps - ref)) <= 1e-12

    def test_block_size_irrelevant(self):
        # n = 2000: 32 rows per chunk, one chunk per kernel call. 200
        # replicates end on a short block of 8 rows, 224 on a full one and 33
        # on one row; each replicate's p-value is the same in all three.
        def p_values(reps):
            config = CampaignConfig(alpha=1.0, sample_size=2000, replications=reps, seed=5)
            return simulate_true_model(config).p_values

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
                CampaignConfig(alpha=1.0, sample_size=n, replications=reps, seed=4),
                data_alpha=data_alpha,
            ).p_values
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
        simulate_true_model(CampaignConfig(alpha=1.0, sample_size=n, replications=reps, seed=0))
        assert len(calls) <= math.ceil(reps / gjb.rng.chunk_rows(n))
        assert sum(calls) == reps

    def test_constant_replicate_rejected(self, monkeypatch):
        monkeypatch.setattr(gjb.testing, "fill_sn", lambda g, row, d: row.fill(1.0))
        config = CampaignConfig(alpha=1.0, sample_size=10, replications=5, seed=0)
        with pytest.raises(DegenerateSampleError):
            simulate_true_model(config)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            CampaignConfig(alpha=1.0, sample_size=1, replications=10, seed=0)
        with pytest.raises(DomainError):
            CampaignConfig(alpha=1.0, sample_size=10, replications=0, seed=0)
        with pytest.raises(DomainError):
            CampaignConfig(alpha=1.0, sample_size=10, replications=10, seed=0,
                           sigma_route="exact")


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
        alphas = gjb.testing._bootstrap_alphas(gjb.testing._scale_and_centre(np.array(x)), 300, 4)
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
        xc = gjb.testing._scale_and_centre(x)
        alphas = gjb.testing._bootstrap_alphas(xc, 1000, seed=7)
        assert np.array_equal(alphas, gjb.testing._bootstrap_alphas(xc, 1024, seed=7)[:1000])
        outcome = duplication_decision(x, seed=7)
        tail = 100.0 * (1.0 - 0.95) / 2.0
        expected = np.percentile(alphas, [tail, 100.0 - tail])
        assert (outcome.ci_low, outcome.ci_high) == tuple(expected)

    def test_bootstrap_memory_bounded(self):
        # one stream chunk (here one resample of 10^5) is drawn and scored at
        # a time into reused buffers: the peak is the chunk's rows, its two
        # skewness scratch arrays and its indices, four rows' worth whatever
        # resamples x n is (here 2e7 values). A buffered gather adds a fifth.
        n = 100_000
        x = sample_sn(SkewNormalShape(1.0), n, seed=6)
        tracemalloc.start()
        try:
            gjb.testing._bootstrap_alphas(x, 200, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * n * 8

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
        x = sample_sn(SkewNormalShape(1.0), 1000, seed=0)
        base = duplication_decision(x)
        big = duplication_decision(1e100 * x)
        assert big.verdict == base.verdict
        assert (big.ci_low, big.ci_high) == pytest.approx(
            (base.ci_low, base.ci_high), rel=1e-12
        )

    def test_too_small_rejected(self):
        with pytest.raises(DegenerateSampleError):
            duplication_decision([1.0, 2.0], seed=0)
