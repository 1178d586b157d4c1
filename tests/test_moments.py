"""Tests for the exact moment machinery, with quadrature oracles."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from gjb.distributions import SkewNormalShape, sn_pdf
from gjb.errors import DegenerateSampleError, DomainError
from gjb.moments import (
    SKEWNESS_SUP,
    analytic_shape_statistics,
    centered_moment,
    delta_from_skewness,
    shape_statistics,
    skewness_of_delta,
    sn_raw_moments,
)

C = math.sqrt(2.0 / math.pi)


def quad_moment(alpha: float, j: int) -> float:
    """Independent oracle: adaptive quadrature of x^j f_alpha(x)."""
    shape = SkewNormalShape(alpha)
    value, _ = quad(lambda x: x**j * sn_pdf(shape, x), -12.0, 12.0, limit=400)
    return value


class TestRawMoments:
    def test_alpha_zero_is_standard_normal(self):
        raw = sn_raw_moments(SkewNormalShape(0.0))
        assert raw.tolist() == [1.0, 0.0, 1.0, 0.0, 3.0, 0.0, 15.0, 0.0, 105.0]

    def test_alpha_one_first_moment(self):
        # delta * c = 1/sqrt(pi)
        raw = sn_raw_moments(SkewNormalShape(1.0))
        assert raw[1] == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-14)

    def test_alpha_one_third_moment(self):
        # delta c (3 - delta^2) = 2.5/sqrt(pi)
        raw = sn_raw_moments(SkewNormalShape(1.0))
        assert raw[3] == pytest.approx(2.5 / math.sqrt(math.pi), rel=1e-14)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 2.0, 5.0, 10.0])
    def test_odd_moment_closed_forms(self, alpha):
        # delta-space closed forms for m5 and m7
        raw = sn_raw_moments(SkewNormalShape(alpha))
        a = SkewNormalShape(alpha).delta
        b2 = 1.0 - a * a
        m5 = a * C * (15 * b2**2 + 20 * a * a * b2 + 8 * a**4)
        m7 = a * C * (105 * b2**3 + 210 * a * a * b2**2 + 168 * a**4 * b2 + 48 * a**6)
        assert raw[5] == pytest.approx(m5, rel=1e-13)
        assert raw[7] == pytest.approx(m7, rel=1e-13)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 5.0])
    def test_quadrature_oracle(self, alpha):
        raw = sn_raw_moments(SkewNormalShape(alpha))
        for j in range(9):
            oracle = quad_moment(alpha, j)
            assert raw[j] == pytest.approx(oracle, rel=1e-8), f"moment {j}"

    @pytest.mark.parametrize("alpha", [-7.0, -0.4, 0.9, 3.0, 25.0])
    def test_even_moments_are_normal(self, alpha):
        raw = sn_raw_moments(SkewNormalShape(alpha))
        assert raw[0] == 1.0
        for j, expected in ((2, 1.0), (4, 3.0), (6, 15.0), (8, 105.0)):
            assert raw[j] == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("alpha", [0.2, 1.0, 4.0, 9.5])
    def test_odd_moments_flip_sign(self, alpha):
        plus = sn_raw_moments(SkewNormalShape(alpha))
        minus = sn_raw_moments(SkewNormalShape(-alpha))
        for j in (1, 3, 5, 7):
            assert minus[j] == pytest.approx(-plus[j], abs=1e-14)


class TestCenteredMoments:
    def test_variance_of_standard_normal(self):
        raw = sn_raw_moments(SkewNormalShape(0.0))
        assert centered_moment(2, raw) == pytest.approx(1.0, rel=1e-15)

    def test_first_centered_moment_vanishes(self):
        for alpha in (0.0, 1.0, -3.0, 8.0):
            raw = sn_raw_moments(SkewNormalShape(alpha))
            assert centered_moment(1, raw) == pytest.approx(0.0, abs=1e-15)

    def test_alpha_one_variance(self):
        # m2 - m1^2 = 1 - 1/pi; cross-checked by quadrature below
        raw = sn_raw_moments(SkewNormalShape(1.0))
        assert centered_moment(2, raw) == pytest.approx(1.0 - 1.0 / math.pi, rel=1e-14)

    def test_alpha_one_variance_quadrature(self):
        shape = SkewNormalShape(1.0)
        m1 = quad_moment(1.0, 1)
        value, _ = quad(lambda x: (x - m1) ** 2 * sn_pdf(shape, x), -12, 12, limit=400)
        assert value == pytest.approx(1.0 - 1.0 / math.pi, rel=1e-10)

    @pytest.mark.parametrize("order", [0, 9])
    def test_order_out_of_range(self, order):
        raw = sn_raw_moments(SkewNormalShape(0.0))
        with pytest.raises(DomainError):
            centered_moment(order, raw)


class TestShapeStatistics:
    def test_normal_case(self):
        stats = shape_statistics(sn_raw_moments(SkewNormalShape(0.0)))
        assert stats.skewness == 0.0
        assert stats.kurtosis == pytest.approx(3.0, rel=1e-14)

    def test_alpha_one_reference(self):
        stats = shape_statistics(sn_raw_moments(SkewNormalShape(1.0)))
        assert stats.kurtosis == pytest.approx(3.06, abs=0.02)
        assert stats.skewness == pytest.approx(0.137, abs=0.02)

    def test_alpha_ten_reference(self):
        stats = shape_statistics(sn_raw_moments(SkewNormalShape(10.0)))
        assert stats.kurtosis == pytest.approx(3.823, abs=1e-3)
        assert stats.skewness == pytest.approx(0.9556, abs=1e-3)

    def test_degenerate_variance_rejected(self):
        bad = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        with pytest.raises(DegenerateSampleError):
            shape_statistics(bad)

    def test_kurtosis_skewness_inequality(self):
        # universal moment inequality: a >= 1 + b^2
        for alpha in np.linspace(-20, 20, 41):
            stats = shape_statistics(sn_raw_moments(SkewNormalShape(alpha)))
            assert stats.kurtosis >= 1.0 + stats.skewness**2


class TestAnalyticShapeStatistics:
    def test_normal_case(self):
        stats = analytic_shape_statistics(SkewNormalShape(0.0))
        assert stats == (0.0, 3.0)

    def test_alpha_one(self):
        stats = analytic_shape_statistics(SkewNormalShape(1.0))
        assert stats.skewness == pytest.approx(0.13702, abs=1e-4)
        assert stats.kurtosis == pytest.approx(3.06175, abs=1e-4)

    def test_skewness_supremum(self):
        # delta -> 1 limit bounds the family's skewness
        assert SKEWNESS_SUP == pytest.approx(0.99527, abs=1e-4)
        assert skewness_of_delta(0.9999999) < SKEWNESS_SUP

    def test_path_equality_on_random_grid(self):
        rng = np.random.default_rng(2024)
        for alpha in rng.uniform(-10, 10, size=200):
            shape = SkewNormalShape(alpha)
            closed = analytic_shape_statistics(shape)
            viamoments = shape_statistics(sn_raw_moments(shape))
            assert closed.skewness == pytest.approx(viamoments.skewness, abs=1e-10, rel=1e-10)
            assert closed.kurtosis == pytest.approx(viamoments.kurtosis, abs=1e-10, rel=1e-10)

    def test_skewness_monotone_in_alpha(self):
        alphas = np.linspace(0.0, 50.0, 1000)
        values = [
            analytic_shape_statistics(SkewNormalShape(a)).skewness for a in alphas
        ]
        assert all(x < y for x, y in zip(values, values[1:]))


class TestSkewnessInversion:
    @pytest.mark.parametrize("delta", [-0.99, -0.5, 0.0, 0.3, 0.9, 0.999])
    def test_roundtrip(self, delta):
        assert delta_from_skewness(skewness_of_delta(delta)) == pytest.approx(
            delta, abs=1e-12
        )

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            delta_from_skewness(1.0)
        with pytest.raises(DomainError):
            delta_from_skewness(np.array([0.1, -1.0]))
        with pytest.raises(DomainError):
            delta_from_skewness(math.nan)

    def test_closed_form_matches_bisection(self):
        from gjb.testing import SKEWNESS_CLAMP

        def bisection(b):
            lo, hi = -1.0, 1.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if skewness_of_delta(mid) < b:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        bs = np.linspace(-SKEWNESS_CLAMP, SKEWNESS_CLAMP, 4001)
        ref = np.array([bisection(b) for b in bs])
        closed = delta_from_skewness(bs)
        assert np.max(np.abs(closed - ref)) <= 4e-16
        scalar = np.array([delta_from_skewness(float(b)) for b in bs])
        assert np.max(np.abs(scalar - ref)) <= 4e-16

