"""Tests for the influence polynomials, covariance routes, and chi-square tail."""

import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

import gjb.asymptotics
import gjb.rng
from scipy.integrate import quad
from scipy.stats import chi2 as scipy_chi2

from gjb.asymptotics import (
    CovarianceMatrix2,
    chi2_survival,
    influence_polynomials,
    sigma_analytic,
    sigma_monte_carlo,
)
from gjb.distributions import SkewNormalShape, sample_sn, sn_pdf
from gjb.errors import DegenerateSampleError, DomainError, SingularCovarianceError
from gjb.moments import sn_raw_moments

from allocation_probe import per_call_allocations
from reference_streams import replicate_generator, sn_row


def symbolic_oracle_coeffs(raw):
    """Independent transcription of the influence-polynomial displays in sympy.

    Builds the h1..h4 coefficients of C and B from the un-normalized
    equations, then divides by (m2-m1^2)^4 and (m2-m1^2)^3 respectively.
    """
    import sympy as sp

    m1, m2, m3, m4 = sp.symbols("m1 m2 m3 m4", positive=False)
    v = m2 - m1**2
    mu4 = m4 - 4 * m1 * m3 + 6 * m1**2 * m2 - 3 * m1**4
    mu3 = m3 - 3 * m1 * m2 + 2 * m1**3
    c_h4 = v**2
    c_h3 = -4 * m1 * v**2
    c_h2 = 6 * m1**2 * v**2 - 2 * v * mu4
    c_h1 = v**2 * (-4 * m3 + 12 * m1 * m2 - 12 * m1**3) + 4 * m1 * v * mu4
    b_h3 = v ** sp.Rational(3, 2)
    b_h2 = -3 * m1 * v ** sp.Rational(3, 2) - sp.Rational(3, 2) * mu3 * sp.sqrt(v)
    b_h1 = v ** sp.Rational(3, 2) * (-3 * m2 + 6 * m1**2) + 3 * m1 * mu3 * sp.sqrt(v)
    subs = {m1: raw[1], m2: raw[2], m3: raw[3], m4: raw[4]}
    v_num = raw[2] - raw[1] ** 2
    c = [float((expr / v**4).evalf(subs=subs)) for expr in (c_h1, c_h2, c_h3, c_h4)]
    b = [float((expr / v**3).evalf(subs=subs)) for expr in (b_h1, b_h2, b_h3)]
    assert v_num > 0
    return [0.0] + c, [0.0] + b


class TestInfluencePolynomials:
    def test_gaussian_reduction(self):
        raw = sn_raw_moments(SkewNormalShape(0.0))
        c, b = influence_polynomials(raw)
        assert c == pytest.approx((0.0, 0.0, -6.0, 0.0, 1.0), abs=1e-14)
        assert b == pytest.approx((0.0, -3.0, 0.0, 1.0), abs=1e-14)

    def test_generic_symmetric_law(self):
        # m1 = m3 = 0, m2 = 1, m4 free: C reduces to h4 - 2 m4 h2
        m4 = 4.7
        raw = np.array([1.0, 0.0, 1.0, 0.0, m4, 0.0, 15.0, 0.0, 105.0])
        c, b = influence_polynomials(raw)
        assert c == pytest.approx((0.0, 0.0, -2 * m4, 0.0, 1.0), abs=1e-14)
        assert b == pytest.approx((0.0, -3.0, 0.0, 1.0), abs=1e-14)

    @pytest.mark.parametrize("legacy", [False, True])
    def test_zero_variance_law_is_degenerate(self, legacy):
        # the moments of a point mass at 2: m_k = 2^k, so m2 - m1^2 = 0
        with pytest.raises(DegenerateSampleError, match="zero variance"):
            influence_polynomials(2.0 ** np.arange(9), legacy=legacy)

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 4.0, -2.0])
    def test_symbolic_oracle(self, alpha):
        raw = sn_raw_moments(SkewNormalShape(alpha))
        c, b = influence_polynomials(raw)
        c_ref, b_ref = symbolic_oracle_coeffs(raw)
        assert c == pytest.approx(c_ref, rel=1e-12)
        assert b == pytest.approx(b_ref, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 6.0])
    def test_leading_coefficient_normalization(self, alpha):
        raw = sn_raw_moments(SkewNormalShape(alpha))
        c, b = influence_polynomials(raw)
        v = raw[2] - raw[1] ** 2
        assert c[4] * v**2 == pytest.approx(1.0, rel=1e-13)
        assert b[3] * v**1.5 == pytest.approx(1.0, rel=1e-13)

    def test_horner_evaluation(self):
        raw = sn_raw_moments(SkewNormalShape(1.0))
        c, _ = influence_polynomials(raw)
        xs = np.linspace(-3, 3, 7)
        direct = sum(cj * xs**j for j, cj in enumerate(c))
        assert P.polyval(xs, c) == pytest.approx(direct, rel=1e-13)

    @pytest.mark.parametrize("alpha,legacy", [(0.0, False), (1.5, False), (-6.0, True)])
    def test_in_place_horner_is_polyval_bitwise(self, alpha, legacy):
        # sigma_monte_carlo evaluates C and B in scratch arrays; its seeded
        # estimates stay those of P.polyval only if every bit agrees
        xs = sample_sn(SkewNormalShape(alpha), 3000, seed=2).reshape(3, 1000)
        for coeffs in influence_polynomials(sn_raw_moments(SkewNormalShape(alpha)), legacy=legacy):
            out = np.empty_like(xs)
            assert gjb.asymptotics._horner(xs, coeffs, out) is out
            assert np.array_equal(out, P.polyval(xs, coeffs))

    def test_legacy_matches_at_symmetry(self):
        raw = sn_raw_moments(SkewNormalShape(0.0))
        sig = sigma_analytic(raw, legacy=True)
        assert (sig.s11, sig.s22, sig.s12) == pytest.approx((24.0, 6.0, 0.0), abs=1e-10)

    def test_legacy_diverges_for_skewed_laws(self):
        # the variant inflates Var(B) once mu3 and 1 - variance are both large
        raw = sn_raw_moments(SkewNormalShape(6.0))
        exact = sigma_analytic(raw)
        legacy = sigma_analytic(raw, legacy=True)
        assert legacy.s11 == pytest.approx(exact.s11, rel=1e-12)
        assert legacy.s22 > 1.5 * exact.s22

    def test_legacy_entry_point_is_the_legacy_flag(self):
        # legacy_influence_polynomials(raw) is influence_polynomials(raw,
        # legacy=True) bit for bit, for one law and for (9, m) stacked laws
        one = sn_raw_moments(SkewNormalShape(6.0))
        stacked = np.stack([sn_raw_moments(SkewNormalShape(a)) for a in (-3.0, 0.0, 1.5)], axis=1)
        for raw in (one, stacked):
            got = gjb.asymptotics.legacy_influence_polynomials(raw)
            want = influence_polynomials(raw, legacy=True)
            assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))
        assert got[0].shape == (5, 3)


class TestSigmaAnalytic:
    def test_gaussian_values_exact(self):
        sig = sigma_analytic(sn_raw_moments(SkewNormalShape(0.0)))
        assert sig.s11 == pytest.approx(24.0, abs=1e-10)
        assert sig.s22 == pytest.approx(6.0, abs=1e-10)
        assert sig.s12 == pytest.approx(0.0, abs=1e-10)
        assert sig.det == pytest.approx(144.0, abs=1e-8)

    def test_gaussian_intermediate_values(self):
        # E[(h4-6h2)^2] = 105 - 180 + 108 = 33 and E[h4-6h2] = -3 give Var = 24
        raw = sn_raw_moments(SkewNormalShape(0.0))
        coeffs, _ = influence_polynomials(raw)
        ec = float(np.dot(coeffs, raw[:5]))
        sq = np.polynomial.polynomial.polymul(coeffs, coeffs)
        ec2 = float(np.dot(sq, raw[: len(sq)]))
        assert ec2 == pytest.approx(33.0, abs=1e-12)
        assert ec == pytest.approx(-3.0, abs=1e-12)
        assert ec2 - ec * ec == pytest.approx(24.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.7, 1.0, 3.0])
    def test_quadrature_oracle(self, alpha):
        # independent route: integrate C, B moments against the density
        shape = SkewNormalShape(alpha)
        raw = sn_raw_moments(shape)
        c, b = influence_polynomials(raw)
        cpoly = lambda x: P.polyval(x, c)
        bpoly = lambda x: P.polyval(x, b)
        def integral(fn):
            value, _ = quad(lambda x: fn(x) * sn_pdf(shape, x), -12, 12, limit=400)
            return value
        ec, eb = integral(cpoly), integral(bpoly)
        s11 = integral(lambda x: cpoly(x) ** 2) - ec * ec
        s22 = integral(lambda x: bpoly(x) ** 2) - eb * eb
        s12 = integral(lambda x: cpoly(x) * bpoly(x)) - ec * eb
        sig = sigma_analytic(raw)
        assert sig.s11 == pytest.approx(s11, rel=1e-8)
        assert sig.s22 == pytest.approx(s22, rel=1e-8)
        assert sig.s12 == pytest.approx(s12, rel=1e-8)

    def test_asymptotic_covariance_of_shape_deviations(self):
        # end-to-end: the sampling covariance of sqrt(n)(a_n - a, b_n - b)
        # approaches sigma_analytic
        from gjb.moments import shape_statistics
        from gjb.testing import empirical_shape

        alpha, n, reps = 1.0, 4000, 3000
        shape = SkewNormalShape(alpha)
        raw = sn_raw_moments(shape)
        ab = shape_statistics(raw)
        rows = np.empty((reps, 2))
        for i in range(reps):
            x = sample_sn(shape, n, seed=900_000 + i)
            a_n, b_n = empirical_shape(x)
            rows[i] = (a_n - ab.kurtosis, b_n - ab.skewness)
        emp = np.cov(rows.T) * n
        sig = sigma_analytic(raw)
        assert emp[0, 0] == pytest.approx(sig.s11, rel=0.15)
        assert emp[1, 1] == pytest.approx(sig.s22, rel=0.15)
        assert emp[0, 1] == pytest.approx(sig.s12, rel=0.25)

    @pytest.mark.parametrize("alpha", np.linspace(-3, 3, 13))
    def test_cauchy_schwarz(self, alpha):
        sig = sigma_analytic(sn_raw_moments(SkewNormalShape(alpha)))
        assert sig.s11 >= 0 and sig.s22 >= 0
        assert sig.s12**2 <= sig.s11 * sig.s22

    def test_continuity_at_symmetry(self):
        for alpha in np.linspace(-0.05, 0.05, 11):
            sig = sigma_analytic(sn_raw_moments(SkewNormalShape(alpha)))
            assert abs(sig.s12) < 0.05


class TestSigmaMonteCarlo:
    def test_gaussian_agreement(self):
        sig = sigma_monte_carlo(SkewNormalShape(0.0), reps=10_000, per_rep_n=1_000, seed=4)
        assert sig.s11 == pytest.approx(24.0, rel=0.02)
        assert sig.s22 == pytest.approx(6.0, rel=0.02)
        assert abs(sig.s12) < 0.1

    def test_cross_route_agreement(self):
        mc = sigma_monte_carlo(SkewNormalShape(1.0), reps=10_000, per_rep_n=1_000, seed=0)
        exact = sigma_analytic(sn_raw_moments(SkewNormalShape(1.0)))
        assert mc.s11 == pytest.approx(exact.s11, rel=0.02)
        assert mc.s22 == pytest.approx(exact.s22, rel=0.02)
        assert mc.s12 == pytest.approx(exact.s12, rel=0.02)

    def test_error_shrinks_with_reps(self):
        exact = sigma_analytic(sn_raw_moments(SkewNormalShape(1.0)))
        errors = []
        for reps in (100, 1000, 10000):
            mc = sigma_monte_carlo(SkewNormalShape(1.0), reps=reps, per_rep_n=1000, seed=99)
            errors.append(abs(mc.s11 - exact.s11) / exact.s11)
        assert errors[2] < errors[0]

    def test_degenerate_size_smoke(self):
        # one replicate of two values gives a rank-one estimate (det = 0);
        # three such replicates give a usable one (relative det 0.75)
        with pytest.raises(SingularCovarianceError):
            sigma_monte_carlo(SkewNormalShape(2.0), reps=1, per_rep_n=2, seed=5)
        sig = sigma_monte_carlo(SkewNormalShape(2.0), reps=3, per_rep_n=2, seed=5)
        for value in (sig.s11, sig.s22, sig.s12):
            assert math.isfinite(value)

    def test_deterministic_and_block_size_independent(self, monkeypatch):
        # n = 1000: 65 rows per chunk, one chunk per kernel call. 400
        # replicates end on a short block of 10 rows, 455 on a full one; each
        # replicate's covariance row is the same in both, and the estimate is
        # the mean of those rows
        rows = {}
        real = gjb.asymptotics.map_replicates

        def spy(draw, kernel, reps, n, seed, **kwargs):
            rows[reps] = real(draw, kernel, reps, n, seed, **kwargs)
            return rows[reps]

        monkeypatch.setattr(gjb.asymptotics, "map_replicates", spy)
        kwargs = dict(per_rep_n=1000, seed=21)
        default = sigma_monte_carlo(SkewNormalShape(1.5), reps=400, **kwargs)
        assert sigma_monte_carlo(SkewNormalShape(1.5), reps=400, **kwargs) == default
        sigma_monte_carlo(SkewNormalShape(1.5), reps=455, **kwargs)
        assert gjb.rng.chunk_rows(1000) == 65
        assert np.array_equal(rows[400], rows[455][:400])
        s11, s22, s12 = rows[400].mean(axis=0)
        assert (default.s11, default.s22, default.s12) == (s11, s22, s12)

    def test_kernel_allocates_no_chunk_temporaries(self, monkeypatch):
        # the normals are drawn into the lane's (R, 2n) row buffer; the SN
        # rows are built, and C and B evaluated, centred and multiplied, in
        # scratch arrays reused by every chunk
        n = 1000
        chunk_bytes = gjb.rng.chunk_rows(n) * n * 8
        extra = per_call_allocations(
            monkeypatch,
            gjb.asymptotics,
            lambda: sigma_monte_carlo(SkewNormalShape(1.5), reps=200, per_rep_n=n, seed=3),
        )
        assert len(extra["draw"]) == len(extra["kernel"]) == 4
        assert max(extra["draw"]) < 0.5 * chunk_bytes
        assert max(extra["kernel"]) < 0.5 * chunk_bytes

    @pytest.mark.parametrize("alpha,legacy", [(0.0, False), (1.5, False), (1.5, True)])
    def test_matches_per_replicate_reference(self, alpha, legacy):
        # the per-replicate loop the blocked version replaced, kept as
        # reference; each replicate drawn on its own from its stream chunk
        shape = SkewNormalShape(alpha)
        raw = sn_raw_moments(shape)
        cc, bb = influence_polynomials(raw, legacy=legacy)
        d = shape.delta
        rows = []
        for i in range(300):
            z = sn_row(*replicate_generator(8, (2,), i, 50), 50, d)
            cov = np.cov(P.polyval(z, cc), P.polyval(z, bb), ddof=1)
            rows.append((cov[0, 0], cov[1, 1], cov[0, 1]))
        ref = np.mean(rows, axis=0)
        mc = sigma_monte_carlo(shape, reps=300, per_rep_n=50, seed=8, legacy=legacy)
        scale = math.sqrt(ref[0] * ref[1])
        assert mc.s11 == pytest.approx(ref[0], rel=1e-12)
        assert mc.s22 == pytest.approx(ref[1], rel=1e-12)
        assert mc.s12 == pytest.approx(ref[2], rel=1e-12, abs=1e-12 * scale)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            sigma_monte_carlo(SkewNormalShape(1.0), reps=0, per_rep_n=10, seed=1)
        with pytest.raises(DomainError):
            sigma_monte_carlo(SkewNormalShape(1.0), reps=10, per_rep_n=1, seed=1)


class TestChi2Survival:
    def test_zero(self):
        assert chi2_survival(0.0) == 1.0

    def test_five_percent_point(self):
        assert chi2_survival(2.0 * math.log(20.0)) == pytest.approx(0.05, rel=1e-14)

    def test_median_point(self):
        assert chi2_survival(1.386294) == pytest.approx(0.5, abs=1e-6)

    @pytest.mark.parametrize("dof", [2])
    def test_against_scipy(self, dof):
        for x in (0.01, 0.5, 2.0, 5.99, 20.0):
            assert chi2_survival(x) == pytest.approx(
                scipy_chi2.sf(x, dof), rel=1e-12
            )

    def test_strictly_decreasing_onto_unit_interval(self):
        xs = np.linspace(0, 60, 200)
        values = [chi2_survival(float(x)) for x in xs]
        assert values[0] == 1.0
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(0.0 < v <= 1.0 for v in values)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            chi2_survival(-0.1)

    @pytest.mark.parametrize("dof", [2])
    def test_array_matches_scalar_and_checks_every_entry(self, dof):
        xs = np.array([0.0, 0.3, 5.99, 40.0])
        assert list(chi2_survival(xs)) == [chi2_survival(float(x)) for x in xs]
        assert chi2_survival(xs) == pytest.approx(scipy_chi2.sf(xs, dof), rel=1e-12)
        for bad in (-0.1, math.nan, math.inf):
            with pytest.raises(DomainError):
                chi2_survival(np.array([1.0, bad, 2.0]))


class TestCovarianceMatrix:
    def test_det(self):
        sig = CovarianceMatrix2(s11=24.0, s22=6.0, s12=1.0)
        assert sig.det == 143.0

    def test_singular_rejected_by_statistic(self):
        # the matrix is checked where it is built, so no statistic ever sees
        # a singular one
        with pytest.raises(SingularCovarianceError):
            CovarianceMatrix2(s11=4.0, s22=1.0, s12=2.0)
