"""Asymptotic machinery of the generalized Jarque-Bera (GJB) test.

``sqrt(n) (a_n - a, b_n - b)`` is asymptotically centered Gaussian with a
2x2 covariance whose entries are the variance/covariance of two influence
polynomials evaluated at the law:

* ``C`` (degree 4) is the influence function of the empirical kurtosis,
  ``(x-m1)^4/s^4 - 4 mu3 (x-m1)/s^4 - 2 mu4 (x-m1)^2/s^6`` up to an
  additive constant;
* ``B`` (degree 3) is the influence function of the empirical skewness,
  ``(x-m1)^3/s^3 - 3 s^2 (x-m1)/s^3 - (3/2) mu3 (x-m1)^2/s^5`` up to a
  constant,

with ``s^2 = m2 - m1^2`` and mu3/mu4 the centered third/fourth moments.
For a standardized symmetric law with mu4 = 3 these reduce to the classical
``h4 - 6 h2`` and ``h3 - 3 h1``, giving the textbook (24, 6, 0) covariance
under normality.

The covariance is computed by two first-class routes: ``sigma_analytic``
(exact linear algebra on raw moments up to order 8) and
``sigma_monte_carlo`` (replicated sampling, averaging per-replicate sample
variances with the 1/(n-1) convention over row blocks of replicates).

``legacy=True`` swaps in the variant skewness polynomial used by the
original implementation of this test, which scales the quadratic correction
by ``s^2 * mu3`` instead of ``mu3 / s^2``. The two coincide for symmetric
laws and for unit variance; reference tables of mean p-values embed the
variant, so reproducing them requires it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P
from scipy.special import gammaincc

from .distributions import SkewNormalShape, fill_sn
from .errors import DegenerateSampleError, DomainError, SingularCovarianceError
from .moments import MomentVector, centered_moment, sn_raw_moments
from .rng import map_replicates

__all__ = [
    "InfluencePolynomial",
    "CovarianceMatrix2",
    "influence_polynomials",
    "legacy_influence_polynomials",
    "sigma_analytic",
    "sigma_monte_carlo",
    "chi2_survival",
]


@dataclass(frozen=True)
class InfluencePolynomial:
    """Polynomial sum(coeffs[j] * x^j); evaluation is Horner's scheme."""

    coeffs: tuple[float, ...]

    def __call__(self, x):
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class CovarianceMatrix2:
    """Symmetric 2x2 covariance of the (kurtosis, skewness) deviations."""

    s11: float
    s22: float
    s12: float

    @property
    def det(self) -> float:
        return self.s11 * self.s22 - self.s12 * self.s12


def _variance_powers(raw: MomentVector) -> tuple[float, float, float]:
    s2 = raw[2] - raw[1] ** 2
    if s2 <= 0.0:
        raise DegenerateSampleError("law has zero variance")
    return s2, centered_moment(3, raw), centered_moment(4, raw)


def influence_polynomials(
    raw: MomentVector,
) -> tuple[InfluencePolynomial, InfluencePolynomial]:
    """The kurtosis (C, degree 4) and skewness (B, degree 3) polynomials."""
    m1, m2, m3 = raw[1], raw[2], raw[3]
    s2, mu3, mu4 = _variance_powers(raw)
    s4, s6 = s2 * s2, s2**3
    s3, s5 = s2**1.5, s2**2.5
    c = (
        0.0,
        (-4.0 * m3 + 12.0 * m1 * m2 - 12.0 * m1**3) / s4 + 4.0 * m1 * mu4 / s6,
        6.0 * m1 * m1 / s4 - 2.0 * mu4 / s6,
        -4.0 * m1 / s4,
        1.0 / s4,
    )
    b = (
        0.0,
        (6.0 * m1 * m1 - 3.0 * m2) / s3 + 3.0 * m1 * mu3 / s5,
        -3.0 * m1 / s3 - 1.5 * mu3 / s5,
        1.0 / s3,
    )
    return InfluencePolynomial(c), InfluencePolynomial(b)


def legacy_influence_polynomials(
    raw: MomentVector,
) -> tuple[InfluencePolynomial, InfluencePolynomial]:
    """Variant polynomials matching the test's original implementation.

    The kurtosis polynomial differs from :func:`influence_polynomials` only
    by an additive constant (irrelevant for variances); the skewness one
    scales its quadratic correction by ``s^2 * mu3`` rather than
    ``mu3 / s^2``, which changes Var(B) whenever the law is skewed with
    non-unit variance.
    """
    m1, m2, m3 = raw[1], raw[2], raw[3]
    s2, mu3, mu4 = _variance_powers(raw)
    s3, s4 = s2**1.5, s2 * s2
    # a2 = (x - m1)^2, a3 = (x - m1)^3 - 3 s^2 x, a4 = (x - m1)^4 - 4 mu3 x + const
    a2 = np.array([m1 * m1, -2.0 * m1, 1.0, 0.0, 0.0])
    a3 = np.array([-(m1**3), 6.0 * m1 * m1 - 3.0 * m2, -3.0 * m1, 1.0, 0.0])
    a4 = np.array(
        [0.0, -4.0 * m3 + 12.0 * m1 * m2 - 12.0 * m1**3, 6.0 * m1 * m1, -4.0 * m1, 1.0]
    )
    c = (a4 - (2.0 * mu4 / s2) * a2) / s4
    b = (a3 - (1.5 * s2 * mu3) * a2) / s3
    return InfluencePolynomial(tuple(c)), InfluencePolynomial(tuple(b[:4]))


def _moment_expectation(coeffs: np.ndarray, raw: MomentVector) -> float:
    """E[p(X)] for a polynomial of degree <= 8, read off the moment vector."""
    if len(coeffs) > 9:
        raise DomainError("polynomial degree exceeds available moments")
    return float(np.dot(coeffs, raw.as_array()[: len(coeffs)]))


def sigma_analytic(raw: MomentVector, *, legacy: bool = False) -> CovarianceMatrix2:
    """Exact covariance from raw moments up to order 8.

    C and B have degree <= 4, so their second moments are linear in the
    moments of X up to order 8; no sampling is involved.
    """
    make = legacy_influence_polynomials if legacy else influence_polynomials
    cpoly, bpoly = make(raw)
    cc = np.asarray(cpoly.coeffs)
    bb = np.asarray(bpoly.coeffs)
    ec = _moment_expectation(cc, raw)
    eb = _moment_expectation(bb, raw)
    s11 = _moment_expectation(P.polymul(cc, cc), raw) - ec * ec
    s22 = _moment_expectation(P.polymul(bb, bb), raw) - eb * eb
    s12 = _moment_expectation(P.polymul(cc, bb), raw) - ec * eb
    sigma = CovarianceMatrix2(s11=s11, s22=s22, s12=s12)
    if sigma.det <= 0.0:
        raise SingularCovarianceError(
            f"analytic covariance is singular (det={sigma.det})"
        )
    return sigma


def sigma_monte_carlo(
    shape: SkewNormalShape,
    reps: int,
    per_rep_n: int,
    seed: int,
    *,
    legacy: bool = False,
) -> CovarianceMatrix2:
    """Monte-Carlo covariance: average per-replicate sample Var/Cov of C, B.

    Each replicate draws ``per_rep_n`` variates from its own substream
    ``(seed, replicate)`` and uses the 1/(n-1) sample-variance convention;
    results are deterministic in ``seed`` and independent of block size.
    """
    if reps < 1:
        raise DomainError(f"need reps >= 1, got {reps}")
    if per_rep_n < 2:
        raise DomainError(f"need per_rep_n >= 2, got {per_rep_n}")
    make = legacy_influence_polynomials if legacy else influence_polynomials
    cpoly, bpoly = make(sn_raw_moments(shape))
    cc = np.asarray(cpoly.coeffs)
    bb = np.asarray(bpoly.coeffs)
    d = shape.delta

    def covariances(xs: np.ndarray) -> np.ndarray:
        cz = P.polyval(xs, cc)
        bz = P.polyval(xs, bb)
        cz -= cz.mean(axis=1, keepdims=True)
        bz -= bz.mean(axis=1, keepdims=True)
        sums = [(cz * cz).sum(axis=1), (bz * bz).sum(axis=1), (cz * bz).sum(axis=1)]
        return np.stack(sums, axis=1) / (per_rep_n - 1)

    rows = map_replicates(
        lambda g, row: fill_sn(g, row, d), covariances, reps, per_rep_n, seed
    )
    s11, s22, s12 = rows.mean(axis=0)
    return CovarianceMatrix2(s11=float(s11), s22=float(s22), s12=float(s12))


def chi2_survival(x, dof: int = 2):
    """P(chi^2_dof > x) for a scalar or ndarray ``x``; every entry must be
    finite and >= 0. The dof=2 case uses the closed form exp(-x/2)."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr) & (arr >= 0.0)):
        raise DomainError(f"x must be finite and >= 0, got {x!r}")
    if dof < 1:
        raise DomainError(f"dof must be >= 1, got {dof}")
    out = np.exp(-0.5 * arr) if dof == 2 else gammaincc(0.5 * dof, 0.5 * arr)
    return float(out) if arr.ndim == 0 else out
