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

Both polynomials come from one builder, :func:`influence_polynomials`, as
plain numpy coefficient arrays. ``legacy=True`` selects the variant
skewness polynomial used by the original implementation of this test, which
scales the quadratic correction by ``s^2 * mu3`` instead of ``mu3 / s^2``;
nothing else differs. The two coincide for symmetric laws and for unit
variance; reference tables of mean p-values embed the variant, so
reproducing them requires it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from .distributions import SkewNormalShape, fill_sn
from .errors import DegenerateSampleError, DomainError, SingularCovarianceError
from .moments import centered_moment, sn_raw_moments
from .rng import map_replicates

__all__ = [
    "CovarianceMatrix2",
    "influence_polynomials",
    "legacy_influence_polynomials",
    "sigma_analytic",
    "sigma_monte_carlo",
    "chi2_survival",
]


@dataclass(frozen=True)
class CovarianceMatrix2:
    """Symmetric 2x2 covariance of the (kurtosis, skewness) deviations."""

    s11: float
    s22: float
    s12: float

    @property
    def det(self) -> float:
        return self.s11 * self.s22 - self.s12 * self.s12


def influence_polynomials(
    raw: np.ndarray, *, legacy: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients, in ascending powers of x, of the kurtosis polynomial C
    (degree 4) and the skewness polynomial B (degree 3), constants set to 0.

    Built from ``a2 = (x-m1)^2``, ``a3 = (x-m1)^3 - 3 s^2 x`` and
    ``a4 = (x-m1)^4 - 4 mu3 x`` (constants dropped) as
    ``C = (a4 - 2 (mu4/s^2) a2) / s^4`` and ``B = (a3 - (3/2) q a2) / s^3``,
    where the quadratic-correction scale is ``q = mu3/s^2``, or ``s^2 mu3``
    with ``legacy=True``.
    """
    m1 = raw[1]
    s2 = raw[2] - m1 * m1
    if s2 <= 0.0:
        raise DegenerateSampleError("law has zero variance")
    mu3, mu4 = centered_moment(3, raw), centered_moment(4, raw)
    q = s2 * mu3 if legacy else mu3 / s2
    a2 = np.array([0.0, -2.0 * m1, 1.0, 0.0, 0.0])
    a3 = np.array([0.0, 3.0 * (m1 * m1 - s2), -3.0 * m1, 1.0, 0.0])
    a4 = np.array([0.0, -4.0 * (m1**3 + mu3), 6.0 * m1 * m1, -4.0 * m1, 1.0])
    c = (a4 - (2.0 * mu4 / s2) * a2) / (s2 * s2)
    b = (a3 - (1.5 * q) * a2)[:4] / s2**1.5
    return c, b


def legacy_influence_polynomials(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``influence_polynomials(raw, legacy=True)``."""
    # Kept because bench/tracing.py resolves this name with getattr; drop it
    # together with its ENTRY_POINTS entry.
    return influence_polynomials(raw, legacy=True)


def _moment_expectation(coeffs: np.ndarray, raw: np.ndarray) -> float:
    """E[p(X)] for a polynomial of degree <= 8, read off the moment vector."""
    if len(coeffs) > 9:
        raise DomainError("polynomial degree exceeds available moments")
    return float(np.dot(coeffs, raw[: len(coeffs)]))


def sigma_analytic(raw: np.ndarray, *, legacy: bool = False) -> CovarianceMatrix2:
    """Exact covariance from raw moments up to order 8.

    C and B have degree <= 4, so their second moments are linear in the
    moments of X up to order 8; no sampling is involved.
    """
    cc, bb = influence_polynomials(raw, legacy=legacy)
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
    cc, bb = influence_polynomials(sn_raw_moments(shape), legacy=legacy)
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


def chi2_survival(x):
    """P(chi^2_2 > x) = exp(-x/2), the tail of the statistic's limit law
    (2 degrees of freedom), for a scalar or ndarray ``x``; every entry must
    be finite and >= 0."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr) & (arr >= 0.0)):
        raise DomainError(f"x must be finite and >= 0, got {x!r}")
    out = np.exp(-0.5 * arr)
    return float(out) if arr.ndim == 0 else out
