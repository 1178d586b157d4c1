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
variances with the 1/(n-1) convention, one stream chunk of replicates at a
time).

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

from .distributions import SkewNormalShape, sn_from_normals
from .errors import DomainError, SingularCovarianceError
from .moments import _centered_moments, sn_raw_moments
from .rng import _check_count, map_replicates

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
    """Symmetric 2x2 covariance of the (kurtosis, skewness) deviations.

    Only a nonsingular matrix can be built: construction raises
    :class:`SingularCovarianceError` unless ``s11 > 0`` and
    ``det > 1e-12 * s11 * s22`` (which makes ``s22 > 0`` too). A NaN entry
    fails the rule.
    """

    s11: float
    s22: float
    s12: float

    def __post_init__(self):
        if not (self.s11 > 0.0 and self.det > 1e-12 * self.s11 * self.s22):
            raise SingularCovarianceError(f"{self} is singular (det={self.det})")

    @property
    def det(self) -> float:
        return self.s11 * self.s22 - self.s12 * self.s12


def influence_polynomials(
    raw: np.ndarray, *, legacy: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients, in ascending powers of x, of the kurtosis polynomial C
    (degree 4) and the skewness polynomial B (degree 3), constants set to 0:
    arrays of length 5 and 4, or of shape ``(5, m)`` and ``(4, m)`` for raw
    moments stacked along a last axis of length m.

    Built from ``a2 = (x-m1)^2``, ``a3 = (x-m1)^3 - 3 s^2 x`` and
    ``a4 = (x-m1)^4 - 4 mu3 x`` (constants dropped) as
    ``C = (a4 - k a2) / s^4`` and ``B = (a3 - h a2) / s^3``, with
    ``k = 2 mu4/s^2`` and ``h = (3/2) q``, where the quadratic-correction
    scale is ``q = mu3/s^2``, or ``s^2 mu3`` with ``legacy=True``.
    """
    return _influence_polynomials(raw[1], *_centered_moments(raw), legacy=legacy)


def _influence_polynomials(m1, s2, mu3, mu4, *, legacy: bool):
    """:func:`influence_polynomials` of a law of mean ``m1`` and centred
    moments ``s2 = mu2 > 0``, ``mu3`` and ``mu4``."""
    k = 2.0 * mu4 / s2
    h = 1.5 * (s2 * mu3 if legacy else mu3 / s2)
    zero, one = np.zeros_like(m1), np.ones_like(m1)
    c = np.array([
        zero, 2.0 * k * m1 - 4.0 * (m1 * m1 * m1 + mu3), 6.0 * m1 * m1 - k, -4.0 * m1, one,
    ])
    b = np.array([zero, 3.0 * (m1 * m1 - s2) + 2.0 * h * m1, -3.0 * m1 - h, one])
    return c / (s2 * s2), b / (s2 * np.sqrt(s2))


def legacy_influence_polynomials(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``influence_polynomials(raw, legacy=True)``."""
    # Kept because bench/tracing.py resolves this name with getattr; drop it
    # together with its ENTRY_POINTS entry.
    return influence_polynomials(raw, legacy=True)


# H[i, j] = m_(i+j), as indices into the raw moments
_MOMENT_MATRIX_INDEX = np.add.outer(np.arange(5), np.arange(5))


def sigma_analytic(raw: np.ndarray, *, legacy: bool = False) -> CovarianceMatrix2:
    """Exact covariance from raw moments up to order 8, as
    ``P H P' - (P m)(P m)'`` for the coefficient rows P of C and B (see
    :func:`_sigmas_analytic`, which this calls with one law)."""
    (sigma,) = _sigmas_analytic(raw, _centered_moments(raw), legacy=legacy)
    return sigma


def _sigmas_analytic(raw: np.ndarray, mu: tuple, *, legacy: bool) -> list[CovarianceMatrix2]:
    """Exact covariance of each law whose raw moments m_0..m_8 are ``raw``,
    of shape ``(9,)``, or a column of the ``(9, m)`` array ``raw``, each
    built on its own; ``mu`` holds the laws' centred moments mu2 > 0, mu3
    and mu4.

    With P the coefficient rows of C and B, H[i, j] = m_(i+j) the moment
    matrix and m = (m_0, ..., m_4) = H e_0, the covariance of (C, B) is
    ``P H P' - (P m)(P m)'``: C and B have degree <= 4, so their second
    moments are linear in the moments of X up to order 8, and no sampling
    is involved. Each law gets a 2x5 by 5x5 and a 2x5 by 5x2 matrix
    product of its own, so its Sigma is the same whatever m.
    """
    cc, bb = _influence_polynomials(raw[1], *mu, legacy=legacy)
    raw, cc, bb = (a.reshape(len(a), -1) for a in (raw, cc, bb))
    p = np.zeros((raw.shape[1], 2, 5))
    p[:, 0] = cc.T
    p[:, 1, :4] = bb.T
    ph = p @ raw.T[:, _MOMENT_MATRIX_INDEX]
    pm = ph[:, :, 0]
    cov = ph @ p.transpose(0, 2, 1) - pm[:, :, None] * pm[:, None, :]
    entries = zip(cov[:, 0, 0].tolist(), cov[:, 1, 1].tolist(), cov[:, 0, 1].tolist())
    return [CovarianceMatrix2(s11=s11, s22=s22, s12=s12) for s11, s22, s12 in entries]


def _horner(x: np.ndarray, coeffs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """numpy's ``polynomial.polyval(x, coeffs)`` written into ``out``, with
    the same operations in the same order, so the same bits for finite ``x``
    and a nonzero leading coefficient."""
    np.multiply(x, coeffs[-1], out=out)
    out += coeffs[-2]
    for c in coeffs[-3::-1]:
        out *= x
        out += c
    return out


def sigma_monte_carlo(
    shape: SkewNormalShape,
    reps: int,
    per_rep_n: int,
    seed: int,
    *,
    legacy: bool = False,
) -> CovarianceMatrix2:
    """Monte-Carlo covariance: average per-replicate sample Var/Cov of C, B.

    Each replicate draws ``per_rep_n`` variates under the key prefix
    ``(2,)`` (see :mod:`gjb.rng`) and uses the 1/(n-1) sample-variance
    convention; results are deterministic in ``seed``, and each replicate's
    row does not depend on ``reps``. A budget too small to give a
    nonsingular estimate (``reps=1, per_rep_n=2``, say) raises
    :class:`SingularCovarianceError`.
    """
    _check_count("reps", reps, 1, width=3)  # a row of three covariances each
    _check_count("per_rep_n", per_rep_n, 2, width=2)  # n pairs (Z1, Z2)
    cc, bb = influence_polynomials(sn_raw_moments(shape), legacy=legacy)
    d = shape.delta

    def make_covariances(block: tuple[int, int]):
        # the lane's SN rows and its scratch for C and B
        sn, cz, bz = np.empty((3,) + block)

        def covariances(z: np.ndarray) -> np.ndarray:
            r = len(z)
            xs = sn[:r]
            sn_from_normals(z, d, xs, cz[:r])
            c, b = _horner(xs, cc, cz[:r]), _horner(xs, bb, bz[:r])
            c -= c.mean(axis=1, keepdims=True)
            b -= b.mean(axis=1, keepdims=True)
            # the products overwrite the SN rows, which are used up
            sums = [np.multiply(u, w, out=xs).sum(axis=1) for u, w in ((c, c), (b, b), (c, b))]
            return np.stack(sums, axis=1) / (per_rep_n - 1)

        return covariances

    rows = map_replicates(
        lambda g, z: g.standard_normal(out=z), make_covariances, reps, per_rep_n, seed,
        key_prefix=(2,), width=2 * per_rep_n,
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
