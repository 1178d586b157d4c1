"""Exact raw moments of SN(alpha) up to order 8, and shape statistics.

The moments come from the two-normal representation ``X = A|Z1| + B Z2``
with ``A = delta``, ``B = sqrt(1 - delta^2)``, as the binomial expansion

    m_j = sum_{h=0..j} C(j,h) A^h B^(j-h) E|Z1|^h E Z2^(j-h),

which :func:`sn_raw_moments` evaluates in closed form (Henze 1986,
Scand. J. Statist. 13, 271-275).

Skewness and kurtosis are available by two independent paths: through the
raw moments (:func:`shape_statistics`) and through the closed forms in
delta (:func:`analytic_shape_statistics`); the two must agree to ~1e-12,
which the test suite pins.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .distributions import SkewNormalShape
from .errors import DegenerateSampleError, DomainError

__all__ = [
    "ShapeStatistics",
    "sn_raw_moments",
    "centered_moment",
    "shape_statistics",
    "analytic_shape_statistics",
    "skewness_of_delta",
    "delta_from_skewness",
    "SKEWNESS_SUP",
]

# Supremum of |skewness| over the family (delta -> 1 limit).
SKEWNESS_SUP = math.sqrt(2.0) * (4.0 - math.pi) / (math.pi - 2.0) ** 1.5

_C = math.sqrt(2.0 / math.pi)  # E|Z| of the half-normal law


class ShapeStatistics(NamedTuple):
    """Skewness and non-excess kurtosis (the normal law scores (0, 3)):
    floats, or arrays for a stack of laws."""

    skewness: float
    kurtosis: float


def sn_raw_moments(shape: SkewNormalShape) -> np.ndarray:
    """Raw moments m_0..m_8 of SN(alpha), as a length-9 float array."""
    return _raw_moments(shape.delta)


def _raw_moments(delta) -> np.ndarray:
    """Raw moments m_0..m_8 of SN(alpha) for a delta or an array of them,
    in an array of shape ``(9,) + shape(delta)``.

    With ``t = delta^2`` and ``c = sqrt(2/pi) delta``, the binomial
    expansion of the module docstring sums, through ``B^2 = 1 - t``, to

        m_1 = c,   m_3 = c (3 - t),   m_5 = c (15 - 10 t + 3 t^2),
        m_7 = c (105 - 105 t + 63 t^2 - 15 t^3),

    evaluated here in Horner form; the even moments are N(0,1)'s,
    (m_0, m_2, m_4, m_6, m_8) = (1, 1, 3, 15, 105), for every alpha, since
    E|Z1|^(2i) = E Z2^(2i) and A^2 + B^2 = 1.
    """
    d = np.asarray(delta, dtype=float)
    t = d * d
    c = _C * d
    one = np.ones_like(d)
    return np.array([
        one, c, one, c * (3.0 - t), 3.0 * one, c * (15.0 - t * (10.0 - 3.0 * t)),
        15.0 * one, c * (105.0 - t * (105.0 - t * (63.0 - 15.0 * t))), 105.0 * one,
    ])


def centered_moment(order: int, raw: np.ndarray):
    """E(X - m_1)^order from raw moments, by binomial recentring in Horner
    form in -m_1; a float for a length-9 ``raw``, and an array for raw
    moments stacked along a last axis."""
    if order < 1 or order > 8:
        raise DomainError(f"order must be in 1..8, got {order}")
    neg_mean = -raw[1]
    total = raw[0]
    for j in range(1, order + 1):
        total = total * neg_mean + math.comb(order, j) * raw[j]
    return total


def _centered_moments(raw: np.ndarray):
    """mu2, mu3 and mu4 from raw moments (see :func:`centered_moment`);
    raises DegenerateSampleError unless mu2 > 0."""
    mu2 = centered_moment(2, raw)
    if (mu2 <= 0.0).any():
        raise DegenerateSampleError("law has zero variance")
    return mu2, centered_moment(3, raw), centered_moment(4, raw)


def shape_statistics(raw: np.ndarray) -> ShapeStatistics:
    """Skewness mu3/mu2^(3/2) and kurtosis mu4/mu2^2 from raw moments, as
    floats, or as arrays for raw moments stacked along a last axis."""
    return _shape_statistics(*_centered_moments(raw))


def _shape_statistics(mu2, mu3, mu4) -> ShapeStatistics:
    """:func:`shape_statistics` from the centred moments mu2 > 0, mu3, mu4."""
    return ShapeStatistics(skewness=mu3 / (mu2 * np.sqrt(mu2)), kurtosis=mu4 / (mu2 * mu2))


def skewness_of_delta(delta: float) -> float:
    """Closed-form skewness sqrt(2)(4-pi) delta^3 / (pi - 2 delta^2)^(3/2)."""
    return math.sqrt(2.0) * (4.0 - math.pi) * delta**3 / (math.pi - 2.0 * delta * delta) ** 1.5


def analytic_shape_statistics(shape: SkewNormalShape) -> ShapeStatistics:
    """Closed-form skewness and kurtosis in delta.

    Independent of :func:`shape_statistics`; the two paths agree to 1e-12.
    """
    d = shape.delta
    skew = skewness_of_delta(d)
    kurt = 3.0 + 8.0 * (math.pi - 3.0) * d**4 / (math.pi - 2.0 * d * d) ** 2
    return ShapeStatistics(skewness=skew, kurtosis=kurt)


def delta_from_skewness(b):
    """Invert the skewness map in closed form, for scalar or ndarray ``b``
    strictly inside (-SKEWNESS_SUP, SKEWNESS_SUP): with t = |b|^(2/3),
    |delta| = sqrt(pi/2 * t / (t + ((4-pi)/2)^(2/3))), signed like b
    (Azzalini & Capitanio, The Skew-Normal and Related Families, sec. 3.1)."""
    arr = np.asarray(b, dtype=float)
    if not np.all(np.abs(arr) < SKEWNESS_SUP):
        raise DomainError(f"skewness {b} is outside the attainable range")
    t = np.abs(arr) ** (2.0 / 3.0)
    c = (0.5 * (4.0 - math.pi)) ** (2.0 / 3.0)
    delta = np.copysign(np.sqrt(0.5 * math.pi * t / (t + c)), arr)
    return float(delta) if arr.ndim == 0 else delta
