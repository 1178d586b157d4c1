"""Exact raw moments of SN(alpha) up to order 8, and shape statistics.

Ground truth is the binomial expansion of the two-normal representation
``X = A|Z1| + B Z2`` with ``A = delta``, ``B = sqrt(1 - delta^2)``:

    m_j = sum_{h=0..j} C(j,h) A^h B^(j-h) E|Z1|^h E Z2^(j-h)

Even moments reduce to the standard normal's (1, 3, 15, 105) for every
alpha; odd moments are odd functions of alpha.

Skewness and kurtosis are available by two independent paths: through the
raw-moment expansion above (:func:`shape_statistics`) and through the
closed forms in delta (:func:`analytic_shape_statistics`); the two must
agree to ~1e-12, which the test suite pins.
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

# Raw moments E|Z|^h of the half-normal law and E Z^h of N(0,1), h = 0..8:
# the base moments of the binomial expansion, with c = sqrt(2/pi).
_c = math.sqrt(2.0 / math.pi)
_HALF_NORMAL_MOMENTS = (1.0, _c, 1.0, 2.0 * _c, 3.0, 8.0 * _c, 15.0, 48.0 * _c, 105.0)
_NORMAL_MOMENTS = (1.0, 0.0, 1.0, 0.0, 3.0, 0.0, 15.0, 0.0, 105.0)


class ShapeStatistics(NamedTuple):
    """Skewness and non-excess kurtosis (the normal law scores (0, 3))."""

    skewness: float
    kurtosis: float


def sn_raw_moments(shape: SkewNormalShape) -> np.ndarray:
    """Raw moments m_0..m_8 of SN(alpha), as a length-9 float array, via the
    binomial expansion; m_0 is always 1."""
    m1, m2 = _HALF_NORMAL_MOMENTS, _NORMAL_MOMENTS
    a = shape.delta
    b = math.sqrt(1.0 - a * a)
    entries = []
    for j in range(9):
        acc = 0.0
        for h in range(j + 1):
            acc += math.comb(j, h) * a**h * b ** (j - h) * m1[h] * m2[j - h]
        entries.append(acc)
    return np.array(entries)


def centered_moment(order: int, raw: np.ndarray) -> float:
    """E(X - m_1)^order from raw moments, by binomial recentring."""
    if order < 1 or order > 8:
        raise DomainError(f"order must be in 1..8, got {order}")
    neg_mean = -raw[1]
    return sum(
        math.comb(order, j) * raw[j] * neg_mean ** (order - j)
        for j in range(order + 1)
    )


def shape_statistics(raw: np.ndarray) -> ShapeStatistics:
    """Skewness mu3/mu2^(3/2) and kurtosis mu4/mu2^2 from raw moments."""
    mu2 = centered_moment(2, raw)
    if mu2 <= 0.0:
        raise DegenerateSampleError("law has zero variance")
    mu3 = centered_moment(3, raw)
    mu4 = centered_moment(4, raw)
    return ShapeStatistics(skewness=mu3 / mu2**1.5, kurtosis=mu4 / mu2**2)


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
