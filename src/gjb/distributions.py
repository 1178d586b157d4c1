"""Skew-normal primitives.

The standard skew-normal law SN(alpha) has density ``2 phi(x) Phi(alpha x)``
where phi/Phi are the standard normal density and cdf. Sampling uses the
two-normal representation

    X = delta |Z1| + sqrt(1 - delta^2) Z2,      delta = alpha / sqrt(1 + alpha^2)

with Z1, Z2 independent standard normals, which is valid for every real
alpha (no sign restriction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .rng import _check_count, substream

__all__ = [
    "SkewNormalShape",
    "delta_of_alpha",
    "sn_pdf",
    "sample_sn",
    "sn_from_normals",
]


def delta_of_alpha(alpha: float) -> float:
    """Map the shape parameter alpha to delta = alpha / sqrt(1 + alpha^2).

    The result lies in [-1, 1] and carries the sign of alpha; it rounds to
    exactly +-1 for |alpha| >= ~1.4e8.
    """
    if not math.isfinite(alpha):
        raise DomainError(f"alpha must be finite, got {alpha!r}")
    alpha2 = alpha * alpha
    if alpha2 == math.inf:  # |alpha| > ~1.34e154: the formula would give 0
        return math.copysign(1.0, alpha)
    return alpha / math.sqrt(1.0 + alpha2)


@dataclass(frozen=True)
class SkewNormalShape:
    """The single knob of the standard skew-normal family.

    ``delta`` is a property, recomputed from ``alpha`` on each access, so
    the identity ``delta == alpha / sqrt(1 + alpha^2)`` holds to machine
    precision.
    """

    alpha: float

    @property
    def delta(self) -> float:
        return delta_of_alpha(self.alpha)

    def __post_init__(self):
        delta_of_alpha(self.alpha)  # checks that alpha is finite


# math.erfc applied element-wise; returns Python floats (object dtype)
_erfc = np.frompyfunc(math.erfc, 1, 1)


def sn_pdf(shape: SkewNormalShape, x):
    """Density ``2 phi(x) Phi(alpha x)`` of SN(alpha) at ``x``.

    Accepts a scalar or ndarray. Phi is evaluated as
    ``0.5 erfc(-z / sqrt(2))`` with the standard library's ``erfc``, the
    reduction scipy's ``ndtr`` uses. Measured against ``ndtr``, the two
    agree to 1.3e-14 relative for |z| <= 8 and to 5e-13 down to z = -37.67,
    where ``ndtr`` underflows to 0; this Phi stays positive down to
    z ~ -38.47.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("x must be finite")
    with np.errstate(over="ignore"):  # x^2 -> inf and alpha x -> +-inf are exact limits
        phi = np.exp(-0.5 * arr * arr) / math.sqrt(2.0 * math.pi)
        z = shape.alpha * arr
    cdf = 0.5 * np.asarray(_erfc(-z / math.sqrt(2.0)), dtype=float)
    out = 2.0 * phi * cdf
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def sample_sn(shape: SkewNormalShape, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` i.i.d. variates from SN(alpha), bit-reproducible in ``seed``.

    Uses the representation delta |Z1| + sqrt(1-delta^2) Z2; Z1 is drawn
    first (one vector), then Z2, from the stream ``substream(seed)``.
    """
    _check_count("n", n, 1, width=2)  # Z1 and Z2
    z = substream(seed).standard_normal(2 * n)
    out = np.empty(n)
    sn_from_normals(z[:n], z[n:], shape.delta, out, z[n:])  # Z2 is not needed after
    return out


def sn_from_normals(
    z1: np.ndarray, z2: np.ndarray, delta: float, out: np.ndarray, scratch: np.ndarray
) -> None:
    """Overwrite ``out`` with ``delta |Z1| + sqrt(1-delta^2) Z2``, entry by
    entry, from standard normals ``z1`` and ``z2`` already drawn.

    ``z1``, ``z2``, ``out`` and ``scratch`` share one shape, in any memory
    layout. ``scratch`` is overwritten; ``z1`` and ``z2`` are left as drawn
    unless ``scratch`` is ``z2``, so one draw can serve several shapes.
    """
    np.multiply(z2, math.sqrt(1.0 - delta * delta), out=scratch)
    np.abs(z1, out=out)
    out *= delta
    out += scratch
