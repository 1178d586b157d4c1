"""Skew-normal and half-normal primitives.

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
from scipy.special import ndtr

from .errors import DegenerateSampleError, DomainError
from .rng import substream

__all__ = [
    "SkewNormalShape",
    "delta_of_alpha",
    "sn_pdf",
    "sample_sn",
    "fill_sn",
    "half_normal_moments",
    "standard_normal_moments",
]

# sqrt(2/pi): first moment of the standard half-normal law.
HALF_NORMAL_MEAN = math.sqrt(2.0 / math.pi)

# Raw moments of |N(0,1)| and N(0,1), orders 0..8.
_HALF_NORMAL_MOMENTS = np.array(
    [1.0, HALF_NORMAL_MEAN, 1.0, 2.0 * HALF_NORMAL_MEAN, 3.0,
     8.0 * HALF_NORMAL_MEAN, 15.0, 48.0 * HALF_NORMAL_MEAN, 105.0]
)
_STANDARD_NORMAL_MOMENTS = np.array(
    [1.0, 0.0, 1.0, 0.0, 3.0, 0.0, 15.0, 0.0, 105.0]
)


def delta_of_alpha(alpha: float) -> float:
    """Map the shape parameter alpha to delta = alpha / sqrt(1 + alpha^2).

    The result lies in (-1, 1) and carries the sign of alpha.
    """
    if not math.isfinite(alpha):
        raise DomainError(f"alpha must be finite, got {alpha!r}")
    return alpha / math.sqrt(1.0 + alpha * alpha)


@dataclass(frozen=True)
class SkewNormalShape:
    """The single knob of the standard skew-normal family.

    ``delta`` is derived from ``alpha`` on construction, so the identity
    ``delta == alpha / sqrt(1 + alpha^2)`` holds to machine precision.
    """

    alpha: float

    @property
    def delta(self) -> float:
        return delta_of_alpha(self.alpha)

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise DomainError(f"alpha must be finite, got {self.alpha!r}")


def sn_pdf(shape: SkewNormalShape, x):
    """Density ``2 phi(x) Phi(alpha x)`` of SN(alpha) at ``x``.

    Accepts a scalar or ndarray. Phi is evaluated through the complementary
    error function (scipy's ``ndtr``), accurate to ~1e-16 relative.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("x must be finite")
    phi = np.exp(-0.5 * arr * arr) / math.sqrt(2.0 * math.pi)
    out = 2.0 * phi * ndtr(shape.alpha * arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def sample_sn(shape: SkewNormalShape, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` i.i.d. variates from SN(alpha), bit-reproducible in ``seed``.

    Uses the representation delta |Z1| + sqrt(1-delta^2) Z2; Z1 is drawn
    first (one vector), then Z2, from the stream ``substream(seed)``.
    """
    if n < 1:
        raise DegenerateSampleError(f"need at least one draw, got n={n}")
    out = np.empty(n)
    fill_sn(substream(seed), out, shape.delta)
    return out


def fill_sn(g: np.random.Generator, out: np.ndarray, delta: float) -> None:
    """Overwrite ``out`` with ``delta |Z1| + sqrt(1-delta^2) Z2``, row by row.

    For ``out`` of shape ``(..., n)`` this takes one ``(..., 2n)`` normal draw
    from ``g``: each row's Z1 is its first n values and Z2 the next n. For a
    1-D ``out`` that is Z1 drawn first, then Z2.
    """
    n = out.shape[-1]
    z = g.standard_normal(out.shape[:-1] + (2 * n,))
    np.abs(z[..., :n], out=out)
    out *= delta
    z2 = z[..., n:]
    z2 *= math.sqrt(1.0 - delta * delta)
    out += z2


def half_normal_moments() -> np.ndarray:
    """Raw moments of |N(0,1)|, orders 0..8: (1, c, 1, 2c, 3, 8c, 15, 48c, 105)."""
    return _HALF_NORMAL_MOMENTS.copy()


def standard_normal_moments() -> np.ndarray:
    """Raw moments of N(0,1), orders 0..8: odd ones vanish, evens are (1,1,3,15,105)."""
    return _STANDARD_NORMAL_MOMENTS.copy()
