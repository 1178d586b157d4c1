"""Reference operating characteristics of the skew-normal GJB test.

Three grids reproduced by the ``tables`` command and used by the
duplication protocol:

* mean p-values under the true model, by shape and sample size;
* the sample size at which testing the normal hypothesis against SN(alpha)
  data tips below the 5% level (mean-p criterion);
* exact kurtosis/skewness values by shape.

The mean p-value grid embeds the conventions of the original
implementation (see ``legacy`` in the asymptotics and testing modules),
and so does the rejection-size grid: with N(0, 1) data tested against
alpha = 6 at n = 120, the mean p-value is 0.0524 under the legacy
conventions and 0.0019 under the exact ones, so the reference sizes sit
near the legacy crossings. ``tables --which 2`` searches under the exact
conventions and lands away from them. The shape grid is exact and does
not depend on the conventions.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "REFERENCE_MEAN_PVALUES",
    "REFERENCE_REJECTION_SIZES",
    "REFERENCE_SHAPE_VALUES",
    "rejection_size_hint",
]

# Mean p-value (percent) of the true-model test, keyed by (sample size, alpha).
REFERENCE_MEAN_PVALUES: dict[tuple[int, float], float] = {
    (2, 0.1): 73.21, (2, 0.5): 73.30, (2, 1.0): 75.5, (2, 1.5): 79.79,
    (2, 6.0): 92.21, (2, 10.0): 92.32,
    (10, 0.1): 60.77, (10, 0.5): 65.39, (10, 1.0): 64.34, (10, 1.5): 69.9,
    (10, 6.0): 81.74, (10, 10.0): 82.27,
}

# Sample size needed to reject normality when the data follow SN(alpha).
REFERENCE_REJECTION_SIZES: dict[float, int] = {
    0.1: 1_000_000,
    0.5: 100_000,
    1.0: 3_200,
    1.5: 750,
    6.0: 130,
    10.0: 118,
}

# (kurtosis, skewness) by alpha, two-decimal reference rendering.
REFERENCE_SHAPE_VALUES: dict[float, tuple[float, float]] = {
    0.1: (3.00001, 0.0002),
    0.5: (3.0069, 0.024),
    1.0: (3.06, 0.14),
    1.5: (3.18, 0.30),
    5.0: (3.7, 0.85),
    6.0: (3.75, 0.89),
    10.0: (3.82, 0.96),
}

_GRID = sorted(REFERENCE_REJECTION_SIZES)
_LOG_A = [math.log(a) for a in _GRID]
_LOG_N = [math.log(REFERENCE_REJECTION_SIZES[a]) for a in _GRID]


def rejection_size_hint(alpha: float) -> int:
    """Sample size indicated for rejecting normality against SN(|alpha|).

    Log-log interpolation on the reference grid, clamped at its ends.
    """
    la = math.log(max(abs(alpha), _GRID[0]))
    return int(round(math.exp(np.interp(la, _LOG_A, _LOG_N))))
