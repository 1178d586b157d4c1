"""Log-log interpolation of the reference rejection sizes."""

import math

import numpy as np
import pytest

from gjb.reference import REFERENCE_REJECTION_SIZES, rejection_size_hint

GRID = sorted(REFERENCE_REJECTION_SIZES)


def bracket_hint(alpha):
    """The bracket-search form of the interpolation, kept as the reference."""
    a = abs(alpha)
    if a <= GRID[0]:
        return REFERENCE_REJECTION_SIZES[GRID[0]]
    if a >= GRID[-1]:
        return REFERENCE_REJECTION_SIZES[GRID[-1]]
    log_a = [math.log(g) for g in GRID]
    log_n = [math.log(REFERENCE_REJECTION_SIZES[g]) for g in GRID]
    la = math.log(a)
    for i in range(len(GRID) - 1):
        if log_a[i] <= la <= log_a[i + 1]:
            t = (la - log_a[i]) / (log_a[i + 1] - log_a[i])
            return int(round(math.exp(log_n[i] + t * (log_n[i + 1] - log_n[i]))))
    raise AssertionError("unreachable")


@pytest.mark.parametrize("alpha", GRID)
def test_grid_points_return_table_value(alpha):
    assert rejection_size_hint(alpha) == REFERENCE_REJECTION_SIZES[alpha]


@pytest.mark.parametrize("alpha,edge", [(0.0, GRID[0]), (1e-300, GRID[0]), (0.05, GRID[0]),
                                        (10.5, GRID[-1]), (1e6, GRID[-1])])
def test_ends_clamp(alpha, edge):
    assert rejection_size_hint(alpha) == REFERENCE_REJECTION_SIZES[edge]


def test_symmetric_in_sign():
    for alpha in np.geomspace(1e-3, 1e3, 200):
        assert rejection_size_hint(-alpha) == rejection_size_hint(alpha)


def test_matches_bracket_search_on_dense_grid():
    alphas = np.r_[np.geomspace(0.05, 20.0, 20_000), np.linspace(0.1, 10.0, 20_000)]
    for alpha in alphas:
        assert rejection_size_hint(alpha) == bracket_hint(alpha), alpha
