"""The GJB test for skew-normal data, simulation campaigns, and the
sample-duplication decision protocol.

Empirical shape statistics use the 1/n moment convention by default:

    a_n = (n^-1 sum (X_i - mean)^4) / (n^-1 sum (X_i - mean)^2)^2
    b_n = (n^-1 sum (X_i - mean)^3) / (n^-1 sum (X_i - mean)^2)^(3/2)

``legacy=True`` instead scales the denominators by the unbiased sample
variance, matching the test's original implementation; the built-in
reference grid of mean p-values embeds that convention together with the
legacy covariance variant, so table reproduction runs with
``legacy=True`` while everything else defaults to the exact machinery.
Every function that takes a sample reads it flattened, through one entry
that checks it.

The statistic for a hypothesized shape alpha, with theoretical (a, b) and
covariance Sigma at that shape, is

    J_n = n [S22 (a_n-a)^2 + S11 (b_n-b)^2 - 2 S12 (a_n-a)(b_n-b)] / det(Sigma)

asymptotically chi-squared with 2 degrees of freedom, so p = exp(-J_n/2).
Duplicating a sample k times leaves (a_n, b_n) unchanged and multiplies
J_n by exactly k.

A :class:`CampaignConfig` holds what a grid of campaigns shares: sample
size, replications, seed, covariance route and conventions. The shapes are
arguments of the campaign functions. Campaigns key their replicate stream
by their seed alone, under the campaign prefix ``(0,)``, not by the shape:
campaigns with the same seed and sample size test their shapes on the same
standard normals (common random numbers), so their mean p-values are
correlated estimates. ``simulate_campaigns(config, alphas, data_alphas)``
evaluates several shapes from one draw per stream chunk, building and
reducing their samples one shape at a time in one block, and draws nothing
at n = 2, where every sample has one (a_n, b_n);
``simulate_alternative(config, alpha, data_alpha)`` and
``simulate_true_model(config, alpha)`` are its one-shape calls. Rows
shorter than 16 values are summed left to right, a column at a time
(:func:`_row_sums`); longer rows use numpy's own row reduction.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import (
    CovarianceMatrix2,
    _horner,
    _sigmas_analytic,
    chi2_survival,
    influence_polynomials,
    sigma_monte_carlo,
)
from .distributions import SkewNormalShape, delta_of_alpha, sn_from_normals
from .errors import DegenerateSampleError, DomainError
from .moments import _centered_moments, _raw_moments, _shape_statistics, delta_from_skewness
from .reference import rejection_size_hint
# substream is unused here, but bench/tests/test_bench.py checks that the
# traced run rebinds gjb.testing.substream; drop it together with that check.
from .rng import _check_count, map_replicates, substream  # noqa: F401

__all__ = [
    "TestOutcome",
    "CampaignConfig",
    "SizeSearchResult",
    "DecisionOutcome",
    "SKEWNESS_CLAMP",
    "empirical_shape",
    "gjb_statistic",
    "run_test",
    "simulate_true_model",
    "simulate_alternative",
    "simulate_campaigns",
    "rejection_size_search",
    "estimate_alpha",
    "estimate_alpha_with_flag",
    "duplication_decision",
]

# Empirical skewness is clamped to this range before inversion; it sits just
# inside the family's attainable supremum (~0.99527) and maps to alpha ~ 240.
SKEWNESS_CLAMP = 0.9952

_SIGMA_ROUTES = ("analytic", "monte-carlo")

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class TestOutcome:
    """Result of one GJB test run; ``alpha`` is the hypothesized shape.

    The fields are the keys of the test report (:func:`gjb.io.test_report`),
    in the report's order.
    """

    __test__ = False  # not a pytest class, despite the name

    alpha: float
    n: int
    duplication_factor: int
    a_n: float
    b_n: float
    a: float
    b: float
    sigma: CovarianceMatrix2
    j_n: float
    p_value: float
    verdict: str


@dataclass(frozen=True)
class CampaignConfig:
    """Settings a simulation campaign shares with the others of its grid;
    the shapes it tests and draws from are arguments of the campaign
    functions."""

    sample_size: int
    replications: int
    seed: int
    sigma_route: str = "analytic"
    legacy: bool = False

    def __post_init__(self):
        _check_count("replications", self.replications, 1, width=1)
        _check_count("sample_size", self.sample_size, 2, width=2)  # an SN row's n pairs
        _check_count("seed", self.seed, 0)
        if self.sigma_route not in _SIGMA_ROUTES:
            raise DomainError(
                f"sigma_route must be one of {_SIGMA_ROUTES}, got {self.sigma_route!r}"
            )


@dataclass(frozen=True)
class SizeSearchResult:
    """Outcome of the geometric-grid search for the normality-rejection size."""

    n: int | None  # None: no crossing up to the cap
    trace: list[tuple[int, float]] = field(default_factory=list)

    @property
    def capped(self) -> bool:
        return self.n is None


@dataclass(frozen=True)
class DecisionOutcome:
    """Verdict of the duplication protocol plus the underlying test."""

    verdict: str
    alpha_hat: float
    ci_low: float
    ci_high: float
    capped: bool
    test: TestOutcome

    @property
    def duplication_factor(self) -> int:
        return self.test.duplication_factor

    @property
    def ci_method(self) -> str:
        """How ``[ci_low, ci_high]`` was found: ``"influence"`` for a sample
        of at least ``_INFLUENCE_MIN_N`` values, else ``"bootstrap"``."""
        return _ci_method(self.test.n // self.test.duplication_factor)


# Rows shorter than this are summed column by column (:func:`_row_sums`).
# Measured with numpy 2.4 on a 2-vCPU x86-64 host, on blocks of 2^16
# values (median of 15 timings): the loop takes 0.09-0.59 of
# ``sum(axis=1)``'s time from 2 to 15 values a row, 0.8 at 16-20 and 1.4
# at 32. From 16 on the gain shrinks, while the loop's error bound keeps
# growing with n (the pairwise sum's grows with log2 n).
_COLUMN_SUM_BELOW = 16


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Sum of each row of a 2-d float array.

    numpy's ``sum(axis=1)`` costs about 25 ns a row however short, so rows
    shorter than ``_COLUMN_SUM_BELOW`` values are summed left to right, a
    column at a time, from ``x0 + 0.0`` (so a row of -0.0 sums to +0.0, as
    in numpy). Its error is at most (n-1) eps/2 times the sum of |x_i|
    (Higham 1993), so below 7 eps times it here. Longer rows keep
    ``sum(axis=1)``.
    """
    n = x.shape[1]
    if n >= _COLUMN_SUM_BELOW:
        return x.sum(axis=1)
    s = x[:, 0] + 0.0
    for j in range(1, n):
        s += x[:, j]
    return s


def _skew_rows(xs: np.ndarray, d2: np.ndarray, *, legacy: bool = False):
    """Empirical skewness b_n of each row of a ``(rows, n)`` block, its
    variance (denominator n, or n - 1 under ``legacy``) and the mask of
    constant rows, which score b_n = 0 (no asymmetry evidence).

    The block is overwritten: it holds the deviations from the row means
    while they are needed, then their cubes. ``d2`` is caller-owned scratch
    of the block's shape, so the kernel allocates nothing of that size; it
    is left holding the squared deviations. Every row mean and moment is a
    :func:`_row_sums` over n.
    """
    n = xs.shape[1]
    mean = _row_sums(xs) / n
    dev = np.subtract(xs, mean[:, None], out=xs)
    np.multiply(dev, dev, out=d2)
    v = _row_sums(d2) / (n - 1 if legacy else n)
    # the float mean of a constant row can miss its value by a few ulps and
    # leave v tiny but nonzero; rows with v that small are checked exactly.
    # Their deviations are at most about n^1.5 eps |mean|, so for any n below
    # 10^10 each value is within a factor 2 of the mean, subtracting it is
    # exact, and equal deviations mean equal values.
    constant = v == 0.0
    tiny = np.flatnonzero(v <= (n * _EPS * mean) ** 2)
    if tiny.size:
        constant[tiny] |= (dev[tiny] == dev[tiny, :1]).all(axis=1)
    mu3 = _row_sums(np.multiply(d2, dev, out=dev)) / n
    b_n = np.divide(mu3, v**1.5, out=np.zeros_like(v), where=~constant)
    return b_n, v, constant


def _shape_rows(xs: np.ndarray, d2: np.ndarray, *, legacy: bool = False):
    """Empirical (a_n, b_n) of each row of a ``(rows, n)`` block, and the mask
    of constant rows, which score b_n = 0 (no asymmetry evidence), a_n = nan.

    Overwrites the block and the scratch ``d2`` of its shape, like
    :func:`_skew_rows`.
    """
    b_n, v, constant = _skew_rows(xs, d2, legacy=legacy)
    mu4 = _row_sums(np.multiply(d2, d2, out=d2)) / xs.shape[1]
    a_n = np.divide(mu4, v * v, out=np.full_like(v, np.nan), where=~constant)
    return a_n, b_n, constant


def _prepare_sample(sample, min_n: int = 2) -> np.ndarray:
    """The library's entry for a sample: flattened to a float array of at
    least ``min_n`` values, all finite, times the power of two that brings
    max|x| into [0.5, 1), then centred on its mean.

    Scaling by a power of two is exact, so (a_n, b_n) are unchanged, while
    the 4th powers in :func:`_shape_rows` can no longer overflow or underflow
    whatever the scale of the data. Centring once here leaves
    :func:`_shape_rows` only a tiny residual mean to subtract, which
    corrects the rounding of the first one (a corrected two-pass mean), so
    an offset in the data costs little beyond the rounding in its values.
    """
    x = np.asarray(sample, dtype=float).ravel()
    if x.size < min_n:
        raise DegenerateSampleError(f"need at least {min_n} observations, got {x.size}")
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise DomainError(f"sample has a non-finite value at index {bad[0]}: {x[bad[0]]}")
    _, e = np.frexp(np.max(np.abs(x)))
    y = np.ldexp(x, -e)
    return y - y.mean()


def _shape_of(y: np.ndarray, *, legacy: bool = False) -> tuple[float, float]:
    """(a_n, b_n) of a sample prepared by :func:`_prepare_sample`; ``y`` is
    overwritten. A constant sample raises."""
    a_n, b_n, constant = _shape_rows(y[None], np.empty((1, y.size)), legacy=legacy)
    if constant[0]:
        raise DegenerateSampleError("sample is constant (zero variance)")
    return float(a_n[0]), float(b_n[0])


def empirical_shape(sample, *, legacy: bool = False) -> tuple[float, float]:
    """Empirical kurtosis and skewness (a_n, b_n) of a sample.

    The default is the 1/n convention throughout; ``legacy=True`` scales the
    denominators by the unbiased sample variance instead (numerators stay
    1/n averages). The sample must hold at least 2 values, all finite, not
    all equal.
    """
    return _shape_of(_prepare_sample(sample), legacy=legacy)


def gjb_statistic(
    a_n: float,
    b_n: float,
    a: float,
    b: float,
    sigma: CovarianceMatrix2,
    n: int,
) -> float | np.ndarray:
    """Quadratic form n (deviations)' Sigma^-1 (deviations), expanded;
    elementwise when ``a_n`` and ``b_n`` are arrays. ``sigma`` is nonsingular
    by construction (see :class:`CovarianceMatrix2`)."""
    da = a_n - a
    db = b_n - b
    quad = (sigma.s22 * da * da + sigma.s11 * db * db - 2.0 * sigma.s12 * da * db) / sigma.det
    return n * quad


# Monte-Carlo covariance budget: replicates x variates per replicate.
_MC_BUDGET = (10_000, 1_000)


def _check_level(level: float) -> None:
    if not 0.0 < level < 1.0:
        raise DomainError(f"level must be in (0, 1), got {level}")


def _null_laws(
    alphas: Sequence[float], route: str, seed: int, *, legacy: bool
) -> list[tuple[float, float, CovarianceMatrix2]]:
    """Theoretical kurtosis a and skewness b of SN(alpha) and the covariance
    Sigma by ``route`` for each of ``alphas``, from one evaluation of the raw
    moments over the array of shapes.

    Each record is ``(a, b, sigma)``, in the order of :func:`gjb_statistic`'s
    ``a, b, sigma`` arguments, so a law is passed on as ``*law``.

    (a, b) and the analytic Sigma are computed for all shapes at once, and
    each Sigma is built, and so checked, on its own; the Monte-Carlo route
    estimates one Sigma per shape.
    """
    if route not in _SIGMA_ROUTES:
        raise DomainError(f"sigma_route must be one of {_SIGMA_ROUTES}, got {route!r}")
    # a (9,) raw for one shape, which numpy runs on scalars
    raw = _raw_moments(np.array([delta_of_alpha(alpha) for alpha in alphas]).squeeze())
    mu = _centered_moments(raw)
    b, a = _shape_statistics(*mu)  # (skewness, kurtosis)
    if route == "analytic":
        sigmas = _sigmas_analytic(raw, mu, legacy=legacy)
    else:
        sigmas = [
            sigma_monte_carlo(SkewNormalShape(alpha), *_MC_BUDGET, seed, legacy=legacy)
            for alpha in alphas
        ]
    return list(zip(np.atleast_1d(a).tolist(), np.atleast_1d(b).tolist(), sigmas))


def run_test(
    sample,
    alpha: float,
    *,
    sigma_route: str = "analytic",
    duplication_factor: int = 1,
    seed: int = 0,
    legacy: bool = False,
    level: float = 0.05,
) -> TestOutcome:
    """Test whether ``sample`` comes from SN(alpha).

    ``duplication_factor=k`` evaluates the test on k concatenated copies of
    the sample: (a_n, b_n) are unchanged and the statistic is exactly
    k times the single-copy one. ``seed`` only matters for the monte-carlo
    covariance route, and is checked on either.
    """
    _check_count("duplication_factor", duplication_factor, 1)
    _check_count("seed", seed, 0)
    _check_level(level)
    n = np.size(sample)
    a_n, b_n = empirical_shape(sample, legacy=legacy)
    return _outcome(a_n, b_n, n, alpha, duplication_factor, level, sigma_route, seed, legacy)


def _outcome(
    a_n: float, b_n: float, n: int, alpha: float, k: int, level: float,
    sigma_route: str = "analytic", seed: int = 0, legacy: bool = False,
) -> TestOutcome:
    """The test of SN(alpha) on k copies of a sample of n values whose
    shape statistics are (a_n, b_n)."""
    [(a, b, sigma)] = _null_laws([alpha], sigma_route, seed, legacy=legacy)
    j = gjb_statistic(a_n, b_n, a, b, sigma, n)
    try:
        j_n = k * j
    except OverflowError:  # k itself is past the float range
        j_n = math.inf
    if not math.isfinite(j_n):
        raise DomainError(f"duplication_factor must keep k * J_n finite, got {k}")
    p = chi2_survival(j_n)
    return TestOutcome(
        alpha=alpha,
        n=k * n,
        a_n=a_n,
        b_n=b_n,
        a=a,
        b=b,
        j_n=j_n,
        p_value=p,
        sigma=sigma,
        duplication_factor=k,
        verdict="reject" if p < level else "accept",
    )


def simulate_campaigns(
    config: CampaignConfig,
    alphas: Sequence[float],
    data_alphas: Sequence[float | None],
) -> np.ndarray:
    """Per-replicate p-values of the campaigns of ``config`` for several
    shapes, from one pass over the replicates.

    Row i tests SN(``alphas[i]``) on data drawn from SN(``data_alphas[i]``),
    or from N(0,1) for ``None``, and holds ``simulate_alternative(config,
    alphas[i], data_alphas[i])`` bit for bit. The rows share the replicate
    stream of ``config`` (common random numbers): each stream chunk of r rows
    is drawn once, and the shapes build their samples from those normals
    one at a time, each in the same sample block of the lane's own, where it
    is reduced. That block and its scratch hold at most R(n) n values each,
    whatever the shape count. The null laws of all the shapes come from one
    pass of :func:`_null_laws`.

    At ``sample_size=2`` nothing is drawn: any two distinct values are
    their mean -+ d, so every replicate has the (a_n, b_n) of [0, 1], and
    each row holds that pair's exact p, the same for every seed on the
    analytic route.
    """
    alphas, data_alphas = list(alphas), list(data_alphas)
    if not alphas:
        raise DomainError("need at least one alpha")
    if len(data_alphas) != len(alphas):
        raise DomainError(
            f"need one data_alpha per alpha, got {len(data_alphas)} for {len(alphas)}"
        )
    laws = _null_laws(alphas, config.sigma_route, config.seed, legacy=config.legacy)
    deltas = [0.0 if a is None else SkewNormalShape(a).delta for a in data_alphas]
    n = config.sample_size
    if n == 2:
        a_n, b_n = empirical_shape([0.0, 1.0], legacy=config.legacy)
        p = [chi2_survival(gjb_statistic(a_n, b_n, *law, 2)) for law in laws]
        return np.repeat(np.array(p)[:, None], config.replications, axis=1)

    def make_p_values(block: tuple[int, int]):
        samples, scratch = np.empty((2,) + block)  # the lane's own

        def p_values(z: np.ndarray) -> np.ndarray:
            r = len(z)
            xs, d2 = samples[:r], scratch[:r]
            # standard normal data are the chunk's first r * n normals, which
            # a draw of r * n alone would give; they are copied, not written
            normal = z.reshape(-1)[: r * n].reshape(r, n)
            j = np.empty((len(laws), r))
            for i, (law, delta) in enumerate(zip(laws, deltas)):
                if delta == 0.0:
                    xs[:] = normal
                else:
                    sn_from_normals(z, delta, xs, d2)
                a_n, b_n, constant = _shape_rows(xs, d2, legacy=config.legacy)
                if constant.any():
                    raise DegenerateSampleError("a replicate sample is constant (zero variance)")
                j[i] = gjb_statistic(a_n, b_n, *law, n)
            return chi2_survival(j).T

        return p_values

    p = map_replicates(
        lambda g, z: g.standard_normal(out=z), make_p_values, config.replications, n,
        config.seed, key_prefix=(0,), width=2 * n if any(deltas) else n,
    )
    return np.ascontiguousarray(p.T)


def simulate_alternative(
    config: CampaignConfig, alpha: float, data_alpha: float | None = None
) -> np.ndarray:
    """Per-replicate p-values of the test of SN(alpha) over the samples of
    ``config`` from the data law.

    ``data_alpha=None`` draws standard normal data, which measures power;
    otherwise SN(data_alpha). Replicates are drawn under the campaign key
    prefix ``(0,)``.
    """
    return simulate_campaigns(config, [alpha], [data_alpha])[0]


def simulate_true_model(config: CampaignConfig, alpha: float) -> np.ndarray:
    """Per-replicate p-values of the test of SN(alpha) over the samples of
    ``config`` when the data really follow SN(alpha)."""
    return simulate_alternative(config, alpha, data_alpha=alpha)


def rejection_size_search(
    alpha: float,
    level: float = 0.05,
    seed: int = 0,
    *,
    cap: int = 2_000_000,
    reps: int = 500,
    start: int = 10,
) -> SizeSearchResult:
    """Smallest n on the grid (start, 2*start, ...) at which the mean
    p-value of testing SN(alpha) against N(0,1) data drops below ``level``.

    Reaching ``cap`` without a crossing reports ``capped=True`` instead of
    raising; ``cap`` must be an integer, and one below ``start``, which
    would search no n, raises.
    """
    if alpha == 0.0:
        raise DomainError("alpha must be nonzero (the alternative is N(0,1))")
    _check_level(level)
    _check_count("reps", reps, 1)
    _check_count("start", start, 2)
    _check_count("cap", cap, start)
    trace: list[tuple[int, float]] = []
    n = start
    while n <= cap:
        config = CampaignConfig(sample_size=n, replications=reps, seed=seed)
        p = simulate_alternative(config, alpha)
        mean_p = float(p[0] + (p - p[0]).mean())  # exact when every p is equal
        trace.append((n, mean_p))
        if mean_p < level:
            return SizeSearchResult(n=n, trace=trace)
        n *= 2
    return SizeSearchResult(n=None, trace=trace)


def _alpha_from_skewness(b):
    """Shape parameter of the clamped skewness ``b`` (scalar or ndarray)."""
    d = delta_from_skewness(np.clip(b, -SKEWNESS_CLAMP, SKEWNESS_CLAMP))
    return d / np.sqrt(1.0 - d * d)


def estimate_alpha_with_flag(sample) -> tuple[float, bool]:
    """Method-of-moments shape estimate and whether the skewness was clamped.

    The empirical skewness (1/n convention) is clamped to the attainable
    range, then the strictly increasing skewness map is inverted in closed
    form for delta, and alpha = delta / sqrt(1 - delta^2).
    """
    _, b_n = _shape_of(_prepare_sample(sample, 3))
    return float(_alpha_from_skewness(b_n)), abs(b_n) > SKEWNESS_CLAMP


def estimate_alpha(sample) -> float:
    """Method-of-moments estimate of the shape parameter."""
    return estimate_alpha_with_flag(sample)[0]


# From this sample size on, duplication_decision bounds the shape by the
# influence-function interval instead of the bootstrap. The seeded agreement
# study in tests/influence_study.py puts the two intervals' endpoints closer
# together here than two bootstraps of the same sample on different seeds.
_INFLUENCE_MIN_N = 10_000

# the 0.975 quantile of the standard normal law
_Z_975 = 1.959963984540054


def _ci_method(n: int) -> str:
    return "influence" if n >= _INFLUENCE_MIN_N else "bootstrap"


def _influence_bounds(y: np.ndarray, b_n: float) -> np.ndarray:
    """Delta-method 95% bounds for the shape of the prepared sample ``y`` of
    skewness ``b_n``: ``b_n -+ z se`` mapped to alpha, with ``se`` the
    spread of the skewness influence function B over the sample, over
    sqrt(n) (Hampel 1974). O(n), and draws nothing."""
    n = y.size
    y2 = y * y
    raw = np.array([1.0, y.mean(), y2.mean(), (y2 * y).mean(), (y2 * y2).mean()])
    _, bb = influence_polynomials(raw)
    se = np.std(_horner(y, bb, y2)) / math.sqrt(n)
    return _alpha_from_skewness(np.array([b_n - _Z_975 * se, b_n + _Z_975 * se]))


def _bootstrap_alphas(x: np.ndarray, resamples: int, seed: int) -> np.ndarray:
    """Shape estimates of ``resamples`` resamples of ``x`` with replacement,
    drawn under the bootstrap key prefix ``(1,)``."""
    n = x.size

    def draw(g: np.random.Generator, rows: np.ndarray) -> None:
        # the indices are in range by construction; mode="clip" spares the
        # buffered copy of ``out`` that the default mode="raise" makes
        np.take(x, g.integers(0, n, size=rows.shape), out=rows, mode="clip")

    def make_skewness(block: tuple[int, int]):
        d2 = np.empty(block)  # the lane's skewness scratch
        return lambda xs: _skew_rows(xs, d2[: len(xs)])[0]

    b = map_replicates(draw, make_skewness, resamples, n, seed, key_prefix=(1,))
    return _alpha_from_skewness(b)


def _bootstrap_bounds(y: np.ndarray, resamples: int, seed: int) -> np.ndarray:
    """95% percentile bounds of the shape estimates of ``resamples``
    resamples of ``y``."""
    # tail of the 95% bounds: seeded CIs are pinned to this float
    # (2.500000000000002); the literal 2.5 moves them in the last digit
    tail = 100.0 * (1.0 - 0.95) / 2.0
    return np.percentile(_bootstrap_alphas(y, resamples, seed), [tail, 100.0 - tail])


def duplication_decision(
    sample,
    level: float = 0.05,
    k_cap: int = 20_000,
    seed: int = 0,
    *,
    resamples: int = 1_000,
) -> DecisionOutcome:
    """Decide between symmetry and non-normality by sample duplication.

    Protocol: (i) 95% confidence bounds [c, d] for the moment estimate of
    alpha: below ``_INFLUENCE_MIN_N`` values, bootstrap percentile bounds
    from ``resamples`` draws with replacement under ``seed``; from there
    on, the delta-method interval of the skewness influence function,
    which draws nothing, so ``resamples`` and ``seed`` do not affect the
    result (both are still checked); ``ci_method`` records which; (ii) if
    [c, d] meets (-0.5, 0.5) the shape is indistinguishable from
    symmetric, accept; (iii) otherwise duplicate the sample so its total
    size reaches the reference rejection size for |alpha-hat| (capped by
    ``k_cap`` copies and a total of 10^6), test the normal hypothesis, and
    reject when p < level; (iv) a non-rejection is inconclusive rather than
    an accept, since the shape estimate already pointed away from symmetry.

    The gate screens both sides: reflecting the sample gives the same
    verdict, copies and test, with alpha-hat and the bounds negated.
    """
    _check_count("resamples", resamples, 1, width=1)
    _check_count("seed", seed, 0)
    _check_count("k_cap", k_cap, 1)
    _check_level(level)

    y = _prepare_sample(sample, 3)
    n = y.size
    a_n, b_n = _shape_of(y.copy())
    alpha_hat = float(_alpha_from_skewness(b_n))
    if _ci_method(n) == "influence":
        ci_low, ci_high = _influence_bounds(y, b_n)
    else:
        ci_low, ci_high = _bootstrap_bounds(y, resamples, seed)

    symmetric = ci_low < 0.5 and ci_high > -0.5
    if symmetric:
        k, capped = 1, False
    else:
        k_needed = max(1, -(-rejection_size_hint(alpha_hat) // n))
        k = min(k_needed, k_cap, max(1, 1_000_000 // n))
        capped = k < k_needed
    test = _outcome(a_n, b_n, n, 0.0, k, level)
    if symmetric:
        verdict = "accept-symmetry"
    else:
        verdict = "reject-normality" if test.p_value < level else "inconclusive"
    return DecisionOutcome(
        verdict=verdict,
        alpha_hat=alpha_hat,
        ci_low=float(ci_low),
        ci_high=float(ci_high),
        capped=capped,
        test=test,
    )
