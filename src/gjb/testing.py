"""The GJB test for skew-normal data, simulation campaigns, and the
sample-duplication decision protocol.

Empirical shape statistics use the 1/n moment convention by default:

    a_n = (n^-1 sum (X_i - mean)^4) / (n^-1 sum (X_i - mean)^2)^2
    b_n = (n^-1 sum (X_i - mean)^3) / (n^-1 sum (X_i - mean)^2)^(3/2)

``ddof=1`` (and the campaign-level ``legacy`` switch) instead scales the
denominators by the unbiased sample variance, matching the test's original
implementation; the built-in reference grid of mean p-values embeds that
convention together with the legacy covariance variant, so table
reproduction runs with ``legacy=True`` while everything else defaults to
the exact machinery.

The statistic for a hypothesized shape alpha, with theoretical (a, b) and
covariance Sigma at that shape, is

    J_n = n [S22 (a_n-a)^2 + S11 (b_n-b)^2 - 2 S12 (a_n-a)(b_n-b)] / det(Sigma)

asymptotically chi-squared with 2 degrees of freedom, so p = exp(-J_n/2).
Duplicating a sample k times leaves (a_n, b_n) unchanged and multiplies
J_n by exactly k.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .asymptotics import (
    CovarianceMatrix2,
    chi2_survival,
    sigma_analytic,
    sigma_monte_carlo,
)
from .distributions import SkewNormalShape, fill_sn
from .errors import DegenerateSampleError, DomainError, SingularCovarianceError
from .moments import delta_from_skewness, shape_statistics, sn_raw_moments
from .reference import rejection_size_hint
# substream is unused here, but bench/tests/test_bench.py checks that the
# traced run rebinds gjb.testing.substream; drop it together with that check.
from .rng import chunk_rows, map_replicates, substream  # noqa: F401

__all__ = [
    "TestOutcome",
    "CampaignConfig",
    "CampaignResult",
    "SizeSearchResult",
    "DecisionOutcome",
    "SKEWNESS_CLAMP",
    "empirical_shape",
    "gjb_statistic",
    "run_test",
    "simulate_true_model",
    "simulate_alternative",
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
    """Result of one GJB test run."""

    __test__ = False  # not a pytest class, despite the name

    n: int
    a_n: float
    b_n: float
    a: float
    b: float
    j_n: float
    p_value: float
    sigma: CovarianceMatrix2
    duplication_factor: int
    verdict: str


@dataclass(frozen=True)
class CampaignConfig:
    """Configuration of a simulation campaign."""

    alpha: float
    sample_size: int
    replications: int
    seed: int
    sigma_route: str = "analytic"
    legacy: bool = False

    def __post_init__(self):
        if self.replications < 1:
            raise DomainError(f"need replications >= 1, got {self.replications}")
        if self.sample_size < 2:
            raise DomainError(f"need sample_size >= 2, got {self.sample_size}")
        if self.sigma_route not in _SIGMA_ROUTES:
            raise DomainError(
                f"sigma_route must be one of {_SIGMA_ROUTES}, got {self.sigma_route!r}"
            )


@dataclass(frozen=True)
class CampaignResult:
    mean_p_value: float
    p_values: np.ndarray


@dataclass(frozen=True)
class SizeSearchResult:
    """Outcome of the geometric-grid search for the normality-rejection size."""

    alpha: float
    level: float
    n: int | None
    capped: bool
    trace: list[tuple[int, float]] = field(default_factory=list)


@dataclass(frozen=True)
class DecisionOutcome:
    """Verdict of the duplication protocol plus the underlying test."""

    verdict: str
    alpha_hat: float
    ci_low: float
    ci_high: float
    duplication_factor: int
    capped: bool
    test: TestOutcome


def _skew_rows(xs: np.ndarray, ddof: int, dev: np.ndarray, d2: np.ndarray):
    """Empirical skewness b_n of each row of a ``(rows, n)`` block, its
    variance (``n - ddof`` denominator) and the mask of constant rows, which
    score b_n = 0 (no asymmetry evidence).

    ``dev`` and ``d2`` are caller-owned scratch of the block's shape: the
    kernel allocates nothing of that size, and leaves the squared deviations
    in ``d2``.
    """
    n = xs.shape[1]
    mean = xs.mean(axis=1)
    np.subtract(xs, mean[:, None], out=dev)
    np.multiply(dev, dev, out=d2)
    v = d2.sum(axis=1) / (n - ddof)
    mu3 = np.multiply(d2, dev, out=dev).mean(axis=1)
    # the float mean of a constant row can miss its value by a few ulps and
    # leave v tiny but nonzero; rows with v that small are checked exactly
    constant = v == 0.0
    tiny = np.flatnonzero(v <= (n * _EPS * mean) ** 2)
    constant[tiny] |= (xs[tiny] == xs[tiny, :1]).all(axis=1)
    b_n = np.divide(mu3, v**1.5, out=np.zeros_like(v), where=~constant)
    return b_n, v, constant


def _shape_rows(xs: np.ndarray, ddof: int = 0):
    """Empirical (a_n, b_n) of each row of a ``(rows, n)`` block, and the mask
    of constant rows, which score b_n = 0 (no asymmetry evidence), a_n = nan."""
    d2 = np.empty_like(xs)
    b_n, v, constant = _skew_rows(xs, ddof, np.empty_like(xs), d2)
    mu4 = np.multiply(d2, d2, out=d2).mean(axis=1)
    a_n = np.divide(mu4, v * v, out=np.full_like(v, np.nan), where=~constant)
    return a_n, b_n, constant


def _scale_and_centre(x: np.ndarray) -> np.ndarray:
    """``x`` times the power of two that brings max|x| into [0.5, 1), then
    centred on its mean.

    Scaling by a power of two is exact, so (a_n, b_n) are unchanged, while
    the 4th powers in :func:`_shape_rows` can no longer overflow or underflow
    whatever the scale of the data. Centring once here leaves
    :func:`_shape_rows` only a tiny residual mean to subtract, which
    corrects the rounding of the first one (a corrected two-pass mean), so
    an offset in the data costs little beyond the rounding in its values.
    """
    _, e = np.frexp(np.max(np.abs(x)))
    y = np.ldexp(x, -e)
    return y - y.mean(axis=-1, keepdims=True)


def empirical_shape(sample, ddof: int = 0) -> tuple[float, float]:
    """Empirical kurtosis and skewness (a_n, b_n) of a sample.

    ``ddof=0`` is the 1/n convention throughout; ``ddof=1`` scales the
    denominators by the unbiased sample variance instead (numerators stay
    1/n averages). This is the library's entry check on a sample: it must
    hold at least 2 values, all finite, not all equal.
    """
    x = np.asarray(sample, dtype=float).reshape(1, -1)
    n = x.size
    if n < 2:
        raise DegenerateSampleError(f"need at least 2 observations, got {n}")
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise DomainError(f"sample has a non-finite value at index {bad[0]}: {x.flat[bad[0]]}")
    a_n, b_n, constant = _shape_rows(_scale_and_centre(x), ddof)
    if constant[0]:
        raise DegenerateSampleError("sample is constant (zero variance)")
    return float(a_n[0]), float(b_n[0])


def gjb_statistic(
    a_n: float,
    b_n: float,
    a: float,
    b: float,
    sigma: CovarianceMatrix2,
    n: int,
) -> float | np.ndarray:
    """Quadratic form n (deviations)' Sigma^-1 (deviations), expanded;
    elementwise when ``a_n`` and ``b_n`` are arrays."""
    det = sigma.det
    if det <= 1e-12 * abs(sigma.s11 * sigma.s22):
        raise SingularCovarianceError(f"covariance is singular (det={det})")
    da = a_n - a
    db = b_n - b
    quad = (sigma.s22 * da * da + sigma.s11 * db * db - 2.0 * sigma.s12 * da * db) / det
    return n * quad


# Monte-Carlo covariance budget: replicates x variates per replicate.
_MC_BUDGET = (10_000, 1_000)


def _check_level(level: float) -> None:
    if not 0.0 < level < 1.0:
        raise DomainError(f"level must be in (0, 1), got {level}")


def _sigma_for(
    shape: SkewNormalShape, route: str, seed: int, *, legacy: bool
) -> CovarianceMatrix2:
    if route == "analytic":
        return sigma_analytic(sn_raw_moments(shape), legacy=legacy)
    if route == "monte-carlo":
        return sigma_monte_carlo(shape, *_MC_BUDGET, seed, legacy=legacy)
    raise DomainError(f"sigma_route must be one of {_SIGMA_ROUTES}, got {route!r}")


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
    covariance route.
    """
    if duplication_factor < 1:
        raise DomainError(f"need duplication_factor >= 1, got {duplication_factor}")
    _check_level(level)
    x = np.asarray(sample, dtype=float)
    shape = SkewNormalShape(alpha)
    a_n, b_n = empirical_shape(x, ddof=1 if legacy else 0)
    ab = shape_statistics(sn_raw_moments(shape))
    sigma = _sigma_for(shape, sigma_route, seed, legacy=legacy)
    j_base = gjb_statistic(a_n, b_n, ab.kurtosis, ab.skewness, sigma, x.size)
    j_n = duplication_factor * j_base
    p = chi2_survival(j_n)
    return TestOutcome(
        n=duplication_factor * x.size,
        a_n=a_n,
        b_n=b_n,
        a=ab.kurtosis,
        b=ab.skewness,
        j_n=j_n,
        p_value=p,
        sigma=sigma,
        duplication_factor=duplication_factor,
        verdict="reject" if p < level else "accept",
    )


def _campaign(config: CampaignConfig, data_alpha: float | None) -> CampaignResult:
    """Replicate the test at config.alpha over samples from the data law.

    ``data_alpha=None`` draws standard normal data; otherwise SN(data_alpha).
    Replicates are drawn under the campaign key prefix ``(0,)``.
    """
    shape = SkewNormalShape(config.alpha)
    ab = shape_statistics(sn_raw_moments(shape))
    sigma = _sigma_for(shape, config.sigma_route, config.seed, legacy=config.legacy)
    n = config.sample_size
    ddof = 1 if config.legacy else 0
    d = 0.0 if data_alpha is None else SkewNormalShape(data_alpha).delta

    def draw(g: np.random.Generator, rows: np.ndarray) -> None:
        if d == 0.0:
            g.standard_normal(out=rows)
        else:
            fill_sn(g, rows, d)

    def p_values(xs: np.ndarray) -> np.ndarray:
        a_n, b_n, constant = _shape_rows(xs, ddof)
        if constant.any():
            raise DegenerateSampleError("a replicate sample is constant (zero variance)")
        j = gjb_statistic(a_n, b_n, ab.kurtosis, ab.skewness, sigma, n)
        return chi2_survival(j)

    ps = map_replicates(
        draw, p_values, config.replications, n, config.seed, key_prefix=(0,)
    )
    return CampaignResult(mean_p_value=float(ps.mean()), p_values=ps)


def simulate_true_model(config: CampaignConfig) -> CampaignResult:
    """Mean p-value when the data really follow SN(config.alpha)."""
    return _campaign(config, data_alpha=config.alpha)


def simulate_alternative(
    config: CampaignConfig, data_alpha: float | None = None
) -> CampaignResult:
    """Mean p-value when the data follow another law (default: N(0,1)).

    The test still hypothesizes SN(config.alpha); this measures power.
    """
    return _campaign(config, data_alpha=data_alpha)


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
    raising.
    """
    if alpha == 0.0:
        raise DomainError("alpha must be nonzero (the alternative is N(0,1))")
    _check_level(level)
    if start < 2:
        raise DomainError(f"need start >= 2, got {start}")
    trace: list[tuple[int, float]] = []
    n = start
    while n <= cap:
        config = CampaignConfig(alpha=alpha, sample_size=n, replications=reps, seed=seed)
        mean_p = simulate_alternative(config, data_alpha=None).mean_p_value
        trace.append((n, mean_p))
        if mean_p < level:
            return SizeSearchResult(alpha=alpha, level=level, n=n, capped=False, trace=trace)
        n *= 2
    return SizeSearchResult(alpha=alpha, level=level, n=None, capped=True, trace=trace)


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
    x = np.asarray(sample, dtype=float)
    if x.size < 3:
        raise DegenerateSampleError(f"need at least 3 observations, got {x.size}")
    _, b_n = empirical_shape(x)
    return float(_alpha_from_skewness(b_n)), abs(b_n) > SKEWNESS_CLAMP


def estimate_alpha(sample) -> float:
    """Method-of-moments estimate of the shape parameter."""
    return estimate_alpha_with_flag(sample)[0]


def _bootstrap_alphas(x: np.ndarray, resamples: int, seed: int) -> np.ndarray:
    """Shape estimates of ``resamples`` resamples of ``x`` with replacement,
    drawn under the bootstrap key prefix ``(1,)``."""
    n = x.size
    # skewness scratch for one stream chunk, reused by every chunk
    dev, d2 = np.empty((2, min(chunk_rows(n), resamples), n))

    def draw(g: np.random.Generator, rows: np.ndarray) -> None:
        # the indices are in range by construction; mode="clip" spares the
        # buffered copy of ``out`` that the default mode="raise" makes
        np.take(x, g.integers(0, n, size=rows.shape), out=rows, mode="clip")

    def skewness(xs: np.ndarray) -> np.ndarray:
        r = len(xs)
        return _skew_rows(xs, 0, dev[:r], d2[:r])[0]

    b = map_replicates(draw, skewness, resamples, n, seed, key_prefix=(1,))
    return _alpha_from_skewness(b)


def duplication_decision(
    sample,
    level: float = 0.05,
    k_cap: int = 20_000,
    seed: int = 0,
    *,
    resamples: int = 1_000,
) -> DecisionOutcome:
    """Decide between symmetry and non-normality by sample duplication.

    Protocol: (i) bootstrap 95% percentile confidence bounds [c, d] for the
    moment estimate of alpha (``resamples`` draws with replacement);
    (ii) if c < 0.5 the shape is indistinguishable from symmetric, accept;
    (iii) otherwise duplicate the sample so its total size reaches the
    reference rejection size for alpha-hat (capped by ``k_cap`` copies and
    a total of 10^6), test the normal hypothesis, and reject when
    p < level; (iv) a non-rejection is inconclusive rather than an accept,
    since the shape estimate already pointed away from symmetry.

    The rule follows the positive-shape convention: left-skewed data give a
    negative alpha-hat and therefore an accept; reflect the sample first to
    screen for left-skewed alternatives.
    """
    x = np.asarray(sample, dtype=float)
    n = x.size
    if resamples < 1:
        raise DomainError(f"need resamples >= 1, got {resamples}")
    if k_cap < 1:
        raise DomainError(f"need k_cap >= 1, got {k_cap}")
    _check_level(level)

    alpha_hat, _ = estimate_alpha_with_flag(x)  # also checks the sample
    x = _scale_and_centre(x)
    boot_alpha = _bootstrap_alphas(x, resamples, seed)
    # tail of the 95% bounds: seeded CIs are pinned to this float
    # (2.500000000000002); the literal 2.5 moves them in the last digit
    tail = 100.0 * (1.0 - 0.95) / 2.0
    ci_low, ci_high = np.percentile(boot_alpha, [tail, 100.0 - tail])

    symmetric = ci_low < 0.5
    if symmetric:
        k, capped = 1, False
    else:
        k_needed = max(1, -(-rejection_size_hint(alpha_hat) // n))
        k = min(k_needed, k_cap, max(1, 1_000_000 // n))
        capped = k < k_needed
    test = run_test(x, 0.0, duplication_factor=k, level=level)
    if symmetric:
        verdict = "accept-symmetry"
    else:
        verdict = "reject-normality" if test.p_value < level else "inconclusive"
    return DecisionOutcome(
        verdict=verdict,
        alpha_hat=alpha_hat,
        ci_low=float(ci_low),
        ci_high=float(ci_high),
        duplication_factor=k,
        capped=capped,
        test=test,
    )
