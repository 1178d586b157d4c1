"""Generalized Jarque-Bera (GJB) goodness-of-fit test for skew-normal data.

The test compares the empirical skewness and kurtosis of a sample against
their exact values under a hypothesized SN(alpha), normalized by the
asymptotic covariance built from the law's first eight moments; the
statistic is asymptotically chi-squared with 2 degrees of freedom.
"""

from .distributions import SkewNormalShape, delta_of_alpha, sample_sn, sn_pdf
from .errors import (
    DegenerateSampleError,
    DomainError,
    EmptyInputError,
    GJBError,
    SampleParseError,
    SingularCovarianceError,
)
from .moments import (
    ShapeStatistics,
    analytic_shape_statistics,
    centered_moment,
    shape_statistics,
    sn_raw_moments,
)
from .asymptotics import (
    CovarianceMatrix2,
    chi2_survival,
    influence_polynomials,
    sigma_analytic,
    sigma_monte_carlo,
)
from .testing import (
    CampaignConfig,
    DecisionOutcome,
    SizeSearchResult,
    TestOutcome,
    duplication_decision,
    empirical_shape,
    estimate_alpha,
    gjb_statistic,
    rejection_size_search,
    run_test,
    simulate_alternative,
    simulate_campaigns,
)

__version__ = "0.1.0"

__all__ = [
    "SkewNormalShape",
    "delta_of_alpha",
    "sn_pdf",
    "sample_sn",
    "ShapeStatistics",
    "sn_raw_moments",
    "centered_moment",
    "shape_statistics",
    "analytic_shape_statistics",
    "CovarianceMatrix2",
    "influence_polynomials",
    "sigma_analytic",
    "sigma_monte_carlo",
    "chi2_survival",
    "TestOutcome",
    "CampaignConfig",
    "SizeSearchResult",
    "DecisionOutcome",
    "empirical_shape",
    "gjb_statistic",
    "run_test",
    "simulate_alternative",
    "simulate_campaigns",
    "rejection_size_search",
    "estimate_alpha",
    "duplication_decision",
    "GJBError",
    "DomainError",
    "DegenerateSampleError",
    "SingularCovarianceError",
    "SampleParseError",
    "EmptyInputError",
    "__version__",
]
