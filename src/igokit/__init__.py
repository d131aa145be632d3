"""igo-kit: natural-gradient black-box optimization over exponential families.

The package provides the quantile-based natural-gradient update family on
product Bernoulli and multivariate Gaussian search distributions, the named
algorithms it recovers (PBIL, pure rank-mu CMA-ES recombination, smoothed
cross-entropy/ML, RPP), an exact infinite-population oracle on enumerable
spaces that turns the monotone-improvement guarantees into deterministic
checks, and a seeded CLI experiment harness.
"""

from .algorithms import (
    ALGORITHMS,
    AlgorithmConfig,
    Trace,
    run,
)
from .diagnostics import (
    BoundReport,
    ImprovementStats,
    PreferenceEstimate,
    check_kl_expansion,
    empirical_quantile,
    estimate_J,
    finite_population_improvement,
    progress_bound,
)
from .errors import (
    CapacityError,
    DegenerateDistributionError,
    DomainExitError,
    IgoKitError,
    InvalidInputError,
)
from .models import Bernoulli, BernoulliParams, Gaussian, GaussianParams
from .objectives import OBJECTIVE_NAMES, Objective, make_objective
from .oracle import (
    FiniteDist,
    QuantileReport,
    bernoulli_support,
    enumerate_bernoulli,
    exact_J,
    exact_blockwise_coordinate_step,
    exact_infinite_population_step,
    exact_quantile,
)
from .selection import (
    SampleWeights,
    TabulatedScheme,
    TruncationScheme,
    preference_exact,
    rank_bounds,
    sample_weights,
)
from .traceio import TraceRecord
from .updates import (
    blockwise_igo_ml_step,
    fitness_proportional_step,
    igo_ml_step,
    igo_step,
    safeguarded_step,
)

__version__ = "0.1.0"
