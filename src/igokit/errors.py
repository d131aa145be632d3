"""Exception hierarchy for igo-kit.

Updates that would leave the valid open parameter region raise rather than
clamp or project, so callers (and the guarantee checks) observe the raw dynamics.
"""


class IgoKitError(Exception):
    """Base class for all igo-kit errors."""


class InvalidInputError(IgoKitError, ValueError):
    """Malformed or out-of-contract input: dimension mismatch, NaN fitness,
    non-normalized probabilities, bad configuration values."""


class CapacityError(IgoKitError):
    """Exact enumeration requested beyond the supported search-space size."""


class DomainExitError(IgoKitError):
    """An update produced parameters outside the valid open region
    (a Bernoulli coordinate left (0, 1), or an implied covariance lost
    positive definiteness)."""


class DegenerateDistributionError(DomainExitError):
    """Parameters describe a collapsed distribution: a boundary success
    probability, or a second-moment matrix whose implied covariance is not
    positive definite."""

