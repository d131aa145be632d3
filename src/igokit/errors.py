"""Exception hierarchy for igo-kit, and the number checks modules share.

Updates that would leave the valid open parameter region raise rather than
clamp or project, so callers (and the guarantee checks) observe the raw dynamics.
"""

import math
from typing import Callable


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


def _check_integer(key: str, value, minimum: int, requirement: str) -> None:
    """Raise ``InvalidInputError`` naming ``key`` unless ``value`` is a whole
    number no smaller than ``minimum``; a ``None`` or a non-number is refused
    the same way, never as a raw ``TypeError`` or ``ValueError``."""
    try:
        valid = int(value) == value and value >= minimum
    except (TypeError, ValueError, OverflowError):
        valid = False
    if not valid:
        raise InvalidInputError(f"{key}: {requirement}, got {value!r}")


def _check_real(key: str, value, requirement: str,
                accept: Callable[[float], bool] = math.isfinite) -> None:
    """As :func:`_check_integer`, for a real number (not a string, not NaN)
    that ``accept`` admits."""
    try:
        number = float(value)
        valid = number == value and bool(accept(number))
    except (TypeError, ValueError, OverflowError):
        valid = False
    if not valid:
        raise InvalidInputError(f"{key}: {requirement}, got {value!r}")
