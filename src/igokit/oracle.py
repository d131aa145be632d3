"""Exact infinite-population computations on enumerable search spaces.

For product Bernoulli models with ``d <= 16`` the full support of ``2^d``
points is enumerated in a fixed lexicographic order, which makes every
expectation here an exact finite sum and every run bit-reproducible. These
functions are the ground truth against which the monotone-improvement
properties of the update rules are checked. The exact steps are the shipped
rules of :mod:`igokit.updates` run on the whole support with weights
``P(x) W(x)``, so a check of an exact step is a check of the rule itself.

The support is built once per dimension and shared, read-only, by every
:class:`FiniteDist` over it. A fixed fitness table over it (an objective's
``support_values``) is ranked once: :func:`exact_quantile` and
:func:`~igokit.selection.preference_exact` share the ranking that
``selection._levels`` keeps for the last read-only table it saw. A state's
probabilities cost ``O(2^d)``: they are a Kronecker product of the
per-coordinate factors ``(1 - p_j, p_j)``, which multiplies the same factors
in the same order as a row-wise product over the support and so gives the
same bits.

A state comes in as trusted :class:`~igokit.models.BernoulliParams`, and
the exact steps return the next state as the update rules validated it, so
no caller converts it again.

All functions are deterministic and, apart from that one kept ranking,
pure; parallel evaluation across configurations is safe as long as each task
keeps its own arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import updates
from .errors import CapacityError, InvalidInputError
from .models import Bernoulli, BernoulliParams
from .selection import _levels, _owns_frozen, preference_exact

__all__ = [
    "MAX_ENUM_DIM",
    "FiniteDist",
    "QuantileReport",
    "bernoulli_support",
    "enumerate_bernoulli",
    "exact_quantile",
    "exact_infinite_population_step",
    "exact_blockwise_coordinate_step",
    "exact_J",
]

# 2^16 = 65536 support points keeps the whole verification grid in seconds.
MAX_ENUM_DIM = 16


def _frozen(a) -> np.ndarray:
    """A read-only float64 array with the values of ``a`` that no one else
    can write through: ``a`` itself when it is already such an array and owns
    its data (the cached support), else a frozen copy."""
    if _owns_frozen(a):
        return a
    out = np.array(a, dtype=np.float64)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class FiniteDist:
    """An exact finite distribution: support points with probabilities.

    Probabilities are non-negative and sum to 1 within 1e-12; the support is
    kept in the order given (enumeration uses the fixed lexicographic order of
    ``{0,1}^d``). Both arrays are read-only; an input that is a read-only
    float64 array owning its data is kept as is, anything else is copied.
    """

    support: np.ndarray
    prob: np.ndarray

    def __post_init__(self):
        support = _frozen(self.support)
        prob = _frozen(self.prob)
        if support.ndim != 2 or support.shape[0] < 1:
            raise InvalidInputError("support must be a non-empty (n, d) array")
        if prob.shape != (support.shape[0],):
            raise InvalidInputError("prob must have one entry per support point")
        if np.any(prob < 0.0) or not np.all(np.isfinite(prob)):
            raise InvalidInputError("probabilities must be finite and non-negative")
        if abs(float(prob.sum()) - 1.0) > 1e-12:
            raise InvalidInputError("probabilities must sum to 1 within 1e-12")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "prob", prob)

    @property
    def size(self) -> int:
        return self.prob.size


@dataclass(frozen=True)
class QuantileReport:
    """A quantile value together with the masses that certify it.

    ``lower_mass = P[f <= value] >= q`` and ``upper_mass = P[f >= value]
    >= 1 - q``; ``value`` is the largest number satisfying both.
    """

    value: float
    lower_mass: float
    upper_mass: float


@lru_cache(maxsize=None)
def bernoulli_support(dim: int) -> np.ndarray:
    """All points of ``{0,1}^dim`` in lexicographic order, leftmost coordinate
    most significant. Cached and write-protected."""
    if int(dim) != dim or dim < 1:
        raise InvalidInputError("dim must be a positive integer")
    if dim > MAX_ENUM_DIM:
        raise CapacityError(
            f"exact enumeration supports dim <= {MAX_ENUM_DIM}, got {dim}"
        )
    codes = np.arange(2**dim, dtype=np.int64)
    shifts = np.arange(dim - 1, -1, -1, dtype=np.int64)
    pts = ((codes[:, None] >> shifts[None, :]) & 1).astype(np.float64)
    pts.setflags(write=False)
    return pts


def _support_probs(probs: np.ndarray) -> np.ndarray:
    """The exact product probability of every support point of a valid
    state, built coordinate by coordinate in ``O(2^d)``."""
    prob = np.ones(1)
    for e in probs:
        prob = np.multiply.outer(prob, (1.0 - e, e)).ravel()
    return prob


def enumerate_bernoulli(params: BernoulliParams) -> FiniteDist:
    """The full distribution of a product Bernoulli model, exactly. The
    parameters were validated when they were built, so they are trusted."""
    return FiniteDist(bernoulli_support(params.dim), _support_probs(params.probs))


def _sup_quantile_index(lower: np.ndarray, upper: np.ndarray, q: float) -> int:
    """Index of the sup-form q-quantile among ascending distinct values.

    ``lower[k]`` is the mass at or below value ``k`` and ``upper[k]`` the mass
    at or above it. Returns the largest ``k`` with ``lower[k] >= q`` and
    ``upper[k] >= 1 - q``.
    """
    qualifying = np.flatnonzero((lower >= q) & (upper >= 1.0 - q))
    if qualifying.size:
        return int(qualifying[-1])
    # Unreachable in exact arithmetic; guard against degenerate rounding.
    return min(int(np.searchsorted(lower, q, side="left")), lower.size - 1)


def exact_quantile(dist: FiniteDist, fitness, q: float) -> QuantileReport:
    """The q-quantile of ``fitness`` under ``dist``, sup form.

    Returns the largest distinct fitness value ``m`` with ``P[f <= m] >= q``
    and ``P[f >= m] >= 1 - q``.
    """
    if not (0.0 < q < 1.0):
        raise InvalidInputError("q must satisfy 0 < q < 1")
    f = np.asarray(fitness, dtype=np.float64)
    if f.shape != (dist.size,):
        raise InvalidInputError("fitness must have one value per support point")
    values, idx = _levels(f)
    mass = np.bincount(idx, weights=dist.prob, minlength=values.size)
    lower = np.cumsum(mass)
    upper = np.cumsum(mass[::-1])[::-1]
    qualifying = _sup_quantile_index(lower, upper, q)
    return QuantileReport(
        value=float(values[qualifying]),
        lower_mass=float(lower[qualifying]),
        upper_mass=float(upper[qualifying]),
    )


def exact_infinite_population_step(params: BernoulliParams, fitness, scheme,
                                   dt: float) -> BernoulliParams:
    """One exact natural-gradient step from ``params`` to the validated next
    state.

    Computes ``eta + dt * E[W(x) (T(x) - eta)]`` with the expectation taken
    exactly over the enumerated support, by running
    :func:`~igokit.updates.igo_step` on the support with weights
    ``P(x) W(x)``; ``fitness`` holds the objective value of every support
    point in the fixed lexicographic order. Raises ``DomainExitError`` if the
    result leaves the open parameter region.
    """
    prob = _support_probs(params.probs)
    w = preference_exact(prob, fitness, scheme)
    return updates.igo_step(
        Bernoulli(params.dim), params, bernoulli_support(params.dim), prob * w, dt
    )


def exact_blockwise_coordinate_step(params: BernoulliParams, fitness, scheme, dt_per_block,
                                    order=None) -> BernoulliParams:
    """Exact coordinate-blocked sequential weighted-ML step from ``params``
    to the validated next state.

    Runs :func:`~igokit.updates.blockwise_igo_ml_step` on the enumerated
    support with weights ``P(x) W(x)``: each coordinate is one block, updated
    in ``order`` (defaults to natural order) toward the preference-weighted
    mean ``E[W(x) x]`` computed once under the starting parameters. Step sizes
    are indexed by coordinate: ``dt_per_block[j]`` is the rate of coordinate
    ``j`` wherever ``j`` falls in ``order``. Validity is checked after every
    block.
    """
    dim = params.dim
    dts = np.asarray(dt_per_block, dtype=np.float64)
    if dts.shape != (dim,):
        raise InvalidInputError("dt_per_block must give one step size per block")
    decomposition = updates.BernoulliBlockDecomposition(dim, order)
    prob = _support_probs(params.probs)
    w = preference_exact(prob, fitness, scheme)
    return updates.blockwise_igo_ml_step(
        Bernoulli(dim), params, bernoulli_support(dim), prob * w, decomposition,
        dts[list(decomposition.order)],
    )


def exact_J(params_eval: BernoulliParams, params_base: BernoulliParams, fitness, scheme) -> float:
    """Expected base-preference of a draw from the evaluation distribution.

    The preference is computed under ``params_base``; the average is taken
    under ``params_eval``. Equals 1 when the two coincide.
    """
    if params_eval.dim != params_base.dim:
        raise InvalidInputError("states must share the same dimension")
    prob_base = _support_probs(params_base.probs)
    prob_eval = _support_probs(params_eval.probs)
    return float(prob_eval @ preference_exact(prob_base, fitness, scheme))
