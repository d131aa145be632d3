"""Exact infinite-population computations on enumerable search spaces.

For product Bernoulli models with ``d <= 16`` the full support of ``2^d``
points is enumerated in a fixed lexicographic order, which makes every
expectation here an exact finite sum and every run bit-reproducible. These
functions are the ground truth against which the monotone-improvement
properties of the update rules are checked.

All functions are pure and deterministic; parallel evaluation across
configurations is safe as long as each task keeps its own arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapacityError, InvalidInputError
from .models import Bernoulli, BernoulliParams
from .selection import preference_exact

__all__ = [
    "MAX_ENUM_DIM",
    "FiniteDist",
    "QuantileReport",
    "bernoulli_support",
    "enumerate_bernoulli",
    "exact_preference",
    "exact_quantile",
    "exact_infinite_population_step",
    "exact_blockwise_coordinate_step",
    "exact_J",
    "exact_H",
    "exact_expected_fitness",
]

# 2^16 = 65536 support points keeps the whole verification grid in seconds.
MAX_ENUM_DIM = 16


@dataclass(frozen=True, eq=False)
class FiniteDist:
    """An exact finite distribution: support points with probabilities.

    Probabilities are non-negative and sum to 1 within 1e-12; the support is
    kept in the order given (enumeration uses the fixed lexicographic order of
    ``{0,1}^d``).
    """

    support: np.ndarray
    prob: np.ndarray

    def __post_init__(self):
        support = np.array(self.support, dtype=np.float64)
        prob = np.array(self.prob, dtype=np.float64)
        if support.ndim != 2 or support.shape[0] < 1:
            raise InvalidInputError("support must be a non-empty (n, d) array")
        if prob.shape != (support.shape[0],):
            raise InvalidInputError("prob must have one entry per support point")
        if np.any(prob < 0.0) or not np.all(np.isfinite(prob)):
            raise InvalidInputError("probabilities must be finite and non-negative")
        if abs(float(prob.sum()) - 1.0) > 1e-12:
            raise InvalidInputError("probabilities must sum to 1 within 1e-12")
        support.setflags(write=False)
        prob.setflags(write=False)
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


def _support_probs(probs: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Exact product probabilities of every support point."""
    return np.prod(np.where(support == 1.0, probs, 1.0 - probs), axis=1)


def enumerate_bernoulli(params: BernoulliParams) -> FiniteDist:
    """The full distribution of a product Bernoulli model, exactly."""
    support = bernoulli_support(params.dim)
    return FiniteDist(support, _support_probs(params.probs, support))


def exact_preference(dist: FiniteDist, fitness, scheme) -> np.ndarray:
    """Weighted preference of every support point of ``dist``."""
    return preference_exact(dist.prob, fitness, scheme)


def _sup_quantile_index(lower: np.ndarray, upper: np.ndarray, q: float) -> int:
    """Index of the sup-form q-quantile among ascending distinct values.

    ``lower[k]`` is the mass at or below value ``k`` and ``upper[k]`` the mass
    at or above it. Scans in descending order and returns the largest ``k``
    with ``lower[k] >= q`` and ``upper[k] >= 1 - q``.
    """
    for k in range(lower.size - 1, -1, -1):
        if lower[k] >= q and upper[k] >= 1.0 - q:
            return k
    # Unreachable in exact arithmetic; guard against degenerate rounding.
    return min(int(np.searchsorted(lower, q, side="left")), lower.size - 1)


def exact_quantile(dist: FiniteDist, fitness, q: float) -> QuantileReport:
    """The q-quantile of ``fitness`` under ``dist``, sup form.

    Scans the distinct fitness values in descending order and returns the
    largest value ``m`` with ``P[f <= m] >= q`` and ``P[f >= m] >= 1 - q``.
    """
    if not (0.0 < q < 1.0):
        raise InvalidInputError("q must satisfy 0 < q < 1")
    f = np.asarray(fitness, dtype=np.float64)
    if f.shape != (dist.size,):
        raise InvalidInputError("fitness must have one value per support point")
    values, idx = np.unique(f, return_inverse=True)
    mass = np.bincount(idx, weights=dist.prob, minlength=values.size)
    lower = np.cumsum(mass)
    upper = np.cumsum(mass[::-1])[::-1]
    qualifying = _sup_quantile_index(lower, upper, q)
    return QuantileReport(
        value=float(values[qualifying]),
        lower_mass=float(lower[qualifying]),
        upper_mass=float(upper[qualifying]),
    )


def _checked_bernoulli(eta: np.ndarray) -> tuple[Bernoulli, np.ndarray]:
    eta = np.asarray(eta, dtype=np.float64)
    if eta.ndim != 1 or eta.size < 1:
        raise InvalidInputError("eta must be a non-empty 1-d sequence")
    model = Bernoulli(eta.size)
    model.from_eta(eta)
    return model, eta


def exact_infinite_population_step(eta, fitness, scheme, dt: float) -> np.ndarray:
    """One exact natural-gradient step in expectation parameters.

    Computes ``eta + dt * E[W(x) (T(x) - eta)]`` with the expectation taken
    exactly over the enumerated support; ``fitness`` holds the objective value
    of every support point in the fixed lexicographic order. Raises
    ``DomainExitError`` if the result leaves the open parameter region.
    """
    model, eta = _checked_bernoulli(eta)
    support = bernoulli_support(model.dim)
    prob = _support_probs(eta, support)
    w = preference_exact(prob, fitness, scheme)
    step = (prob * w) @ (support - eta)
    eta_next = eta + dt * step
    model.from_eta(eta_next)
    return eta_next


def exact_blockwise_coordinate_step(eta, fitness, scheme, dt_per_block, order=None) -> np.ndarray:
    """Exact coordinate-blocked sequential weighted-ML step.

    Each coordinate is one block, updated in ``order`` (defaults to natural
    order) toward the preference-weighted mean ``E[W(x) x]`` computed once
    under the starting parameters, with its own step size. The same preference
    weights serve every block. Validity is checked after every block.
    """
    model, eta = _checked_bernoulli(eta)
    dts = np.asarray(dt_per_block, dtype=np.float64)
    if order is None:
        order = np.arange(model.dim)
    order = np.asarray(order, dtype=np.int64)
    if sorted(order.tolist()) != list(range(model.dim)):
        raise InvalidInputError("order must be a permutation of the coordinates")
    if dts.shape != (model.dim,):
        raise InvalidInputError("dt_per_block must give one step size per block")
    support = bernoulli_support(model.dim)
    prob = _support_probs(eta, support)
    w = preference_exact(prob, fitness, scheme)
    weighted_mean = (prob * w) @ support
    theta = eta.copy()
    for j in order:
        theta[j] = (1.0 - dts[j]) * theta[j] + dts[j] * weighted_mean[j]
        model.from_eta(theta)
    return theta


def exact_J(eta_eval, eta_base, fitness, scheme) -> float:
    """Expected base-preference of a draw from the evaluation distribution.

    The preference is computed under ``eta_base``; the average is taken under
    ``eta_eval``. Equals 1 when the two coincide.
    """
    model, eta_base = _checked_bernoulli(eta_base)
    _, eta_eval = _checked_bernoulli(eta_eval)
    if eta_eval.size != eta_base.size:
        raise InvalidInputError("states must share the same dimension")
    support = bernoulli_support(model.dim)
    prob_base = _support_probs(eta_base, support)
    w = preference_exact(prob_base, fitness, scheme)
    prob_eval = _support_probs(eta_eval, support)
    return float(prob_eval @ w)


def exact_H(eta_eval, eta_base, fitness, scheme) -> float:
    """Preference-weighted cross-entropy term: the exact sum of
    ``P_base(x) W(x) ln p_eval(x)`` over the support."""
    model, eta_base = _checked_bernoulli(eta_base)
    _, eta_eval = _checked_bernoulli(eta_eval)
    if eta_eval.size != eta_base.size:
        raise InvalidInputError("states must share the same dimension")
    support = bernoulli_support(model.dim)
    prob_base = _support_probs(eta_base, support)
    w = preference_exact(prob_base, fitness, scheme)
    log_eval = support @ np.log(eta_eval) + (1.0 - support) @ np.log1p(-eta_eval)
    return float((prob_base * w) @ log_eval)


def exact_expected_fitness(eta, values) -> float:
    """Exact expectation of per-point values under the enumerated model."""
    model, eta = _checked_bernoulli(eta)
    values = np.asarray(values, dtype=np.float64)
    support = bernoulli_support(model.dim)
    if values.shape != (support.shape[0],):
        raise InvalidInputError("values must have one entry per support point")
    return float(_support_probs(eta, support) @ values)
