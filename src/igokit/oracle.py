"""Exact infinite-population computations on enumerable search spaces.

For product Bernoulli models with ``d <= 16`` the full support of ``2^d``
points is enumerated in a fixed lexicographic order, which makes every
expectation here an exact finite sum and every run bit-reproducible. These
functions are the ground truth against which the monotone-improvement
properties of the update rules are checked. The exact steps are the shipped
rules of :mod:`igokit.updates` run on the whole support with weights
``P(x) W(x)``, so a check of an exact step is a check of the rule itself;
the blockwise one has one block, and one rate, per coordinate. The exact
reward-proportional step follows the same pattern: callers run
:func:`~igokit.updates.fitness_proportional_step` on the support with
rewards ``P(x) r(x)``. Expectations
are numpy reductions (``np.sum(p * f)``), never a BLAS dot product, so exact
results do not depend on the BLAS thread count.

The support is a bool array, 0/1 by type, built once per dimension and
shared, read-only, by every distribution :func:`enumerate_bernoulli` builds
(1 MiB at ``d = 16``); the update rules take it without a scan. A state's
probabilities on it are the state's own
:attr:`~igokit.models.BernoulliParams.support_probs`,
built once per state from probabilities validated in (0, 1), so enumeration
neither copies nor checks them; a caller's :class:`FiniteDist` takes checked
copies. :func:`exact_quantile` and :func:`~igokit.selection.preference_exact`
share the level pass that :mod:`igokit.selection` keeps, while its table
lives, with the preference last computed from it; its docstring describes
that memo. A fixed fitness table (an objective's ``support_values``) is
ranked once, each state is checked and weighed against it once, and
:func:`exact_J` at the base of a step, asked before the quantile of the
next state, reuses the preference the step kept.

A state comes in as trusted :class:`~igokit.models.BernoulliParams`, and
the exact steps return the next state as the update rules validated it, so
no caller converts it again.

All functions are deterministic and, apart from those kept results, pure;
parallel evaluation across configurations is safe as long as each task keeps
its own arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import updates
from .errors import CapacityError, InvalidInputError, _check_integer, _check_q
from .models import MAX_ENUM_DIM, Bernoulli, BernoulliParams, _frozen_array
from .selection import _check_distribution, _level_pass, preference_exact

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


@dataclass(frozen=True, eq=False)
class FiniteDist:
    """An exact finite distribution: support points with probabilities.

    Probabilities are non-negative and sum to 1 within 1e-12; the support is
    kept in the order given (enumeration uses the fixed lexicographic order of
    ``{0,1}^d``). Both arrays are checked, read-only float64 copies of the
    inputs, a bool support included; :func:`enumerate_bernoulli` alone builds
    one around arrays it trusts, the bool support and the state's
    probabilities, without the copies and the check.
    """

    support: np.ndarray
    prob: np.ndarray

    def __post_init__(self):
        support = _frozen_array(self.support)
        prob = _frozen_array(self.prob)
        if support.ndim != 2 or support.shape[0] < 1:
            raise InvalidInputError("support must be a non-empty (n, d) array")
        if prob.shape != (support.shape[0],):
            raise InvalidInputError("prob must have one entry per support point")
        _check_distribution(prob)
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


def bernoulli_support(dim: int) -> np.ndarray:
    """All points of ``{0,1}^dim`` in lexicographic order, leftmost coordinate
    most significant, as a ``(2^dim, dim)`` bool array. Cached and
    write-protected."""
    dim = _check_integer("dim", dim, 1, "must be a positive integer")
    if dim > MAX_ENUM_DIM:
        raise CapacityError(
            f"exact enumeration supports dim <= {MAX_ENUM_DIM}, got {dim}"
        )
    return _support(dim)


@lru_cache(maxsize=None)
def _support(dim: int) -> np.ndarray:
    # Filled in place, by doubling: rows [2^k, 2^(k+1)) are a copy of rows
    # [0, 2^k) with coordinate dim-1-k set to 1.
    pts = np.empty((2**dim, dim), dtype=np.bool_)
    pts[0] = False
    for k in range(dim):
        half = 1 << k
        pts[half:2 * half] = pts[:half]
        pts[half:2 * half, dim - 1 - k] = True
    pts.setflags(write=False)
    return pts


def enumerate_bernoulli(params: BernoulliParams) -> FiniteDist:
    """The full distribution of a product Bernoulli model, exactly.

    The parameters were validated when they were built, so they are trusted:
    the distribution holds the cached support and the state's own read-only
    ``support_probs``, a product of factors in (0, 1), neither copied nor
    checked again. ``FiniteDist.__init__`` does not run.
    """
    dist = object.__new__(FiniteDist)
    object.__setattr__(dist, "support", bernoulli_support(params.dim))
    object.__setattr__(dist, "prob", params.support_probs)
    return dist


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
    q = _check_q(q)
    f = np.asarray(fitness, dtype=np.float64)
    if f.shape != (dist.size,):
        raise InvalidInputError("fitness must have one value per support point")
    values, _, mass, lower = _level_pass(dist.prob, f)
    upper = mass[::-1].cumsum()[::-1]
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
    prob = params.support_probs
    w = preference_exact(prob, fitness, scheme)
    return updates.igo_step(
        Bernoulli(params.dim), params, bernoulli_support(params.dim), prob * w, dt
    )


def exact_blockwise_coordinate_step(params: BernoulliParams, fitness, scheme,
                                    dt_per_block) -> BernoulliParams:
    """Exact coordinate-blocked weighted-ML step from ``params`` to the
    validated next state.

    Runs :func:`~igokit.updates.blockwise_igo_ml_step` on the enumerated
    support with weights ``P(x) W(x)``: each coordinate ``j`` is one block,
    moved at its own rate ``dt_per_block[j]`` toward the preference-weighted
    mean ``E[W(x) x]`` under the starting parameters.
    """
    dim = params.dim
    prob = params.support_probs
    w = preference_exact(prob, fitness, scheme)
    return updates.blockwise_igo_ml_step(
        Bernoulli(dim), params, bernoulli_support(dim), prob * w, dt_per_block
    )


def exact_J(params_eval: BernoulliParams, params_base: BernoulliParams, fitness, scheme) -> float:
    """Expected base-preference of a draw from the evaluation distribution.

    The preference is computed under ``params_base``; the average is taken
    under ``params_eval``. Equals 1 when the two coincide. Right after a step
    from ``params_base`` on the same table and scheme, the preference is the
    one that step kept.
    """
    if params_eval.dim != params_base.dim:
        raise InvalidInputError("states must share the same dimension")
    w = preference_exact(params_base.support_probs, fitness, scheme)
    return float(np.sum(params_eval.support_probs * w))
