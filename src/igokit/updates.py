"""Parameter-update rules.

Every rule takes the current validated state (``BernoulliParams`` or
``GaussianParams``) and returns the validated state of the next step, so a
state is converted once, by the rule that builds it:

* :func:`igo_step` - finite-sample natural-gradient step,
  ``eta + dt * sum_i w_i (T(x_i) - eta)``.
* :func:`igo_ml_step` - weighted maximum-likelihood blend,
  ``(1 - dt) eta + dt * sum_i w_i T(x_i)``. In expectation parameters this
  is also the smoothed cross-entropy/ML step: the weighted-ML point is the
  weighted mean of the sufficient statistics, blended into the current state.
* :func:`blockwise_igo_ml_step` - sequential per-block weighted-ML updates
  with per-block step sizes, reusing one sample across all blocks.
* :func:`fitness_proportional_step` - natural-gradient step under
  reward-proportional weights, exact (finite distribution) or Monte Carlo;
  it forms the weights and runs :func:`igo_step`.

:func:`igo_step` and :func:`igo_ml_step` read ``eta = model.to_eta(params)``
and validate their result with ``model.from_eta``; they coincide
coordinate-wise up to floating-point rounding. The Gaussian blockwise step
never leaves mean and covariance, so it keeps the digits that
``cov = E[x x^T] - m m^T`` would cancel. Domain exits raise; they are never
projected away. :func:`safeguarded_step` wraps any of these with step-size
halving for harness use.

The weights need not come from a sample: the exact oracle passes the whole
enumerated support with weights ``P(x) W(x)``, so the infinite-population
steps it checks are these same functions.

Weighted sums reduce over axis 0 of a C-contiguous ``(n, k)`` array, which
numpy does by adding the rows one after another in index order (a
single-column array, ``k = 1``, is summed pairwise instead). Results are
therefore bit-reproducible for a given sample, and tier-1 tests pin
:func:`igo_step` and :func:`igo_ml_step` to a row-by-row reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainExitError, InvalidInputError
from .models import GaussianParams
from .oracle import FiniteDist
from .selection import SampleWeights

__all__ = [
    "StepConfig",
    "GaussianBlockDecomposition",
    "BernoulliBlockDecomposition",
    "igo_step",
    "igo_ml_step",
    "blockwise_igo_ml_step",
    "fitness_proportional_step",
    "safeguarded_step",
]


@dataclass(frozen=True)
class StepConfig:
    """Step sizes with their certification status.

    Step sizes in ``(0, 1]`` carry the quantile-improvement guarantee; larger
    values are accepted only with ``uncertified=True``.
    """

    dt: float = 1.0
    dt_per_block: tuple = ()
    uncertified: bool = False

    def validate(self) -> None:
        for value in (self.dt,) + tuple(self.dt_per_block):
            if _check_dt(value) > 1.0 and not self.uncertified:
                raise InvalidInputError(
                    f"step size {value} exceeds 1: quantile improvement is only "
                    "guaranteed for 0 < dt <= 1; set uncertified to run anyway"
                )


@dataclass(frozen=True)
class GaussianBlockDecomposition:
    """Two-block Gaussian decomposition: covariance and mean.

    The default order ``("cov", "mean")`` updates the covariance about the
    current mean first and recovers the rank-mu mean/covariance recombination
    with separate learning rates. The reverse order ``("mean", "cov")`` is the
    EMNA-like variant: it recentres the scatter on the already-moved mean,
    which is known to shrink the covariance faster and can converge
    prematurely; it is provided for study, not as a default.
    """

    order: tuple = ("cov", "mean")

    def __post_init__(self):
        if sorted(self.order) != ["cov", "mean"]:
            raise InvalidInputError(
                'order must be a permutation of ("cov", "mean")'
            )


@dataclass(frozen=True)
class BernoulliBlockDecomposition:
    """Coordinate-wise Bernoulli decomposition: one block per coordinate,
    updated in ``order`` (natural order when ``order`` is None)."""

    dim: int
    order: Optional[tuple] = None

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidInputError("dim must be >= 1")
        order = tuple(range(self.dim)) if self.order is None else tuple(self.order)
        if sorted(order) != list(range(self.dim)):
            raise InvalidInputError("order must be a permutation of the coordinates")
        object.__setattr__(self, "order", order)


def _weight_array(weights, lam: int) -> np.ndarray:
    if isinstance(weights, SampleWeights):
        w = weights.w
    else:
        w = SampleWeights(np.asarray(weights, dtype=np.float64)).w
    if w.size != lam:
        raise InvalidInputError("weights length must match the sample count")
    return w


def _check_dt(dt: float) -> float:
    dt = float(dt)
    if not np.isfinite(dt) or dt < 0.0:
        raise InvalidInputError(f"dt must be finite and >= 0, got {dt!r}")
    return dt


def igo_step(model, params, samples, weights, dt: float):
    """Finite-sample natural-gradient step in expectation parameters.

    ``eta' = eta + dt * sum_i w_i (T(x_i) - eta)`` with
    ``eta = model.to_eta(params)``. Returns the validated next state; raises
    ``DomainExitError`` when ``eta'`` leaves the valid region.
    """
    dt = _check_dt(dt)
    eta = model.to_eta(params)
    stats = model.batch_sufficient_statistics(samples)
    w = _weight_array(weights, stats.shape[0])
    # One (n, k) temporary, its products formed in place; TestSummationOrder
    # pins the bits of the row-order sum.
    delta = stats - eta
    delta *= w[:, None]
    return model.from_eta(eta + dt * delta.sum(axis=0))


def igo_ml_step(model, params, samples, weights, dt: float):
    """Weighted maximum-likelihood blend of the current state and the sample.

    ``eta' = (1 - dt) eta + dt * sum_i w_i T(x_i)`` with
    ``eta = model.to_eta(params)``; this is the maximizer of the dt-blend of
    the cross-entropy with the current distribution and the weighted sample
    log-likelihood, i.e. the smoothed CE/ML step. Only the blended point must
    be a valid distribution: a weighted-ML point on the closure boundary (all
    winners sharing a Bernoulli coordinate) still blends for ``dt < 1``,
    while at ``dt = 1`` the blend *is* the ML point and a degenerate one
    (e.g. a single Gaussian sample) raises a domain exit.
    """
    dt = _check_dt(dt)
    eta = model.to_eta(params)
    stats = model.batch_sufficient_statistics(samples)
    w = _weight_array(weights, stats.shape[0])
    return model.from_eta((1.0 - dt) * eta + dt * np.sum(w[:, None] * stats, axis=0))


def blockwise_igo_ml_step(model, params, samples, weights, decomposition, dt_per_block):
    """Sequential per-block weighted-ML updates sharing one sample.

    Blocks are updated in the declared order, each solving the restricted
    weighted-ML problem with the other blocks frozen at their current values
    and its own step size. Step sizes follow the update order:
    ``dt_per_block[k]`` belongs to the k-th block of ``decomposition.order``
    (so ``(dt_mean, dt_cov)`` for the order ``("mean", "cov")``, and for a
    Bernoulli order ``(2, 0, 1)`` the first rate moves coordinate 2). For the
    Gaussian cov/mean decomposition the closed forms are

    ``C* = C + dt_C * sum_i w_i ((x_i - m)(x_i - m)^T - C)`` (about the
    current mean), then ``m* = m + dt_m * sum_i w_i (x_i - m)``.

    The Gaussian step reads and writes mean and covariance directly; each
    block's output is one ``GaussianParams``, and the last one is returned.
    With all block step sizes equal this is *not* the same map as
    :func:`igo_ml_step`. Any invalid intermediate block output raises a
    domain exit.
    """
    if params.dim != model.dim:
        raise InvalidInputError("parameter dimension mismatch")
    dts = tuple(_check_dt(v) for v in dt_per_block)
    # The blocks read the points themselves; neither family needs T(x) here.
    samples = model._check_points(samples)
    w = _weight_array(weights, samples.shape[0])

    if isinstance(decomposition, GaussianBlockDecomposition):
        if len(dts) != 2:
            raise InvalidInputError("Gaussian decomposition takes two step sizes")
        m, cov = params.mean, params.cov
        for name, dt_b in zip(decomposition.order, dts):
            if name == "cov":
                centered = samples - m
                scatter = np.einsum("i,ij,ik->jk", w, centered, centered)
                scatter = (scatter + scatter.T) / 2.0
                cov = cov + dt_b * (scatter - cov)
            else:
                m = m + dt_b * np.sum(w[:, None] * (samples - m), axis=0)
            params = GaussianParams(m, cov)
        return params

    if isinstance(decomposition, BernoulliBlockDecomposition):
        if decomposition.dim != model.dim:
            raise InvalidInputError("decomposition dimension mismatch")
        if len(dts) != decomposition.dim:
            raise InvalidInputError("one step size per coordinate block required")
        weighted_mean = np.sum(w[:, None] * samples, axis=0)
        theta = model.to_eta(params)
        for j, dt_b in zip(decomposition.order, dts):
            theta[j] = (1.0 - dt_b) * theta[j] + dt_b * weighted_mean[j]
            params = model.from_eta(theta)
        return params

    raise InvalidInputError(f"unsupported decomposition {decomposition!r}")


def fitness_proportional_step(model, params, source, rewards, dt: float):
    """Natural-gradient step under reward-proportional selection.

    ``eta' = eta + dt * E[(r(x) / E[r]) (T(x) - eta)]`` from the state
    ``params``, returned validated. ``source`` is either a
    :class:`~igokit.oracle.FiniteDist` (expectation taken exactly over its
    support) or an ``(n, d)`` sample array (Monte Carlo, uniform 1/n sample
    weights). ``rewards`` holds the per-point rewards, all non-negative with
    at least one positive. The step itself is :func:`igo_step` with weights
    ``P(x) r(x) / E[r]`` on the support, or ``r_i / sum r`` on the sample.
    """
    r = np.asarray(rewards, dtype=np.float64)
    if r.ndim != 1 or np.any(r < 0.0) or not np.all(np.isfinite(r)):
        raise InvalidInputError("rewards must be finite and non-negative")
    if not np.any(r > 0.0):
        raise InvalidInputError("rewards must not be all zero")

    if isinstance(source, FiniteDist):
        if r.size != source.size:
            raise InvalidInputError("one reward per support point required")
        points = source.support
        coef = source.prob * r / float(source.prob @ r)
    else:
        points = source
        if r.size != len(points):
            raise InvalidInputError("one reward per sample required")
        coef = r / float(r.sum())
    return igo_step(model, params, points, coef, dt)


def safeguarded_step(step, dt: float, max_halvings: int = 30):
    """Run ``step(dt)`` shrinking ``dt`` by halving on domain exits.

    Returns ``(result, dt_used)``; raises the final ``DomainExitError`` once
    ``max_halvings`` halvings are exhausted. Intended for harness runs; the
    raw update functions never shrink steps on their own.
    """
    dt = _check_dt(dt)
    attempt = dt
    for _ in range(max_halvings + 1):
        try:
            return step(attempt), attempt
        except DomainExitError:
            attempt /= 2.0
    raise DomainExitError(
        f"step still exits the domain after {max_halvings} halvings "
        f"(dt {dt} -> {attempt * 2.0})"
    )
