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
* :func:`blockwise_igo_ml_step` - per-block weighted-ML updates with one
  step size per block, reusing one sample across all blocks. The family
  fixes the blocks: covariance then mean for a Gaussian (rank-mu
  recombination), one block per coordinate for Bernoulli.
* :func:`fitness_proportional_step` - natural-gradient step under
  reward-proportional weights ``r_i / sum r``; it forms the weights and runs
  :func:`igo_step`. On a sample it is the Monte Carlo step; on the whole
  support with rewards ``P(x) r(x)`` it is the exact one.

:func:`igo_step` and :func:`igo_ml_step` read ``eta = model.to_eta(params)``
and validate their result with ``model.from_eta``; they coincide
coordinate-wise up to floating-point rounding. The Gaussian blockwise step
never leaves mean and covariance, so it keeps the digits that
``cov = E[x x^T] - m m^T`` would cancel. Domain exits raise; they are never
projected away. :func:`safeguarded_step` wraps any of these with step-size
halving for harness use.

The weights need not come from a sample: the exact oracle passes the whole
enumerated support with weights ``P(x) W(x)``, and the exact reward step
passes it with rewards ``P(x) r(x)``, so the infinite-population steps it
checks are these same functions. Every rule takes points; none knows the
oracle.

Every weighted sum of rows, ``sum_i w_i (r_i - c)`` or ``sum_i w_i r_i``,
goes through one kernel, ``_weighted_sum``. It adds the rounded products
``w_i * r_ij`` to a running total row after row, in index order, so results
are bit-reproducible for a given sample, and tier-1 tests
(``TestSummationOrder``) pin every rule to a row-by-row reference. With
``k >= 2`` columns the sum is ``np.einsum("i,ij->j", w, rows)`` over one
block of about 2^15 floats at a time, which accumulates that way without
forming ``w_i * r_i``. Each block of rows is copied into one reused float
buffer, bool Bernoulli points converted exactly on the way, and centred
there in place by one subtraction of a block-sized copy of the centre
filled once per call, so numpy runs one flat loop over the block's floats
(each entry is still ``r - c``). The buffer's first row carries the
running total in with weight 1.0 (exact), so the blocks chain in index
order, a float sum is the sum of the same rows given as bool, and the exact
step on the 2^16-point support writes no ``(2^16, d)`` temporary. A single
column (``k = 1``) is summed as ``np.sum(w[:, None] * r, axis=0)``, which
numpy adds pairwise; einsum does not match those bits. A numpy whose einsum
fused the multiply and the add (FMA) would move result bits, and
``TestSummationOrder`` would fail. No sum goes through a BLAS dot product
(``a @ b`` on vectors), whose rounding depends on the BLAS thread count; a
dot is ``np.sum(a * b)``.

The Gaussian blockwise step's rank-mu scatter is
``np.einsum("ij,ik->jk", w[:, None] * c, c)`` over the centred points ``c``
(``d >= 2``): the products ``(w_i c_ij) c_ik`` added row by row, as the
three-operand ``einsum("i,ij,ik->jk", w, c, c)`` forms and adds them, at
about a third of its time. With one column, einsum would add the two-operand
product in an unrolled order, so ``d = 1`` keeps the three-operand form.
``TestSummationOrder`` pins both the covariance and the mean.

Rows of zero weight are dropped, once and in index order, before a sum
over ``k >= 2`` columns. The Gaussian blockwise step (``d >= 2``) always
drops them before its rank-mu scatter, which costs ``d`` times the copy of
the kept rows. ``_weighted_sum`` drops them when
they are at least half the rows, where the copy costs no more than the sum
it spares: a sampled population under truncation weights is summed over its
winners, and a support with a few zero-reward points is summed whole,
with no compressed copy. The drop is exact: zero times a finite entry is
``+-0``, and adding ``+-0`` to a running total that starts at ``+0`` leaves
it as it was, bit for bit, so an all-zero weight vector still sums to
``+0.0``. The rows must be finite for that, and the points a rule accepts
are: Bernoulli points are 0/1, and Gaussian points are refused unless
finite. (The statistics of a finite Gaussian point beyond about 1e154
overflow; such a row at zero weight gives NaN if kept and nothing if
dropped.) A single column keeps every row, because dropping terms regroups
numpy's pairwise tree.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainExitError, InvalidInputError, _check_integer, _check_real
from .models import Gaussian, GaussianParams, _points_array
from .selection import SampleWeights, _check_weights

__all__ = [
    "igo_step",
    "igo_ml_step",
    "blockwise_igo_ml_step",
    "fitness_proportional_step",
    "safeguarded_step",
]


def _weight_array(weights, lam: int) -> np.ndarray:
    if isinstance(weights, SampleWeights):
        w = weights.w
    else:
        w = _check_weights(np.asarray(weights, dtype=np.float64))
    if w.size != lam:
        raise InvalidInputError("weights length must match the sample count")
    return w


# Float64 entries per block of centred rows in ``_weighted_sum`` (256 KB).
_BLOCK = 1 << 15


def _weighted_sum(w: np.ndarray, rows, center=None) -> np.ndarray:
    """``sum_i w[i] * (rows[i] - center)``, or ``sum_i w[i] * rows[i]``
    without a centre, over an ``(n, k)`` float or bool array, rows added in
    index order.

    See the module docstring: for ``k >= 2`` the rows of zero weight
    dropped when they are at least half, then einsum over one block of rows
    at a time, copied into a float buffer (and less a copy of the centre),
    with the running total as the block's first row; numpy's pairwise sum
    over every row for a single column.
    """
    if rows.shape[1] == 1:
        return np.sum(w[:, None] * (rows if center is None else rows - center), axis=0)
    nz = w != 0.0
    if 2 * np.count_nonzero(nz) <= nz.size:
        w, rows = w.compress(nz), rows.compress(nz, axis=0)
    n, k = rows.shape
    step = max(1, min(n, _BLOCK // k))
    block = np.empty((step + 1, k))
    block_w = np.empty(step + 1)
    block_w[0] = 1.0
    if center is not None:
        centers = np.empty((step, k))
        centers[:] = center
    total = np.zeros(k)
    for start in range(0, n, step):
        m = min(step, n - start)
        block[0] = total
        block[1:m + 1] = rows[start:start + m]
        if center is not None:
            np.subtract(block[1:m + 1], centers[:m], out=block[1:m + 1])
        block_w[1:m + 1] = w[start:start + m]
        total = np.einsum("i,ij->j", block_w[:m + 1], block[:m + 1])
    return total


# What every step size must be, as ``_check_real`` takes it.
_STEP_SIZE = ("must be finite and >= 0", lambda v: 0.0 <= v < np.inf)


def igo_step(model, params, samples, weights, dt: float):
    """Finite-sample natural-gradient step in expectation parameters.

    ``eta' = eta + dt * sum_i w_i (T(x_i) - eta)`` with
    ``eta = model.to_eta(params)``. Returns the validated next state; raises
    ``DomainExitError`` when ``eta'`` leaves the valid region.
    """
    dt = _check_real("dt", dt, *_STEP_SIZE)
    eta = model.to_eta(params)
    stats = model.batch_sufficient_statistics(samples)
    w = _weight_array(weights, stats.shape[0])
    return model.from_eta(eta + dt * _weighted_sum(w, stats, eta))


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
    dt = _check_real("dt", dt, *_STEP_SIZE)
    eta = model.to_eta(params)
    stats = model.batch_sufficient_statistics(samples)
    w = _weight_array(weights, stats.shape[0])
    return model.from_eta((1.0 - dt) * eta + dt * _weighted_sum(w, stats))


def blockwise_igo_ml_step(model, params, samples, weights, dt_per_block):
    """Per-block weighted-ML updates sharing one sample, one rate per block.

    The family fixes the blocks, and ``dt_per_block[k]`` is the rate of
    block ``k``. Each block solves the restricted weighted-ML problem with
    the others frozen and moves by its own step size.

    * Gaussian: ``dt_per_block = (dt_cov, dt_mean)``. The covariance moves
      first, about the current mean, then the mean:
      ``C* = C + dt_C * sum_i w_i ((x_i - m)(x_i - m)^T - C)``, then
      ``m* = m + dt_m * sum_i w_i (x_i - m)``. This is the pure rank-mu
      recombination. The step reads and writes mean and covariance directly
      and validates each block's output as one ``GaussianParams``; with equal
      rates it is *not* the same map as :func:`igo_ml_step`.
    * Bernoulli: one block per coordinate, ``dt_per_block[j]`` the rate of
      coordinate ``j``. Each coordinate blends toward the weighted mean
      independently, so the step is the single blend
      ``(1 - dts) * theta + dts * sum_i w_i x_i``, validated once: every
      partial update mixes valid old coordinates with final ones, so it is
      valid exactly when the result is.

    An invalid block output raises a domain exit.
    """
    params = model._check_params(params)
    gaussian = isinstance(model, Gaussian)
    blocks = 2 if gaussian else model.dim
    try:
        dts = np.array([_check_real("dt_per_block", dt, *_STEP_SIZE) for dt in dt_per_block])
    except TypeError:  # not a sequence
        dts = None
    if dts is None or dts.shape != (blocks,):
        got = "no sequence" if dts is None else dts.size
        raise InvalidInputError(
            f"dt_per_block: must give one step size per block: {blocks} expected, got {got}"
        )
    # The blocks read the points themselves; neither family needs T(x) here.
    samples = model._check_points(samples)
    w = _weight_array(weights, samples.shape[0])

    if gaussian:
        dt_cov, dt_mean = dts
        if model.dim > 1:
            nz = w != 0.0
            w, samples = w.compress(nz), samples.compress(nz, axis=0)
            centered = samples - params.mean
            scatter = np.einsum("ij,ik->jk", w[:, None] * centered, centered)
        else:
            # A single column keeps every row, since its mean is a pairwise
            # sum, and its scatter takes three operands: einsum would add the
            # (n, 1) product of two in an unrolled order, not row by row.
            centered = samples - params.mean
            scatter = np.einsum("i,ij,ik->jk", w, centered, centered)
        scatter = (scatter + scatter.T) / 2.0
        params = GaussianParams(params.mean, params.cov + dt_cov * (scatter - params.cov))
        mean = params.mean + dt_mean * _weighted_sum(w, centered)
        return GaussianParams(mean, params.cov)

    weighted_mean = _weighted_sum(w, samples)
    return model.from_eta((1.0 - dts) * model.to_eta(params) + dts * weighted_mean)


def fitness_proportional_step(model, params, points, rewards, dt: float):
    """Natural-gradient step under reward-proportional selection.

    :func:`igo_step` from the state ``params`` with weights ``r_i / sum_j r_j``,
    returned validated. ``points`` is an ``(n, d)`` array and ``rewards``
    holds one reward per point, finite and non-negative, not all zero. On a
    sample the rewards are ``r(x_i)``: the Monte Carlo estimate of
    ``eta' = eta + dt * E[(r(x) / E[r]) (T(x) - eta)]``. The exact step runs
    this rule on the whole support with rewards ``P(x) r(x)``, so its weights
    are ``P(x) r(x) / E_P[r]`` and its checks read ``P(x) r(x)``; that
    differs from checking ``r(x)`` only where ``P(x)`` underflows to 0, where
    a negative reward weighs ``-0.0`` and passes.
    """
    r = np.asarray(rewards, dtype=np.float64)
    if r.ndim != 1 or np.any(r < 0.0) or not np.all(np.isfinite(r)):
        raise InvalidInputError("rewards must be finite and non-negative")
    if not np.any(r > 0.0):
        raise InvalidInputError("rewards must not be all zero")
    points = _points_array(points, model.dim)  # igo_step checks the values
    if r.size != points.shape[0]:
        raise InvalidInputError("one reward per point required")
    return igo_step(model, params, points, _reward_weights(r), dt)


def _reward_weights(rewards: np.ndarray) -> np.ndarray:
    """The weights of a reward-proportional step, ``r_i / sum r``, as a new
    read-only array, which :class:`SampleWeights` keeps without a copy."""
    w = rewards / float(np.sum(rewards))
    w.setflags(write=False)
    return w


def safeguarded_step(step, dt: float, max_halvings: int = 30):
    """Run ``step(dt)`` shrinking ``dt`` by halving on domain exits.

    Returns ``(result, dt_used)``; raises the final ``DomainExitError`` once
    ``max_halvings`` halvings are exhausted. Intended for harness runs; the
    raw update functions never shrink steps on their own.
    """
    dt = _check_real("dt", dt, *_STEP_SIZE)
    max_halvings = _check_integer("max_halvings", max_halvings, 0,
                                  "must be a non-negative integer")
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
