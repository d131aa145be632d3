"""Quantile-based selection: schemes, rank bounds, tie-averaged sample weights,
and the exact weighted preference for finite distributions.

A selection scheme is a non-increasing weight function ``w`` on [0, 1] that
integrates to 1. The truncation scheme ``w(u) = 1[u <= q]/q`` puts uniform
weight on the best fraction ``q``; arbitrary non-increasing weights enter
through :class:`TabulatedScheme`. A scheme's ``weight`` and ``integral`` act
elementwise on arrays. Per-rank weights are integrals of ``w`` over the rank
cells ``((i-1)/lam, i/lam]`` and are computed analytically (interval
overlap), never by numeric quadrature: downstream improvement checks run at
1e-10 tolerances.

The preference of a fitness level spanning quantiles ``(q-, q+]`` is the
average of ``w`` over it, ``integral(q-, q+) / (q+ - q-)``, or ``w(q+)`` when
the level has no mass. That formula is written once, in ``_tie_average``, and
serves :func:`preference_exact` and the Monte Carlo estimate in
:func:`igokit.diagnostics.estimate_J`.

Ties compare by exact floating equality, matching the rank definitions; values
that differ in the last bit are distinct. The exact oracle asks, state after
state, about the same fixed support table, so three one-entry caches keep the
last answer for read-only float64 arrays that own their data (no view can
write through them; only a caller that turns writing back on could, and
nothing here does), and a hit returns what a fresh computation would:

* :func:`_levels` keeps the ranking of the last such table: its distinct
  values and each entry's level index.
* ``_level_pass`` checks a ``(prob, table)`` pair and sums the mass of each
  level and the mass at or below it; it keeps the pass of the last pair
  whose two arrays are both such arrays, keyed on the two objects. The
  checks are skipped on a hit: the same two objects passed them and cannot
  have changed. :func:`preference_exact` and
  :func:`igokit.oracle.exact_quantile` both read it, so the quantile of a
  new state and the next step from it share one pass.
* :func:`preference_exact` keeps its result for the last such
  ``(prob, table)`` pair and scheme object (schemes are immutable), so the
  progress bound of a step reuses the preference the step used. It returns
  that result read-only.

Each cache is replaced by a single assignment of one tuple, so a thread reads
either the old entry or the new one, never a mix. Every function here is
otherwise pure over immutable inputs and safe for parallel use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "TruncationScheme",
    "TabulatedScheme",
    "SampleWeights",
    "rank_bounds",
    "sample_weights",
    "preference_exact",
]


class _Scheme:
    """Per-rank weights shared by the schemes; subclasses give ``integral``."""

    def bar_weights(self, lam: int) -> np.ndarray:
        """Per-rank weights: the integral of w over each rank cell."""
        if lam < 1:
            raise InvalidInputError("lam must be >= 1")
        edges = np.arange(lam + 1) / lam
        return self.integral(edges[:-1], edges[1:])


@dataclass(frozen=True)
class TruncationScheme(_Scheme):
    """Truncation selection: uniform weight ``1/q`` on quantiles ``u <= q``.

    ``q`` must be strictly interior, ``0 < q < 1``.
    """

    q: float

    def __post_init__(self):
        q = float(self.q)
        if not (0.0 < q < 1.0) or not np.isfinite(q):
            raise InvalidInputError(f"q must satisfy 0 < q < 1, got {self.q!r}")
        object.__setattr__(self, "q", q)

    def weight(self, u):
        """Point values w(u), elementwise."""
        return np.where(np.asarray(u) <= self.q, 1.0 / self.q, 0.0)

    def integral(self, a, b):
        """Exact integrals of w over [a, b], elementwise, 0 <= a <= b <= 1."""
        a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
        if (b < a).any():
            raise InvalidInputError("integral bounds must satisfy a <= b")
        return (np.minimum(b, self.q) - np.minimum(a, self.q)) / self.q


@dataclass(frozen=True)
class TabulatedScheme(_Scheme):
    """Selection scheme given directly by its per-cell weights.

    ``cells`` holds the integrals of ``w`` over ``n`` equal cells of [0, 1];
    ``w`` is the corresponding step function. Entries must be non-negative,
    non-increasing and sum to 1 (within 1e-12). ``TabulatedScheme((1.0,))`` is
    the uniform scheme ``w == 1``.

    Quantile-improvement guarantees are only asserted for truncation; this
    constructor exists so arbitrary non-increasing weights can be run.
    """

    cells: tuple

    def __post_init__(self):
        cells = tuple(float(c) for c in self.cells)
        if len(cells) < 1:
            raise InvalidInputError("cells must be non-empty")
        arr = np.array(cells)
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError("cells must be finite")
        if np.any(arr < 0.0):
            raise InvalidInputError("cells must be non-negative")
        if np.any(np.diff(arr) > 1e-15):
            raise InvalidInputError("cells must be non-increasing")
        if abs(float(arr.sum()) - 1.0) > 1e-12:
            raise InvalidInputError("cells must sum to 1 within 1e-12")
        object.__setattr__(self, "cells", cells)

    def weight(self, u):
        """Point values w(u) of the step function, elementwise; w(0) is the
        first cell's height."""
        n = len(self.cells)
        k = np.clip(np.ceil(np.asarray(u, dtype=np.float64) * n) - 1, 0, n - 1)
        return n * np.array(self.cells)[k.astype(np.int64)]

    def integral(self, a, b):
        """Exact integrals of w over [a, b], elementwise, 0 <= a <= b <= 1."""
        a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
        if (b < a).any():
            raise InvalidInputError("integral bounds must satisfy a <= b")
        n = len(self.cells)
        cells = np.array(self.cells)
        head = np.concatenate(([0.0], np.cumsum(cells)))

        def prefix(t):
            t = np.clip(t, 0.0, 1.0)
            k = np.minimum(np.floor(t * n), n - 1).astype(np.int64)
            return head[k] + (t - k / n) * n * cells[k]

        return prefix(b) - prefix(a)

    def bar_weights(self, lam: int) -> np.ndarray:
        if lam == len(self.cells):
            return np.array(self.cells)
        return super().bar_weights(lam)


def rank_bounds(fitness):
    """Lower/upper rank bounds of each sample under exact-equality ties.

    Returns ``(rk_minus, rk_plus)`` where ``rk_minus[i]`` counts samples with
    strictly smaller fitness and ``rk_plus[i]`` counts samples with smaller or
    equal fitness (including sample ``i`` itself), so
    ``rk_plus[i] - rk_minus[i]`` is the multiplicity of ``fitness[i]``.
    """
    f = np.asarray(fitness, dtype=np.float64)
    if f.ndim != 1 or f.size < 1:
        raise InvalidInputError("fitness must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(f)):
        raise InvalidInputError("fitness values must be finite (no NaN/inf)")
    order = np.sort(f)
    rk_minus = np.searchsorted(order, f, side="left")
    rk_plus = np.searchsorted(order, f, side="right")
    return rk_minus, rk_plus


@dataclass(frozen=True, eq=False)
class SampleWeights:
    """Normalized per-sample selection weights: non-negative, summing to 1."""

    w: np.ndarray

    def __post_init__(self):
        w = np.array(self.w, dtype=np.float64)
        if w.ndim != 1 or w.size < 1:
            raise InvalidInputError("weights must be a non-empty 1-d sequence")
        if not ((w >= 0.0) & (w < np.inf)).all():
            raise InvalidInputError("weights must be finite and non-negative")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise InvalidInputError("weights must sum to 1 within 1e-12")
        w.setflags(write=False)
        object.__setattr__(self, "w", w)

    def __len__(self):
        return self.w.size

    def entropy(self) -> float:
        """Shannon entropy of the weights, with 0 log 0 = 0."""
        pos = self.w[self.w > 0.0]
        return float(-np.sum(pos * np.log(pos)))


def sample_weights(fitness, scheme) -> SampleWeights:
    """Tie-averaged selection weights of a fitness sample.

    Each sample receives the mean of the per-rank weights across the rank
    range its fitness value occupies; with no ties this is just the weight of
    its own rank. Weights are non-negative and sum to 1.
    """
    rk_minus, rk_plus = rank_bounds(fitness)
    lam = rk_minus.size
    bw = scheme.bar_weights(lam)
    csum = np.concatenate([[0.0], np.cumsum(bw)])
    w = (csum[rk_plus] - csum[rk_minus]) / (rk_plus - rk_minus)
    return SampleWeights(w)


def _tie_average(scheme, lo, hi, mass) -> np.ndarray:
    """The preference of a level spanning quantiles ``[lo, hi]``, elementwise.

    ``integral(lo, hi) / mass``, the average of ``w`` over the level, or the
    point value ``w(hi)`` where the level carries no mass.
    """
    return np.divide(scheme.integral(lo, hi), mass, out=scheme.weight(hi), where=mass != 0.0)


def _owns_frozen(a) -> bool:
    """Whether ``a`` is a read-only float64 array that owns its data, so that
    no view elsewhere can change its values (the fixed tables of the exact
    oracle: the cached support and :attr:`Objective.support_values`)."""
    return (
        isinstance(a, np.ndarray)
        and a.dtype == np.float64
        and a.flags.owndata
        and not a.flags.writeable
    )


# The last read-only table ranked by ``_levels`` and its levels, the last
# level pass of a frozen ``(prob, table)`` pair, and the last frozen
# preference; each replaced whole, by one assignment.
_last_levels = (None, None)
_last_pass = (None, None, None)
_last_preference = (None, None, None, None)


def _levels(f: np.ndarray):
    """``np.unique(f, return_inverse=True)``: the ascending distinct values
    of a 1-d fitness table and each entry's index among them.

    The result for a read-only table that owns its data is kept (read-only)
    and returned again while the same table object comes back; any other
    table is ranked afresh on every call.
    """
    global _last_levels
    table, levels = _last_levels
    if f is table:
        return levels
    levels = np.unique(f, return_inverse=True)
    if _owns_frozen(f):
        for a in levels:
            a.setflags(write=False)
        _last_levels = (f, levels)
    return levels


def _level_pass(p: np.ndarray, f: np.ndarray):
    """The checked level pass of a finite distribution ``p`` over a fitness
    table ``f``, both float64 arrays: ``(values, idx, mass, below)`` with the
    table's levels (:func:`_levels`), the mass of each level and the mass at
    or below it.

    ``p`` must be non-empty, 1-d, finite, non-negative and sum to 1 within
    1e-12, and ``f`` finite with one value per entry of ``p``. The pass of a
    pair whose two arrays are both read-only and own their data is kept
    (read-only) and returned again, unchecked, while the same two objects
    come back: their values cannot have changed since they passed.
    """
    global _last_pass
    kept_prob, kept_table, kept = _last_pass
    if p is kept_prob and f is kept_table:
        return kept
    if p.ndim != 1 or p.size < 1:
        raise InvalidInputError("prob must be a non-empty 1-d sequence")
    if f.shape != p.shape:
        raise InvalidInputError("fitness and prob must have the same length")
    if not ((p >= 0.0) & (p < np.inf)).all():
        raise InvalidInputError("probabilities must be finite and non-negative")
    if abs(float(p.sum()) - 1.0) > 1e-12:
        raise InvalidInputError("probabilities must sum to 1 within 1e-12")
    if not np.isfinite(f).all():
        raise InvalidInputError("fitness values must be finite")

    values, idx = _levels(f)
    mass = np.bincount(idx, weights=p, minlength=values.size)
    below = mass.cumsum()
    result = (values, idx, mass, below)
    if _owns_frozen(p) and _owns_frozen(f):
        mass.setflags(write=False)
        below.setflags(write=False)
        _last_pass = (p, f, result)
    return result


def preference_exact(prob, fitness, scheme) -> np.ndarray:
    """Exact weighted preference on a finite distribution.

    ``prob`` are the probabilities of the support points (summing to 1 within
    1e-12) and ``fitness`` their objective values. For each point, the
    strictly-better mass ``q-`` and better-or-equal mass ``q+`` are
    accumulated over exact-equality fitness groups, and the preference is
    ``w(q+)`` when the point's own level carries no mass, otherwise the
    average of ``w`` over ``(q-, q+]``. The expectation of the result under
    ``prob`` is 1.

    When ``prob`` and ``fitness`` are both read-only float64 arrays that own
    their data, the result is read-only, and it is kept and returned again
    for the same ``prob``, ``fitness`` and ``scheme`` objects.
    """
    global _last_preference
    p = np.asarray(prob, dtype=np.float64)
    f = np.asarray(fitness, dtype=np.float64)
    kept_prob, kept_table, kept_scheme, kept = _last_preference
    if p is kept_prob and f is kept_table and scheme is kept_scheme:
        return kept
    _, idx, mass, q_plus = _level_pass(p, f)
    w = _tie_average(scheme, q_plus - mass, q_plus, mass)[idx]
    if _owns_frozen(p) and _owns_frozen(f):
        w.setflags(write=False)
        _last_preference = (p, f, scheme, w)
    return w
