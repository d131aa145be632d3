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
that differ in the last bit are distinct.

The exact oracle asks, state after state, about the same fixed support
table, and the benchmark's ``verify-exact`` workload calls
:func:`preference_exact`, :func:`igokit.oracle.exact_quantile` and
:func:`igokit.oracle.exact_J` on raw arrays, so reuse across those calls can
only be found by array identity. One one-entry memo, ``_last_pass``, finds
it. It trusts a table or state that is a read-only float64 array owning its
data (no view can write through it; only a caller that turns writing back on
could, and nothing here does), so a hit returns what a fresh computation
would. ``_level_pass`` checks a ``(prob, table)`` pair, ranks the table
(``np.unique``) and sums the mass of each level and the mass at or below it;
the entry holds its pass over the last such table, with the ``prob`` when
that is such an array too, and the scheme and read-only preference that
:func:`preference_exact` last computed from that pass:

* the same two objects get the kept pass back, unchecked, so the quantile
  of a new state and the next step from it share one pass and one check;
* a new state over the same table object reuses its ranking, so a table is
  ranked once and each state weighed against it once;
* the same two objects and scheme object (schemes are immutable) get the
  kept preference back, so a step's progress bound, asked before the next
  state's quantile, reuses the preference the step used.

It pays for itself: the pass and the preference on the benchmark's
``verify-exact`` workload, the ranking on ``exact-d16``. It stays while the
benchmark's ``must_call`` lists (``bench/workload.py``) have those calls
take raw arrays. Any other input is checked and computed afresh on every
call.

The entry is replaced by a single assignment of one tuple, so a thread reads
either the old entry or the new one, never a mix. Every function here is
otherwise pure over immutable inputs and safe for parallel use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, _check_q, _check_real
from .models import _owns_frozen

__all__ = [
    "TruncationScheme",
    "TabulatedScheme",
    "SampleWeights",
    "rank_bounds",
    "sample_weights",
    "preference_exact",
]


@dataclass(frozen=True)
class TruncationScheme:
    """Truncation selection: uniform weight ``1/q`` on quantiles ``u <= q``.

    ``q`` must be strictly interior, ``0 < q < 1``.
    """

    q: float

    def __post_init__(self):
        object.__setattr__(self, "q", _check_q(self.q))

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
class TabulatedScheme:
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
        try:
            cells = tuple(_check_real("cells", c, "must be finite numbers") for c in self.cells)
        except TypeError:  # not a sequence
            raise InvalidInputError(
                f"cells: must be a sequence of real numbers, got {self.cells!r}"
            ) from None
        if len(cells) < 1:
            raise InvalidInputError("cells must be non-empty")
        arr = np.array(cells)
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
        w = _check_weights(np.array(self.w, dtype=np.float64))
        w.setflags(write=False)
        object.__setattr__(self, "w", w)

    def __len__(self):
        return self.w.size

    def entropy(self) -> float:
        """Shannon entropy of the weights, with 0 log 0 = 0."""
        pos = self.w[self.w > 0.0]
        return float(-np.sum(pos * np.log(pos)))


def _check_weights(w: np.ndarray) -> np.ndarray:
    """``w`` itself once it is a non-empty 1-d distribution: the one check of
    :class:`SampleWeights`, run in place on a float64 array."""
    if w.ndim != 1 or w.size < 1:
        raise InvalidInputError("weights must be a non-empty 1-d sequence")
    _check_distribution(w, "weights")
    return w


def sample_weights(fitness, scheme) -> SampleWeights:
    """Tie-averaged selection weights of a fitness sample.

    Each sample receives the mean of the per-rank weights across the rank
    range its fitness value occupies, ``integral(k-/lam, k+/lam) / (k+ - k-)``
    with ``k-`` and ``k+`` its rank bounds; with no ties this is just the
    weight of its own rank. Weights are non-negative and sum to 1.

    Each level's weight is one integral over its own rank interval, so the
    sum stays within a few ulp of 1 at any ``lam``; differences of a
    ``lam``-long running sum of per-rank weights drift past the 1e-12 check
    of :class:`SampleWeights` near ``lam = 10^6``. Every level holds at
    least its own sample, so the point-value case of :func:`_tie_average`
    never arises here.
    """
    rk_minus, rk_plus = rank_bounds(fitness)
    lam = rk_minus.size
    w = scheme.integral(rk_minus / lam, rk_plus / lam) / (rk_plus - rk_minus)
    return SampleWeights(w)


def _tie_average(scheme, lo, hi, mass) -> np.ndarray:
    """The preference of a level spanning quantiles ``[lo, hi]``, elementwise.

    ``integral(lo, hi) / mass``, the average of ``w`` over the level, or the
    point value ``w(hi)`` where the level carries no mass.
    """
    return np.divide(scheme.integral(lo, hi), mass, out=scheme.weight(hi), where=mass != 0.0)


def _check_distribution(p: np.ndarray, name: str = "probabilities") -> None:
    """Refuse a 1-d float64 array unless it is finite, non-negative and sums
    to 1 within 1e-12."""
    if not ((p >= 0.0) & (p < np.inf)).all():
        raise InvalidInputError(f"{name} must be finite and non-negative")
    if abs(float(p.sum()) - 1.0) > 1e-12:
        raise InvalidInputError(f"{name} must sum to 1 within 1e-12")


# The last level pass over a frozen table, with its ``prob`` when that is
# frozen too (else None), and the scheme and frozen preference last computed
# from that pass (else None); replaced whole, by one assignment.
_last_pass = (None, None, None, None, None)


def _level_pass(p: np.ndarray, f: np.ndarray):
    """The checked level pass of a finite distribution ``p`` over a fitness
    table ``f``, both float64 arrays: ``(values, idx, mass, below)`` with the
    ascending distinct values of ``f`` and each entry's index among them
    (``np.unique(f, return_inverse=True)``), the mass of each level and the
    mass at or below it.

    ``p`` must be non-empty, 1-d, finite, non-negative and sum to 1 within
    1e-12, and ``f`` finite with one value per entry of ``p``. The pass over
    a table that is read-only and owns its data is kept (read-only): it is
    returned again, unchecked, while the same two objects come back, and a
    new ``p`` over the same table object reuses its ranking.
    """
    global _last_pass
    kept_prob, kept_table, kept, _, _ = _last_pass
    if p is kept_prob and f is kept_table:
        return kept
    if p.ndim != 1 or p.size < 1:
        raise InvalidInputError("prob must be a non-empty 1-d sequence")
    if f.shape != p.shape:
        raise InvalidInputError("fitness and prob must have the same length")
    _check_distribution(p)
    if not np.isfinite(f).all():
        raise InvalidInputError("fitness values must be finite")

    if f is kept_table:
        values, idx = kept[0], kept[1]
    else:
        values, idx = np.unique(f, return_inverse=True)
    mass = np.bincount(idx, weights=p, minlength=values.size)
    below = mass.cumsum()
    result = (values, idx, mass, below)
    if _owns_frozen(f):
        for a in result:
            a.setflags(write=False)
        _last_pass = (p if _owns_frozen(p) else None, f, result, None, None)
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
    global _last_pass
    p = np.asarray(prob, dtype=np.float64)
    f = np.asarray(fitness, dtype=np.float64)
    kept_prob, kept_table, _, kept_scheme, kept = _last_pass
    if p is kept_prob and f is kept_table and scheme is kept_scheme:
        return kept
    level_pass = _level_pass(p, f)
    _, idx, mass, q_plus = level_pass
    w = _tie_average(scheme, q_plus - mass, q_plus, mass)[idx]
    if _owns_frozen(p) and _owns_frozen(f):
        w.setflags(write=False)
        _last_pass = (p, f, level_pass, scheme, w)
    return w
