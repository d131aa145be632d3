"""Benchmark objectives for both search spaces, phrased as minimization.

Binary objectives take 0/1 rows, as a bool array or as numbers, continuous
ones real rows. A binary objective refuses any other value with
``InvalidInputError``, by the check a Bernoulli rule makes: a bool array is
taken unscanned, numbers are scanned on every call. No binary objective
widens a bool array of the support's size except binval, whose ``1 - x`` is
float64. Reward objectives
(direction ``"max"``, non-negative values) exist for the reward-proportional
update path, which maximizes; everything else is minimized. Random tables
are reproducible from ``(seed, dim)`` alone.

A binary objective of enumerable dimension evaluates its whole support once,
on first use of :attr:`Objective.support_values`; every exact computation
that reads the fitness of all of ``{0,1}^d`` shares that one read-only table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import CapacityError, InvalidInputError, _check_integer
from .models import _binary_points, _frozen_array, _points_array
from .oracle import MAX_ENUM_DIM, bernoulli_support

__all__ = ["Objective", "OBJECTIVE_NAMES", "make_objective"]


@dataclass(frozen=True)
class Objective:
    """A deterministic objective on one of the two search spaces."""

    name: str
    dim: int
    space: str  # "binary" | "continuous"
    direction: str  # "min" | "max"
    fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    optimum: Optional[float] = None
    optimizer: Optional[np.ndarray] = None

    def batch(self, points) -> np.ndarray:
        """Objective values of an ``(n, d)`` array of points; a binary
        objective refuses a point that is not 0/1."""
        check = _binary_points if self.space == "binary" else _points_array
        return np.asarray(self.fn(check(points, self.dim)), dtype=np.float64)

    @cached_property
    def support_values(self) -> np.ndarray:
        """Objective values of every point of ``{0,1}^dim`` in the oracle's
        lexicographic order: ``batch(bernoulli_support(dim))``, evaluated on
        first use and then kept, read-only.

        Raises ``InvalidInputError`` for a continuous objective and
        ``CapacityError`` when ``dim > MAX_ENUM_DIM``.
        """
        if self.space != "binary":
            raise InvalidInputError(
                f"support values need a binary objective, {self.name!r} is {self.space}"
            )
        return _frozen_array(self.batch(bernoulli_support(self.dim)))

    def __call__(self, x) -> float:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.dim,):
            raise InvalidInputError(
                f"point must have shape ({self.dim},), got {x.shape}"
            )
        return float(self.batch(x[None, :])[0])


def _onemax(dim, seed):
    return Objective(
        name="onemax",
        dim=dim,
        space="binary",
        direction="min",
        fn=lambda pts: dim - pts.sum(axis=1),
        optimum=0.0,
        optimizer=np.ones(dim),
    )


def _binval(dim, seed):
    weights = 2.0 ** np.arange(dim)
    return Objective(
        name="binval",
        dim=dim,
        space="binary",
        direction="min",
        fn=lambda pts: (1.0 - pts) @ weights,
        optimum=0.0,
        optimizer=np.ones(dim),
    )


def _leadingones(dim, seed):
    return Objective(
        name="leadingones",
        dim=dim,
        space="binary",
        direction="min",
        fn=lambda pts: dim - np.logical_and.accumulate(pts, axis=1).sum(axis=1),
        optimum=0.0,
        optimizer=np.ones(dim),
    )


def _sphere(dim, seed):
    return Objective(
        name="sphere",
        dim=dim,
        space="continuous",
        direction="min",
        fn=lambda pts: np.sum(pts * pts, axis=1),
        optimum=0.0,
        optimizer=np.zeros(dim),
    )


def _ellipsoid(dim, seed):
    if dim == 1:
        coeffs = np.ones(1)
    else:
        coeffs = 10.0 ** (6.0 * np.arange(dim) / (dim - 1))
    return Objective(
        name="ellipsoid",
        dim=dim,
        space="continuous",
        direction="min",
        fn=lambda pts: (pts * pts) @ coeffs,
        optimum=0.0,
        optimizer=np.zeros(dim),
    )


def _point_index(pts: np.ndarray) -> np.ndarray:
    """Each row's position in the oracle's order: its bits read as a binary
    number, leftmost coordinate most significant. An integer einsum casts a
    bool array in small buffered chunks, so it is never widened whole."""
    codes = 1 << np.arange(pts.shape[1] - 1, -1, -1)
    return np.einsum("ij,j->i", pts, codes).astype(np.int64, copy=False)


def _table_objective(name, dim, seed, direction):
    if dim > MAX_ENUM_DIM:
        raise CapacityError(
            f"table objectives support dim <= {MAX_ENUM_DIM}, got {dim}"
        )
    rng = np.random.default_rng([seed, dim])
    table = rng.random(2**dim)
    table.setflags(write=False)
    support = bernoulli_support(dim)
    best = int(np.argmin(table) if direction == "min" else np.argmax(table))
    return Objective(
        name=name,
        dim=dim,
        space="binary",
        direction=direction,
        fn=lambda pts: table[_point_index(pts)],
        optimum=float(table[best]),
        optimizer=support[best].astype(np.float64),
    )


def _random_table(dim, seed):
    return _table_objective("random-table", dim, seed, "min")


def _random_reward(dim, seed):
    return _table_objective("random-reward", dim, seed, "max")


def _count_reward(dim, seed):
    return Objective(
        name="count-reward",
        dim=dim,
        space="binary",
        direction="max",
        fn=lambda pts: pts.sum(axis=1),
        optimum=float(dim),
        optimizer=np.ones(dim),
    )


_FACTORIES = {
    "onemax": _onemax,
    "binval": _binval,
    "leadingones": _leadingones,
    "sphere": _sphere,
    "ellipsoid": _ellipsoid,
    "random-table": _random_table,
    "random-reward": _random_reward,
    "count-reward": _count_reward,
}

OBJECTIVE_NAMES = tuple(sorted(_FACTORIES))


def make_objective(name: str, dim: int, seed: int = 1) -> Objective:
    """Build a registry objective. ``seed`` only matters for random tables."""
    if name not in _FACTORIES:
        raise InvalidInputError(
            f"unknown objective {name!r}; known: {', '.join(OBJECTIVE_NAMES)}"
        )
    return _FACTORIES[name](_check_integer("dim", dim, 1, "must be a positive integer"), seed)

