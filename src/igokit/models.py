"""Exponential-family search distributions in expectation parameters.

Two families are provided: the product Bernoulli distribution on ``{0,1}^d``
(densities w.r.t. the counting measure) and the full multivariate Gaussian on
``R^d`` (Lebesgue measure). Everything downstream works with the *expectation
parameters* ``eta = E[T(x)]`` of the family, stored as one flat float vector:

* Bernoulli: ``eta[i] = P[x_i = 1]``, ``d`` entries, ``T(x) = x``.
* Gaussian: ``d`` mean entries followed by the second-moment matrix
  ``E[x x^T]`` packed in row-major upper-triangular order
  (``d*(d+1)/2`` entries), so ``T(x) = (x, pack(x x^T))``.

One canonical packed layout stores each symmetric entry exactly once, which
keeps inner products over the flat vector free of double counting.

Each family's divergence, Fisher information ``Cov_eta(T)^-1`` and negative
entropy third derivative are independent closed forms, so the KL-expansion
check compares formulas that share no code.

A Bernoulli state owns its exact distribution on ``{0,1}^d``,
``BernoulliParams.support_probs``: built on first read, then kept read-only.
Bernoulli points are bool arrays: the oracle's support and every draw of
``Bernoulli.sample`` are read-only bool, 0/1 by type, and a rule takes a
bool array as it is, without a scan. Points of any other dtype become
float64 and are checked to be 0/1 on every call.

The parameter domain is the *open* interior: Bernoulli probabilities strictly
inside ``(0, 1)``, covariances strictly positive definite. Boundary values are
rejected, never clipped: log-densities and Fisher information blow up there,
and silent clamping would mask violations of the monotone-improvement
guarantees exercised by the test suite. A family takes only states of its
own class and dimension (``_check_params``); any other is refused before
it is read.

Concurrency: models and parameter objects are immutable value objects and safe
to share read-only across threads. Sampling mutates the caller-supplied numpy
``Generator``; for parallel sampling derive one independent stream per worker
from a master seed, e.g. ``np.random.default_rng([master_seed, worker_index])``.
Every draw is filled in the calling thread: the module starts no threads,
and importing it does not load ``numpy.random``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    CapacityError,
    DegenerateDistributionError,
    DomainExitError,
    InvalidInputError,
    _check_integer,
)

__all__ = [
    "MAX_ENUM_DIM",
    "BernoulliParams",
    "GaussianParams",
    "Bernoulli",
    "Gaussian",
]

# 2^16 = 65536 support points keeps the whole verification grid in seconds.
MAX_ENUM_DIM = 16

# Uniforms per scratch block of ``Bernoulli.sample`` (256 KB of float64).
_DRAW_BLOCK = 1 << 15


def _owns_frozen(a) -> bool:
    """Whether ``a`` is a read-only float64 array that owns its data, so that
    no view elsewhere can change its values."""
    return (
        isinstance(a, np.ndarray)
        and a.dtype == np.float64
        and a.flags.owndata
        and not a.flags.writeable
    )


def _binary(pts: np.ndarray) -> None:
    if not ((pts == 0.0) | (pts == 1.0)).all():
        raise InvalidInputError("Bernoulli points must be 0/1 valued")


def _points_array(points, dim: int) -> np.ndarray:
    """``points`` as an ``(n, dim)`` array: a bool array as it is, anything
    else as float64; any other shape, or a value numpy cannot convert, is
    refused. A family that computes in floats converts a bool array itself."""
    if isinstance(points, np.ndarray) and points.dtype == np.bool_:
        pts = points
    else:
        try:
            pts = np.asarray(points, dtype=np.float64)
        except (TypeError, ValueError):  # a value numpy cannot convert
            pts = None
    if pts is None or pts.ndim != 2 or pts.shape[1] != dim:
        got = type(points).__name__ if pts is None else pts.shape
        raise InvalidInputError(f"points must have shape (n, {dim}), got {got}")
    return pts


def _frozen_array(value, dtype=np.float64) -> np.ndarray:
    out = np.array(value, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class BernoulliParams:
    """Success probabilities of a product Bernoulli distribution.

    Invariants: ``0 < probs[i] < 1`` for every coordinate and ``d >= 1``.
    """

    probs: np.ndarray

    def __post_init__(self):
        probs = _frozen_array(self.probs)
        if probs.ndim != 1 or probs.size < 1:
            raise InvalidInputError("probs must be a non-empty 1-d sequence")
        # One predicate for the whole domain: NaN and +-inf fail it too.
        outside = ~((probs > 0.0) & (probs < 1.0))
        if outside.any():
            bad = int(outside.argmax())
            raise InvalidInputError(
                f"coordinate {bad} = {float(probs[bad])!r} left the open interval (0, 1)"
            )
        object.__setattr__(self, "probs", probs)

    @property
    def dim(self) -> int:
        return self.probs.size

    @cached_property
    def support_probs(self) -> np.ndarray:
        """Probability of every point of ``{0,1}^dim`` in the oracle's order.

        The ``O(2^d)`` Kronecker product of the factors ``(1 - p_j, p_j)``,
        built in two ``2^d`` buffers used in turn: pass ``j`` writes the
        ``k = 2^j`` products so far times ``1 - p_j`` into the even slots of
        the spare buffer and times ``p_j`` into the odd ones, each one
        strided multiply over ``k`` entries. Entry ``x`` is then the
        product of its factors taken in coordinate order, starting from 1,
        as in a row-wise product over the support, so it has the same bits.
        """
        if self.dim > MAX_ENUM_DIM:
            raise CapacityError(f"exact enumeration supports dim <= {MAX_ENUM_DIM}, got {self.dim}")
        prob, spare = np.empty(1 << self.dim), np.empty(1 << self.dim)
        prob[0] = 1.0
        k = 1
        for e in self.probs.tolist():
            np.multiply(prob[:k], 1.0 - e, out=spare[0:2 * k:2])
            np.multiply(prob[:k], e, out=spare[1:2 * k:2])
            prob, spare = spare, prob
            k *= 2
        prob.setflags(write=False)
        return prob


@dataclass(frozen=True, eq=False)
class GaussianParams:
    """Mean vector and covariance matrix of a multivariate Gaussian.

    The covariance must be exactly symmetric as stored and strictly positive
    definite; validity is checked through Cholesky factorization, and the
    factor is cached for sampling and density evaluation. Cholesky success
    is the whole domain check: a covariance whose smallest eigenvalue is
    about 1e-16 of its largest can still pass, as the first full-rate
    ``cma_rank_mu`` step on a d=3 sphere with two winners does.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = _frozen_array(self.mean)
        cov = _frozen_array(self.cov)
        if mean.ndim != 1 or mean.size < 1:
            raise InvalidInputError("mean must be a non-empty 1-d sequence")
        d = mean.size
        if cov.shape != (d, d):
            raise InvalidInputError(f"cov must have shape ({d}, {d}), got {cov.shape}")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise InvalidInputError("mean and cov must be finite")
        if not np.array_equal(cov, cov.T):
            raise InvalidInputError("cov must be exactly symmetric as stored")
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise DegenerateDistributionError(
                "covariance is not positive definite"
            ) from None
        chol.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "_chol", chol)

    @property
    def dim(self) -> int:
        return self.mean.size

    @property
    def chol(self) -> np.ndarray:
        """Lower-triangular Cholesky factor of ``cov``."""
        return self._chol


class Bernoulli:
    """Product Bernoulli family on ``{0,1}^d`` in expectation parameters.

    The success probabilities are simultaneously the expectation parameters,
    since the sufficient statistics are the coordinates themselves.
    """

    def __init__(self, dim: int):
        self.dim = _check_integer("dim", dim, 1, "must be a positive integer")
        self.eta_dim = self.dim

    def __repr__(self):
        return f"Bernoulli(dim={self.dim})"

    # -- points and statistics ------------------------------------------

    def _check_point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.dim,):
            raise InvalidInputError(
                f"point must have shape ({self.dim},), got {x.shape}"
            )
        _binary(x)
        return x

    def _check_eta(self, eta) -> np.ndarray:
        eta = np.asarray(eta, dtype=np.float64)
        if eta.shape != (self.eta_dim,):
            raise InvalidInputError(
                f"eta must have shape ({self.eta_dim},), got {eta.shape}"
            )
        return eta

    def _check_points(self, points) -> np.ndarray:
        """An ``(n, d)`` array of 0/1 points: a bool array as it is, without
        a scan; any other becomes float64 and is scanned."""
        pts = _points_array(points, self.dim)
        if pts.dtype != np.bool_:
            _binary(pts)
        return pts

    def batch_sufficient_statistics(self, points) -> np.ndarray:
        """Stack of T(x) rows for an ``(n, d)`` array of points. Since
        ``T(x) = x`` this is the checked points array itself, bool as given,
        not a copy: callers read it and never write to it."""
        return self._check_points(points)

    # -- parameter conversions ------------------------------------------

    def _check_params(self, params) -> BernoulliParams:
        """``params`` if it is a state of this family and dimension."""
        if not isinstance(params, BernoulliParams) or params.dim != self.dim:
            raise InvalidInputError(
                f"parameter dimension mismatch: {self!r} takes BernoulliParams of dim {self.dim}"
            )
        return params

    def to_eta(self, params: BernoulliParams) -> np.ndarray:
        """Expectation parameters; the identity map on the probabilities."""
        return self._check_params(params).probs.copy()

    def from_eta(self, eta) -> BernoulliParams:
        """Inverse conversion. Raises ``DomainExitError`` if any coordinate
        left the open interval (0, 1)."""
        eta = self._check_eta(eta)
        try:
            return BernoulliParams(eta)
        except InvalidInputError as exc:
            raise DomainExitError(str(exc)) from None

    # -- densities and sampling -----------------------------------------

    def log_density(self, params: BernoulliParams, x) -> float:
        """Log probability mass of ``x`` (counting measure)."""
        x = self._check_point(x)
        p = self._check_params(params).probs
        return float(np.sum(np.where(x == 1.0, np.log(p), np.log1p(-p))))

    def sample(self, params: BernoulliParams, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` i.i.d. draws as a read-only ``(count, d)`` bool array.

        The uniforms are drawn about ``_DRAW_BLOCK`` floats at a time, whole
        rows, into one reused scratch block and thresholded into the
        result, ``True`` where ``u < p``, in the calling thread: the draw
        allocates its result and the block, and gives the bits (and leaves
        the generator in the state) of ``rng.random((count, d)) < p``, for
        every bit generator."""
        count = _check_integer("count", count, 1, "must be a positive integer")
        probs = self._check_params(params).probs
        out = np.empty((count, self.dim), dtype=np.bool_)
        rows = max(1, min(count, _DRAW_BLOCK // self.dim))
        block = np.empty((rows, self.dim))
        for start in range(0, count, rows):
            u = block[:min(rows, count - start)]
            rng.random(out=u)
            np.less(u, probs, out=out[start:start + len(u)])
        out.setflags(write=False)
        return out

    # -- divergence and information --------------------------------------

    def kl_divergence(self, p: BernoulliParams, q: BernoulliParams) -> float:
        """KL(P_p || P_q); closed-form coordinate-wise sum, always >= 0.

        Rounding can push the sum a few ulp below zero for nearly identical
        parameters (where the true value is far under float resolution); the
        result is floored at exactly 0.
        """
        a, b = self._check_params(p).probs, self._check_params(q).probs
        terms = a * (np.log(a) - np.log(b)) + (1.0 - a) * (np.log1p(-a) - np.log1p(-b))
        return max(0.0, float(np.sum(terms)))

    def fisher_information(self, eta) -> np.ndarray:
        """Fisher information in expectation parameters, ``Cov_eta(T)^-1``:
        the same formula as the Gaussian one with ``Cov(T) = diag(p (1 - p))``,
        so the diagonal matrix with entries ``1 / (eta_i * (1 - eta_i))``."""
        params = self.from_eta(eta)
        p = params.probs
        return np.diag(1.0 / (p * (1.0 - p)))

    def _negentropy_third_derivative(self, eta, delta) -> float:
        """``D^3 phi(eta)[delta, delta, delta]`` for the negative entropy
        ``phi``, the cubic term of the KL expansion:
        ``sum_i (-1/p_i^2 + 1/(1 - p_i)^2) delta_i^3``."""
        p = self.from_eta(eta).probs
        delta = self._check_eta(delta)
        return float(np.sum((1.0 / (1.0 - p) ** 2 - 1.0 / p**2) * delta**3))


class Gaussian:
    """Full-covariance multivariate Gaussian family on ``R^d``.

    Expectation parameters are the mean and the (packed) second moment
    ``E[x x^T] = cov + mean mean^T``; the inverse conversion recovers the
    covariance by subtracting the outer product of the mean. Sampling goes
    through the cached Cholesky factor of the covariance.
    """

    def __init__(self, dim: int):
        self.dim = _check_integer("dim", dim, 1, "must be a positive integer")
        rows, cols = np.triu_indices(self.dim)
        self._rows = rows
        self._cols = cols
        self.eta_dim = self.dim + rows.size

    def __repr__(self):
        return f"Gaussian(dim={self.dim})"

    # -- packing helpers --------------------------------------------------

    def pack_symmetric(self, mat: np.ndarray) -> np.ndarray:
        """Row-major upper-triangular packing of a symmetric ``(d, d)`` matrix."""
        mat = np.asarray(mat, dtype=np.float64)
        if mat.shape != (self.dim, self.dim):
            raise InvalidInputError("matrix shape mismatch")
        return mat[self._rows, self._cols].copy()

    def unpack_symmetric(self, packed: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`pack_symmetric`; the result is exactly symmetric."""
        packed = np.asarray(packed, dtype=np.float64)
        if packed.shape != (self._rows.size,):
            raise InvalidInputError("packed length mismatch")
        mat = np.zeros((self.dim, self.dim))
        mat[self._rows, self._cols] = packed
        mat[self._cols, self._rows] = packed
        return mat

    # -- points and statistics -------------------------------------------

    def _check_point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.dim,):
            raise InvalidInputError(
                f"point must have shape ({self.dim},), got {x.shape}"
            )
        return x

    def _check_eta(self, eta) -> np.ndarray:
        eta = np.asarray(eta, dtype=np.float64)
        if eta.shape != (self.eta_dim,):
            raise InvalidInputError(
                f"eta must have shape ({self.eta_dim},), got {eta.shape}"
            )
        return eta

    def _check_points(self, points) -> np.ndarray:
        """An ``(n, d)`` float64 array of finite points (a bool array is
        converted). A NaN or infinite point is refused, so the update rules
        may drop rows of zero weight from their sums exactly (see
        :mod:`igokit.updates`)."""
        pts = _points_array(points, self.dim).astype(np.float64, copy=False)
        if not np.isfinite(pts).all():
            raise InvalidInputError("Gaussian points must be finite")
        return pts

    def batch_sufficient_statistics(self, points) -> np.ndarray:
        """Stack of ``T(x) = (x, pack(x x^T))`` rows for an ``(n, d)`` array
        of points."""
        pts = self._check_points(points)
        return np.hstack([pts, pts[:, self._rows] * pts[:, self._cols]])

    # -- parameter conversions --------------------------------------------

    def _check_params(self, params) -> GaussianParams:
        """``params`` if it is a state of this family and dimension."""
        if not isinstance(params, GaussianParams) or params.dim != self.dim:
            raise InvalidInputError(
                f"parameter dimension mismatch: {self!r} takes GaussianParams of dim {self.dim}"
            )
        return params

    def to_eta(self, params: GaussianParams) -> np.ndarray:
        """``(mean, pack(cov + mean mean^T))``."""
        m = self._check_params(params).mean
        second = params.cov + np.outer(m, m)
        return np.concatenate([m, second[self._rows, self._cols]])

    def from_eta(self, eta) -> GaussianParams:
        """Recover ``(mean, cov)`` with ``cov = M2 - mean mean^T``.

        Raises ``DegenerateDistributionError`` when the implied covariance is
        not positive definite and ``DomainExitError`` when ``eta`` is not
        finite.
        """
        eta = self._check_eta(eta)
        m = eta[: self.dim]
        second = self.unpack_symmetric(eta[self.dim :])
        # inf - inf may appear here; GaussianParams rejects the result.
        with np.errstate(invalid="ignore"):
            cov = second - np.outer(m, m)
            cov = (cov + cov.T) / 2.0
        try:
            return GaussianParams(m, cov)
        except InvalidInputError as exc:
            raise DomainExitError(str(exc)) from None

    # -- densities and sampling --------------------------------------------

    def log_density(self, params: GaussianParams, x) -> float:
        """Log density of ``x`` w.r.t. Lebesgue measure."""
        x = self._check_point(x)
        diff = x - self._check_params(params).mean
        L = params.chol
        y = np.linalg.solve(L, diff)
        logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
        return float(-0.5 * (self.dim * np.log(2.0 * np.pi) + logdet + y @ y))

    def sample(self, params: GaussianParams, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` i.i.d. draws via the symmetric (Cholesky) factor."""
        count = _check_integer("count", count, 1, "must be a positive integer")
        params = self._check_params(params)
        z = rng.standard_normal((count, self.dim))
        return params.mean + z @ params.chol.T

    # -- divergence and information ------------------------------------------

    def kl_divergence(self, p: GaussianParams, q: GaussianParams) -> float:
        """Closed-form two-Gaussian KL divergence KL(P_p || P_q), floored at 0
        against rounding on nearly identical parameters."""
        p, q = self._check_params(p), self._check_params(q)
        Lq = q.chol
        x = np.linalg.solve(Lq, p.chol)
        trace_term = float(np.sum(x * x))
        y = np.linalg.solve(Lq, q.mean - p.mean)
        maha = float(y @ y)
        logdet_q = 2.0 * float(np.sum(np.log(np.diag(Lq))))
        logdet_p = 2.0 * float(np.sum(np.log(np.diag(p.chol))))
        return max(0.0, 0.5 * (trace_term + maha - self.dim + logdet_q - logdet_p))

    def fisher_information(self, eta) -> np.ndarray:
        """Fisher information in expectation parameters, ``Cov_eta(T)^-1``.

        ``Cov_eta(T)`` is built in the packed layout from the Gaussian fourth
        moments (Isserlis): ``Cov(x) = C``,
        ``Cov(x_a, x_k x_l) = m_k C_al + m_l C_ak`` and
        ``Cov(x_i x_j, x_k x_l) = C_ik C_jl + C_il C_jk + m_i m_k C_jl
        + m_i m_l C_jk + m_j m_k C_il + m_j m_l C_ik``.
        """
        params = self.from_eta(eta)
        m, c = params.mean, params.cov
        i, j = self._rows, self._cols
        c_ik, c_jl = c[i[:, None], i], c[j[:, None], j]
        c_il, c_jk = c[i[:, None], j], c[j[:, None], i]
        cross = m[i] * c[:, j] + m[j] * c[:, i]
        fourth = (
            c_ik * c_jl + c_il * c_jk
            + np.outer(m[i], m[i]) * c_jl + np.outer(m[i], m[j]) * c_jk
            + np.outer(m[j], m[i]) * c_il + np.outer(m[j], m[j]) * c_ik
        )
        return np.linalg.inv(np.block([[c, cross], [cross.T, fourth]]))

    def _negentropy_third_derivative(self, eta, delta) -> float:
        """``D^3 phi(eta)[delta, delta, delta]`` for the negative entropy
        ``phi = -ln det(C) / 2 + const`` with ``C = S - m m^T``.

        Along ``eta + t delta`` the covariance moves with
        ``C' = dS - dm m^T - m dm^T`` and ``C'' = -2 dm dm^T``; with
        ``A = C^-1`` and ``X = A C'`` the third derivative is
        ``-(2 tr X^3 - 3 tr(X A C'')) / 2``.
        """
        params = self.from_eta(eta)
        delta = self._check_eta(delta)
        m, dm = params.mean, delta[: self.dim]
        c1 = self.unpack_symmetric(delta[self.dim :]) - np.outer(dm, m) - np.outer(m, dm)
        c2 = -2.0 * np.outer(dm, dm)
        x = np.linalg.solve(params.cov, c1)
        y = np.linalg.solve(params.cov, c2)
        return float(-0.5 * (2.0 * np.trace(x @ x @ x) - 3.0 * np.trace(x @ y)))
