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
Bernoulli points are checked to be 0/1 valued on every call, except the last
read-only float64 array owning its data that passed (the oracle's cached
support, handed to every exact step): that one is checked once. A draw of
``Bernoulli.sample`` is 0/1 by construction; it is returned read-only and
recorded as that passed array, so the sampled step does not scan it. The
memo, ``_check_binary``, holds its array by weak reference and keeps none
alive. It stays while the benchmark's ``sampled-runs`` workload has the run
loop pass its draw through ``batch_sufficient_statistics`` (the
``must_call`` list in ``bench/workload.py``); a step that took the draw as
trusted would need no memo.

The parameter domain is the *open* interior: Bernoulli probabilities strictly
inside ``(0, 1)``, covariances strictly positive definite. Boundary values are
rejected, never clipped: log-densities and Fisher information blow up there,
and silent clamping would mask violations of the monotone-improvement
guarantees exercised by the test suite.

Concurrency: models and parameter objects are immutable value objects and safe
to share read-only across threads. Sampling mutates the caller-supplied numpy
``Generator``; for parallel sampling derive one independent stream per worker
from a master seed, e.g. ``np.random.default_rng([master_seed, worker_index])``.
A large Bernoulli draw from a PCG64 or PCG64DXSM generator starts up to one
thread per usable CPU for its own fill and joins them before it returns; it
gives the bits, and the end state of the generator, of a serial draw. No
thread outlives the call, and importing the module touches neither threads
nor ``numpy.random``.
"""

from __future__ import annotations

import os
import threading
import weakref
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


def _owns_frozen(a) -> bool:
    """Whether ``a`` is a read-only float64 array that owns its data, so that
    no view elsewhere can change its values."""
    return (
        isinstance(a, np.ndarray)
        and a.dtype == np.float64
        and a.flags.owndata
        and not a.flags.writeable
    )


class _CheckedOnce:
    """``check(a)``, skipped for the last array that passed it if that array
    is read-only float64 and owns its data (:func:`_owns_frozen`): it cannot
    have changed since. Any other array is checked on every call, and a
    failed check keeps nothing. The kept array is held by one weak
    reference, replaced by one assignment, so the memo never keeps an array
    alive."""

    def __init__(self, check):
        self.check = check
        self.passed = None

    def __call__(self, a):
        passed = self.passed
        if passed is not None and passed() is a:
            return
        self.check(a)
        if _owns_frozen(a):
            self.passed = weakref.ref(a)

    def record(self, a) -> None:
        """Keep ``a`` as passed without running the check: for a frozen
        array its builder made to pass it."""
        self.passed = weakref.ref(a)


def _binary(pts: np.ndarray) -> None:
    if not ((pts == 0.0) | (pts == 1.0)).all():
        raise InvalidInputError("Bernoulli points must be 0/1 valued")


# The exact oracle hands the cached support to every step; it is checked once.
# ``Bernoulli.sample`` records its own draws as checked.
_check_binary = _CheckedOnce(_binary)

# The fewest entries a thread of a split Bernoulli draw fills: below about
# this many, starting and joining the thread costs more than it saves.
_MIN_PART = 1 << 17


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _threshold(rng: np.random.Generator, probs: np.ndarray, rows: np.ndarray) -> None:
    """Fill ``rows`` with uniforms from ``rng``, then with ``u < probs``."""
    rng.random(out=rows)
    np.less(rows, probs, out=rows)


def _bernoulli_fill(rng: np.random.Generator, probs: np.ndarray, out: np.ndarray) -> None:
    """Fill the C-ordered ``(count, d)`` array ``out`` with 0/1 draws, in
    ``min(usable CPUs, count * d // _MIN_PART, count)`` parts of whole rows:
    the first in the calling thread from ``rng``, each other one in its own
    short-lived thread.

    A part starting at row ``r`` draws from a copy of ``rng``'s bit generator
    advanced by ``r * d`` outputs, which is where a serial fill would be at
    that row. That needs one 64-bit output per double and an exact
    ``advance``, as PCG64 and PCG64DXSM give; any other bit generator fills
    in one part. ``rng`` then takes the state of the last copy, keeping its
    own buffered 32-bit value, so it ends where the serial fill would. An
    exception raised in a part reaches the caller after every thread has
    ended.
    """
    parts = min(_usable_cpus(), out.size // _MIN_PART, out.shape[0])
    if parts < 2 or type(rng.bit_generator) not in (np.random.PCG64, np.random.PCG64DXSM):
        _threshold(rng, probs, out)
        return
    count, d = out.shape
    bounds = [count * j // parts for j in range(parts + 1)]
    bit_generator = rng.bit_generator
    start = bit_generator.state
    copies = []
    for first in bounds[1:-1]:
        copy = type(bit_generator)()
        copy.state = start
        copies.append(copy.advance(first * d))
    errors = []

    def fill_part(copy, rows):
        try:
            _threshold(np.random.Generator(copy), probs, rows)
        except BaseException as exc:  # raised again in the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=fill_part, args=(copy, out[first:stop]))
               for copy, first, stop in zip(copies, bounds[1:-1], bounds[2:])]
    try:
        for thread in threads:
            thread.start()
        _threshold(rng, probs, out[:bounds[1]])
    finally:
        for thread in threads:
            if thread.is_alive():  # one that failed to start is not
                thread.join()
    if errors:
        raise errors[0]
    end = copies[-1].state
    end["has_uint32"], end["uinteger"] = start["has_uint32"], start["uinteger"]
    bit_generator.state = end


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
        _check_integer("dim", dim, 1, "must be a positive integer")
        self.dim = int(dim)
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

    def sufficient_statistics(self, x) -> np.ndarray:
        """T(x) = x, in the flat expectation-parameter layout."""
        return self._check_point(x).copy()

    def _check_points(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise InvalidInputError(
                f"points must have shape (n, {self.dim}), got {pts.shape}"
            )
        _check_binary(pts)
        return pts

    def batch_sufficient_statistics(self, points) -> np.ndarray:
        """Stack of T(x) rows for an ``(n, d)`` array of points. Since
        ``T(x) = x`` this is the checked points array itself, not a copy:
        callers read it and never write to it."""
        return self._check_points(points)

    # -- parameter conversions ------------------------------------------

    def to_eta(self, params: BernoulliParams) -> np.ndarray:
        """Expectation parameters; the identity map on the probabilities."""
        if params.dim != self.dim:
            raise InvalidInputError("parameter dimension mismatch")
        return params.probs.copy()

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
        p = params.probs
        return float(np.sum(np.where(x == 1.0, np.log(p), np.log1p(-p))))

    def sample(self, params: BernoulliParams, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` i.i.d. draws as a read-only ``(count, d)`` 0/1 float array.

        The uniforms are thresholded in place, ``1.0`` where ``u < p``: the
        draw allocates only its result, and gives the bits (and leaves the
        generator in the state) of
        ``(rng.random((count, d)) < p).astype(np.float64)``.

        A large draw from a PCG64 or PCG64DXSM generator (``default_rng``'s
        kind) is filled in up to one part per usable CPU, all but the first
        in short-lived threads that end before it returns (see
        :func:`_bernoulli_fill`); any other draw fills in the calling
        thread. The result is recorded as passing the 0/1 check, so the
        update rule of a sampled step does not scan it again."""
        if count < 1:
            raise InvalidInputError("count must be >= 1")
        out = np.empty((count, self.dim))
        _bernoulli_fill(rng, params.probs, out)
        out.setflags(write=False)
        _check_binary.record(out)
        return out

    def natural_grad_log_density(self, eta, x) -> np.ndarray:
        """Natural gradient of ``ln p_eta`` at ``x``: exactly ``T(x) - eta``."""
        eta = self._check_eta(eta)
        return self.sufficient_statistics(x) - eta

    # -- divergence and information --------------------------------------

    def kl_divergence(self, p: BernoulliParams, q: BernoulliParams) -> float:
        """KL(P_p || P_q); closed-form coordinate-wise sum, always >= 0.

        Rounding can push the sum a few ulp below zero for nearly identical
        parameters (where the true value is far under float resolution); the
        result is floored at exactly 0.
        """
        if p.dim != self.dim or q.dim != self.dim:
            raise InvalidInputError("parameter dimension mismatch")
        a, b = p.probs, q.probs
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
        _check_integer("dim", dim, 1, "must be a positive integer")
        self.dim = int(dim)
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

    def sufficient_statistics(self, x) -> np.ndarray:
        """``T(x) = (x, pack(x x^T))`` in the flat layout."""
        x = self._check_point(x)
        return np.concatenate([x, x[self._rows] * x[self._cols]])

    def _check_points(self, points) -> np.ndarray:
        """An ``(n, d)`` float array of finite points. A NaN or infinite
        point is refused, so the update rules may drop rows of zero weight
        from their sums exactly (see :mod:`igokit.updates`)."""
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise InvalidInputError(
                f"points must have shape (n, {self.dim}), got {pts.shape}"
            )
        if not np.isfinite(pts).all():
            raise InvalidInputError("Gaussian points must be finite")
        return pts

    def batch_sufficient_statistics(self, points) -> np.ndarray:
        pts = self._check_points(points)
        return np.hstack([pts, pts[:, self._rows] * pts[:, self._cols]])

    # -- parameter conversions --------------------------------------------

    def to_eta(self, params: GaussianParams) -> np.ndarray:
        """``(mean, pack(cov + mean mean^T))``."""
        if params.dim != self.dim:
            raise InvalidInputError("parameter dimension mismatch")
        m = params.mean
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
        diff = x - params.mean
        L = params.chol
        y = np.linalg.solve(L, diff)
        logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
        return float(-0.5 * (self.dim * np.log(2.0 * np.pi) + logdet + y @ y))

    def sample(self, params: GaussianParams, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` i.i.d. draws via the symmetric (Cholesky) factor."""
        if count < 1:
            raise InvalidInputError("count must be >= 1")
        z = rng.standard_normal((count, self.dim))
        return params.mean + z @ params.chol.T

    def natural_grad_log_density(self, eta, x) -> np.ndarray:
        """``T(x) - eta`` in the flat layout."""
        eta = self._check_eta(eta)
        return self.sufficient_statistics(x) - eta

    # -- divergence and information ------------------------------------------

    def kl_divergence(self, p: GaussianParams, q: GaussianParams) -> float:
        """Closed-form two-Gaussian KL divergence KL(P_p || P_q), floored at 0
        against rounding on nearly identical parameters."""
        if p.dim != self.dim or q.dim != self.dim:
            raise InvalidInputError("parameter dimension mismatch")
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
