"""Statistical and numerical verification utilities.

Everything here cross-checks the core machinery from an independent angle:
empirical quantiles against exact ones, Monte Carlo preference means against
exact sums, the cubic KL expansion against closed-form divergences, and
finite-population improvement frequencies against the infinite-population
guarantee. Monte Carlo assertions elsewhere in the suite run on fixed seed
sets so CI stays deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainExitError, InvalidInputError, _check_real
from .models import Bernoulli, BernoulliParams, Gaussian
from .oracle import (
    MAX_ENUM_DIM,
    _sup_quantile_index,
    enumerate_bernoulli,
    exact_J,
    exact_quantile,
)
from .selection import _tie_average

__all__ = [
    "PreferenceEstimate",
    "BoundReport",
    "ImprovementStats",
    "empirical_quantile",
    "estimate_J",
    "estimate_preference_mean",
    "progress_bound",
    "finite_population_improvement",
    "check_kl_expansion",
]

# Draws whose empirical quantile stands in for a Gaussian state's exact one.
_GAUSSIAN_HOLDOUT = 100_000


def empirical_quantile(values, q: float) -> float:
    """Quantile of the uniform empirical distribution, sup form.

    Returns the largest value ``m`` in the sample with at least a ``q``
    fraction at or below ``m`` and at least a ``1 - q`` fraction at or above.
    """
    if not (0.0 < q < 1.0):
        raise InvalidInputError("q must satisfy 0 < q < 1")
    f = np.asarray(values, dtype=np.float64)
    if f.ndim != 1 or f.size < 1:
        raise InvalidInputError("values must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(f)):
        raise InvalidInputError("values must be finite")
    n = f.size
    vals, counts = np.unique(f, return_counts=True)
    lower = np.cumsum(counts) / n
    upper = np.cumsum(counts[::-1])[::-1] / n
    return float(vals[_sup_quantile_index(lower, upper, q)])


@dataclass(frozen=True)
class PreferenceEstimate:
    """Monte Carlo mean of the base-state preference with its standard error."""

    value: float
    stderr: float
    n: int


def estimate_J(model, params_eval, params_base, f, scheme, rng, n: int) -> PreferenceEstimate:
    """Monte Carlo estimate of the expected base-preference under ``params_eval``.

    The quantile structure of the base state is estimated from a holdout
    sample of ``n`` draws from ``params_base``, each valued by the
    :class:`~igokit.objectives.Objective` ``f``, and the preference of each of
    ``n`` draws from ``params_eval`` is its tie-averaged weight against that
    holdout, so the result is statistical on both sides. The reported
    standard error covers the evaluation draws only. For the exact value on
    enumerable models see :func:`~igokit.oracle.exact_J`.
    """
    if n < 100:
        raise InvalidInputError("n must be >= 100")
    holdout = model.sample(params_base, rng, n)
    base_f = np.sort(f.batch(holdout))
    draws = model.sample(params_eval, rng, n)
    f_draws = f.batch(draws)
    u_minus = np.searchsorted(base_f, f_draws, side="left") / n
    u_plus = np.searchsorted(base_f, f_draws, side="right") / n
    w_draws = _tie_average(scheme, u_minus, u_plus, u_plus - u_minus)
    value = float(np.mean(w_draws))
    stderr = float(np.std(w_draws, ddof=1) / np.sqrt(n))
    return PreferenceEstimate(value=value, stderr=stderr, n=n)


def estimate_preference_mean(model, params_eval, params_base, objective, scheme, rng,
                             n: int = 2000) -> float:
    """Trace helper: exact expected preference when enumerable, else Monte Carlo.

    The exact branch reads ``objective.support_values``, so a run evaluates
    the objective on the support once, not once per step, and the ranking of
    that fixed table is shared by every call.
    """
    if isinstance(model, Bernoulli) and model.dim <= MAX_ENUM_DIM:
        return exact_J(params_eval, params_base, objective.support_values, scheme)
    return estimate_J(model, params_eval, params_base, objective, scheme, rng, n).value


@dataclass(frozen=True)
class BoundReport:
    """Exact expected preference of a step against its divergence bound.

    ``satisfied`` records the strict comparison ``j_value > bound`` with
    ``bound = exp(((1 - dt) / dt) * kl_value)``; at ``dt = 1`` the bound
    degenerates to 1. A step that did not move (``fixed_point``) sits exactly
    at ``j = bound = 1`` and cannot satisfy the strict form.
    """

    j_value: float
    kl_value: float
    bound: float
    satisfied: bool
    fixed_point: bool


def progress_bound(params_t: BernoulliParams, params_next: BernoulliParams, fitness, scheme,
                   dt: float) -> BoundReport:
    """Exact progress report for one Bernoulli step (enumerable dimensions),
    read from the validated states before and after it; neither is converted.
    ``dt`` must be finite and positive."""
    _check_real("dt", dt, "must be finite and > 0", lambda v: 0.0 < v < np.inf)
    j_value = exact_J(params_next, params_t, fitness, scheme)
    kl_value = Bernoulli(params_t.dim).kl_divergence(params_t, params_next)
    if dt == 1.0:
        bound = 1.0
    else:
        bound = float(np.exp(((1.0 - dt) / dt) * kl_value))
    fixed_point = bool(np.abs(params_next.probs - params_t.probs).max() <= 1e-12)
    return BoundReport(
        j_value=j_value,
        kl_value=kl_value,
        bound=bound,
        satisfied=bool(j_value > bound),
        fixed_point=fixed_point,
    )


@dataclass(frozen=True)
class ImprovementStats:
    """Counts of quantile movement across executed finite-population steps.

    ``steps_improved`` counts strict quantile decreases, ``steps_equal`` exact
    stalls and ``steps_worsened`` increases; the three partition
    ``steps_total``. ``improvement_rate`` is the frequency of the weak
    improvement event (the quantile did not worsen): on integer-valued
    objectives the quantile moves by whole levels and stalls on plateaus, so
    strict decreases alone are rare even when every step improves weakly.
    """

    steps_total: int
    steps_improved: int
    steps_equal: int
    steps_worsened: int

    @property
    def improvement_rate(self) -> float:
        if not self.steps_total:
            return 0.0
        return (self.steps_improved + self.steps_equal) / self.steps_total


def finite_population_improvement(config, n_steps: int, n_seeds: int) -> ImprovementStats:
    """Frequency of exact-quantile improvement along finite-population runs.

    For Bernoulli configurations the quantile before and after each executed
    step is exact (full enumeration); Gaussian configurations use a seeded
    holdout sample of ``_GAUSSIAN_HOLDOUT`` draws as a quantile surrogate and
    are statistical by nature. A step counts as improving or worsening when
    the quantile moves by more than 1e-12, else as equal. Seeds derive from
    ``config.seed`` and the seed index, so the counts are reproducible.
    """
    from .algorithms import _prepare_step  # local: avoids import cycle

    config.validate()
    objective = config.make_objective()
    model = config.make_model()
    scheme = config.make_scheme() if config.algorithm != "rpp" else None
    q = float(config.q) if config.q is not None else 0.5
    gaussian = isinstance(model, Gaussian)

    def exact_q(params, rng_hold):
        if gaussian:
            pts = model.sample(params, rng_hold, _GAUSSIAN_HOLDOUT)
            return empirical_quantile(objective.batch(pts), q)
        return exact_quantile(enumerate_bernoulli(params), objective.support_values, q).value

    improved = equal = worsened = total = 0
    for seed_index in range(n_seeds):
        rng = np.random.default_rng([config.seed, seed_index, 0])
        rng_hold = np.random.default_rng([config.seed, seed_index, 1])
        params = config.initial_params()
        q_before = exact_q(params, rng_hold)
        for _ in range(n_steps):
            try:
                params = _prepare_step(config, model, params, scheme, objective, rng)(1.0).params
            except DomainExitError:
                break
            q_after = exact_q(params, rng_hold)
            total += 1
            if q_after < q_before - 1e-12:
                improved += 1
            elif q_after > q_before + 1e-12:
                worsened += 1
            else:
                equal += 1
            q_before = q_after
    return ImprovementStats(total, improved, equal, worsened)


def check_kl_expansion(model, eta, delta, halvings: int) -> np.ndarray:
    """Cubic-corrected expansion errors of the KL divergence under halved steps.

    In expectation parameters the KL divergence is the Bregman divergence of
    the negative entropy ``phi``, so
    ``KL(eta || eta + d) = 0.5 d^T F(eta) d + D^3 phi(eta)[d, d, d] / 3 + O(d^4)``.
    Returns ``err_k = |KL(eta || eta + d_k) - 0.5 d_k^T F(eta) d_k
    - D^3 phi(eta)[d_k, d_k, d_k] / 3|`` for ``k = 0 .. halvings`` with
    ``d_k = delta / 2^k``; the remainder is quartic, so each halving should
    shrink the error by about 16x. Raises a domain exit if ``eta + delta`` is
    not a valid state.
    """
    if halvings < 0:
        raise InvalidInputError("halvings must be >= 0")
    eta = np.asarray(eta, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    if delta.shape != eta.shape:
        raise InvalidInputError("delta must match eta's shape")
    base = model.from_eta(eta)
    model.from_eta(eta + delta)
    fim = model.fisher_information(eta)
    errs = np.empty(halvings + 1)
    for k in range(halvings + 1):
        d = delta / (2.0**k)
        kl = model.kl_divergence(base, model.from_eta(eta + d))
        cubic = model._negentropy_third_derivative(eta, d) / 3.0
        errs[k] = abs(kl - 0.5 * float(d @ fim @ d) - cubic)
    return errs
