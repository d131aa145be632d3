"""Statistical and numerical verification utilities.

Everything here cross-checks the core machinery from an independent angle:
empirical quantiles against exact ones, Monte Carlo preference means against
exact sums, the cubic KL expansion against closed-form divergences, and the
exact quantile along seeded runs against the infinite-population guarantee.
Monte Carlo assertions elsewhere in the suite run on fixed seed sets so CI
stays deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidInputError, _check_integer, _check_q, _check_real
from .models import Bernoulli, BernoulliParams
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

# Draws per side of the trace's Monte Carlo expected preference.
_MC_DRAWS = 2000


def empirical_quantile(values, q: float) -> float:
    """Quantile of the uniform empirical distribution, sup form.

    Returns the largest value ``m`` in the sample with at least a ``q``
    fraction at or below ``m`` and at least a ``1 - q`` fraction at or above.
    """
    q = _check_q(q)
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
    n = _check_integer("n", n, 100, "must be an integer >= 100")
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


def estimate_preference_mean(model, params_eval, params_base, objective, scheme, rng) -> float:
    """Trace helper: exact expected preference when enumerable, else Monte Carlo.

    The exact branch reads ``objective.support_values``, so a run evaluates
    the objective on the support once, not once per step, and the ranking of
    that fixed table is shared by every call.
    """
    if isinstance(model, Bernoulli) and model.dim <= MAX_ENUM_DIM:
        return exact_J(params_eval, params_base, objective.support_values, scheme)
    return estimate_J(model, params_eval, params_base, objective, scheme, rng, _MC_DRAWS).value


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


def finite_population_improvement(config, n_seeds: int) -> ImprovementStats:
    """Frequency of exact-quantile improvement along the traces of
    :func:`~igokit.algorithms.run` at seeds ``n_seeds * config.seed`` to
    ``n_seeds * config.seed + n_seeds - 1``: two ``config.seed`` values share
    no run, and ``run`` at its seed replays each. Runs end as the config
    says (steps, domain exit, target). The quantile of the initial and each
    traced state is exact, so the objective must be binary with
    ``dim <= MAX_ENUM_DIM`` (else ``InvalidInputError`` or ``CapacityError``).
    A step improves or worsens when the quantile moves by more than 1e-12,
    else counts as equal.
    """
    from .algorithms import run  # local: algorithms imports this module

    n_seeds = _check_integer("n_seeds", n_seeds, 1, "must be a positive integer")
    config.validate()
    objective = config.make_objective()
    fitness = objective.support_values
    q = config.resolved_q()

    def quantile(params):
        return exact_quantile(enumerate_bernoulli(params), fitness, q).value

    start = quantile(config.initial_params())
    improved = equal = worsened = 0
    for seed in range(n_seeds * config.seed, n_seeds * (config.seed + 1)):
        q_before = start
        for step in run(replace(config, seed=seed), objective).steps:
            q_after = quantile(BernoulliParams(step.eta))
            if q_after < q_before - 1e-12:
                improved += 1
            elif q_after > q_before + 1e-12:
                worsened += 1
            else:
                equal += 1
            q_before = q_after
    return ImprovementStats(improved + equal + worsened, improved, equal, worsened)


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
    halvings = _check_integer("halvings", halvings, 0, "must be a non-negative integer")
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
