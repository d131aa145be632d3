"""Named algorithms and the seeded iteration loop.

Each named algorithm is one update rule under one weighting, and
:func:`_prepare_step` is the single place that maps a name to its rule:

* ``pbil`` - rank-weighted natural-gradient step on a product Bernoulli
  model (:func:`igokit.updates.igo_step`); a continuous objective is
  refused.
* ``igo_generic`` - the same natural-gradient step on whichever model the
  objective lives on.
* ``ce_ml`` - the smoothed cross-entropy/ML step
  (:func:`igokit.updates.igo_ml_step`).
* ``cma_rank_mu`` - the pure rank-mu mean/covariance recombination, i.e. the
  Gaussian blockwise weighted-ML step (covariance about the current mean,
  then mean) with the rates ``(dt_cov, dt_mean)``. No evolution paths, no
  step-size control, no rank-one term.
* ``rpp`` - reward-proportional update
  (:func:`igokit.updates.fitness_proportional_step`), on a sample or, exact,
  on the whole support with rewards ``P(x) r(x)``; ``dt = 1`` is the classic
  form ``theta <- E[x r(x)] / E[r(x)]``, smaller ``dt`` the smoothed variant.

Runs are deterministic given the seed: the sampling stream is derived as
``default_rng([seed, 0])`` and an auxiliary stream (preference estimation)
as ``default_rng([seed, 1])``, so optional diagnostics never perturb the
trajectory. Stop conditions (step budget, target fitness, domain-exit policy)
are harness plumbing; none of the recovered algorithms defines its own.
When the safeguard policy halves a step size, the already-drawn sample is
reused: only the move shrinks, never the population. A run records why it
stopped: ``max_steps``, ``target``, ``domain_exit``, or ``zero_reward`` when
a sampled rpp step draws no positive reward and so has no update.

The state carried from step to step is the params object the update rule
validated; it feeds sampling, enumeration, the KL divergence and the
expected preference as it is. Each step is appended to ``trace.steps`` as
one :class:`igokit.traceio.TraceRecord`: the state's ``model.to_eta``
packed, the step's summaries, its real ``elapsed_ns`` and the entropy of
the weights its rule used; ``traceio.trace_records`` is the view a trace
file writes. An exact rpp run builds each state's support
probabilities once, as the state's ``support_probs``: the new state's exact
summaries build them and the next step reads them. The reward table on the
support is the objective's ``support_values``, evaluated at most once per
objective (a table objective's are its table).
"""

from __future__ import annotations

import math
import time
from array import array
from dataclasses import dataclass, field, fields
from typing import Callable, Optional

import numpy as np

from . import updates
from .diagnostics import empirical_quantile, estimate_preference_mean
from .errors import DomainExitError, InvalidInputError, _check_integer, _check_q, _check_real
from .models import MAX_ENUM_DIM, Bernoulli, BernoulliParams, Gaussian, GaussianParams
from .objectives import OBJECTIVE_NAMES, Objective, make_objective
from .oracle import enumerate_bernoulli, exact_quantile
from .selection import SampleWeights, TabulatedScheme, TruncationScheme, sample_weights
from .traceio import TraceRecord

__all__ = [
    "ALGORITHMS",
    "AlgorithmConfig",
    "StepResult",
    "Trace",
    "run",
]

ALGORITHMS = ("pbil", "cma_rank_mu", "ce_ml", "rpp", "igo_generic")
_DOMAIN_EXIT_POLICIES = ("halt", "safeguard")
_MAX_HALVINGS = 30
# The sample-weighted rule of each rank-based algorithm, named in ``updates``
# and looked up there at call time, so a replaced module attribute is seen.
_SAMPLE_RULES = {"pbil": "igo_step", "igo_generic": "igo_step", "ce_ml": "igo_ml_step"}


@dataclass(frozen=True)
class AlgorithmConfig:
    """Everything a seeded run needs; validated before any work starts."""

    algorithm: str = "pbil"
    objective: str = "onemax"
    dim: int = 16
    lam: int = 100
    q: Optional[float] = 0.25
    weights_table: Optional[tuple] = None
    dt: float = 0.5
    dt_mean: Optional[float] = None
    dt_cov: Optional[float] = None
    max_steps: int = 100
    seed: int = 1
    objective_seed: int = 1
    target_fitness: Optional[float] = None
    domain_exit: str = "halt"
    uncertified: bool = False
    rpp_exact: bool = True
    bernoulli_init: float = 0.5
    estimate_j: bool = False
    timing: bool = False

    def validate(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise InvalidInputError(
                f"algorithm: unknown {self.algorithm!r}; known: {', '.join(ALGORITHMS)}"
            )
        if self.objective not in OBJECTIVE_NAMES:
            raise InvalidInputError(
                f"objective: unknown {self.objective!r}; known: {', '.join(OBJECTIVE_NAMES)}"
            )
        _check_integer("dim", self.dim, 1, "must be a positive integer")
        _check_integer("steps", self.max_steps, 0, "must be a non-negative integer")
        for key in ("seed", "objective_seed"):
            _check_integer(key, getattr(self, key), 0, "must be a non-negative integer")
        if self.domain_exit not in _DOMAIN_EXIT_POLICIES:
            raise InvalidInputError(
                f"domain-exit: must be one of {_DOMAIN_EXIT_POLICIES}, got {self.domain_exit!r}"
            )
        rank_based = self.algorithm != "rpp"
        if rank_based:
            _check_integer("lambda", self.lam, 2, "rank-based schemes need an integer >= 2")
        elif not self.rpp_exact:
            _check_integer("lambda", self.lam, 1, "sampled reward updates need an integer >= 1")
        if self.weights_table is not None:
            try:  # the table is built here, so a bad one fails before any work
                self.make_scheme()
            except InvalidInputError as exc:
                raise InvalidInputError(f"weights_table: {exc}") from None
        if self.q is not None or (rank_based and self.weights_table is None):
            _check_q(self.q)
        for key, value in (("dt", self.dt), ("dt-m", self.dt_mean), ("dt-c", self.dt_cov),
                           ("target_fitness", self.target_fitness)):
            if value is not None or key == "dt":
                _check_real(key, value, "must be a finite number")
        # Only step sizes up to 1 carry the quantile-improvement guarantee.
        rates = {"dt": self.dt}
        if self.algorithm == "cma_rank_mu":
            rates.update({"dt-c": self.resolved_dt_cov(), "dt-m": self.resolved_dt_mean()})
        for key, value in rates.items():
            _check_real(key, value, "must be finite and >= 0", lambda v: v >= 0.0)
            if value > 1.0 and not self.uncertified:
                raise InvalidInputError(
                    f"{key}: step size {value} exceeds 1: quantile improvement is only "
                    "guaranteed for 0 < dt <= 1; set uncertified to run anyway"
                )
        _check_real("bernoulli-init", self.bernoulli_init, "must lie in (0, 1)",
                    lambda v: 0.0 < v < 1.0)
        obj = self.make_objective()
        if self.algorithm == "rpp":
            if obj.direction != "max":
                raise InvalidInputError(
                    "objective: the reward-proportional path needs a reward "
                    f"(direction 'max') objective, got {self.objective!r}"
                )
            if self.rpp_exact and self.dim > MAX_ENUM_DIM:
                raise InvalidInputError(
                    f"dim: exact reward enumeration supports dim <= {MAX_ENUM_DIM}"
                )
        elif obj.direction != "min":
            raise InvalidInputError(
                f"objective: {self.objective!r} is a reward; use the rpp algorithm"
            )
        if self.algorithm == "cma_rank_mu" and obj.space != "continuous":
            raise InvalidInputError("objective: cma_rank_mu runs on continuous objectives")
        if self.algorithm == "pbil" and obj.space != "binary":
            raise InvalidInputError("objective: pbil runs on binary objectives")

    def resolved_q(self) -> float:
        return 0.5 if self.q is None else float(self.q)

    def resolved_dt_mean(self) -> float:
        return self.dt if self.dt_mean is None else self.dt_mean

    def resolved_dt_cov(self) -> float:
        return self.dt if self.dt_cov is None else self.dt_cov

    def make_objective(self) -> Objective:
        return make_objective(self.objective, self.dim, seed=self.objective_seed)

    def make_scheme(self):
        if self.weights_table is not None:
            return TabulatedScheme(self.weights_table)
        return TruncationScheme(float(self.q))

    def make_model(self):
        obj = self.make_objective()
        return Gaussian(self.dim) if obj.space == "continuous" else Bernoulli(self.dim)

    def initial_params(self):
        model = self.make_model()
        if isinstance(model, Gaussian):
            return GaussianParams(np.zeros(self.dim), np.eye(self.dim))
        return BernoulliParams(np.full(self.dim, self.bernoulli_init))

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out


@dataclass(frozen=True)
class StepResult:
    """One executed step: the validated new state plus what produced it.

    Every step carries the weights its rule used. Exact reward updates carry
    no sample; ``fitness`` then holds the reward of every support point and
    ``weights`` the normalised ``P(x) r(x)`` over the support.
    """

    params: BernoulliParams | GaussianParams
    samples: Optional[np.ndarray]
    fitness: np.ndarray
    weights: SampleWeights
    dt_used: tuple


@dataclass
class Trace:
    """A full run: one ``TraceRecord`` per step plus the outcome."""

    config: AlgorithmConfig
    steps: list = field(default_factory=list)
    stop_reason: str = "max_steps"
    final_eta: Optional[np.ndarray] = None
    halvings: int = 0

    @property
    def best_fitness(self) -> Optional[float]:
        if not self.steps:
            return None
        values = [s.best_f for s in self.steps]
        return max(values) if self.config.algorithm == "rpp" else min(values)


class _ZeroRewardSample(InvalidInputError):
    """A sampled reward step drew no positive reward, so it has no weights."""


def _prepare_step(config, model, params, scheme, objective, rng) -> Callable[[float], StepResult]:
    """Draw the step's population and build its weights once; return an
    applier over a dt scale.

    The population is drawn from (or the support enumerated under) the
    validated state ``params``, and the rule moves that same state. The
    rewards on the support are the objective's ``support_values``, evaluated
    at most once per objective; the exact reward step runs its rule on the
    support with rewards ``P(x) r(x)``. A reward step builds its weights on
    its first successful apply, once the rule has freed the normalised
    rewards it made for itself, so no two 2^d weight vectors are alive.
    """
    algo = config.algorithm
    if algo == "rpp":
        if config.rpp_exact:
            dist = enumerate_bernoulli(params)
            samples, points = None, dist.support
            fitness = objective.support_values
            rewards = dist.prob * fitness
        else:
            samples = points = model.sample(params, rng, config.lam)
            fitness = rewards = objective.batch(samples)
            if not np.any(rewards > 0.0):
                raise _ZeroRewardSample("rewards must not be all zero")
        weights = None

        def apply(scale: float) -> StepResult:
            nonlocal weights
            dt = config.dt * scale
            params_next = updates.fitness_proportional_step(model, params, points, rewards, dt)
            # built once, after the rule has freed its own normalised rewards
            if weights is None:
                weights = SampleWeights(updates._reward_weights(rewards))
            return StepResult(params_next, samples, fitness, weights, (dt,))

        return apply

    samples = model.sample(params, rng, config.lam)
    fitness = objective.batch(samples)
    weights = sample_weights(fitness, scheme)

    if algo == "cma_rank_mu":
        def apply(scale: float) -> StepResult:
            dt_cov = config.resolved_dt_cov() * scale
            dt_mean = config.resolved_dt_mean() * scale
            params_next = updates.blockwise_igo_ml_step(
                model, params, samples, weights, (dt_cov, dt_mean)
            )
            return StepResult(params_next, samples, fitness, weights, (dt_cov, dt_mean))

        return apply

    rule = getattr(updates, _SAMPLE_RULES[algo])

    def apply(scale: float) -> StepResult:
        dt = config.dt * scale
        params_next = rule(model, params, samples, weights, dt)
        return StepResult(params_next, samples, fitness, weights, (dt,))

    return apply


def _reward_trace_fields(params, rewards_on_support, q):
    """Exact-reward runs carry no sample: log exact summaries of ``params``."""
    dist = enumerate_bernoulli(params)
    expected = float(np.sum(dist.prob * rewards_on_support))
    return expected, exact_quantile(dist, rewards_on_support, q).value


def run(config: AlgorithmConfig, objective: Optional[Objective] = None) -> Trace:
    """Execute one seeded run and return its trace.

    Deterministic: the same config yields a bit-identical trace. ``objective``
    overrides the registry lookup; it must share the registry objective's
    dimension, space and direction, which ``validate`` checks against the
    algorithm. The config echo keeps the registry name either way.
    """
    config.validate()
    registered = config.make_objective()
    if objective is None:
        objective = registered
    elif ((objective.dim, objective.space, objective.direction)
          != (registered.dim, registered.space, registered.direction)):
        raise InvalidInputError(
            f"objective: an override must match {config.objective!r} in dim, space and "
            f"direction ({registered.dim}, {registered.space}, {registered.direction}), "
            f"got ({objective.dim}, {objective.space}, {objective.direction})"
        )
    model = config.make_model()
    maximize = config.algorithm == "rpp"
    scheme = None if maximize else config.make_scheme()
    params = config.initial_params()
    rng = np.random.default_rng([config.seed, 0])
    rng_aux = np.random.default_rng([config.seed, 1])
    q_for_trace = config.resolved_q()

    trace = Trace(config=config)
    t0 = time.monotonic_ns()
    for step_index in range(config.max_steps):
        prev_params = params
        try:
            applier = _prepare_step(config, model, params, scheme, objective, rng)
            if config.domain_exit == "safeguard":
                try:
                    result, scale = updates.safeguarded_step(applier, 1.0, _MAX_HALVINGS)
                except DomainExitError:
                    trace.halvings += _MAX_HALVINGS
                    raise
                trace.halvings += round(-math.log2(scale))
            else:
                result = applier(1.0)
        except DomainExitError:
            trace.stop_reason = "domain_exit"
            break
        except _ZeroRewardSample:
            trace.stop_reason = "zero_reward"
            break
        params, fitness = result.params, result.fitness
        exact = result.samples is None
        entropy = result.weights.entropy()
        # Free the draw (or an exact step's 2^d vectors) before the summaries,
        # so the next draw is made with no earlier population alive.
        del applier, result

        if exact:
            best_f, emp_q = _reward_trace_fields(params, fitness, q_for_trace)
        else:
            best_f = float(np.max(fitness) if maximize else np.min(fitness))
            emp_q = empirical_quantile(fitness, q_for_trace)
        kl_prev = model.kl_divergence(prev_params, params)
        j_est = None
        if config.estimate_j and scheme is not None:
            j_est = estimate_preference_mean(model, params, prev_params, objective, scheme, rng_aux)
        trace.steps.append(
            TraceRecord(
                step=step_index,
                eta=array("d", model.to_eta(params).tobytes()),
                best_f=best_f,
                emp_quantile_q=float(emp_q),
                j_estimate=j_est,
                kl_prev=kl_prev,
                elapsed_ns=time.monotonic_ns() - t0,
                weight_entropy=entropy,
            )
        )
        if config.target_fitness is not None:
            reached = (
                best_f >= config.target_fitness if maximize else best_f <= config.target_fitness
            )
            if reached:
                trace.stop_reason = "target"
                break
    trace.final_eta = model.to_eta(params)
    return trace

