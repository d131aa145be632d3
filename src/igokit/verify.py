"""Machine-checkable verification suites for the improvement guarantees.

Each suite replays one guarantee on a deterministic, seed-derived grid of
configurations and reports per-case detail:

* ``quantile-improvement``: exact infinite-population steps never raise the
  q-quantile; every stall is explained by an unchanged state or by positive
  mass at the quantile level.
* ``blockwise-improvement``: the same, for coordinate-blocked steps with a
  different step size per coordinate.
* ``fitness-improvement``: exact reward-proportional steps never lower the
  expected reward; the full step equals the reward-weighted mean.
* ``equivalence``: the natural-gradient step, the weighted-ML blend and an
  independent smoothed CE/ML reference (the weighted ML point fitted in
  source parameters, mapped to expectation parameters, then blended)
  coincide coordinate-wise on random instances of both families.
* ``cma-recovery``: the Gaussian blockwise step (covariance, then mean)
  equals the rank-mu mean/covariance recombination formulas.
* ``progress-bound``: the expected preference of each executed step beats
  ``exp(((1 - dt)/dt) KL)`` strictly away from fixed points, and the worked
  two-bit instance reproduces j = 1.25 against a bound of 16/15.
* ``kl-expansion``: halving a displacement shrinks the error of the cubic
  expansion of the KL divergence by at least 8x on a committed point set.
* ``natural-gradient``: the inverse Fisher matrix times a finite-difference
  log-density gradient matches ``T(x) - eta``.
* ``finite-population``: large-population runs improve the exact quantile in
  at least 90% of executed steps on the committed configuration.
* ``determinism``: one seed renders byte-identical traces twice.

Exact dynamics may hit the open-domain boundary in finite float precision
(mass concentrates on an optimum and a full step lands on a vertex); a grid
case then stops at the domain exit and its executed steps are what gets
checked. Cases run sequentially; each draws from its own seed-derived
stream, so a report depends only on the suite, grid and seed. Each suite
function returns its list of cases; :func:`run_suite` times the call and
builds the report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import updates
from .algorithms import AlgorithmConfig, run
from .diagnostics import (
    check_kl_expansion,
    finite_population_improvement,
    progress_bound,
)
from .errors import DomainExitError, InvalidInputError, _check_integer
from .models import Bernoulli, BernoulliParams, Gaussian, GaussianParams
from .objectives import make_objective
from .oracle import (
    bernoulli_support,
    enumerate_bernoulli,
    exact_blockwise_coordinate_step,
    exact_infinite_population_step,
    exact_quantile,
)
from .selection import TruncationScheme, sample_weights
from .traceio import render_trace, trace_records

__all__ = ["CaseResult", "SuiteReport", "SUITES", "run_suite"]

QUANTILE_TOL = 1e-12
# Strictness of the progress bound is only numerically meaningful while the
# step is macroscopic; below this the margin drowns in summation noise.
FIXED_POINT_GUARD = 1e-6
REWARD_GUARD = 1e-9

_GRID_SIZES = {"small": 200, "large": 600}
_GRID_MAX_DIM = 10  # improvement-grid dimensions are drawn from 2..10
_EQUIVALENCE_SIZES = {"small": 1000, "large": 2000}
_CMA_SIZES = {"small": 500, "large": 1500}


@dataclass(frozen=True)
class CaseResult:
    name: str
    passed: bool
    detail: dict


@dataclass
class SuiteReport:
    suite: str
    grid: str
    seed: int
    cases: list = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    @property
    def n_failed(self) -> int:
        return sum(not c.passed for c in self.cases)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "grid": self.grid,
            "seed": self.seed,
            "passed": self.passed,
            "cases_total": len(self.cases),
            "cases_failed": self.n_failed,
            "elapsed_s": round(self.elapsed_s, 3),
            "cases": [
                {"name": c.name, "passed": c.passed, **c.detail} for c in self.cases
            ],
        }


# ---------------------------------------------------------------------------
# exact improvement grids


@dataclass(frozen=True)
class _GridCase:
    index: int
    d: int
    objective: str
    objective_seed: int
    q: float
    dt: float
    theta0: tuple
    dt_blocks: tuple = ()


def _improvement_grid(seed: int, size: int) -> list:
    combos = [
        (f, q, dt)
        for f in ("onemax", "binval", "random-table")
        for q in (0.1, 0.25, 0.5)
        for dt in (0.1, 0.5, 1.0)
    ]
    rng = np.random.default_rng([seed, 777])
    cases = []
    for i in range(size):
        f, q, dt = combos[i % len(combos)]
        d = int(rng.integers(2, _GRID_MAX_DIM + 1))
        theta0 = rng.uniform(0.1, 0.9, d)
        mixed = tuple(
            1.0 if u < 0.25 else lo
            for u, lo in zip(rng.random(d), rng.uniform(0.05, 1.0, d))
        )
        cases.append(
            _GridCase(
                index=i,
                d=d,
                objective=f,
                objective_seed=1000 + i,
                q=q,
                dt=dt,
                theta0=tuple(theta0),
                dt_blocks=mixed,
            )
        )
    return cases


def _exact_improvement_case(case: _GridCase, steps: int, blockwise: bool,
                            check_bound: bool) -> CaseResult:
    fvals = make_objective(case.objective, case.d, seed=case.objective_seed).support_values
    scheme = TruncationScheme(case.q)
    params = BernoulliParams(case.theta0)

    q_before = exact_quantile(enumerate_bernoulli(params), fvals, case.q)
    executed = 0
    stopped_early = False
    max_increase = 0.0
    unexplained = 0
    bound_violations = 0
    min_margin = np.inf
    for _ in range(steps):
        try:
            if blockwise:
                params_next = exact_blockwise_coordinate_step(
                    params, fvals, scheme, case.dt_blocks
                )
            else:
                params_next = exact_infinite_population_step(params, fvals, scheme, case.dt)
        except DomainExitError:
            stopped_early = True
            break
        executed += 1
        move = float(np.abs(params_next.probs - params.probs).max())
        # The bound first: it reads the preference the step just used, which
        # the next state's level pass would replace.
        if check_bound and move > 1e-12:
            report = progress_bound(params, params_next, fvals, scheme, case.dt)
            margin = report.j_value - report.bound
            min_margin = min(min_margin, margin)
            if move > FIXED_POINT_GUARD:
                if not report.satisfied:
                    bound_violations += 1
            elif margin < -QUANTILE_TOL:
                bound_violations += 1
        q_after = exact_quantile(enumerate_bernoulli(params_next), fvals, case.q)
        increase = q_after.value - q_before.value
        max_increase = max(max_increase, increase)
        if abs(increase) <= QUANTILE_TOL and move > 1e-12:
            mass_at_level = float(params_next.support_probs[fvals == q_before.value].sum())
            if not mass_at_level > 0.0:
                unexplained += 1
        params = params_next
        q_before = q_after
    detail = {
        "d": case.d,
        "objective": case.objective,
        "q": case.q,
        "dt": case.dt,
        "steps_executed": executed,
        "stopped_early": stopped_early,
        "max_q_increase": max_increase,
        "unexplained_stalls": unexplained,
    }
    passed = max_increase <= QUANTILE_TOL and unexplained == 0
    if check_bound:
        detail["bound_violations"] = bound_violations
        detail["min_margin"] = None if min_margin is np.inf else min_margin
        passed = passed and bound_violations == 0
    return CaseResult(name=f"case-{case.index:03d}", passed=passed, detail=detail)


def suite_quantile_improvement(grid, seed) -> list:
    return [
        _exact_improvement_case(c, 100, blockwise=False, check_bound=False)
        for c in _improvement_grid(seed, _GRID_SIZES[grid])
    ]


def suite_blockwise_improvement(grid, seed) -> list:
    return [
        _exact_improvement_case(c, 100, blockwise=True, check_bound=False)
        for c in _improvement_grid(seed, _GRID_SIZES[grid])
    ]


def suite_progress_bound(grid, seed) -> list:
    return [
        _exact_improvement_case(c, 100, blockwise=False, check_bound=True)
        for c in _improvement_grid(seed, _GRID_SIZES[grid])
    ] + [_worked_instance_case()]


def _worked_instance_case() -> CaseResult:
    support = bernoulli_support(2)
    fvals = support.sum(axis=1)
    scheme = TruncationScheme(0.5)
    params = BernoulliParams([0.5, 0.5])
    params_next = exact_infinite_population_step(params, fvals, scheme, 0.5)
    report = progress_bound(params, params_next, fvals, scheme, 0.5)
    detail = {
        "eta_next": [float(v) for v in params_next.probs],
        "j_value": report.j_value,
        "kl_value": report.kl_value,
        "bound": report.bound,
    }
    passed = (
        float(np.max(np.abs(params_next.probs - 0.375))) <= 1e-12
        and abs(report.j_value - 1.25) <= 1e-9
        and abs(report.bound - 16.0 / 15.0) <= 1e-6
        and report.satisfied
    )
    return CaseResult(name="worked-instance", passed=passed, detail=detail)


# ---------------------------------------------------------------------------
# fitness-proportional improvement


def _fitness_case(index: int, seed: int) -> CaseResult:
    rng = np.random.default_rng([seed, 555, index])
    d = int(rng.integers(2, 11))
    dt = (0.25, 0.5, 1.0)[index % 3]
    params = BernoulliParams(rng.uniform(0.1, 0.9, d))
    rewards = rng.random(2**d)
    model = Bernoulli(d)
    dist = enumerate_bernoulli(params)

    full_step_err = None
    if dt == 1.0:
        target = (dist.prob * rewards) @ dist.support / float(dist.prob @ rewards)
        try:
            eta1 = updates.fitness_proportional_step(model, params, dist, rewards, 1.0).probs
            full_step_err = float(np.max(np.abs(eta1 - target)))
        except DomainExitError:
            full_step_err = 0.0  # the closed form itself sat on the boundary

    expected = float(dist.prob @ rewards)
    executed = 0
    stopped_early = False
    worst_drop = 0.0
    unexplained_equal = 0
    for _ in range(100):
        try:
            params_next = updates.fitness_proportional_step(model, params, dist, rewards, dt)
        except DomainExitError:
            stopped_early = True
            break
        executed += 1
        dist = enumerate_bernoulli(params_next)
        expected_next = float(dist.prob @ rewards)
        worst_drop = max(worst_drop, expected - expected_next)
        move = float(np.abs(params_next.probs - params.probs).max())
        if abs(expected_next - expected) <= 1e-12 and move > REWARD_GUARD:
            unexplained_equal += 1
        params = params_next
        expected = expected_next
    detail = {
        "d": d,
        "dt": dt,
        "steps_executed": executed,
        "stopped_early": stopped_early,
        "worst_drop": worst_drop,
        "unexplained_equal": unexplained_equal,
        "full_step_err": full_step_err,
    }
    passed = worst_drop <= 1e-12 and unexplained_equal == 0
    if full_step_err is not None:
        passed = passed and full_step_err <= 1e-12
    return CaseResult(name=f"case-{index:03d}", passed=passed, detail=detail)


def suite_fitness_improvement(grid, seed) -> list:
    return [_fitness_case(i, seed) for i in range(_GRID_SIZES[grid])]


# ---------------------------------------------------------------------------
# three-way equivalence


def _draw_equivalence_instance(family: str, rng: np.random.Generator):
    if family == "bernoulli":
        d = int(rng.integers(1, 7))
        model = Bernoulli(d)
        params = BernoulliParams(rng.uniform(0.2, 0.8, d))
        lam = int(rng.integers(8, 40))
    else:
        d = int(rng.integers(1, 4))
        model = Gaussian(d)
        mean = rng.normal(0.0, 1.0, d)
        a = rng.normal(0.0, 1.0, (d, d))
        cov = a @ a.T + (0.5 + rng.random()) * np.eye(d)
        params = GaussianParams(mean, cov)
        lam = int(rng.integers(max(8, 4 * d), 40))
    samples = model.sample(params, rng, lam)
    fitness = rng.normal(0.0, 1.0, lam)
    q = float(rng.uniform(0.2, 0.8))
    weights = sample_weights(fitness, TruncationScheme(q))
    return model, params, samples, weights


def _smoothed_ce_reference(model, eta, samples, w, dt) -> np.ndarray:
    """Smoothed CE/ML step computed independently of ``updates``: fit the
    weighted ML point in source parameters (Bernoulli ``p = w @ x``; Gaussian
    ``m = w @ x`` and ``C = sum_i w_i (x_i - m)(x_i - m)^T``), map it to
    expectation parameters in the packed layout, then blend with weight
    ``dt``. The Gaussian point is not validated as a distribution, so a
    rank-deficient scatter still blends for ``dt < 1``."""
    if isinstance(model, Bernoulli):
        eta_ml = w @ samples
    else:
        m = w @ samples
        centered = samples - m
        cov = (w[:, None] * centered).T @ centered
        cov = (cov + cov.T) / 2.0
        eta_ml = np.concatenate([m, model.pack_symmetric(cov + np.outer(m, m))])
    return (1.0 - dt) * eta + dt * eta_ml


def _equivalence_case(family: str, index: int, seed: int) -> CaseResult:
    """Float rounding can park either update exactly on the boundary of the
    domain; such draws are rejected and redrawn deterministically."""
    rng = np.random.default_rng([seed, 444, index, 0 if family == "bernoulli" else 1])
    dt = (0.1, 0.5, 1.0)[index % 3]
    for _ in range(200):
        model, params, samples, weights = _draw_equivalence_instance(family, rng)
        try:
            a = model.to_eta(updates.igo_step(model, params, samples, weights, dt))
            b = model.to_eta(updates.igo_ml_step(model, params, samples, weights, dt))
        except DomainExitError:
            continue
        c = _smoothed_ce_reference(model, model.to_eta(params), samples, weights.w, dt)
        spread = float(
            max(np.max(np.abs(a - b)), np.max(np.abs(a - c)), np.max(np.abs(b - c)))
        )
        detail = {"family": family, "dt": dt, "dim": model.dim, "max_discrepancy": spread}
        return CaseResult(
            name=f"{family}-{index:04d}", passed=spread <= 1e-10, detail=detail
        )
    raise RuntimeError("could not draw a non-degenerate equivalence instance")


def suite_equivalence(grid, seed) -> list:
    per_family = _EQUIVALENCE_SIZES[grid]
    return [
        _equivalence_case(family, i, seed)
        for family in ("bernoulli", "gaussian")
        for i in range(per_family)
    ]


# ---------------------------------------------------------------------------
# rank-mu recovery


def _cma_case(index: int, seed: int) -> CaseResult:
    rng = np.random.default_rng([seed, 333, index])
    d = (1, 2, 5)[index % 3]
    model = Gaussian(d)
    mean = rng.normal(0.0, 1.0, d)
    a = rng.normal(0.0, 1.0, (d, d))
    cov = a @ a.T + (0.5 + rng.random()) * np.eye(d)
    params = GaussianParams(mean, cov)
    lam = int(rng.integers(2 * d + 6, 2 * d + 20))
    samples = model.sample(params, rng, lam)
    fitness = rng.normal(0.0, 1.0, lam)
    q = float(rng.uniform((d + 2.5) / lam, 0.9))
    weights = sample_weights(fitness, TruncationScheme(q))
    dt_cov = float(rng.uniform(0.05, 1.0))
    dt_mean = float(rng.uniform(0.05, 1.0))

    # Independent reference: the rank-mu recombination formulas, term by term.
    w = weights.w
    step_cov = np.zeros((d, d))
    for i in range(lam):
        diff = samples[i] - mean
        step_cov += w[i] * (np.outer(diff, diff) - cov)
    cov_ref = cov + dt_cov * step_cov
    mean_ref = mean + dt_mean * sum(w[i] * (samples[i] - mean) for i in range(lam))

    out = updates.blockwise_igo_ml_step(
        model, params, samples, weights, (dt_cov, dt_mean)
    )
    err = float(
        max(np.max(np.abs(out.mean - mean_ref)), np.max(np.abs(out.cov - cov_ref)))
    )
    detail = {"dim": d, "lam": lam, "dt_cov": dt_cov, "dt_mean": dt_mean, "max_err": err}
    return CaseResult(name=f"case-{index:03d}", passed=err <= 1e-12, detail=detail)


def suite_cma_recovery(grid, seed) -> list:
    return [_cma_case(i, seed) for i in range(_CMA_SIZES[grid])]


# ---------------------------------------------------------------------------
# KL expansion and natural gradient


def _kl_committed_set(seed: int) -> list:
    rng = np.random.default_rng([seed, 222])
    cases = []
    cases.append(("bernoulli", 1, np.array([0.5]), np.array([0.05])))
    for d in (1, 2, 4):
        for _ in range(4):
            eta = rng.uniform(0.2, 0.8, d)
            direction = rng.normal(0.0, 1.0, d)
            delta = 0.04 * direction / np.linalg.norm(direction)
            cases.append(("bernoulli", d, eta, delta))
    for d in (1, 2):
        model = Gaussian(d)
        for _ in range(4):
            mean = rng.uniform(-0.5, 0.5, d)
            a = rng.normal(0.0, 0.2, (d, d))
            cov = np.eye(d) + a @ a.T
            eta = model.to_eta(GaussianParams(mean, cov))
            direction = rng.normal(0.0, 1.0, eta.size)
            delta = 0.04 * direction / np.linalg.norm(direction)
            cases.append(("gaussian", d, eta, delta))
    return cases


def _kl_case(index: int, family: str, d: int, eta, delta) -> CaseResult:
    model = Bernoulli(d) if family == "bernoulli" else Gaussian(d)
    errs = check_kl_expansion(model, eta, delta, halvings=6)
    # The remainder is quartic (ideal ratio 16); no absolute slack, since
    # the residuals themselves reach 1e-14 at k = 6.
    ratios_ok = all(errs[k + 1] * 8.0 <= errs[k] for k in range(len(errs) - 1))
    detail = {"family": family, "dim": d, "errs": [float(e) for e in errs]}
    return CaseResult(name=f"case-{index:02d}", passed=ratios_ok, detail=detail)


def suite_kl_expansion(grid, seed) -> list:
    return [_kl_case(i, *c) for i, c in enumerate(_kl_committed_set(seed))]


def _natural_gradient_case(index: int, seed: int) -> CaseResult:
    rng = np.random.default_rng([seed, 111, index])
    d = int(rng.integers(1, 5))
    model = Bernoulli(d)
    eta = rng.uniform(0.1, 0.9, d)
    x = rng.integers(0, 2, d).astype(np.float64)
    params = model.from_eta(eta)
    h = 1e-6
    grad = np.empty(d)
    for i in range(d):
        up = eta.copy()
        dn = eta.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (
            model.log_density(model.from_eta(up), x)
            - model.log_density(model.from_eta(dn), x)
        ) / (2.0 * h)
    natural = np.linalg.solve(model.fisher_information(eta), grad)
    expected = model.natural_grad_log_density(eta, x)
    rel = float(np.max(np.abs(natural - expected)) / np.max(np.abs(expected)))
    detail = {"dim": d, "rel_err": rel}
    return CaseResult(name=f"case-{index:03d}", passed=rel <= 1e-5, detail=detail)


def suite_natural_gradient(grid, seed) -> list:
    size = 200 if grid == "small" else 500
    return [_natural_gradient_case(i, seed) for i in range(size)]


# ---------------------------------------------------------------------------
# finite population and determinism


def suite_finite_population(grid, seed) -> list:
    config = AlgorithmConfig(
        algorithm="pbil",
        objective="onemax",
        dim=8,
        lam=10_000,
        q=0.25,
        dt=0.5,
        max_steps=50,
        seed=seed,
    )
    stats = finite_population_improvement(config, n_steps=50, n_seeds=10)
    detail = {
        "steps_total": stats.steps_total,
        "steps_improved": stats.steps_improved,
        "steps_equal": stats.steps_equal,
        "steps_worsened": stats.steps_worsened,
        "improvement_rate": stats.improvement_rate,
    }
    return [
        CaseResult(
            name="onemax-d8-lam10000", passed=stats.improvement_rate >= 0.9, detail=detail
        )
    ]


def suite_determinism(grid, seed) -> list:
    results = []
    configs = {
        "pbil-csv": (
            AlgorithmConfig(algorithm="pbil", objective="onemax", dim=12, lam=60,
                            q=0.25, dt=0.4, max_steps=25, seed=seed),
            "csv",
        ),
        "cma-jsonl": (
            AlgorithmConfig(algorithm="cma_rank_mu", objective="sphere", dim=3,
                            lam=40, q=0.5, dt=0.6, max_steps=20, seed=seed),
            "jsonl",
        ),
    }
    for name, (config, fmt) in configs.items():
        first = render_trace(trace_records(run(config)), fmt=fmt)
        second = render_trace(trace_records(run(config)), fmt=fmt)
        results.append(
            CaseResult(
                name=name,
                passed=first == second and len(first) > 0,
                detail={"bytes": len(first), "identical": first == second},
            )
        )
    return results


SUITES = {
    "quantile-improvement": suite_quantile_improvement,
    "blockwise-improvement": suite_blockwise_improvement,
    "fitness-improvement": suite_fitness_improvement,
    "equivalence": suite_equivalence,
    "cma-recovery": suite_cma_recovery,
    "progress-bound": suite_progress_bound,
    "kl-expansion": suite_kl_expansion,
    "natural-gradient": suite_natural_gradient,
    "finite-population": suite_finite_population,
    "determinism": suite_determinism,
}


def run_suite(name: str, grid: str = "small", seed: int = 1) -> SuiteReport:
    """Run one suite and report its cases with the wall time they took."""
    if name not in SUITES:
        raise InvalidInputError(
            f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}"
        )
    if grid not in _GRID_SIZES:
        raise InvalidInputError(f"unknown grid {grid!r}; known: small, large")
    _check_integer("seed", seed, 0, "must be a non-negative integer")
    seed = int(seed)
    t0 = time.monotonic()
    cases = SUITES[name](grid, seed)
    return SuiteReport(name, grid, seed, cases, time.monotonic() - t0)
