import json

import numpy as np
import pytest

from igokit import (
    AlgorithmConfig,
    Bernoulli,
    BernoulliParams,
    DomainExitError,
    Gaussian,
    GaussianParams,
    InvalidInputError,
    TabulatedScheme,
    TruncationScheme,
    bernoulli_support,
    blockwise_igo_ml_step,
    check_kl_expansion,
    empirical_quantile,
    enumerate_bernoulli,
    estimate_J,
    exact_quantile,
    finite_population_improvement,
    fitness_proportional_step,
    igo_ml_step,
    igo_step,
    make_objective,
    safeguarded_step,
)
from igokit import selection, updates
from igokit.updates import _weight_array, _weighted_sum
from igokit.verify import SUITES, _cma_case, _exact_improvement_case, _GridCase, run_suite


def test_unknown_suite_and_grid():
    with pytest.raises(InvalidInputError, match="unknown suite"):
        run_suite("nope")
    with pytest.raises(InvalidInputError, match="unknown grid"):
        run_suite("cma-recovery", grid="huge")


def _halvings_tried(max_halvings):
    """The step sizes ``safeguarded_step`` tries on a step that always exits."""
    tried = []

    def exits(dt):
        tried.append(dt)
        raise DomainExitError("always exits")

    with pytest.raises(DomainExitError):
        safeguarded_step(exits, 1.0, max_halvings)
    return tried


_SHORT_RUN = AlgorithmConfig(algorithm="pbil", objective="onemax", dim=4, lam=10,
                             q=0.5, dt=0.2, max_steps=1, seed=7)

# Each integer argument, with a reader of the value it went on with.
_INTEGER_ARGUMENTS = {
    "Bernoulli(dim)": ("dim", Bernoulli, lambda model: model.dim),
    "Gaussian(dim)": ("dim", Gaussian, lambda model: model.dim),
    "bernoulli_support(dim)": ("dim", bernoulli_support, lambda pts: pts.shape[1]),
    "make_objective(dim)": ("dim", lambda dim: make_objective("onemax", dim),
                            lambda objective: objective.dim),
    "run_suite(seed)": ("seed", lambda seed: run_suite("kl-expansion", seed=seed),
                        lambda report: report.seed),
    "finite_population_improvement(n_seeds)": (
        "n_seeds", lambda n: finite_population_improvement(_SHORT_RUN, n_seeds=n),
        lambda stats: stats.steps_total),
    "Bernoulli.sample(count)": (
        "count", lambda n: Bernoulli(2).sample(BernoulliParams([0.5, 0.5]),
                                               np.random.default_rng(0), n), len),
    "Gaussian.sample(count)": (
        "count", lambda n: Gaussian(2).sample(GaussianParams(np.zeros(2), np.eye(2)),
                                              np.random.default_rng(0), n), len),
    "check_kl_expansion(halvings)": (
        "halvings", lambda k: check_kl_expansion(Bernoulli(1), [0.5], [0.1], halvings=k),
        lambda errs: len(errs) - 1),
    "safeguarded_step(max_halvings)": (
        "max_halvings", _halvings_tried, lambda tried: len(tried) - 1),
}


@pytest.mark.parametrize("argument", sorted(_INTEGER_ARGUMENTS))
def test_integer_arguments_share_one_check(argument):
    """Whole numbers go on as ``int``; anything else is refused by name as
    ``InvalidInputError``, never as a raw ``TypeError`` or ``ValueError``."""
    key, build, read = _INTEGER_ARGUMENTS[argument]
    for bad in ("x", None, [2], 1.5, float("nan"), -1):
        with pytest.raises(InvalidInputError, match=f"^{key}: "):
            build(bad)
    value = read(build(2.0))
    assert value == 2 and type(value) is int


# Each quantile level ``q``: a call taking it, and what that call gives at
# ``q = 0.25``.
_Q_ARGUMENTS = {
    "TruncationScheme(q)": (lambda q: TruncationScheme(q).q, 0.25),
    "exact_quantile(q)": (
        lambda q: exact_quantile(enumerate_bernoulli(BernoulliParams([0.5])), [0.0, 1.0],
                                 q).value,
        0.0),
    "empirical_quantile(q)": (lambda q: empirical_quantile([0.0, 1.0, 2.0, 3.0], q), 1.0),
    "AlgorithmConfig(q)": (
        lambda q: (AlgorithmConfig(q=q).validate(), AlgorithmConfig(q=q).resolved_q()), (None, 0.25)),
}


@pytest.mark.parametrize("argument", sorted(_Q_ARGUMENTS))
def test_quantile_levels_share_one_check(argument):
    """A level strictly inside (0, 1) goes on as a ``float``; anything else,
    a string or ``None`` too, is refused by name as ``InvalidInputError``."""
    call, expected = _Q_ARGUMENTS[argument]
    for bad in ("0.5", None, [0.5], 0.0, 1.0, -0.25, float("nan"), float("inf")):
        with pytest.raises(InvalidInputError, match="^q: must satisfy 0 < q < 1"):
            call(bad)
    assert call(np.float64(0.25)) == expected


# Each step size: its name in the message, a call taking it, and what that
# call gives at 0.25. The steps move p = 1/2 toward the point 1 by a quarter.
_HALF, _ONE = BernoulliParams([0.5]), [[1.0]]
_STEP_SIZES = {
    "igo_step(dt)": ("dt", lambda dt: igo_step(Bernoulli(1), _HALF, _ONE, [1.0], dt).probs[0],
                     0.625),
    "igo_ml_step(dt)": (
        "dt", lambda dt: igo_ml_step(Bernoulli(1), _HALF, _ONE, [1.0], dt).probs[0], 0.625),
    "fitness_proportional_step(dt)": (
        "dt", lambda dt: fitness_proportional_step(Bernoulli(1), _HALF, _ONE, [2.0], dt)
        .probs[0], 0.625),
    "blockwise_igo_ml_step(dt_per_block)": (
        "dt_per_block",
        lambda dt: blockwise_igo_ml_step(Bernoulli(1), _HALF, _ONE, [1.0], [dt]).probs[0],
        0.625),
    "safeguarded_step(dt)": ("dt", lambda dt: safeguarded_step(lambda a: a, dt)[1], 0.25),
    "AlgorithmConfig(dt)": ("dt", lambda dt: AlgorithmConfig(dt=dt).validate(), None),
}


@pytest.mark.parametrize("argument", sorted(_STEP_SIZES))
def test_step_sizes_share_one_check(argument):
    """A finite step size ``>= 0`` goes on as a number; anything else, a
    string or ``None`` too, is refused by name as ``InvalidInputError``."""
    key, call, expected = _STEP_SIZES[argument]
    for bad in ("0.5", None, [0.5], -0.25, float("nan"), float("inf")):
        with pytest.raises(InvalidInputError, match=f"^{key}: "):
            call(bad)
    assert call(np.float64(0.25)) == expected


@pytest.mark.parametrize("call, good", [
    (TabulatedScheme, [1.0]),
    (lambda rates: blockwise_igo_ml_step(Bernoulli(1), _HALF, _ONE, [1.0], rates), [0.25]),
], ids=["TabulatedScheme(cells)", "blockwise_igo_ml_step(dt_per_block)"])
def test_sequences_of_numbers_refuse_anything_else(call, good):
    """A sequence of real numbers is taken; anything else is refused as
    ``InvalidInputError``, never as a raw ``TypeError``."""
    for bad in (None, 0.5, [[1.0]], {"a": 1}, "1"):
        with pytest.raises(InvalidInputError):
            call(bad)
    call(good)


def test_estimate_j_draw_count_is_checked():
    """As ``test_integer_arguments_share_one_check``, for ``estimate_J``'s
    ``n``, whose floor of 100 draws does not fit the table's 2.0 row: the
    same bad values and a few near the floor."""
    params = BernoulliParams([0.5, 0.5])

    def estimate(n):
        return estimate_J(Bernoulli(2), params, params, make_objective("onemax", 2),
                          TruncationScheme(0.5), np.random.default_rng(0), n)

    for bad in ("x", None, [2], 1.5, float("nan"), -1, 99, 150.5, "200"):
        with pytest.raises(InvalidInputError, match="^n: "):
            estimate(bad)
    n = estimate(150.0).n
    assert n == 150 and type(n) is int


def test_cases_depend_only_on_their_index_and_seed():
    report = run_suite("cma-recovery", seed=3)
    assert _cma_case(7, 3) == report.cases[7]
    again = run_suite("cma-recovery", seed=3).to_dict()
    first = report.to_dict()
    first.pop("elapsed_s")
    again.pop("elapsed_s")
    assert first == again


# The heavy suites' reports round-trip in tests/test_acceptance.py, which
# builds them anyway.
@pytest.mark.parametrize("name", ["cma-recovery", "determinism", "equivalence",
                                  "kl-expansion", "natural-gradient"])
def test_reports_serialize_to_json(name):
    report = run_suite(name, seed=4)
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["suite"] == name
    assert payload["cases_total"] == len(report.cases)


def test_heavy_reports_serialize_to_json():
    # one heavy grid representative, small seed-2 slice via the public entry
    report = run_suite("fitness-improvement", seed=5)
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["passed"] is True


KL_SEEDS = range(1, 41)
KL_FAMILIES = {"bernoulli": Bernoulli, "gaussian": Gaussian}
# method of one family -> factor on its result
KL_MUTANTS = {
    "fisher-scaled": ("fisher_information", 1.0 + 1e-3),
    "cubic-sign-flipped": ("_negentropy_third_derivative", -1.0),
    "cubic-factor-one-half": ("_negentropy_third_derivative", 1.5),
    "cubic-dropped": ("_negentropy_third_derivative", 0.0),
}


@pytest.mark.slow
def test_kl_expansion_passes_on_seeds_1_to_40():
    failed = [s for s in KL_SEEDS if not run_suite("kl-expansion", seed=s).passed]
    assert failed == []


@pytest.mark.slow
@pytest.mark.parametrize("mutant", sorted(KL_MUTANTS))
@pytest.mark.parametrize("family", sorted(KL_FAMILIES))
def test_kl_expansion_mutants_fail_on_every_seed(family, mutant, monkeypatch):
    """The 8x criterion pins each family's Fisher term and cubic coefficient
    on its own: a 0.1 % error in F, a flipped cubic sign, a factor 1/2 in
    place of 1/3 or a dropped cubic term, in one family only, leave a
    residual that shrinks too slowly in some case of that family on every
    seed, while the other family's cases still pass."""
    name, factor = KL_MUTANTS[mutant]
    cls = KL_FAMILIES[family]
    original = getattr(cls, name)

    def scaled(self, *args):
        return factor * original(self, *args)

    monkeypatch.setattr(cls, name, scaled)
    for seed in KL_SEEDS:
        cases = run_suite("kl-expansion", seed=seed).cases
        failed = {c.detail["family"] for c in cases if not c.passed}
        assert failed == {family}, f"seed {seed}"


@pytest.mark.parametrize("blockwise", [False, True], ids=["progress-bound", "blockwise"])
def test_one_level_pass_per_state(blockwise, monkeypatch):
    """An exact case ranks each state it visits once: the quantile of a new
    state, the next step from it and the progress bound of that step share
    one level-mass pass (``np.bincount``) over the fixed table, and the step
    and its bound share one preference (``_tie_average``) of the state the
    step leaves."""
    rng = np.random.default_rng(10)
    case = _GridCase(index=0, d=10, objective="random-table", objective_seed=1010, q=0.25,
                     dt=0.5, theta0=tuple(rng.uniform(0.1, 0.9, 10)),
                     dt_blocks=tuple(rng.uniform(0.05, 1.0, 10)))
    passes = []
    preferences = []
    bincount = np.bincount
    tie_average = selection._tie_average

    def counting(*args, **kwargs):
        passes.append(args)
        return bincount(*args, **kwargs)

    def counting_preferences(*args):
        preferences.append(args)
        return tie_average(*args)

    monkeypatch.setattr(np, "bincount", counting)
    monkeypatch.setattr(selection, "_tie_average", counting_preferences)
    result = _exact_improvement_case(case, 100, blockwise=blockwise, check_bound=not blockwise)
    assert result.passed
    steps = result.detail["steps_executed"]
    assert steps >= 10
    assert len(passes) == steps + 1
    # A step that leaves the domain still weighed its state first.
    assert len(preferences) == steps + result.detail["stopped_early"]


def _igo_step_about_zero(model, params, samples, weights, dt):
    """``eta + dt sum_i w_i T(x_i)``: the step without its centre."""
    stats = model.batch_sufficient_statistics(samples)
    w = _weight_array(weights, stats.shape[0])
    return model.from_eta(model.to_eta(params) + dt * _weighted_sum(w, stats))


def _plain_gradient_step(model, params, samples, weights, dt):
    """``eta + dt F(eta) sum_i w_i (T(x_i) - eta)``: the plain gradient of
    ``ln p`` in ``eta`` in place of the natural one."""
    eta = model.to_eta(params)
    stats = model.batch_sufficient_statistics(samples)
    w = _weight_array(weights, stats.shape[0])
    return model.from_eta(eta + dt * model.fisher_information(eta) @ _weighted_sum(w, stats, eta))


def _fisher_without_cross_block(original):
    def fisher(self, eta):
        f = original(self, eta).copy()
        f[:self.dim, self.dim:] = 0.0
        f[self.dim:, :self.dim] = 0.0
        return f

    return fisher


# (owner, attribute, replacement of the original, families whose cases fail)
NATURAL_GRADIENT_MUTANTS = {
    "igo-step-about-zero": (updates, "igo_step", lambda original: _igo_step_about_zero,
                            {"bernoulli", "gaussian"}),
    "plain-gradient-step": (updates, "igo_step", lambda original: _plain_gradient_step,
                            {"bernoulli", "gaussian"}),
    "gaussian-fisher-cross-block-dropped": (Gaussian, "fisher_information",
                                            _fisher_without_cross_block, {"gaussian"}),
}


@pytest.mark.parametrize("seed", [1, 2])
def test_natural_gradient_passes_for_both_families(seed):
    cases = run_suite("natural-gradient", seed=seed).cases
    assert all(c.passed for c in cases)
    families = [c.detail["family"] for c in cases]
    assert families.count("bernoulli") == families.count("gaussian") == 200


@pytest.mark.parametrize("mutant", sorted(NATURAL_GRADIENT_MUTANTS))
def test_natural_gradient_mutants_fail_on_every_seed(mutant, monkeypatch):
    """The suite compares the shipped rule's one-point direction with the
    inverse Fisher matrix times a finite-difference gradient: a rule that
    drops the centre ``eta`` or steps along the plain gradient, or a
    Gaussian Fisher matrix without its mean/second-moment block, fails it on
    every seed, in each family it touches, while the other family passes."""
    owner, name, mutate, families = NATURAL_GRADIENT_MUTANTS[mutant]
    monkeypatch.setattr(owner, name, mutate(getattr(owner, name)))
    for seed in (1, 2):
        cases = run_suite("natural-gradient", seed=seed).cases
        failed = {c.detail["family"] for c in cases if not c.passed}
        assert failed == families, f"seed {seed}"
