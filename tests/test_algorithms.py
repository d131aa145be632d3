import hashlib
import weakref

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
    Objective,
    SampleWeights,
    TruncationScheme,
    algorithms,
    bernoulli_support,
    blockwise_igo_ml_step,
    enumerate_bernoulli,
    exact_quantile,
    igo_ml_step,
    igo_step,
    make_objective,
    run,
    updates,
)
from igokit.algorithms import _prepare_step
from igokit.traceio import render_trace, trace_records


def one_step(config, model, params, objective, rng=None, scheme=None):
    """Draw one step's population through the run loop's pipeline and apply
    the configured step size."""
    return _prepare_step(config, model, params, scheme, objective, rng)(1.0)


def rpp_step(model, probs, objective, dt, rng=None, lam=None, exact=True):
    config = AlgorithmConfig(algorithm="rpp", dim=model.dim, lam=lam, dt=dt,
                             rpp_exact=exact)
    return one_step(config, model, BernoulliParams(probs), objective, rng).params.probs


def reward_one_plus_sum(dim):
    return Objective(
        name="shifted-count",
        dim=dim,
        space="binary",
        direction="max",
        fn=lambda pts: 1.0 + pts.sum(axis=1),
    )


class TestDelegation:
    @pytest.mark.parametrize("algorithm, rule", [
        ("igo_generic", igo_step), ("ce_ml", igo_ml_step),
    ])
    def test_sample_weighted_rules(self, algorithm, rule):
        model = Bernoulli(6)
        params = BernoulliParams(np.full(6, 0.5))
        obj = make_objective("onemax", 6)
        scheme = TruncationScheme(0.25)
        config = AlgorithmConfig(algorithm=algorithm, dim=6, lam=40, dt=0.3)
        result = one_step(config, model, params, obj, np.random.default_rng(3), scheme)
        replay = rule(model, params, result.samples, result.weights, 0.3)
        assert np.array_equal(result.params.probs, replay.probs)

    def test_pbil_step_is_igo_step(self):
        model = Bernoulli(6)
        params = BernoulliParams(np.full(6, 0.5))
        obj = make_objective("onemax", 6)
        scheme = TruncationScheme(0.25)
        config = AlgorithmConfig(algorithm="pbil", dim=6, lam=40, dt=0.3)
        result = one_step(config, model, params, obj, np.random.default_rng(3), scheme)
        replay = igo_step(model, params, result.samples, result.weights, 0.3)
        assert np.array_equal(result.params.probs, replay.probs)

    def test_cma_step_is_blockwise(self):
        model = Gaussian(2)
        params = GaussianParams(np.zeros(2), np.eye(2))
        obj = make_objective("sphere", 2)
        scheme = TruncationScheme(0.5)
        config = AlgorithmConfig(algorithm="cma_rank_mu", objective="sphere", dim=2,
                                 lam=30, dt_cov=0.4, dt_mean=0.9)
        result = one_step(config, model, params, obj, np.random.default_rng(4), scheme)
        assert result.dt_used == (0.4, 0.9)
        replay = blockwise_igo_ml_step(
            model, params, result.samples, result.weights, (0.4, 0.9),
        )
        assert np.array_equal(result.params.mean, replay.mean)
        assert np.array_equal(result.params.cov, replay.cov)


class TestDeterminism:
    def test_identical_seeds_identical_traces(self):
        cfg = AlgorithmConfig(algorithm="pbil", objective="onemax", dim=10, lam=50,
                              q=0.25, dt=0.4, max_steps=20, seed=11)
        a = render_trace(trace_records(run(cfg)))
        b = render_trace(trace_records(run(cfg)))
        assert a == b

    def test_different_seeds_differ(self):
        base = dict(algorithm="pbil", objective="onemax", dim=10, lam=50,
                    q=0.25, dt=0.4, max_steps=20)
        a = render_trace(trace_records(run(AlgorithmConfig(seed=1, **base))))
        b = render_trace(trace_records(run(AlgorithmConfig(seed=2, **base))))
        assert a != b


class TestScaleInvariance:
    def test_rank_path_ignores_affine_fitness_maps(self):
        dim = 8
        base = make_objective("onemax", dim)
        transformed = Objective(
            name="onemax", dim=dim, space="binary", direction="min",
            fn=lambda pts: 2.0 * base.fn(pts) + 1.0,
        )
        cfg = AlgorithmConfig(algorithm="pbil", objective="onemax", dim=dim,
                              lam=40, q=0.25, dt=0.3, max_steps=25, seed=5)
        tr_a = run(cfg)
        tr_b = run(cfg, objective=transformed)
        for sa, sb in zip(tr_a.steps, tr_b.steps):
            assert np.array_equal(sa.eta, sb.eta)
            assert sb.best_f == 2.0 * sa.best_f + 1.0


# A config, and an override objective of another direction, space or
# dimension than the config's registry objective.
_MISMATCHED_OVERRIDES = {
    "rpp count-reward, onemax (direction)": (
        AlgorithmConfig(algorithm="rpp", objective="count-reward", dim=4, lam=20, dt=0.5),
        make_objective("onemax", 4)),
    "pbil onemax, sphere (space)": (
        AlgorithmConfig(algorithm="pbil", objective="onemax", dim=4, lam=20, q=0.5),
        make_objective("sphere", 4)),
    "cma_rank_mu sphere, onemax (space)": (
        AlgorithmConfig(algorithm="cma_rank_mu", objective="sphere", dim=4, lam=20, q=0.5),
        make_objective("onemax", 4)),
    "pbil onemax, onemax (dim)": (
        AlgorithmConfig(algorithm="pbil", objective="onemax", dim=4, lam=20, q=0.5),
        make_objective("onemax", 5)),
}


@pytest.mark.parametrize("case", sorted(_MISMATCHED_OVERRIDES))
def test_a_mismatched_objective_override_is_refused(case):
    config, override = _MISMATCHED_OVERRIDES[case]
    run(config)
    with pytest.raises(InvalidInputError, match="^objective: an override must match"):
        run(config, objective=override)


class TestRunLoop:
    def test_zero_steps(self):
        cfg = AlgorithmConfig(algorithm="pbil", objective="onemax", dim=4,
                              lam=10, q=0.5, dt=0.5, max_steps=0, seed=1)
        tr = run(cfg)
        assert tr.steps == []
        assert tr.stop_reason == "max_steps"
        assert np.array_equal(tr.final_eta, np.full(4, 0.5))

    def test_trace_invariants(self):
        cfg = AlgorithmConfig(algorithm="ce_ml", objective="onemax", dim=8,
                              lam=60, q=0.25, dt=0.4, max_steps=30, seed=9)
        tr = run(cfg)
        assert len(tr.steps) <= cfg.max_steps
        assert all(s.kl_prev >= 0.0 for s in tr.steps)
        assert [s.step for s in tr.steps] == list(range(len(tr.steps)))

    def test_target_stop(self):
        cfg = AlgorithmConfig(algorithm="pbil", objective="onemax", dim=8, lam=100,
                              q=0.25, dt=0.4, max_steps=200, seed=2, target_fitness=0.0)
        tr = run(cfg)
        assert tr.stop_reason == "target"
        assert tr.best_fitness == 0.0

    def test_identical_samples_tie_average_to_uniform(self):
        # a population of copies gives uniform weights: theta moves toward x
        from igokit import sample_weights
        model = Bernoulli(3)
        theta = np.array([0.4, 0.5, 0.6])
        samples = np.tile([1.0, 0.0, 1.0], (5, 1))
        w = sample_weights(np.zeros(5), TruncationScheme(0.25))
        assert np.allclose(w.w, 0.2, atol=1e-15)
        eta = igo_step(model, BernoulliParams(theta), samples, w, 0.5).probs
        assert np.allclose(eta, theta + 0.5 * (samples[0] - theta), atol=1e-15)

    def test_domain_exit_halt(self):
        # lambda=2, q=0.5, dt=1: the winner takes all weight and the state
        # lands exactly on that sample, a vertex
        cfg = AlgorithmConfig(algorithm="pbil", objective="onemax", dim=3, lam=2,
                              q=0.5, dt=1.0, max_steps=10, seed=0)
        tr = run(cfg)
        assert tr.stop_reason == "domain_exit"
        assert len(tr.steps) == 0

    def test_domain_exit_safeguard(self):
        cfg = AlgorithmConfig(algorithm="pbil", objective="onemax", dim=3, lam=2,
                              q=0.5, dt=1.0, max_steps=10, seed=0,
                              domain_exit="safeguard")
        tr = run(cfg)
        assert len(tr.steps) == 10
        assert tr.halvings >= 10  # every step needs at least one halving

    def test_safeguard_exhaustion_stops_the_run(self, monkeypatch):
        def always_exits(*args):
            raise DomainExitError("always outside")

        monkeypatch.setattr(updates, "igo_step", always_exits)
        cfg = AlgorithmConfig(algorithm="pbil", objective="onemax", dim=3, lam=4,
                              q=0.5, dt=0.5, max_steps=5, seed=0,
                              domain_exit="safeguard")
        tr = run(cfg)
        assert tr.stop_reason == "domain_exit"
        assert tr.steps == []
        assert tr.halvings == 30

    def test_each_state_is_converted_once(self, from_eta_calls):
        # the initial state is built as params; each step's one conversion is
        # the rule's check of the state it returns, which the loop then carries
        config = AlgorithmConfig(algorithm="pbil", objective="onemax", dim=8, lam=40,
                                 q=0.25, dt=0.3, max_steps=6, seed=1, domain_exit="halt")
        trace = run(config)
        assert len(trace.steps) == config.max_steps
        assert len(from_eta_calls) == config.max_steps
        assert [s.eta.tobytes() for s in trace.steps] == [e.tobytes() for e in from_eta_calls]

    def test_cma_run_never_converts_from_eta(self, from_eta_calls):
        # the blockwise step carries (m, C) from state to state
        config = AlgorithmConfig(algorithm="cma_rank_mu", objective="ellipsoid", dim=5,
                                 lam=20, q=0.5, dt=0.5, max_steps=8, seed=1)
        trace = run(config)
        assert len(trace.steps) == config.max_steps
        assert from_eta_calls == []

    def test_estimate_j_evaluates_the_support_once(self, monkeypatch):
        # a pbil run's exact expected preferences read one support table:
        # n * lam sampled rows plus 2^d, not n * (lam + 2^d)
        config = AlgorithmConfig(algorithm="pbil", objective="onemax", dim=8, lam=20, q=0.25,
                                 dt=0.2, max_steps=6, seed=1, estimate_j=True)
        rows = []
        batch = Objective.batch

        def counting(self, points):
            rows.append(len(points))
            return batch(self, points)

        monkeypatch.setattr(Objective, "batch", counting)
        trace = run(config)
        assert len(trace.steps) == config.max_steps
        assert sum(rows) == config.max_steps * config.lam + 2**config.dim

    @pytest.mark.parametrize("config", [
        AlgorithmConfig(algorithm="pbil", objective="onemax", dim=50, lam=40, q=0.25,
                        dt=0.3, max_steps=6, seed=1),
        AlgorithmConfig(algorithm="cma_rank_mu", objective="ellipsoid", dim=5, lam=20,
                        q=0.5, dt=0.5, max_steps=6, seed=1),
    ], ids=["pbil", "cma_rank_mu"])
    def test_a_new_draw_finds_no_earlier_draw_alive(self, config, monkeypatch):
        # a run holds one population at a time: each step's draw is freed
        # before the next step draws
        family = type(config.make_model())
        sample = family.sample
        draws, alive = [], []

        def tracked(self, params, rng, count):
            alive.append(sum(ref() is not None for ref in draws))
            out = sample(self, params, rng, count)
            draws.append(weakref.ref(out))
            return out

        monkeypatch.setattr(family, "sample", tracked)
        trace = run(config)
        assert len(trace.steps) == config.max_steps
        assert alive == [0] * config.max_steps

    def test_pbil_reaches_optimum_on_committed_seeds(self):
        hits = 0
        for seed in range(20):
            cfg = AlgorithmConfig(algorithm="pbil", objective="onemax", dim=20,
                                  lam=100, q=0.25, dt=0.3, max_steps=300,
                                  seed=seed, target_fitness=0.0)
            if run(cfg).best_fitness == 0.0:
                hits += 1
        assert hits >= 19  # >= 95% of 20 committed seeds


class TestPbilWorkedExample:
    def test_half_step_toward_winner(self):
        # population {(0,0), (1,1)} on f = sum(x): the winner takes all weight
        from igokit import sample_weights
        model = Bernoulli(2)
        theta = BernoulliParams([0.5, 0.5])
        samples = np.array([[0.0, 0.0], [1.0, 1.0]])
        w = sample_weights([0.0, 2.0], TruncationScheme(0.5))
        assert np.array_equal(w.w, [1.0, 0.0])
        eta = igo_step(model, theta, samples, w, 0.5).probs
        assert np.allclose(eta, [0.25, 0.25], atol=1e-15)

    def test_zero_step_is_inert(self):
        from igokit import sample_weights
        model = Bernoulli(2)
        theta = BernoulliParams([0.3, 0.7])
        samples = np.array([[0.0, 0.0], [1.0, 1.0]])
        w = sample_weights([0.0, 2.0], TruncationScheme(0.5))
        assert np.array_equal(igo_step(model, theta, samples, w, 0.0).probs, theta.probs)


class TestTabulatedWeightsConfig:
    def test_run_accepts_a_weights_table(self):
        cfg = AlgorithmConfig(algorithm="igo_generic", objective="onemax", dim=6,
                              lam=5, q=None, weights_table=(0.4, 0.3, 0.2, 0.1, 0.0),
                              dt=0.3, max_steps=10, seed=6)
        tr = run(cfg)
        assert len(tr.steps) == 10


class TestRpp:
    def test_classic_full_step(self):
        model = Bernoulli(1)
        probs = rpp_step(model, [0.5], reward_one_plus_sum(1), 1.0)
        assert probs[0] == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_smoothed_step(self):
        model = Bernoulli(1)
        probs = rpp_step(model, [0.5], reward_one_plus_sum(1), 0.5)
        assert probs[0] == pytest.approx(7.0 / 12.0, abs=1e-14)

    def test_constant_reward_is_stationary(self):
        constant = Objective(name="flat", dim=3, space="binary", direction="max",
                             fn=lambda pts: np.ones(len(pts)))
        model = Bernoulli(3)
        eta = np.array([0.2, 0.5, 0.8])
        for dt in (0.25, 1.0):
            probs = rpp_step(model, eta, constant, dt)
            assert np.max(np.abs(probs - eta)) <= 1e-15

    def test_monte_carlo_mode_runs(self):
        model = Bernoulli(4)
        config = AlgorithmConfig(algorithm="rpp", dim=4, lam=200, dt=0.5, rpp_exact=False)
        result = one_step(config, model, BernoulliParams(np.full(4, 0.5)),
                          make_objective("count-reward", 4), np.random.default_rng(8))
        assert result.samples.shape == (200, 4)

    def test_sampled_step_builds_its_weights_once(self, monkeypatch):
        # a halved attempt reuses the step's weights; they are built once
        built = []

        def counting(w):
            built.append(SampleWeights(w))
            return built[-1]

        monkeypatch.setattr(algorithms, "SampleWeights", counting)
        config = AlgorithmConfig(algorithm="rpp", objective="count-reward", dim=6, lam=5,
                                 dt=1.0, rpp_exact=False, domain_exit="safeguard",
                                 max_steps=10)
        trace = run(config)
        assert len(trace.steps) == 10 and trace.halvings > 0
        assert len(built) == 10
        apply = _prepare_step(config, Bernoulli(6), config.initial_params(), None,
                              config.make_objective(), np.random.default_rng(3))
        assert apply(0.5).weights is apply(0.25).weights is built[-1]

    def test_rpp_run_improves_expected_reward(self):
        cfg = AlgorithmConfig(algorithm="rpp", objective="random-reward", dim=6,
                              dt=0.5, max_steps=40, seed=4, objective_seed=9)
        tr = run(cfg)
        rewards = [s.best_f for s in tr.steps]  # exact expected reward per step
        assert all(b >= a - 1e-12 for a, b in zip(rewards, rewards[1:]))


class TestExactRppEnumeration:
    CONFIG = AlgorithmConfig(algorithm="rpp", objective="random-reward", dim=6, dt=0.5,
                             max_steps=12, seed=3, objective_seed=5)

    def test_one_probability_build_per_state_and_one_reward_table(self, support_prob_builds):
        tables = []
        base = self.CONFIG.make_objective()

        def counting_rewards(points):
            tables.append(len(points))
            return base.fn(points)

        objective = Objective(name=base.name, dim=base.dim, space=base.space,
                              direction=base.direction, fn=counting_rewards)
        trace = run(self.CONFIG, objective=objective)
        assert len(trace.steps) == self.CONFIG.max_steps
        # the initial state and each step's new state, each built once
        assert len(support_prob_builds) == len(trace.steps) + 1
        assert len({id(p) for p in support_prob_builds}) == len(support_prob_builds)
        built = [p.probs.tobytes() for p in support_prob_builds]
        assert built[0] == self.CONFIG.initial_params().probs.tobytes()
        assert built[1:] == [step.eta.tobytes() for step in trace.steps]
        assert tables == [2**self.CONFIG.dim]

    def test_trace_matches_fresh_enumeration_per_state(self):
        config = self.CONFIG
        model = Bernoulli(config.dim)
        rewards = config.make_objective().batch(bernoulli_support(config.dim))
        trace = run(config)
        params = config.initial_params()
        for step in trace.steps:
            dist = enumerate_bernoulli(params)
            params_next = updates.fitness_proportional_step(
                model, params, dist.support, dist.prob * rewards, config.dt
            )
            after = enumerate_bernoulli(params_next)
            assert step.eta.tobytes() == params_next.probs.tobytes()
            assert step.best_f == float(np.sum(after.prob * rewards))
            assert step.emp_quantile_q == exact_quantile(after, rewards, config.q).value
            assert step.kl_prev == model.kl_divergence(params, params_next)
            params = params_next
        assert trace.final_eta.tobytes() == params.probs.tobytes()

    def test_weight_entropy_is_that_of_the_step_weights(self):
        # two states on one reward table: each step's entropy is that of its
        # own weights P(x) r(x) / E_P[r], not of the fixed table
        config = AlgorithmConfig(algorithm="rpp", objective="random-reward", dim=8, dt=1.0,
                                 max_steps=2)
        rewards = config.make_objective().support_values
        trace = run(config)
        states = [config.initial_params(), BernoulliParams(trace.steps[0].eta)]
        for step, params in zip(trace.steps, states):
            w = params.support_probs * rewards / np.sum(params.support_probs * rewards)
            assert step.weight_entropy == pytest.approx(-np.sum(w * np.log(w)), rel=1e-12)
        assert trace.steps[0].weight_entropy != pytest.approx(trace.steps[1].weight_entropy)

    def test_sampled_weight_entropy_is_that_of_the_normalised_rewards(self):
        config = AlgorithmConfig(algorithm="rpp", objective="random-reward", dim=8, dt=0.5,
                                 lam=40, rpp_exact=False, max_steps=1)
        step = run(config).steps[0]
        samples = Bernoulli(8).sample(config.initial_params(),
                                      np.random.default_rng([config.seed, 0]), config.lam)
        r = config.make_objective().batch(samples)
        w = r[r > 0.0] / r.sum()
        assert step.weight_entropy == float(-np.sum(w * np.log(w)))

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "sampled"])
    def test_step_weights_are_the_normalised_rewards(self, exact):
        # the weights a step carries are those its rule used: P(x) r(x) / E_P[r]
        # over the support, r_i / sum r over a sample
        config = AlgorithmConfig(algorithm="rpp", objective="random-reward", dim=6, dt=0.5,
                                 lam=30, rpp_exact=exact)
        objective = config.make_objective()
        params = BernoulliParams(np.linspace(0.2, 0.7, 6))
        result = one_step(config, Bernoulli(6), params, objective, np.random.default_rng(2))
        if exact:
            assert result.samples is None and result.fitness is objective.support_values
            rewards = params.support_probs * objective.support_values
        else:
            rewards = objective.batch(result.samples)
        assert result.weights.w.tobytes() == (rewards / np.sum(rewards)).tobytes()

    def test_an_exact_run_scans_no_support(self, binary_scans):
        config = AlgorithmConfig(algorithm="rpp", objective="random-reward", dim=10, dt=0.5,
                                 max_steps=10)
        assert len(run(config).steps) == 10
        assert binary_scans == []


# sha256 of the rendered csv trace, unchanged since the rules' sums were
# rewritten onto one kernel (the cma one since before the sums dropped their
# rows of zero weight, the pbil d = 16 one since before support_probs was
# built by strided multiplies); any moved bit of a state or a summary shows
# here.
GOLDEN_TRACES = {
    "rpp-random-reward-d16": (
        dict(algorithm="rpp", objective="random-reward", dim=16, dt=1.0, max_steps=10),
        "a1b721e2aa7993f25754f18d18eeee198a735bd2206c49919763cf0c3eb770c5",
    ),
    "pbil-onemax-d1000": (
        dict(algorithm="pbil", objective="onemax", dim=1000, lam=1000, q=0.25, dt=0.5,
             domain_exit="safeguard", max_steps=10),
        "973fb5df46df28c0cc9f504ca6810aa3c56b98fc70c57941c7b2c0e272e62206",
    ),
    "ce_ml-onemax-d20": (
        dict(algorithm="ce_ml", objective="onemax", dim=20, lam=50, max_steps=30),
        "b9d75005213e1100a923d86d29a3cd15ad216174bf5b7407f095bcd58b92f2a7",
    ),
    "cma_rank_mu-ellipsoid-d40": (
        dict(algorithm="cma_rank_mu", objective="ellipsoid", dim=40, lam=100, q=0.5, dt=0.5,
             domain_exit="safeguard", max_steps=60),
        "ac9ae79b0d1f007b59c4bd0e4b5814765ff8e95a788f5a18fb961a80e057f3c2",
    ),
    # j_estimate reads every state's support_probs
    "pbil-onemax-d16-estimate-j": (
        dict(algorithm="pbil", objective="onemax", dim=16, lam=200, q=0.25, dt=0.5,
             estimate_j=True, domain_exit="safeguard", max_steps=30),
        "5ba95cf2d937a9de28f51e58c09551590a25981cc17c69513e8f5f789bebafe5",
    ),
}


@pytest.mark.parametrize("name", GOLDEN_TRACES)
def test_seeded_trace_digest(name):
    settings, digest = GOLDEN_TRACES[name]
    trace = run(AlgorithmConfig(**settings, seed=2, objective_seed=2))
    text = render_trace(trace_records(trace), fmt="csv")
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# sha256 of the rendered jsonl trace of two GOLDEN_TRACES runs (one with a
# j_estimate per row), taken while jsonl floats still went through a
# 17-digit format and a parse.
GOLDEN_JSONL = {
    "cma_rank_mu-ellipsoid-d40":
        "5068c09523cbed17cdaebeff0adb1c7cff7349a3b5b30eb79fd43da22146e97e",
    "pbil-onemax-d16-estimate-j":
        "7c366066f446d8d69123dbabd1dacc73c914609012a955a14bb07450224e61cf",
}


@pytest.mark.parametrize("name", GOLDEN_JSONL)
def test_seeded_jsonl_digest(name):
    settings, _ = GOLDEN_TRACES[name]
    trace = run(AlgorithmConfig(**settings, seed=2, objective_seed=2))
    text = render_trace(trace_records(trace), fmt="jsonl")
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_JSONL[name]


class TestGaussianRoundTrip:
    """A full-rate cma step on 8 samples puts all weight on 2 winners in
    3 dimensions, so the new covariance is their rank-2 scatter. Rounding
    lets the first one pass the Cholesky check; the second step's is refused
    inside the step, as a domain exit. Halting stops there; the safeguard
    halves the rates."""

    @staticmethod
    def config(policy):
        return AlgorithmConfig(algorithm="cma_rank_mu", objective="sphere", dim=3, lam=8,
                               dt=1.0, max_steps=60, seed=1, domain_exit=policy)

    def test_safeguard_completes_every_step(self):
        trace = run(self.config("safeguard"))
        assert len(trace.steps) == 60
        assert trace.stop_reason == "max_steps"
        assert trace.halvings > 0

    def test_halt_stops_on_a_domain_exit(self):
        trace = run(self.config("halt"))
        assert trace.stop_reason == "domain_exit"
        assert len(trace.steps) == 1


class TestIllConditionedCmaRun:
    def test_d40_safeguard_run_completes(self):
        # by step 300 |m|^2 / lambda_min(C) is far past 1 / eps: a state kept
        # as S - m m^T would have no correct digit left in its smallest
        # directions, and the safeguard would search for a valid rounding
        config = AlgorithmConfig(algorithm="cma_rank_mu", objective="ellipsoid", dim=40,
                                 lam=100, q=0.5, dt=0.5, max_steps=300, seed=2,
                                 objective_seed=2, domain_exit="safeguard")
        trace = run(config)
        assert trace.stop_reason == "max_steps"
        assert len(trace.steps) == 300


class TestZeroRewardSample:
    CONFIG = AlgorithmConfig(algorithm="rpp", objective="count-reward", dim=2, lam=1,
                             rpp_exact=False, bernoulli_init=0.05, max_steps=20)

    def test_run_stops_with_zero_reward(self):
        trace = run(self.CONFIG)
        assert trace.stop_reason == "zero_reward"
        assert len(trace.steps) < self.CONFIG.max_steps
        assert trace.final_eta is not None


class TestConfigValidation:
    def test_rank_based_needs_two_samples(self):
        with pytest.raises(InvalidInputError, match="lambda"):
            AlgorithmConfig(algorithm="pbil", lam=1).validate()

    def test_q_range(self):
        with pytest.raises(InvalidInputError, match="q"):
            AlgorithmConfig(algorithm="pbil", q=1.0).validate()

    def test_dt_certification(self):
        with pytest.raises(InvalidInputError, match="uncertified"):
            AlgorithmConfig(dt=1.5).validate()
        AlgorithmConfig(dt=1.5, uncertified=True).validate()
        with pytest.raises(InvalidInputError, match="^dt: must be finite and >= 0"):
            AlgorithmConfig(dt=-0.1).validate()
        AlgorithmConfig(dt=0.0).validate()  # inert step is allowed

    def test_block_rates_are_certified_too(self):
        cma = dict(algorithm="cma_rank_mu", objective="sphere", dim=3)
        AlgorithmConfig(dt=1.0, dt_cov=0.2, **cma).validate()
        with pytest.raises(InvalidInputError, match="^dt-c: .*exceeds 1"):
            AlgorithmConfig(dt=0.5, dt_cov=1.2, **cma).validate()
        with pytest.raises(InvalidInputError, match="^dt-m: .*exceeds 1"):
            AlgorithmConfig(dt=0.5, dt_mean=1.2, **cma).validate()
        AlgorithmConfig(dt=0.5, dt_mean=1.2, uncertified=True, **cma).validate()
        with pytest.raises(InvalidInputError, match="^dt-m: must be finite and >= 0"):
            AlgorithmConfig(dt_mean=-0.1, **cma).validate()
        # other algorithms read no block rate, so only finiteness is checked
        AlgorithmConfig(dt_cov=1.2, dt_mean=-0.1).validate()

    def test_rpp_needs_reward_objective(self):
        with pytest.raises(InvalidInputError, match="reward"):
            AlgorithmConfig(algorithm="rpp", objective="onemax").validate()

    def test_reward_objective_needs_rpp(self):
        with pytest.raises(InvalidInputError, match="rpp"):
            AlgorithmConfig(algorithm="pbil", objective="count-reward").validate()

    def test_cma_needs_continuous_objective(self):
        with pytest.raises(InvalidInputError, match="continuous"):
            AlgorithmConfig(algorithm="cma_rank_mu", objective="onemax").validate()

    def test_pbil_needs_binary_objective(self):
        # pbil is the product Bernoulli step; on a continuous objective it
        # would silently run igo_generic's Gaussian step
        with pytest.raises(InvalidInputError, match="^objective: pbil runs on binary"):
            AlgorithmConfig(algorithm="pbil", objective="sphere", dim=2).validate()
        AlgorithmConfig(algorithm="igo_generic", objective="sphere", dim=2).validate()

    def test_unknown_algorithm(self):
        with pytest.raises(InvalidInputError, match="algorithm"):
            AlgorithmConfig(algorithm="cmaes").validate()

    @pytest.mark.parametrize("value", [None, "x", 2.5])
    @pytest.mark.parametrize("key, label", [
        ("dim", "dim"), ("max_steps", "steps"), ("lam", "lambda"), ("seed", "seed"),
        ("objective_seed", "objective_seed"),
    ])
    def test_integer_fields_refuse_non_integers(self, key, label, value):
        with pytest.raises(InvalidInputError, match=f"^{label}: "):
            AlgorithmConfig(**{key: value}).validate()

    @pytest.mark.parametrize("value", ["x", "0.5", float("nan")])
    @pytest.mark.parametrize("key, label", [
        ("dt", "dt"), ("dt_mean", "dt-m"), ("dt_cov", "dt-c"), ("q", "q"),
        ("bernoulli_init", "bernoulli-init"), ("target_fitness", "target_fitness"),
    ])
    def test_real_fields_refuse_non_numbers(self, key, label, value):
        with pytest.raises(InvalidInputError, match=f"^{label}: "):
            AlgorithmConfig(algorithm="cma_rank_mu", objective="sphere",
                            **{key: value}).validate()

    @pytest.mark.parametrize("key, label", [
        ("dt", "dt"), ("q", "q"), ("bernoulli_init", "bernoulli-init"),
    ])
    def test_required_real_fields_refuse_none(self, key, label):
        with pytest.raises(InvalidInputError, match=f"^{label}: "):
            AlgorithmConfig(**{key: None}).validate()

    @pytest.mark.parametrize("table", [(0.2, 0.8), (0.5, "x"), (), 5, (0.5, float("nan"))])
    def test_weights_table_is_checked_by_validate(self, table):
        with pytest.raises(InvalidInputError, match="^weights_table: "):
            AlgorithmConfig(algorithm="igo_generic", q=None, weights_table=table).validate()
