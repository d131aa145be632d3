import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igokit import (
    AlgorithmConfig,
    Bernoulli,
    BernoulliParams,
    Gaussian,
    GaussianParams,
    InvalidInputError,
    Objective,
    TabulatedScheme,
    TruncationScheme,
    bernoulli_support,
    check_kl_expansion,
    empirical_quantile,
    enumerate_bernoulli,
    estimate_J,
    exact_J,
    exact_infinite_population_step,
    exact_quantile,
    finite_population_improvement,
    make_objective,
    progress_bound,
    updates,
)


class TestEmpiricalQuantile:
    def test_sup_scan(self):
        assert empirical_quantile([3, 1, 2, 4], 0.25) == 2.0

    def test_constant_sample(self):
        for q in (0.1, 0.5, 0.9):
            assert empirical_quantile([5, 5, 5], q) == 5.0

    def test_sup_picks_larger_qualifier(self):
        assert empirical_quantile([1, 2], 0.5) == 2.0

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            empirical_quantile([], 0.5)
        with pytest.raises(InvalidInputError):
            empirical_quantile([1.0], 0.0)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(-5, 5), min_size=1, max_size=40),
        st.floats(0.01, 0.99),
    )
    def test_sup_form_from_integer_counts(self, values, q):
        f = np.array(values, dtype=np.float64)
        n = f.size
        m = empirical_quantile(f, q)

        def qualifies(v):
            return np.sum(f <= v) / n >= q and np.sum(f >= v) / n >= 1.0 - q

        assert m in f
        assert qualifies(m)
        assert not any(qualifies(v) for v in f[f > m])

    def test_agrees_with_exact_on_large_samples(self):
        # integer-valued fitness: exact agreement is the bar; 100 seeds
        obj = make_objective("onemax", 6)
        params = BernoulliParams(np.full(6, 0.4))
        dist = enumerate_bernoulli(params)
        target = exact_quantile(dist, obj.batch(dist.support), 0.25).value
        model = Bernoulli(6)
        agreement = 0
        for seed in range(100):
            rng = np.random.default_rng([31337, seed])
            draws = model.sample(params, rng, 10_000)
            if empirical_quantile(obj.batch(draws), 0.25) == target:
                agreement += 1
        assert agreement >= 99


class TestEstimateJ:
    def test_self_estimate_near_one(self):
        model = Bernoulli(4)
        params = BernoulliParams([0.4, 0.5, 0.6, 0.3])
        est = estimate_J(model, params, params, make_objective("onemax", 4),
                         TruncationScheme(0.5), np.random.default_rng(99), 100_000)
        assert abs(est.value - 1.0) <= 3 * est.stderr

    def test_gaussian_closed_form_case(self):
        # base N(0,1), eval N(-1,1), f = x, q = 1/2: the mean preference is
        # 2 * P_eval[x <= base median] = 2 * Phi(1)
        model = Gaussian(1)
        base = GaussianParams([0.0], [[1.0]])
        ev = GaussianParams([-1.0], [[1.0]])
        f = Objective(name="coord", dim=1, space="continuous", direction="min",
                      fn=lambda pts: pts[:, 0])
        est = estimate_J(model, ev, base, f, TruncationScheme(0.5),
                         np.random.default_rng(2024), 100_000)
        target = 2.0 * 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
        assert abs(est.value - target) <= 3 * est.stderr

    def test_uniform_scheme_is_exactly_one(self):
        model = Bernoulli(3)
        est = estimate_J(model, BernoulliParams([0.2, 0.5, 0.7]),
                         BernoulliParams([0.5, 0.5, 0.5]), make_objective("onemax", 3),
                         TabulatedScheme((1.0,)), np.random.default_rng(1), 1000)
        assert est.value == 1.0
        assert est.stderr == 0.0

    def test_consistency_coverage(self):
        # |estimate - exact| <= 4 SE on >= 95% of committed trials
        model = Bernoulli(4)
        support = bernoulli_support(4)
        hits = 0
        trials = 40
        for t in range(trials):
            rng = np.random.default_rng([515151, t])
            base = BernoulliParams(rng.uniform(0.2, 0.8, 4))
            ev = BernoulliParams(rng.uniform(0.2, 0.8, 4))
            scheme = TruncationScheme(float(rng.uniform(0.2, 0.8)))
            obj = make_objective("random-table", 4, seed=900 + t)
            est = estimate_J(model, ev, base, obj, scheme, rng, 20_000)
            exact = exact_J(ev, base, obj.batch(support), scheme)
            if abs(est.value - exact) <= 4 * est.stderr:
                hits += 1
        assert hits >= int(0.95 * trials)

    def test_minimum_draws(self):
        model = Bernoulli(2)
        params = BernoulliParams([0.5, 0.5])
        with pytest.raises(InvalidInputError):
            estimate_J(model, params, params, make_objective("onemax", 2),
                       TruncationScheme(0.5), np.random.default_rng(0), 10)


class TestProgressBound:
    def test_worked_instance(self):
        support = bernoulli_support(2)
        f = support.sum(axis=1)
        scheme = TruncationScheme(0.5)
        params = BernoulliParams([0.5, 0.5])
        params_next = exact_infinite_population_step(params, f, scheme, 0.5)
        report = progress_bound(params, params_next, f, scheme, 0.5)
        assert report.j_value == pytest.approx(1.25, abs=1e-12)
        # per-coordinate KL(0.5 || 0.375) summed over two coordinates
        kl_one = 0.5 * math.log(0.5 / 0.375) + 0.5 * math.log(0.5 / 0.625)
        assert report.kl_value == pytest.approx(2 * kl_one, abs=1e-14)
        assert report.bound == pytest.approx(16.0 / 15.0, abs=1e-12)
        assert abs(report.bound - 1.06667) <= 1e-5
        assert report.satisfied and not report.fixed_point

    def test_fixed_point(self):
        support = bernoulli_support(2)
        f = support.sum(axis=1)
        params = BernoulliParams([0.5, 0.5])
        report = progress_bound(params, params, f, TruncationScheme(0.5), 0.5)
        assert report.j_value == pytest.approx(1.0, abs=1e-12)
        assert report.kl_value == 0.0
        assert report.fixed_point and not report.satisfied

    def test_full_step_bound_degenerates_to_one(self):
        support = bernoulli_support(2)
        f = support.sum(axis=1)
        scheme = TruncationScheme(0.5)
        params = BernoulliParams([0.5, 0.5])
        params_next = exact_infinite_population_step(params, f, scheme, 1.0)
        report = progress_bound(params, params_next, f, scheme, 1.0)
        assert report.bound == 1.0
        assert report.satisfied  # J > 1 whenever the state moved

    def test_converts_neither_state(self, from_eta_calls):
        # both states arrive validated; the bound reads them as given
        f = make_objective("random-table", 3, seed=8).batch(bernoulli_support(3))
        before = BernoulliParams([0.3, 0.6, 0.5])
        after = BernoulliParams([0.25, 0.65, 0.4])
        report = progress_bound(before, after, f, TruncationScheme(0.25), 0.5)
        assert from_eta_calls == []
        assert report.kl_value == Bernoulli(3).kl_divergence(before, after)

    @pytest.mark.parametrize("dt", [0.0, -0.5, math.nan, math.inf])
    def test_refuses_a_step_size_that_is_not_finite_and_positive(self, dt):
        f = bernoulli_support(2).sum(axis=1)
        params = BernoulliParams([0.5, 0.5])
        with pytest.raises(InvalidInputError, match="^dt: must be finite and > 0"):
            progress_bound(params, params, f, TruncationScheme(0.5), dt)


class TestFinitePopulationImprovement:
    def test_zero_step_size_only_stalls(self):
        cfg = AlgorithmConfig(algorithm="pbil", objective="onemax", dim=5, lam=30,
                              q=0.25, dt=0.0, max_steps=5, seed=3)
        stats = finite_population_improvement(cfg, n_steps=5, n_seeds=2)
        assert stats.steps_equal == stats.steps_total == 10
        assert stats.improvement_rate == 1.0

    def test_counts_partition(self):
        cfg = AlgorithmConfig(algorithm="pbil", objective="onemax", dim=6, lam=2,
                              q=0.5, dt=0.2, max_steps=10, seed=7)
        stats = finite_population_improvement(cfg, n_steps=10, n_seeds=3)
        # tiny populations wander; nothing asserted beyond bookkeeping
        total = stats.steps_improved + stats.steps_equal + stats.steps_worsened
        assert total == stats.steps_total > 0

    def test_large_population_rarely_worsens(self):
        cfg = AlgorithmConfig(algorithm="pbil", objective="onemax", dim=6, lam=2000,
                              q=0.25, dt=0.5, max_steps=10, seed=21)
        stats = finite_population_improvement(cfg, n_steps=10, n_seeds=3)
        assert stats.improvement_rate >= 0.9

    def test_only_domain_exits_end_a_seed(self, monkeypatch):
        def broken(*args):
            raise RuntimeError("not a domain exit")

        monkeypatch.setattr(updates, "igo_step", broken)
        cfg = AlgorithmConfig(algorithm="pbil", objective="onemax", dim=4, lam=10,
                              q=0.5, dt=0.2, max_steps=2, seed=7)
        with pytest.raises(RuntimeError, match="not a domain exit"):
            finite_population_improvement(cfg, n_steps=2, n_seeds=1)

    def test_gaussian_surrogate_quantile(self):
        # continuous models fall back to a large holdout sample; statistical
        # only, so just require the bookkeeping and a sane rate
        cfg = AlgorithmConfig(algorithm="cma_rank_mu", objective="sphere", dim=2,
                              lam=300, q=0.25, dt=0.5, max_steps=4, seed=13)
        stats = finite_population_improvement(cfg, n_steps=4, n_seeds=2)
        assert stats.steps_total == 8
        assert stats.improvement_rate >= 0.75


class TestKlExpansionCheck:
    def test_frozen_single_bit_errors(self):
        model = Bernoulli(1)
        errs = check_kl_expansion(model, [0.5], [0.1], halvings=1)
        kl_large = 0.5 * math.log(0.5 / 0.6) + 0.5 * math.log(0.5 / 0.4)
        kl_small = 0.5 * math.log(0.5 / 0.55) + 0.5 * math.log(0.5 / 0.45)
        assert errs[0] == pytest.approx(abs(kl_large - 0.02), abs=1e-15)
        assert errs[1] == pytest.approx(abs(kl_small - 0.005), abs=1e-15)
        assert errs[0] == pytest.approx(4.11e-4, abs=1e-6)
        assert errs[1] == pytest.approx(2.52e-5, abs=1e-7)

    def test_zero_delta(self):
        model = Bernoulli(2)
        errs = check_kl_expansion(model, [0.4, 0.6], [0.0, 0.0], halvings=3)
        assert np.array_equal(errs, np.zeros(4))

    def test_eighth_ratio_both_families(self):
        # the suite's criterion: each halving shrinks the cubic-corrected
        # residual at least 8x, with no absolute slack
        rng = np.random.default_rng(606)
        for family in ("bernoulli", "gaussian"):
            for _ in range(4):
                if family == "bernoulli":
                    d = int(rng.integers(1, 5))
                    model = Bernoulli(d)
                    eta = rng.uniform(0.25, 0.75, d)
                else:
                    d = int(rng.integers(1, 3))
                    model = Gaussian(d)
                    a = rng.normal(0, 0.2, (d, d))
                    eta = model.to_eta(
                        GaussianParams(rng.uniform(-0.5, 0.5, d), np.eye(d) + a @ a.T)
                    )
                direction = rng.normal(size=eta.size)
                delta = 0.04 * direction / np.linalg.norm(direction)
                errs = check_kl_expansion(model, eta, delta, halvings=5)
                for k in range(len(errs) - 1):
                    assert errs[k + 1] * 8.0 <= errs[k]


class TestGradientDirection:
    def test_exact_displacement_parallels_natural_gradient(self):
        # the small-step displacement must align with the metric-corrected
        # finite-difference gradient of the expected preference
        for trial in range(5):
            rng = np.random.default_rng([616161, trial])
            d = int(rng.integers(2, 5))
            eta = rng.uniform(0.2, 0.8, d)
            obj = make_objective("random-table", d, seed=700 + trial)
            fvals = obj.batch(bernoulli_support(d))
            scheme = TruncationScheme(0.3)
            model = Bernoulli(d)
            params = model.from_eta(eta)
            displacement = (
                exact_infinite_population_step(params, fvals, scheme, 1e-4).probs - eta
            ) / 1e-4
            h = 1e-6
            grad = np.zeros(d)
            for i in range(d):
                up, dn = eta.copy(), eta.copy()
                up[i] += h
                dn[i] -= h
                grad[i] = (
                    exact_J(model.from_eta(up), params, fvals, scheme)
                    - exact_J(model.from_eta(dn), params, fvals, scheme)
                ) / (2 * h)
            natural = np.linalg.solve(model.fisher_information(eta), grad)
            cosine = natural @ displacement / (
                np.linalg.norm(natural) * np.linalg.norm(displacement)
            )
            assert math.acos(min(1.0, max(-1.0, cosine))) <= 1e-3
