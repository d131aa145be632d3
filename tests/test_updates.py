import numpy as np
import pytest

from igokit import (
    Bernoulli,
    BernoulliBlockDecomposition,
    DegenerateDistributionError,
    DomainExitError,
    Gaussian,
    GaussianBlockDecomposition,
    BernoulliParams,
    GaussianParams,
    InvalidInputError,
    StepConfig,
    TruncationScheme,
    blockwise_igo_ml_step,
    enumerate_bernoulli,
    fitness_proportional_step,
    make_objective,
    igo_ml_step,
    igo_step,
    safeguarded_step,
    sample_weights,
)
from igokit.verify import _smoothed_ce_reference


def bern(d):
    return Bernoulli(d)


def state(probs):
    return BernoulliParams(probs)


class TestIgoStep:
    def test_full_step_hits_boundary(self):
        # winner-take-all weights pull the state to 0 exactly: rejected
        samples = np.array([[0.0], [1.0]])
        w = sample_weights([0.0, 1.0], TruncationScheme(0.5))
        with pytest.raises(DomainExitError):
            igo_step(bern(1), state([0.5]), samples, w, 1.0)

    def test_half_step(self):
        samples = np.array([[0.0], [1.0]])
        w = sample_weights([0.0, 1.0], TruncationScheme(0.5))
        out = igo_step(bern(1), state([0.5]), samples, w, 0.5)
        assert isinstance(out, BernoulliParams)
        assert np.allclose(out.probs, [0.25], atol=1e-15)

    def test_vanishing_step(self):
        samples = np.array([[0.0], [1.0]])
        w = sample_weights([0.0, 1.0], TruncationScheme(0.5))
        out = igo_step(bern(1), state([0.5]), samples, w, 1e-12)
        assert abs(out.probs[0] - 0.5) <= 1e-12

    def test_pbil_identity_is_exact(self):
        # the update must equal theta + dt * sum w_i (x_i - theta) bit for bit
        rng = np.random.default_rng(41)
        for _ in range(20):
            d = int(rng.integers(1, 9))
            model = bern(d)
            theta = rng.uniform(0.15, 0.85, d)
            lam = int(rng.integers(4, 30))
            samples = model.sample(state(theta), rng, lam)
            w = sample_weights(rng.normal(size=lam), TruncationScheme(0.4))
            dt = float(rng.uniform(0.05, 0.9))
            got = igo_step(model, state(theta), samples, w, dt).probs
            reference = theta + dt * np.sum(w.w[:, None] * (samples - theta), axis=0)
            assert np.array_equal(got, reference)


def sequential_sum(rows):
    """Rows added one after another in index order: ``acc = r0``, then
    ``acc = acc + r_i``. The reference for the axis-0 sums of the rules."""
    acc = rows[0]
    for row in rows[1:]:
        acc = acc + row
    return acc


def rpp_support_case():
    # the 2^16 x 16 support with reward-proportional weights P(x) r(x) / E[r]
    d = 16
    params = BernoulliParams(np.linspace(0.1, 0.9, d))
    dist = enumerate_bernoulli(params)
    rewards = make_objective("random-reward", d, seed=4).support_values
    return bern(d), dist.prob * rewards / float(dist.prob @ rewards), dist.support, params


def pbil_sample_case():
    # a 1000 x 1000 0/1 sample under truncation at q = 1/4: 3/4 zero weights
    d = lam = 1000
    rng = np.random.default_rng(9)
    model = bern(d)
    samples = model.sample(BernoulliParams(np.full(d, 0.5)), rng, lam)
    w = sample_weights(d - samples.sum(axis=1), TruncationScheme(0.25)).w
    assert np.count_nonzero(w == 0.0) >= lam // 2
    return model, w, samples, BernoulliParams(np.full(d, 0.5))


def gaussian_case():
    d = 5
    model = Gaussian(d)
    params = GaussianParams(np.zeros(d), np.eye(d))
    samples = model.sample(params, np.random.default_rng(2), 200)
    w = sample_weights(np.sum(samples * samples, axis=1), TruncationScheme(0.3)).w
    return model, w, samples, params


SUM_ORDER_CASES = [rpp_support_case, pbil_sample_case, gaussian_case]


class TestSummationOrder:
    """The rules' weighted sums add the rows in index order, bit for bit.

    A rewrite of the sums that moves a result bit, such as the matrix-vector
    product ``w @ stats - w.sum() * eta``, fails here, before it moves where
    a seeded run exits the domain. The pinned bits are those of the vector
    the rule hands to ``from_eta``, its one conversion."""

    @pytest.mark.parametrize("case", SUM_ORDER_CASES)
    def test_igo_step_is_sequential(self, case, from_eta_calls):
        model, w, samples, params = case()
        eta = model.to_eta(params)
        stats = model.batch_sufficient_statistics(samples)
        dt = 0.5
        expected = eta + dt * sequential_sum([w[i] * (stats[i] - eta) for i in range(w.size)])
        igo_step(model, params, samples, w, dt)
        assert [e.tobytes() for e in from_eta_calls] == [expected.tobytes()]

    @pytest.mark.parametrize("case", SUM_ORDER_CASES)
    def test_igo_ml_step_is_sequential(self, case, from_eta_calls):
        model, w, samples, params = case()
        eta = model.to_eta(params)
        stats = model.batch_sufficient_statistics(samples)
        dt = 0.5
        expected = (1.0 - dt) * eta + dt * sequential_sum([w[i] * stats[i] for i in range(w.size)])
        igo_ml_step(model, params, samples, w, dt)
        assert [e.tobytes() for e in from_eta_calls] == [expected.tobytes()]


class TestIgoMlStep:
    def test_convex_blend(self):
        samples = np.array([[0.0], [1.0]])
        w = sample_weights([0.0, 1.0], TruncationScheme(0.5))
        eta = igo_ml_step(bern(1), state([0.5]), samples, w, 0.5).probs
        assert np.allclose(eta, [0.25], atol=1e-15)

    def test_dt_one_is_pure_weighted_ml(self):
        samples = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        w = sample_weights([1.0, 2.0, 3.0], TruncationScheme(0.75))
        eta = igo_ml_step(bern(2), state([0.5, 0.5]), samples, w, 1.0).probs
        target = np.sum(w.w[:, None] * samples, axis=0)
        assert np.array_equal(eta, target)

    def test_dt_zero_keeps_state(self):
        samples = np.array([[0.0], [1.0]])
        w = sample_weights([0.0, 1.0], TruncationScheme(0.5))
        eta = igo_ml_step(bern(1), state([0.5]), samples, w, 0.0).probs
        assert np.array_equal(eta, [0.5])

    def test_convexity_bounds(self):
        rng = np.random.default_rng(90)
        for _ in range(30):
            d = int(rng.integers(1, 6))
            model = bern(d)
            theta = rng.uniform(0.2, 0.8, d)
            samples = model.sample(state(theta), rng, 12)
            w = sample_weights(rng.normal(size=12), TruncationScheme(0.5))
            dt = float(rng.uniform(0.0, 1.0))
            stat = np.sum(w.w[:, None] * samples, axis=0)
            try:
                eta = igo_ml_step(model, state(theta), samples, w, dt).probs
            except DomainExitError:
                continue
            lo = np.minimum(theta, stat) - 1e-15
            hi = np.maximum(theta, stat) + 1e-15
            assert np.all(eta >= lo) and np.all(eta <= hi)


class TestSmoothedCeStep:
    """In expectation parameters the smoothed CE/ML step is ``igo_ml_step``:
    the weighted-ML point is the weighted mean of the statistics, blended."""

    def test_coincides_with_weighted_ml_blend(self):
        samples = np.array([[0.0], [1.0]])
        w = sample_weights([0.0, 1.0], TruncationScheme(0.5))
        eta = igo_ml_step(bern(1), state([0.5]), samples, w, 0.5).probs
        assert np.array_equal(
            eta, _smoothed_ce_reference(bern(1), np.array([0.5]), samples, w.w, 0.5)
        )

    def test_single_gaussian_sample_is_degenerate(self):
        model = Gaussian(1)
        with pytest.raises(DegenerateDistributionError):
            igo_ml_step(model, GaussianParams([0.0], [[1.0]]), np.array([[2.0]]), [1.0], 1.0)

    def test_boundary_ml_point_still_blends(self):
        # both winners share the coordinate: the weighted-ML point sits on
        # the closure boundary, yet the dt < 1 blend is a valid state
        samples = np.array([[1.0], [1.0], [0.0]])
        w = sample_weights([0.0, 0.0, 5.0], TruncationScheme(0.5))
        eta = igo_ml_step(bern(1), state([0.5]), samples, w, 0.25).probs
        assert eta[0] == pytest.approx(0.625, abs=1e-15)
        with pytest.raises(DomainExitError):
            igo_ml_step(bern(1), state([0.5]), samples, w, 1.0)

    def test_dt_zero(self):
        # a rank-deficient Gaussian ML point (one winner) is inert at dt = 0
        model = Gaussian(2)
        params = GaussianParams(np.zeros(2), np.eye(2))
        samples = np.array([[1.0, 2.0], [3.0, -1.0]])
        w = sample_weights([0.0, 1.0], TruncationScheme(0.5))
        out = igo_ml_step(model, params, samples, w, 0.0)
        assert np.array_equal(out.mean, params.mean)
        assert np.array_equal(out.cov, params.cov)


class TestThreeWayEquivalence:
    @pytest.mark.parametrize("dt", [0.1, 0.5, 1.0])
    def test_bernoulli_and_gaussian_agree(self, dt):
        rng = np.random.default_rng(int(dt * 1000))
        for family in ("bernoulli", "gaussian"):
            done = 0
            while done < 40:
                if family == "bernoulli":
                    d = int(rng.integers(1, 6))
                    model = Bernoulli(d)
                    params = state(rng.uniform(0.25, 0.75, d))
                    lam = 20
                else:
                    d = int(rng.integers(1, 4))
                    model = Gaussian(d)
                    a = rng.normal(size=(d, d))
                    params = GaussianParams(rng.normal(size=d), a @ a.T + np.eye(d))
                    lam = 25
                samples = model.sample(params, rng, lam)
                w = sample_weights(rng.normal(size=lam), TruncationScheme(0.5))
                try:
                    a1 = model.to_eta(igo_step(model, params, samples, w, dt))
                    a2 = model.to_eta(igo_ml_step(model, params, samples, w, dt))
                except DomainExitError:
                    continue
                a3 = _smoothed_ce_reference(model, model.to_eta(params), samples, w.w, dt)
                spread = max(
                    np.max(np.abs(a1 - a2)),
                    np.max(np.abs(a1 - a3)),
                    np.max(np.abs(a2 - a3)),
                )
                assert spread <= 1e-10
                done += 1


UNIT = GaussianParams([0.0], [[1.0]])


def rank_mu_reference(params, samples, w, dt_cov, dt_mean):
    """The rank-mu recombination formulas, term by term."""
    lam = len(samples)
    step_cov = sum(
        w[i] * (np.outer(samples[i] - params.mean, samples[i] - params.mean) - params.cov)
        for i in range(lam)
    )
    mean_step = sum(w[i] * (samples[i] - params.mean) for i in range(lam))
    return params.mean + dt_mean * mean_step, params.cov + dt_cov * step_cov


class TestBlockwise:
    def test_single_winner_full_rates(self):
        out = blockwise_igo_ml_step(
            Gaussian(1), UNIT, np.array([[1.0]]), [1.0],
            GaussianBlockDecomposition(), (1.0, 1.0),
        )
        assert out.cov[0, 0] == pytest.approx(1.0, abs=1e-14)
        assert out.mean[0] == pytest.approx(1.0, abs=1e-14)

    def test_partial_cov_rate(self):
        out = blockwise_igo_ml_step(
            Gaussian(1), UNIT, np.array([[2.0]]), [1.0],
            GaussianBlockDecomposition(), (0.5, 1.0),
        )
        assert out.cov[0, 0] == pytest.approx(2.5, abs=1e-13)
        assert out.mean[0] == pytest.approx(2.0, abs=1e-14)

    def test_zero_rates_keep_state(self):
        start = GaussianParams([0.5, -0.5], [[2.0, 0.2], [0.2, 1.0]])
        out = blockwise_igo_ml_step(
            Gaussian(2), start,
            np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]]),
            [0.2, 0.3, 0.5],
            GaussianBlockDecomposition(), (0.0, 0.0),
        )
        assert np.array_equal(out.mean, start.mean)
        assert np.array_equal(out.cov, start.cov)

    def test_rank_mu_recovery_sample(self):
        rng = np.random.default_rng(1234)
        for _ in range(30):
            d = int(rng.integers(1, 4))
            model = Gaussian(d)
            a = rng.normal(size=(d, d))
            params = GaussianParams(rng.normal(size=d), a @ a.T + np.eye(d))
            lam = 2 * d + 8
            samples = model.sample(params, rng, lam)
            w = sample_weights(rng.normal(size=lam), TruncationScheme(0.6))
            dt_cov, dt_mean = rng.uniform(0.05, 1.0, 2)
            got = blockwise_igo_ml_step(
                model, params, samples, w, GaussianBlockDecomposition(), (dt_cov, dt_mean),
            )
            mean_ref, cov_ref = rank_mu_reference(params, samples, w.w, dt_cov, dt_mean)
            assert np.max(np.abs(got.mean - mean_ref)) <= 1e-12
            assert np.max(np.abs(got.cov - cov_ref)) <= 1e-12

    def test_ill_conditioned_state_far_from_the_origin(self):
        # |m|^2 / lambda_min(C) = 3600 / 1e-14, far past 1 / eps: written as
        # E[x x^T] - m m^T this covariance has no correct digit left in its
        # smallest direction, but the step never forms that difference
        d = 4
        model = Gaussian(d)
        q, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(d, d)))
        cov = q @ np.diag([1.0, 0.5, 0.1, 1e-14]) @ q.T
        params = GaussianParams(np.full(d, 30.0), (cov + cov.T) / 2.0)
        assert np.linalg.eigvalsh(params.cov)[0] == pytest.approx(1e-14, rel=1e-3)
        rng = np.random.default_rng(6)
        samples = model.sample(params, rng, 20)
        w = sample_weights(rng.normal(size=20), TruncationScheme(0.5))
        got = blockwise_igo_ml_step(
            model, params, samples, w, GaussianBlockDecomposition(), (0.3, 0.7),
        )
        assert isinstance(got, GaussianParams)
        mean_ref, cov_ref = rank_mu_reference(params, samples, w.w, 0.3, 0.7)
        assert np.max(np.abs(got.mean - mean_ref)) <= 1e-12
        assert np.max(np.abs(got.cov - cov_ref)) <= 1e-12

    def test_step_stays_in_mean_and_covariance(self, monkeypatch, from_eta_calls):
        # no conversion to or from expectation parameters, and one Cholesky
        # factorisation per block: the GaussianParams that block builds
        model = Gaussian(3)
        params = GaussianParams([1.0, 2.0, 3.0], np.eye(3))
        samples = model.sample(params, np.random.default_rng(7), 12)
        w = sample_weights(np.sum(samples * samples, axis=1), TruncationScheme(0.5))
        to_eta_calls, factorisations = [], []
        cholesky = np.linalg.cholesky

        def counting(a):
            factorisations.append(a)
            return cholesky(a)

        monkeypatch.setattr(Gaussian, "to_eta", lambda self, p: to_eta_calls.append(p))
        monkeypatch.setattr(np.linalg, "cholesky", counting)
        out = blockwise_igo_ml_step(
            model, params, samples, w, GaussianBlockDecomposition(), (0.5, 0.5)
        )
        assert from_eta_calls == [] and to_eta_calls == []
        assert len(factorisations) == 2
        assert factorisations[-1] is out.cov

    def test_differs_from_joint_ml_step(self):
        # pinned instance: with equal rates the sequential update keeps the
        # scatter about the old mean, the joint blend does not
        model = Gaussian(1)
        samples = np.array([[1.0], [-2.0]])
        w = sample_weights([0.0, 1.0], TruncationScheme(0.5))
        blocked = blockwise_igo_ml_step(
            model, UNIT, samples, w, GaussianBlockDecomposition(), (0.5, 0.5)
        )
        joint = igo_ml_step(model, UNIT, samples, w, 0.5)
        assert abs(blocked.cov[0, 0] - joint.cov[0, 0]) > 1e-6
        assert blocked.cov[0, 0] == pytest.approx(1.0, abs=1e-14)
        assert joint.cov[0, 0] == pytest.approx(0.75, abs=1e-14)

    def test_emna_order(self):
        # mean first, then scatter about the moved mean
        out = blockwise_igo_ml_step(
            Gaussian(1), UNIT, np.array([[2.0]]), [1.0],
            GaussianBlockDecomposition(order=("mean", "cov")), (1.0, 0.5),
        )
        assert out.mean[0] == pytest.approx(2.0, abs=1e-14)
        # scatter about m*=2 of the single sample x=2 is zero
        assert out.cov[0, 0] == pytest.approx(0.5, abs=1e-14)

    def test_bernoulli_coordinate_blocks(self):
        # winner is (1, 0): each coordinate blends toward it at its own rate
        model = bern(2)
        samples = np.array([[1.0, 0.0], [0.0, 1.0]])
        w = sample_weights([0.0, 1.0], TruncationScheme(0.5))
        out = blockwise_igo_ml_step(
            model, state([0.5, 0.5]), samples, w,
            BernoulliBlockDecomposition(2), (0.5, 0.9),
        ).probs
        assert out[0] == pytest.approx(0.75, abs=1e-15)
        assert out[1] == pytest.approx(0.05, abs=1e-15)

    def test_bernoulli_rates_follow_the_order(self):
        # the k-th rate belongs to the k-th block of the order: here the first
        # rate moves coordinate 2, the second coordinate 0, the third coordinate 1
        samples = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
        out = blockwise_igo_ml_step(
            bern(3), state([0.5, 0.5, 0.5]), samples, [1.0, 0.0],
            BernoulliBlockDecomposition(3, order=(2, 0, 1)), (0.1, 0.2, 0.4),
        )
        assert np.allclose(out.probs, [0.6, 0.7, 0.55], rtol=0, atol=1e-15)

    def test_bernoulli_block_boundary_exit(self):
        model = bern(2)
        samples = np.array([[1.0, 0.0], [0.0, 1.0]])
        w = sample_weights([0.0, 1.0], TruncationScheme(0.5))
        with pytest.raises(DomainExitError):
            blockwise_igo_ml_step(
                model, state([0.5, 0.5]), samples, w,
                BernoulliBlockDecomposition(2), (1.0, 1.0),
            )

    def test_bernoulli_default_order_is_natural(self):
        assert BernoulliBlockDecomposition(3).order == (0, 1, 2)

    @pytest.mark.parametrize("order", [(), [], (0,), (0, 0)])
    def test_bernoulli_order_must_be_a_permutation(self, order):
        # an explicit empty order is not the default: it names no coordinate
        with pytest.raises(InvalidInputError, match="permutation"):
            BernoulliBlockDecomposition(2, order)

    def test_block_count_mismatch(self):
        model = bern(2)
        with pytest.raises(InvalidInputError):
            blockwise_igo_ml_step(
                model, state([0.5, 0.5]), np.array([[1.0, 0.0]]), [1.0],
                BernoulliBlockDecomposition(2), (0.5,),
            )

    def test_state_dimension_mismatch(self):
        with pytest.raises(InvalidInputError, match="dimension"):
            blockwise_igo_ml_step(
                Gaussian(2), UNIT, np.zeros((3, 2)), [0.2, 0.3, 0.5],
                GaussianBlockDecomposition(), (0.5, 0.5),
            )


HALF = BernoulliParams([0.5])


class TestFitnessProportional:
    def test_full_step_boundary(self):
        model = bern(1)
        dist = enumerate_bernoulli(HALF)
        rewards = dist.support[:, 0]  # r(x) = x
        with pytest.raises(DomainExitError):
            fitness_proportional_step(model, HALF, dist, rewards, 1.0)
        eta = fitness_proportional_step(model, HALF, dist, rewards, 1.0 - 1e-6).probs
        assert eta[0] == pytest.approx(1.0 - 5e-7, abs=1e-12)

    def test_shifted_reward(self):
        model = bern(1)
        dist = enumerate_bernoulli(HALF)
        rewards = 1.0 + dist.support[:, 0]
        out = fitness_proportional_step(model, HALF, dist, rewards, 1.0)
        assert out.probs[0] == pytest.approx(2.0 / 3.0, abs=1e-14)
        before = float(dist.prob @ rewards)
        after = float(enumerate_bernoulli(out).prob @ rewards)
        assert before == pytest.approx(1.5, abs=1e-15)
        assert after == pytest.approx(5.0 / 3.0, abs=1e-14)

    def test_half_step(self):
        model = bern(1)
        dist = enumerate_bernoulli(HALF)
        eta = fitness_proportional_step(model, HALF, dist, dist.support[:, 0], 0.5).probs
        assert eta[0] == pytest.approx(0.75, abs=1e-15)

    def test_all_zero_rewards(self):
        model = bern(1)
        dist = enumerate_bernoulli(HALF)
        with pytest.raises(InvalidInputError):
            fitness_proportional_step(model, HALF, dist, [0.0, 0.0], 1.0)
        with pytest.raises(InvalidInputError):
            fitness_proportional_step(model, HALF, dist, [0.5, -0.1], 1.0)
        with pytest.raises(InvalidInputError, match="all zero"):
            fitness_proportional_step(model, HALF, np.zeros((1, 1)), [0.0], 1.0)

    def test_monte_carlo_mode(self):
        # sample weights are 1/n: the update reduces to reward-share averages
        model = bern(1)
        samples = np.array([[0.0], [1.0], [1.0], [1.0]])
        rewards = np.array([1.0, 2.0, 2.0, 2.0])
        eta = fitness_proportional_step(model, HALF, samples, rewards, 1.0).probs
        expected = 0.5 + np.sum((rewards / rewards.sum())[:, None] * (samples - 0.5))
        assert eta[0] == pytest.approx(expected, abs=1e-15)


class TestSafeguard:
    def test_halves_until_valid(self):
        model = bern(1)
        samples = np.array([[0.0], [1.0]])
        w = sample_weights([0.0, 1.0], TruncationScheme(0.5))

        out, used = safeguarded_step(
            lambda dt: igo_step(model, HALF, samples, w, dt), 1.0
        )
        assert used == 0.5
        assert out.probs[0] == pytest.approx(0.25, abs=1e-15)

    def test_exhaustion_raises(self):
        def always_exits(dt):
            raise DomainExitError("nope")

        with pytest.raises(DomainExitError):
            safeguarded_step(always_exits, 1.0, max_halvings=5)


class TestStepConfig:
    def test_certification_gate(self):
        with pytest.raises(InvalidInputError, match="uncertified"):
            StepConfig(dt=1.5).validate()
        StepConfig(dt=1.5, uncertified=True).validate()
        StepConfig(dt=1.0, dt_per_block=(0.2, 1.0)).validate()
        with pytest.raises(InvalidInputError):
            StepConfig(dt=0.5, dt_per_block=(1.2,)).validate()
        with pytest.raises(InvalidInputError):
            StepConfig(dt=-0.1).validate()
        StepConfig(dt=0.0).validate()  # inert step is allowed
