import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igokit import (
    Bernoulli,
    BernoulliParams,
    DegenerateDistributionError,
    DomainExitError,
    Gaussian,
    GaussianParams,
    InvalidInputError,
)


def random_spd(rng, d, cond_max=1e6):
    """Random symmetric positive definite matrix with bounded condition number."""
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    log_cond = rng.uniform(0.0, np.log(cond_max))
    eigs = np.exp(np.linspace(0.0, log_cond, d)) if d > 1 else np.array([1.0])
    cov = (q * eigs) @ q.T
    return (cov + cov.T) / 2.0


class TestParams:
    def test_bernoulli_rejects_boundary(self):
        with pytest.raises(InvalidInputError):
            BernoulliParams([0.5, 1.0])
        with pytest.raises(InvalidInputError):
            BernoulliParams([0.0])
        with pytest.raises(InvalidInputError):
            BernoulliParams([])

    def test_gaussian_rejects_asymmetric(self):
        with pytest.raises(InvalidInputError):
            GaussianParams([0.0, 0.0], [[1.0, 0.1], [0.2, 1.0]])

    def test_gaussian_rejects_non_pd(self):
        with pytest.raises(DegenerateDistributionError):
            GaussianParams([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    def test_params_are_frozen(self):
        p = BernoulliParams([0.5])
        with pytest.raises(ValueError):
            p.probs[0] = 0.7


VALID_PROB = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
OUT_OF_DOMAIN = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, 1.0]),
    st.floats(max_value=0.0, allow_nan=False),
    st.floats(min_value=1.0, allow_nan=False),
)


class TestDomainPredicate:
    """One domain check per family, held by its params constructor:
    ``from_eta`` is a shape check plus that constructor, with the error
    class translated to a domain exit."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(VALID_PROB, min_size=1, max_size=12), st.data())
    def test_bernoulli_names_the_first_bad_coordinate(self, probs, data):
        probs = np.array(probs)
        first = data.draw(st.integers(0, probs.size - 1))
        later = data.draw(st.lists(st.integers(first, probs.size - 1), max_size=3))
        for index in [first, *later]:
            probs[index] = data.draw(OUT_OF_DOMAIN)
        message = re.escape(f"coordinate {first} = {float(probs[first])!r}")
        with pytest.raises(InvalidInputError, match=message):
            BernoulliParams(probs)
        with pytest.raises(DomainExitError, match=message):
            Bernoulli(probs.size).from_eta(probs)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(VALID_PROB, min_size=1, max_size=12))
    def test_bernoulli_valid_eta_round_trips_bit_for_bit(self, probs):
        eta = np.array(probs)
        model = Bernoulli(eta.size)
        params = model.from_eta(eta)
        assert params.probs.tobytes() == eta.tobytes()
        assert model.to_eta(params).tobytes() == eta.tobytes()
        assert BernoulliParams(eta).probs.tobytes() == eta.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
        st.sampled_from([math.nan, math.inf, -math.inf]),
        st.data(),
    )
    def test_gaussian_non_finite(self, d, seed, value, data):
        rng = np.random.default_rng(seed)
        model = Gaussian(d)
        mean, cov = rng.normal(size=d), random_spd(rng, d, 10.0)
        eta = model.to_eta(GaussianParams(mean, cov))
        eta[data.draw(st.integers(0, eta.size - 1))] = value
        with pytest.raises(DomainExitError) as exit_info:
            model.from_eta(eta)
        assert not isinstance(exit_info.value, DegenerateDistributionError)
        bad_mean, bad_cov = mean.copy(), cov.copy()
        if data.draw(st.booleans()):
            bad_mean[data.draw(st.integers(0, d - 1))] = value
        else:
            i, j = data.draw(st.integers(0, d - 1)), data.draw(st.integers(0, d - 1))
            bad_cov[i, j] = bad_cov[j, i] = value
        with pytest.raises(InvalidInputError, match="finite"):
            GaussianParams(bad_mean, bad_cov)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 2**32 - 1), st.floats(-2.0, 0.0))
    def test_gaussian_non_pd_covariance(self, d, seed, smallest):
        rng = np.random.default_rng(seed)
        model = Gaussian(d)
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        eigs = np.concatenate([[smallest - 0.1], rng.uniform(0.5, 2.0, d - 1)])
        cov = (q * eigs) @ q.T
        cov = (cov + cov.T) / 2.0
        mean = rng.normal(size=d)
        with pytest.raises(DegenerateDistributionError):
            GaussianParams(mean, cov)
        eta = np.concatenate([mean, model.pack_symmetric(cov + np.outer(mean, mean))])
        with pytest.raises(DegenerateDistributionError):
            model.from_eta(eta)


class TestSufficientStatistics:
    def test_bernoulli(self):
        m = Bernoulli(2)
        assert np.array_equal(m.sufficient_statistics([1, 0]), [1.0, 0.0])

    def test_gaussian_1d(self):
        m = Gaussian(1)
        assert np.array_equal(m.sufficient_statistics([2.0]), [2.0, 4.0])

    def test_gaussian_2d_ones(self):
        m = Gaussian(2)
        t = m.sufficient_statistics([1.0, 1.0])
        assert np.array_equal(t[:2], [1.0, 1.0])
        assert np.array_equal(t[2:], [1.0, 1.0, 1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            Bernoulli(2).sufficient_statistics([1, 0, 1])
        with pytest.raises(InvalidInputError):
            Bernoulli(2).sufficient_statistics([0.5, 0.5])


class TestParamConvert:
    def test_gaussian_zero_mean(self):
        m = Gaussian(1)
        eta = m.to_eta(GaussianParams([0.0], [[1.0]]))
        assert np.array_equal(eta, [0.0, 1.0])

    def test_gaussian_second_moment_identity(self):
        m = Gaussian(1)
        eta = m.to_eta(GaussianParams([2.0], [[1.0]]))
        assert np.allclose(eta, [2.0, 5.0], atol=1e-15)
        back = m.from_eta(eta)
        assert abs(back.mean[0] - 2.0) <= 1e-14
        assert abs(back.cov[0, 0] - 1.0) <= 1e-14

    def test_bernoulli_identity(self):
        m = Bernoulli(2)
        eta = m.to_eta(BernoulliParams([0.3, 0.7]))
        assert np.array_equal(eta, [0.3, 0.7])

    def test_gaussian_inverse_degenerate(self):
        # second moment of a point mass at 2: implied covariance is zero
        with pytest.raises(DegenerateDistributionError):
            Gaussian(1).from_eta([2.0, 4.0])

    def test_bernoulli_domain_exit(self):
        with pytest.raises(DomainExitError):
            Bernoulli(1).from_eta([1.0])

    def test_round_trip_random_gaussians(self):
        rng = np.random.default_rng(8821)
        for _ in range(20):
            d = int(rng.integers(1, 6))
            m = Gaussian(d)
            params = GaussianParams(rng.normal(size=d), random_spd(rng, d))
            eta = m.to_eta(params)
            back = m.from_eta(eta)
            err = max(
                np.max(np.abs(back.mean - params.mean)),
                np.max(np.abs(back.cov - params.cov)),
            )
            assert err <= 1e-12


class TestLogDensity:
    def test_uniform_bernoulli(self):
        m = Bernoulli(2)
        p = BernoulliParams([0.5, 0.5])
        for x in ([0, 0], [0, 1], [1, 0], [1, 1]):
            assert m.log_density(p, x) == pytest.approx(math.log(0.25), abs=1e-15)

    def test_standard_normal_mode(self):
        m = Gaussian(1)
        p = GaussianParams([0.0], [[1.0]])
        assert m.log_density(p, [0.0]) == pytest.approx(
            -0.5 * math.log(2 * math.pi), abs=1e-12
        )

    def test_bernoulli_single(self):
        m = Bernoulli(1)
        assert m.log_density(BernoulliParams([0.3]), [1]) == pytest.approx(
            math.log(0.3), abs=1e-15
        )

    @pytest.mark.parametrize("d", [1, 3, 8, 16])
    def test_bernoulli_densities_sum_to_one(self, d):
        rng = np.random.default_rng(100 + d)
        params = BernoulliParams(rng.uniform(0.05, 0.95, d))
        m = Bernoulli(d)
        shifts = np.arange(d - 1, -1, -1)
        pts = ((np.arange(2**d)[:, None] >> shifts) & 1).astype(float)
        total = sum(math.exp(m.log_density(params, x)) for x in pts)
        assert abs(total - 1.0) <= 1e-12

    def test_gaussian_density_integrates(self):
        # quadrature over a wide grid as an independent check
        m = Gaussian(1)
        p = GaussianParams([0.3], [[0.7]])
        xs = np.linspace(-10, 10, 20001)
        vals = [math.exp(m.log_density(p, [x])) for x in xs]
        assert np.trapezoid(vals, xs) == pytest.approx(1.0, abs=1e-9)


class TestSampling:
    def test_deterministic_given_seed(self):
        m = Gaussian(2)
        p = GaussianParams([0.0, 1.0], [[2.0, 0.3], [0.3, 1.0]])
        a = m.sample(p, np.random.default_rng(7), 50)
        b = m.sample(p, np.random.default_rng(7), 50)
        assert np.array_equal(a, b)

    def test_near_deterministic_marginal(self):
        m = Bernoulli(4)
        p = BernoulliParams(np.full(4, 1.0 - 1e-9))
        draws = m.sample(p, np.random.default_rng(5), 3)
        assert np.array_equal(draws, np.ones((3, 4)))

    def test_bernoulli_mean_confidence(self):
        # binomial CI at 3.3 sigma, committed seed
        m = Bernoulli(1)
        draws = m.sample(BernoulliParams([0.5]), np.random.default_rng(12345), 100_000)
        assert 0.494 <= draws.mean() <= 0.506

    def test_gaussian_variance_confidence(self):
        m = Gaussian(1)
        p = GaussianParams([0.0], [[1.0]])
        draws = m.sample(p, np.random.default_rng(12345), 100_000)
        assert 0.985 <= draws.var(ddof=1) <= 1.015

    def test_count_validation(self):
        with pytest.raises(InvalidInputError):
            Bernoulli(1).sample(BernoulliParams([0.5]), np.random.default_rng(0), 0)


class TestNaturalGradLogDensity:
    def test_examples(self):
        b = Bernoulli(1)
        assert np.allclose(b.natural_grad_log_density([0.3], [1]), [0.7], atol=1e-15)
        b2 = Bernoulli(2)
        assert np.allclose(
            b2.natural_grad_log_density([0.5, 0.5], [0, 0]), [-0.5, -0.5], atol=1e-15
        )
        g = Gaussian(1)
        assert np.allclose(g.natural_grad_log_density([0.0, 1.0], [2.0]), [2.0, 3.0])

    def test_matches_finite_difference_through_fisher(self):
        # inverse Fisher times the plain gradient recovers T(x) - eta
        rng = np.random.default_rng(4242)
        for _ in range(25):
            d = int(rng.integers(1, 5))
            m = Bernoulli(d)
            eta = rng.uniform(0.1, 0.9, d)
            x = rng.integers(0, 2, d).astype(float)
            h = 1e-6
            grad = np.empty(d)
            for i in range(d):
                up, dn = eta.copy(), eta.copy()
                up[i] += h
                dn[i] -= h
                grad[i] = (
                    m.log_density(m.from_eta(up), x) - m.log_density(m.from_eta(dn), x)
                ) / (2 * h)
            natural = np.linalg.solve(m.fisher_information(eta), grad)
            expected = m.natural_grad_log_density(eta, x)
            assert np.max(np.abs(natural - expected)) <= 1e-5 * np.max(np.abs(expected))


class TestKL:
    def test_identical_is_zero(self):
        m = Bernoulli(1)
        assert m.kl_divergence(BernoulliParams([0.5]), BernoulliParams([0.5])) == 0.0

    def test_bernoulli_closed_form(self):
        m = Bernoulli(1)
        got = m.kl_divergence(BernoulliParams([0.5]), BernoulliParams([0.25]))
        expected = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)
        assert got == pytest.approx(expected, abs=1e-15)
        assert got == pytest.approx(0.143841, abs=1e-6)

    def test_gaussian_mean_shift(self):
        m = Gaussian(1)
        got = m.kl_divergence(
            GaussianParams([0.0], [[1.0]]), GaussianParams([1.0], [[1.0]])
        )
        assert got == pytest.approx(0.5, abs=1e-14)

    @given(
        p=st.floats(0.01, 0.99),
        q=st.floats(0.01, 0.99),
    )
    @settings(max_examples=200, deadline=None)
    def test_non_negative_and_definite(self, p, q):
        m = Bernoulli(1)
        kl = m.kl_divergence(BernoulliParams([p]), BernoulliParams([q]))
        assert kl >= 0.0
        if abs(p - q) > 1e-7:
            assert kl > 0.0
        if p == q:
            assert kl == 0.0

    def test_gaussian_non_negative_random(self):
        rng = np.random.default_rng(99)
        m = Gaussian(3)
        for _ in range(20):
            a = GaussianParams(rng.normal(size=3), random_spd(rng, 3, 1e3))
            b = GaussianParams(rng.normal(size=3), random_spd(rng, 3, 1e3))
            assert m.kl_divergence(a, b) >= 0.0
            assert m.kl_divergence(a, b) > 0.0  # distinct draws almost surely


class TestFisherInformation:
    def test_bernoulli_half(self):
        assert np.allclose(Bernoulli(1).fisher_information([0.5]), [[4.0]], atol=1e-14)

    def test_bernoulli_skewed(self):
        fim = Bernoulli(2).fisher_information([0.1, 0.9])
        assert np.allclose(fim, np.diag([1 / 0.09, 1 / 0.09]), rtol=1e-12)

    @pytest.mark.parametrize("family", ["bernoulli", "gaussian"])
    def test_symmetry(self, family):
        rng = np.random.default_rng(17)
        if family == "bernoulli":
            m = Bernoulli(3)
            eta = rng.uniform(0.2, 0.8, 3)
        else:
            m = Gaussian(2)
            eta = m.to_eta(GaussianParams(rng.normal(size=2), random_spd(rng, 2, 10.0)))
        fim = m.fisher_information(eta)
        denom = np.max(np.abs(fim))
        assert np.max(np.abs(fim - fim.T)) <= 1e-8 * denom

    def test_lost_definiteness_is_reported(self):
        # a flat divergence makes the numerical Hessian singular; the guard
        # must surface that with a condition report rather than return it
        from igokit import IllConditionedError

        class FlatKl(Gaussian):
            def kl_divergence(self, p, q):
                return 0.0

        model = FlatKl(1)
        eta = model.to_eta(GaussianParams([0.0], [[1.0]]))
        with pytest.raises(IllConditionedError, match="condition"):
            model.fisher_information(eta)

    def test_kl_expansion_contract(self):
        # the quadratic form must explain KL up to a cubic-or-better remainder
        rng = np.random.default_rng(2718)
        for family in ("bernoulli", "gaussian"):
            for _ in range(5):
                if family == "bernoulli":
                    d = int(rng.integers(1, 5))
                    m = Bernoulli(d)
                    eta = rng.uniform(0.25, 0.75, d)
                else:
                    d = int(rng.integers(1, 3))
                    m = Gaussian(d)
                    eta = m.to_eta(
                        GaussianParams(rng.normal(0, 0.3, d), random_spd(rng, d, 5.0))
                    )
                direction = rng.normal(size=eta.size)
                delta = 0.04 * direction / np.linalg.norm(direction)
                fim = m.fisher_information(eta)
                base = m.from_eta(eta)

                def err(dlt):
                    kl = m.kl_divergence(base, m.from_eta(eta + dlt))
                    return abs(kl - 0.5 * float(dlt @ fim @ dlt))

                assert err(delta / 2) <= err(delta) / 4 + 1e-12
