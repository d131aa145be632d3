from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igokit import (
    Bernoulli,
    BernoulliParams,
    InvalidInputError,
    SampleWeights,
    TabulatedScheme,
    TruncationScheme,
    enumerate_bernoulli,
    exact_quantile,
    make_objective,
    preference_exact,
    rank_bounds,
    sample_weights,
)

UNIFORM = TabulatedScheme((1.0,))

fitness_arrays = st.lists(
    st.integers(min_value=-10, max_value=10), min_size=1, max_size=12
).map(lambda xs: np.array(xs, dtype=float))


# non-increasing tables of up to 12 cells, some of them zero
tabulated_schemes = st.lists(st.integers(0, 20), min_size=1, max_size=12).filter(any).map(
    lambda raw: TabulatedScheme(tuple(np.sort(raw)[::-1] / sum(raw)))
)
schemes = st.one_of(st.floats(0.01, 0.99).map(TruncationScheme), tabulated_schemes)


@st.composite
def dyadic_tables(draw):
    """Probabilities in multiples of 1/64 (some zero) with tied fitness values.

    Every partial sum of such masses is exact, so a level's quantile range is
    the same however the masses are summed.
    """
    n = draw(st.integers(1, 12))
    cuts = sorted(draw(st.lists(st.integers(0, 64), min_size=n - 1, max_size=n - 1)))
    prob = np.diff([0, *cuts, 64]) / 64.0
    fitness = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    return prob, np.array(fitness, dtype=float)


class TestSchemes:
    def test_truncation_validation(self):
        for bad in (0.0, 1.0, -0.1, 1.5, float("nan")):
            with pytest.raises(InvalidInputError):
                TruncationScheme(bad)

    def test_tabulated_validation(self):
        with pytest.raises(InvalidInputError):
            TabulatedScheme((0.2, 0.5, 0.3))  # increasing
        with pytest.raises(InvalidInputError):
            TabulatedScheme((0.6, -0.1, 0.5))
        with pytest.raises(InvalidInputError):
            TabulatedScheme((0.5, 0.4))  # sums to 0.9

    def test_truncation_integral_is_analytic(self):
        s = TruncationScheme(0.3)
        assert s.integral(0.0, 1.0) == pytest.approx(1.0, abs=1e-15)
        assert s.integral(0.0, 0.15) == pytest.approx(0.5, abs=1e-15)
        assert s.integral(0.3, 0.9) == 0.0

    @given(tabulated_schemes)
    @settings(max_examples=200, deadline=None)
    def test_tabulated_weight_at_the_ends(self, scheme):
        n = len(scheme.cells)
        assert scheme.weight(0.0) == n * scheme.cells[0]
        assert scheme.weight(1.0) == n * scheme.cells[-1]
        assert np.array_equal(
            scheme.weight(np.array([0.0, 1.0])), [n * scheme.cells[0], n * scheme.cells[-1]]
        )

    @given(schemes, st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_array_values_match_pointwise(self, scheme, us):
        u = np.sort(np.array(us))
        assert np.array_equal(scheme.weight(u), [scheme.weight(x) for x in u])
        lo, hi = u[: u.size // 2], u[u.size - u.size // 2 :]
        assert np.array_equal(
            scheme.integral(lo, hi), [scheme.integral(a, b) for a, b in zip(lo, hi)]
        )

    def test_tabulated_resampling(self):
        s = TabulatedScheme((0.6, 0.4))
        assert np.allclose(s.bar_weights(4), [0.3, 0.3, 0.2, 0.2], atol=1e-15)
        assert np.array_equal(s.bar_weights(2), [0.6, 0.4])


class TestBarWeights:
    def test_lambda4_q_half(self):
        assert np.array_equal(
            TruncationScheme(0.5).bar_weights(4), [0.5, 0.5, 0.0, 0.0]
        )

    def test_lambda3_q_half(self):
        # interval (1/3, 1/2] contributes (1/2 - 1/3) / (1/2) = 1/3
        expected = [Fraction(2, 3), Fraction(1, 3), Fraction(0)]
        got = TruncationScheme(0.5).bar_weights(3)
        assert np.allclose(got, [float(e) for e in expected], atol=1e-15)

    def test_uniform_scheme(self):
        assert np.array_equal(UNIFORM.bar_weights(2), [0.5, 0.5])

    @given(lam=st.integers(1, 40), q=st.floats(0.01, 0.99))
    @settings(max_examples=200, deadline=None)
    def test_sums_to_one(self, lam, q):
        bw = TruncationScheme(q).bar_weights(lam)
        assert np.all(bw >= 0.0)
        assert abs(bw.sum() - 1.0) <= 1e-12
        assert np.all(np.diff(bw) <= 1e-15)  # non-increasing


class TestRankBounds:
    def test_distinct(self):
        rk_minus, rk_plus = rank_bounds([3, 1, 2])
        assert rk_minus.tolist() == [2, 0, 1]
        assert rk_plus.tolist() == [3, 1, 2]

    def test_tie_pair(self):
        rk_minus, rk_plus = rank_bounds([1, 1, 2])
        assert rk_minus.tolist() == [0, 0, 2]
        assert rk_plus.tolist() == [2, 2, 3]

    def test_all_tied(self):
        rk_minus, rk_plus = rank_bounds([5, 5])
        assert rk_minus.tolist() == [0, 0]
        assert rk_plus.tolist() == [2, 2]

    def test_nan_rejected(self):
        with pytest.raises(InvalidInputError):
            rank_bounds([1.0, float("nan")])
        with pytest.raises(InvalidInputError):
            rank_bounds([1.0, float("inf")])

    @given(fitness_arrays)
    @settings(max_examples=200, deadline=None)
    def test_multiplicity(self, f):
        rk_minus, rk_plus = rank_bounds(f)
        for i in range(len(f)):
            assert rk_minus[i] < rk_plus[i]
            assert rk_plus[i] - rk_minus[i] == np.sum(f == f[i])


class TestSampleWeights:
    def test_tied_pair_averages(self):
        w = sample_weights([1, 1, 2, 3], TruncationScheme(0.5)).w
        assert np.allclose(w, [0.5, 0.5, 0.0, 0.0], atol=1e-15)

    def test_tie_straddles_boundary(self):
        w = sample_weights([1, 2, 2, 3], TruncationScheme(0.5)).w
        assert np.allclose(w, [0.5, 0.25, 0.25, 0.0], atol=1e-15)

    def test_best_takes_all(self):
        w = sample_weights([1, 2], TruncationScheme(0.5)).w
        assert np.allclose(w, [1.0, 0.0], atol=1e-15)

    @given(fitness_arrays, st.floats(0.05, 0.95))
    @settings(max_examples=300, deadline=None)
    def test_normalized_nonnegative(self, f, q):
        w = sample_weights(f, TruncationScheme(q)).w
        assert np.all(w >= 0.0)
        assert abs(w.sum() - 1.0) <= 1e-12

    @given(fitness_arrays, st.floats(0.05, 0.95), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_permutation_equivariance(self, f, q, rand):
        perm = list(range(len(f)))
        rand.shuffle(perm)
        scheme = TruncationScheme(q)
        w = sample_weights(f, scheme).w
        w_perm = sample_weights(f[perm], scheme).w
        assert np.array_equal(w[perm], w_perm)

    @given(fitness_arrays, st.floats(0.05, 0.95))
    @settings(max_examples=200, deadline=None)
    def test_monotone_transform_invariance(self, f, q):
        scheme = TruncationScheme(q)
        w = sample_weights(f, scheme).w
        assert np.array_equal(w, sample_weights(np.exp(f), scheme).w)
        shifted = f - f.min() + 1.0  # strictly positive, ties preserved
        assert np.array_equal(
            sample_weights(shifted, scheme).w, sample_weights(shifted**3, scheme).w
        )

    def test_weights_type_validation(self):
        with pytest.raises(InvalidInputError):
            SampleWeights(np.array([0.6, 0.3]))  # sums to 0.9
        with pytest.raises(InvalidInputError):
            SampleWeights(np.array([1.2, -0.2]))


def brute_force_preference(prob, fitness, scheme):
    """Independent quadratic-time evaluation of the two-case preference."""
    n = len(prob)
    out = np.empty(n)
    for i in range(n):
        q_minus = sum(prob[j] for j in range(n) if fitness[j] < fitness[i])
        q_plus = sum(prob[j] for j in range(n) if fitness[j] <= fitness[i])
        if q_minus == q_plus:
            out[i] = scheme.weight(q_plus)
        else:
            out[i] = scheme.integral(q_minus, q_plus) / (q_plus - q_minus)
    return out


class TestPreferenceExact:
    def test_single_bit(self):
        w = preference_exact([0.5, 0.5], [0.0, 1.0], TruncationScheme(0.5))
        assert np.allclose(w, [2.0, 0.0], atol=1e-14)

    def test_two_bits_interval_average(self):
        probs = [0.25, 0.25, 0.25, 0.25]
        f = [0.0, 1.0, 1.0, 2.0]
        w = preference_exact(probs, f, TruncationScheme(0.5))
        assert np.allclose(w, [2.0, 1.0, 1.0, 0.0], atol=1e-14)
        assert np.dot(probs, w) == pytest.approx(1.0, abs=1e-10)

    def test_uniform_scheme_is_constant(self):
        rng = np.random.default_rng(3)
        p = rng.random(8)
        p /= p.sum()
        w = preference_exact(p, rng.integers(0, 4, 8), UNIFORM)
        assert np.allclose(w, 1.0, atol=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(55)
        for _ in range(30):
            n = int(rng.integers(3, 30))
            p = rng.random(n)
            p /= p.sum()
            f = rng.integers(0, 6, n).astype(float)  # heavy ties
            # one zero-mass point at a unique level exercises the
            # point-evaluation branch of the two-case formula
            p = np.append(p, 0.0)
            f = np.append(f, 2.5)
            scheme = TruncationScheme(float(rng.uniform(0.1, 0.9)))
            got = preference_exact(p, f, scheme)
            assert np.allclose(got, brute_force_preference(p, f, scheme), atol=1e-12)
            assert np.dot(p, got) == pytest.approx(1.0, abs=1e-10)

    @given(dyadic_tables(), schemes)
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force_on_drawn_tables(self, table, scheme):
        prob, f = table
        got = preference_exact(prob, f, scheme)
        assert np.allclose(got, brute_force_preference(prob, f, scheme), rtol=0, atol=1e-12)

    @given(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40).filter(lambda p: sum(p) > 0.01),
        st.data(),
        schemes,
    )
    @settings(max_examples=300, deadline=None)
    def test_expectation_is_one(self, raw, data, scheme):
        prob = np.array(raw) / np.sum(raw)
        f = np.array(data.draw(st.lists(
            st.integers(-4, 4), min_size=prob.size, max_size=prob.size
        )), dtype=float)
        assert abs(prob @ preference_exact(prob, f, scheme) - 1.0) <= 1e-12

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            preference_exact([], [], TruncationScheme(0.5))
        with pytest.raises(InvalidInputError):
            preference_exact([0.6, 0.3], [1.0, 2.0], TruncationScheme(0.5))

    def test_bounds_and_quantile_cutoff(self):
        # 0 <= W <= 1/q, and points strictly above the q-quantile get zero
        rng = np.random.default_rng(77)
        for _ in range(20):
            d = int(rng.integers(2, 7))
            q = float(rng.uniform(0.1, 0.9))
            params = BernoulliParams(rng.uniform(0.1, 0.9, d))
            dist = enumerate_bernoulli(params)
            f = rng.integers(0, 5, dist.size).astype(float)
            w = preference_exact(dist.prob, f, TruncationScheme(q))
            assert np.all(w >= 0.0)
            assert np.all(w <= 1.0 / q + 1e-12)
            cutoff = exact_quantile(dist, f, q).value
            assert np.all(w[f > cutoff] == 0.0)


class TestConsistency:
    def test_scaled_weights_estimate_preference(self):
        # lambda * w_hat converges to the exact preference; 20 committed seeds
        model = Bernoulli(4)
        theta = np.array([0.3, 0.6, 0.5, 0.7])
        obj = make_objective("onemax", 4)
        dist = enumerate_bernoulli(BernoulliParams(theta))
        scheme = TruncationScheme(0.25)
        w_exact_table = preference_exact(dist.prob, obj.batch(dist.support), scheme)
        codes = 2.0 ** np.arange(3, -1, -1)
        lam = 100_000
        for seed in range(20):
            rng = np.random.default_rng([202408, seed])
            samples = model.sample(BernoulliParams(theta), rng, lam)
            w_hat = sample_weights(obj.batch(samples), scheme).w
            w_exact = w_exact_table[(samples @ codes).astype(int)]
            assert np.max(np.abs(lam * w_hat - w_exact)) <= 0.05
