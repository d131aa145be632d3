import math
import sys
import threading
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igokit import (
    Bernoulli,
    BernoulliParams,
    FiniteDist,
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
from igokit.selection import _levels

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
        assert np.allclose(bar_weights(s, 4), [0.3, 0.3, 0.2, 0.2], atol=1e-15)
        assert np.array_equal(bar_weights(s, 2), [0.6, 0.4])


def bar_weights(scheme, lam):
    """Per-rank weights, the integral of w over each rank cell: the sample
    weights of ``lam`` distinct fitness values in ascending order."""
    return sample_weights(np.arange(float(lam)), scheme).w


class TestBarWeights:
    def test_lambda4_q_half(self):
        assert np.array_equal(
            bar_weights(TruncationScheme(0.5), 4), [0.5, 0.5, 0.0, 0.0]
        )

    def test_lambda3_q_half(self):
        # interval (1/3, 1/2] contributes (1/2 - 1/3) / (1/2) = 1/3
        expected = [Fraction(2, 3), Fraction(1, 3), Fraction(0)]
        got = bar_weights(TruncationScheme(0.5), 3)
        assert np.allclose(got, [float(e) for e in expected], atol=1e-15)

    def test_uniform_scheme(self):
        assert np.array_equal(bar_weights(UNIFORM, 2), [0.5, 0.5])

    @given(lam=st.integers(1, 40), q=st.floats(0.01, 0.99))
    @settings(max_examples=200, deadline=None)
    def test_sums_to_one(self, lam, q):
        bw = bar_weights(TruncationScheme(q), lam)
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

    @given(st.integers(2, 2 * 10**6), st.sampled_from([None, 2, 20, 1000]), schemes,
           st.integers(0, 2**32 - 1))
    @settings(max_examples=12, deadline=None)
    def test_any_population_size_sums_to_one(self, lam, levels, scheme, seed):
        # each level's weight is one integral over its rank interval, so the
        # sum does not drift with lam; the exact preference over the sample's
        # empirical distribution adds masses of 1/lam, whose rounding grows
        # like lam * eps
        rng = np.random.default_rng(seed)
        f = rng.normal(size=lam) if levels is None else rng.integers(0, levels, lam) * 1.0
        w = sample_weights(f, scheme).w
        eps = np.finfo(float).eps
        assert abs(math.fsum(w) - 1.0) <= 4 * eps
        assert abs(float(w.sum()) - 1.0) <= 4 * eps
        exact = preference_exact(np.full(lam, 1.0 / lam), f, scheme) / lam
        assert float(np.abs(w - exact).sum()) <= 4 * lam * eps

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


def frozen(a):
    out = np.array(a, dtype=np.float64)
    out.setflags(write=False)
    return out


def quantile_bits(report):
    return [float(x).hex() for x in astuple(report)]


def assert_unique_levels(got, f):
    values, idx = np.unique(f, return_inverse=True)
    assert got[0].tobytes() == values.tobytes()
    assert got[1].tobytes() == idx.tobytes()


class TestLevels:
    """One ranking per fixed table: ``_levels`` keeps the last read-only table's
    levels and ranks every other table afresh."""

    def test_equals_unique(self):
        f = np.array([3.0, 1.0, 3.0, -2.0, 1.0])
        assert_unique_levels(_levels(f), f)
        assert_unique_levels(_levels(frozen(f)), f)

    def test_frozen_table_is_ranked_once(self):
        f = frozen(np.random.default_rng(1).integers(0, 9, 64))
        assert _levels(f) is _levels(f)

    def test_writable_table_is_never_reused(self):
        f = np.array([2.0, 0.0, 1.0, 0.0])
        first = _levels(f)
        assert_unique_levels(first, [2.0, 0.0, 1.0, 0.0])
        f[1] = 5.0
        second = _levels(f)
        assert second is not first
        assert_unique_levels(second, [2.0, 5.0, 1.0, 0.0])

    def test_read_only_view_is_never_reused(self):
        # a read-only view of a writable base can still change under it
        base = np.array([2.0, 0.0, 1.0])
        view = base[:]
        view.setflags(write=False)
        first = _levels(view)
        base[0] = -1.0
        assert _levels(view) is not first
        assert_unique_levels(_levels(view), [-1.0, 0.0, 1.0])

    def test_alternating_frozen_tables(self):
        a = frozen([1.0, 1.0, 0.0, 4.0])
        b = frozen([7.0, 2.0, 2.0])
        for f in (a, b, a, b, a):
            assert_unique_levels(_levels(f), f)

    def test_threads_sharing_the_kept_entry_get_their_own_levels(self):
        # more threads than cores, each with its own frozen tables, switching
        # often: a torn read of a one-entry cache would pair one thread's
        # table with another's levels
        tables = [frozen(np.random.default_rng(i).integers(0, 5 + i, 40 + i)) for i in range(8)]
        expected = [np.unique(t, return_inverse=True) for t in tables]
        # each thread also drives its own frozen (prob, table) pairs, so the
        # kept level pass and the kept preference switch as often
        scheme = TruncationScheme(0.3)
        pairs = []
        for k in range(6):
            pair_rng = np.random.default_rng([k, 1])
            for j in range(2):
                table = tables[(k + j) % len(tables)]
                prob = pair_rng.random(table.size)
                prob = frozen(prob / prob.sum())
                dist = FiniteDist(np.zeros((prob.size, 1)), prob)
                pairs.append((k, dist, table, preference_exact(prob.copy(), table.copy(), scheme),
                              quantile_bits(exact_quantile(dist, table.copy(), 0.3))))
        # and its own frozen inputs to the check-once memos, one valid and
        # one invalid of each: a skipped check of an invalid one would pass it
        memo_inputs = []
        for k in range(6):
            points = frozen(np.random.default_rng([k, 2]).integers(0, 2, (5 + k, 3)))
            bad_points = np.array(points)
            bad_points[k % 5, 1] = 2.0
            bad_points.setflags(write=False)
            prob = pairs[2 * k][1].prob
            memo_inputs.append((points, bad_points, prob, frozen(prob * 1.5)))
        errors = []

        def refused(call, *args):
            try:
                call(*args)
            except InvalidInputError:
                return True
            return False

        def work(k):
            own = [pair for pair in pairs if pair[0] == k]
            for i in range(400):
                j = (k + i) % len(tables)
                values, idx = _levels(tables[j])
                if not (np.array_equal(values, expected[j][0])
                        and np.array_equal(idx, expected[j][1])):
                    errors.append((k, j))
                _, dist, table, pref, q_bits = own[i % len(own)]
                if not (preference_exact(dist.prob, table, scheme).tobytes() == pref.tobytes()
                        and quantile_bits(exact_quantile(dist, table, 0.3)) == q_bits):
                    errors.append((k, "pair", i % len(own)))
                points, bad_points, prob, bad_prob = memo_inputs[k]
                support = np.zeros((prob.size, 1))
                if (refused(Bernoulli(3).batch_sufficient_statistics, points)
                        or not refused(Bernoulli(3).batch_sufficient_statistics, bad_points)
                        or refused(FiniteDist, support, prob)
                        or not refused(FiniteDist, support, bad_prob)):
                    errors.append((k, "memo", i))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []

    def test_kept_levels_are_read_only(self):
        values, idx = _levels(frozen([0.0, 2.0, 0.0]))
        assert not values.flags.writeable and not idx.flags.writeable

    @given(dyadic_tables(), schemes, st.floats(0.01, 0.99))
    @settings(max_examples=200, deadline=None)
    def test_frozen_and_writable_tables_give_the_same_bits(self, table, scheme, q):
        prob, f = table
        f_frozen = frozen(f)
        # a second state on the same table; A, B, A shows a kept entry is
        # never read for another state
        state_a, state_b = frozen(prob), frozen(prob[::-1])
        for p in (prob, state_a, state_b, state_a):
            dist = FiniteDist(np.zeros((p.size, 1)), p)
            for _ in range(2):  # the second call reads what the first kept
                assert (preference_exact(p, f_frozen, scheme).tobytes()
                        == preference_exact(p.copy(), f.copy(), scheme).tobytes())
                assert (quantile_bits(exact_quantile(dist, f_frozen, q))
                        == quantile_bits(exact_quantile(dist, f.copy(), q)))
                assert (preference_exact(dist.prob, f_frozen, scheme).tobytes()
                        == preference_exact(p.copy(), f.copy(), scheme).tobytes())

    def test_kept_preference_is_read_only(self):
        prob, f = frozen([0.25, 0.5, 0.25]), frozen([1.0, 0.0, 1.0])
        scheme = TruncationScheme(0.5)
        kept = preference_exact(prob, f, scheme)
        assert preference_exact(prob, f, scheme) is kept
        assert not kept.flags.writeable
        with pytest.raises(ValueError):
            kept[0] = 0.0
        assert preference_exact(prob, f, TruncationScheme(0.5)) is not kept
        assert preference_exact(prob, f.copy(), scheme).flags.writeable


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
