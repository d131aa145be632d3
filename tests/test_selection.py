import gc
import math
import sys
import threading
import weakref
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igokit import selection
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
        # a frozen array that owns its data is kept, but still checked
        with pytest.raises(InvalidInputError):
            SampleWeights(frozen([0.6, 0.3]))

    def test_frozen_owned_weights_are_kept_and_others_copied(self):
        kept = frozen([0.25, 0.75])
        assert SampleWeights(kept).w is kept
        writable = np.array([0.25, 0.75])
        copied = SampleWeights(writable).w
        assert copied is not writable and not copied.flags.writeable
        assert writable.flags.writeable
        # a read-only view of a writable base could still change under it
        view = writable[:]
        view.setflags(write=False)
        assert SampleWeights(view).w is not view

    @pytest.mark.parametrize("fitness", [[3.0, 1.0, 2.0, 5.0, 1.0, 4.0, 0.5, 2.0], [1.0, 2.0]],
                             ids=["zero-weights", "all-positive"])
    def test_entropy_has_the_bits_of_the_masked_formula(self, fitness):
        # truncation at q = 0.5 gives some weights 0; the uniform scheme none
        for scheme in (TruncationScheme(0.5), UNIFORM):
            w = sample_weights(fitness, scheme).w
            pos = w[w > 0.0]
            assert sample_weights(fitness, scheme).entropy() == float(-np.sum(pos * np.log(pos)))


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


@pytest.fixture
def rankings(monkeypatch):
    """Every table ``np.unique`` ranks while the test runs, in order."""
    ranked = []
    unique = np.unique

    def counting(a, *args, **kwargs):
        ranked.append(a)
        return unique(a, *args, **kwargs)

    monkeypatch.setattr(np, "unique", counting)
    return ranked


def fresh_bits(prob, f, scheme, q):
    """The preference and quantile bits of writable copies, which no kept
    result can serve."""
    dist = FiniteDist(np.zeros((prob.size, 1)), prob)
    return (preference_exact(np.array(prob), np.array(f), scheme).tobytes(),
            quantile_bits(exact_quantile(dist, np.array(f), q)))


class TestLevels:
    """One ranking per fixed table: the level pass keeps the ranking of the
    last read-only table that owns its data for every state weighed against
    it while the table lives, and ranks every other table afresh."""

    def test_equals_unique(self, rankings):
        # the levels are ``np.unique``'s, for a frozen table and a writable one
        f, prob = np.array([3.0, 1.0, 3.0, -2.0, 1.0]), frozen([0.1, 0.3, 0.2, 0.25, 0.15])
        scheme = TruncationScheme(0.4)
        for table in (f, frozen(f)):
            assert np.allclose(preference_exact(prob, table, scheme),
                               brute_force_preference(prob, table, scheme), rtol=0, atol=1e-15)
        assert len(rankings) == 2 and all(np.array_equal(a, f) for a in rankings)

    def test_frozen_table_is_ranked_once(self, rankings):
        # across a sequence of states, each checked and weighed against it
        table = make_objective("random-table", 6, seed=3).support_values
        scheme = TruncationScheme(0.3)
        rng = np.random.default_rng(6)
        states = [BernoulliParams(rng.uniform(0.1, 0.9, 6)) for _ in range(5)]
        expected = [fresh_bits(s.support_probs, table, scheme, 0.3) for s in states]
        rankings.clear()
        for params, bits in zip(states, expected):
            dist = enumerate_bernoulli(params)
            q_bits = quantile_bits(exact_quantile(dist, table, 0.3))
            assert (preference_exact(dist.prob, table, scheme).tobytes(), q_bits) == bits
        assert len(rankings) == 1 and rankings[0] is table

    @staticmethod
    def assert_ranked_on_every_call(rankings, base, f):
        prob, scheme = frozen([0.25] * 4), TruncationScheme(0.5)
        assert preference_exact(prob, f, scheme).tolist() == [0.0, 2.0, 0.0, 2.0]
        base[1] = 5.0
        assert preference_exact(prob, f, scheme).tolist() == [0.0, 0.0, 2.0, 2.0]
        assert exact_quantile(FiniteDist(np.zeros((4, 1)), prob), f, 0.5).value == 2.0
        assert len(rankings) == 3 and all(a is f for a in rankings)

    def test_writable_table_is_never_reused(self, rankings):
        f = np.array([2.0, 0.0, 1.0, 0.0])
        self.assert_ranked_on_every_call(rankings, f, f)

    def test_read_only_view_is_never_reused(self, rankings):
        # a read-only view of a writable base can still change under it
        base = np.array([2.0, 0.0, 1.0, 0.0])
        view = base[:]
        view.setflags(write=False)
        self.assert_ranked_on_every_call(rankings, base, view)

    def test_alternating_frozen_tables(self):
        a = frozen([1.0, 1.0, 0.0, 4.0])
        b = frozen([7.0, 2.0, 2.0])
        states = {3: frozen([0.5, 0.25, 0.25]), 4: frozen([0.125, 0.25, 0.5, 0.125])}
        scheme = TruncationScheme(0.3)
        for f in (a, b, a, b, a):
            prob = states[f.size]
            assert (preference_exact(prob, f, scheme).tobytes()
                    == brute_force_preference(prob, f, scheme).tobytes())

    def test_threads_sharing_the_kept_entry_get_their_own_levels(self):
        # more threads than cores, all switching often between two states on
        # each of eight frozen tables: a torn read of a one-entry memo would
        # pair one table or state with another's ranking, pass or preference
        tables = [frozen(np.random.default_rng(i).integers(0, 5 + i, 40 + i)) for i in range(8)]
        scheme = TruncationScheme(0.3)
        states = []
        for j, table in enumerate(tables):
            state_rng = np.random.default_rng([j, 1])
            for _ in range(2):
                prob = state_rng.random(table.size)
                dist = FiniteDist(np.zeros((prob.size, 1)), prob / prob.sum())
                states.append((dist, table, fresh_bits(dist.prob, table, scheme, 0.3)))
        # and each its own frozen inputs to the checks, one valid and one
        # invalid of each: a skipped check of an invalid one would pass it
        check_inputs = []
        for k in range(6):
            points = frozen(np.random.default_rng([k, 2]).integers(0, 2, (5 + k, 3)))
            bad_points = np.array(points)
            bad_points[k % 5, 1] = 2.0
            bad_points.setflags(write=False)
            prob = states[2 * k][0].prob
            check_inputs.append((points, bad_points, prob, frozen(prob * 1.5)))
        errors = []

        def refused(call, *args):
            try:
                call(*args)
            except InvalidInputError:
                return True
            return False

        def work(k):
            try:
                for i in range(400):
                    dist, table, bits = states[(k + i) % len(states)]
                    got = (preference_exact(dist.prob, table, scheme).tobytes(),
                           quantile_bits(exact_quantile(dist, table, 0.3)))
                    if got != bits:
                        errors.append((k, i))
                    points, bad_points, prob, bad_prob = check_inputs[k]
                    support = np.zeros((prob.size, 1))
                    if (refused(Bernoulli(3).batch_sufficient_statistics, points)
                            or not refused(Bernoulli(3).batch_sufficient_statistics, bad_points)
                            or refused(FiniteDist, support, prob)
                            or not refused(FiniteDist, support, bad_prob)):
                        errors.append((k, "check", i))
            except Exception as exc:  # a crashed worker fails the test
                errors.append((k, repr(exc)))

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

    @given(dyadic_tables(), schemes, st.floats(0.01, 0.99), st.data())
    @settings(max_examples=200, deadline=None)
    def test_frozen_and_writable_tables_give_the_same_bits(self, table, scheme, q, data):
        prob, f = table
        g = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=f.size, max_size=f.size)),
                     dtype=float)
        # two frozen tables of one length, and a writable one that starts with
        # the first one's values and then takes the second one's: a kept
        # ranking must never serve another table
        f_frozen, g_frozen, writable = frozen(f), frozen(g), f.copy()
        # a second state on the same tables; A, B, A shows a kept entry is
        # never read for another state
        state_a, state_b = frozen(prob), frozen(prob[::-1])
        for values in (f, g):
            writable[...] = values
            for p in (prob, state_a, state_b, state_a):
                dist = FiniteDist(np.zeros((p.size, 1)), p)
                for t in (f_frozen, g_frozen, writable, f_frozen, writable, g_frozen):
                    bits = fresh_bits(p, t, scheme, q)
                    # a reference that shares no code with the kept entries
                    assert np.allclose(np.frombuffer(bits[0]), brute_force_preference(p, t, scheme),
                                       rtol=0, atol=1e-12)
                    for _ in range(2):  # the second call reads what the first kept
                        assert (preference_exact(p, t, scheme).tobytes(),
                                quantile_bits(exact_quantile(dist, t, q))) == bits
                        assert preference_exact(dist.prob, t, scheme).tobytes() == bits[0]

    def test_kept_entry_dies_with_its_table(self, rankings):
        # while the table lives it gets every hit; once it is dropped, the
        # entry's probabilities, pass and preference go with it
        table = frozen(np.random.default_rng(4).random(32))
        scheme = TruncationScheme(0.3)
        states = [frozen(np.full(32, 1 / 32)), frozen(np.arange(1, 33) / 528)]
        expected = [fresh_bits(prob, table, scheme, 0.3) for prob in states]
        rankings.clear()
        for prob, bits in zip(states, expected):
            kept = preference_exact(prob, table, scheme)
            assert preference_exact(prob, table, scheme) is kept
            dist = FiniteDist(np.zeros((32, 1)), prob)
            assert (kept.tobytes(), quantile_bits(exact_quantile(dist, table, 0.3))) == bits
        assert len(rankings) == 1 and rankings[0] is table
        rankings.clear()
        del table, kept
        gc.collect()
        assert all(field is None for field in selection._last_pass)

    def test_an_old_tables_callback_leaves_a_new_entry(self, rankings):
        scheme = TruncationScheme(0.5)
        prob = frozen([0.25] * 4)
        old, new = frozen([1.0, 0.0, 2.0, 0.0]), frozen([3.0, 1.0, 1.0, 2.0])
        preference_exact(prob, old, scheme)
        kept = preference_exact(prob, new, scheme)
        rankings[0] = None
        old_ref = weakref.ref(old)
        del old
        gc.collect()
        assert old_ref() is None  # its callback has run
        assert selection._last_pass[1]() is new
        assert preference_exact(prob, new, scheme) is kept
        assert len(rankings) == 2 and rankings[1] is new

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
