import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igokit import (
    Bernoulli,
    BernoulliParams,
    CapacityError,
    DomainExitError,
    FiniteDist,
    InvalidInputError,
    TabulatedScheme,
    TruncationScheme,
    bernoulli_support,
    blockwise_igo_ml_step,
    enumerate_bernoulli,
    exact_J,
    exact_blockwise_coordinate_step,
    exact_infinite_population_step,
    exact_quantile,
    make_objective,
    preference_exact,
    progress_bound,
    selection,
)
from igokit import oracle
from igokit.oracle import _sup_quantile_index

UNIFORM = TabulatedScheme((1.0,))


def frozen(a):
    out = np.array(a, dtype=np.float64)
    out.setflags(write=False)
    return out


def sum_fitness(d):
    return bernoulli_support(d).sum(axis=1)


class TestEnumerate:
    def test_single_bit(self):
        dist = enumerate_bernoulli(BernoulliParams([0.3]))
        assert np.array_equal(dist.support, [[0.0], [1.0]])
        assert np.allclose(dist.prob, [0.7, 0.3], atol=1e-15)

    def test_uniform_two_bits(self):
        dist = enumerate_bernoulli(BernoulliParams([0.5, 0.5]))
        assert dist.size == 4
        assert np.allclose(dist.prob, 0.25, atol=1e-15)

    def test_lexicographic_products(self):
        dist = enumerate_bernoulli(BernoulliParams([0.25, 0.5]))
        assert np.array_equal(
            dist.support, [[0, 0], [0, 1], [1, 0], [1, 1]]
        )
        assert np.allclose(dist.prob, [0.375, 0.375, 0.125, 0.125], atol=1e-15)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            bernoulli_support(17)

    def test_finitedist_validation(self):
        with pytest.raises(InvalidInputError):
            FiniteDist(np.zeros((2, 1)), [0.6, 0.3])
        with pytest.raises(InvalidInputError):
            FiniteDist(np.zeros((2, 1)), [1.2, -0.2])


def row_product_probs(eta):
    """Reference: each support point's probability as a row-wise product."""
    support = bernoulli_support(eta.size)
    return np.prod(np.where(support == 1.0, eta, 1.0 - eta), axis=1)


class TestSupportProbabilities:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(1e-12, 1.0 - 1e-12), min_size=1, max_size=12))
    def test_kronecker_build_matches_row_products_bit_for_bit(self, eta):
        eta = np.array(eta)
        got = BernoulliParams(eta).support_probs
        assert got.tobytes() == row_product_probs(eta).tobytes()

    @settings(max_examples=4, deadline=None)
    @given(st.lists(st.floats(1e-12, 1.0 - 1e-12), min_size=13, max_size=16))
    def test_kronecker_build_matches_row_products_at_large_d(self, eta):
        eta = np.array(eta)
        got = BernoulliParams(eta).support_probs
        assert got.tobytes() == row_product_probs(eta).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(1e-12, 1.0 - 1e-12), min_size=1, max_size=16))
    def test_probabilities_are_a_distribution(self, eta):
        prob = BernoulliParams(eta).support_probs
        assert ((prob >= 0.0) & (prob < np.inf)).all()
        assert abs(float(prob.sum()) - 1.0) <= 1e-12

    def test_d16_build_holds_two_support_sized_buffers(self):
        params = BernoulliParams(np.random.default_rng(5).uniform(0.01, 0.99, 16))
        tracemalloc.start()
        try:
            params.support_probs
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * 2**16 * 8

    def test_kronecker_build_matches_row_products_at_d16(self):
        eta = np.random.default_rng(16).uniform(0.01, 0.99, 16)
        got = BernoulliParams(eta).support_probs
        assert got.tobytes() == row_product_probs(eta).tobytes()

    def test_vector_is_read_only_and_owned(self):
        prob = BernoulliParams([0.2, 0.7]).support_probs
        assert not prob.flags.writeable and prob.flags.owndata
        with pytest.raises(ValueError):
            prob[0] = 0.5

    def test_second_read_returns_the_same_object(self, support_prob_builds):
        params = BernoulliParams([0.2, 0.7, 0.4])
        assert params.support_probs is params.support_probs
        assert support_prob_builds == [params]

    def test_enumeration_keeps_the_state_vector(self):
        params = BernoulliParams([0.2, 0.7, 0.4])
        assert enumerate_bernoulli(params).prob is params.support_probs

    def test_exact_j_at_its_base_builds_one_vector(self, support_prob_builds):
        params = BernoulliParams([0.2, 0.7, 0.4])
        assert exact_J(params, params, sum_fitness(3), TruncationScheme(0.5)) == pytest.approx(1.0)
        assert support_prob_builds == [params]


class TestCapacityBeforeEnumeration:
    """At ``d = MAX_ENUM_DIM + 1`` every exact computation refuses with
    ``CapacityError`` before it allocates anything of size ``2^d``."""

    D = 17
    PARAMS = BernoulliParams(np.full(D, 0.5))
    FITNESS = np.zeros(4)  # never read: the refusal comes first
    SCHEME = TruncationScheme(0.5)

    @pytest.mark.parametrize("compute", [
        lambda p, f, s: p.support_probs,
        lambda p, f, s: exact_J(p, p, f, s),
        lambda p, f, s: progress_bound(p, p, f, s, 0.5),
        lambda p, f, s: exact_infinite_population_step(p, f, s, 0.5),
        lambda p, f, s: exact_blockwise_coordinate_step(p, f, s, np.full(p.dim, 0.5)),
    ], ids=["support_probs", "exact_J", "progress_bound", "exact_step", "blockwise_step"])
    def test_refused_without_a_2_to_the_d_allocation(self, compute):
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                compute(self.PARAMS, self.FITNESS, self.SCHEME)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**self.D


class TestEnumerationTrustsParams:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 16).flatmap(
            lambda d: st.lists(st.floats(1e-9, 1.0 - 1e-9), min_size=d, max_size=d)
        )
    )
    def test_no_revalidation_and_the_same_bits(self, probs):
        # the params were validated when built; enumeration must not prove
        # it again, and must give the row-product probabilities bit for bit
        params = BernoulliParams(probs)
        calls = []
        from_eta = Bernoulli.from_eta

        def counting(self, eta):
            calls.append(eta)
            return from_eta(self, eta)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Bernoulli, "from_eta", counting)
            dist = enumerate_bernoulli(params)
        assert calls == []
        assert dist.prob.tobytes() == row_product_probs(params.probs).tobytes()
        assert dist.support is bernoulli_support(params.dim)


@pytest.fixture
def distribution_checks(monkeypatch):
    """Every array ``selection._check_distribution`` checks while the test
    runs, from the level pass and from ``FiniteDist``, in order."""
    checked = []
    check = selection._check_distribution

    def counting(a, *args):
        checked.append(a)
        return check(a, *args)

    for module in (selection, oracle):
        monkeypatch.setattr(module, "_check_distribution", counting)
    return checked


class TestDistributionCheckedOnce:
    """A state's probabilities are checked once, on its first level pass,
    however often it is enumerated and weighed; a caller's arrays are checked
    on every call."""

    def test_state_probabilities_are_checked_once(self, distribution_checks):
        states = [BernoulliParams([0.2, 0.7, 0.4]), BernoulliParams([0.6, 0.1, 0.5])]
        table = make_objective("random-reward", 3, seed=2).support_values
        for params in states:
            for _ in range(2):
                dist = enumerate_bernoulli(params)
                exact_quantile(dist, table, 0.3)
                preference_exact(dist.prob, table, TruncationScheme(0.3))
        assert len(distribution_checks) == 2
        assert all(a is params.support_probs
                   for a, params in zip(distribution_checks, states))

    def test_writable_probabilities_are_checked_on_every_call(self, distribution_checks):
        prob, f = np.array([0.25, 0.75]), np.array([1.0, 0.0])
        for _ in range(3):
            preference_exact(prob, f, UNIFORM)
        assert len(distribution_checks) == 3

    def test_a_callers_distribution_is_checked_on_every_call(self, distribution_checks):
        prob = frozen([0.25, 0.75])
        for _ in range(3):
            assert FiniteDist(bernoulli_support(1), prob).prob is not prob
        assert len(distribution_checks) == 3

    def test_frozen_invalid_probabilities_are_refused_on_every_call(self, distribution_checks):
        prob = frozen([0.5, 0.75])
        for _ in range(3):
            with pytest.raises(InvalidInputError, match="sum to 1"):
                FiniteDist(bernoulli_support(1), prob)
            with pytest.raises(InvalidInputError, match="sum to 1"):
                preference_exact(prob, frozen([1.0, 0.0]), UNIFORM)
        assert len(distribution_checks) == 6


class TestFiniteDistStorage:
    def test_cached_support_is_shared_not_copied(self):
        dist = enumerate_bernoulli(BernoulliParams([0.3, 0.6, 0.1]))
        assert dist.support is bernoulli_support(3)

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(1, 4),
        st.booleans(),
        st.floats(-10.0, 10.0),
    )
    def test_mutating_an_input_leaves_the_distribution_unchanged(self, d, via_view, junk):
        support = np.array(bernoulli_support(d))
        prob = np.full(2**d, 1.0 / 2**d)
        expected_support, expected_prob = support.copy(), prob.copy()
        if via_view:
            # read-only views whose writable bases stay with the caller
            support_in, prob_in = support[:], prob.view()
            support_in.setflags(write=False)
            prob_in.setflags(write=False)
        else:
            support_in, prob_in = support, prob
        dist = FiniteDist(support_in, prob_in)
        support[...] = junk
        prob[...] = junk
        assert np.array_equal(dist.support, expected_support)
        assert np.array_equal(dist.prob, expected_prob)
        assert not dist.support.flags.writeable
        assert not dist.prob.flags.writeable


def brute_force_quantile(prob, fitness, q):
    """Directly scan every attained value against the sup definition."""
    values = sorted(set(fitness))
    best = None
    for m in values:
        lower = sum(p for p, f in zip(prob, fitness) if f <= m)
        upper = sum(p for p, f in zip(prob, fitness) if f >= m)
        if lower >= q and upper >= 1.0 - q:
            best = m
    return best


class TestExactQuantile:
    def test_median_two_bits(self):
        dist = enumerate_bernoulli(BernoulliParams([0.5, 0.5]))
        rep = exact_quantile(dist, sum_fitness(2), 0.5)
        assert rep.value == 1.0
        assert rep.lower_mass == pytest.approx(0.75, abs=1e-15)
        assert rep.upper_mass == pytest.approx(0.75, abs=1e-15)

    def test_sup_rule_quartile(self):
        # m=2 fails the upper-mass requirement, so the sup lands on 1
        dist = enumerate_bernoulli(BernoulliParams([0.5, 0.5]))
        assert exact_quantile(dist, sum_fitness(2), 0.25).value == 1.0

    def test_point_mass(self):
        dist = FiniteDist(bernoulli_support(2), [0.0, 0.0, 1.0, 0.0])
        f = np.array([3.0, 5.0, 4.0, 6.0])
        for q in (0.1, 0.5, 0.9):
            assert exact_quantile(dist, f, q).value == 4.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(321)
        for _ in range(40):
            d = int(rng.integers(1, 7))
            dist = enumerate_bernoulli(BernoulliParams(rng.uniform(0.05, 0.95, d)))
            f = rng.integers(0, 5, dist.size).astype(float)
            q = float(rng.uniform(0.05, 0.95))
            got = exact_quantile(dist, f, q)
            assert got.value == brute_force_quantile(dist.prob, f, q)

    def test_q_validation(self):
        dist = enumerate_bernoulli(BernoulliParams([0.5]))
        with pytest.raises(InvalidInputError):
            exact_quantile(dist, [0.0, 1.0], 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_fitness_is_refused(self, bad):
        # the quantile and the preference share one check of the table
        dist = enumerate_bernoulli(BernoulliParams([0.5]))
        for fitness in ([0.0, bad], frozen([0.0, bad])):
            with pytest.raises(InvalidInputError, match="fitness values must be finite"):
                exact_quantile(dist, fitness, 0.5)
            with pytest.raises(InvalidInputError, match="fitness values must be finite"):
                preference_exact(dist.prob, fitness, TruncationScheme(0.5))


def descending_quantile_scan(lower, upper, q):
    """Reference: the scalar scan from the top level down."""
    for k in range(lower.size - 1, -1, -1):
        if lower[k] >= q and upper[k] >= 1.0 - q:
            return k
    return min(int(np.searchsorted(lower, q, side="left")), lower.size - 1)


# Masses in multiples of 1/64 (exact in binary), so a level's cumulative mass
# can equal q exactly; zero counts give levels without mass.
_counts = st.lists(st.integers(0, 8), min_size=1, max_size=8).filter(lambda c: sum(c) > 0)
_q = st.one_of(st.integers(1, 63).map(lambda k: k / 64.0), st.floats(0.001, 0.999))


class TestQuantileIndex:
    @settings(max_examples=400, deadline=None)
    @given(_counts, _q)
    def test_matches_descending_scan(self, counts, q):
        mass = np.array(counts, dtype=np.float64) / 64.0
        mass[-1] += 1.0 - mass.sum()
        lower = np.cumsum(mass)
        upper = np.cumsum(mass[::-1])[::-1]
        assert _sup_quantile_index(lower, upper, q) == descending_quantile_scan(lower, upper, q)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
        st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8),
        _q,
    )
    def test_matches_descending_scan_without_a_qualifier(self, lower, upper, q):
        # arbitrary masses, where the searchsorted fallback can be taken
        lower = np.sort(np.array(lower))
        upper = np.array(upper[: lower.size])
        assert _sup_quantile_index(lower, upper, q) == descending_quantile_scan(lower, upper, q)


class TestExactStep:
    def test_full_step(self):
        out = exact_infinite_population_step(
            BernoulliParams([0.5, 0.5]), sum_fitness(2), TruncationScheme(0.5), 1.0
        )
        assert isinstance(out, BernoulliParams)
        assert np.allclose(out.probs, [0.25, 0.25], atol=1e-15)

    def test_half_step(self):
        eta = exact_infinite_population_step(
            BernoulliParams([0.5, 0.5]), sum_fitness(2), TruncationScheme(0.5), 0.5
        ).probs
        assert np.allclose(eta, [0.375, 0.375], atol=1e-15)

    def test_uniform_scheme_is_stationary(self):
        start = np.array([0.3, 0.6])
        for dt in (0.1, 1.0):
            eta = exact_infinite_population_step(
                BernoulliParams(start), sum_fitness(2), UNIFORM, dt
            ).probs
            assert np.max(np.abs(eta - start)) <= 1e-15

    def test_only_the_rule_checks_the_new_state(self, from_eta_calls):
        # the given params are trusted; the one conversion is igo_step's
        # check of the state it returns
        params = BernoulliParams([0.3, 0.6, 0.5])
        f = make_objective("random-table", 3, seed=4).batch(bernoulli_support(3))
        params_next = exact_infinite_population_step(params, f, TruncationScheme(0.25), 0.5)
        assert len(from_eta_calls) == 1
        assert from_eta_calls[0].tobytes() == params_next.probs.tobytes()

    def test_blockwise_equal_rates_match_joint_step(self):
        # coordinate blocks do not interact: equal per-block rates reproduce
        # the joint update up to rounding
        rng = np.random.default_rng(10)
        for _ in range(10):
            d = int(rng.integers(2, 7))
            eta = rng.uniform(0.2, 0.8, d)
            f = make_objective("random-table", d, seed=5).batch(bernoulli_support(d))
            scheme = TruncationScheme(0.25)
            dt = float(rng.uniform(0.1, 1.0))
            params = BernoulliParams(eta)
            joint = exact_infinite_population_step(params, f, scheme, dt)
            blocked = exact_blockwise_coordinate_step(params, f, scheme, np.full(d, dt))
            assert np.max(np.abs(joint.probs - blocked.probs)) <= 1e-14

    def test_blockwise_zero_rates(self):
        eta = np.array([0.4, 0.6])
        out = exact_blockwise_coordinate_step(
            BernoulliParams(eta), sum_fitness(2), TruncationScheme(0.5), [0.0, 0.0]
        )
        assert np.array_equal(out.probs, eta)

    def test_blockwise_step_checks_the_new_state_once(self, from_eta_calls):
        # one blend of all coordinates, validated once (not once per block)
        params = BernoulliParams([0.3, 0.6, 0.5, 0.2])
        f = make_objective("random-table", 4, seed=4).batch(bernoulli_support(4))
        dts = [0.1, 0.3, 0.5, 0.7]
        params_next = exact_blockwise_coordinate_step(params, f, TruncationScheme(0.25), dts)
        assert len(from_eta_calls) == 1
        assert from_eta_calls[0].tobytes() == params_next.probs.tobytes()

    def test_blockwise_rates_are_indexed_by_coordinate(self):
        # one convention for both functions: dt_per_block[j] is the rate of
        # coordinate j; unequal rates would show any reordering
        d = 3
        eta = np.array([0.3, 0.5, 0.7])
        f = make_objective("random-table", d, seed=2).batch(bernoulli_support(d))
        scheme = TruncationScheme(0.3)
        dts = np.array([0.2, 0.6, 0.9])
        params = BernoulliParams(eta)
        got = exact_blockwise_coordinate_step(params, f, scheme, dts).probs
        dist = enumerate_bernoulli(params)
        weights = dist.prob * preference_exact(dist.prob, f, scheme)
        assert np.max(np.abs(got - ((1.0 - dts) * eta + dts * (weights @ dist.support)))) <= 1e-15
        shipped = blockwise_igo_ml_step(Bernoulli(d), params, dist.support, weights, dts)
        assert np.array_equal(got, shipped.probs)

    def test_blockwise_validation(self):
        eta = BernoulliParams([0.4, 0.6])
        f = sum_fitness(2)
        scheme = TruncationScheme(0.5)
        with pytest.raises(InvalidInputError, match="one step size per block: 2 expected"):
            exact_blockwise_coordinate_step(eta, f, scheme, [0.5, 0.5, 0.5])
        with pytest.raises(InvalidInputError, match="dt"):
            exact_blockwise_coordinate_step(eta, f, scheme, [0.5, -0.1])

    def test_negative_dt_rejected(self):
        with pytest.raises(InvalidInputError, match="dt"):
            exact_infinite_population_step(
                BernoulliParams([0.5, 0.5]), sum_fitness(2), UNIFORM, -0.5
            )


class TestExactFunctionals:
    def test_j_at_base_is_one(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            d = int(rng.integers(1, 8))
            params = BernoulliParams(rng.uniform(0.1, 0.9, d))
            f = rng.integers(0, 4, 2**d).astype(float)
            q = float(rng.uniform(0.1, 0.9))
            assert exact_J(params, params, f, TruncationScheme(q)) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_j_worked_instance(self):
        j = exact_J(BernoulliParams([0.375, 0.375]), BernoulliParams([0.5, 0.5]),
                    sum_fitness(2), TruncationScheme(0.5))
        assert j == pytest.approx(2 * 0.390625 + 0.46875, abs=1e-15)
        assert j == pytest.approx(1.25, abs=1e-15)

    def test_j_concentrated_near_best(self):
        eps = 1e-6
        j = exact_J(
            BernoulliParams([eps, eps]), BernoulliParams([0.5, 0.5]), sum_fitness(2),
            TruncationScheme(0.5),
        )
        assert j == pytest.approx(2.0, abs=1e-5)


class TestImprovementMiniRun:
    def test_thirty_exact_steps_never_worsen(self):
        rng = np.random.default_rng(2025)
        eta = rng.uniform(0.2, 0.8, 6)
        obj = make_objective("binval", 6)
        f = obj.batch(bernoulli_support(6))
        scheme = TruncationScheme(0.25)
        params = BernoulliParams(eta)
        q_prev = exact_quantile(enumerate_bernoulli(params), f, 0.25).value
        for _ in range(30):
            params = exact_infinite_population_step(params, f, scheme, 0.5)
            dist = enumerate_bernoulli(params)
            q_now = exact_quantile(dist, f, 0.25).value
            assert q_now <= q_prev + 1e-12
            if abs(q_now - q_prev) <= 1e-12:
                # stalls on a discrete space must leave mass at the level
                assert dist.prob[f == q_prev].sum() > 0.0
            q_prev = q_now

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 6),
        st.sampled_from((0.1, 0.25, 0.5, 0.75)),
        st.sampled_from((0.1, 0.5, 1.0)),
        st.booleans(),
        st.data(),
    )
    def test_exact_step_never_raises_the_quantile(self, d, q, dt, ties, data):
        eta = np.array(data.draw(st.lists(st.floats(0.05, 0.95), min_size=d, max_size=d)))
        values = st.integers(0, 4).map(float) if ties else st.floats(-10.0, 10.0)
        f = np.array(data.draw(st.lists(values, min_size=2**d, max_size=2**d)))
        params = BernoulliParams(eta)
        before = exact_quantile(enumerate_bernoulli(params), f, q).value
        try:
            params_next = exact_infinite_population_step(params, f, TruncationScheme(q), dt)
        except DomainExitError:
            return  # the full step landed on a vertex: nothing to compare
        after = exact_quantile(enumerate_bernoulli(params_next), f, q).value
        assert after <= before + 1e-12
