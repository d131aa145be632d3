import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igokit import (
    Bernoulli,
    DegenerateDistributionError,
    DomainExitError,
    Gaussian,
    BernoulliParams,
    GaussianParams,
    InvalidInputError,
    SampleWeights,
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
from igokit import updates
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
    """Rows added one after another in index order to a total that starts
    at +0.0, as numpy's reductions start: ``acc = 0.0 + r_0``, then
    ``acc = acc + r_i``. The reference for the axis-0 sums of the rules.
    (Starting at ``r_0`` itself would differ only in the sign of a zero.)"""
    acc = np.zeros_like(rows[0])
    for row in rows:
        acc = acc + row
    return acc


# The d = 16 support as float64 (8 MiB): the fixed unit a support-sized
# temporary is measured in, whatever the support's own dtype.
FLOAT_SUPPORT_BYTES = 2**16 * 16 * 8


def rpp_support_case(objective="random-reward"):
    # the 2^16 x 16 support with reward-proportional weights P(x) r(x) / E[r]
    d = 16
    params = BernoulliParams(np.linspace(0.1, 0.9, d))
    dist = enumerate_bernoulli(params)
    rewards = make_objective(objective, d, seed=4).support_values
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


def gaussian_case(d=5):
    model = Gaussian(d)
    params = GaussianParams(np.zeros(d), np.eye(d))
    samples = model.sample(params, np.random.default_rng(2), 200)
    w = sample_weights(np.sum(samples * samples, axis=1), TruncationScheme(0.3)).w
    return model, w, samples, params


def block_tail_case():
    # 5000 x 7: centred in blocks of 4681 rows, then a ragged tail of 319
    d, n = 7, 5000
    model = bern(d)
    params = BernoulliParams(np.linspace(0.2, 0.8, d))
    samples = model.sample(params, np.random.default_rng(12), n)
    w = sample_weights(np.random.default_rng(13).normal(size=n), TruncationScheme(0.4)).w
    assert n > updates._BLOCK // d
    return model, w, samples, params


SUM_ORDER_CASES = [rpp_support_case, pbil_sample_case, gaussian_case, block_tail_case]
BERNOULLI_SUM_CASES = [rpp_support_case, pbil_sample_case, block_tail_case]


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

    @pytest.mark.parametrize("case", BERNOULLI_SUM_CASES)
    def test_bernoulli_blend_is_sequential(self, case, from_eta_calls):
        model, w, samples, params = case()
        dts = np.linspace(0.1, 0.9, model.dim)
        theta = model.to_eta(params)
        expected = (1.0 - dts) * theta + dts * sequential_sum(
            [w[i] * samples[i] for i in range(w.size)]
        )
        blockwise_igo_ml_step(model, params, samples, w, dts)
        assert [e.tobytes() for e in from_eta_calls] == [expected.tobytes()]

    @pytest.mark.parametrize("d", [1, 5])
    def test_gaussian_covariance_is_sequential(self, d):
        # the rank-mu scatter adds the products (w_i c_ij) c_ik row by row;
        # with one column as well, where a two-operand einsum would unroll.
        # A covariance far under the scatter's keeps its last bits in the blend.
        model, w, samples, params = gaussian_case(d)
        params = GaussianParams(params.mean, 1e-3 * params.cov)
        centered = samples - params.mean
        scatter = sequential_sum(
            [(w[i] * centered[i])[:, None] * centered[i] for i in range(w.size)]
        )
        scatter = (scatter + scatter.T) / 2.0
        expected = params.cov + 0.3 * (scatter - params.cov)
        out = blockwise_igo_ml_step(model, params, samples, w, (0.3, 0.7))
        assert out.cov.tobytes() == expected.tobytes()

    def test_gaussian_mean_is_sequential(self):
        model, w, samples, params = gaussian_case()
        centered = samples - params.mean
        expected = params.mean + 0.7 * sequential_sum([w[i] * centered[i] for i in range(w.size)])
        out = blockwise_igo_ml_step(model, params, samples, w, (0.3, 0.7))
        assert out.mean.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed, zeros", [(4, False), (7, True)])
    def test_single_column_is_pairwise(self, seed, zeros, from_eta_calls):
        # numpy sums one column pairwise from 9 terms on, and the rules keep
        # those bits over every row, zero weights included; these cases are
        # ones where the row order, or dropping the rows of zero weight,
        # gives others
        model, n = bern(1), 1000
        params = BernoulliParams([0.3])
        samples = model.sample(params, np.random.default_rng(3), n)
        rng = np.random.default_rng(seed)
        w = rng.dirichlet(np.ones(n))
        if zeros:
            w[rng.random(n) < 0.75] = 0.0
            w /= w.sum()
        w = SampleWeights(w).w
        eta = model.to_eta(params)
        pairwise = np.sum(w[:, None] * (samples - eta), axis=0)
        plain = np.sum(w[:, None] * samples, axis=0)
        assert pairwise.tobytes() != sequential_sum([w[i] * (samples[i] - eta) for i in range(n)]).tobytes()
        if zeros:
            kept = w != 0.0
            assert pairwise.tobytes() != np.sum(w[kept, None] * (samples[kept] - eta), axis=0).tobytes()
            assert plain.tobytes() != np.sum(w[kept, None] * samples[kept], axis=0).tobytes()
        igo_step(model, params, samples, w, 0.5)
        igo_ml_step(model, params, samples, w, 0.5)
        assert [e.tobytes() for e in from_eta_calls] == [
            (eta + 0.5 * pairwise).tobytes(),
            (0.5 * eta + 0.5 * plain).tobytes(),
        ]

    def test_single_coordinate_gaussian_mean_is_pairwise(self):
        # the blockwise mean of a d = 1 Gaussian is one column: it keeps
        # every row, and dropping the rows of zero weight would move its bits
        model, n = Gaussian(1), 1000
        params = GaussianParams([0.0], [[2.0]])
        samples = model.sample(params, np.random.default_rng(3), n)
        rng = np.random.default_rng(7)
        w = rng.dirichlet(np.ones(n))
        w[rng.random(n) < 0.75] = 0.0
        w = SampleWeights(w / w.sum()).w
        centered, kept = samples - params.mean, w != 0.0
        pairwise = np.sum(w[:, None] * centered, axis=0)
        assert pairwise.tobytes() != np.sum(w[kept, None] * centered[kept], axis=0).tobytes()
        # at mean 0 and rate 1 the new mean is the sum itself
        out = blockwise_igo_ml_step(model, params, samples, w, (0.3, 1.0))
        assert out.mean.tobytes() == pairwise.tobytes()

    @given(st.integers(1, 3000), st.integers(2, 64), st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_kernel_is_sequential(self, n, k, binary, seed):
        rng = np.random.default_rng(seed)
        rows = (rng.random((n, k)) < 0.5) * 1.0 if binary else rng.normal(size=(n, k))
        w = rng.random(n) * (rng.random(n) < 0.6)
        center = rng.random(k)
        assert (updates._weighted_sum(w, rows, center).tobytes()
                == sequential_sum([w[i] * (rows[i] - center) for i in range(n)]).tobytes())
        assert (updates._weighted_sum(w, rows).tobytes()
                == sequential_sum([w[i] * rows[i] for i in range(n)]).tobytes())

    @given(st.data(), st.integers(2, 40), st.integers(1, 3), st.booleans(), st.booleans(),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_blocks_chain_in_index_order(self, data, k, blocks, mostly_zero, binary, seed):
        # n spans one to three blocks of _BLOCK // k rows with a ragged tail
        # (most k do not divide _BLOCK); a zero share above one half makes
        # the kernel drop those rows first, one below keeps every row
        step = updates._BLOCK // k
        n = (blocks - 1) * step + data.draw(st.integers(1, step))
        zero_share = data.draw(st.floats(0.55, 1.0) if mostly_zero else st.floats(0.0, 0.45))
        rng = np.random.default_rng(seed)
        rows = (rng.random((n, k)) < 0.5) * 1.0 if binary else rng.normal(size=(n, k))
        w = rng.random(n) * (rng.random(n) >= zero_share)
        center = rng.random(k)
        # each product w_i * (r_i - c) is elementwise, so it is formed whole;
        # the reference adds the products row after row
        assert (updates._weighted_sum(w, rows, center).tobytes()
                == sequential_sum(w[:, None] * (rows - center)).tobytes())
        assert (updates._weighted_sum(w, rows).tobytes()
                == sequential_sum(w[:, None] * rows).tobytes())

    def test_block_size_moves_no_bit(self, monkeypatch):
        bits = {}
        for block in (7, 64, 2**15):
            monkeypatch.setattr(updates, "_BLOCK", block)
            for case in SUM_ORDER_CASES:
                model, w, samples, params = case()
                out = model_bits(igo_step(model, params, samples, w, 0.5))
                assert bits.setdefault(case.__name__, out) == out

    def test_layout_moves_no_bit(self):
        rng = np.random.default_rng(8)
        rows, w = rng.normal(size=(300, 6)), rng.random(300)
        for center in (None, rng.random(6)):
            assert (updates._weighted_sum(w, rows, center).tobytes()
                    == updates._weighted_sum(w, np.asfortranarray(rows), center).tobytes())

    # the onemax table is zero at one support point: one zero weight, too
    # few to be worth a copy of the other rows
    @pytest.mark.parametrize("objective", ["random-reward", "onemax"])
    @pytest.mark.parametrize("rule", [igo_step, igo_ml_step])
    def test_exact_step_writes_no_support_sized_temporary(self, rule, objective):
        model, w, support, params = rpp_support_case(objective)
        rule(model, params, support, w, 0.5)
        tracemalloc.start()
        try:
            rule(model, params, support, w, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < FLOAT_SUPPORT_BYTES / 4


def model_bits(params):
    if isinstance(params, GaussianParams):
        return params.mean.tobytes() + params.cov.tobytes()
    return params.probs.tobytes()


def outcome(step):
    """The bits of the state ``step()`` returns, or the domain exit it raises."""
    try:
        return model_bits(step())
    except DomainExitError as exc:
        return type(exc).__name__


class TestZeroWeightRows:
    """The rules drop the rows of zero weight before a sum over two or more
    columns (``_weighted_sum`` when they are at least half the rows) and
    before the Gaussian scatter. That moves no bit: zero times a finite
    entry is +-0, which leaves a running total unchanged."""

    @given(st.sampled_from(["bernoulli", "gaussian"]), st.integers(1, 6), st.integers(1, 80),
           st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_deleting_zero_weight_rows_moves_no_bit(self, family, d, n, zero_share, seed):
        rng = np.random.default_rng(seed)
        if family == "bernoulli":
            model, params = bern(d), BernoulliParams(rng.uniform(0.2, 0.8, d))
            blocks = np.linspace(0.1, 0.9, d)
        else:
            model = Gaussian(d)
            params = GaussianParams(rng.normal(size=d), np.eye(d) * rng.uniform(0.5, 2.0))
            blocks = (0.3, 0.7)
        samples = model.sample(params, rng, n)
        w = rng.random(n) * (rng.random(n) >= zero_share)
        w[rng.integers(n)] = 1.0
        w /= w.sum()
        kept = w != 0.0
        rules = [
            lambda s, v: blockwise_igo_ml_step(model, params, s, v, blocks),
            lambda s, v: igo_step(model, params, s, v, 0.5),
            lambda s, v: igo_ml_step(model, params, s, v, 0.5),
        ]
        # a sum over a single column keeps every row: it is pairwise
        for rule, columns in zip(rules, (d, model.eta_dim, model.eta_dim)):
            if columns >= 2:
                assert (outcome(lambda: rule(samples, w))
                        == outcome(lambda: rule(samples[kept], w[kept])))

    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    def test_zero_weight_rows_are_not_read(self, poison):
        # three rows in four weigh zero, as under truncation at q = 1/4:
        # enough for the kernel to drop them
        rng = np.random.default_rng(5)
        rows, w = rng.normal(size=(400, 3)), rng.random(400)
        w[rng.random(400) < 0.75] = 0.0
        poisoned = rows.copy()
        poisoned[w == 0.0, 1] = poison
        for center in (None, rng.random(3)):
            assert (updates._weighted_sum(w, poisoned, center).tobytes()
                    == updates._weighted_sum(w, rows, center).tobytes())

    def test_all_zero_weights_sum_to_positive_zero(self):
        # the products are +0 and -0; the sums start at, and stay, +0
        rows = np.random.default_rng(6).normal(size=(50, 4))
        for center in (None, np.ones(4)):
            total = updates._weighted_sum(np.zeros(50), rows, center)
            assert total.tobytes() == np.zeros(4).tobytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_gaussian_points_are_refused(self, value):
        # at zero weight too, where a dropped row would otherwise hide it
        model, params = Gaussian(2), GaussianParams(np.zeros(2), np.eye(2))
        samples = model.sample(params, np.random.default_rng(7), 10)
        samples[3, 1] = value
        w = np.full(10, 1.0 / 9.0)
        w[3] = 0.0
        rules = [
            lambda: igo_step(model, params, samples, w, 0.5),
            lambda: igo_ml_step(model, params, samples, w, 0.5),
            lambda: blockwise_igo_ml_step(model, params, samples, w, (0.3, 0.7)),
        ]
        for rule in rules:
            with pytest.raises(InvalidInputError, match="Gaussian points must be finite"):
                rule()


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
            (1.0, 1.0),
        )
        assert out.cov[0, 0] == pytest.approx(1.0, abs=1e-14)
        assert out.mean[0] == pytest.approx(1.0, abs=1e-14)

    def test_partial_cov_rate(self):
        out = blockwise_igo_ml_step(
            Gaussian(1), UNIT, np.array([[2.0]]), [1.0],
            (0.5, 1.0),
        )
        assert out.cov[0, 0] == pytest.approx(2.5, abs=1e-13)
        assert out.mean[0] == pytest.approx(2.0, abs=1e-14)

    def test_zero_rates_keep_state(self):
        start = GaussianParams([0.5, -0.5], [[2.0, 0.2], [0.2, 1.0]])
        out = blockwise_igo_ml_step(
            Gaussian(2), start,
            np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]]),
            [0.2, 0.3, 0.5],
            (0.0, 0.0),
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
                model, params, samples, w, (dt_cov, dt_mean),
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
            model, params, samples, w, (0.3, 0.7),
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
            model, params, samples, w, (0.5, 0.5)
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
            model, UNIT, samples, w, (0.5, 0.5)
        )
        joint = igo_ml_step(model, UNIT, samples, w, 0.5)
        assert abs(blocked.cov[0, 0] - joint.cov[0, 0]) > 1e-6
        assert blocked.cov[0, 0] == pytest.approx(1.0, abs=1e-14)
        assert joint.cov[0, 0] == pytest.approx(0.75, abs=1e-14)

    def test_bernoulli_coordinate_blocks(self):
        # winner is (1, 0): each coordinate blends toward it at its own rate
        model = bern(2)
        samples = np.array([[1.0, 0.0], [0.0, 1.0]])
        w = sample_weights([0.0, 1.0], TruncationScheme(0.5))
        out = blockwise_igo_ml_step(
            model, state([0.5, 0.5]), samples, w, (0.5, 0.9),
        ).probs
        assert out[0] == pytest.approx(0.75, abs=1e-15)
        assert out[1] == pytest.approx(0.05, abs=1e-15)

    def test_bernoulli_rates_follow_the_order(self):
        # rates are indexed by coordinate: dt_per_block[j] moves coordinate j
        samples = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
        out = blockwise_igo_ml_step(
            bern(3), state([0.5, 0.5, 0.5]), samples, [1.0, 0.0], (0.1, 0.2, 0.4),
        )
        assert np.allclose(out.probs, [0.55, 0.6, 0.7], rtol=0, atol=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_bernoulli_step_is_one_blend(self, data):
        # at most 7 samples: below 8 rows numpy's pairwise sum of a single
        # column is the sequential sum too
        d = data.draw(st.integers(1, 5))
        n = data.draw(st.integers(1, 7))
        theta = np.array(data.draw(st.lists(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), min_size=d, max_size=d
        )))
        samples = np.array(data.draw(st.lists(
            st.lists(st.sampled_from([0.0, 1.0]), min_size=d, max_size=d),
            min_size=n, max_size=n,
        )))
        fitness = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        q = data.draw(st.sampled_from([0.2, 0.5, 0.9]))
        w = sample_weights(fitness, TruncationScheme(q)).w
        dts = np.array(data.draw(st.lists(st.floats(0.0, 2.0), min_size=d, max_size=d)))
        blend = (1.0 - dts) * theta + dts * sequential_sum([w[i] * samples[i] for i in range(n)])
        step = lambda: blockwise_igo_ml_step(bern(d), state(theta), samples, w, dts)
        if np.all((blend > 0.0) & (blend < 1.0)):
            assert step().probs.tobytes() == blend.tobytes()
        else:
            with pytest.raises(DomainExitError):
                step()

    def test_bernoulli_block_boundary_exit(self):
        model = bern(2)
        samples = np.array([[1.0, 0.0], [0.0, 1.0]])
        w = sample_weights([0.0, 1.0], TruncationScheme(0.5))
        with pytest.raises(DomainExitError):
            blockwise_igo_ml_step(model, state([0.5, 0.5]), samples, w, (1.0, 1.0))

    @pytest.mark.parametrize("model, params, dts", [
        (bern(2), state([0.5, 0.5]), (0.5,)),
        (bern(2), state([0.5, 0.5]), 0.5),
        (Gaussian(1), UNIT, (0.5, 0.5, 0.5)),
    ], ids=["bernoulli", "bernoulli-scalar", "gaussian"])
    def test_block_count_mismatch(self, model, params, dts):
        # the message names the count of the family's blocks
        with pytest.raises(InvalidInputError, match="one step size per block: 2 expected"):
            blockwise_igo_ml_step(model, params, np.zeros((1, model.dim)), [1.0], dts)

    def test_state_dimension_mismatch(self):
        with pytest.raises(InvalidInputError, match="dimension"):
            blockwise_igo_ml_step(
                Gaussian(2), UNIT, np.zeros((3, 2)), [0.2, 0.3, 0.5], (0.5, 0.5),
            )


HALF = BernoulliParams([0.5])


class TestFitnessProportional:
    # The exact step is the rule on the whole support with rewards P(x) r(x).
    def test_full_step_boundary(self):
        model = bern(1)
        dist = enumerate_bernoulli(HALF)
        rewards = dist.prob * dist.support[:, 0]  # r(x) = x
        with pytest.raises(DomainExitError):
            fitness_proportional_step(model, HALF, dist.support, rewards, 1.0)
        eta = fitness_proportional_step(model, HALF, dist.support, rewards, 1.0 - 1e-6).probs
        assert eta[0] == pytest.approx(1.0 - 5e-7, abs=1e-12)

    def test_shifted_reward(self):
        model = bern(1)
        dist = enumerate_bernoulli(HALF)
        rewards = 1.0 + dist.support[:, 0]
        out = fitness_proportional_step(model, HALF, dist.support, dist.prob * rewards, 1.0)
        assert out.probs[0] == pytest.approx(2.0 / 3.0, abs=1e-14)
        before = float(dist.prob @ rewards)
        after = float(enumerate_bernoulli(out).prob @ rewards)
        assert before == pytest.approx(1.5, abs=1e-15)
        assert after == pytest.approx(5.0 / 3.0, abs=1e-14)

    def test_half_step(self):
        model = bern(1)
        dist = enumerate_bernoulli(HALF)
        rewards = dist.prob * dist.support[:, 0]
        eta = fitness_proportional_step(model, HALF, dist.support, rewards, 0.5).probs
        assert eta[0] == pytest.approx(0.75, abs=1e-15)

    def test_all_zero_rewards(self):
        model = bern(1)
        support = enumerate_bernoulli(HALF).support
        with pytest.raises(InvalidInputError, match="all zero"):
            fitness_proportional_step(model, HALF, support, [0.0, 0.0], 1.0)
        with pytest.raises(InvalidInputError, match="non-negative"):
            fitness_proportional_step(model, HALF, support, [0.5, -0.1], 1.0)
        with pytest.raises(InvalidInputError, match="all zero"):
            fitness_proportional_step(model, HALF, np.zeros((1, 1)), [0.0], 1.0)

    @pytest.mark.parametrize("points", [
        enumerate_bernoulli(HALF), None, object(), [[0.0], [1.0, 1.0]], np.zeros(2),
        np.zeros((2, 3)), np.zeros((1, 2, 1)),
    ], ids=["finite-dist", "none", "object", "ragged", "1-d", "wrong-d", "3-d"])
    def test_refuses_points_that_are_not_an_n_by_d_array(self, points):
        # a FiniteDist is not points: the exact step passes its support and
        # P(x) r(x); nothing reaches the caller as a raw numpy error
        with pytest.raises(InvalidInputError, match=r"points must have shape \(n, 1\)"):
            fitness_proportional_step(bern(1), HALF, points, [1.0, 1.0], 1.0)

    def test_one_reward_per_point(self):
        with pytest.raises(InvalidInputError, match="one reward per point"):
            fitness_proportional_step(bern(1), HALF, np.zeros((3, 1)), [1.0, 1.0], 1.0)

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
