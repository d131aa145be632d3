import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import igokit
from igokit import (
    AlgorithmConfig,
    Bernoulli,
    BernoulliParams,
    DegenerateDistributionError,
    DomainExitError,
    Gaussian,
    GaussianParams,
    InvalidInputError,
    run,
    updates,
)
from igokit.verify import _natural_gradient_error


def random_spd(rng, d, cond_max=1e6):
    """Random symmetric positive definite matrix with bounded condition number."""
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    log_cond = rng.uniform(0.0, np.log(cond_max))
    eigs = np.exp(np.linspace(0.0, log_cond, d)) if d > 1 else np.array([1.0])
    cov = (q * eigs) @ q.T
    return (cov + cov.T) / 2.0


def numerical_fisher(model, eta):
    """Reference Fisher information: the Hessian of
    ``delta -> KL(eta || eta + delta)`` at zero displacement, by central
    differences. It shares no formula with the closed form it checks."""
    base = model.from_eta(eta)
    n = eta.size
    h = 1e-4 * np.maximum(1.0, np.abs(eta))

    def kl_at(delta):
        return model.kl_divergence(base, model.from_eta(eta + delta))

    fim = np.empty((n, n))
    for i in range(n):
        di = np.zeros(n)
        di[i] = h[i]
        # KL and its gradient vanish at zero displacement, so the pure
        # second difference needs only the two one-sided evaluations.
        fim[i, i] = (kl_at(di) + kl_at(-di)) / (h[i] * h[i])
        for j in range(i + 1, n):
            dj = np.zeros(n)
            dj[j] = h[j]
            fim[i, j] = fim[j, i] = (
                kl_at(di + dj) - kl_at(di - dj) - kl_at(-di + dj) + kl_at(-di - dj)
            ) / (4.0 * h[i] * h[j])
    return fim


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
        assert np.array_equal(m.batch_sufficient_statistics([[1, 0]]), [[1.0, 0.0]])

    def test_gaussian_1d(self):
        m = Gaussian(1)
        assert np.array_equal(m.batch_sufficient_statistics([[2.0]]), [[2.0, 4.0]])

    def test_gaussian_2d_ones(self):
        m = Gaussian(2)
        t = m.batch_sufficient_statistics([[1.0, 1.0]])
        assert np.array_equal(t[0, :2], [1.0, 1.0])
        assert np.array_equal(t[0, 2:], [1.0, 1.0, 1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            Bernoulli(2).batch_sufficient_statistics([[1, 0, 1]])
        with pytest.raises(InvalidInputError):
            Bernoulli(2).batch_sufficient_statistics([[0.5, 0.5]])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_gaussian_points_must_be_finite(self, value):
        points = np.zeros((3, 2))
        points[1, 0] = value
        with pytest.raises(InvalidInputError, match="Gaussian points must be finite"):
            Gaussian(2).batch_sufficient_statistics(points)


def frozen(a):
    out = np.array(a, dtype=np.float64)
    out.setflags(write=False)
    return out


class TestPointsScan:
    """A bool points array is 0/1 by type and never scanned; any other is
    converted to float64 and scanned on every call. Whole runs scan nothing
    (``TestDrawsAreBool`` and ``test_algorithms``)."""

    def test_bool_points_are_taken_as_they_are(self, binary_scans):
        points = np.array([[False, True], [True, True]])
        for _ in range(3):
            assert Bernoulli(2).batch_sufficient_statistics(points) is points
        assert binary_scans == []

    @pytest.mark.parametrize("make", [frozen, np.array], ids=["frozen", "writable"])
    def test_float_points_are_scanned_on_every_call(self, make, binary_scans):
        points = make([[0.0, 1.0], [1.0, 1.0]])
        for _ in range(3):
            assert Bernoulli(2).batch_sufficient_statistics(points) is points
        assert len(binary_scans) == 3

    def test_integer_points_become_float(self, binary_scans):
        stats = Bernoulli(2).batch_sufficient_statistics([[0, 1], [1, 1]])
        assert stats.dtype == np.float64 and np.array_equal(stats, [[0, 1], [1, 1]])
        assert len(binary_scans) == 1

    @pytest.mark.parametrize("make", [frozen, np.array], ids=["frozen", "writable"])
    def test_invalid_points_are_refused_on_every_call(self, make, binary_scans):
        points = make([[0.0, 1.0], [2.0, 1.0]])
        for _ in range(3):
            with pytest.raises(InvalidInputError, match="0/1"):
                Bernoulli(2).batch_sufficient_statistics(points)
        assert len(binary_scans) == 3

    def test_gaussian_takes_bool_points_as_floats(self):
        points = np.array([[False, True], [True, True]])
        stats = Gaussian(2).batch_sufficient_statistics(points)
        assert stats.dtype == np.float64
        assert np.array_equal(stats, Gaussian(2).batch_sufficient_statistics(points * 1.0))


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


def _good_state(model):
    if isinstance(model, Gaussian):
        return GaussianParams(np.zeros(model.dim), np.eye(model.dim))
    return BernoulliParams(np.full(model.dim, 0.5))


def _blockwise(model, params):
    dts = (0.5, 0.5) if isinstance(model, Gaussian) else np.full(model.dim, 0.5)
    return updates.blockwise_igo_ml_step(model, params, np.zeros((1, model.dim)), [1.0], dts)


# Every method that reads a state, each handed a state of another dimension
# or of the other family. Before the one state check, Bernoulli(3) sampled a
# d = 1 state as if it had three coordinates and gave its log density, and a
# state of the other family raised AttributeError.
_STATE_READERS = {
    "to_eta": lambda m, s: m.to_eta(s),
    "sample": lambda m, s: m.sample(s, np.random.default_rng(0), 4),
    "log_density": lambda m, s: m.log_density(s, np.zeros(m.dim)),
    "kl_divergence(p)": lambda m, s: m.kl_divergence(s, _good_state(m)),
    "kl_divergence(q)": lambda m, s: m.kl_divergence(_good_state(m), s),
    "blockwise_igo_ml_step": _blockwise,
}
_BAD_STATES = [
    (Bernoulli(3), BernoulliParams([0.3])),
    (Bernoulli(3), BernoulliParams([0.3, 0.4])),
    (Bernoulli(3), GaussianParams(np.zeros(3), np.eye(3))),
    (Gaussian(2), GaussianParams([0.0], [[1.0]])),
    (Gaussian(2), GaussianParams(np.zeros(3), np.eye(3))),
    (Gaussian(2), BernoulliParams([0.3, 0.4])),
]


@pytest.mark.parametrize("model, bad", _BAD_STATES, ids=[
    "bernoulli3-d1", "bernoulli3-d2", "bernoulli3-gaussian3",
    "gaussian2-d1", "gaussian2-d3", "gaussian2-bernoulli2",
])
@pytest.mark.parametrize("method", list(_STATE_READERS))
def test_a_state_of_another_dimension_or_family_is_refused(model, bad, method):
    with pytest.raises(InvalidInputError, match="parameter dimension mismatch"):
        _STATE_READERS[method](model, bad)
    _STATE_READERS[method](model, _good_state(model))  # the call itself is valid


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

    @pytest.mark.parametrize("d, n, seed, bit_generator, buffered", [
        *(pytest.param(d, n, seed, "PCG64", False, id=f"{d}-{n}-{seed}")
          for d, n, seed in ((1, 5, 0), (7, 33, 1), (1000, 200, 2))),
        *(pytest.param(d, n, 11, bit_generator, buffered,
                       id=f"{n}x{d}-{bit_generator}{'-buffered' * buffered}")
          for n, d in ((1, 1), (7, 3), (1001, 333), (3, 100_000), (1000, 1000))
          for bit_generator in ("PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64")
          for buffered in (False, True)),
    ])
    def test_bernoulli_draw_is_the_thresholded_stream(self, d, n, seed, bit_generator, buffered):
        """The draw has the bits of ``rng.random((n, d)) < p`` and leaves the
        generator, a buffered 32-bit value too, where that leaves it."""
        p = BernoulliParams(np.random.default_rng(seed).uniform(0.01, 0.99, d))
        make = getattr(np.random, bit_generator)
        rng, reference = np.random.Generator(make(seed)), np.random.Generator(make(seed))
        if buffered:
            for g in (rng, reference):
                g.integers(2**32, dtype=np.uint32)
        draws = Bernoulli(d).sample(p, rng, n)
        assert draws.dtype == np.bool_ and draws.shape == (n, d)
        assert draws.tobytes() == (reference.random((n, d)) < p.probs).tobytes()
        assert rng.random() == reference.random()
        assert rng.integers(2**32, dtype=np.uint32) == reference.integers(2**32, dtype=np.uint32)

    def test_a_large_draw_starts_no_thread(self, monkeypatch):
        def refused(thread):
            raise RuntimeError("a draw started a thread")

        monkeypatch.setattr(threading.Thread, "start", refused)
        draws = Bernoulli(1000).sample(BernoulliParams(np.full(1000, 0.3)),
                                       np.random.default_rng(1), 1000)
        assert draws.shape == (1000, 1000)

    def test_bernoulli_draw_allocates_only_its_result(self):
        m, n, d = Bernoulli(1000), 1000, 1000
        p = BernoulliParams(np.full(d, 0.3))
        rng = np.random.default_rng(3)
        m.sample(p, rng, 1)
        tracemalloc.start()
        try:
            m.sample(p, rng, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the bool result and one scratch block of 2^15 uniforms
        assert peak <= 1.1 * n * d + 2**18


class TestDrawsAreBool:
    """``Bernoulli.sample`` returns its draw as a read-only bool array, so
    the objective and the update rule of a sampled step take it without a
    scan."""

    def test_a_sampled_run_scans_no_draw(self, monkeypatch, binary_scans):
        drawn = []
        sample = Bernoulli.sample

        def keeping(self, params, rng, count):
            drawn.append(sample(self, params, rng, count))
            return drawn[-1]

        monkeypatch.setattr(Bernoulli, "sample", keeping)
        config = AlgorithmConfig(algorithm="pbil", objective="onemax", dim=50, lam=200,
                                 q=0.25, dt=0.5, max_steps=10)
        assert len(run(config).steps) == 10
        assert len(drawn) == 10 and all(a.dtype == np.bool_ for a in drawn)
        assert binary_scans == []

    def test_a_draw_is_read_only(self):
        draws = Bernoulli(3).sample(BernoulliParams([0.2, 0.5, 0.8]),
                                    np.random.default_rng(2), 4)
        with pytest.raises(ValueError, match="read-only"):
            draws[0, 0] = True


def test_importing_the_package_leaves_numpy_random_unloaded():
    # numpy loads numpy.random on first use, which costs every cli start
    src = str(Path(igokit.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, igokit, igokit.verify, igokit.cli; "
            "print('numpy.random' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def rule_direction(model, params, x):
    """Direction of the one-point natural-gradient step at ``x``:
    ``(eta(igo_step(x, w = 1, dt = 1/2)) - eta) / (1/2)``."""
    stepped = updates.igo_step(model, params, [x], [1.0], 0.5)
    return (model.to_eta(stepped) - model.to_eta(params)) / 0.5


@st.composite
def states_and_points(draw):
    """A Bernoulli state (d <= 4, p in [0.05, 0.95]) and a 0/1 point, or a
    Gaussian state (d <= 3, condition number <= 10) and a real point."""
    if draw(st.booleans()):
        probs = draw(st.lists(st.floats(0.05, 0.95), min_size=1, max_size=4))
        x = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=len(probs),
                          max_size=len(probs)))
        return Bernoulli(len(probs)), BernoulliParams(probs), np.array(x)
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = GaussianParams(rng.normal(0, 0.5, d), random_spd(rng, d, 10.0))
    return Gaussian(d), params, rng.normal(size=d)


class TestNaturalGradLogDensity:
    """The natural gradient of ``ln p_eta(x)`` is ``T(x) - eta``: the
    direction of the shipped update rule."""

    def test_examples(self):
        assert np.allclose(rule_direction(Bernoulli(1), BernoulliParams([0.3]), [1.0]),
                           [0.7], atol=1e-15)
        assert np.allclose(
            rule_direction(Bernoulli(2), BernoulliParams([0.5, 0.5]), [0.0, 0.0]),
            [-0.5, -0.5], atol=1e-15,
        )
        g = Gaussian(1)
        assert np.allclose(rule_direction(g, g.from_eta([0.0, 1.0]), [2.0]), [2.0, 3.0])

    @settings(max_examples=200, deadline=None)
    @given(states_and_points())
    def test_matches_finite_difference_through_fisher(self, case):
        # the inverse Fisher matrix times the plain gradient of ln p
        rel = _natural_gradient_error(*case)
        assert rel is not None and rel <= 1e-5


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

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_gaussian_matches_numerical_hessian(self, d):
        rng = np.random.default_rng([31, d])
        m = Gaussian(d)
        for _ in range(5):
            eta = m.to_eta(GaussianParams(rng.uniform(-1, 1, d), random_spd(rng, d, 10.0)))
            reference = numerical_fisher(m, eta)
            fim = m.fisher_information(eta)
            assert np.max(np.abs(fim - reference)) <= 1e-6 * np.max(np.abs(reference))

    def test_gaussian_inverse_is_sample_covariance_of_statistics(self):
        m = Gaussian(2)
        params = GaussianParams([0.3, -0.5], [[1.0, 0.3], [0.3, 0.5]])
        x = m.sample(params, np.random.default_rng(2024), 400_000)
        sample_cov = np.cov(m.batch_sufficient_statistics(x), rowvar=False)
        cov = np.linalg.inv(m.fisher_information(m.to_eta(params)))
        assert np.max(np.abs(sample_cov - cov)) <= 2e-2 * np.max(np.abs(cov))

    def test_kl_expansion_contract(self):
        # the quadratic form plus the exact cubic term must explain KL up to
        # a quartic remainder: one halving shrinks the residual at least 8x
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
                    cubic = m._negentropy_third_derivative(eta, dlt) / 3.0
                    return abs(kl - 0.5 * float(dlt @ fim @ dlt) - cubic)

                assert err(delta / 2) * 8.0 <= err(delta)
