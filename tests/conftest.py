from functools import cache, cached_property

import numpy as np
import pytest

from igokit import Bernoulli, BernoulliParams, Gaussian, models
from igokit.verify import run_suite


@pytest.fixture
def from_eta_calls(monkeypatch):
    """Every state passed to ``Bernoulli.from_eta`` or ``Gaussian.from_eta``
    while the test runs."""
    calls = []
    for family in (Bernoulli, Gaussian):
        def counting(self, eta, from_eta=family.from_eta):
            calls.append(np.array(eta))
            return from_eta(self, eta)

        monkeypatch.setattr(family, "from_eta", counting)
    return calls


@pytest.fixture
def support_prob_builds(monkeypatch):
    """Every state whose ``support_probs`` vector is built while the test
    runs, in build order."""
    builds = []
    build = BernoulliParams.support_probs.func

    def counting(self):
        builds.append(self)
        return build(self)

    prop = cached_property(counting)
    prop.__set_name__(BernoulliParams, "support_probs")
    monkeypatch.setattr(BernoulliParams, "support_probs", prop)
    return builds


@pytest.fixture
def binary_scans(monkeypatch):
    """Every points array ``models._binary`` scans for 0/1 values while the
    test runs, in order."""
    scanned = []
    scan = models._binary

    def counting(pts):
        scanned.append(pts)
        return scan(pts)

    monkeypatch.setattr(models, "_binary", counting)
    return scanned


@pytest.fixture(scope="session")
def suite_report():
    """``suite_report(name)``: the suite's report at seed 1 on the small
    grid, built on first request and shared by the whole session."""
    return cache(lambda name: run_suite(name, grid="small", seed=1))
