from functools import cached_property

import numpy as np
import pytest

from igokit import Bernoulli, BernoulliParams, Gaussian


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
def checks_run(monkeypatch):
    """``checks_run(memo)`` empties a ``models._CheckedOnce`` memo and
    returns the list of arrays its check then really runs on, in order."""

    def watch(memo):
        checked = []
        check = memo.check

        def counting(a, *args):
            checked.append(a)
            return check(a, *args)

        monkeypatch.setattr(memo, "check", counting)
        monkeypatch.setattr(memo, "passed", None)
        return checked

    return watch
