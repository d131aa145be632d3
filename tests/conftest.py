import numpy as np
import pytest

from igokit import Bernoulli, Gaussian


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
