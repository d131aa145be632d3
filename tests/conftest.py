import numpy as np
import pytest

from igokit import Bernoulli


@pytest.fixture
def from_eta_calls(monkeypatch):
    """Every state passed to ``Bernoulli.from_eta`` while the test runs."""
    calls = []
    from_eta = Bernoulli.from_eta

    def counting(self, eta):
        calls.append(np.array(eta))
        return from_eta(self, eta)

    monkeypatch.setattr(Bernoulli, "from_eta", counting)
    return calls
