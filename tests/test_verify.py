import json

import pytest

from igokit import Bernoulli, Gaussian, InvalidInputError
from igokit.verify import SUITES, _cma_case, run_suite


def test_unknown_suite_and_grid():
    with pytest.raises(InvalidInputError, match="unknown suite"):
        run_suite("nope")
    with pytest.raises(InvalidInputError, match="unknown grid"):
        run_suite("cma-recovery", grid="huge")


def test_cases_depend_only_on_their_index_and_seed():
    report = run_suite("cma-recovery", seed=3)
    assert _cma_case((7, 3)) == report.cases[7]
    again = run_suite("cma-recovery", seed=3).to_dict()
    first = report.to_dict()
    first.pop("elapsed_s")
    again.pop("elapsed_s")
    assert first == again


@pytest.mark.parametrize("name", sorted(SUITES))
def test_reports_serialize_to_json(name):
    if name in ("quantile-improvement", "blockwise-improvement",
                "fitness-improvement", "progress-bound", "finite-population"):
        pytest.skip("heavy grids exercised by the acceptance suite")
    report = run_suite(name, seed=4)
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["suite"] == name
    assert payload["cases_total"] == len(report.cases)


def test_heavy_reports_serialize_to_json():
    # one heavy grid representative, small seed-2 slice via the public entry
    report = run_suite("fitness-improvement", seed=5)
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["passed"] is True


KL_SEEDS = range(1, 41)
KL_FAMILIES = {"bernoulli": Bernoulli, "gaussian": Gaussian}
# method of one family -> factor on its result
KL_MUTANTS = {
    "fisher-scaled": ("fisher_information", 1.0 + 1e-3),
    "cubic-sign-flipped": ("_negentropy_third_derivative", -1.0),
    "cubic-factor-one-half": ("_negentropy_third_derivative", 1.5),
    "cubic-dropped": ("_negentropy_third_derivative", 0.0),
}


@pytest.mark.slow
def test_kl_expansion_passes_on_seeds_1_to_40():
    failed = [s for s in KL_SEEDS if not run_suite("kl-expansion", seed=s).passed]
    assert failed == []


@pytest.mark.slow
@pytest.mark.parametrize("mutant", sorted(KL_MUTANTS))
@pytest.mark.parametrize("family", sorted(KL_FAMILIES))
def test_kl_expansion_mutants_fail_on_every_seed(family, mutant, monkeypatch):
    """The 8x criterion pins each family's Fisher term and cubic coefficient
    on its own: a 0.1 % error in F, a flipped cubic sign, a factor 1/2 in
    place of 1/3 or a dropped cubic term, in one family only, leave a
    residual that shrinks too slowly in some case of that family on every
    seed, while the other family's cases still pass."""
    name, factor = KL_MUTANTS[mutant]
    cls = KL_FAMILIES[family]
    original = getattr(cls, name)

    def scaled(self, *args):
        return factor * original(self, *args)

    monkeypatch.setattr(cls, name, scaled)
    for seed in KL_SEEDS:
        cases = run_suite("kl-expansion", seed=seed).cases
        failed = {c.detail["family"] for c in cases if not c.passed}
        assert failed == {family}, f"seed {seed}"
