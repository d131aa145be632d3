import json

import pytest

from igokit import InvalidInputError
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
