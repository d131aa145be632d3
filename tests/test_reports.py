"""Golden suite reports: every ``verify`` report at seed 1 on the small grid
hashes to its committed digest, so a moved bit in any case shows here.

The digest is the sha256 of the canonical report text: ``to_dict()`` without
``elapsed_s``, keys sorted, floats as ``json`` writes them (``repr``, which
round-trips exactly). ``golden_reports.json.gz`` holds the same reports, so
a mismatch names the fields that moved, in how many cases, and by how much.
A change that moves bits on purpose rewrites both::

    PYTHONPATH=src python tests/test_reports.py

which prints the new ``GOLDEN_REPORTS`` table.
"""

import gzip
import hashlib
import json
import math
from pathlib import Path

import pytest

from igokit.verify import SUITES, run_suite

GOLDEN_PATH = Path(__file__).with_name("golden_reports.json.gz")

GOLDEN_REPORTS = {
    "blockwise-improvement":
        "73040e2320d0b560906bbc00d498165b1017ac63cdae92eca7401b16a0171e4b",
    "cma-recovery":
        "d7eabad359bc75530e95c539e4c5eb1430326823001e7f95b391f16a6d347304",
    "determinism":
        "2e985153e32fb56f569bc6e81a72edefa814756a9df2a75c28149d3007d55c14",
    "equivalence":
        "589436bbb73fea4e5d0e0bcaf0575b97e56be29524c1b21496b288803ec591a7",
    "finite-population":
        "7ae35a20255b977ae40f6bebc2930a08add35309701ec8b1964ffdf221e5e297",
    "fitness-improvement":
        "c1d0e38fa486ef4e9919cf6fe9d73e7b6d2275081dc68c5e4d71b04a62a969b9",
    "kl-expansion":
        "ee5ab51999881093da799db02f1374c9d36065ac0949c4239036121d354b6804",
    "natural-gradient":
        "6b1c92b66428ea57d3a7edeab541781f275844b3c54c5fd195001aef24a5fd27",
    "progress-bound":
        "6e51414532c1e4ba6a44befae69d948270878195904d877ad33c485d47a1aaea",
    "quantile-improvement":
        "bcccf1340213f8522c1b405289477dd3608de6cb140aa9c31769c5b0035c1ece",
}


def canonical(report) -> str:
    """The report's canonical text: ``to_dict()`` without its wall time,
    keys sorted."""
    payload = report.to_dict()
    del payload["elapsed_s"]
    return json.dumps(payload, sort_keys=True)


def _same(a, b) -> bool:
    """Whether two JSON values have the same text (so ``-0.0`` differs from
    ``0.0`` and a NaN equals itself)."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def _difference(a, b) -> float:
    """The largest absolute difference of two numbers, or of two equal-length
    lists of numbers; ``inf`` where the values cannot be compared so."""
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return max((_difference(x, y) for x, y in zip(a, b)), default=0.0)
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
    if numbers and math.isfinite(a) and math.isfinite(b):
        return abs(a - b)
    return math.inf


def explain(got: dict, want: dict) -> list:
    """One line per field that differs between two canonical reports: the
    field, in how many cases it moved, and its largest difference."""
    lines = [f"{key}: {want.get(key)!r} -> {got.get(key)!r}"
             for key in sorted(set(got) | set(want))
             if key != "cases" and not _same(got.get(key), want.get(key))]
    if len(got["cases"]) != len(want["cases"]):
        return lines + [f"cases: {len(want['cases'])} -> {len(got['cases'])}"]
    moved = {}
    for case, ref in zip(got["cases"], want["cases"]):
        for key in sorted(set(case) | set(ref)):
            if key in case and key in ref and _same(case[key], ref[key]):
                continue
            count, largest = moved.get(key, (0, 0.0))
            moved[key] = (count + 1, max(largest, _difference(case.get(key), ref.get(key))))
    total = len(want["cases"])
    return lines + [f"{key}: {count} of {total} cases, largest difference {largest:.3g}"
                    for key, (count, largest) in sorted(moved.items())]


def _golden() -> dict:
    with gzip.open(GOLDEN_PATH, "rt") as fh:
        return json.load(fh)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_suite_has_a_digest():
    assert set(GOLDEN_REPORTS) == set(SUITES)


def test_the_kept_reports_hash_to_the_digests():
    kept = _golden()
    assert {name: _digest(json.dumps(payload, sort_keys=True))
            for name, payload in kept.items()} == GOLDEN_REPORTS


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_report_digest(suite, suite_report):
    text = canonical(suite_report(suite))
    if _digest(text) != GOLDEN_REPORTS[suite]:
        moved = explain(json.loads(text), _golden()[suite])
        pytest.fail(f"{suite} report moved:\n  " + "\n  ".join(moved))


def test_explain_names_the_moved_fields():
    want = {"suite": "s", "passed": True, "cases": [
        {"name": "a", "err": 1e-13, "steps": 3, "eta": [0.5, 0.25]},
        {"name": "b", "err": 2e-13, "steps": 4, "eta": [0.5, 0.25]},
    ]}
    got = json.loads(json.dumps(want))
    got["passed"] = False
    got["cases"][0]["err"] = 4e-13
    got["cases"][1]["err"] = 2.5e-13
    got["cases"][1]["eta"][1] = 0.125
    assert explain(got, want) == [
        "passed: True -> False",
        "err: 2 of 2 cases, largest difference 3e-13",
        "eta: 1 of 2 cases, largest difference 0.125",
    ]
    assert explain(want, want) == []


if __name__ == "__main__":
    reports = {name: json.loads(canonical(run_suite(name, grid="small", seed=1)))
               for name in sorted(SUITES)}
    with gzip.GzipFile(GOLDEN_PATH, "wb", mtime=0) as fh:
        fh.write(json.dumps(reports, sort_keys=True).encode())
    print("GOLDEN_REPORTS = {")
    for name, payload in reports.items():
        print(f'    "{name}":\n        "{_digest(json.dumps(payload, sort_keys=True))}",')
    print("}")
