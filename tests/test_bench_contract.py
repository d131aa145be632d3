"""The benchmark's layer tracer wraps igokit functions by name.

``bench/tracer.py`` lists them in ``TRACED`` as (module, attribute path)
pairs. A renamed or deleted function would only surface in a traced
benchmark run; these tests make it fail here instead. The tracer source is
executed into a fresh namespace, so nothing under ``bench/`` is imported as
a package; the slow test runs one short traced benchmark in a subprocess.
"""

import importlib
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"


def _load_tracer():
    module = types.ModuleType("bench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


TRACED = _load_tracer().TRACED


@pytest.mark.parametrize(
    "module, path", sorted({(module, path) for _, module, path, _ in TRACED})
)
def test_traced_name_resolves(module, path):
    target = importlib.import_module(f"igokit.{module}")
    for part in path.split("."):
        assert hasattr(target, part), f"igokit.{module}.{path} is gone"
        target = getattr(target, part)
    assert callable(target)


def _traced_run(workload):
    """Run one traced round of ``workload`` (seed 1); return its JSON line."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.slow
def test_traced_exact_d16_run_exits_zero():
    """One short traced benchmark run: its layer-intent and output checks,
    and the tracer's reading of traced arguments, fail here too. It writes
    only into the ignored ``bench/out/``.

    The round evaluates the objective on 100 safeguarded pbil steps of
    lambda = 200 samples (20 000 rows), plus the 2^16 = 65 536-row support
    once, for pbil's ``estimate_j``, which reads its exact preferences from
    ``Objective.support_values``. Exact rpp reads its reward table there
    too, but random-reward's support values are its table, with nothing
    evaluated. 20 000 + 65 536 = 85 536. Evaluating the support on every
    ``estimate_j`` step instead would add 99 * 65 536.
    """
    metrics = _traced_run("exact-d16")["metrics"]
    assert metrics["objectives.batch.rows"]["value"] == 20_000 + 2**16


@pytest.mark.slow
def test_traced_verify_exact_run_exits_zero():
    """The same for ``verify-exact``, whose layer checks require calls such
    as ``models.from_eta`` that move when the oracle's callers change."""
    _traced_run("verify-exact")


@pytest.mark.slow
def test_traced_sampled_runs_run_exits_zero():
    """The same for ``sampled-runs``, the control workload, whose layer
    checks also require that the exact oracle and ``preference_exact`` stay
    idle there."""
    _traced_run("sampled-runs")
