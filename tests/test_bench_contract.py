"""The benchmark's layer tracer wraps igokit functions by name.

``bench/tracer.py`` lists them in ``TRACED`` as (module, attribute path)
pairs. A renamed or deleted function would only surface in a traced
benchmark run; this test makes it fail here instead. The tracer source is
executed into a fresh namespace, so nothing under ``bench/`` is imported as
a package or written to.
"""

import importlib
import types
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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
