"""Every name the benchmark tracer patches or reads resolves in the package.

The tracer records a missing name without failing, so a renamed or deleted
function would silently zero a per-layer metric; this keeps the lookups in
the main test suite.
"""

import importlib
import importlib.util
import os

import pytest

TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LOOKUPS = [(module, attr) for module, attr, _ in _load_tracer().PLAIN_PATCHES] + [
    ("stackpmf.confidence", "substream"),
    ("stackpmf.confidence", "iter_limit_process"),
    ("stackpmf.estimators", "A_N_TOL"),
]


@pytest.mark.parametrize("module,attr", LOOKUPS, ids=[f"{m}.{a}" for m, a in LOOKUPS])
def test_tracer_lookup_resolves(module, attr):
    assert hasattr(importlib.import_module(module), attr)
