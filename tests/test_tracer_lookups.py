"""Every name the benchmark tracer patches or reads resolves in the package.

The tracer records a missing name without failing, so a renamed or deleted
function would silently zero a per-layer metric; this keeps the lookups in
the main test suite. The sampler is also run under counting wrappers like
the tracer's, so its draw and chunk counts keep their meaning, and a loss
run under the tracer itself, so its per-replication sample count does.
"""

import importlib
import importlib.util
import math
import os

import numpy as np
import pytest

from stackpmf import cli, confidence, rng

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


@pytest.mark.parametrize("stack_rows, dim, reps", [(3, 12, 8200), (2, 5001, 1000)], ids=["D-12", "D-5001"])
def test_sampler_wrapped_as_the_tracer_wraps_it(monkeypatch, stack_rows, dim, reps):
    # the tracer counts y.shape[0] over the yields of iter_limit_process as
    # the draws, and the calls of confidence.substream as the chunks
    stack = np.random.default_rng(dim).dirichlet(np.ones(dim), size=stack_rows)
    expected = confidence.sample_sup_norm(stack, reps, seed=5)
    counts = {"draws": 0, "substreams": 0}

    def counted_substream(fn):
        def traced(*args, **kwargs):
            counts["substreams"] += 1
            return fn(*args, **kwargs)

        return traced

    def counted_blocks(fn):
        def traced(*args, **kwargs):
            for y in fn(*args, **kwargs):
                counts["draws"] += y.shape[0]
                yield y

        return traced

    monkeypatch.setattr(confidence, "substream", counted_substream(confidence.substream))
    monkeypatch.setattr(confidence, "iter_limit_process", counted_blocks(confidence.iter_limit_process))
    draws = confidence.sample_sup_norm(stack, reps, seed=5)
    chunk = confidence._chunk_draws(dim)
    assert counts == {"draws": stack_rows * reps, "substreams": math.ceil(reps / chunk)}
    np.testing.assert_array_equal(draws, expected)


def test_loss_run_traced_samples_once_per_replication(tmp_path, monkeypatch):
    # models.sample.calls counts the calls of harness.sample, and
    # rng.substream.models.calls those of models.substream: replication
    # streams are keyed per block, so there is one sample per replication
    # and no substream; sub-blocks of 8 keys take the run through five passes
    monkeypatch.setattr(rng, "KEY_BLOCK", 8)
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer()
    argv = ["simulate", "--model", "M7", "--n", "50", "--est", "e,sG", "--reps", "37", "--seed", "3",
            "--workers", "1", "--out", str(tmp_path)]
    tracer.install()
    try:
        assert tracer.call(tracer_module.ROOT, cli.main, argv) == 0
    finally:
        assert tracer.uninstall()
    assert tracer.missing == []
    metrics = tracer.metrics(37)
    assert metrics["models.sample.calls"] == 37
    assert metrics["rng.substream.models.calls"] == 0
