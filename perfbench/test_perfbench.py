"""Tests of the benchmark itself: ``python -m pytest perfbench`` from the repository root."""

import importlib
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracer
import workloads as wl

sys.path.insert(0, os.path.join(run.ROOT, "src"))

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)
with open(os.path.join(run.HERE, "refs.json"), encoding="utf-8") as _fh:
    REFS = json.load(_fh)


def _bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.WORKLOADS)
    assert [w["why"] for w in BENCHMARK["workloads"]] == [w.why for w in wl.WORKLOADS.values()]


def test_same_seed_same_inputs_and_different_seed_different_streams(tmp_path):
    for workload in wl.WORKLOADS.values():
        assert workload.argv("full", 7, "w") == workload.argv("full", 7, "w")
        if workload.params["full"].get("d"):
            wl.prepare(workload, "tiny", str(tmp_path / "a"))
            wl.prepare(workload, "tiny", str(tmp_path / "b"))
            assert (tmp_path / "a" / "counts.txt").read_bytes() == (tmp_path / "b" / "counts.txt").read_bytes()
    for name in ("coverage-M1", "loss-M7"):
        workload = wl.WORKLOADS[name]
        assert workload.argv("full", 1, "w") != workload.argv("full", 2, "w")
        seeds = REFS["tiny"][name]["seeds"]
        assert seeds["1"]["sha256"] != seeds["2"]["sha256"]


def test_tracer_patches_and_restores_every_attribute():
    t = tracer.Tracer()
    originals = {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in tracer.PLAIN_PATCHES}
    t.install()
    try:
        assert t.missing == []
        assert all(getattr(importlib.import_module(m), a) is not f for (m, a), f in originals.items())
    finally:
        assert t.uninstall()
    assert all(getattr(importlib.import_module(m), a) is f for (m, a), f in originals.items())


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_layer_self_times_sum_within_traced_run(name, tmp_path):
    workload = wl.WORKLOADS[name]
    workdir = os.path.join(run.WORK, f"{name}-tiny")
    wl.prepare(workload, "tiny", os.path.join(run.ROOT, workdir))
    spans = str(tmp_path / "spans.json")
    report = run.run_child(workload.argv("tiny", 3, workdir), True, workload.reps("tiny"), spans, timeout=120)
    assert "error" not in report, report
    layers = report["layers"]
    total = sum(layers[f"{layer}.s"] for layer in tracer.SPLIT_LAYERS) + sum(
        layers[name] for name in ("rng.substream.s", "harness.self.s", "cli.self.s"))
    assert 0 < total <= report["run_s"]
    assert sum(layers[f"{layer}.share"] for layer in tracer.LAYERS) == pytest.approx(1.0)
    with open(spans, encoding="utf-8") as fh:
        assert json.load(fh)["spans"][0][0] == tracer.ROOT


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_tiny_mode_runs_and_reports_every_metric(name, trace):
    proc = _bench("--workload", name, "--seed", "5", "--seconds", "1", "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "loss-M7", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
