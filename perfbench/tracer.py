"""Outside-in tracer for one stackpmf CLI run.

The tracer wraps the package's public functions where the calling module
looks them up (``stackpmf.estimators.isotonic_decreasing``,
``stackpmf.harness.sample``, ``stackpmf.confidence.substream``, ...), so
nothing under ``src/`` changes. Each call records a span
``[name, start_ns, end_ns, parent]`` in memory; the spans are turned into
per-layer self times and exact counters when the run ends, and
``uninstall`` puts every original attribute back.

A span's self time is its duration minus the durations of its direct
children. Calls are assumed to happen on one thread, which holds for every
workload because each runs with ``--workers 1``.
"""

import functools
import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter_ns

LAYERS = ("rng", "models", "shape", "estimators", "confidence", "harness", "cli")
FIT_CODES = ("e", "mm", "r", "G", "sr", "sG")
BRANCHES = ("interior", "zero", "one", "tol")
#: Layers with more than one span name get a total; the others already have
#: one (``rng.substream.s``, ``harness.self.s``, ``cli.self.s``).
SPLIT_LAYERS = ("models", "shape", "estimators", "confidence")

ROOT = "cli.main"


def _fit_name(code, *_args, **_kwargs):
    return f"estimators.fit.{code}"


def _stacked_name(_x, kind, *_args, **_kwargs):
    return "estimators.fit.sG" if kind == "grenander" else "estimators.fit.sr"


# (module, attribute, span name or a function of the call's arguments).
# Each entry patches the attribute the caller looks up, not the definition.
PLAIN_PATCHES = (
    ("stackpmf.cli", "run_coverage", "harness.run_coverage"),
    ("stackpmf.cli", "run_loss_experiment", "harness.run_loss_experiment"),
    ("stackpmf.cli", "fit_estimator", _fit_name),
    ("stackpmf.cli", "stacked", _stacked_name),
    ("stackpmf.cli", "quantile_q_alpha", "confidence.quantile_q_alpha"),
    ("stackpmf.cli", "make_band", "confidence.band"),
    ("stackpmf.harness", "sample", "models.sample"),
    ("stackpmf.harness", "pmf_truncate", "models.pmf_truncate"),
    ("stackpmf.harness", "fit_estimator", _fit_name),
    ("stackpmf.harness", "quantile_q_alpha", "confidence.quantile_q_alpha"),
    ("stackpmf.harness", "band", "confidence.band"),
    ("stackpmf.models", "pmf_truncate", "models.pmf_truncate"),
    ("stackpmf.models", "substream", "rng.substream"),
    ("stackpmf.estimators", "isotonic_decreasing", "shape.isotonic_decreasing"),
    ("stackpmf.estimators", "rearrange_decreasing", "shape.rearrange_decreasing"),
    ("stackpmf.estimators", "loo_vectors_fast", "estimators.loo_vectors_fast"),
    ("stackpmf.estimators", "cv_beta", "estimators.cv_beta"),
    ("stackpmf.estimators", "lk_distance", "estimators.lk_distance"),
)


class _TimedRng:
    """Generator proxy that times ``standard_normal`` as ``confidence.rng``."""

    def __init__(self, rng, tracer):
        self._rng = rng
        self._tracer = tracer

    def standard_normal(self, *args, **kwargs):
        idx = self._tracer.open("confidence.rng")
        try:
            z = self._rng.standard_normal(*args, **kwargs)
        finally:
            self._tracer.close(idx)
        self._tracer.counts["confidence.bytes_computed"] += z.nbytes
        return z

    def __getattr__(self, name):
        return getattr(self._rng, name)


class Tracer:
    """Span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.missing = []
        self._stack = [-1]
        self._saved = []

    # -- spans ---------------------------------------------------------------

    def open(self, name):
        idx = len(self.spans)
        self.spans.append([name, 0, 0, self._stack[-1]])
        self._stack.append(idx)
        self.spans[idx][1] = perf_counter_ns()
        return idx

    def close(self, idx):
        self.spans[idx][2] = perf_counter_ns()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    # -- patching ------------------------------------------------------------

    def _patch(self, module_name, attr, make):
        module = importlib.import_module(module_name)
        if not hasattr(module, attr):
            self.missing.append(f"{module_name}.{attr}")
            return
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, functools.wraps(original)(make(original)))

    def _span_wrapper(self, name):
        def make(fn):
            def traced(*args, **kwargs):
                label = name if isinstance(name, str) else name(*args, **kwargs)
                result = self.call(label, fn, *args, **kwargs)
                self._after(label, result)
                return result

            return traced

        return make

    def _after(self, label, result):
        if label == "shape.isotonic_decreasing":
            self.counts["shape.isotonic_decreasing.blocks"] += len(result[1])
        elif label == "estimators.cv_beta":
            self.counts["estimators.beta_branch." + beta_branch(*result)] += 1
        elif label == "rng.substream":
            self.counts["rng.substream.models.calls"] += 1

    def install(self):
        for module_name, attr, name in PLAIN_PATCHES:
            self._patch(module_name, attr, self._span_wrapper(name))

        def confidence_substream(fn):
            def traced(*args, **kwargs):
                rng = self.call("rng.substream", fn, *args, **kwargs)
                self.counts["rng.substream.confidence.calls"] += 1
                return _TimedRng(rng, self)

            return traced

        def chunks(fn):
            def traced(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    idx = self.open("confidence.chunk")
                    try:
                        y = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self.close(idx)
                    self.counts["confidence.chunks"] += 1
                    self.counts["confidence.draws"] += y.shape[0]
                    self.counts["confidence.bytes_computed"] += y.nbytes
                    yield y

            return traced

        self._patch("stackpmf.confidence", "substream", confidence_substream)
        self._patch("stackpmf.confidence", "iter_limit_process", chunks)

    def uninstall(self):
        """Restore every patched attribute; True when all are the originals again."""
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        return all(getattr(module, attr) is original for module, attr, original in self._saved)

    # -- results -------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"], "spans": self.spans}, fh)

    def metrics(self, reps):
        """Per-layer metrics of the recorded run; ``reps`` is its replication count."""
        return layer_metrics(self.spans, self.counts, reps)


def beta_branch(beta, a_n, b_n):
    """Which case of ``estimators.cv_beta`` set the mixture weight."""
    from stackpmf.estimators import A_N_TOL

    if a_n <= A_N_TOL:
        return "tol"
    if 0.0 <= b_n <= a_n:
        return "interior"
    if b_n >= a_n:
        return "one"
    return "zero"


def self_times(spans):
    """Self time in ns and call count per span name."""
    covered = [0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_ns = defaultdict(int)
    calls = Counter()
    for i, (name, start, end, _parent) in enumerate(spans):
        self_ns[name] += end - start - covered[i]
        calls[name] += 1
    return self_ns, calls


def layer_metrics(spans, counts, reps):
    """The per-layer metrics named in BENCHMARK.json, from one run's spans and counters."""
    self_ns, calls = self_times(spans)

    def s(name):
        return self_ns.get(name, 0) / 1e9

    m = {}
    for name in ("models.sample", "models.pmf_truncate", "shape.isotonic_decreasing",
                 "shape.rearrange_decreasing", "estimators.loo_vectors_fast", "estimators.cv_beta"):
        m[f"{name}.s"] = s(name)
        m[f"{name}.calls"] = calls[name]
    m["rng.substream.s"] = s("rng.substream")
    m["rng.substream.models.calls"] = counts["rng.substream.models.calls"]
    m["rng.substream.confidence.calls"] = counts["rng.substream.confidence.calls"]
    m["rng.substream.confidence.per_rep"] = counts["rng.substream.confidence.calls"] / reps
    m["shape.isotonic_decreasing.blocks"] = counts["shape.isotonic_decreasing.blocks"]
    sg_fits = calls["estimators.fit.sG"]
    m["shape.isotonic_decreasing.per_sG_fit"] = (
        _calls_within(spans, "shape.isotonic_decreasing", "estimators.fit.sG") / sg_fits if sg_fits else 0.0
    )
    for code in FIT_CODES:
        m[f"estimators.fit.{code}.s"] = s(f"estimators.fit.{code}")
    m["estimators.lk_distance.s"] = s("estimators.lk_distance")
    for branch in BRANCHES:
        m[f"estimators.beta_branch.{branch}"] = counts[f"estimators.beta_branch.{branch}"]
    m["confidence.quantile_q_alpha.s"] = sum(
        end - start for name, start, end, _p in spans if name == "confidence.quantile_q_alpha"
    ) / 1e9
    m["confidence.quantile_q_alpha.calls"] = calls["confidence.quantile_q_alpha"]
    m["confidence.rng.s"] = s("confidence.rng")
    m["confidence.arith.s"] = s("confidence.chunk")
    m["confidence.reduce.s"] = s("confidence.quantile_q_alpha")
    for name in ("confidence.chunks", "confidence.draws", "confidence.bytes_computed"):
        m[name] = counts[name]
    m["harness.self.s"] = sum(v for k, v in self_ns.items() if k.startswith("harness.")) / 1e9
    m["cli.self.s"] = s(ROOT)

    total = sum(self_ns.values())
    for layer in LAYERS:
        layer_ns = sum(v for k, v in self_ns.items() if k.split(".", 1)[0] == layer)
        if layer in SPLIT_LAYERS:
            m[f"{layer}.s"] = layer_ns / 1e9
        m[f"{layer}.share"] = layer_ns / total if total else 0.0
    return m


def _calls_within(spans, name, ancestor):
    """Number of ``name`` spans with an ``ancestor`` span above them."""
    found = 0
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] != ancestor:
            parent = spans[parent][3]
        found += parent >= 0
    return found
