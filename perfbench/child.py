"""One CLI run in a fresh interpreter, as a user of ``stackpmf`` runs it.

Usage: ``python3 perfbench/child.py '<json spec>'`` from the repository
root. The spec holds ``spawn_ns`` (the parent's ``time.monotonic_ns()``
just before it started this process), ``argv`` for ``stackpmf.cli.main``,
``trace`` (0 or 1), ``reps`` (replications in the run, for per-replication
counters) and ``spans`` (where a traced run writes its spans).

The last line of standard output is a JSON object with the exit code,
``setup_s`` (fresh interpreter to ``stackpmf.cli`` imported, on the
system-wide monotonic clock), ``run_s`` (wall time inside ``main``),
``peak_rss_mb`` and, for a traced run, the per-layer metrics.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def peak_rss_mb() -> float:
    """High-water resident set of this process in MB (10^6 bytes).

    ``VmHWM`` belongs to this process's own address space, unlike
    ``ru_maxrss``, which keeps the parent's peak across ``exec``.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, SRC)
    from stackpmf import cli

    ready_ns = time.monotonic_ns()
    if os.path.dirname(os.path.abspath(cli.__file__)) != os.path.join(SRC, "stackpmf"):
        print(f"stackpmf imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    out = {"setup_s": (ready_ns - spec["spawn_ns"]) / 1e9}

    tracer = None
    if spec["trace"]:
        from tracer import ROOT as ROOT_SPAN
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter_ns()
    try:
        if tracer is None:
            code = cli.main(spec["argv"])
        else:
            code = tracer.call(ROOT_SPAN, cli.main, spec["argv"])
    finally:
        end = time.perf_counter_ns()
        if tracer is not None:
            out["restored"] = tracer.uninstall()
    out["exit"] = code
    out["run_s"] = (end - start) / 1e9
    out["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        tracer.write_spans(spec["spans"])
        out["missing"] = tracer.missing
        out["layers"] = tracer.metrics(spec["reps"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
