"""Benchmark of the ``stackpmf`` CLI, end to end and per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--size full|tiny]

One closed-loop client runs the workload's CLI command again and again,
each time in a fresh interpreter (one process at a time, ``--workers 1``),
until ``--seconds`` have passed. Every run's outputs are checked against
the stored references (see ``workloads.py``); a run that exits nonzero or
fails a check counts as failed.

``--trace 0`` reports the end-to-end metrics, as medians over the runs.
``--trace 1`` alternates untraced and traced runs and reports the
per-layer metrics of the traced ones (see ``tracer.py``), the tracing
overhead, and fails when a traced run's output bytes differ from an
untraced run's, a counter differs between traced runs, or a patched
attribute is not restored.

The last line of standard output is the JSON result; the full record
(environment, every run, hashes, checks) goes to
``.perfbench/results/<workload>-<size>-seed<n>-trace<t>.json``.
"""

import argparse
import compileall
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC_PACKAGE = os.path.join(ROOT, "src", "stackpmf")
WORK = ".perfbench"

#: A run stops starting new CLI runs after this many seconds, whatever
#: ``--seconds`` says, so that it ends well within three minutes.
DEADLINE_S = 150.0

END_TO_END_UNITS = {"run_s": "s", "throughput": "1/s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "fraction"}


def layer_unit(name: str) -> str:
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith(".share"):
        return "fraction"
    if "bytes" in name:
        return "bytes"
    return "count"


def environment() -> dict:
    """Machine, library and source versions, so runs from different commits compare."""
    env = {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "cpu_model": None,
        "git_commit": None,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        env["cpu_model"] = models[0] if models else None
    except OSError:
        pass
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            env["git_commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30, check=True
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for name in sorted(os.listdir(SRC_PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(SRC_PACKAGE, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    env["src_sha256"] = digest.hexdigest()
    return env


def run_child(argv: list[str], trace: bool, reps: int, spans: str, timeout: float) -> dict:
    """One CLI run in a fresh interpreter; returns its report or an ``error``."""
    spawn_ns = time.monotonic_ns()
    spec = json.dumps({"spawn_ns": spawn_ns, "argv": argv, "trace": int(trace), "reps": reps, "spans": spans})
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), spec],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    report = json.loads(lines[-1])
    if report["exit"] != 0:
        report["error"] = f"stackpmf exited {report['exit']}: {proc.stderr.strip()[-2000:]}"
    elif trace and not report["restored"]:
        report["error"] = "a patched attribute was not restored"
    return report


def median(values):
    return statistics.median(values) if values else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every workload in about a second, to test the benchmark itself")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC_PACKAGE, "cli.py")):
        print(f"error: no stackpmf sources at {SRC_PACKAGE}", file=sys.stderr)
        return 2
    import workloads as wl  # after the source check: it needs numpy only

    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    with open(os.path.join(HERE, "refs.json"), encoding="utf-8") as fh:
        ref = json.load(fh)[args.size][workload.name]

    began = time.monotonic()
    load_before = os.getloadavg()[0]
    env = environment()
    compileall.compile_dir(SRC_PACKAGE, quiet=1)
    workdir = os.path.join(WORK, f"{workload.name}-{args.size}")
    os.chdir(ROOT)
    wl.prepare(workload, args.size, workdir)
    argv_cli = workload.argv(args.size, args.seed, workdir)
    spans_path = os.path.join(workdir, "spans.json")

    runs = []
    walls = []
    first_hashes = None
    first_counts = None
    while True:
        elapsed = time.monotonic() - began
        traced = bool(args.trace) and len(runs) % 2 == 1
        have_both = not args.trace or len(runs) >= 2
        # start another CLI run only if a typical one still ends within --seconds
        if runs and ((have_both and elapsed + median(walls) > args.seconds) or elapsed >= DEADLINE_S):
            break
        wl.clear_outputs(workdir)
        report = run_child(argv_cli, traced, workload.reps(args.size), spans_path, timeout=170.0 - elapsed)
        report["traced"] = traced
        if "error" not in report:
            problems = wl.check(workload, args.size, workdir, ref, args.seed)
            report["hashes"] = wl.output_hashes(workdir)
            report["byte_equal_to_reference"] = wl.byte_equal(report["hashes"], ref, args.seed)
            report["output_bytes"] = wl.output_bytes(workdir)
            if first_hashes is None:
                first_hashes = report["hashes"]
            elif report["hashes"] != first_hashes:
                problems.append("output bytes differ from the first run's" + (" (traced run)" if traced else ""))
            if traced:
                counts = {k: v for k, v in report["layers"].items() if layer_unit(k) not in ("s", "fraction")}
                if first_counts is None:
                    first_counts = counts
                elif counts != first_counts:
                    problems.append("exact counters differ between traced runs")
            if problems:
                report["error"] = "; ".join(problems)
        runs.append(report)
        walls.append(time.monotonic() - began - elapsed)
    load_after = os.getloadavg()[0]

    failed = sum("error" in r for r in runs)
    for r in runs:
        if "error" in r:
            print(f"error: {r['error']}", file=sys.stderr)
    # runs whose CLI call completed are timed even when their outputs failed a check
    measured = [r for r in runs if "hashes" in r]
    plain = [r for r in measured if not r["traced"]]
    traced_runs = [r for r in measured if r["traced"]]
    if not plain or (args.trace and not traced_runs):
        print("error: no completed run to measure", file=sys.stderr)
        return 1

    if args.trace:
        # counters are equal in every traced run (checked above); times are medians
        metrics = {k: first_counts[k] if k in first_counts else median([r["layers"][k] for r in traced_runs])
                   for k in traced_runs[0]["layers"]}
        metrics["cli.output_bytes"] = traced_runs[0]["output_bytes"]
        metrics["trace.run_s"] = median([r["run_s"] for r in traced_runs])
        metrics["trace.overhead_s"] = metrics["trace.run_s"] - median([r["run_s"] for r in plain])
        units = {k: layer_unit(k) for k in metrics}
    else:
        work = workload.work(args.size)
        metrics = {
            "run_s": median([r["run_s"] for r in plain]),
            "throughput": median([work / r["run_s"] for r in plain]),
            "setup_s": median([r["setup_s"] for r in plain]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
            "ok_frac": (len(runs) - failed) / len(runs),
        }
        units = END_TO_END_UNITS

    record = {
        "workload": workload.name,
        "why": workload.why,
        "size": args.size,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "argv": argv_cli,
        "throughput_unit": f"{workload.work_unit}/s",
        "samples": {"untraced": len(plain), "traced": len(traced_runs), "attempted": len(runs)},
        "load_avg_1min": {"before": load_before, "after": load_after},
        "env": env,
        "byte_equal_to_reference": all(r["byte_equal_to_reference"] for r in measured),
        "runs": runs,
        "metrics": metrics,
    }
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"{workload.name}-{args.size}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"{workload.name}: {len(runs)} runs, {failed} failed, "
          f"byte-equal to reference: {record['byte_equal_to_reference']}, record: {path}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
