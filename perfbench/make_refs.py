"""Regenerate ``refs.json``, the reference outputs the benchmark checks against.

Usage, from the repository root: ``python3 perfbench/make_refs.py [workload ...]``.

Runs the named workloads (default: all) at both sizes for each CLI seed ``0 .. CLI_SEEDS-1``
through ``stackpmf.cli.main`` in this process and stores the checked values
and the SHA-256 of every output file. For the two workloads on the counts
``x_j = j + 1`` it also stores the stacked Grenander weight ``beta``, from
which their estimate follows in closed form. Regenerate only when a change
is meant to alter outputs, and say which values moved.
"""

import json
import os
import sys

import numpy as np

import workloads as wl
from run import ROOT, WORK

sys.path.insert(0, os.path.join(ROOT, "src"))

from stackpmf import cli  # noqa: E402
from stackpmf.estimators import GRENANDER, cv_beta  # noqa: E402
from stackpmf.models import FrequencyData  # noqa: E402


def main() -> int:
    os.chdir(ROOT)
    names = sys.argv[1:] or list(wl.WORKLOADS)
    path = os.path.join(ROOT, "perfbench", "refs.json")
    refs = {"cli_seeds": wl.CLI_SEEDS}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            refs = json.load(fh)
    for size in wl.SIZES:
        refs.setdefault(size, {})
        for workload in (wl.WORKLOADS[name] for name in names):
            workdir = os.path.join(WORK, f"{workload.name}-{size}")
            wl.prepare(workload, size, workdir)
            entry = {"seeds": {}}
            d = workload.params[size].get("d")
            if d is not None:
                entry["beta"] = cv_beta(FrequencyData(np.arange(1, d + 1)), GRENANDER)[0]
            for seed in range(wl.CLI_SEEDS):
                wl.clear_outputs(workdir)
                if cli.main(workload.argv(size, seed, workdir)) != 0:
                    raise RuntimeError(f"{workload.name} {size} seed {seed} failed")
                fp = wl.fingerprint(workload, workdir)
                fp["sha256"] = wl.output_hashes(workdir)
                entry["seeds"][str(seed)] = fp
            refs[size][workload.name] = entry
            # the last seed's outputs are still on disk: check them as a run would
            problems = wl.check(workload, size, workdir, entry, wl.CLI_SEEDS - 1)
            if problems:
                raise RuntimeError(f"{workload.name} {size}: {problems}")
            print(f"{size} {workload.name}: {wl.CLI_SEEDS} seeds", file=sys.stderr)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
