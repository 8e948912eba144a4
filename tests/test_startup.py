"""Importing stackpmf and running each command load no scipy module and not
``numpy.ma``: numpy is the package's only runtime dependency.

The Poisson and negative-binomial pmfs and their truncation are
scipy-free, so rejecting ``pois:1e12`` and running ``pois:3e6``, a rate
far past M7's, or ``nbin:3,0.5`` load no scipy module. ``qq`` takes its
normal quantiles from the standard library's ``statistics.NormalDist``.
``isotonic_decreasing`` projects a float vector with the package's own
pool-adjacent-violators pass, the one the estimators fit counts with, so
it loads no watched module. ``numpy.ma`` is loaded lazily by some numpy
functions (``np.unique``) and by scipy.

Importing stackpmf and its CLI builds none of the tables of the float
formatter that writes ``estimate.json``, and the formatter loads no module
beyond itself; an ``estimate`` run builds them. So their build is part of
a command's run, not of its startup.

Importing stackpmf and fitting a counts file without a band load neither
``numpy.random`` (nor OpenSSL's ``_hashlib``, which it pulls in through
``secrets``) nor ``multiprocessing``: the first random stream loads
``numpy.random``, and only a run of two or more worker blocks loads
``multiprocessing``: two workers on one round of replications run in this
process, and on two rounds they fork. Each check runs in a fresh
interpreter, because the test process itself has all of them loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import stackpmf

SRC = str(Path(stackpmf.__file__).resolve().parent.parent)

SCRIPT = """
import json, sys
import stackpmf
before = set(sys.modules)
from stackpmf import _floatrepr
floatrepr_modules = sorted(set(sys.modules) - before)
from stackpmf import cli, isotonic_decreasing, ParameterError, parse_model

TABLES = (_floatrepr._scales, _floatrepr._digit_groups, _floatrepr._powers_of_ten, _floatrepr._templates)

def tables():
    return [table.__name__ for table in TABLES if table.cache_info().currsize]

WATCHED = ("scipy", "scipy.special", "scipy.stats", "scipy.optimize", "numpy.ma", "numpy.random", "_hashlib",
           "multiprocessing")

def loaded():
    return [name for name in WATCHED if name in sys.modules]

out = sys.argv[1]
common = ["--seed", "3", "--out", out]
counts = out + "/counts.txt"
with open(counts, "w") as fh:
    fh.write("\\n".join(str(7 - j % 7) for j in range(300)) + "\\n")
report = {"import": loaded(), "floatrepr modules": floatrepr_modules, "tables at import": tables()}
isotonic_decreasing([1.0, 3.0, 2.0])
report["isotonic_decreasing"] = loaded()
try:
    parse_model("pois:1e12")
    report["pois:1e12"] = "accepted"
except ParameterError:
    report["pois:1e12"] = loaded()
runs = {
    "estimate sG": ["estimate", "--input", counts, "--kind", "sG"],
    "band input": ["band", "--input", counts, "--kind", "sG", "--alpha", "0.1", "--mc", "200"],
    "M1 coverage": ["simulate", "--model", "M1", "--n", "40", "--reps", "3", "--coverage", "--bandmc", "200"],
    "M7 loss": ["simulate", "--model", "M7", "--n", "40", "--reps", "3", "--est", "e,r,G,mm,sr,sG"],
    "pois:3e6 loss": ["simulate", "--model", "pois:3e6", "--n", "40", "--reps", "1", "--est", "e"],
    "nbin loss": ["simulate", "--model", "nbin:3,0.5", "--n", "40", "--reps", "2"],
    "M7 qq": ["qq", "--model", "M7", "--coord", "2", "--n", "40", "--reps", "5"],
}
for name, argv in runs.items():
    code = cli.main(argv + common)
    report[name] = [code] + loaded()
    if name == "estimate sG":
        report["tables after estimate"] = tables()
code = cli.main(["simulate", "--model", "M1", "--n", "40", "--reps", "2", "--workers", "2"] + common)
report["M1 loss, 2 workers, one round"] = [code] + loaded()
# a round of tri-dec:3000 is 2**16 // 3001 = 21 replications
code = cli.main(["simulate", "--model", "tri-dec:3000", "--n", "40", "--reps", "22", "--est", "e", "--workers", "2"]
                + common)
report["tri-dec:3000 loss, 2 workers, two rounds"] = [code] + loaded()
print(json.dumps(report))
"""


def test_no_command_loads_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env, capture_output=True,
                          text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    # [exit code,] the watched modules loaded so far
    assert report == {
        "import": [],
        "floatrepr modules": ["stackpmf._floatrepr"],
        "tables at import": [],
        "tables after estimate": ["_scales", "_digit_groups", "_powers_of_ten", "_templates"],
        "isotonic_decreasing": [],
        "pois:1e12": [],
        "estimate sG": [0],
        "band input": [0, "numpy.random", "_hashlib"],
        "M1 coverage": [0, "numpy.random", "_hashlib"],
        "M7 loss": [0, "numpy.random", "_hashlib"],
        "pois:3e6 loss": [0, "numpy.random", "_hashlib"],
        "M7 qq": [0, "numpy.random", "_hashlib"],
        "nbin loss": [0, "numpy.random", "_hashlib"],
        "M1 loss, 2 workers, one round": [0, "numpy.random", "_hashlib"],
        "tri-dec:3000 loss, 2 workers, two rounds": [0, "numpy.random", "_hashlib", "multiprocessing"],
    }
