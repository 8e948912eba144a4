"""Importing stackpmf, running Poisson and uniform models, and fitting and
banding a counts file load neither ``scipy.stats`` nor ``scipy.optimize``.

``scipy.stats`` takes most of the import time of ``stackpmf.cli``, so only
the negative-binomial branches of :mod:`stackpmf.models` import it.
``scipy.optimize`` is imported only by ``shape.isotonic_decreasing`` on
float input: the estimators fit counts with their own integer PAVA. Each
check runs in a fresh interpreter, because the test process itself has
both loaded.
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
from stackpmf import cli, isotonic_decreasing

def loaded():
    return ["scipy.stats" in sys.modules, "scipy.optimize" in sys.modules]

out = sys.argv[1]
common = ["--seed", "3", "--out", out]
counts = out + "/counts.txt"
with open(counts, "w") as fh:
    fh.write("\\n".join(str(7 - j % 7) for j in range(300)) + "\\n")
runs = {
    "estimate sG": ["estimate", "--input", counts, "--kind", "sG"],
    "band input": ["band", "--input", counts, "--kind", "sG", "--alpha", "0.1", "--mc", "200"],
    "M1 coverage": ["simulate", "--model", "M1", "--n", "40", "--reps", "3", "--coverage", "--bandmc", "200"],
    "M7 loss": ["simulate", "--model", "M7", "--n", "40", "--reps", "3", "--est", "e,r,G,mm,sr,sG"],
    "M7 qq": ["qq", "--model", "M7", "--coord", "2", "--n", "40", "--reps", "5"],
}
report = {"import": loaded()}
for name, argv in runs.items():
    code = cli.main(argv + common)
    report[name] = [code] + loaded()
isotonic_decreasing([1.0, 3.0, 2.0])
report["isotonic_decreasing"] = loaded()
code = cli.main(["simulate", "--model", "nbin:3,0.5", "--n", "40", "--reps", "2"] + common)
report["nbin loss"] = [code] + loaded()
print(json.dumps(report))
"""


def test_scipy_stats_loads_only_for_negative_binomial_models(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env, capture_output=True,
                          text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    # [exit code,] scipy.stats loaded, scipy.optimize loaded
    assert report == {
        "import": [False, False],
        "estimate sG": [0, False, False],
        "band input": [0, False, False],
        "M1 coverage": [0, False, False],
        "M7 loss": [0, False, False],
        "M7 qq": [0, False, False],
        "isotonic_decreasing": [False, True],
        "nbin loss": [0, True, True],
    }
