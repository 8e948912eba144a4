"""The four benchmark workloads: CLI arguments, inputs and output checks.

Each workload is one ``stackpmf`` command run with ``--workers 1``. Its
inputs come from the benchmark seed alone: the CLI receives
``--seed <seed mod CLI_SEEDS>`` (reference outputs are stored for each of
those CLI seeds in ``refs.json``) and, for ``band`` and ``estimate``, a
counts file ``x_j = j + 1`` written by :func:`prepare`.

Outputs are checked against ``refs.json``: coverage fractions exactly,
losses, band limits and estimates within ``REL_TOL``. The stacked
Grenander fit of increasing counts has the closed form
``beta / D + (1 - beta) * (j + 1) / n`` (the isotonic fit is flat), so every
coordinate of ``fit-wide`` and ``band-wide`` is checked against it with the
stored ``beta``. The SHA-256 of each output file is compared with the stored
one and reported, but a byte difference alone is not a failure.
"""

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

CLI_SEEDS = 32
REL_TOL = 1e-12
SUM_TOL = 1e-9
SIZES = ("tiny", "full")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    params: dict  # size -> parameters
    work_key: str  # parameter counted as one unit of work by ``throughput``
    work_unit: str

    def argv(self, size: str, seed: int, workdir: str) -> list[str]:
        """CLI arguments for ``seed`` with paths relative to the repository root."""
        p = self.params[size]
        cli_seed = str(seed % CLI_SEEDS)
        out = os.path.join(workdir, "out")
        common = ["--seed", cli_seed, "--workers", "1", "--out", out]
        if self.name == "coverage-M1":
            return ["simulate", "--coverage", "--model", "M1", "--n", "1000", "--est", "e,sG",
                    "--alpha", "0.05", "--bandmc", str(p["bandmc"]), "--reps", str(p["reps"])] + common
        if self.name == "loss-M7":
            return ["simulate", "--model", "M7", "--n", "300", "--est", "e,mm,r,G,sr,sG",
                    "--norm", "1,2,inf", "--reps", str(p["reps"])] + common
        counts = counts_path(workdir)
        if self.name == "band-wide":
            return ["band", "--input", counts, "--kind", "sG", "--alpha", "0.05",
                    "--mc", str(p["mc"])] + common
        return ["estimate", "--input", counts, "--kind", "sG"] + common

    def reps(self, size: str) -> int:
        """Replications per run (1 for the single-fit commands)."""
        return self.params[size].get("reps", 1)

    def work(self, size: str) -> int:
        return self.params[size][self.work_key]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "coverage-M1",
            "band coverage at small D: the sup-norm quantile (RNG, arithmetic, reduction) does nearly all the work",
            {"full": {"reps": 40, "bandmc": 100_000}, "tiny": {"reps": 2, "bandmc": 1000}},
            "reps", "replications",
        ),
        Workload(
            "loss-M7",
            "many small fits at D~28 with no band: truncation, sampling and per-call overhead of all six estimators",
            {"full": {"reps": 1000}, "tiny": {"reps": 20}},
            "reps", "replications",
        ),
        Workload(
            "band-wide",
            "sup-norm quantile at D=5001, where each chunk is 16.8 MB per array and memory traffic dominates",
            {"full": {"d": 5001, "mc": 20_000}, "tiny": {"d": 201, "mc": 1000}},
            "mc", "sup-norm draws",
        ),
        Workload(
            "fit-wide",
            "one stacked Grenander fit at D=200001: the O(D log D) leave-one-out pass, PAV and file I/O at scale",
            {"full": {"d": 200_001}, "tiny": {"d": 2001}},
            "d", "support points",
        ),
    )
}


def counts_path(workdir: str) -> str:
    return os.path.join(workdir, "counts.txt")


def prepare(workload: Workload, size: str, workdir: str) -> None:
    """Create the work directory and the counts file the workload reads."""
    os.makedirs(os.path.join(workdir, "out"), exist_ok=True)
    d = workload.params[size].get("d")
    if d is not None:
        with open(counts_path(workdir), "w", encoding="ascii") as fh:
            fh.write("\n".join(str(j + 1) for j in range(d)) + "\n")


def clear_outputs(workdir: str) -> None:
    out = os.path.join(workdir, "out")
    for name in os.listdir(out):
        os.remove(os.path.join(out, name))


def output_hashes(workdir: str) -> dict:
    out = os.path.join(workdir, "out")
    hashes = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


def output_bytes(workdir: str) -> int:
    out = os.path.join(workdir, "out")
    return sum(os.path.getsize(os.path.join(out, name)) for name in os.listdir(out))


# ---------------------------------------------------------------------------
# Fingerprints: the values stored in refs.json and compared on every run


def _read_rows(path: str) -> tuple[list[str], list[dict]]:
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    comments = [line[2:] for line in lines if line.startswith("# ")]
    rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
    return comments, rows


def fingerprint(workload: Workload, workdir: str) -> dict:
    """The checked values of one run's outputs."""
    out = os.path.join(workdir, "out")
    if workload.name == "coverage-M1":
        _, rows = _read_rows(os.path.join(out, "coverage.csv"))
        return {"coverage": {r["estimator"]: float(r["coverage"]) for r in rows}}
    if workload.name == "loss-M7":
        _, rows = _read_rows(os.path.join(out, "losses.csv"))
        columns: dict = {}
        for r in rows:
            columns.setdefault(f"{r['estimator']}/{r['norm']}", []).append(float(r["loss"]))
        return {"losses": {k: _summary(np.array(v)) for k, v in columns.items()},
                "rows": len(rows)}
    if workload.name == "band-wide":
        return {"q_hat": _read_band(out)["q_hat"]}
    return {}


def _summary(v: np.ndarray) -> list[float]:
    """Sum, sum of squares, minimum and maximum of one loss column."""
    return [math.fsum(v), math.fsum(v * v), float(v.min()), float(v.max())]


def _read_band(out: str) -> dict:
    comments, rows = _read_rows(os.path.join(out, "band.csv"))
    fields = dict(item.split("=", 1) for item in comments[0].split())
    return {
        "q_hat": float(fields["q_hat"]),
        "n": int(fields["n"]),
        "lower": np.array([float(r["lower"]) for r in rows]),
        "upper": np.array([float(r["upper"]) for r in rows]),
    }


# ---------------------------------------------------------------------------
# Checks


def _close(got, ref, scale=0.0) -> bool:
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if got.shape != ref.shape:
        return False
    bound = REL_TOL * np.maximum(np.maximum(np.abs(got), np.abs(ref)), scale)
    return bool(np.all(np.abs(got - ref) <= bound))


def _closed_form(beta: float, d: int) -> np.ndarray:
    """Stacked Grenander estimate of the counts ``x_j = j + 1``, ``j < d``."""
    n = d * (d + 1) // 2
    return beta / d + (1.0 - beta) * np.arange(1, d + 1) / n


def check(workload: Workload, size: str, workdir: str, ref: dict, seed: int) -> list[str]:
    """Problems with one run's outputs; an empty list means they are correct."""
    try:
        return _problems(workload, size, workdir, ref, seed)
    except (OSError, KeyError, ValueError, IndexError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


def _problems(workload: Workload, size: str, workdir: str, ref: dict, seed: int) -> list[str]:
    expected = ref["seeds"][str(seed % CLI_SEEDS)]
    got = fingerprint(workload, workdir)
    out = os.path.join(workdir, "out")
    p = workload.params[size]
    problems = []
    if workload.name == "coverage-M1":
        if got != {"coverage": expected["coverage"]}:
            problems.append(f"coverage {got['coverage']} != {expected['coverage']}")
    elif workload.name == "loss-M7":
        if got["rows"] != expected["rows"] or got["losses"].keys() != expected["losses"].keys():
            problems.append("loss table has other rows than the reference")
        else:
            for key, summary in expected["losses"].items():
                if not _close(got["losses"][key], summary):
                    problems.append(f"losses {key}: {got['losses'][key]} != {summary}")
    elif workload.name == "band-wide":
        b = _read_band(out)
        d = p["d"]
        n = d * (d + 1) // 2
        half = expected["q_hat"] / math.sqrt(n)
        center = _closed_form(ref["beta"], d)
        if b["n"] != n:
            problems.append(f"band n={b['n']}, expected {n}")
        if not _close(b["q_hat"], expected["q_hat"]):
            problems.append(f"q_hat {b['q_hat']!r} != {expected['q_hat']!r}")
        if not _close(b["upper"], center + half, scale=half):
            problems.append("upper band limits differ from the reference")
        if not _close(b["lower"], np.maximum(center - half, 0.0), scale=half):
            problems.append("lower band limits differ from the reference")
        if not np.all(b["lower"] <= b["upper"]):
            problems.append("lower > upper somewhere")
        if abs(math.fsum(b["upper"] - b["q_hat"] / math.sqrt(n)) - 1.0) > SUM_TOL:
            problems.append("band center does not sum to 1")
    else:
        with open(os.path.join(out, "estimate.json"), encoding="utf-8") as fh:
            payload = json.load(fh)
        beta = payload["beta_hat"]
        estimate = np.array(payload["estimate"])
        if not 0.0 <= beta <= 1.0:
            problems.append(f"beta_hat {beta!r} outside [0, 1]")
        if not _close(beta, ref["beta"]):
            problems.append(f"beta_hat {beta!r} != {ref['beta']!r}")
        if not _close(estimate, _closed_form(ref["beta"], p["d"])):
            problems.append("estimate differs from the reference")
        if abs(math.fsum(estimate) - 1.0) > SUM_TOL:
            problems.append("estimate does not sum to 1")
    return problems


def byte_equal(hashes: dict, ref: dict, seed: int) -> bool:
    return hashes == ref["seeds"][str(seed % CLI_SEEDS)]["sha256"]
