"""Golden bytes: small CLI runs whose data files must keep their SHA-256.

Each case runs one command in-process and compares the hash of every data
file it writes with the value recorded in ``GOLDEN``. Manifests are left
out because they embed the ``--out`` path. A change that moves bytes on
purpose updates this table and says which files moved and why.
"""

import hashlib

import pytest

from stackpmf.cli import main

ALL = "e,mm,r,G,sr,sG"

#: Non-monotone counts, so the shape fits and the stacked weights all differ.
COUNTS = "7 5 6 2 3 0 1 1\n"


def _wide_counts() -> bytes:
    """A counts file of 3004 tokens on CRLF lines of 17: a noisy decreasing
    ramp with ties, interior zeros and leading-zero tokens, ending in four
    zero counts that the reader strips with a warning. D = 3000 runs the
    leave-one-out pass past the dense kernel and writes long float lists."""
    tokens = []
    for j in range(3000):
        count = 0 if (j * 31) % 17 == 0 else (3000 - j) // 60 + (j * 7919) % 4
        tokens.append(f"00{count}" if j % 13 == 5 else str(count))
    tokens[-1] = "3"
    tokens += ["0"] * 4
    lines = [" ".join(tokens[i : i + 17]) for i in range(0, len(tokens), 17)]
    return ("\r\n".join(lines) + "\r\n").encode("ascii")


LOSS_M2 = ["simulate", "--model", "M2", "--n", 40, "--reps", 12, "--est", ALL,
           "--norm", "1,2,inf", "--svg", "--seed", 5]
LOSS_M2_FILES = {
    "losses.csv": "e1b51f0049939b1b338fc4b3c7c2c491b8161fbfefcd95ae86a7dc4b11de3196",
    "losses.svg": "cd16752801dcb12aa51f8a60ca4eba0a1a0706d330f1d4a5422ffebf16c08904",
}

#: case id -> (argv, {data file: sha256}). ``{counts}`` is replaced by the
#: counts file above, ``{wide}`` by the wide one and ``{theta}`` by an
#: ``estimate --kind sG`` of the first.
GOLDEN = {
    "loss-M2-workers-1": (LOSS_M2 + ["--workers", 1], LOSS_M2_FILES),
    "loss-M2-workers-2": (LOSS_M2 + ["--workers", 2], LOSS_M2_FILES),
    "loss-M7": (
        ["simulate", "--model", "M7", "--n", 300, "--reps", 10, "--est", ALL, "--norm", "1,2,inf", "--seed", 5],
        {"losses.csv": "e75e975e191ee9785f8b0e84eabe2a5afdbe88741e9495b09d075886141e13ed"},
    ),
    "risk-M4": (
        ["simulate", "--risk", "--model", "M4", "--ngrid", "10,100", "--reps", 8, "--est", ALL, "--seed", 6],
        {"risk.csv": "f34d71099d161e8ef95adc040a0888c7151a0e8972fd3910f09b6c888677b268"},
    ),
    "coverage-M1": (
        ["simulate", "--coverage", "--model", "M1", "--n", 100, "--reps", 12, "--est", ALL,
         "--alpha", 0.5, "--bandmc", 500, "--seed", 7],
        {"coverage.csv": "bd513cb78db55ba6b8bf8d8c9a186648a63914d85b6b424bc5627b6de3098f53"},
    ),
    "qq-M6": (
        ["qq", "--model", "M6", "--coord", 1, "--n", 60, "--reps", 20, "--est", ALL, "--seed", 8],
        {"qq.csv": "65cc0c9c42b370024c2d041c0b638ff45a49daeedfa34d49cac7eb56002d548b"},
    ),
    "risk-M7-workers-2": (
        ["simulate", "--risk", "--model", "M7", "--ngrid", "10,300", "--reps", 12, "--est", ALL, "--seed", 12,
         "--workers", 2],
        {"risk.csv": "0a95c0fd85f24e4d193c9db41cc3036b26daba6031f57f64636390bbe0765258"},
    ),
    "qq-M7": (
        ["qq", "--model", "M7", "--coord", 3, "--n", 300, "--reps", 20, "--est", ALL, "--seed", 13],
        {"qq.csv": "e8ae022d57daec60879df079e7259017d58e5bfed781ecff66cd2da87fdd2b3a"},
    ),
    # duplicate and reordered codes share one fit per code
    "loss-M2-duplicate-codes": (
        ["simulate", "--model", "M2", "--n", 40, "--reps", 12, "--est", "sG,e,sG", "--norm", "1,2,inf", "--seed", 14],
        {"losses.csv": "ce49cf93d8b6bbf2c2f034748f228b49c2a01a511742aa38941cd107de5cd333"},
    ),
    # n = 1: the stacked fits fall back to the empirical estimator
    "loss-M7-n-1": (
        ["simulate", "--model", "M7", "--n", 1, "--reps", 12, "--est", "sr,sG", "--norm", "1,2,inf", "--seed", 15],
        {"losses.csv": "f8483c9ff7af25d2640103a80e65155172d1aa19e616eadae720d4307be7abae"},
    ),
    # D near 2900: the 30 count vectors hold about 87 000 cells, more than one fitting round
    "loss-tri-dec-3000": (
        ["simulate", "--model", "tri-dec:3000", "--n", 500, "--reps", 30, "--est", ALL, "--norm", "1,2,inf",
         "--seed", 16],
        {"losses.csv": "229f981dde00afac6d83f34231ad7a81ab8ada2d3e2d5960801e63a9dfd103f3"},
    ),
    "estimate-sG-band": (
        ["estimate", "--input", "{counts}", "--kind", "sG", "--band", 0.1, "--mc", 500, "--seed", 9],
        {"estimate.json": "d0d8271c83c9ee4eb86cf66ba56c492e129fed5558b210799a60c0f1d1e86a7e"},
    ),
    "estimate-sr-band": (
        ["estimate", "--input", "{counts}", "--kind", "sr", "--band", 0.1, "--mc", 500, "--seed", 9],
        {"estimate.json": "b4699e4ac9f11c3fe41b721bbf046065aa44a33ddf6cf0a83e84c8a547e86a61"},
    ),
    "band-input": (
        ["band", "--input", "{counts}", "--kind", "G", "--alpha", 0.05, "--mc", 500, "--seed", 10],
        {"band.csv": "fcc1d9889fcaaafd65e65f10e7275043db11d7f1bed1fada01fa270f648d288a"},
    ),
    "estimate-sG-band-wide": (
        ["estimate", "--input", "{wide}", "--kind", "sG", "--band", 0.1, "--mc", 500, "--seed", 9],
        {"estimate.json": "a5cf06547eb7e0ad28acc206895953eaf819b7f29cd99a2ec734ec4d115f0ea2"},
    ),
    "estimate-G-wide": (
        ["estimate", "--input", "{wide}", "--kind", "G", "--seed", 9],
        {"estimate.json": "966eee120c6dc1eba58b91c6b9c5ee396960879d6d0b1e3c555d4da85feaa50c"},
    ),
    "band-input-sG-wide": (
        ["band", "--input", "{wide}", "--kind", "sG", "--alpha", 0.05, "--mc", 500, "--seed", 10],
        {"band.csv": "d163294d4addd8bad51d3198260bdf60e25b24a8b944b1159b99f9f5f528f35a"},
    ),
    "band-theta": (
        ["band", "--theta", "{theta}", "--alpha", 0.2, "--mc", 500, "--seed", 11],
        {"band.csv": "47816567fd358718154901e78ec4e060b9822886ea2457567202819f0a3d0417"},
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_data_files_keep_their_bytes(case, tmp_path):
    argv, files = GOLDEN[case]
    counts = tmp_path / "counts.txt"
    counts.write_text(COUNTS)
    wide = tmp_path / "wide.txt"
    wide.write_bytes(_wide_counts())
    theta = tmp_path / "theta" / "estimate.json"
    if "{theta}" in argv:
        assert main(["estimate", "--input", str(counts), "--kind", "sG", "--out", str(theta.parent)]) == 0
    fill = {"{counts}": str(counts), "{wide}": str(wide), "{theta}": str(theta)}
    out = tmp_path / "out"
    assert main([fill.get(str(a), str(a)) for a in argv] + ["--out", str(out)]) == 0
    assert {name: _sha256(out / name) for name in files} == files
