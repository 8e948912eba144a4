"""Golden bytes: small CLI runs whose data files must keep their SHA-256.

Each case runs one command in-process and compares the hash of every data
file it writes with the value recorded in ``GOLDEN``. Manifests are left
out because they embed the ``--out`` path. A change that moves bytes on
purpose updates this table and says which files moved and why.
"""

import hashlib
import multiprocessing
from unittest import mock

import pytest

from stackpmf import harness
from stackpmf.cli import main

ALL = "e,mm,r,G,sr,sG"

#: Non-monotone counts, so the shape fits and the stacked weights all differ.
COUNTS = "7 5 6 2 3 0 1 1\n"


def _wide_counts() -> bytes:
    """A counts file of 3004 tokens on CRLF lines of 17: a noisy decreasing
    ramp with ties, interior zeros and leading-zero tokens, ending in four
    zero counts that the reader strips with a warning. D = 3000 runs the
    leave-one-out pass over thousands of points and writes long float lists."""
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
LOSS_M7 = ["simulate", "--model", "M7", "--n", 300, "--reps", 10, "--est", ALL, "--norm", "1,2,inf", "--seed", 5]
RISK_M4 = ["simulate", "--risk", "--model", "M4", "--ngrid", "10,100", "--reps", 8, "--est", ALL, "--seed", 6]
COVERAGE_M1 = ["simulate", "--coverage", "--model", "M1", "--n", 100, "--reps", 12, "--est", ALL,
               "--alpha", 0.5, "--bandmc", 500, "--seed", 7]
QQ_M7 = ["qq", "--model", "M7", "--coord", 3, "--n", 300, "--reps", 20, "--est", ALL, "--seed", 13]
BAND_INPUT = ["band", "--input", "{counts}", "--kind", "G", "--alpha", 0.05, "--mc", 500, "--seed", 10]
LOSS_TRI_DEC = ["simulate", "--model", "tri-dec:3000", "--n", 500, "--reps", 30, "--est", ALL, "--norm", "1,2,inf",
                "--seed", 16]
LOSS_TRI_DEC_FILES = {"losses.csv": "229f981dde00afac6d83f34231ad7a81ab8ada2d3e2d5960801e63a9dfd103f3"}

#: case id -> (argv, {data file: sha256}). ``{counts}`` is replaced by the
#: counts file above, ``{wide}`` by the wide one and ``{theta}`` by an
#: ``estimate --kind sG`` of the first.
GOLDEN = {
    "loss-M2-workers-1": (LOSS_M2 + ["--workers", 1], LOSS_M2_FILES),
    "loss-M2-workers-2": (LOSS_M2 + ["--workers", 2], LOSS_M2_FILES),
    "loss-M7": (LOSS_M7, {"losses.csv": "14d20fbe4b0c742021c6ebe5f907a4f4d16066ff6ea5fc22126bbc658d7396a0"}),
    "loss-M7-json": (
        LOSS_M7 + ["--format", "json"],
        {"losses.json": "2b143cde6c37003d8e2e28e87d154e9058f190284b944a0c418b6e984441e552"},
    ),
    "risk-M4": (RISK_M4, {"risk.csv": "f34d71099d161e8ef95adc040a0888c7151a0e8972fd3910f09b6c888677b268"}),
    "risk-M4-json": (
        RISK_M4 + ["--format", "json"],
        {"risk.json": "c3ee89c2cf7e5e942b4b4d87a254f8966919bd3ec63f58b9cabdf0e44611ac2b"},
    ),
    "coverage-M1": (
        COVERAGE_M1, {"coverage.csv": "bd513cb78db55ba6b8bf8d8c9a186648a63914d85b6b424bc5627b6de3098f53"},
    ),
    "coverage-M1-json": (
        COVERAGE_M1 + ["--format", "json"],
        {"coverage.json": "ccd6a79b84580a88b0d470e68f0738674c402f152fcbd7e6ea5cad1ddba2c79d"},
    ),
    # the model field holds a comma, so csv quotes it
    "coverage-nbin-quoted": (
        ["simulate", "--coverage", "--model", "nbin:7,0.4", "--n", 50, "--reps", 6, "--est", ALL,
         "--alpha", 0.5, "--bandmc", 500, "--seed", 17],
        {"coverage.csv": "6bca06b24cfdd01cf686f350b44e78b65c3e82da774ac7dc2d6c395e1ffd4740"},
    ),
    "qq-M6": (
        ["qq", "--model", "M6", "--coord", 1, "--n", 60, "--reps", 20, "--est", ALL, "--seed", 8],
        {"qq.csv": "8c2c81ee6f57c59ef57bb21023d88a0dce06eed161ec565d6910df63bc1f0827"},
    ),
    "risk-M7-workers-2": (
        ["simulate", "--risk", "--model", "M7", "--ngrid", "10,300", "--reps", 12, "--est", ALL, "--seed", 12,
         "--workers", 2],
        {"risk.csv": "078c8f8fd97e488f83365b1e036db34ee2be67498cb1b63da7074607a2660bbc"},
    ),
    "qq-M7": (QQ_M7, {"qq.csv": "29af14483e94012fd9e0ce47dcbb9ac6b16ff67feb7369f486b743f1a2dab645"}),
    "qq-M7-json": (
        QQ_M7 + ["--format", "json"],
        {"qq.json": "4d95d817fb47deec30b6d5d7896166e065bac05716b40d4e7995a32dd659b279"},
    ),
    # duplicate and reordered codes share one fit per code
    "loss-M2-duplicate-codes": (
        ["simulate", "--model", "M2", "--n", 40, "--reps", 12, "--est", "sG,e,sG", "--norm", "1,2,inf", "--seed", 14],
        {"losses.csv": "ce49cf93d8b6bbf2c2f034748f228b49c2a01a511742aa38941cd107de5cd333"},
    ),
    # n = 1: the stacked fits fall back to the empirical estimator
    "loss-M7-n-1": (
        ["simulate", "--model", "M7", "--n", 1, "--reps", 12, "--est", "sr,sG", "--norm", "1,2,inf", "--seed", 15],
        {"losses.csv": "7be4649fae98ccb65415fbce2069bfffd62526393ffbb8255ee675d52e67ad49"},
    ),
    # D near 2900: the 30 count vectors hold about 87 000 cells, more than one fitting round
    "loss-tri-dec-3000": (LOSS_TRI_DEC, LOSS_TRI_DEC_FILES),
    # rounds of 21 replications: two worker blocks, so the run forks
    "loss-tri-dec-3000-workers-2": (LOSS_TRI_DEC + ["--workers", 2], LOSS_TRI_DEC_FILES),
    "estimate-sG-band": (
        ["estimate", "--input", "{counts}", "--kind", "sG", "--band", 0.1, "--mc", 500, "--seed", 9],
        {"estimate.json": "d0d8271c83c9ee4eb86cf66ba56c492e129fed5558b210799a60c0f1d1e86a7e"},
    ),
    "estimate-sr-band": (
        ["estimate", "--input", "{counts}", "--kind", "sr", "--band", 0.1, "--mc", 500, "--seed", 9],
        {"estimate.json": "850ccd82e621a435a28de3c60898d4117754d53943875d2a688bf2f729529346"},
    ),
    "band-input": (BAND_INPUT, {"band.csv": "a52af91de81b5b8d59fecced20065aa25022de5d8d55ca6c9f21e305cb935a97"}),
    "band-input-json": (
        BAND_INPUT + ["--format", "json"],
        {"band.json": "78673a9bc4426590f20490a04d9c09833d91c124f2b1b2bf17eaec43f5bb74c2"},
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
        {"band.csv": "466dc7141d01ddd888ee5f61f9d7755760dd70f8f46a546b564ea0cd627f06e4"},
    ),
}


#: case id -> ``harness.STACK_CELLS`` for a run that must fork. At 64 cells
#: a round holds 5 replications at M2 and 1 at M7, so each of these runs
#: spans several rounds and its two workers get two or more blocks; the
#: forked workers inherit the patched round size.
FORKED = {"loss-M2-workers-2": 64, "risk-M7-workers-2": 64}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_data_files_keep_their_bytes(case, tmp_path, monkeypatch):
    argv, files = GOLDEN[case]
    if case in FORKED:
        monkeypatch.setattr(harness, "STACK_CELLS", FORKED[case])
    counts = tmp_path / "counts.txt"
    counts.write_text(COUNTS)
    wide = tmp_path / "wide.txt"
    wide.write_bytes(_wide_counts())
    theta = tmp_path / "theta" / "estimate.json"
    if "{theta}" in argv:
        assert main(["estimate", "--input", str(counts), "--kind", "sG", "--out", str(theta.parent)]) == 0
    fill = {"{counts}": str(counts), "{wide}": str(wide), "{theta}": str(theta)}
    out = tmp_path / "out"
    with mock.patch("multiprocessing.get_context", wraps=multiprocessing.get_context) as forks:
        assert main([fill.get(str(a), str(a)) for a in argv] + ["--out", str(out)]) == 0
    if case in FORKED:
        assert forks.call_count >= 1
    assert {name: _sha256(out / name) for name in files} == files
