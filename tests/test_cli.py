"""End-to-end tests of the command-line interface."""

import argparse
import contextlib
import csv
import io
import json
import math
import multiprocessing
import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stackpmf
from oracles import reference_csv_table, reference_json_table, reference_read_counts
from stackpmf import cli, harness
from stackpmf.cli import CountsParseError, build_parser, main
from stackpmf.confidence import MAX_QUANTILE_DRAWS, MIN_QUANTILE_DRAWS
from stackpmf.harness import MAX_REPS
from stackpmf.models import MAX_COUNT, MAX_SUPPORT


def run(args):
    return main([str(a) for a in args])


def write_counts(tmp_path, text, name="counts.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return [line for line in fh]


def run_forked(args):
    """``run(args)``, asserting that its replications went through a worker pool."""
    with mock.patch("multiprocessing.get_context", wraps=multiprocessing.get_context) as forks:
        code = run(args)
    assert forks.call_count >= 1
    return code


class TestEstimate:
    def test_stacked_grenander(self, tmp_path):
        counts = write_counts(tmp_path, "1 2\n")
        assert run(["estimate", "--input", counts, "--kind", "sG", "--out", tmp_path]) == 0
        payload = json.loads((tmp_path / "estimate.json").read_text())
        assert payload["beta_hat"] == 1.0
        assert payload["estimate"] == [0.5, 0.5]
        assert (tmp_path / "estimate.manifest.json").exists()

    def test_decreasing_counts_have_zero_weight(self, tmp_path):
        counts = write_counts(tmp_path, "3 2 1\n")
        assert run(["estimate", "--input", counts, "--kind", "sG", "--out", tmp_path]) == 0
        payload = json.loads((tmp_path / "estimate.json").read_text())
        assert payload["beta_hat"] == 0.0

    def test_empirical_point_mass(self, tmp_path):
        counts = write_counts(tmp_path, "5\n")
        assert run(["estimate", "--input", counts, "--kind", "e", "--out", tmp_path]) == 0
        payload = json.loads((tmp_path / "estimate.json").read_text())
        assert payload["estimate"] == [1.0]

    def test_negative_count_is_data_error_with_line(self, tmp_path, capsys):
        counts = write_counts(tmp_path, "1 2\n-3\n")
        assert run(["estimate", "--input", counts, "--kind", "e", "--out", tmp_path]) == 3
        assert "line 2" in capsys.readouterr().err

    def test_non_integer_count_is_data_error(self, tmp_path):
        counts = write_counts(tmp_path, "1 oops\n")
        assert run(["estimate", "--input", counts, "--kind", "e", "--out", tmp_path]) == 3

    @pytest.mark.parametrize(
        "text",
        ["1_0 2\n", "+5 2\n", "\u0663 2\n", "\uff11\uff12\n"],
        ids=["digit-group-underscore", "plus-sign", "arabic-indic-digit", "fullwidth-digits"],
    )
    def test_non_ascii_digit_count_is_data_error(self, tmp_path, capsys, text):
        counts = tmp_path / "counts.txt"
        counts.write_text(text, encoding="utf-8")
        assert run(["estimate", "--input", counts, "--kind", "e", "--out", tmp_path]) == 3
        assert "line 1" in capsys.readouterr().err
        assert not (tmp_path / "estimate.json").exists()

    def test_all_zero_counts_rejected(self, tmp_path):
        counts = write_counts(tmp_path, "0 0 0\n")
        assert run(["estimate", "--input", counts, "--kind", "e", "--out", tmp_path]) == 3

    def test_trailing_zeros_stripped_with_warning(self, tmp_path, capsys):
        counts = write_counts(tmp_path, "1 2 0 0\n")
        assert run(["estimate", "--input", counts, "--kind", "e", "--out", tmp_path]) == 0
        assert "trailing zero" in capsys.readouterr().err
        payload = json.loads((tmp_path / "estimate.json").read_text())
        assert len(payload["estimate"]) == 2

    def test_missing_file_is_data_error(self, tmp_path):
        assert run(["estimate", "--input", tmp_path / "absent.txt", "--kind", "e", "--out", tmp_path]) == 3

    @pytest.mark.parametrize(
        "text",
        [f"{2**63}\n", f"{2**62} {2**62} {2**62}\n", f"{2**62}\n" * 5],
        ids=["one-count-2p63", "three-counts-2p62", "five-counts-2p62"],
    )
    def test_total_past_int64_is_data_error(self, tmp_path, capsys, text):
        counts = write_counts(tmp_path, text)
        assert run(["estimate", "--input", counts, "--kind", "e", "--out", tmp_path]) == 3
        assert "total count exceeds" in capsys.readouterr().err

    def test_non_utf8_file_is_data_error(self, tmp_path, capsys):
        counts = tmp_path / "counts.txt"
        counts.write_bytes(b"\xff\xfe1 2")
        assert run(["estimate", "--input", counts, "--kind", "e", "--out", tmp_path]) == 3
        assert str(counts) in capsys.readouterr().err
        assert not (tmp_path / "estimate.json").exists()

    def test_count_past_the_int_digit_limit_is_data_error(self, tmp_path, capsys):
        counts = write_counts(tmp_path, "1 2\n" + "9" * 5000 + "\n")
        assert run(["estimate", "--input", counts, "--kind", "e", "--out", tmp_path]) == 3
        assert "line 2: total count exceeds" in capsys.readouterr().err
        assert not (tmp_path / "estimate.json").exists()

    def test_leading_zeros_past_the_int_digit_limit_are_kept(self, tmp_path):
        counts = write_counts(tmp_path, "0" * 5000 + "3 1\n")
        assert run(["estimate", "--input", counts, "--kind", "e", "--out", tmp_path]) == 0
        assert json.loads((tmp_path / "estimate.json").read_text())["estimate"] == [0.75, 0.25]

    def test_total_at_int64_max_is_accepted(self, tmp_path):
        counts = write_counts(tmp_path, f"{2**62} {2**62 - 1}\n")
        assert run(["estimate", "--input", counts, "--kind", "e", "--out", tmp_path]) == 0
        assert json.loads((tmp_path / "estimate.json").read_text())["n"] == 2**63 - 1

    def test_usage_error_without_kind(self, tmp_path):
        counts = write_counts(tmp_path, "1 2\n")
        assert run(["estimate", "--input", counts, "--out", tmp_path]) == 2


_plain_tokens = st.one_of(st.integers(0, 12).map(str), st.integers(0, 12).map(lambda v: f"000{v}"))

#: Tokens that are no counts to the reader, of 18 to 4301 digits (int()'s
#: limit is 4300), and near MAX_COUNT.
_odd_tokens = st.one_of(
    st.sampled_from(["+5", "1_0", "-3", "\u0663", "\uff11\uff12", "5e3", "0x1f", "1.0"]),
    st.sampled_from([18, 19, 20, 4301]).flatmap(
        lambda k: st.sampled_from(["9" * k, "1" + "0" * (k - 1), "0" * (k - 1) + "7"])),
    st.sampled_from([MAX_COUNT, MAX_COUNT - 1, MAX_COUNT + 1, MAX_COUNT // 2, MAX_COUNT // 3 + 1]).map(str),
)

#: The whitespace bytes.split knows, and a lone CR and CRLF.
_ascii_separators = st.sampled_from([" ", "\t", "\n", "\r\n", "\r", "\x0b", "\x0c", "  \n"])

#: Separators only str.split knows: \x1c-\x1f, NBSP and the line separator.
_odd_separators = st.sampled_from(["\x1c", "\x1d", "\x1e", "\x1f", "\xa0", "\u2028"])


@st.composite
def counts_files(draw) -> bytes:
    """Counts files of up to 8 plain tokens and 0-3 trailing zeros on ASCII
    whitespace, then perhaps mutated: one odd token or separator, a UTF-8
    byte order mark, or an invalid UTF-8 byte."""
    tokens = draw(st.lists(_plain_tokens, max_size=8)) + ["0"] * draw(st.integers(0, 3))
    seps = draw(st.lists(_ascii_separators, min_size=len(tokens) + 2, max_size=len(tokens) + 2))
    mutation = draw(st.sampled_from([None, None, "token", "separator", "bom", "byte"]))
    if mutation == "token":
        tokens.insert(draw(st.integers(0, len(tokens))), draw(_odd_tokens))
    elif mutation == "separator":
        seps[draw(st.integers(0, len(seps) - 1))] = draw(_odd_separators)
    data = (seps[0] + "".join(t + s for t, s in zip(tokens, seps[1:]))).encode("utf-8")
    if mutation == "bom":
        data = b"\xef\xbb\xbf" + data
    elif mutation == "byte":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80"])) + data[at:]
    return data


def _read_outcome(read, *args):
    """``(dtype, counts bytes, warnings)`` of a read, or the message and line of its error."""
    try:
        counts, warnings = read(*args)
    except CountsParseError as exc:
        return str(exc), exc.line
    return counts.dtype.str, counts.tobytes(), warnings


class TestReadCounts:
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(counts_files())
    @example(b"")
    @example(b" \r\n\t")
    @example(b"0 0\n0\n")
    @example(b"3 0 0\r\n")
    @example(f"{MAX_COUNT}\n".encode())
    @example(f"{MAX_COUNT - 1} 1\n".encode())
    @example(f"{MAX_COUNT} 1\n".encode())
    @example(f"{MAX_COUNT // 2} {MAX_COUNT // 2 + 1}\n".encode())
    @example(f"{MAX_COUNT // 2 + 1} {MAX_COUNT // 2 + 1}\n".encode())
    @example(f"{2**63 - 1} {2**63 - 1} 2".encode())
    def test_numpy_path_and_token_scan_agree(self, data):
        # the numpy path either declines or gives the scan's counts; the
        # reader as a whole gives the text-mode reader's counts, warnings,
        # or message and line, and the CLI its exit code
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "counts.txt"
            path.write_bytes(data)
            scan = _read_outcome(cli._scan_counts, data, str(path))
            plain = cli._convert_plain_counts(data)
            if plain is not None:
                assert _read_outcome(lambda: plain) == scan
            reference = _read_outcome(reference_read_counts, str(path))
            assert _read_outcome(cli.read_counts, str(path)) == scan == reference
            code = main(["estimate", "--input", str(path), "--kind", "e", "--out", str(Path(tmp) / "out")])
            assert code == (3 if len(reference) == 2 else 0)


    @pytest.mark.parametrize(
        "data, numpy_reads",
        [
            (b"\n", False),  # numpy parses a blank file as [0]
            (b" \t \r\n", False),
            (b"0", False),
            (b"9" * 18 + b" 1\n", True),
            (b"1" * 19 + b"\n", True),
            (b"9" * 19 + b"\n", False),  # numpy clamps a count past int64 to its maximum
            (b"1" + b"0" * 19 + b" 3\n", False),
            (f"{MAX_COUNT}\n".encode(), False),
            (b"1\x0b2\x0c3\n", True),
            (b"007 0 012\n", True),
        ],
        ids=["lone-newline", "whitespace-only", "zero", "18-digits", "19-digits-in-int64",
             "19-digits-past-int64", "20-digits", "int64-max", "vt-ff-separators", "leading-zeros"],
    )
    def test_numpy_text_parse_quirks(self, data, numpy_reads, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_bytes(data)
        reference = _read_outcome(reference_read_counts, str(path))
        assert (cli._convert_plain_counts(data) is not None) == numpy_reads
        assert _read_outcome(cli.read_counts, str(path)) == reference
        code = main(["estimate", "--input", str(path), "--kind", "e", "--out", str(tmp_path / "out")])
        assert code == (3 if len(reference) == 2 else 0)

    def test_wide_file_is_read_in_a_few_arrays(self, tmp_path):
        # the file bytes, two byte masks over them and the int64 counts:
        # one bytes object per count would take several times this
        d = 200_001
        data = "\n".join(str(j + 1) for j in range(d)).encode() + b"\n"
        path = tmp_path / "counts.txt"
        path.write_bytes(data)
        bound = 3 * len(data) + 8 * d
        tracemalloc.start()
        try:
            counts, warnings = cli.read_counts(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.tolist() == list(range(1, d + 1)) and warnings == []
        assert peak < bound, (peak, bound)


_json_text = st.text(alphabet=st.sampled_from(["a", "1", "\x00", '"', "\\", "\u00e9"]), max_size=4)

#: JSON payloads whose leaves include lists of floats (nan, inf and -0.0
#: among them) and strings that look like the splice markers.
json_payloads = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), _json_text, st.lists(st.floats(), max_size=5)),
    lambda children: st.one_of(st.lists(children, max_size=4), st.dictionaries(_json_text, children, max_size=4)),
    max_leaves=20,
)


_table_text = st.text(alphabet=st.sampled_from(["a", "0", " ", ",", '"', "\r", "\n", "\u00e9", "\u2603"]), max_size=4)
_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def tables(draw):
    """``(header, columns, cut, comments)``: two to four int, float and string
    columns of 0, 1, a few or ``FLOAT_CHUNK`` ± 1 rows, each a cycle of drawn
    values in drawn run lengths, with up to two of nan, ±inf and -0.0 planted
    in a float column, written as the blocks before and after row ``cut``.
    A table has at least two columns, because csv writes a row of one empty
    field as ``""``."""
    size = draw(st.sampled_from([0, 1, 2, 7, cli.FLOAT_CHUNK - 1, cli.FLOAT_CHUNK + 1]))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["int", "float", "str"]), min_size=2, max_size=4)):
        values = draw(st.lists({"int": st.integers(-(2**63), 2**63 - 1), "float": _finite, "str": _table_text}[kind],
                               min_size=1, max_size=5))
        cycle = [value for value in values for _ in range(draw(st.integers(1, 3)))]
        cells = (cycle * (size // len(cycle) + 1))[:size]
        if kind == "str":
            columns.append(cells)
            continue
        column = np.array(cells, dtype=np.int64 if kind == "int" else np.float64)
        if kind == "float" and size:
            for _ in range(draw(st.integers(0, 2))):
                column[draw(st.integers(0, size - 1))] = draw(st.sampled_from([math.nan, math.inf, -math.inf, -0.0]))
        columns.append(column)
    header = draw(st.lists(_table_text, min_size=len(columns), max_size=len(columns)))
    return header, columns, draw(st.integers(0, size)), draw(st.lists(_table_text, max_size=2))


class TestWriters:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(json_payloads)
    def test_json_writer_gives_json_dump_bytes(self, payload):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "out.json"
            cli._write_json(str(path), payload)
            assert path.read_bytes() == (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()

    @pytest.mark.parametrize(
        "values",
        [
            np.linspace(0.1, 0.9, size) for size in
            (1, cli.FLOAT_CHUNK - 1, cli.FLOAT_CHUNK, cli.FLOAT_CHUNK + 1, 2 * cli.FLOAT_CHUNK + 1)
        ] + [
            np.array([0.5, math.nan]),
            np.array([-math.inf, 0.25]),
            np.arange(5),
            np.array([]),
            np.array([[0.5, 0.25]]),
        ],
        ids=["1", "chunk-1", "chunk", "chunk+1", "2chunk+1", "nan", "inf", "int", "empty", "2d"],
    )
    @pytest.mark.parametrize("note", ["plain", "\0" + "0", "\0" + "1"], ids=["text", "marker-0", "marker-1"])
    def test_json_writer_streams_arrays_as_lists(self, tmp_path, values, note):
        payload = {"estimate": values, "note": note, "band": {"lower": -values, "q_hat": 0.5}, "rows": [[values]]}
        path = tmp_path / "out.json"
        cli._write_json(str(path), payload)
        lists = {"estimate": values.tolist(), "note": note,
                 "band": {"lower": (-values).tolist(), "q_hat": 0.5}, "rows": [[values.tolist()]]}
        assert path.read_bytes() == (json.dumps(lists, indent=2, sort_keys=True) + "\n").encode()

    def test_json_writer_never_holds_a_wide_array_as_one_list(self, tmp_path):
        # a list of the floats alone takes 8 bytes a pointer, plus each float object
        values = np.linspace(0.0, 1.0, 200_001)
        tracemalloc.start()
        try:
            cli._write_json(str(tmp_path / "out.json"), {"estimate": values})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * values.size, peak
        expected = json.dumps({"estimate": values.tolist()}, indent=2, sort_keys=True) + "\n"
        assert (tmp_path / "out.json").read_text() == expected

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(tables(), st.sampled_from(["csv", "json"]))
    def test_table_writer_gives_csv_writer_and_json_dump_bytes(self, table, fmt):
        header, columns, cut, comments = table
        blocks = [[column[:cut] for column in columns], [column[cut:] for column in columns]]
        rows = [list(row) for row in zip(*[c.tolist() if isinstance(c, np.ndarray) else c for c in columns])]
        reference = reference_json_table if fmt == "json" else reference_csv_table
        with tempfile.TemporaryDirectory() as tmp:
            path = cli._write_table(argparse.Namespace(out=tmp, format=fmt), "table", header, blocks, comments)
            assert Path(path).read_bytes() == reference(header, rows, comments).encode()


class TestSimulate:
    def test_loss_csv_shape(self, tmp_path):
        assert run(["simulate", "--model", "M1", "--n", 20, "--reps", 10, "--est", "e,sG",
                    "--norm", "1,2", "--seed", 7, "--out", tmp_path]) == 0
        rows = read_rows(tmp_path / "losses.csv")
        assert rows[0].strip() == "rep,estimator,norm,loss"
        assert len(rows) == 1 + 10 * 2 * 2

    def test_risk_csv_shape(self, tmp_path):
        assert run(["simulate", "--risk", "--model", "M4", "--ngrid", "50,100", "--reps", 20,
                    "--est", "e,sG", "--seed", 3, "--out", tmp_path]) == 0
        rows = read_rows(tmp_path / "risk.csv")
        assert rows[0].strip() == "n,estimator,reps,risk,se"
        assert len(rows) == 1 + 2 * 2

    def test_coverage_csv_shape(self, tmp_path):
        assert run(["simulate", "--coverage", "--model", "M1", "--n", 200, "--reps", 5,
                    "--est", "e", "--bandmc", 2000, "--seed", 3, "--out", tmp_path]) == 0
        rows = read_rows(tmp_path / "coverage.csv")
        assert rows[0].strip() == "estimator,model,n,alpha,reps,band_mc_reps,coverage,se"
        assert len(rows) == 2

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["simulate", "--model", "M2", "--n", 30, "--reps", 8, "--est", "e,sr",
                "--norm", "2", "--seed", 11]
        for out in ("a", "b"):
            assert run(args + ["--out", tmp_path / out]) == 0
        assert (tmp_path / "a/losses.csv").read_bytes() == (tmp_path / "b/losses.csv").read_bytes()
        norm = lambda p: p.read_text().replace(str(tmp_path / p.parent.name), "OUT")
        assert norm(tmp_path / "a/simulate.manifest.json") == norm(tmp_path / "b/simulate.manifest.json")

    def test_worker_count_does_not_change_bytes(self, tmp_path, monkeypatch):
        # rounds of 64 // 12 = 5 replications at M1, so 12 reps are three
        # worker blocks; the forked workers inherit the patched round size
        monkeypatch.setattr(harness, "STACK_CELLS", 64)
        base = ["simulate", "--model", "M1", "--n", 25, "--reps", 12, "--est", "e,sG",
                "--norm", "1", "--seed", 13]
        assert run(base + ["--workers", 1, "--out", tmp_path / "w1"]) == 0
        assert run_forked(base + ["--workers", 4, "--out", tmp_path / "w4"]) == 0
        assert (tmp_path / "w1/losses.csv").read_bytes() == (tmp_path / "w4/losses.csv").read_bytes()

    def test_svg_written(self, tmp_path):
        assert run(["simulate", "--model", "M1", "--n", 15, "--reps", 6, "--est", "e,sG",
                    "--norm", "1", "--seed", 5, "--svg", "--out", tmp_path]) == 0
        svg = (tmp_path / "losses.svg").read_text()
        assert svg.startswith("<svg") and "</svg>" in svg

    def test_unknown_model_is_usage_error(self, tmp_path):
        assert run(["simulate", "--model", "nope", "--n", 5, "--reps", 2, "--out", tmp_path]) == 2

    def test_unknown_estimator_is_usage_error(self, tmp_path):
        assert run(["simulate", "--model", "M1", "--n", 5, "--reps", 2, "--est", "zz",
                    "--out", tmp_path]) == 2

    def test_json_format(self, tmp_path):
        assert run(["simulate", "--model", "M1", "--n", 10, "--reps", 3, "--est", "e",
                    "--norm", "1", "--seed", 2, "--format", "json", "--out", tmp_path]) == 0
        payload = json.loads((tmp_path / "losses.json").read_text())
        assert payload["columns"] == ["rep", "estimator", "norm", "loss"]
        assert len(payload["rows"]) == 3


class TestBand:
    def test_band_csv_format(self, tmp_path):
        counts = write_counts(tmp_path, "4 3 2 1\n")
        assert run(["band", "--input", counts, "--kind", "sG", "--alpha", 0.05, "--mc", 2000,
                    "--seed", 1, "--out", tmp_path]) == 0
        rows = read_rows(tmp_path / "band.csv")
        assert rows[0].startswith("# q_hat=")
        assert rows[1].strip() == "j,lower,upper"
        assert len(rows) == 2 + 4
        with open(tmp_path / "band.csv", newline="") as fh:
            body = [r for r in csv.reader(line for line in fh if not line.startswith("#"))]
        for row in body[1:]:
            assert float(row[1]) <= float(row[2])

    def test_round_trip_matches_one_shot(self, tmp_path):
        counts = write_counts(tmp_path, "2 5 1 1\n")
        assert run(["estimate", "--input", counts, "--kind", "sG", "--band", 0.05, "--mc", 2000,
                    "--seed", 9, "--out", tmp_path / "one"]) == 0
        one = json.loads((tmp_path / "one/estimate.json").read_text())
        assert run(["estimate", "--input", counts, "--kind", "sG", "--out", tmp_path / "two"]) == 0
        assert run(["band", "--theta", tmp_path / "two/estimate.json", "--alpha", 0.05,
                    "--mc", 2000, "--seed", 9, "--out", tmp_path / "two"]) == 0
        rows = read_rows(tmp_path / "two/band.csv")
        q_from_csv = float(rows[0].split("q_hat=")[1].split()[0])
        assert q_from_csv == one["band"]["q_hat"]
        body = [r.strip().split(",") for r in rows[2:]]
        for j, row in enumerate(body):
            assert float(row[1]) == one["band"]["lower"][j]
            assert float(row[2]) == one["band"]["upper"][j]

    def test_needs_exactly_one_source(self, tmp_path):
        assert run(["band", "--alpha", 0.05, "--out", tmp_path]) == 2

    @pytest.mark.parametrize(
        "payload",
        [
            {"estimate": [0.5, 0.2], "n": 10},
            {"estimate": [0.5, 0.5], "n": 0},
            {"estimate": [], "n": 10},
            {"estimate": [[0.5, 0.5]], "n": 10},
            {"estimate": [0.5, 0.5], "n": 10.7},
            {"estimate": [0.5, 0.5], "n": True},
            {"estimate": [0.5, 0.5], "n": 10**400},
            {"estimate": [True], "n": 5},
            {"estimate": ["0.5", "0.5"], "n": 5},
            {"estimate": [None, 1.0], "n": 5},
            {"estimate": [0.5, [0.5]], "n": 5},
            {"estimate": [10**400, 0], "n": 5},
        ],
        ids=["not-summing-to-one", "n-zero", "empty-estimate", "nested-estimate", "n-float", "n-bool",
             "n-past-int64", "bool-entry", "string-entries", "null-entry", "list-entry", "int-past-float"],
    )
    def test_bad_estimate_json_is_data_error(self, tmp_path, payload, capsys):
        theta = tmp_path / "estimate.json"
        theta.write_text(json.dumps(payload))
        assert run(["band", "--theta", theta, "--alpha", 0.05, "--mc", 500, "--out", tmp_path]) == 3
        assert f"cannot read estimate json {theta}" in capsys.readouterr().err


class TestQq:
    def test_columns(self, tmp_path):
        assert run(["qq", "--model", "M2", "--coord", 1, "--n", 100, "--reps", 30,
                    "--est", "e,G,r,sG,sr", "--seed", 17, "--out", tmp_path]) == 0
        rows = read_rows(tmp_path / "qq.csv")
        header = rows[0].strip().split(",")
        assert header[0] == "rank"
        assert len(header) == 1 + 2 * 5
        assert len(rows) == 1 + 30

    def test_rerun_identical(self, tmp_path, monkeypatch):
        # rounds of 64 // 20 = 3 replications at M4: four worker blocks
        monkeypatch.setattr(harness, "STACK_CELLS", 64)
        args = ["qq", "--model", "M4", "--coord", 0, "--n", 50, "--reps", 10,
                "--est", "e,sG", "--seed", 21]
        assert run(args + ["--out", tmp_path / "a"]) == 0
        assert run_forked(args + ["--out", tmp_path / "b", "--workers", 4]) == 0
        assert (tmp_path / "a/qq.csv").read_bytes() == (tmp_path / "b/qq.csv").read_bytes()


class TestFormatsAndFlags:
    def test_band_json_format(self, tmp_path):
        counts = write_counts(tmp_path, "3 1\n")
        assert run(["band", "--input", counts, "--kind", "e", "--alpha", 0.1, "--mc", 500,
                    "--seed", 2, "--format", "json", "--out", tmp_path]) == 0
        payload = json.loads((tmp_path / "band.json").read_text())
        assert payload["columns"] == ["j", "lower", "upper"]
        assert len(payload["rows"]) == 2
        assert payload["comments"][0].startswith("q_hat=")

    def test_qq_json_format(self, tmp_path):
        assert run(["qq", "--model", "M1", "--coord", 0, "--n", 20, "--reps", 5, "--est", "e",
                    "--seed", 2, "--format", "json", "--out", tmp_path]) == 0
        payload = json.loads((tmp_path / "qq.json").read_text())
        assert len(payload["rows"]) == 5

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "stackpmf" in capsys.readouterr().out

    def test_removed_bench_subcommand_is_usage_error(self, tmp_path, capsys):
        assert run(["bench", "--sgrid", 10, "--out", tmp_path]) == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestPublicSurface:
    def test_every_export_resolves(self):
        missing = [name for name in stackpmf.__all__ if not hasattr(stackpmf, name)]
        assert not missing

    def test_subcommands(self):
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert sorted(sub.choices) == ["band", "estimate", "qq", "simulate"]


class TestManifests:
    def test_rerunning_manifest_argv_reproduces_bytes(self, tmp_path):
        assert run(["simulate", "--model", "M3", "--n", 20, "--reps", 6, "--est", "e,sG",
                    "--norm", "1,2", "--seed", 19, "--out", tmp_path / "a"]) == 0
        manifest = json.loads((tmp_path / "a/simulate.manifest.json").read_text())
        argv = [a if a != str(tmp_path / "a") else str(tmp_path / "b") for a in manifest["argv"]]
        assert main(argv) == 0
        assert (tmp_path / "a/losses.csv").read_bytes() == (tmp_path / "b/losses.csv").read_bytes()

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STACKPMF_SEED", "123")
        assert run(["simulate", "--model", "M1", "--n", 10, "--reps", 4, "--est", "e",
                    "--norm", "1", "--out", tmp_path / "env"]) == 0
        monkeypatch.delenv("STACKPMF_SEED")
        assert run(["simulate", "--model", "M1", "--n", 10, "--reps", 4, "--est", "e",
                    "--norm", "1", "--seed", 123, "--out", tmp_path / "flag"]) == 0
        assert (tmp_path / "env/losses.csv").read_bytes() == (tmp_path / "flag/losses.csv").read_bytes()


SIMULATE = ["simulate", "--model", "M1", "--n", 10, "--reps", 2]
QQ = ["qq", "--model", "M1", "--coord", 0, "--n", 10, "--reps", 2]


class TestOutDirectory:
    """An ``--out`` that cannot be created as a directory exits 2 and writes nothing."""

    @pytest.mark.parametrize("argv", [
        pytest.param(["simulate", "--model", "M1", "--n", 10, "--reps", 2], id="simulate"),
        pytest.param(["estimate", "--input", "{counts}", "--kind", "sG"], id="estimate"),
    ])
    def test_out_naming_a_file_is_usage_error(self, argv, tmp_path, capsys):
        counts = write_counts(tmp_path, "3 1 2\n")
        blocker = tmp_path / "taken"
        blocker.write_text("keep\n")
        argv = [counts if a == "{counts}" else a for a in argv]
        assert run(argv + ["--out", blocker]) == 2
        assert capsys.readouterr().err.startswith("error: --out")
        assert blocker.read_text() == "keep\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["counts.txt", "taken"]

    @pytest.mark.parametrize("argv, blocked", [
        pytest.param(SIMULATE + ["--svg"], "losses.csv", id="simulate-table"),
        pytest.param(SIMULATE + ["--svg"], "losses.svg", id="simulate-svg"),
        pytest.param(SIMULATE, "simulate.manifest.json", id="simulate-manifest"),
        pytest.param(["estimate", "--input", "{counts}", "--kind", "sG"], "estimate.json", id="estimate"),
    ])
    def test_data_file_that_cannot_be_written_is_usage_error(self, argv, blocked, tmp_path, capsys):
        counts = write_counts(tmp_path, "3 1 2\n")
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        argv = [counts if a == "{counts}" else a for a in argv]
        assert run(argv + ["--out", out]) == 2
        assert capsys.readouterr().err.startswith(f"error: --out {out}: cannot write {blocked}: ")

    @pytest.mark.parametrize("argv", [
        pytest.param(["simulate", "--model", "M1", "--reps", 2, "--risk"], id="risk-without-ngrid"),
        pytest.param(["simulate", "--model", "M1", "--reps", 2, "--risk", "--ngrid", "0,5"], id="risk-ngrid-0"),
        pytest.param(["simulate", "--model", "M1", "--reps", 2, "--coverage"], id="coverage-without-n"),
        pytest.param(["simulate", "--model", "M1", "--reps", 2], id="loss-without-n"),
    ])
    def test_simulate_usage_error_creates_no_out(self, argv, tmp_path, capsys):
        out = tmp_path / "new"
        assert run(argv + ["--out", out]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestBadFlagValuesAreUsageErrors:
    """An invalid flag value exits 2 (usage), never 4 (numeric failure)."""

    @pytest.mark.parametrize("argv", [
        pytest.param(SIMULATE[:-1] + [0], id="simulate-reps-0"),
        pytest.param(["simulate", "--model", "M1", "--n", 0, "--reps", 2], id="simulate-n-0"),
        pytest.param(SIMULATE + ["--workers", 0], id="simulate-workers-0"),
        pytest.param(["simulate", "--model", "geom:1.5", "--n", 10, "--reps", 2], id="simulate-model-geom-1.5"),
        pytest.param(SIMULATE + ["--coverage", "--alpha", 0], id="simulate-alpha-0"),
        pytest.param(SIMULATE + ["--coverage", "--bandmc", 50], id="simulate-bandmc-50"),
        pytest.param(["simulate", "--model", "M1", "--reps", 2, "--risk", "--ngrid", "0,5"],
                     id="simulate-ngrid-0"),
        pytest.param(["band", "--theta", "unused.json", "--alpha", 1.5], id="band-alpha-1.5"),
        pytest.param(["band", "--theta", "unused.json", "--alpha", 0.05, "--mc", 50], id="band-mc-50"),
        pytest.param(QQ[:3] + ["--coord", 99] + QQ[5:], id="qq-coord-99"),
        pytest.param(QQ[:3] + ["--coord", -1] + QQ[5:], id="qq-coord-negative"),
        pytest.param(["estimate", "--input", "unused.txt", "--kind", "e", "--band", 1.5], id="estimate-band-1.5"),
        pytest.param(["band", "--theta", "unused.json", "--alpha", 0.05, "--seed", -1], id="band-seed-negative"),
        pytest.param(["band", "--theta", "unused.json", "--alpha", 0.05, "--seed", 2**64], id="band-seed-2p64"),
        pytest.param(SIMULATE + ["--seed", -(2**64)], id="simulate-seed-minus-2p64"),
    ])
    def test_exit_code(self, argv, tmp_path, capsys):
        assert run(argv + ["--out", tmp_path]) == 2
        assert "error" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seeds_at_both_ends_of_the_range_are_accepted(self, seed, tmp_path):
        counts = write_counts(tmp_path, "3 1 2\n")
        assert run(["estimate", "--input", counts, "--kind", "sG", "--seed", seed, "--out", tmp_path]) == 0
        assert json.loads((tmp_path / "estimate.manifest.json").read_text())["seed"] == seed

    @pytest.mark.parametrize("value", ["-1", str(2**64), "seven"])
    def test_seed_env_var_outside_the_range_is_usage_error(self, value, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("STACKPMF_SEED", value)
        assert run(SIMULATE + ["--out", tmp_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: STACKPMF_SEED: ")
        if value != "seven":
            assert f"[0, {2**64 - 1}]" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        pytest.param(["band", "--input", "{counts}", "--alpha", 0.05, "--mc"], id="band"),
        pytest.param(["estimate", "--input", "{counts}", "--kind", "sG", "--band", 0.05, "--mc"], id="estimate"),
        pytest.param(SIMULATE + ["--coverage", "--bandmc"], id="simulate"),
    ])
    def test_draws_past_the_cap_exit_before_allocating(self, argv, tmp_path, capsys):
        counts = write_counts(tmp_path, "7 5 6 2 3 0 1 1\n")
        argv = [counts if a == "{counts}" else a for a in argv]
        tracemalloc.start()
        try:
            code = run(argv + [MAX_QUANTILE_DRAWS + 1, "--out", tmp_path / "out"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert f"[{MIN_QUANTILE_DRAWS}, {MAX_QUANTILE_DRAWS}]" in capsys.readouterr().err
        assert peak < 2**20
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [SIMULATE[:-2], SIMULATE[:-2] + ["--coverage"], QQ[:-2]],
                             ids=["simulate", "coverage", "qq"])
    def test_reps_past_the_cap_exit_before_allocating(self, argv, tmp_path, capsys):
        tracemalloc.start()
        try:
            code = run(argv + ["--reps", MAX_REPS + 1, "--out", tmp_path / "out"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert f"[1, {MAX_REPS}]" in capsys.readouterr().err
        assert peak < 2**20
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        pytest.param(["simulate", "--model", "M1", "--reps", 1, "--est", "e", "--n"], id="simulate"),
        pytest.param(["simulate", "--model", "M1", "--reps", 1, "--est", "e", "--coverage", "--n"], id="coverage"),
        pytest.param(["qq", "--model", "M1", "--coord", 0, "--reps", 1, "--est", "e", "--n"], id="qq"),
        pytest.param(["simulate", "--model", "M1", "--reps", 1, "--est", "e", "--risk", "--ngrid"], id="risk"),
    ])
    @pytest.mark.parametrize("size", [MAX_COUNT + 1, 10**20])
    def test_sample_size_past_the_int64_total_exits_2(self, argv, size, tmp_path, capsys):
        # the sampler would loop for ages; no such total is valid frequency data
        value = f"5,{size}" if argv[-1] == "--ngrid" else size
        assert run(argv + [value, "--out", tmp_path / "out"]) == 2
        assert f"[1, {MAX_COUNT}]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        pytest.param(["estimate", "--input", "{counts}", "--kind", "sG", "--format", "json"], id="estimate-format"),
        pytest.param(["estimate", "--input", "{counts}", "--kind", "sG", "--svg"], id="estimate-svg"),
        pytest.param(["band", "--input", "{counts}", "--alpha", 0.05, "--svg"], id="band-svg"),
        pytest.param(QQ + ["--svg"], id="qq-svg"),
    ])
    def test_flag_the_command_would_ignore_is_usage_error(self, argv, tmp_path, capsys):
        counts = write_counts(tmp_path, "3 1 2\n")
        argv = [counts if a == "{counts}" else a for a in argv]
        assert run(argv + ["--out", tmp_path / "out"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_coverage_svg_is_usage_error(self, tmp_path, capsys):
        # the charts are of losses and risks; coverage has none to draw
        argv = ["simulate", "--model", "M1", "--n", 20, "--reps", 2, "--coverage", "--bandmc", 100, "--svg"]
        assert run(argv + ["--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == "error: --svg draws the loss and risk charts only, not coverage\n"
        assert not (tmp_path / "out").exists()

    def test_last_coordinate_of_the_support_is_accepted(self, tmp_path):
        assert run(QQ[:3] + ["--coord", 11] + QQ[5:] + ["--out", tmp_path]) == 0


class TestOutOfMemory:
    """A ``MemoryError`` is a numeric failure (exit 4) with one error line,
    not a traceback. The sampler is made to raise it: nothing large is
    allocated."""

    @pytest.mark.parametrize("exc, message", [
        (MemoryError("Unable to allocate 8.00 TiB for an array with shape (2**40,)"),
         "error: out of memory: Unable to allocate 8.00 TiB for an array with shape (2**40,)\n"),
        (MemoryError(), "error: out of memory: an allocation failed\n"),
    ], ids=["numpy-message", "bare"])
    def test_exits_4_with_one_line(self, exc, message, tmp_path, monkeypatch, capsys):
        def sample_stack(*args, **kwargs):
            raise exc

        monkeypatch.setattr(stackpmf.harness, "sample_stack", sample_stack)
        assert run(SIMULATE + ["--out", tmp_path]) == cli.EXIT_NUMERIC == 4
        assert capsys.readouterr().err == message


def _fraction(top: float):
    """Strings ``a/b`` with ``b <= 20`` and ``0 < a / b <= top``, for ``top >= 1/2``."""
    return st.integers(2, 20).flatmap(lambda b: st.integers(1, int(top * b)).map(lambda a: f"{a}/{b}"))


def _decimal(low: float, high: float):
    return st.floats(low, high).map(lambda v: f"{v:.3f}")


#: Valid model strings whose truncated supports stay short (a few thousand
#: points), so running them is cheap.
_plain_models = st.one_of(
    st.sampled_from(sorted(stackpmf.builtin_models())),
    st.builds("uniform:{}".format, st.integers(0, 2000)),
    st.builds("tri-dec:{}".format, st.integers(0, 2000)),
    st.builds("tri-inc:{}".format, st.integers(0, 2000)),
    st.builds("geom:{}".format, st.one_of(_decimal(0.01, 0.95), _fraction(0.95))),
    st.builds("nbin:{},{}".format, st.integers(1, 20), st.one_of(_decimal(0.01, 0.9), _fraction(0.9))),
    st.builds("pois:{}".format, _decimal(0.1, 500.0)),
)


def _mixture(parts):
    """``mix:`` of the components ``parts`` with fraction weights summing to 1."""
    den = 4 * len(parts)
    weights = [4] * len(parts)
    weights[0] += den - sum(weights)
    return "mix:" + "+".join(f"{w}/{den}*{spec}" for w, spec in zip(weights, parts))


_valid_models = st.one_of(_plain_models, st.lists(_plain_models, min_size=1, max_size=3).map(_mixture))

#: Model strings whose support truncated at 1e-12 is past MAX_SUPPORT:
#: huge integer parameters, and geometric thetas of 0.999999 and closer to 1.
_huge = st.integers(MAX_SUPPORT, 10**40)
_huge_models = st.one_of(
    st.builds("uniform:{}".format, _huge),
    st.builds("tri-dec:{}".format, _huge),
    st.builds("tri-inc:{}".format, _huge),
    st.builds("geom:0.{}".format, st.integers(6, 18).map(lambda k: "9" * k)),
    st.builds("nbin:{},{}".format, _huge, _decimal(0.5, 0.9)),
    st.builds("pois:{}".format, _huge),
)

_BAD_NUMBERS = ["inf", "-inf", "nan", "1/0", "0/0", "-1", "0", "1e400", "1" + "0" * 400 + "/1", "", "x", "1/", "/3"]


@st.composite
def _mutated_models(draw):
    """A valid model string with one number replaced by a bad one, one character
    deleted, the tail cut off, or a separator inserted."""
    text = draw(_valid_models)
    how = draw(st.sampled_from(["number", "delete", "truncate", "insert"]))
    if how == "number":
        numbers = list(re.finditer(r"[0-9./]+", text))
        if numbers:
            m = draw(st.sampled_from(numbers))
            text = text[: m.start()] + draw(st.sampled_from(_BAD_NUMBERS)) + text[m.end():]
        return text
    at = draw(st.integers(0, len(text)))
    if how == "delete":
        return text[:at] + text[at + 1:]
    if how == "truncate":
        return text[:at]
    return text[:at] + draw(st.sampled_from(":,*+/.")) + text[at:]


class TestModelStrings:
    """Every model string parses or is rejected with a ValueError, and the CLI
    exits 0 or 2 on it, never with a traceback."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(text=st.one_of(_valid_models, _mutated_models(), _huge_models,
                          st.lists(st.one_of(_plain_models, _huge_models), min_size=2, max_size=3).map(_mixture)))
    @example(text="geom:1/0")
    @example(text="nbin:3,1/0")
    @example(text="mix:1/0*M1")
    @example(text="pois:inf")
    @example(text="pois:1e300")
    @example(text="geom:1" + "0" * 400 + "/1")
    def test_parses_or_exits_2(self, text, tmp_path_factory):
        try:
            stackpmf.parse_model(text)
            parsed = True
        except ValueError:
            parsed = False
        out = tmp_path_factory.mktemp("model")
        code = run(["simulate", "--model", text, "--n", 3, "--reps", 1, "--est", "e,sG", "--out", out])
        assert code == (0 if parsed else 2)

    @pytest.mark.parametrize("text", [
        "uniform:100000000000", "uniform:30000000", "nbin:1000000000,0.5", "geom:0.99999999999", "pois:1e12",
        "pois:9007199254740992",
    ])
    def test_support_past_the_cap_exits_2_before_allocating(self, text, tmp_path, capsys):
        tracemalloc.start()
        try:
            code = run(["simulate", "--model", text, "--n", 3, "--reps", 1, "--out", tmp_path])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert f"MAX_SUPPORT = {MAX_SUPPORT}" in capsys.readouterr().err
        # far below one probability vector at the cap (8 * MAX_SUPPORT bytes)
        assert peak < MAX_SUPPORT, peak

    def test_a_large_accepted_poisson_rate_runs(self, tmp_path):
        # the pmf of exp(j log lam - log j! - lam) drifted to a sum of 1 + 1.3e-9
        # at this rate and exited 4, although the rate is accepted
        assert run(["simulate", "--model", "pois:798115.1356974929", "--n", 40, "--reps", 1, "--est", "e",
                    "--out", tmp_path]) == 0

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(_valid_models)
    def test_valid_strings_parse(self, text):
        model = stackpmf.parse_model(text)
        assert math.isclose(float(np.sum(stackpmf.pmf_truncate(model, 1e-12).probs)), 1.0, abs_tol=1e-9)


def _values(valid, edge=(), bad=()):
    """``(valid, edge, bad)`` values of one flag: edge values sit at or just
    past a bound, bad ones are malformed. Valid sizes stay small."""
    return tuple(map(str, valid)), tuple(map(str, edge)), tuple(map(str, bad))


_SEED = _values([0, 7, 2**64 - 1], [2**64, -1], ["x", "1.5", ""])
_WORKERS = _values([1], [0], ["-1", "two"])
_FORMAT = _values(["csv", "json"], [], ["xml", ""])
_MODEL = _values(["M1", "M7", "geom:0.3", "pois:2", "uniform:3", "mix:1/2*M1+1/2*pois:4"],
                 ["uniform:0", "pois:9007199254740992", "uniform:4194304"],
                 ["M8", "pois:0", "geom:1", "", "mix:1/2*M1"])
_EST = _values(["e", "e,sG", "sr,G,mm,r"], [",".join(stackpmf.ESTIMATOR_CODES)], ["", "zz", "e,,", ","])
_LEVEL = _values(["0.05", "0.5"], ["0", "1", "1e-300"], ["nan", "inf", "x", "-0.1"])
_DRAWS = _values([MIN_QUANTILE_DRAWS, 200], [MIN_QUANTILE_DRAWS - 1, MAX_QUANTILE_DRAWS + 1], ["x", "1e3", ""])
_N = _values([1, 2, 30], [0, MAX_COUNT + 1], ["x", "-3", "2.5"])
_REPS = _values([1, 3], [0, MAX_REPS + 1], ["x", ""])
_SWITCH = None  # a flag without a value

#: Each subcommand's flags and whether each is required; ``{counts}``,
#: ``{bad}``, ``{theta}`` and ``{badtheta}`` name files made for each run.
_COMMANDS = {
    "estimate": {
        "--input": (True, _values(["{counts}"], ["{empty}"], ["{bad}", "{missing}"])),
        "--kind": (True, _values(stackpmf.ESTIMATOR_CODES, [], ["zz", ""])),
        "--band": (False, _LEVEL),
        "--mc": (False, _DRAWS),
        "--seed": (False, _SEED),
        "--workers": (False, _WORKERS),
    },
    "simulate": {
        "--model": (True, _MODEL),
        "--n": (True, _N),
        "--ngrid": (False, _values(["5,10", "1"], ["0,5", f"5,{MAX_COUNT + 1}"], ["", "a", "5,,6", "-3"])),
        "--reps": (True, _REPS),
        "--est": (False, _EST),
        "--norm": (False, _values(["1", "1,2,inf"], [], ["3", "", "inf,x"])),
        "--risk": (False, _SWITCH),
        "--coverage": (False, _SWITCH),
        "--alpha": (False, _LEVEL),
        "--bandmc": (False, _DRAWS),
        "--seed": (False, _SEED),
        "--workers": (False, _WORKERS),
        "--format": (False, _FORMAT),
        "--svg": (False, _SWITCH),
    },
    "band": {
        "--input": (False, _values(["{counts}"], ["{empty}"], ["{bad}", "{missing}"])),
        "--theta": (False, _values(["{theta}"], [], ["{badtheta}", "{missing}"])),
        "--kind": (False, _values(stackpmf.ESTIMATOR_CODES, [], ["zz"])),
        "--alpha": (True, _LEVEL),
        "--mc": (False, _DRAWS),
        "--seed": (False, _SEED),
        "--workers": (False, _WORKERS),
        "--format": (False, _FORMAT),
    },
    "qq": {
        "--model": (True, _MODEL),
        "--coord": (True, _values([0, 1], [3, 12], ["-1", "x"])),
        "--n": (True, _N),
        "--reps": (True, _REPS),
        "--est": (False, _EST),
        "--seed": (False, _SEED),
        "--workers": (False, _WORKERS),
        "--format": (False, _FORMAT),
    },
}


@st.composite
def _argvs(draw):
    """An argv of one subcommand: each required flag is present 9 times in 10
    and each optional one 1 time in 3, each value usually valid, otherwise at an
    edge or malformed; now and then a flag of another subcommand or an
    unknown one is appended."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = [command]
    for flag, (required, values) in _COMMANDS[command].items():
        present = draw(st.integers(0, 9)) > 0 if required else draw(st.integers(0, 2)) == 0
        if not present:
            continue
        argv.append(flag)
        if values is not _SWITCH:
            valid, edge, bad = values
            pool = draw(st.sampled_from([valid] * 8 + [edge or valid, bad or valid]))
            argv.append(draw(st.sampled_from(pool)))
    if not draw(st.integers(0, 7)):
        argv += draw(st.sampled_from([["--svg"], ["--theta", "{theta}"], ["--bogus"], ["--coord", "0"]]))
    return argv


class TestArgvContract:
    """Any argv of valid, edge and malformed flag values exits 0, 2, 3 or 4
    without a traceback, a usage error (exit 2) creates no ``--out``, and
    rerunning the manifest's argv of a successful run reproduces its data
    files byte for byte."""

    @settings(max_examples=55, derandomize=True, deadline=None)
    @given(argv=_argvs())
    @example(argv=["band", "--input", "{bad}", "--alpha", "0.05", "--mc", "100"])
    @example(argv=["estimate", "--input", "{counts}", "--kind", "sG", "--band", "0.05", "--mc", "100"])
    @example(argv=["simulate", "--model", "M7", "--n", "30", "--reps", "3", "--coverage", "--bandmc", "100"])
    @example(argv=["band", "--theta", "{theta}", "--alpha", "0.05", "--mc", "100", "--format", "json"])
    @example(argv=["qq", "--model", "M1", "--coord", "1", "--n", "30", "--reps", "3"])
    def test_exit_codes_and_out(self, argv, tmp_path_factory):
        where = tmp_path_factory.mktemp("argv")
        files = {"counts": "7 5 6 2 3 0 1 1\n", "empty": "0 0\n", "bad": "1 x 2\n",
                 "theta": '{"estimate": [0.5, 0.3, 0.2], "n": 10}', "badtheta": '{"estimate": [true], "n": 1}'}
        for name, text in files.items():
            (where / name).write_text(text)
        names = {name: str(where / name) for name in [*files, "missing"]}
        out = where / "out"
        argv = [a.format(**names) if a.startswith("{") else a for a in argv] + ["--out", str(out)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert not out.exists(), argv
        if code == 0:
            # the manifest's argv, sent to another directory, rewrites every data file byte for byte
            (manifest,) = out.glob("*.manifest.json")
            manifest = json.loads(manifest.read_text())
            again = where / "again"
            rerun = [str(again) if a == str(out) else a for a in manifest["argv"]]
            with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
                assert main(rerun) == 0, rerun
            assert manifest["artifacts"], rerun
            for name in manifest["artifacts"]:
                assert (again / name).read_bytes() == (out / name).read_bytes(), (rerun, name)
