"""Command-line interface.

Subcommands: ``estimate`` (fit one estimator to a counts file), ``simulate``
(loss, risk or coverage experiments), ``band`` (global confidence band) and
``qq`` (normal QQ samples). Every run writes its data files plus a manifest
recording the resolved arguments, so rerunning the manifest's argv
reproduces the files byte for byte.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numeric failure or out of memory.
"""

import argparse
import contextlib
import io
import json
import math
import os
import sys
from itertools import chain, repeat

import numpy as np

from . import __version__
from ._floatrepr import repr_join
from ._svg import boxplot_svg, linechart_svg
from .confidence import band as make_band
from .confidence import MAX_QUANTILE_DRAWS, MIN_QUANTILE_DRAWS, _as_theta, quantile_q_alpha
from .estimators import ESTIMATOR_CODES, SHAPE_KINDS, fit_estimator, stacked
from .harness import (
    MAX_REPS,
    ExperimentConfig,
    run_coverage,
    run_loss_experiment,
    run_qq_samples,
    run_risk_curve,
)
from .models import MAX_COUNT, FrequencyData, parse_model, truncated_probs

SEED_ENV_VAR = "STACKPMF_SEED"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class CountsParseError(ValueError):
    """A counts file failed to parse; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class _UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Input parsing


#: The bytes of a counts file that numpy converts at once: ASCII digits and
#: the whitespace bytes ``bytes.split`` splits on.
_PLAIN_COUNT_BYTES = b"0123456789 \t\n\r\x0b\x0c"


def read_counts(path: str) -> tuple[np.ndarray, list[str]]:
    """Read whitespace- or newline-separated nonnegative integer counts.

    Each count is a run of ASCII digits ``0-9``. Index equals position.
    Leading zeros are kept; trailing zeros are stripped with a warning
    because the vector length encodes the largest observed value. The total
    count must fit in an int64.

    The file is read once. A file of ASCII digits and whitespace is parsed
    by one ``np.fromstring`` call, and the result is kept when it has one
    value per digit run, none at the int64 maximum (numpy's value for a
    count past it), ``max * len <= MAX_COUNT`` and some count positive.
    Every other file goes through the token scan, which alone reports
    errors and their lines.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise CountsParseError(f"cannot read {path}: {exc.strerror}", line=0) from exc
    return _convert_plain_counts(data) or _scan_counts(data, path)


def _trailing_zero_warnings(zeros: int) -> list[str]:
    return [f"stripped {zeros} trailing zero count(s)"] if zeros else []


def _convert_plain_counts(data: bytes) -> tuple[np.ndarray, list[str]] | None:
    """:func:`read_counts` of the file bytes ``data`` by numpy, or None when
    the token scan must read them."""
    if not data or data.translate(None, _PLAIN_COUNT_BYTES):
        return None
    # numpy parses a blank file as [0]: count the digit runs (digits are the
    # only plain bytes past the whitespace) and hold it to one value each
    digit = np.frombuffer(data, np.uint8) > ord(" ")
    runs = int(digit[0]) + np.count_nonzero(digit[1:] > digit[:-1])
    del digit
    values = np.fromstring(data, dtype=np.int64, sep=" ")
    # numpy clamps a count past int64 to its maximum; the scan reads one at it
    if values.size != runs or (values == MAX_COUNT).any():
        return None
    positive = values != 0
    # max * len bounds the total, so the int64 sum cannot wrap past MAX_COUNT
    if not positive.any() or int(values.max()) * values.size > MAX_COUNT:
        return None
    trimmed = values.size - int(np.argmax(positive[::-1]))
    return values[:trimmed], _trailing_zero_warnings(values.size - trimmed)


def _scan_counts(data: bytes, path: str) -> tuple[np.ndarray, list[str]]:
    """:func:`read_counts` of the file bytes ``data`` token by token, with
    lines counted as text mode counts them."""
    values: list[int] = []
    try:
        lines = io.StringIO(data.decode("utf-8"), newline=None).readlines()
    except UnicodeDecodeError as exc:
        raise CountsParseError(f"cannot read {path}: not UTF-8 text ({exc.reason})", line=0) from exc
    for lineno, line in enumerate(lines, start=1):
        for token in line.split():
            if not (token.isascii() and token.isdigit()):
                raise CountsParseError(f"not a nonnegative integer count: {token!r}", line=lineno)
            # a count longer than MAX_COUNT exceeds it; checking first keeps int() in its digit limit
            digits = token.lstrip("0")
            if len(digits) > len(str(MAX_COUNT)):
                raise CountsParseError(f"total count exceeds {MAX_COUNT}", line=lineno)
            values.append(int(digits or "0"))
    if not values:
        raise CountsParseError("no counts found", line=len(lines))
    if sum(values) > MAX_COUNT:
        raise CountsParseError(f"total count exceeds {MAX_COUNT}", line=len(lines))
    trimmed = len(values)
    while trimmed > 0 and values[trimmed - 1] == 0:
        trimmed -= 1
    if trimmed == 0:
        raise CountsParseError("all counts are zero", line=len(lines))
    return np.asarray(values[:trimmed], dtype=np.int64), _trailing_zero_warnings(len(values) - trimmed)


def _read_data(path: str) -> tuple[FrequencyData, list[str]]:
    """The counts file ``path`` as frequency data, with :func:`read_counts`'s
    warnings, which are also printed to stderr."""
    counts, warnings = read_counts(path)
    for message in warnings:
        print(f"warning: {message}", file=sys.stderr)
    return FrequencyData(counts), warnings


def _int_in(low: int, high: float = math.inf):
    """argparse type for integers from ``low`` to ``high``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if not low <= value <= high:
            span = f"be at least {low}" if high == math.inf else f"lie in [{low}, {high}]"
            raise argparse.ArgumentTypeError(f"must {span}, got {value}")
        return value

    return parse


#: Seeds are 64-bit: the random streams would alias a larger or negative one
#: onto a seed in this range.
_seed = _int_in(0, 2**64 - 1)


def _level(text: str) -> float:
    """argparse type for a band level in the open interval (0, 1)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), got {text}")
    return value


def _parse_model(text: str):
    try:
        return parse_model(text)
    except ValueError as exc:
        raise _UsageError(f"--model: {exc}") from None


def _parse_codes(text: str) -> tuple[str, ...]:
    codes = tuple(c.strip() for c in text.split(",") if c.strip())
    for code in codes:
        if code not in ESTIMATOR_CODES:
            raise _UsageError(f"unknown estimator code {code!r}; choose from {','.join(ESTIMATOR_CODES)}")
    if not codes:
        raise _UsageError("select at least one estimator")
    return codes


def _parse_norms(text: str) -> tuple:
    out = []
    for part in text.split(","):
        part = part.strip()
        if part == "inf":
            out.append(math.inf)
        elif part in ("1", "2"):
            out.append(int(part))
        else:
            raise _UsageError(f"norms must be from 1,2,inf, got {part!r}")
    if not out:
        raise _UsageError("select at least one norm")
    return tuple(out)


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise _UsageError(f"expected comma-separated integers, got {text!r}") from None
    if not values:
        raise _UsageError("expected at least one integer")
    if not all(1 <= v <= MAX_COUNT for v in values):
        raise _UsageError(f"expected integers in [1, {MAX_COUNT}], got {text!r}")
    return values


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is None:
        return 0
    try:
        return _seed(env)
    except argparse.ArgumentTypeError as exc:
        raise _UsageError(f"{SEED_ENV_VAR}: {exc}") from None


# ---------------------------------------------------------------------------
# Output writing


@contextlib.contextmanager
def _out_file(path: str):
    """``path`` opened for writing; a failure to write it is a usage error of ``--out``."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        where, name = os.path.split(path)
        raise _UsageError(f"--out {where}: cannot write {name}: {exc.strerror}") from None


def _make_out_dir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise _UsageError(f"--out {path}: cannot create the output directory: {exc.strerror}") from None


#: Table rows, and ``estimate.json`` floats, rendered into one write.
FLOAT_CHUNK = 4096


def _write_json(path: str, payload) -> None:
    """``payload`` (``estimate.json`` or a manifest), whose dict keys are
    strings, as ``json.dump(..., indent=2, sort_keys=True)`` writes it, plus
    a newline, with every ndarray in it replaced by its ``tolist()``. One
    recursive pass writes straight to the file. A nonempty 1-D float64 array
    of finite values is streamed by :func:`repr_join`, ``FLOAT_CHUNK`` values
    a write, so a long estimate is never held as one list or one string.
    """

    def write(value, newline: str) -> None:  # newline: a line break and value's indentation
        if isinstance(value, np.ndarray):
            if value.dtype == np.float64 and value.ndim == 1 and value.size and np.isfinite(value).all():
                sep = f",{newline}  "
                fh.write(f"[{newline}  ")
                for at in range(0, value.size, FLOAT_CHUNK):
                    items = repr_join(value[at : at + FLOAT_CHUNK], sep)
                    fh.write(f"{sep}{items}" if at else items)
                fh.write(f"{newline}]")
                return
            value = value.tolist()
        inner = newline + "  "
        if isinstance(value, dict) and value:
            for at, (key, item) in enumerate(sorted(value.items())):
                fh.write(f"{',' if at else '{'}{inner}{json.dumps(key)}: ")
                write(item, inner)
            fh.write(f"{newline}}}")
        elif isinstance(value, (list, tuple)) and value:
            for at, item in enumerate(value):
                fh.write(f"{',' if at else '['}{inner}")
                write(item, inner)
            fh.write(f"{newline}]")
        else:
            fh.write(json.dumps(value))

    with _out_file(path) as fh:
        write(payload, "\n")
        fh.write("\n")


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer(lineterminator="\\n")`` writes it in a row of two or more fields."""
    return '"' + text.replace('"', '""') + '"' if "," in text or '"' in text or "\n" in text else text


def _write_table(args, name: str, header: list[str], blocks, comments: list[str] = ()) -> str:
    """Write the rows of ``blocks`` under ``header`` to ``<name>.csv`` or
    ``<name>.json`` in ``--out`` and return its path. The bytes are those of
    ``csv.writer(lineterminator="\\n")`` after a ``# `` line per comment, or
    of ``json.dump(indent=2, sort_keys=True)`` of ``{"columns", "comments",
    "rows"}`` plus a newline. A block is a list of equal-length columns: int
    arrays, float64 arrays or lists of one string per row. ``FLOAT_CHUNK``
    rows are rendered a column at a time: a run of equal ints by one
    ``str``, a distinct string once, finite floats by :func:`repr_join`.
    """
    path = os.path.join(args.out, f"{name}.{args.format}")
    if args.format == "json":
        quote = number = json.dumps
        head = json.dumps(dict(columns=header, comments=list(comments)), indent=2)[:-2] + ',\n  "rows": ['
        first, cell_sep, row_sep = "\n    [\n      ", ",\n      ", "\n    ],\n    [\n      "
        last, tail = "\n    ]\n  ", "]\n}\n"
    else:
        quote, number = _csv_field, repr
        head = "".join(f"# {comment}\n" for comment in comments) + ",".join(map(_csv_field, header)) + "\n"
        first, cell_sep, row_sep, last, tail = "", ",", "\n", "\n", ""

    def cells(column):
        if isinstance(column, list):
            fields = {text: quote(text) for text in set(column)}  # each distinct string quoted once
            return list(map(fields.__getitem__, column)) if any(k != v for k, v in fields.items()) else column
        if column.dtype != np.float64:  # one str per run of equal ints
            starts = np.concatenate(([0], np.flatnonzero(column[1:] != column[:-1]) + 1))
            runs = np.diff(starts, append=column.size).tolist()
            return list(chain.from_iterable(map(repeat, map(str, column[starts].tolist()), runs)))
        if np.isfinite(column).all():
            return repr_join(column, "\n").split("\n")
        return list(map(number, column.tolist()))

    with _out_file(path) as fh:
        fh.write(head)
        wrote = False
        for columns in blocks:
            for at in range(0, len(columns[0]), FLOAT_CHUNK):
                rows = zip(*[cells(column[at : at + FLOAT_CHUNK]) for column in columns])
                fh.write((row_sep if wrote else first) + row_sep.join(map(cell_sep.join, rows)))
                wrote = True
        fh.write((last if wrote else "") + tail)
    return path


def _write_manifest(args, command: str, argv: list[str], config: dict, artifacts: list[str]) -> str:
    path = os.path.join(args.out, f"{command}.manifest.json")
    _write_json(
        path,
        {
            "command": command,
            "argv": argv,
            "config": config,
            "artifacts": [os.path.basename(a) for a in artifacts],
            "version": __version__,
            "seed": config.get("seed"),
        },
    )
    return path


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_estimate(args) -> int:
    seed = _resolve_seed(args)
    x, warnings = _read_data(args.input)
    payload = {
        "kind": args.kind,
        "n": x.n,
        "t_n": x.t_n,
        "warnings": warnings,
    }
    if args.kind in ("sr", "sG"):
        fit = stacked(x, SHAPE_KINDS[args.kind])
        estimate = fit.estimate.probs
        payload.update(beta_hat=fit.beta_hat, a_n=fit.a_n, b_n=fit.b_n)
        if fit.diagnostics:
            payload["diagnostics"] = fit.diagnostics
    else:
        estimate = fit_estimator(args.kind, x)
    payload["estimate"] = estimate
    if args.band is not None:
        q_hat = quantile_q_alpha(estimate, args.band, args.mc, seed)
        cb = make_band(estimate, x.n, q_hat, alpha=args.band, mc_reps=args.mc, seed=seed)
        payload["band"] = {
            "alpha": args.band,
            "q_hat": cb.q_hat,
            "mc_reps": args.mc,
            "seed": seed,
            "lower": cb.lower,
            "upper": cb.upper,
        }
    _make_out_dir(args.out)
    out_path = os.path.join(args.out, "estimate.json")
    _write_json(out_path, payload)
    argv = ["estimate", "--input", args.input, "--kind", args.kind, "--seed", str(seed), "--out", args.out]
    if args.band is not None:
        argv += ["--band", repr(args.band), "--mc", str(args.mc)]
    _write_manifest(args, "estimate", argv, {"kind": args.kind, "seed": seed, "n": x.n}, [out_path])
    return EXIT_OK


def _cmd_simulate(args) -> int:
    seed = _resolve_seed(args)
    model = _parse_model(args.model)
    codes = _parse_codes(args.est)
    norms = _parse_norms(args.norm)
    modes = [m for m, on in (("risk", args.risk), ("coverage", args.coverage)) if on]
    if len(modes) > 1:
        raise _UsageError("choose at most one of --risk and --coverage")
    mode = modes[0] if modes else "loss"
    if mode == "risk":
        if args.ngrid is None:
            raise _UsageError("--risk needs --ngrid")
        n_grid = _parse_int_list(args.ngrid)
    elif args.n is None:
        raise _UsageError("--coverage needs --n" if mode == "coverage" else "loss simulation needs --n")
    if args.svg and mode == "coverage":
        raise _UsageError("--svg draws the loss and risk charts only, not coverage")
    _make_out_dir(args.out)
    artifacts = []
    argv = ["simulate", "--model", args.model, "--reps", str(args.reps), "--est", ",".join(codes),
            "--norm", args.norm, "--seed", str(seed), "--workers", str(args.workers),
            "--format", args.format, "--out", args.out]
    cfg = ExperimentConfig(model=model, reps=args.reps, estimators=codes, norms=norms, n=args.n,
                           n_grid=n_grid if mode == "risk" else (), alpha=args.alpha, band_mc_reps=args.bandmc,
                           seed=seed, workers=args.workers)
    if mode == "risk":
        res = run_risk_curve(cfg)
        columns = [np.repeat(n_grid, len(codes)), list(codes) * len(n_grid), np.full(res.risk_se.size, args.reps),
                   res.risk_estimates.ravel(), res.risk_se.ravel()]
        artifacts.append(_write_table(args, "risk", ["n", "estimator", "reps", "risk", "se"], [columns]))
        argv += ["--risk", "--ngrid", args.ngrid]
        if args.svg:
            series = list(zip(codes, res.risk_estimates.T.tolist()))
            svg_path = os.path.join(args.out, "risk.svg")
            with _out_file(svg_path) as fh:
                fh.write(linechart_svg([float(n) for n in n_grid], series))
            artifacts.append(svg_path)
    elif mode == "coverage":
        res = run_coverage(cfg)
        k = len(codes)
        columns = [list(codes), [args.model] * k, np.full(k, args.n), [repr(args.alpha)] * k, np.full(k, args.reps),
                   np.full(k, args.bandmc), np.array([res.coverage[code] for code in codes]),
                   np.array([res.coverage_se[code] for code in codes])]
        header = ["estimator", "model", "n", "alpha", "reps", "band_mc_reps", "coverage", "se"]
        artifacts.append(_write_table(args, "coverage", header, [columns]))
        argv += ["--coverage", "--n", str(args.n), "--alpha", repr(args.alpha), "--bandmc", str(args.bandmc)]
    else:
        res = run_loss_experiment(cfg)
        names = [(code, "inf" if k == math.inf else str(k)) for code in codes for k in norms]
        step = max(1, FLOAT_CHUNK // len(names))

        def blocks():  # ``step`` replications at a time, so no column spans the whole run
            for at in range(0, args.reps, step):
                part = res.per_rep_losses[at : at + step]
                yield [np.arange(at, at + len(part)).repeat(len(names)), [code for code, _ in names] * len(part),
                       [norm for _, norm in names] * len(part), part.ravel()]
        artifacts.append(_write_table(args, "losses", ["rep", "estimator", "norm", "loss"], blocks()))
        argv += ["--n", str(args.n)]
        if args.svg:
            groups = list(zip(codes, res.per_rep_losses[:, :, 0].T.tolist()))  # the first norm
            svg_path = os.path.join(args.out, "losses.svg")
            with _out_file(svg_path) as fh:
                fh.write(boxplot_svg(groups))
            artifacts.append(svg_path)
    if args.svg:
        argv += ["--svg"]
    config = {"model": args.model, "mode": mode, "reps": args.reps, "estimators": list(codes),
              "norms": ["inf" if k == math.inf else k for k in norms], "n": args.n,
              "ngrid": args.ngrid, "alpha": args.alpha, "band_mc_reps": args.bandmc,
              "seed": seed, "workers": args.workers}
    _write_manifest(args, "simulate", argv, config, artifacts)
    return EXIT_OK


def _cmd_band(args) -> int:
    seed = _resolve_seed(args)
    if (args.input is None) == (args.theta is None):
        raise _UsageError("give exactly one of --input (counts) or --theta (estimate json)")
    if args.input is not None:
        x = _read_data(args.input)[0]
        center = fit_estimator(args.kind, x)
        n = x.n
        source = {"input": args.input, "kind": args.kind}
        argv = ["band", "--input", args.input, "--kind", args.kind]
    else:
        try:
            with open(args.theta, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            entries = payload["estimate"]
            # type(), not isinstance(): a JSON true or false is a Python bool, an int subclass
            if not isinstance(entries, list) or not all(type(v) in (int, float) for v in entries):
                raise ValueError("the estimate must be a list of numbers")
            center = _as_theta(np.asarray(entries, dtype=float))[0]
            n = payload["n"]
            if not isinstance(n, int) or isinstance(n, bool):
                raise ValueError(f"sample size must be an integer, got {n!r}")
            if not 1 <= n <= MAX_COUNT:
                raise ValueError(f"sample size must lie in [1, {MAX_COUNT}], got {n}")
        except (OSError, KeyError, ValueError, TypeError, OverflowError) as exc:
            raise CountsParseError(f"cannot read estimate json {args.theta}: {exc}", line=0) from exc
        source = {"theta": args.theta}
        argv = ["band", "--theta", args.theta]
    q_hat = quantile_q_alpha(center, args.alpha, args.mc, seed)
    cb = make_band(center, n, q_hat, alpha=args.alpha, mc_reps=args.mc, seed=seed)
    _make_out_dir(args.out)
    comments = [f"q_hat={cb.q_hat!r} alpha={args.alpha!r} n={n} mc_reps={args.mc} seed={seed}"]
    path = _write_table(args, "band", ["j", "lower", "upper"], [[np.arange(cb.lower.size), cb.lower, cb.upper]],
                        comments)
    argv += ["--alpha", repr(args.alpha), "--mc", str(args.mc), "--seed", str(seed),
             "--format", args.format, "--out", args.out]
    config = {"alpha": args.alpha, "mc_reps": args.mc, "seed": seed, "n": n, "q_hat": cb.q_hat, **source}
    _write_manifest(args, "band", argv, config, [path])
    return EXIT_OK


def _cmd_qq(args) -> int:
    seed = _resolve_seed(args)
    model = _parse_model(args.model)
    codes = _parse_codes(args.est)
    support = truncated_probs(model).size
    if args.coord >= support:
        raise _UsageError(f"--coord {args.coord} lies outside the support of {args.model} (length {support})")
    cfg = ExperimentConfig(model=model, reps=args.reps, estimators=codes, n=args.n,
                           seed=seed, workers=args.workers)
    res = run_qq_samples(cfg, args.coord)
    header = ["rank"]
    columns = [np.arange(args.reps)]
    for code in codes:
        header += [f"sample_{code}", f"theoretical_{code}"]
        columns += [np.sort(res.qq_samples[code]), res.qq_theoretical[code]]
    _make_out_dir(args.out)
    path = _write_table(args, "qq", header, [columns])
    argv = ["qq", "--model", args.model, "--coord", str(args.coord), "--n", str(args.n),
            "--reps", str(args.reps), "--est", ",".join(codes), "--seed", str(seed),
            "--workers", str(args.workers), "--format", args.format, "--out", args.out]
    config = {"model": args.model, "coord": args.coord, "n": args.n, "reps": args.reps,
              "estimators": list(codes), "seed": seed, "workers": args.workers}
    _write_manifest(args, "qq", argv, config, [path])
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser and entry point


def _add_common(parser: argparse.ArgumentParser, table: bool = True) -> None:
    parser.add_argument("--seed", type=_seed, default=None,
                        help=f"random seed in [0, 2**64) (fallback: ${SEED_ENV_VAR}, then 0)")
    parser.add_argument("--workers", type=_int_in(1), default=1, help="worker processes for replications")
    parser.add_argument("--out", default=".", help="output directory")
    if table:
        parser.add_argument("--format", choices=("csv", "json"), default="csv", help="table output format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stackpmf",
                                     description="Stacked shape-constrained estimation of a discrete pmf")
    parser.add_argument("--version", action="version", version=f"stackpmf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="fit one estimator to a counts file")
    p.add_argument("--input", required=True, help="counts file (whitespace-separated integers)")
    p.add_argument("--kind", required=True, choices=ESTIMATOR_CODES, help="estimator code")
    p.add_argument("--band", type=_level, default=None, metavar="ALPHA",
                   help="also compute a global confidence band at this level")
    p.add_argument("--mc", type=_int_in(MIN_QUANTILE_DRAWS, MAX_QUANTILE_DRAWS), default=100_000,
                   help="Monte-Carlo draws for the band quantile")
    _add_common(p, table=False)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("simulate", help="loss, risk or coverage experiments")
    p.add_argument("--model", required=True, help="model string (M1..M7 or e.g. geom:0.25)")
    p.add_argument("--n", type=_int_in(1, MAX_COUNT), default=None, help="sample size")
    p.add_argument("--ngrid", default=None, help="comma-separated sample sizes (risk mode)")
    p.add_argument("--reps", type=_int_in(1, MAX_REPS), required=True, help="Monte-Carlo replications")
    p.add_argument("--est", default="e,sG", help="comma-separated estimator codes")
    p.add_argument("--norm", default="1,2,inf", help="comma-separated norms from 1,2,inf")
    p.add_argument("--risk", action="store_true", help="scaled-risk curve over --ngrid")
    p.add_argument("--coverage", action="store_true", help="confidence-band coverage at --n")
    p.add_argument("--alpha", type=_level, default=0.05, help="band level for coverage mode")
    p.add_argument("--bandmc", type=_int_in(MIN_QUANTILE_DRAWS, MAX_QUANTILE_DRAWS), default=100_000,
                   help="band quantile draws for coverage mode")
    _add_common(p)
    p.add_argument("--svg", action="store_true", help="also write a minimal SVG chart of the losses or risks")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("band", help="global confidence band for a counts file or saved estimate")
    p.add_argument("--input", default=None, help="counts file; the estimator is fit here")
    p.add_argument("--kind", default="sG", choices=ESTIMATOR_CODES,
                   help="estimator to fit when --input is given")
    p.add_argument("--theta", default=None, help="estimate.json file to reuse as the band center")
    p.add_argument("--alpha", type=_level, required=True, help="band level")
    p.add_argument("--mc", type=_int_in(MIN_QUANTILE_DRAWS, MAX_QUANTILE_DRAWS), default=100_000,
                   help="Monte-Carlo draws for the quantile")
    _add_common(p)
    p.set_defaults(func=_cmd_band)

    p = sub.add_parser("qq", help="normal QQ samples of one coordinate")
    p.add_argument("--model", required=True, help="model string")
    p.add_argument("--coord", type=_int_in(0), required=True, help="coordinate under study")
    p.add_argument("--n", type=_int_in(1, MAX_COUNT), required=True, help="sample size")
    p.add_argument("--reps", type=_int_in(1, MAX_REPS), required=True, help="Monte-Carlo replications")
    p.add_argument("--est", default="e,sG", help="comma-separated estimator codes")
    _add_common(p)
    p.set_defaults(func=_cmd_qq)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CountsParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        # the parser and the subcommands reject bad flag values as usage
        # errors, so what reaches here is a numeric failure
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:  # no flag alone is known to be at fault
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
