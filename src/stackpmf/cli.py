"""Command-line interface.

Subcommands: ``estimate`` (fit one estimator to a counts file), ``simulate``
(loss, risk or coverage experiments), ``band`` (global confidence band) and
``qq`` (normal QQ samples). Every run writes its data files plus a manifest
recording the resolved arguments, so rerunning the manifest's argv
reproduces the files byte for byte.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numeric failure.
"""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import re
import sys

import numpy as np

from . import __version__
from ._svg import boxplot_svg, linechart_svg
from .confidence import band as make_band
from .confidence import MAX_QUANTILE_DRAWS, MIN_QUANTILE_DRAWS, _as_theta, quantile_q_alpha
from .estimators import ESTIMATOR_CODES, SHAPE_KINDS, fit_estimator, stacked
from .harness import (
    TRUTH_TRUNCATION,
    ExperimentConfig,
    run_coverage,
    run_loss_experiment,
    run_qq_samples,
    run_risk_curve,
)
from .models import MAX_COUNT, FrequencyData, parse_model, pmf_truncate

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
    if min(values) < 1:
        raise _UsageError(f"expected positive integers, got {text!r}")
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


def _write_csv(path: str, header: list[str], rows: list[list], comments: list[str] = ()) -> None:
    with _out_file(path) as fh:
        for comment in comments:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_loss_csv(path: str, header: list[str], codes, norm_names, losses: np.ndarray) -> None:
    """The rows ``rep, code, norm, loss`` of the ``(reps, codes, norms)``
    array ``losses`` as :func:`_write_csv` writes them: csv leaves these
    ints and names unquoted and writes floats with ``float.__repr__``."""
    tails = [f",{code},{norm}," for code in codes for norm in norm_names]
    with _out_file(path) as fh:
        fh.write(",".join(header) + "\n")
        fh.write("".join([f"{rep}{tail}{loss!r}\n" for rep, row in enumerate(losses.reshape(len(losses), -1).tolist())
                          for tail, loss in zip(tails, row)]))


def _make_out_dir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise _UsageError(f"--out {path}: cannot create the output directory: {exc.strerror}") from None


#: Where :func:`_write_json` writes float array k: the JSON of the string
#: ``"\0k"``. Every array is checked to land at exactly one match.
_FLOAT_ARRAY_MARK = re.compile(r'"\\u0000(\d+)"')

#: Floats :func:`_write_json` joins into one write.
JSON_CHUNK = 4096


def _write_json(path: str, payload) -> None:
    """``payload`` as ``json.dump(..., indent=2, sort_keys=True)`` writes it
    with every ndarray in it replaced by its ``tolist()``.

    That dump writes a skeleton with each nonempty 1-D float64 array of
    finite values replaced by a marker, and each such array is streamed in
    at its marker, ``JSON_CHUNK`` values per write, one ``float.__repr__``
    per line, which is how json writes a finite float. The bytes are the
    same, and a long estimate is never held as one list or one string.
    Every other array goes through ``tolist()``.
    """
    arrays = []

    def stub(value):
        if isinstance(value, dict):
            return {key: stub(item) for key, item in value.items()}
        if isinstance(value, list):
            return [stub(item) for item in value]
        if isinstance(value, np.ndarray):
            if value.dtype == np.float64 and value.ndim == 1 and value.size and np.isfinite(value).all():
                arrays.append(value)
                return f"\0{len(arrays) - 1}"
            return value.tolist()
        return value

    text = json.dumps(stub(payload), indent=2, sort_keys=True)
    marks = list(_FLOAT_ARRAY_MARK.finditer(text))
    if sorted(mark[1] for mark in marks) != sorted(map(str, range(len(arrays)))):
        # a string of the payload looks like a marker
        marks, text = [], json.dumps(payload, indent=2, sort_keys=True, default=np.ndarray.tolist)
    with _out_file(path) as fh:
        end = 0
        for mark in marks:
            line = text[text.rfind("\n", 0, mark.start()) + 1 : mark.start()]
            pad = line[: len(line) - len(line.lstrip(" "))]
            sep, values = f",\n  {pad}", arrays[int(mark[1])]
            fh.write(f"{text[end : mark.start()]}[\n  {pad}")
            for at in range(0, values.size, JSON_CHUNK):
                items = sep.join(map(float.__repr__, values[at : at + JSON_CHUNK].tolist()))
                fh.write(f"{sep}{items}" if at else items)
            fh.write(f"\n{pad}]")
            end = mark.end()
        fh.write(text[end:])
        fh.write("\n")


def _write_table(args, name: str, header: list[str], rows: list[list], comments: list[str] = ()) -> str:
    if getattr(args, "format", "csv") == "json":
        path = os.path.join(args.out, f"{name}.json")
        _write_json(path, {"comments": list(comments), "columns": header, "rows": rows})
    else:
        path = os.path.join(args.out, f"{name}.csv")
        _write_csv(path, header, rows, comments)
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


def _jsonable(value):
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value


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
        rows = [[n, code, args.reps, risk, se] for n, by_code, se_by_code in
                zip(n_grid, res.risk_estimates.tolist(), res.risk_se.tolist())
                for code, risk, se in zip(codes, by_code, se_by_code)]
        artifacts.append(_write_table(args, "risk", ["n", "estimator", "reps", "risk", "se"], rows))
        argv += ["--risk", "--ngrid", args.ngrid]
        if args.svg:
            series = list(zip(codes, res.risk_estimates.T.tolist()))
            svg_path = os.path.join(args.out, "risk.svg")
            with _out_file(svg_path) as fh:
                fh.write(linechart_svg([float(n) for n in n_grid], series))
            artifacts.append(svg_path)
    elif mode == "coverage":
        res = run_coverage(cfg)
        rows = [[code, args.model, args.n, repr(args.alpha), args.reps, args.bandmc,
                 float(res.coverage[code]), float(res.coverage_se[code])] for code in codes]
        artifacts.append(_write_table(
            args, "coverage",
            ["estimator", "model", "n", "alpha", "reps", "band_mc_reps", "coverage", "se"], rows))
        argv += ["--coverage", "--n", str(args.n), "--alpha", repr(args.alpha), "--bandmc", str(args.bandmc)]
    else:
        res = run_loss_experiment(cfg)
        norm_names = ["inf" if k == math.inf else str(k) for k in norms]
        header = ["rep", "estimator", "norm", "loss"]
        if args.format == "json":
            rows = [[i, code, norm_name, loss] for i, rep in enumerate(res.per_rep_losses.tolist())
                    for code, by_norm in zip(codes, rep) for norm_name, loss in zip(norm_names, by_norm)]
            artifacts.append(_write_table(args, "losses", header, rows))
        else:
            path = os.path.join(args.out, "losses.csv")
            _write_loss_csv(path, header, codes, norm_names, res.per_rep_losses)
            artifacts.append(path)
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
              "norms": [_jsonable(k) for k in norms], "n": args.n,
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
    rows = [[j, lower, upper] for j, (lower, upper) in enumerate(zip(cb.lower.tolist(), cb.upper.tolist()))]
    comments = [f"q_hat={cb.q_hat!r} alpha={args.alpha!r} n={n} mc_reps={args.mc} seed={seed}"]
    path = _write_table(args, "band", ["j", "lower", "upper"], rows, comments)
    argv += ["--alpha", repr(args.alpha), "--mc", str(args.mc), "--seed", str(seed),
             "--format", args.format, "--out", args.out]
    config = {"alpha": args.alpha, "mc_reps": args.mc, "seed": seed, "n": n, "q_hat": cb.q_hat, **source}
    _write_manifest(args, "band", argv, config, [path])
    return EXIT_OK


def _cmd_qq(args) -> int:
    seed = _resolve_seed(args)
    model = _parse_model(args.model)
    codes = _parse_codes(args.est)
    support = pmf_truncate(model, TRUTH_TRUNCATION).probs.size
    if args.coord >= support:
        raise _UsageError(f"--coord {args.coord} lies outside the support of {args.model} (length {support})")
    cfg = ExperimentConfig(model=model, reps=args.reps, estimators=codes, n=args.n,
                           seed=seed, workers=args.workers)
    res = run_qq_samples(cfg, args.coord)
    header = ["rank"]
    columns = []
    for code in codes:
        header += [f"sample_{code}", f"theoretical_{code}"]
        columns += [np.sort(res.qq_samples[code]).tolist(), res.qq_theoretical[code].tolist()]
    rows = [[i, *values] for i, values in enumerate(zip(*columns))]
    _make_out_dir(args.out)
    path = _write_table(args, "qq", header, rows)
    argv = ["qq", "--model", args.model, "--coord", str(args.coord), "--n", str(args.n),
            "--reps", str(args.reps), "--est", ",".join(codes), "--seed", str(seed),
            "--workers", str(args.workers), "--format", args.format, "--out", args.out]
    config = {"model": args.model, "coord": args.coord, "n": args.n, "reps": args.reps,
              "estimators": list(codes), "seed": seed, "workers": args.workers}
    _write_manifest(args, "qq", argv, config, [path])
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser and entry point


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=_seed, default=None,
                        help=f"random seed in [0, 2**64) (fallback: ${SEED_ENV_VAR}, then 0)")
    parser.add_argument("--workers", type=_int_in(1), default=1, help="worker processes for replications")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--format", choices=("csv", "json"), default="csv", help="table output format")
    parser.add_argument("--svg", action="store_true", help="also write a minimal SVG chart")


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
    _add_common(p)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("simulate", help="loss, risk or coverage experiments")
    p.add_argument("--model", required=True, help="model string (M1..M7 or e.g. geom:0.25)")
    p.add_argument("--n", type=_int_in(1), default=None, help="sample size")
    p.add_argument("--ngrid", default=None, help="comma-separated sample sizes (risk mode)")
    p.add_argument("--reps", type=_int_in(1), required=True, help="Monte-Carlo replications")
    p.add_argument("--est", default="e,sG", help="comma-separated estimator codes")
    p.add_argument("--norm", default="1,2,inf", help="comma-separated norms from 1,2,inf")
    p.add_argument("--risk", action="store_true", help="scaled-risk curve over --ngrid")
    p.add_argument("--coverage", action="store_true", help="confidence-band coverage at --n")
    p.add_argument("--alpha", type=_level, default=0.05, help="band level for coverage mode")
    p.add_argument("--bandmc", type=_int_in(MIN_QUANTILE_DRAWS, MAX_QUANTILE_DRAWS), default=100_000,
                   help="band quantile draws for coverage mode")
    _add_common(p)
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
    p.add_argument("--n", type=_int_in(1), required=True, help="sample size")
    p.add_argument("--reps", type=_int_in(1), required=True, help="Monte-Carlo replications")
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


if __name__ == "__main__":
    sys.exit(main())
