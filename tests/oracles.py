"""Independent reference implementations used to check the library.

These deliberately avoid the library's algorithms: the partition oracle
enumerates every blockwise-mean candidate, and the repeated-argmax scan
follows the textbook maximum-upper-sets description step by step.
:func:`loo_vectors` computes leave-one-out vectors from their definition,
one full refit per support point, against which the library's stack
passes are checked; :func:`exact_loo_grenander` does the same for the
isotonic fit in exact rational arithmetic, and
:func:`reference_loo_rearrangement` is the rearrangement pass one count
vector at a time. :func:`exact_block_starts` gives the blocks of the exact
PAV fit, from which :func:`shape_transform` builds the isotonic fit.
:func:`reference_sample` rebuilds the sampling table on every call, as the
library's sampler did before it cached one table per model, and draws its
uniforms in one call, as the sampler did before it drew them in chunks.
:func:`reference_coverage`
estimates one sup-norm quantile per center, each from its own normals, as
coverage replications did before they shared one set of normals across
their centers.
:func:`reference_frequency_total` checks and totals counts with Python
ints, as a reference for ``FrequencyData``'s array reductions.
:func:`reference_read_counts` reads a counts file in text mode one token
at a time, as the CLI did before it converted plain files with numpy.
:func:`reference_cv_beta` computes the mixture weight from 1-D sums, as the
library did before its stacked engine, and :func:`reference_fit` each
estimator on one count vector, as the library did before one engine
fitted every estimate as a stack.
:func:`reference_poisson_truncation` truncates a Poisson by searching on
``scipy.special.pdtrc`` and evaluates it with ``scipy.stats.poisson``, as
the library did before its Poisson pmf and truncation dropped scipy.
:func:`exact_poisson_tail` sums a Poisson tail in 50-digit decimal
arithmetic, against the library's float sum of the same series.
:func:`repr_join` joins ``float.__repr__`` of each value, as the JSON
writer did before it rendered its float arrays vectorized.
:func:`reference_csv_table` and :func:`reference_json_table` write a table
from Python row lists through ``csv.writer`` and ``json.dumps``, as the CLI
did before it streamed every table from its columns.
:func:`scipy_isotonic_decreasing` is SciPy's pool-adjacent-violators fit
of a float vector, as ``isotonic_decreasing`` computed it before the
package's own pass took float input.
:func:`reference_sup_norm` forms each row block of limit draws as a fresh
array from a whole chunk of normals, with the centring sum written out in
its summation order, against the library's sampler that streams the
normals block by block into reused buffers.
:func:`substream_seed` is numpy's own derivation of one child seed, which
``rng.child_seeds`` ports to a block of indices in one pass.
"""

import csv
import decimal
import io
import json
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from stackpmf import (
    GRENANDER,
    KINDS,
    REARRANGEMENT,
    FrequencyData,
    InsufficientSampleError,
    LooVectors,
    band,
    fit_estimator,
    loo_vectors_fast,
    pmf_truncate,
    quantile_q_alpha,
    rearrange_decreasing,
    sample,
)
from stackpmf.cli import CountsParseError
from stackpmf.estimators import A_N_TOL
from stackpmf.errors import EmptyInputError
from stackpmf.models import MAX_COUNT, SAMPLING_TRUNCATION
from stackpmf.rng import _seed_sequence, substream

#: Counts vectors with zeros and ties, ending in a positive count; the
#: single-observation vectors [1] and [0, 0, 1] have n = 1.
counts_vectors = st.lists(st.integers(0, 5), min_size=0, max_size=30).flatmap(
    lambda head: st.integers(1, 5).map(lambda last: np.asarray(head + [last], dtype=np.int64))
)


def staircase(steps: list[tuple[int, int]], bump_at: int, bump: int) -> np.ndarray:
    """Counts falling by ``drop`` then holding for ``width`` indices per step,
    ending at 1, with ``bump`` added at index ``bump_at`` if it exists."""
    level = sum(drop for drop, _ in steps) + 1
    counts = []
    for drop, width in steps:
        level -= drop
        counts += [level] * width
    if bump_at < len(counts):
        counts[bump_at] += bump
    return np.asarray(counts, dtype=np.int64)


#: Staircases of up to 12 steps of 1-8 equal counts, each step 0-2 below
#: the last, with 0-2 observations added at one index. Steps whose levels
#: differ by little make the leave-one-out bridge cross several blocks.
staircase_vectors = st.builds(
    staircase,
    st.lists(st.tuples(st.integers(0, 2), st.integers(1, 8)), min_size=1, max_size=12),
    st.integers(0, 95),
    st.integers(0, 2),
)


def exact_pav_decreasing(counts: list[int]) -> list[Fraction]:
    """Nonincreasing least-squares fit of integer counts by
    pool-adjacent-violators, exact: blocks hold integer sums and widths,
    and a block is merged into its left neighbour while its mean is at
    least the neighbour's."""
    blocks: list[list[int]] = []  # [sum, width]
    for c in counts:
        blocks.append([c, 1])
        while len(blocks) >= 2 and blocks[-1][0] * blocks[-2][1] >= blocks[-2][0] * blocks[-1][1]:
            total, width = blocks.pop()
            blocks[-1][0] += total
            blocks[-1][1] += width
    return [Fraction(total, width) for total, width in blocks for _ in range(width)]


def exact_block_starts(counts) -> list[int]:
    """Start of every maximal constant block of :func:`exact_pav_decreasing`
    on the integer ``counts``."""
    fit = exact_pav_decreasing([int(c) for c in counts])
    return [j for j in range(len(fit)) if j == 0 or fit[j] != fit[j - 1]]


def exact_loo_grenander(counts) -> list[Fraction]:
    """Coordinate j of the isotonic fit of ``(counts - e_j) / (n - 1)`` for
    every j with a positive count (0 elsewhere), as exact rationals."""
    counts = [int(c) for c in counts]
    n = sum(counts)
    out = [Fraction(0)] * len(counts)
    for j, c in enumerate(counts):
        if c > 0:
            modified = counts.copy()
            modified[j] -= 1
            out[j] = exact_pav_decreasing(modified)[j] / (n - 1)
    return out


def reference_loo_rearrangement(counts: np.ndarray, n: int) -> np.ndarray:
    """Coordinate j of sorting ``counts - e_j`` descending, over ``n - 1``,
    for all j of one count vector, by rank searches rather than the
    library's comparison with the next sorted value.

    Removing one copy of the value ``v = x_j`` from the sorted order and
    inserting ``v - 1`` shifts the segment between the two positions by one
    slot; the value at any fixed position follows from two binary searches.
    """
    d = counts.size
    desc = np.sort(counts)[::-1]
    asc = desc[::-1]
    js = np.flatnonzero(counts > 0)
    v = counts[js]
    # first sorted position holding value v = number of entries > v
    i1 = d - np.searchsorted(asc, v, side="right")
    # insertion position of v - 1 = number of entries >= v - 1
    j2 = d - np.searchsorted(asc, v - 1, side="left")
    shifted = desc[np.minimum(js + 1, d - 1)]
    vals = np.where(
        js < i1,
        desc[js],
        np.where(js <= j2 - 2, shifted, np.where(js == j2 - 1, v - 1, desc[js])),
    )
    out = np.zeros(d)
    out[js] = vals / (n - 1)
    return out


def brute_force_isotonic_decreasing(v: np.ndarray) -> np.ndarray:
    """Exhaustive search over all partitions into consecutive blocks.

    Each candidate fits every block at its mean; candidates whose fitted
    vector is not nonincreasing are infeasible; the least-squares winner is
    the projection. Exponential in len(v), usable up to length ~12.
    """
    v = np.asarray(v, dtype=float)
    d = v.size
    best = None
    best_sse = np.inf
    for mask in range(1 << (d - 1)):
        cuts = [0]
        for pos in range(d - 1):
            if mask >> pos & 1:
                cuts.append(pos + 1)
        cuts.append(d)
        fitted = np.empty(d)
        for a, b in zip(cuts[:-1], cuts[1:]):
            fitted[a:b] = v[a:b].mean()
        if np.any(np.diff(fitted) > 1e-12):
            continue
        sse = float(np.sum((v - fitted) ** 2))
        if sse < best_sse:
            best_sse = sse
            best = fitted
    return best


def scipy_isotonic_decreasing(v: np.ndarray) -> np.ndarray:
    """The nonincreasing least-squares fit of the float vector ``v`` by
    ``scipy.optimize.isotonic_regression``."""
    from scipy.optimize import isotonic_regression

    return isotonic_regression(v, increasing=False).x


def maximum_upper_sets(v: np.ndarray) -> np.ndarray:
    """Repeated largest-argmax-of-the-prefix-mean scan, quadratic time."""
    v = np.asarray(v, dtype=float)
    d = v.size
    fitted = np.empty(d)
    start = 0
    while start < d:
        cums = np.cumsum(v[start:])
        means = cums / np.arange(1, d - start + 1)
        best = 0
        for m in range(1, means.size):
            if means[m] >= means[best]:
                best = m
        fitted[start : start + best + 1] = means[best]
        start += best + 1
    return fitted


def shape_transform(kind: str, counts: np.ndarray, n: int) -> np.ndarray:
    """The isotonic fit (``grenander``) or the decreasing rearrangement of
    ``counts / n``, for integer counts. The isotonic fit takes its blocks
    from the exact PAV (:func:`exact_block_starts`) and its levels as the
    block means ``np.add.reduceat(counts / n, starts) / widths``, merging
    neighbours whose float levels do not fall, as ``isotonic_decreasing``
    does; the rearrangement is the library's sort, which needs no oracle."""
    v = counts / n
    if kind != GRENANDER:
        return rearrange_decreasing(v)
    starts = np.array(exact_block_starts(counts))
    while True:
        widths = np.diff(np.append(starts, v.size))
        levels = np.add.reduceat(v, starts) / widths
        strict = np.append(True, levels[1:] < levels[:-1])
        if strict.all():
            return np.repeat(levels, widths)
        starts = starts[strict]


def loo_vectors(x: FrequencyData, kind: str) -> LooVectors:
    """Leave-one-out vectors by definition: one full refit per support point,
    through :func:`shape_transform`. O(D^2).
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    if x.n < 2:
        raise InsufficientSampleError("leave-one-out needs at least 2 observations")
    counts = x.counts
    n = x.n
    d = counts.size
    pi = np.zeros(d)
    shape_loo = np.zeros(d)
    for j in range(d):
        if counts[j] == 0:
            continue
        modified = counts.copy()
        modified[j] -= 1
        pi[j] = (counts[j] - 1) / (n - 1)
        shape_loo[j] = shape_transform(kind, modified, n - 1)[j]
    return LooVectors(pi=pi, shape_loo=shape_loo, kind=kind)


def reference_cv_beta(x: FrequencyData, kind: str) -> tuple:
    """``(beta_hat, a_n, b_n)`` from 1-D sums and a scalar case chain, as
    ``cv_beta`` computed them before it ran on stacks; ``x.n >= 2``."""
    base = x.counts / x.n
    shape = shape_transform(kind, x.counts, x.n)
    a_n = float(np.sum((shape - base) ** 2))
    loo = loo_vectors_fast(x, kind)
    b_n = float(np.sum(base * (loo.shape_loo - loo.pi)) - np.sum(base * (shape - base)))
    if a_n <= A_N_TOL:
        beta = 0.0
    elif 0.0 <= b_n <= a_n:
        beta = b_n / a_n
    elif b_n >= a_n:
        beta = 1.0
    else:
        beta = 0.0
    return beta, a_n, b_n


def reference_fit(code: str, x: FrequencyData) -> np.ndarray:
    """The estimator named by ``code`` on one data set, one vector at a
    time, as ``stacked`` and the plain estimators computed it before the
    library fitted every estimate as a stack; the stacked weight comes from
    :func:`reference_cv_beta`, and is 0 for a single observation."""
    base = x.counts / x.n
    if code == "e":
        return base
    if code == "mm":
        alpha = math.sqrt(x.n) / (x.n + math.sqrt(x.n))
        return alpha * np.full(base.size, 1.0 / base.size) + (1.0 - alpha) * base
    kind = GRENANDER if code[-1] == "G" else REARRANGEMENT
    shape = shape_transform(kind, x.counts, x.n)
    if code in ("r", "G"):
        return shape
    beta = reference_cv_beta(x, kind)[0] if x.n > 1 else 0.0
    return beta * shape + (1.0 - beta) * base


def reference_read_counts(path) -> tuple[np.ndarray, list[str]]:
    """:func:`stackpmf.cli.read_counts` as it was before it read the bytes
    once and converted plain files with numpy: the file opened in text mode
    and read one token at a time."""
    values: list[int] = []
    warnings: list[str] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise CountsParseError(f"cannot read {path}: {exc.strerror}", line=0) from exc
    except UnicodeDecodeError as exc:
        raise CountsParseError(f"cannot read {path}: not UTF-8 text ({exc.reason})", line=0) from exc
    for lineno, line in enumerate(lines, start=1):
        for token in line.split():
            if not (token.isascii() and token.isdigit()):
                raise CountsParseError(f"not a nonnegative integer count: {token!r}", line=lineno)
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
    if trimmed < len(values):
        warnings.append(f"stripped {len(values) - trimmed} trailing zero count(s)")
    return np.asarray(values[:trimmed], dtype=np.int64), warnings


def reference_frequency_total(values: list[int], declared: int = 0) -> int:
    """Total of the integer counts ``values`` as ``FrequencyData`` checks it,
    one Python-int step at a time: raises the same error type and message for
    a negative count, a trailing zero, a total past ``MAX_COUNT`` or below 1,
    and a ``declared`` total (0 for none) that differs."""
    if any(v < 0 for v in values):
        raise ValueError("counts must be nonnegative")
    if values[-1] == 0:
        raise ValueError("last count must be positive (trailing zeros are not part of the support)")
    n = sum(values)
    if n > MAX_COUNT:
        raise ValueError(f"total count {n} exceeds {MAX_COUNT}")
    if n < 1:
        raise EmptyInputError("total count must be at least 1")
    if declared not in (0, n):
        raise ValueError(f"declared n={declared} does not match sum of counts {n}")
    return n


def scaled_risk_closed_form(truth: np.ndarray) -> float:
    """``n * E[squared l2 error]`` of the empirical estimator: ``1 - sum p^2``."""
    truth = np.asarray(truth, dtype=float)
    return float(1.0 - np.sum(truth**2))


def random_frequency_data(rng: np.random.Generator, max_len: int = 50, max_n: int = 10_000) -> FrequencyData:
    """Counts vectors of varied shape: dense multinomial, sparse, monotone."""
    d = int(rng.integers(1, max_len + 1))
    style = int(rng.integers(0, 4))
    if style == 0:
        n = int(rng.integers(2, max_n + 1))
        weights = rng.random(d) + 0.05
        counts = rng.multinomial(n, weights / weights.sum())
    elif style == 1:
        counts = rng.poisson(rng.uniform(0.2, 4.0), size=d)
    elif style == 2:
        counts = np.arange(1, d + 1)
    else:
        counts = np.where(rng.random(d) < 0.3, rng.integers(1, 40, size=d), 0)
    counts = counts.astype(np.int64)
    counts[-1] = max(int(counts[-1]), 1)
    if counts.sum() < 2:
        counts[-1] += 2
    return FrequencyData(counts)


def substream_seed(seed: int, *path) -> int:
    """The 64-bit child seed ``SeedSequence(...).generate_state(1, np.uint64)``
    of the stream addressed by ``seed`` and ``path``, from numpy itself."""
    return int(_seed_sequence(seed, path).generate_state(1, np.uint64)[0])


def reference_sample(model, n: int, seed: int) -> FrequencyData:
    """Inversion sampling from a freshly truncated table, no caching, with
    all ``n`` uniforms drawn in one ``Generator.random`` call."""
    pmf = pmf_truncate(model, SAMPLING_TRUNCATION)
    cum = np.cumsum(pmf.probs)
    u = substream(seed).random(int(n))
    idx = np.minimum(np.searchsorted(cum, u, side="right"), pmf.probs.size - 1)
    return FrequencyData(np.bincount(idx))


def reference_coverage(cfg, truth, i: int) -> tuple:
    """Band hits and quantiles of coverage replication ``i`` under the
    ``ExperimentConfig`` ``cfg`` (one step of ``harness.run_coverage``), with
    a standalone quantile per center. The sample comes from the stream
    ``(seed, "rep", i)`` and every quantile from ``(seed, "band", i)``."""
    x = sample(cfg.model, cfg.n, substream_seed(cfg.seed, "rep", i))
    band_seed = substream_seed(cfg.seed, "band", i)
    hits, q_hats = [], []
    for code in cfg.estimators:
        center = fit_estimator(code, x)
        q_hats.append(quantile_q_alpha(center, cfg.alpha, cfg.band_mc_reps, band_seed))
        padded = np.zeros(max(center.size, truth.size))
        padded[: center.size] = center
        b = band(padded, cfg.n, q_hats[-1])
        hits.append(bool(np.all(b.lower[: truth.size] <= truth) and np.all(truth <= b.upper[: truth.size])))
    return np.array(hits), q_hats


def reference_sup_norm(theta, reps: int, seed: int) -> np.ndarray:
    """Sup-norm draws of the limit Gaussian vector, each row block from scratch.

    Chunk k holds ``max(64, min(8192, 2**21 // D))`` draws (fewer in the
    last), drawn whole from the substream ``(seed, "supnorm", k)``; every
    row of a ``(c, D)`` stack uses the same normals. The chunk is cut into
    blocks of ``min(chunk, reps, max(1, 2**17 // D))`` draws. For each block
    the products ``p_ij = Z_ij sqrt(theta_j)`` are a fresh ``(rows, D)``
    array and ``S_i`` is their plain sum over j: left to right,
    ``((p_i0 + p_i1) + p_i2) + ...``, when D is less than the block's rows,
    and numpy's pairwise sum of the contiguous row ``p_i`` otherwise. Then
    ``Y_ij = p_ij - S_i theta_j``. A vector gives ``(reps,)``.
    """
    stack = np.atleast_2d(np.asarray(theta, dtype=float))
    dim = stack.shape[1]
    chunk = max(64, min(8192, (1 << 21) // dim))
    rows = min(chunk, reps, max(1, (1 << 17) // dim))
    out = np.empty((stack.shape[0], reps))
    for k, done in enumerate(range(0, reps, chunk)):
        m = min(chunk, reps - done)
        z = substream(seed, "supnorm", k).standard_normal((m, dim))
        for a in range(0, m, rows):
            for i, row in enumerate(stack):
                p = z[a : a + rows] * np.sqrt(row)
                if dim < rows:
                    s = p[:, 0].copy()
                    for j in range(1, dim):
                        s += p[:, j]
                else:
                    s = p.sum(axis=1)
                y = p - s[:, None] * row
                out[i, done + a : done + a + len(y)] = np.abs(y).max(axis=1)
    return out if np.ndim(theta) == 2 else out[0]


def reference_poisson_truncation(lam: float, epsilon: float) -> np.ndarray:
    """Probabilities of Poisson(lam) up to the shortest length whose tail
    ``pdtrc(length - 1, lam)`` is at most ``epsilon``, found by doubling and
    then bisection on that tail."""
    from scipy.special import pdtrc
    from scipy.stats import poisson

    def within(length):
        return float(np.clip(pdtrc(length - 1, lam), 0.0, 1.0)) <= epsilon

    hi = 1
    while not within(hi):
        hi *= 2
    lo = max(1, hi // 2)
    while lo < hi:
        mid = (lo + hi) // 2
        if within(mid):
            hi = mid
        else:
            lo = mid + 1
    return poisson.pmf(np.arange(hi), lam)


def _decimal_pi() -> Decimal:
    """pi to the current decimal precision (the ``decimal`` module's recipe)."""
    decimal.getcontext().prec += 2
    last, t, s, n, na, d, da = 0, Decimal(3), Decimal(3), 1, 0, 0, 24
    while s != last:
        last = s
        n, na = n + na, na + 8
        d, da = d + da, da + 32
        t = (t * n) / d
        s += t
    decimal.getcontext().prec -= 2
    return +s


def _decimal_log_factorial(k: int) -> Decimal:
    """``log(k!)`` to the current decimal precision: the log of the exact
    integer below 1000, and Stirling's series through ``x**-9`` for ``x = k + 1``
    from there, whose next term is under 1e-35."""
    if k < 1000:
        return Decimal(math.factorial(k)).ln()
    x = Decimal(k + 1)
    series = sum(Decimal(1) / (c * x ** (2 * m + 1)) for m, c in enumerate((12, -360, 1260, -1680, 1188)))
    return (x - Decimal("0.5")) * x.ln() - x + (2 * _decimal_pi()).ln() / 2 + series


def exact_poisson_tail(lam: float, length: int) -> float:
    """Probability of values ``>= length`` under Poisson(lam), with the
    binary value of ``lam`` taken exactly, in 50-digit decimal arithmetic,
    rounded once to a float. Above the mean it is the upward sum from
    ``p_length``; otherwise one minus the downward sum of ``p_k`` for
    ``k < length``. Each sum runs term by term until a geometric bound on
    its rest is below 1e-45 of it."""
    if length <= 0:
        return 1.0
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emin, ctx.Emax = 50, decimal.MIN_EMIN, decimal.MAX_EMAX
        rate, tiny = Decimal(lam), Decimal("1e-45")
        up = length > lam
        k = length if up else length - 1
        term = (k * rate.ln() - _decimal_log_factorial(k) - rate).exp()
        total = Decimal(0)
        while term:
            total += term
            if up:
                k += 1
                term, ratio = term * rate / k, rate / (k + 1)
            else:
                term, k = term * k / rate, k - 1
                ratio = max(k, 0) / rate
            if term <= (1 - ratio) * tiny * total:
                break
        return float(total if up else 1 - total)


def repr_join(values: np.ndarray, sep: str) -> str:
    """How ``json`` writes a finite float, once a value, joined by ``sep``."""
    return sep.join(map(float.__repr__, values.tolist()))


def reference_csv_table(header: list, rows: list, comments=()) -> str:
    """A ``# `` line per comment, then ``header`` and ``rows`` as ``csv.writer`` writes them."""
    out = io.StringIO()
    out.writelines(f"# {comment}\n" for comment in comments)
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def reference_json_table(header: list, rows: list, comments=()) -> str:
    """``json.dump(..., indent=2, sort_keys=True)`` of the table, plus a newline."""
    return json.dumps({"columns": header, "comments": list(comments), "rows": rows}, indent=2, sort_keys=True) + "\n"
