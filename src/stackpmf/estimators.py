"""Point estimators of a discrete probability mass function.

Five estimators of the underlying pmf from frequency data: the empirical
relative frequencies, their decreasing rearrangement, their isotonic
projection (the monotone MLE), the fixed-shrinkage minimax combination
with the uniform vector, and the stacked estimator

    estimate = beta * shape + (1 - beta) * empirical

whose mixture weight ``beta`` minimizes a leave-one-out least-squares
cross-validation criterion and is available in closed form from two
scalars ``a_n`` and ``b_n`` (see :func:`cv_beta`).

Every estimate comes from one engine, :func:`fit_stack`, which fits a
``(B, D)`` stack of count vectors for any of the ``ESTIMATOR_CODES``.
:func:`empirical`, :func:`rearrangement`, :func:`grenander`,
:func:`minimax`, :func:`stacked`, :func:`cv_beta` and
:func:`fit_estimator` are its one-row views. The isotonic blocks of a
stack come from the package's one pool-adjacent-violators pass,
``shape.grenander_blocks``, exact on integer counts and run over all the
rows at once; the Grenander fit takes its levels as block means of
``counts / n`` (``shape.block_means``), and the leave-one-out pass reuses
the blocks as the vertices of the least concave majorant.

The leave-one-out vectors, one full refit per observed support point,
come from :func:`loo_stacks` for a whole ``(B, D)`` stack of count vectors
at once. The rearrangement values follow from one sort and one comparison
with the next sorted value. The isotonic value at q is the min-max slope of
the cumulative counts ``C``,

    min over u <= q of max over w > q of (C_w - 1 - C_u) / ((w - u)(n - 1)).

One kernel computes it for every D and n: from the vertices of the
majorant of C, one whole-array tangent search per point over the whole
stack and a running min, in O(B D log D) numpy operations. The value type
follows from the input. While ``(D + 1) n <= 2**53`` a slope's numerator
and denominator are exact floats and their cross products exact int64;
past that bound the cumulative counts are Python ints in object arrays.
Either way each value is the correctly rounded exact value.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientSampleError
from .models import FrequencyData, Pmf
from .shape import block_means, grenander_blocks, isotonic_decreasing, rearrange_decreasing  # noqa: F401  (perfbench's tracer looks isotonic_decreasing up here)

REARRANGEMENT = "rearrangement"
GRENANDER = "grenander"
KINDS = (REARRANGEMENT, GRENANDER)

#: Empirical, minimax, rearranged, Grenander, and the two stacked estimators.
ESTIMATOR_CODES = ("e", "mm", "r", "G", "sr", "sG")

#: Shape transform behind each shape-based estimator code.
SHAPE_KINDS = {"r": REARRANGEMENT, "G": GRENANDER, "sr": REARRANGEMENT, "sG": GRENANDER}

#: The l_k norms :func:`lk_distance` supports.
NORMS = (1, 2, math.inf)

#: Below this, the squared distance between shape and base is treated as zero
#: and the mixture weight defaults to 0 (the estimate is unchanged either way).
A_N_TOL = 1e-15


def _check_kind(kind: str) -> str:
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    return kind


@dataclass(frozen=True, eq=False)
class LooVectors:
    """Per-index leave-one-out values.

    ``pi[j]`` is the empirical leave-one-out estimate ``(x_j - 1)/(n - 1)``
    and ``shape_loo[j]`` the j-th coordinate of the shape transform applied
    to the full modified vector ``(x - e_j)/(n - 1)``, both for ``x_j > 0``;
    indices with ``x_j = 0`` hold exact zeros.
    """

    pi: np.ndarray
    shape_loo: np.ndarray
    kind: str


@dataclass(frozen=True, eq=False)
class StackedFit:
    """A stacked estimate together with its ingredients.

    ``estimate = beta_hat * shape + (1 - beta_hat) * base`` coordinatewise,
    where ``base`` is the empirical estimator and ``shape`` the rearranged or
    isotonic one. ``a_n`` and ``b_n`` are the quadratic-form coefficients the
    mixture weight was derived from (``b_n`` is None when ``n = 1`` leaves
    the criterion undefined).
    """

    beta_hat: float
    a_n: float
    b_n: float | None
    base: Pmf
    shape: Pmf
    estimate: Pmf
    kind: str
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Leave-one-out vectors


def _loo_rearrangement(counts: np.ndarray, n: int) -> np.ndarray:
    """Coordinate j of sorting ``counts[b] - e_j`` descending, for every row b
    and every j at once.

    Lowering one copy of the value ``v = x_j`` keeps the descending order
    ``desc`` sorted if the copy lowered is the last one, so the sorted
    vector is ``desc`` with that slot one smaller. The slot is j exactly
    when ``desc[j] >= v > desc[j + 1]``, taking ``desc[D] = 0``.
    """
    desc = np.sort(counts, axis=1)[:, ::-1]
    desc_next = np.zeros_like(desc)
    desc_next[:, :-1] = desc[:, 1:]
    lowered = (desc >= counts) & (counts > desc_next)
    return np.where(counts > 0, desc - lowered, 0) / (n - 1)


def _loo_grenander_stack(counts: np.ndarray, n: int, starts: np.ndarray) -> np.ndarray:
    """Coordinate j of the isotonic fit of ``counts[b] - e_j``, for every
    row b and index j at once, from the block starts ``starts`` of
    :func:`grenander_blocks` on the ``(B, D)`` stack ``counts``.

    Works on the cumulative-sum diagram C of each row: decrementing index q
    lowers every point right of q by one, and the fitted value at q is the
    slope of the bridge of the least concave majorant across q,

        value(q) = min over u <= q of max over w > q of (C_w - 1 - C_u) / ((w - u)(n - 1)).

    Let V be the majorant's vertices, ``s <= q < t`` its neighbours around
    q, and ``H(u)`` the max of ``(C_w - 1 - C_u) / (w - u)`` over the
    vertices w past the last vertex ``<= u``. The lowered points q+1 .. t lie
    under the chord s-t while the bridge is no steeper than it, so the
    bridge touches V at or after t, and the value at q is the running min
    of H up to q:

    * for ``s <= u <= q`` the max over w in V, w >= t, is H(u);
    * for u < s it is no smaller than at s, as from each such w the chord
      of the majorant and ``-1 / (w - u)`` both fall while u rises to s;
    * and every H(u), u <= q, is at least the value, as it maxes over more w.

    Seen from a point left of a concave chain, the slopes to its vertices
    are unimodal, so H is one binary search per point, run for every point
    of the stack at once, each round over the points still searching. The
    rows share one flat index space, point j of row b at ``b (D + 1) + j``,
    and each search ends at its own row's last vertex D.

    Each value is one division ``num / (den (n - 1))`` of exact integers,
    and rounding is monotone, so the running min of the rounded values is
    the rounded exact min. While ``(D + 1) n <= 2**53`` the integers and
    every cross product of the search are exact int64, and their quotient
    is one of exact floats; past that bound the cumulative counts and the
    denominators are Python ints, whose products are exact and whose
    quotient is correctly rounded.
    """
    rows, d = counts.shape
    exact_floats = (d + 1) * n <= 2**53
    cum = np.zeros((rows, d + 1), dtype=np.int64)
    np.cumsum(counts, axis=1, out=cum[:, 1:])  # per row: offset rows would leave int64
    if not exact_floats:
        cum = cum.astype(object)
    flat = cum.ravel()
    ends = np.searchsorted(starts, np.arange(1, rows + 1) * d)
    vert = np.insert(starts + starts // d, ends, np.arange(rows) * (d + 1) + d)
    cv = flat[vert] - 1
    rise, run = np.diff(cv), np.diff(vert)
    # lo: the first vertex past each point; hi: its row's end vertex (row
    # ends themselves start past it and never search)
    lo = np.repeat(np.arange(1, vert.size + 1), np.diff(vert, append=flat.size))
    hi = np.repeat(ends + np.arange(rows), d + 1)
    live = np.flatnonzero(lo < hi)
    while live.size:
        mid = (lo[live] + hi[live]) >> 1
        # the slope from u to vertex mid + 1 exceeds the slope to mid: with
        # a = C_mid - 1 - C_u, (a + rise) / (width + run) > a / width
        right = rise[mid] * (vert[mid] - live) > (cv[mid] - flat[live]) * run[mid]
        lo[live[right]] = mid[right] + 1
        hi[live[~right]] = mid[~right]
        live = live[lo[live] < hi[live]]
    del hi, live, cv, rise, run  # before the quotient's temporaries: it sets the peak
    w = vert[lo.reshape(rows, d + 1)[:, :d]]
    del lo, vert
    num = flat[w]
    num -= 1
    num -= cum[:, :d]
    del cum, flat
    w -= (np.arange(rows) * (d + 1))[:, None]
    w -= np.arange(d)
    if not exact_floats:
        w = w.astype(object)
    w *= n - 1
    vals = (num / w).astype(float, copy=False)
    np.minimum.accumulate(vals, axis=1, out=vals)
    vals[counts == 0] = 0.0
    return vals


def loo_stacks(counts: np.ndarray, n: int, kind: str,
               starts: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The ``pi`` and ``shape_loo`` of :class:`LooVectors` as ``(B, D)``
    stacks, for a ``(B, D)`` integer count stack whose rows all total ``n``.
    Row b is bitwise :func:`loo_vectors_fast` on row b alone.

    The isotonic values come from one kernel for every D and n,
    :func:`_loo_grenander_stack`, on exact int64 integers while ``(D + 1)
    n <= 2**53`` and on Python ints past that. It takes each row's majorant
    vertices from the block starts of :func:`grenander_blocks` on the
    stack: ``starts`` when given (the Grenander fit of the stack already
    has them), else computed here. ``pi`` is formed after the shape pass,
    so the two stacks are never alive beside that pass's temporaries.
    """
    _check_kind(kind)
    if n < 2:
        raise InsufficientSampleError("leave-one-out needs at least 2 observations")
    if kind == REARRANGEMENT:
        shape_loo = _loo_rearrangement(counts, n)
    else:
        shape_loo = _loo_grenander_stack(counts, n, grenander_blocks(counts) if starts is None else starts)
    return np.maximum(counts - 1, 0) / (n - 1), shape_loo


def loo_vectors_fast(x: FrequencyData, kind: str) -> LooVectors:
    """Leave-one-out vectors for ``kind`` without refitting per index: the
    one-row case of :func:`loo_stacks`."""
    pi, shape_loo = loo_stacks(x.counts[None], x.n, kind)
    return LooVectors(pi=pi[0], shape_loo=shape_loo[0], kind=kind)


# ---------------------------------------------------------------------------
# The fit engine and its one-row views


def cv_betas(counts: np.ndarray, n: int, kind: str, base: np.ndarray, shape: np.ndarray,
             starts: np.ndarray | None = None) -> tuple:
    """:func:`cv_beta` as arrays ``(beta_hat, a_n, b_n)`` for a ``(B, D)``
    count stack ``counts`` whose rows all total n >= 2, with its empirical
    and shape stacks ``base`` and ``shape``; ``starts`` goes on to
    :func:`loo_stacks`.

    The products ``(shape_loo - pi) * base``, ``(shape - base) * base``
    and ``(shape - base)**2`` are formed in place in the two leave-one-out
    stacks, so no further ``(B, D)`` array is allocated. Each is the same
    elementwise product as a fresh array would hold (``x**2`` is ``x * x``),
    so the row sums keep their bits."""
    pi, loo = loo_stacks(counts, n, kind, starts)
    loo -= pi
    loo *= base
    diff = np.subtract(shape, base, out=pi)
    b_n = np.sum(loo, axis=1)
    b_n -= np.sum(np.multiply(diff, base, out=loo), axis=1)
    a_n = np.sum(np.multiply(diff, diff, out=diff), axis=1)
    above = a_n > A_N_TOL
    interior = above & (0.0 <= b_n) & (b_n <= a_n)
    beta = np.divide(b_n, a_n, out=np.zeros_like(a_n), where=interior)
    beta[above & ~interior & (b_n >= a_n)] = 1.0
    return beta, a_n, b_n


def fit_stack(codes, counts: np.ndarray, n: int) -> tuple[np.ndarray, dict]:
    """Fits of the estimators named by ``codes`` to each row of ``counts``.

    ``counts`` is a ``(B, D)`` int64 stack whose rows all total ``n``.
    Returns the ``(B, len(codes), D)`` fits and, for each stacked code
    among ``codes``, its ``(beta_hat, a_n, b_n)`` arrays from
    :func:`cv_betas`. Every step is elementwise or a row reduction, so
    entry ``[b, a]`` does not depend on the other rows. Each fit, and each
    shape fit behind a stacked one, runs once, into its code's first output
    slot (an unnamed shape fit into its own buffer); the blocks of
    :func:`grenander_blocks` are found once for the isotonic fit and its
    leave-one-out pass. A single observation leaves the criterion
    undefined: the weight is 0 and ``b_n`` is None.
    """
    out = np.empty((counts.shape[0], len(codes), counts.shape[1]))
    base = np.divide(counts, n, out=out[:, codes.index("e")] if "e" in codes else None)
    fits, weights, starts = {"e": base}, {}, None
    for a, code in enumerate(codes):
        if code not in ESTIMATOR_CODES:
            raise ValueError(f"unknown estimator code {code!r}; choose from {ESTIMATOR_CODES}")
        if code in fits:
            if codes.index(code) < a:  # a duplicate
                out[:, a] = fits[code]
            continue
        if code == "mm":
            alpha = math.sqrt(n) / (n + math.sqrt(n))
            fits[code] = np.add(alpha * np.full_like(base[0], 1.0 / base.shape[1]), (1.0 - alpha) * base, out=out[:, a])
            continue
        kind, shape_code = SHAPE_KINDS[code], code[-1]  # sr and sG stack the shape fits r and G
        if shape_code not in fits:
            if kind == GRENANDER:
                starts = grenander_blocks(counts)
                _, levels, widths = block_means(base, starts)
                shape = np.repeat(levels, widths).reshape(base.shape)
            else:
                shape = rearrange_decreasing(base)
            fits[shape_code] = out[:, codes.index(shape_code)] if shape_code in codes else shape
            fits[shape_code][...] = shape  # numpy skips the copy onto itself of an unnamed shape fit
        if code != shape_code:
            shape = fits[shape_code]
            if n > 1:
                weights[code] = cv_betas(counts, n, kind, base, shape, starts)
            else:
                weights[code] = (np.zeros(counts.shape[0]), np.sum((shape - base) ** 2, axis=1), None)
            beta = weights[code][0][:, None]
            fits[code] = np.multiply(beta, shape, out=out[:, a])
            fits[code] += (1.0 - beta) * base
    return out, weights


def fit_estimator(code: str, x: FrequencyData) -> np.ndarray:
    """Probability vector of the estimator named by ``code`` on data ``x``."""
    return fit_stack((code,), x.counts[None], x.n)[0][0, 0]


def empirical(x: FrequencyData) -> Pmf:
    """Relative frequencies ``x_j / n``."""
    return Pmf(fit_estimator("e", x))


def rearrangement(x: FrequencyData) -> Pmf:
    """Empirical estimator sorted into nonincreasing order."""
    return Pmf(fit_estimator("r", x))


def grenander(x: FrequencyData) -> Pmf:
    """Isotonic (nonincreasing) projection of the empirical estimator."""
    return Pmf(fit_estimator("G", x))


def minimax(x: FrequencyData) -> Pmf:
    """Shrink the empirical estimator toward the uniform vector on the
    observed range with weight ``sqrt(n) / (n + sqrt(n))``."""
    return Pmf(fit_estimator("mm", x))


def stacked(x: FrequencyData, kind: str) -> StackedFit:
    """Convex combination of the shape estimator and the empirical one with
    the cross-validated weight.

    A single observation leaves the criterion undefined; in that case the
    fit degrades to the empirical estimator with ``beta_hat = 0`` and a
    diagnostics note instead of raising.
    """
    code = "sG" if _check_kind(kind) == GRENANDER else "sr"
    fits, weights = fit_stack(("e", code[-1], code), x.counts[None], x.n)
    beta, a_n, b_n = weights[code]
    base, shape, estimate = fits[0]
    diagnostics = {}
    if b_n is None:
        diagnostics["degenerate"] = "n = 1: cross-validation undefined, returned the empirical estimator"
    return StackedFit(
        beta_hat=float(beta[0]),
        a_n=float(a_n[0]),
        b_n=None if b_n is None else float(b_n[0]),
        base=Pmf(base),
        shape=Pmf(shape),
        estimate=Pmf(estimate),
        kind=kind,
        diagnostics=diagnostics,
    )


def cv_beta(x: FrequencyData, kind: str) -> tuple[float, float, float]:
    """Closed-form leave-one-out least-squares mixture weight.

    Returns ``(beta_hat, a_n, b_n)`` where

        a_n = sum_j (shape_j - base_j)^2,
        b_n = sum_j base_j * (shape_loo_j - pi_j) - sum_j base_j * (shape_j - base_j),

    and ``beta_hat`` is ``b_n / a_n`` clipped to the cases: ``b/a`` when
    ``0 <= b <= a`` with ``a`` nonzero, ``1`` when ``0 < a <= b``, else ``0``
    (including ``a = 0``, when base and shape coincide).
    """
    fit = stacked(x, kind)
    if fit.b_n is None:
        raise InsufficientSampleError("the cross-validation criterion needs at least 2 observations")
    return fit.beta_hat, fit.a_n, fit.b_n


# ---------------------------------------------------------------------------
# Distances


def lk_distances(u, v, norms) -> list | np.ndarray:
    """l_k distances between ``u`` and ``v``, the shorter zero-padded, one
    per ``k`` in ``norms`` (each 1, 2 or ``math.inf``).

    ``u`` is one vector, which gives a list, or a ``(c, D)`` stack of
    vectors, which gives a ``(c, len(norms))`` array; row i of it is
    bitwise equal to the list for ``u[i]`` alone.
    """
    for k in norms:
        if k not in NORMS:
            raise ValueError(f"k must be 1, 2 or inf, got {k!r}")
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    rows = np.atleast_2d(u)
    diff = np.zeros((len(rows), max(rows.shape[1], v.size)))
    diff[:, : rows.shape[1]] = rows
    diff[:, : v.size] -= v
    np.abs(diff, out=diff)
    reductions = {1: lambda: diff.sum(axis=1), 2: lambda: np.sqrt(np.sum(diff * diff, axis=1)),
                  math.inf: lambda: diff.max(axis=1)}
    out = np.array([reductions[k]() for k in norms]).reshape(len(norms), len(rows)).T
    return out if u.ndim == 2 else out[0].tolist()


def lk_distance(u, v, k) -> float:
    """l_k distance between two vectors, the shorter zero-padded.

    ``k`` is 1, 2 or ``math.inf``.
    """
    return lk_distances(u, v, (k,))[0]
