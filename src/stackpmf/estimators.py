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
:func:`fit_estimator` are its one-row views.

The leave-one-out vectors, one full refit per observed support point,
come from :func:`loo_stacks` for a whole ``(B, D)`` stack of count vectors
at once. The rearrangement values follow from one sort and one comparison
with the next sorted value. The isotonic value at q is the min-max slope of
the cumulative counts ``C``,

    min over u <= q of max over w > q of (C_w - 1 - C_u) / ((w - u)(n - 1)).

Up to ``DENSE_LOO_MAX_D`` points it is computed densely, every ``(u, w)``
pair at once in O(D^2) per row. Beyond that cap a vectorized pass runs per
row: the vertices of the majorant of C (:func:`majorant_vertices`), then
one whole-array tangent search per point and a running min, in O(D log D)
numpy operations. Both need ``(D + 1) n <= 2**53``, so that a slope's
numerator and denominator are exact floats and their cross products exact
int64; past that bound an O(D log D) hull pass on Python ints runs per row.
All three give the correctly rounded exact value.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import isotonic_regression

from .errors import InsufficientSampleError
from .models import FrequencyData, Pmf
from .shape import isotonic_decreasing, rearrange_decreasing

REARRANGEMENT = "rearrangement"
GRENANDER = "grenander"
KINDS = (REARRANGEMENT, GRENANDER)

#: Empirical, minimax, rearranged, Grenander, and the two stacked estimators.
ESTIMATOR_CODES = ("e", "mm", "r", "G", "sr", "sG")

#: Shape transform behind each shape-based estimator code.
SHAPE_KINDS = {"r": REARRANGEMENT, "G": GRENANDER, "sr": REARRANGEMENT, "sG": GRENANDER}

#: The l_k norms :func:`lk_distance` supports.
NORMS = (1, 2, math.inf)

#: Largest D at which the isotonic leave-one-out pass uses the dense O(D^2)
#: min-max kernel; above it the vectorized O(D log D) pass runs per row.
DENSE_LOO_MAX_D = 64

#: Slopes per slice of the dense kernel's rows, which bounds its working set
#: at any number of rows.
DENSE_LOO_SLICE = 2**16

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


def _loo_grenander_dense(counts: np.ndarray, n: int) -> np.ndarray:
    """The min-max value of :func:`_loo_grenander_fast` for every row and
    index, from all ``(u, w)`` slopes at once; O(D^2) per row.

    Slopes are correctly rounded quotients of the exact integers
    ``C_w - 1 - C_u`` and ``(w - u)(n - 1)`` while ``(D + 1) n <= 2**53``,
    and rounding is monotone, so the min and max of the rounded slopes are
    the rounded min-max: bitwise the hull's value. Rows go through in
    slices of about ``DENSE_LOO_SLICE`` slopes.
    """
    rows, d = counts.shape
    cum = np.zeros((rows, d + 1))
    np.cumsum(counts, axis=1, out=cum[:, 1:])
    # axis 1 is u = 0 .. D-1, axis 2 is w = D .. 1 (reversed, so a running
    # max along it is the max over w > q, with q = D - 1 - position)
    span = np.arange(d, 0, -1)[None, :] - np.arange(d)[:, None]
    valid = span > 0
    den = (span * (n - 1)).astype(float)
    step = max(1, DENSE_LOO_SLICE // (d * d))
    # slopes with w <= u are +inf, and stay +inf through the running max:
    # for u > q the max over w > q then reaches w = u, so the min skips u
    slopes = np.full((min(step, rows), d, d), np.inf)
    out = np.empty((rows, d))
    for lo in range(0, rows, step):
        c = cum[lo : lo + step]
        s = slopes[: len(c)]
        np.divide(c[:, None, :0:-1] - (c[:, :d, None] + 1.0), den, out=s, where=valid)
        np.maximum.accumulate(s, axis=2, out=s)
        out[lo : lo + len(c)] = s.min(axis=1)[:, ::-1]
    return np.where(counts > 0, out, 0.0)


def _push_hull(hull: list[int], cum: list[int], i: int) -> None:
    """Append ``P_i = (i, C_i)`` to the upper hull ``hull``, keeping its turns strictly concave."""
    while len(hull) >= 2:
        a, b = hull[-1], hull[-2]
        if (cum[i] - cum[a]) * (a - b) < (cum[a] - cum[b]) * (i - a):
            break
        hull.pop()
    hull.append(i)


def _hull_vertices(cum: list[int]) -> list[int]:
    """Vertices of the upper hull of the points ``(i, cum[i])``, turns strictly concave."""
    vertices: list[int] = []
    for i in range(len(cum)):
        _push_hull(vertices, cum, i)
    return vertices


def majorant_vertices(counts: np.ndarray, cum: np.ndarray) -> np.ndarray:
    """Vertices V of the least concave majorant of the points ``(i, C_i)``,
    ``i = 0 .. D``, where ``cum`` holds the cumulative counts C as int64;
    turns are strictly concave, so ``V[0] = 0`` and ``V[-1] = D``.

    V is taken from the block starts of SciPy's PAVA on the counts, and
    accepted only after an exact certificate: neighbouring blocks with equal
    slopes are merged, the slopes must then strictly decrease, and every
    point must lie on or below its block's chord. The polygon through V is
    then concave, lies above every point and meets them at V, so it is the
    majorant. Should the float PAVA pool or split wrongly, the hull is built
    point by point instead. Products stay below ``(D + 1) n``, so the
    certificate is exact in int64 while that is at most 2**53.
    """
    vert = isotonic_regression(counts.astype(float), increasing=False).blocks.astype(np.int64)
    widths = np.diff(vert)
    rises = cum[vert[1:]] - cum[vert[:-1]]
    turn = rises[:-1] * widths[1:] - rises[1:] * widths[:-1]  # > 0: the slope falls at the vertex
    if (turn >= 0).all():
        vert = vert[np.append(np.append(True, turn > 0), True)]
        widths = np.diff(vert)
        rises = cum[vert[1:]] - cum[vert[:-1]]
        block = np.repeat(np.arange(widths.size), widths)
        start = vert[block]
        if ((cum[:-1] - cum[start]) * widths[block] <= rises[block] * (np.arange(counts.size) - start)).all():
            return vert
    return np.array(_hull_vertices(cum.tolist()), dtype=np.int64)


def _max_slope_vertices(vert: np.ndarray, cum: np.ndarray) -> np.ndarray:
    """For each point u, the majorant vertex w past the last vertex <= u
    that maximizes ``(C_w - 1 - C_u) / (w - u)``, for ``vert`` from
    :func:`majorant_vertices` and int64 cumulative counts ``cum``.

    Seen from a point left of a concave chain, the slopes to its vertices
    are unimodal, so this is a binary search, run for every point at once
    and each round only over the points still searching.
    """
    d, cv = cum.size - 1, cum[vert]
    lo = np.searchsorted(vert, np.arange(d), side="right")
    hi = np.full(d, vert.size - 1)
    live = np.flatnonzero(lo < hi)
    while live.size:
        mid = (lo[live] + hi[live]) >> 1
        y = cum[live] + 1
        # the slope to vertex mid + 1 exceeds the slope to mid (times the positive widths)
        right = (cv[mid + 1] - y) * (vert[mid] - live) > (cv[mid] - y) * (vert[mid + 1] - live)
        lo[live[right]] = mid[right] + 1
        hi[live[~right]] = mid[~right]
        live = live[lo[live] < hi[live]]
    return vert[lo]


def _loo_grenander_vec(counts: np.ndarray, n: int) -> np.ndarray:
    """:func:`_loo_grenander_fast` in whole-array passes, for one row with
    ``(D + 1) n <= 2**53``.

    Let V be the majorant's vertices and ``H(u)`` the max of ``(C_w - 1 -
    C_u) / (w - u)`` over the vertices w past the last vertex ``<= u``. The
    value at q is the running min of H up to q. Take q with majorant
    neighbours ``s <= q < t``. The bridge touches V at or after t, so the
    value is the min over u <= q of the max over w in V, w >= t:

    * for ``s <= u <= q`` that max is H(u);
    * for u < s it is no smaller than at s, as from each such w the chord
      of the majorant and ``-1 / (w - u)`` both fall while u rises to s;
    * and every H(u), u <= q, is at least the value, as it maxes over more w.

    H comes from :func:`_max_slope_vertices`. Each value is one division of
    exact int64 operands, ``num / (den (n - 1))``, and rounding is monotone,
    so the running min of the rounded values is the rounded exact min:
    bitwise the hull pass's value.
    """
    d = counts.size
    cum = np.zeros(d + 1, dtype=np.int64)
    np.cumsum(counts, out=cum[1:])
    w = _max_slope_vertices(majorant_vertices(counts, cum), cum)
    vals = (cum[w] - 1 - cum[:-1]) / ((w - np.arange(d)) * (n - 1))
    np.minimum.accumulate(vals, out=vals)
    vals[counts == 0] = 0.0
    return vals


def _loo_grenander_fast(counts: np.ndarray, n: int) -> np.ndarray:
    """Coordinate j of the isotonic fit of ``counts - e_j``, for all j.

    Works on the cumulative-sum diagram: decrementing index q lowers every
    point right of q by one, and the fitted value at q is the slope of the
    bridge of the least concave majorant across q,

        value(q) = min over u <= q of max over w > q of (C_w - 1 - C_u)/(w - u).

    Let V be the majorant's vertices, s <= q < t its neighbours around q
    and sigma the slope of s-t. The bridge slope is below sigma (take
    u = s), while the lowered points q+1 .. t lie under s-t, so their hull
    edges have slopes of at least sigma. The bridge thus touches the
    lowered suffix at or after t, where its hull is V, and the max needs
    only w in V, w >= t. The min runs over a prefix hull grown with q, t is
    a pointer into V that only moves forward, and the bridge comes from
    alternating binary tangent searches.
    """
    d = counts.size
    cum = [0] + np.cumsum(counts).tolist()
    vertices = _hull_vertices(cum)

    out = np.zeros(d)
    hull: list[int] = []
    k = 0
    for q, count in enumerate(counts.tolist()):
        _push_hull(hull, cum, q)
        while vertices[k] <= q:
            k += 1
        if count == 0:
            continue
        u, w = hull[-1], -1
        # Terminates: each tangent line supports one chain, so u only moves
        # left on the prefix hull and w only right on V.
        while True:
            # w: the vertex in vertices[k:] maximizing (C_w - 1 - C_u)/(w - u)
            base = cum[u] + 1
            lo, hi = k, len(vertices) - 1
            while lo < hi:
                mid = (lo + hi) // 2
                w1, w2 = vertices[mid], vertices[mid + 1]
                if (cum[w2] - base) * (w1 - u) > (cum[w1] - base) * (w2 - u):
                    lo = mid + 1
                else:
                    hi = mid
            if vertices[lo] == w:
                break
            w = vertices[lo]
            # u: the prefix-hull vertex minimizing (C_w - 1 - C_u)/(w - u)
            top = cum[w] - 1
            lo, hi = 0, len(hull) - 1
            while lo < hi:
                mid = (lo + hi) // 2
                u1, u2 = hull[mid], hull[mid + 1]
                if (top - cum[u2]) * (w - u1) < (top - cum[u1]) * (w - u2):
                    lo = mid + 1
                else:
                    hi = mid
            if hull[lo] == u:
                break
            u = hull[lo]
        out[q] = (cum[w] - 1 - cum[u]) / ((w - u) * (n - 1))
    return out


def loo_stacks(counts: np.ndarray, n: int, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """The ``pi`` and ``shape_loo`` of :class:`LooVectors` as ``(B, D)``
    stacks, for a ``(B, D)`` integer count stack whose rows all total ``n``.
    Row b is bitwise :func:`loo_vectors_fast` on row b alone.

    The isotonic pass takes one of three routes. While every slope is an
    exact-float quotient, ``(D + 1) n <= 2**53``, it is the dense kernel up
    to ``D = DENSE_LOO_MAX_D`` and the vectorized pass row by row beyond;
    past that bound the hull pass runs row by row on Python ints.
    """
    _check_kind(kind)
    if n < 2:
        raise InsufficientSampleError("leave-one-out needs at least 2 observations")
    pi = np.maximum(counts - 1, 0) / (n - 1)
    d = counts.shape[1]
    if kind == REARRANGEMENT:
        shape_loo = _loo_rearrangement(counts, n)
    elif (d + 1) * n > 2**53:
        shape_loo = np.stack([_loo_grenander_fast(row, n) for row in counts])
    elif d <= DENSE_LOO_MAX_D:
        shape_loo = _loo_grenander_dense(counts, n)
    else:
        shape_loo = np.stack([_loo_grenander_vec(row, n) for row in counts])
    return pi, shape_loo


def loo_vectors_fast(x: FrequencyData, kind: str) -> LooVectors:
    """Leave-one-out vectors for ``kind`` without refitting per index: the
    one-row case of :func:`loo_stacks`."""
    pi, shape_loo = loo_stacks(x.counts[None], x.n, kind)
    return LooVectors(pi=pi[0], shape_loo=shape_loo[0], kind=kind)


# ---------------------------------------------------------------------------
# The fit engine and its one-row views


def cv_betas(counts: np.ndarray, n: int, kind: str, base: np.ndarray, shape: np.ndarray) -> tuple:
    """:func:`cv_beta` as arrays ``(beta_hat, a_n, b_n)`` for a ``(B, D)``
    count stack ``counts`` whose rows all total n >= 2, with its empirical
    and shape stacks ``base`` and ``shape``."""
    pi, shape_loo = loo_stacks(counts, n, kind)
    loo = shape_loo - pi
    a_n = np.sum((shape - base) ** 2, axis=1)
    b_n = np.sum(base * loo, axis=1) - np.sum(base * (shape - base), axis=1)
    above = a_n > A_N_TOL
    interior = above & (0.0 <= b_n) & (b_n <= a_n)
    beta = np.divide(b_n, a_n, out=np.zeros_like(a_n), where=interior)
    beta[above & ~interior & (b_n >= a_n)] = 1.0
    return beta, a_n, b_n


def fit_stack(codes, xs) -> tuple[np.ndarray, dict]:
    """Fits of the estimators named by ``codes`` to each data set in ``xs``.

    ``xs`` share one length D and one total n. Returns the ``(len(xs),
    len(codes), D)`` fits and, for each stacked code among ``codes``, its
    ``(beta_hat, a_n, b_n)`` arrays from :func:`cv_betas`. Every step is
    elementwise or a row reduction, so entry ``[b, a]`` does not depend on
    the other rows. Each fit, and each shape fit behind a stacked one, runs
    once. A single observation leaves the criterion undefined: the weight
    is 0 and ``b_n`` is None.
    """
    n = xs[0].n
    counts = np.stack([x.counts for x in xs])
    base = counts / n
    fits, weights = {"e": base}, {}
    for code in codes:
        if code not in ESTIMATOR_CODES:
            raise ValueError(f"unknown estimator code {code!r}; choose from {ESTIMATOR_CODES}")
        if code in fits:
            continue
        if code == "mm":
            alpha = math.sqrt(n) / (n + math.sqrt(n))
            fits[code] = alpha * np.full(base.shape[1], 1.0 / base.shape[1]) + (1.0 - alpha) * base
            continue
        kind, shape_code = SHAPE_KINDS[code], code[-1]  # sr and sG stack the shape fits r and G
        if shape_code not in fits:
            fits[shape_code] = (np.stack([isotonic_decreasing(row)[0] for row in base])
                                if kind == GRENANDER else rearrange_decreasing(base))
        if code != shape_code:
            shape = fits[shape_code]
            if n > 1:
                weights[code] = cv_betas(counts, n, kind, base, shape)
            else:
                weights[code] = (np.zeros(len(xs)), np.sum((shape - base) ** 2, axis=1), None)
            beta = weights[code][0][:, None]
            fits[code] = beta * shape + (1.0 - beta) * base
    return np.stack([fits[code] for code in codes], axis=1), weights


def fit_estimator(code: str, x: FrequencyData) -> np.ndarray:
    """Probability vector of the estimator named by ``code`` on data ``x``."""
    return fit_stack((code,), [x])[0][0, 0]


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
    fits, weights = fit_stack(("e", code[-1], code), [x])
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
