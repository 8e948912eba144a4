"""Point estimators of a discrete probability mass function.

Five estimators of the underlying pmf from frequency data: the empirical
relative frequencies, their decreasing rearrangement, their isotonic
projection (the monotone MLE), the fixed-shrinkage minimax combination
with the uniform vector, and the stacked estimator

    estimate = beta * shape + (1 - beta) * empirical

whose mixture weight ``beta`` minimizes a leave-one-out least-squares
cross-validation criterion and is available in closed form from two
scalars ``a_n`` and ``b_n`` (see :func:`cv_beta`).

The leave-one-out vectors come from :func:`loo_vectors_fast`, which gives
the values of one full refit per observed support point in O(D log D).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientSampleError
from .models import FrequencyData, Pmf
from .shape import isotonic_decreasing, rearrange_decreasing

REARRANGEMENT = "rearrangement"
GRENANDER = "grenander"
KINDS = (REARRANGEMENT, GRENANDER)

#: The l_k norms :func:`lk_distance` supports.
NORMS = (1, 2, math.inf)

#: Below this, the squared distance between shape and base is treated as zero
#: and the mixture weight defaults to 0 (the estimate is unchanged either way).
A_N_TOL = 1e-15


def _check_kind(kind: str) -> str:
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    return kind


def shape_transform(kind: str, v: np.ndarray) -> np.ndarray:
    """The isotonic fit (``grenander``) or the decreasing rearrangement of ``v``."""
    if _check_kind(kind) == GRENANDER:
        return isotonic_decreasing(v)[0]
    return rearrange_decreasing(v)


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
# Plain estimators


def empirical(x: FrequencyData) -> Pmf:
    """Relative frequencies ``x_j / n``."""
    return Pmf(x.counts / x.n)


def rearrangement(x: FrequencyData) -> Pmf:
    """Empirical estimator sorted into nonincreasing order."""
    return Pmf(shape_transform(REARRANGEMENT, x.counts / x.n))


def grenander(x: FrequencyData) -> Pmf:
    """Isotonic (nonincreasing) projection of the empirical estimator."""
    return Pmf(shape_transform(GRENANDER, x.counts / x.n))


def minimax(x: FrequencyData) -> Pmf:
    """Shrink the empirical estimator toward the uniform vector on the
    observed range with weight ``sqrt(n) / (n + sqrt(n))``."""
    return Pmf(minimax_probs(x.counts / x.n, x.n))


def minimax_probs(base: np.ndarray, n: int) -> np.ndarray:
    """:func:`minimax` from the empirical vector ``base`` of ``n``
    observations, or from each row of a stack of them."""
    alpha = math.sqrt(n) / (n + math.sqrt(n))
    uniform = np.full(base.shape[-1], 1.0 / base.shape[-1])
    return alpha * uniform + (1.0 - alpha) * base


# ---------------------------------------------------------------------------
# Leave-one-out vectors


def _loo_rearrangement_fast(counts: np.ndarray, n: int) -> np.ndarray:
    """Coordinate j of sorting ``counts - e_j`` descending, for all j at once.

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


def _push_hull(hull: list[int], cum: list[int], i: int) -> None:
    """Append ``P_i = (i, C_i)`` to the upper hull ``hull``, keeping its turns strictly concave."""
    while len(hull) >= 2:
        a, b = hull[-1], hull[-2]
        if (cum[i] - cum[a]) * (a - b) < (cum[a] - cum[b]) * (i - a):
            break
        hull.pop()
    hull.append(i)


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
    vertices: list[int] = []
    for i in range(d + 1):
        _push_hull(vertices, cum, i)

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


def loo_vectors_fast(x: FrequencyData, kind: str) -> LooVectors:
    """Leave-one-out vectors for ``kind`` without refitting per index.

    The rearrangement variant maintains one sorted order and relocates each
    decremented value by binary search. The isotonic variant finds, for
    each q, the bridge between the hull of the intact prefix points and
    the sample's own majorant from its first vertex past q on, lowered by
    one: no hull of the lowered suffix is ever built, because the bridge
    slope lies below the majorant's slope across q and so cannot touch a
    lowered point before that vertex. Both run in O(D log D) overall.
    """
    _check_kind(kind)
    if x.n < 2:
        raise InsufficientSampleError("leave-one-out needs at least 2 observations")
    counts = x.counts
    n = x.n
    pi = np.zeros(counts.size)
    pos = counts > 0
    pi[pos] = (counts[pos] - 1) / (n - 1)
    if kind == REARRANGEMENT:
        shape_loo = _loo_rearrangement_fast(counts, n)
    else:
        shape_loo = _loo_grenander_fast(counts, n)
    return LooVectors(pi=pi, shape_loo=shape_loo, kind=kind)


# ---------------------------------------------------------------------------
# Cross-validated mixture weight and the stacked estimator


def cv_beta(x: FrequencyData, kind: str, shape: np.ndarray | None = None) -> tuple[float, float, float]:
    """Closed-form leave-one-out least-squares mixture weight.

    ``shape`` is ``shape_transform(kind, x.counts / x.n)`` when the caller
    already has it; otherwise it is computed here.

    Returns ``(beta_hat, a_n, b_n)`` where

        a_n = sum_j (shape_j - base_j)^2,
        b_n = sum_j base_j * (shape_loo_j - pi_j) - sum_j base_j * (shape_j - base_j),

    and ``beta_hat`` is ``b_n / a_n`` clipped to the cases: ``b/a`` when
    ``0 <= b <= a`` with ``a`` nonzero, ``1`` when ``0 < a <= b``, else ``0``
    (including ``a = 0``, when base and shape coincide).
    """
    _check_kind(kind)
    if x.n < 2:
        raise InsufficientSampleError("the cross-validation criterion needs at least 2 observations")
    base = x.counts / x.n
    if shape is None:
        shape = shape_transform(kind, base)
    return tuple(float(v[0]) for v in cv_betas([x], kind, base[None], shape[None]))


def cv_betas(xs, kind: str, base: np.ndarray, shape: np.ndarray) -> tuple:
    """:func:`cv_beta` as arrays ``(beta_hat, a_n, b_n)`` for data sets ``xs`` of one
    length and one total n >= 2, with ``(B, D)`` empirical and shape stacks
    ``base`` and ``shape``. Row b is bitwise ``cv_beta(xs[b], kind)``."""
    loo = np.stack([v.shape_loo - v.pi for v in (loo_vectors_fast(x, kind) for x in xs)])
    a_n = np.sum((shape - base) ** 2, axis=1)
    b_n = np.sum(base * loo, axis=1) - np.sum(base * (shape - base), axis=1)
    above = a_n > A_N_TOL
    interior = above & (0.0 <= b_n) & (b_n <= a_n)
    beta = np.divide(b_n, a_n, out=np.zeros_like(a_n), where=interior)
    beta[above & ~interior & (b_n >= a_n)] = 1.0
    return beta, a_n, b_n


def stacked(x: FrequencyData, kind: str, shape: np.ndarray | None = None) -> StackedFit:
    """Convex combination of the shape estimator and the empirical one with
    the cross-validated weight.

    ``shape`` is ``shape_transform(kind, x.counts / x.n)`` when the caller
    already has it; otherwise it is computed here.

    A single observation leaves the criterion undefined; in that case the
    fit degrades to the empirical estimator with ``beta_hat = 0`` and a
    diagnostics note instead of raising.
    """
    _check_kind(kind)
    base = x.counts / x.n
    if shape is None:
        shape = shape_transform(kind, base)
    diagnostics: dict = {}
    if x.n < 2:
        beta, b_n = 0.0, None
        a_n = float(np.sum((shape - base) ** 2))
        diagnostics["degenerate"] = "n = 1: cross-validation undefined, returned the empirical estimator"
    else:
        beta, a_n, b_n = cv_beta(x, kind, shape)
    return StackedFit(
        beta_hat=beta,
        a_n=a_n,
        b_n=b_n,
        base=Pmf(base),
        shape=Pmf(shape),
        estimate=Pmf(beta * shape + (1.0 - beta) * base),
        kind=kind,
        diagnostics=diagnostics,
    )


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
