"""Global confidence bands from the Gaussian limit of the estimators.

The scaled estimation error converges to a centered Gaussian vector whose
covariance is ``Sigma(p)_ij = p_i * delta_ij - p_i * p_j``. Plugging an
estimate ``theta`` in for ``p``, the alpha-quantile ``q`` of the sup norm of
that limit is estimated by Monte Carlo, and the band around a center vector
``c`` is ``[max(c_j - q/sqrt(n), 0), c_j + q/sqrt(n)]`` for every index.

Draws use the representation ``Y_j = sqrt(theta_j) * Z_j - theta_j * S``
with ``S = sum_k sqrt(theta_k) * Z_k`` and i.i.d. standard normal ``Z``,
which costs O(D) per draw and needs no factorization of the covariance.
The sampler and the quantile also take a ``(c, D)`` stack of plug-in
vectors: the stack shares one set of normals ``Z`` per chunk, and each row's
draws and quantile are bitwise equal to what that row gets on its own.
The normals are drawn in row blocks of about ``2**17`` entries, and the
draws are formed in a buffer laid out with its longer axis (D or the number
of draws) contiguous, so the sup norm reduces along memory order at small
and large D alike. The sampler holds three block buffers of at most
``max(2**17, D)`` doubles (about 1 MB each at D up to ``2**17``) besides the
plug-in roots and the draws it returns, whatever the chunk size. ``S`` is
numpy's sum of the products ``sqrt(theta_k) * Z_k`` it has already formed,
not a BLAS dot product, so the draws do not depend on the BLAS library or
its thread count.

A coverage check needs only whether the band around a fit covers the truth,
not the quantile itself. The band's limits are monotone in ``q``, so the
band covers exactly when ``q`` reaches a threshold ``t``
(:func:`band_thresholds`), and ``q_hat >= t`` exactly when fewer than k of
the draws fall short of ``t``. :func:`quantile_reaches` therefore stops
drawing once each row's answer is settled: after ``reps - k + 1`` draws
reach ``t`` (a hit) or k fall short (a miss, which still draws at least k,
all but ``alpha * reps`` of the draws). The draws it reads are a prefix of
the full run's, so the answer is the full quantile's.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidPmfError
from .models import Pmf
from .rng import _as_int, substream

#: Target number of scalar normals per chunk of draws.
_CHUNK_TARGET = 1 << 21

#: Target number of entries in one row block of draws.
_BLOCK_TARGET = 1 << 17

#: Bit pattern of +inf as an int64; nonnegative doubles order as their bit patterns.
_INF_BITS = int(np.array(np.inf).view(np.int64))

#: Fewest Monte-Carlo draws a quantile estimate accepts.
MIN_QUANTILE_DRAWS = 100

#: Most Monte-Carlo draws a quantile estimate accepts: the sup norms are held
#: whole, 8 bytes per draw, so 128 MiB for each plug-in vector.
MAX_QUANTILE_DRAWS = 2**24


@dataclass(frozen=True, eq=False)
class ConfidenceBand:
    """Simultaneous envelope around a center vector.

    ``lower_j = max(center_j - q_hat / sqrt(n), 0)`` and
    ``upper_j = center_j + q_hat / sqrt(n)``. ``alpha``, ``mc_reps`` and
    ``seed`` record how ``q_hat`` was estimated and may be ``None`` when a
    band is built from an externally supplied quantile.
    """

    lower: np.ndarray
    upper: np.ndarray
    q_hat: float
    alpha: float | None = None
    mc_reps: int | None = None
    seed: int | None = None


def _as_theta(theta) -> np.ndarray:
    """``theta`` as a validated ``(c, D)`` stack of plug-in pmfs; a vector is one row."""
    if isinstance(theta, Pmf):
        theta = theta.probs
    theta = np.ascontiguousarray(theta, dtype=float)
    stack = theta[None, :] if theta.ndim == 1 else theta
    if stack.ndim != 2 or stack.size == 0:
        raise InvalidPmfError("theta must be a nonempty vector or a (c, D) stack of them")
    if np.any(stack < 0.0) or not np.all(np.isfinite(stack)):
        raise InvalidPmfError("theta entries must be finite and nonnegative")
    for total in stack.sum(axis=1):
        if abs(total - 1.0) > 1e-6:
            raise InvalidPmfError(f"theta must sum to 1 within 1e-6, got {float(total)!r}")
    return stack


def _chunk_draws(dim: int) -> int:
    return max(64, min(8192, _CHUNK_TARGET // max(dim, 1)))


def iter_limit_process(theta, reps: int, seed: int):
    """Yield blocks of draws of the limit Gaussian vector, ``(rows, D)`` arrays.

    Chunk k comes from the substream ``(seed, "supnorm", k)`` with a chunk
    size that depends only on D, so the pooled draws are a deterministic
    function of ``(seed, reps)`` regardless of scheduling. Each chunk is
    drawn in row blocks of at most ``_BLOCK_TARGET // D`` draws, filled one
    after another from the chunk's stream, so they are the normals one fill
    of the whole chunk would give. For a ``(c, D)`` stack of plug-in vectors
    a block's normals are drawn once and its draws are yielded for every row
    in row order, each bitwise equal to what that row alone yields. A row's
    draws are formed in a ``(D, rows)`` buffer whose longer axis is
    contiguous, and ``S`` is numpy's sum of that buffer's products over D
    (left to right when D is the shorter axis, pairwise along D otherwise),
    so no BLAS call and no thread count enters the draws. Every yield is a
    view of that buffer, overwritten by the next.
    """
    stack = _as_theta(theta)
    if reps < 1:
        raise ValueError(f"need at least one draw, got reps={reps}")
    dim = stack.shape[1]
    roots = np.sqrt(stack)
    chunk = _chunk_draws(dim)
    rows = min(chunk, reps, max(1, _BLOCK_TARGET // dim))
    order = "C" if dim < rows else "F"
    zbuf = np.empty((rows, dim))
    y_t = np.empty((dim, rows), order=order)
    tmp_t = np.empty((dim, rows), order=order)
    sbuf = np.empty(rows)
    for k, done in enumerate(range(0, reps, chunk)):
        m = min(chunk, reps - done)
        gen = substream(seed, "supnorm", k)
        for a in range(0, m, rows):
            r = min(rows, m - a)
            z = gen.standard_normal(out=zbuf[:r])
            y, tmp, s = y_t[:, :r], tmp_t[:, :r], sbuf[:r]
            for row, root in zip(stack, roots):
                np.multiply(z.T, root[:, None], out=y)
                np.sum(y, axis=0, out=s)
                np.multiply(row[:, None], s, out=tmp)
                y -= tmp
                yield y.T


def sample_sup_norm(theta, reps: int, seed: int) -> np.ndarray:
    """``reps`` draws of the sup norm of the limit Gaussian vector.

    One row of draws per plug-in vector for a ``(c, D)`` stack, which shares
    its normals across rows; a vector gives a ``(reps,)`` array.
    """
    stack = _as_theta(theta)
    out = np.empty((stack.shape[0], reps))
    start = 0
    # blocks come chunk by chunk, within a chunk block by block, and within
    # a block one per stack row
    for i, y in enumerate(iter_limit_process(stack, reps, seed)):
        row = i % stack.shape[0]
        np.abs(y, out=y)
        y.max(axis=1, out=out[row, start : start + y.shape[0]])
        if row == stack.shape[0] - 1:
            start += y.shape[0]
    return out if np.ndim(theta) == 2 else out[0]


def _order_statistic(alpha: float, reps: int) -> int:
    """Rank k of the quantile among ``reps`` draws: the smallest whose
    empirical distribution function reaches ``1 - alpha``."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    if not MIN_QUANTILE_DRAWS <= reps <= MAX_QUANTILE_DRAWS:
        raise ValueError(f"a quantile needs {MIN_QUANTILE_DRAWS} to {MAX_QUANTILE_DRAWS} draws, got reps={reps}")
    return min(max(int(math.ceil((1.0 - alpha) * reps)), 1), reps)


def quantile_q_alpha(theta, alpha: float, reps: int, seed: int):
    """Monte-Carlo estimate of the upper alpha-quantile of the sup norm.

    Uses the smallest order statistic whose empirical distribution function
    reaches ``1 - alpha`` (the conservative choice). Deterministic given
    ``seed``. A vector gives a ``float``; a ``(c, D)`` stack gives one
    quantile per row, each equal to that row's own quantile.
    """
    k = _order_statistic(alpha, reps)
    draws = sample_sup_norm(theta, reps, seed)
    q = np.partition(draws, k - 1, axis=-1)[..., k - 1]
    return float(q) if q.ndim == 0 else q.copy()  # a view would keep all the draws alive


def quantile_reaches(theta, alpha: float, reps: int, seed: int, thresholds):
    """``quantile_q_alpha(theta, alpha, reps, seed) >= thresholds``, drawing
    only until each row's answer is settled.

    The quantile is the k-th smallest draw, so it reaches ``t`` exactly when
    fewer than k draws fall short of ``t``. A row is settled once k of its
    draws fall short (no) or ``reps - k + 1`` reach ``t`` (yes); the draws
    are read block by block from :func:`iter_limit_process`, and no block is
    drawn once every row is settled. A miss therefore still draws at least
    k of the ``reps`` draws. A ``(c, D)`` stack takes one threshold per row
    and gives one bool per row; a vector gives a ``bool``.
    """
    k = _order_statistic(alpha, reps)
    stack = _as_theta(theta)
    t = np.broadcast_to(np.asarray(thresholds, dtype=float), stack.shape[:1]).tolist()
    short = [0] * len(t)
    reach = [0] * len(t)

    def settled(row):
        return short[row] >= k or reach[row] > reps - k

    open_rows = len(t)
    blocks = iter_limit_process(stack, reps, seed)
    for i, y in enumerate(blocks):
        row = i % len(t)
        if settled(row):
            continue
        # a NaN threshold is never reached, as in ``q_hat >= t``
        reached = int(np.count_nonzero(np.abs(y, out=y).max(axis=1) >= t[row]))
        reach[row] += reached
        short[row] += y.shape[0] - reached
        open_rows -= settled(row)
        if not open_rows:
            break
    blocks.close()
    answers = np.array(short) < k
    return answers if np.ndim(theta) == 2 else bool(answers[0])


def _limits(center, q, n):
    """Band limits ``max(c - q / sqrt(n), 0)`` and ``c + q / sqrt(n)``; each
    is a chain of monotone IEEE operations in ``q``."""
    half = q / math.sqrt(n)
    return np.maximum(center - half, 0.0), center + half


def band_thresholds(centers, n: int, truth) -> np.ndarray:
    """Smallest float64 ``q >= 0`` whose band around each center covers ``truth``.

    ``centers`` is a ``(..., D)`` array and the result has its leading shape.
    An index past D has a zero center and one past the truth's length is not
    checked, as in a coverage replication. The limits are monotone in ``q``,
    so ``band(c, n, q)`` covers the truth exactly when ``q >= t``. ``t`` is
    found by bisection on the int64 bit patterns of ``[0, +inf]``, which
    order as the doubles they encode: at most 63 steps for the whole array.
    It is finite, because the band at the largest finite ``q`` covers any
    finite truth.
    """
    truth = np.asarray(truth, dtype=float)
    c = np.zeros(centers.shape[:-1] + truth.shape)
    width = min(centers.shape[-1], truth.size)
    c[..., :width] = centers[..., :width]
    lo = np.zeros(c.shape[:-1], dtype=np.int64)
    hi = np.full(c.shape[:-1], _INF_BITS, dtype=np.int64)
    while np.any(lo < hi):  # the band at hi covers; every q below lo misses
        mid = lo + (hi - lo) // 2
        lower, upper = _limits(c, mid.view(float)[..., None], n)
        covers = np.all((lower <= truth) & (truth <= upper), axis=-1)
        hi = np.where(covers, mid, hi)
        lo = np.where(covers, lo, mid + 1)
    return hi.view(float)


def band(center, n: int, q_hat: float, alpha=None, mc_reps=None, seed=None) -> ConfidenceBand:
    """Band of half-width ``q_hat / sqrt(n)`` around ``center``, floored at 0.

    There is no ceiling at 1; only the lower envelope is clamped. A NaN or
    infinite quantile and a non-integer ``n`` raise ``ValueError``; a center
    with a non-finite entry raises ``InvalidPmfError``.
    """
    if not (math.isfinite(q_hat) and q_hat >= 0.0):
        raise ValueError(f"quantile must be finite and nonnegative, got {q_hat!r}")
    if _as_int(n, "sample size") < 1:
        raise ValueError(f"sample size must be at least 1, got {n}")
    c = center.probs if isinstance(center, Pmf) else np.ascontiguousarray(center, dtype=float)
    if not np.all(np.isfinite(c)):
        raise InvalidPmfError("center entries must be finite")
    lower, upper = _limits(c, q_hat, n)
    return ConfidenceBand(
        lower=lower,
        upper=upper,
        q_hat=float(q_hat),
        alpha=alpha,
        mc_reps=mc_reps,
        seed=seed,
    )


def confidence_band(center, n: int, alpha: float, mc_reps: int, seed: int) -> ConfidenceBand:
    """Estimate the quantile by plugging ``center`` into the limit covariance,
    then build the band around it."""
    q_hat = quantile_q_alpha(center, alpha, mc_reps, seed)
    return band(center, n, q_hat, alpha=alpha, mc_reps=mc_reps, seed=seed)
