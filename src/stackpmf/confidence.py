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


def quantile_q_alpha(theta, alpha: float, reps: int, seed: int):
    """Monte-Carlo estimate of the upper alpha-quantile of the sup norm.

    Uses the smallest order statistic whose empirical distribution function
    reaches ``1 - alpha`` (the conservative choice). Deterministic given
    ``seed``. A vector gives a ``float``; a ``(c, D)`` stack gives one
    quantile per row, each equal to that row's own quantile.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    if not MIN_QUANTILE_DRAWS <= reps <= MAX_QUANTILE_DRAWS:
        raise ValueError(f"a quantile needs {MIN_QUANTILE_DRAWS} to {MAX_QUANTILE_DRAWS} draws, got reps={reps}")
    draws = sample_sup_norm(theta, reps, seed)
    k = min(max(int(math.ceil((1.0 - alpha) * reps)), 1), reps)
    q = np.partition(draws, k - 1, axis=-1)[..., k - 1]
    return float(q) if q.ndim == 0 else q.copy()  # a view would keep all the draws alive


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
    half = q_hat / math.sqrt(n)
    return ConfidenceBand(
        lower=np.maximum(c - half, 0.0),
        upper=c + half,
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
