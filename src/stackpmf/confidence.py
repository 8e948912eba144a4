"""Global confidence bands from the Gaussian limit of the estimators.

The scaled estimation error converges to a centered Gaussian vector whose
covariance is ``Sigma(p)_ij = p_i * delta_ij - p_i * p_j``. Plugging an
estimate ``theta`` in for ``p``, the alpha-quantile ``q`` of the sup norm of
that limit is estimated by Monte Carlo, and the band around a center vector
``c`` is ``[max(c_j - q/sqrt(n), 0), c_j + q/sqrt(n)]`` for every index.

Draws use the representation ``Y_j = sqrt(theta_j) * Z_j - theta_j * S``
with ``S = sum_k sqrt(theta_k) * Z_k`` and i.i.d. standard normal ``Z``,
which costs O(D) per draw and needs no factorization of the covariance.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidPmfError
from .models import Pmf
from .rng import substream

#: Target number of scalar normals per chunk of draws.
_CHUNK_TARGET = 1 << 21

#: Fewest Monte-Carlo draws a quantile estimate accepts.
MIN_QUANTILE_DRAWS = 100


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
    if isinstance(theta, Pmf):
        theta = theta.probs
    theta = np.ascontiguousarray(theta, dtype=float)
    if theta.ndim != 1 or theta.size == 0:
        raise InvalidPmfError("theta must be a nonempty vector")
    if np.any(theta < 0.0) or not np.all(np.isfinite(theta)):
        raise InvalidPmfError("theta entries must be finite and nonnegative")
    total = float(theta.sum())
    if abs(total - 1.0) > 1e-6:
        raise InvalidPmfError(f"theta must sum to 1 within 1e-6, got {total!r}")
    return theta


def _chunk_draws(dim: int) -> int:
    return max(64, min(8192, _CHUNK_TARGET // max(dim, 1)))


def iter_limit_process(theta, reps: int, seed: int):
    """Yield chunks of draws of the limit Gaussian vector, ``(m, D)`` arrays.

    Chunk k comes from the substream ``(seed, "supnorm", k)`` with a chunk
    size that depends only on D, so the pooled draws are a deterministic
    function of ``(seed, reps)`` regardless of scheduling.
    """
    theta = _as_theta(theta)
    if reps < 1:
        raise ValueError(f"need at least one draw, got reps={reps}")
    root = np.sqrt(theta)
    chunk = _chunk_draws(theta.size)
    done = 0
    k = 0
    while done < reps:
        m = min(chunk, reps - done)
        rng = substream(seed, "supnorm", k)
        z = rng.standard_normal((m, theta.size))
        weighted = z @ root
        yield z * root - np.outer(weighted, theta)
        done += m
        k += 1


def sample_sup_norm(theta, reps: int, seed: int) -> np.ndarray:
    """``reps`` draws of the sup norm of the limit Gaussian vector."""
    out = np.empty(reps)
    done = 0
    for y in iter_limit_process(theta, reps, seed):
        m = y.shape[0]
        out[done : done + m] = np.max(np.abs(y), axis=1)
        done += m
    return out


def quantile_q_alpha(theta, alpha: float, reps: int, seed: int) -> float:
    """Monte-Carlo estimate of the upper alpha-quantile of the sup norm.

    Uses the smallest order statistic whose empirical distribution function
    reaches ``1 - alpha`` (the conservative choice). Deterministic given
    ``seed``.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    if reps < MIN_QUANTILE_DRAWS:
        raise ValueError(f"need at least {MIN_QUANTILE_DRAWS} draws for a quantile, got reps={reps}")
    draws = sample_sup_norm(theta, reps, seed)
    k = min(max(int(math.ceil((1.0 - alpha) * reps)), 1), reps)
    return float(np.partition(draws, k - 1)[k - 1])


def band(center, n: int, q_hat: float, alpha=None, mc_reps=None, seed=None) -> ConfidenceBand:
    """Band of half-width ``q_hat / sqrt(n)`` around ``center``, floored at 0.

    There is no ceiling at 1; only the lower envelope is clamped.
    """
    if q_hat < 0.0:
        raise ValueError(f"quantile must be nonnegative, got {q_hat!r}")
    if n < 1:
        raise ValueError(f"sample size must be at least 1, got {n}")
    c = center.probs if isinstance(center, Pmf) else np.ascontiguousarray(center, dtype=float)
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
