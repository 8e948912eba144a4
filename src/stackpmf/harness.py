"""Monte-Carlo experiment drivers.

Four experiment types over a chosen true distribution: per-replication
estimation losses (boxplot data), scaled-risk curves over a sample-size
grid, empirical coverage of the global confidence bands, and samples for
normal QQ diagnostics of a single coordinate.

Replication i samples from the stream ``(seed, "rep", ..., i)`` and draws
its band quantile from ``(seed, "band", i)``. A block's streams are keyed
by one vectorized pass of numpy's ``SeedSequence`` derivation and drawn
through one re-keyed Philox generator (:func:`stackpmf.rng.keyed_streams`),
bitwise the streams numpy's own ``SeedSequence`` gives one at a time,
which still makes every single stream. A block runs in rounds of
``STACK_CELLS // L`` replications, L the length of the model's sampling
table: a round is sampled as one ``(B, L)`` count matrix
(:func:`stackpmf.models.sample_stack`), and its rows of one length D are
fitted as one ``(B, D)`` stack by the estimator engine
(:func:`stackpmf.estimators.fit_stack`), whose rows are bitwise the fits
of each replication alone, so results are byte-equal for any worker count
or blocking. Only a run of more than one worker imports ``multiprocessing``
and forks. The truth is the sampler's cached truncation.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import estimators as est
from .confidence import band, quantile_q_alpha
from .estimators import ESTIMATOR_CODES, fit_estimator  # noqa: F401  (perfbench's tracer looks fit_estimator up here)
from .models import ModelSpec, pmf_truncate, sample, sample_stack, truncated_probs  # noqa: F401  (perfbench's tracer looks pmf_truncate and sample up here)
from .rng import child_seeds, keyed_streams

#: Count cells per round: a round samples ``max(1, STACK_CELLS // L)``
#: replications into one ``(B, L)`` count matrix, L the sampling table's
#: length, which bounds the working set at any L.
STACK_CELLS = 2**16

#: Most replications an experiment accepts: its loss array holds reps x
#: estimators x norms doubles, 8 MiB per estimator and norm at the cap and
#: 144 MiB for all six estimators in three norms.
MAX_REPS = 2**20


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings shared by the experiment drivers.

    ``n`` is the sample size for single-size experiments, ``n_grid`` the
    grid for risk curves (exactly one of the two is used per driver).
    ``estimators`` are codes from ``ESTIMATOR_CODES``; ``norms`` may contain
    1, 2 and ``math.inf``.
    """

    model: ModelSpec
    reps: int
    estimators: tuple = ("e", "sG")
    norms: tuple = est.NORMS
    n: int | None = None
    n_grid: tuple = ()
    alpha: float = 0.05
    band_mc_reps: int = 100_000
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if not 1 <= self.reps <= MAX_REPS:
            raise ValueError(f"need 1 to {MAX_REPS} replications, got {self.reps}")
        for code in self.estimators:
            if code not in ESTIMATOR_CODES:
                raise ValueError(f"unknown estimator code {code!r}")
        if not self.estimators:
            raise ValueError("select at least one estimator")
        for k in self.norms:
            if k not in est.NORMS:
                raise ValueError(f"norms must be 1, 2 or inf, got {k!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")


@dataclass
class ExperimentResult:
    """Outputs of one driver run; fields not produced by a driver stay None.

    ``per_rep_losses`` has shape (reps, len(estimators), len(norms));
    ``risk_estimates`` and ``risk_se`` have shape (len(n_grid),
    len(estimators)); coverage and QQ results are keyed by estimator code.
    Scaled risk is ``n * mean(squared l2 loss)``.
    """

    config: ExperimentConfig
    per_rep_losses: np.ndarray | None = None
    risk_estimates: np.ndarray | None = None
    risk_se: np.ndarray | None = None
    coverage: dict = field(default_factory=dict)
    coverage_se: dict = field(default_factory=dict)
    qq_samples: dict = field(default_factory=dict)
    qq_theoretical: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# The replication engine (top level, so its partials pickle for worker pools)


def _fit_block(cfg: ExperimentConfig, n: int, path: tuple, reduce, block) -> np.ndarray:
    """Rows ``reduce(fits, n, indices)`` of the replications in ``block``, in its order.

    Replication i of ``block`` samples ``n`` values from ``(seed, "rep",
    *path, i)``. A round of ``max(1, STACK_CELLS // L)`` replications, L
    the sampling table's length, is sampled as one ``(B, L)`` count matrix
    (:func:`stackpmf.models.sample_stack`). Each row's length D, its largest
    value plus one, comes from one reverse ``argmax``; the rows of one D are
    fitted as the stack ``counts[rows, :D]``.
    """
    width = truncated_probs(cfg.model).size
    size = max(1, STACK_CELLS // width)
    indices = np.asarray(block)
    streams = keyed_streams(cfg.seed, ("rep", *path), block)
    out = None
    for at in range(0, len(block), size):
        counts = sample_stack(cfg.model, n, streams, min(size, len(block) - at))
        lengths = width - np.argmax(counts[:, ::-1] > 0, axis=1)
        order = np.argsort(lengths, kind="stable")
        for rows in np.split(order, np.flatnonzero(np.diff(lengths[order])) + 1):
            part = reduce(est.fit_stack(cfg.estimators, counts[rows, : lengths[rows[0]]], n)[0], n, indices[at + rows])
            if out is None:
                out = np.empty((len(block),) + part.shape[1:], part.dtype)
            out[at + rows] = part
    return out


def _replications(cfg: ExperimentConfig, n: int, reduce, path: tuple = ()) -> np.ndarray:
    """Stacked rows of replications ``0 .. reps - 1``, in order for any
    worker count."""
    fn = functools.partial(_fit_block, cfg, n, path, reduce)
    if cfg.workers <= 1 or cfg.reps <= 1:
        return fn(range(cfg.reps))
    size = max(1, cfg.reps // (cfg.workers * 8))
    blocks = [range(start, min(start + size, cfg.reps)) for start in range(0, cfg.reps, size)]
    import multiprocessing
    with multiprocessing.get_context("fork").Pool(cfg.workers) as pool:
        return np.concatenate(pool.map(fn, blocks, chunksize=1))


def _losses(fits, n, indices, *, truth, norms):
    return est.lk_distances(fits.reshape(-1, fits.shape[2]), truth, norms).reshape(len(fits), -1, len(norms))


def _band_hits(fits, n, indices, *, truth, cfg):
    padded = np.zeros(fits.shape[:2] + (max(fits.shape[2], truth.size),))
    padded[:, :, : fits.shape[2]] = fits
    hits = np.empty(fits.shape[:2], dtype=bool)
    for b, seed in enumerate(child_seeds(cfg.seed, ("band",), indices).tolist()):
        q_hats = quantile_q_alpha(fits[b], cfg.alpha, cfg.band_mc_reps, seed)
        for a, q_hat in enumerate(q_hats):
            cb = band(padded[b, a], n, q_hat)
            hits[b, a] = np.all(cb.lower[: truth.size] <= truth) and np.all(truth <= cb.upper[: truth.size])
    return hits


def _qq_deviations(fits, n, indices, *, coord, p_coord):
    at_coord = fits[:, :, coord] if coord < fits.shape[2] else np.zeros(fits.shape[:2])
    return math.sqrt(n) * (at_coord - p_coord)


# ---------------------------------------------------------------------------
# Drivers


def run_loss_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Estimation losses per replication at a single sample size."""
    if cfg.n is None:
        raise ValueError("loss experiments need a single sample size n")
    truth = truncated_probs(cfg.model)
    rows = _replications(cfg, cfg.n, functools.partial(_losses, truth=truth, norms=cfg.norms))
    return ExperimentResult(config=cfg, per_rep_losses=rows)


def run_risk_curve(cfg: ExperimentConfig) -> ExperimentResult:
    """Scaled risk ``n * E[squared l2 loss]`` over the sample-size grid."""
    if not cfg.n_grid:
        raise ValueError("risk curves need a nonempty n_grid")
    truth = truncated_probs(cfg.model)
    risks = np.empty((len(cfg.n_grid), len(cfg.estimators)))
    ses = np.empty_like(risks)
    l2_loss = functools.partial(_losses, truth=truth, norms=(2,))
    for g, n in enumerate(cfg.n_grid):
        sq = _replications(cfg, n, l2_loss, path=(g,))[:, :, 0] ** 2
        risks[g] = n * sq.mean(axis=0)
        ses[g] = n * sq.std(axis=0, ddof=1) / math.sqrt(cfg.reps) if cfg.reps > 1 else 0.0
    return ExperimentResult(config=cfg, risk_estimates=risks, risk_se=ses)


def run_coverage(cfg: ExperimentConfig) -> ExperimentResult:
    """Proportion of replications whose band contains the whole truth vector.

    Each replication re-estimates the sup-norm quantile from its own fitted
    vector (the empirical estimator plugs in itself). Containment is checked
    on every index of the truncated truth; indices past the observed range
    carry the band ``[0, q_hat / sqrt(n)]`` around a zero center.
    """
    if cfg.n is None:
        raise ValueError("coverage experiments need a single sample size n")
    truth = truncated_probs(cfg.model)
    rows = _replications(cfg, cfg.n, functools.partial(_band_hits, truth=truth, cfg=cfg))
    result = ExperimentResult(config=cfg)
    for a, code in enumerate(cfg.estimators):
        p = float(rows[:, a].mean())
        result.coverage[code] = p
        result.coverage_se[code] = math.sqrt(p * (1.0 - p) / cfg.reps)
    return result


def run_qq_samples(cfg: ExperimentConfig, coord: int) -> ExperimentResult:
    """Samples of ``sqrt(n) * (estimate_coord - p_coord)`` per estimator,
    with normal quantiles scaled by the sample standard deviation. The
    quantiles come from ``scipy.special.ndtri``, which only this driver
    loads."""
    from scipy.special import ndtri

    if cfg.n is None:
        raise ValueError("QQ sampling needs a single sample size n")
    truth = truncated_probs(cfg.model)
    if not 0 <= coord < truth.size:
        raise ValueError(f"coordinate {coord} outside the truth support of length {truth.size}")
    deviations = functools.partial(_qq_deviations, coord=coord, p_coord=float(truth[coord]))
    rows = _replications(cfg, cfg.n, deviations)
    result = ExperimentResult(config=cfg)
    positions = (np.arange(cfg.reps) + 0.5) / cfg.reps
    normal_q = ndtri(positions)
    for a, code in enumerate(cfg.estimators):
        samples = rows[:, a]
        result.qq_samples[code] = samples
        sd = float(samples.std(ddof=1)) if cfg.reps > 1 else 0.0
        result.qq_theoretical[code] = sd * normal_q
    return result
