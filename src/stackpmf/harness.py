"""Monte-Carlo experiment drivers.

Four experiment types over a chosen true distribution: per-replication
estimation losses (boxplot data), scaled-risk curves over a sample-size
grid, empirical coverage of the global confidence bands, and samples for
normal QQ diagnostics of a single coordinate.

Replication i always draws from the stream ``(seed, "rep", ...)`` and its
band Monte Carlo from ``(seed, "band", i)``, so results are identical for
any worker count, with single-threaded and pooled runs byte-equal.
"""

import functools
import math
import multiprocessing
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import norm as _norm

from . import estimators as est
from .confidence import band, quantile_q_alpha
from .models import FrequencyData, ModelSpec, pmf_truncate, sample
from .rng import substream_seed

ESTIMATOR_CODES = ("e", "mm", "r", "G", "sr", "sG")

#: Truth vectors are materialized with this tail tolerance.
TRUTH_TRUNCATION = 1e-12

#: Shape transform behind each shape-based estimator code.
_SHAPE_KINDS = {"r": est.REARRANGEMENT, "G": est.GRENANDER, "sr": est.REARRANGEMENT, "sG": est.GRENANDER}


class SharedFits:
    """The empirical vector of one data set and its shape fits, each
    computed at most once however many estimators are derived from them."""

    def __init__(self, x: FrequencyData):
        self.base = x.counts / x.n
        self._shapes = {}

    def shape(self, kind: str) -> np.ndarray:
        if kind not in self._shapes:
            self._shapes[kind] = est.shape_transform(kind, self.base)
        return self._shapes[kind]


def fit_estimator(code: str, x, shared: SharedFits | None = None) -> np.ndarray:
    """Probability vector of the estimator named by ``code`` on data ``x``.

    Callers fitting several estimators to the same ``x`` pass one
    ``SharedFits(x)`` to all of them; the results are bitwise equal to the
    standalone estimator functions either way.
    """
    if shared is None:
        shared = SharedFits(x)
    if code == "e":
        return shared.base
    if code == "mm":
        return est.minimax_probs(shared.base, x.n)
    if code in ("r", "G"):
        return shared.shape(_SHAPE_KINDS[code])
    if code in ("sr", "sG"):
        kind = _SHAPE_KINDS[code]
        if x.n < 2:
            return est.stacked(x, kind, shared.shape(kind)).estimate.probs
        beta = est.cv_beta(x, kind, shared.shape(kind))[0]
        return est.mixture(beta, shared.shape(kind), shared.base).probs
    raise ValueError(f"unknown estimator code {code!r}; choose from {ESTIMATOR_CODES}")


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
        if self.reps < 1:
            raise ValueError(f"need at least one replication, got {self.reps}")
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
# The replication loop (top level, so its partials pickle for worker pools)


def _replicate(cfg: ExperimentConfig, n: int, path: tuple, reduce, i: int):
    """Replication ``i``: sample ``n`` values from ``(seed, "rep", *path, i)``,
    fit each requested estimator once and return ``reduce(fits, n, i)``."""
    x = sample(cfg.model, n, substream_seed(cfg.seed, "rep", *path, i))
    shared = SharedFits(x)
    return reduce([fit_estimator(code, x, shared) for code in cfg.estimators], n, i)


def _replications(cfg: ExperimentConfig, n: int, reduce, path: tuple = ()) -> np.ndarray:
    """Stacked rows of replications ``0 .. reps - 1``, in order for any
    worker count."""
    fn = functools.partial(_replicate, cfg, n, path, reduce)
    if cfg.workers <= 1 or cfg.reps <= 1:
        return np.stack([fn(i) for i in range(cfg.reps)])
    ctx = multiprocessing.get_context("fork")
    chunksize = max(1, cfg.reps // (cfg.workers * 8))
    with ctx.Pool(cfg.workers) as pool:
        return np.stack(pool.map(fn, range(cfg.reps), chunksize=chunksize))


def _losses(fits, n, i, *, truth, norms):
    return est.lk_distances(np.stack(fits), truth, norms)


def _band_hits(fits, n, i, *, truth, cfg):
    band_seed = substream_seed(cfg.seed, "band", i)
    q_hats = quantile_q_alpha(np.stack(fits), cfg.alpha, cfg.band_mc_reps, band_seed)
    hits = []
    for center, q_hat in zip(fits, q_hats):
        padded = np.zeros(max(center.size, truth.size))
        padded[: center.size] = center
        b = band(padded, n, q_hat)
        hits.append(bool(np.all(b.lower[: truth.size] <= truth) and np.all(truth <= b.upper[: truth.size])))
    return np.array(hits)


def _qq_deviations(fits, n, i, *, coord, p_coord):
    root_n = math.sqrt(n)
    return np.array([root_n * ((probs[coord] if coord < probs.size else 0.0) - p_coord) for probs in fits])


# ---------------------------------------------------------------------------
# Drivers


def run_loss_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Estimation losses per replication at a single sample size."""
    if cfg.n is None:
        raise ValueError("loss experiments need a single sample size n")
    truth = pmf_truncate(cfg.model, TRUTH_TRUNCATION).probs
    rows = _replications(cfg, cfg.n, functools.partial(_losses, truth=truth, norms=cfg.norms))
    return ExperimentResult(config=cfg, per_rep_losses=rows)


def run_risk_curve(cfg: ExperimentConfig) -> ExperimentResult:
    """Scaled risk ``n * E[squared l2 loss]`` over the sample-size grid."""
    if not cfg.n_grid:
        raise ValueError("risk curves need a nonempty n_grid")
    truth = pmf_truncate(cfg.model, TRUTH_TRUNCATION).probs
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
    truth = pmf_truncate(cfg.model, TRUTH_TRUNCATION).probs
    rows = _replications(cfg, cfg.n, functools.partial(_band_hits, truth=truth, cfg=cfg))
    result = ExperimentResult(config=cfg)
    for a, code in enumerate(cfg.estimators):
        p = float(rows[:, a].mean())
        result.coverage[code] = p
        result.coverage_se[code] = math.sqrt(p * (1.0 - p) / cfg.reps)
    return result


def run_qq_samples(cfg: ExperimentConfig, coord: int) -> ExperimentResult:
    """Samples of ``sqrt(n) * (estimate_coord - p_coord)`` per estimator,
    with normal quantiles scaled by the sample standard deviation."""
    if cfg.n is None:
        raise ValueError("QQ sampling needs a single sample size n")
    truth = pmf_truncate(cfg.model, TRUTH_TRUNCATION).probs
    if not 0 <= coord < truth.size:
        raise ValueError(f"coordinate {coord} outside the truth support of length {truth.size}")
    deviations = functools.partial(_qq_deviations, coord=coord, p_coord=float(truth[coord]))
    rows = _replications(cfg, cfg.n, deviations)
    result = ExperimentResult(config=cfg)
    positions = (np.arange(cfg.reps) + 0.5) / cfg.reps
    normal_q = _norm.ppf(positions)
    for a, code in enumerate(cfg.estimators):
        samples = rows[:, a]
        result.qq_samples[code] = samples
        sd = float(samples.std(ddof=1)) if cfg.reps > 1 else 0.0
        result.qq_theoretical[code] = sd * normal_q
    return result
