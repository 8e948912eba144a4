"""Stacked Grenander and rearrangement estimation of a discrete pmf.

A numpy library for estimating a discrete probability mass function
by stacking the empirical estimator with a shape-constrained one (the
isotonic projection or the decreasing rearrangement), with a closed-form
cross-validated mixture weight, Monte-Carlo global confidence bands, and a
simulation harness for loss, risk, coverage and QQ experiments.
"""

from .confidence import (
    ConfidenceBand,
    band,
    confidence_band,
    iter_limit_process,
    quantile_q_alpha,
    sample_sup_norm,
)
from .errors import EmptyInputError, InsufficientSampleError, InvalidPmfError, ParameterError
from .estimators import (
    ESTIMATOR_CODES,
    GRENANDER,
    KINDS,
    REARRANGEMENT,
    LooVectors,
    StackedFit,
    cv_beta,
    empirical,
    fit_estimator,
    grenander,
    lk_distance,
    lk_distances,
    loo_vectors_fast,
    minimax,
    rearrangement,
    stacked,
)
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    run_coverage,
    run_loss_experiment,
    run_qq_samples,
    run_risk_curve,
)
from .models import (
    FrequencyData,
    Geometric,
    Mixture,
    ModelSpec,
    NegativeBinomial,
    Pmf,
    Poisson,
    TriangularDecreasing,
    TriangularIncreasing,
    UniformRange,
    builtin_models,
    parse_model,
    pmf_eval,
    pmf_truncate,
    pmf_values,
    sample,
    support_size,
)
from .shape import BlockPartition, isotonic_decreasing, rearrange_decreasing

__version__ = "0.1.0"

__all__ = [
    "BlockPartition",
    "ConfidenceBand",
    "ESTIMATOR_CODES",
    "EmptyInputError",
    "ExperimentConfig",
    "ExperimentResult",
    "FrequencyData",
    "GRENANDER",
    "Geometric",
    "InsufficientSampleError",
    "InvalidPmfError",
    "KINDS",
    "LooVectors",
    "Mixture",
    "ModelSpec",
    "NegativeBinomial",
    "ParameterError",
    "Pmf",
    "Poisson",
    "REARRANGEMENT",
    "StackedFit",
    "TriangularDecreasing",
    "TriangularIncreasing",
    "UniformRange",
    "band",
    "builtin_models",
    "confidence_band",
    "cv_beta",
    "empirical",
    "fit_estimator",
    "grenander",
    "isotonic_decreasing",
    "iter_limit_process",
    "lk_distance",
    "lk_distances",
    "loo_vectors_fast",
    "minimax",
    "parse_model",
    "pmf_eval",
    "pmf_truncate",
    "pmf_values",
    "quantile_q_alpha",
    "rearrange_decreasing",
    "rearrangement",
    "run_coverage",
    "run_loss_experiment",
    "run_qq_samples",
    "run_risk_curve",
    "sample",
    "sample_sup_norm",
    "stacked",
    "support_size",
]
