"""Acceptance suite: every release gate runs here at its stated tolerance.

Each test prints one PASS line with the observed numbers once its
assertions hold; a pytest failure line is the corresponding FAIL. Run with

    pytest tests/test_acceptance.py -v -s

The heavy Monte-Carlo criteria (coverage cells, orderings, QQ variances)
take a few minutes combined.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import norm

from oracles import (
    brute_force_isotonic_decreasing,
    loo_vectors,
    maximum_upper_sets,
    random_frequency_data,
    scaled_risk_closed_form,
)
from stackpmf import (
    GRENANDER,
    KINDS,
    REARRANGEMENT,
    ExperimentConfig,
    FrequencyData,
    TriangularDecreasing,
    builtin_models,
    cv_beta,
    empirical,
    grenander,
    isotonic_decreasing,
    iter_limit_process,
    loo_vectors_fast,
    pmf_truncate,
    quantile_q_alpha,
    rearrangement,
    run_coverage,
    run_loss_experiment,
    run_qq_samples,
    run_risk_curve,
)
from stackpmf.cli import main as cli_main

M = builtin_models()
WORKERS = 2


def _direct_cv_grid(x, kind, betas):
    """Cross-validation criterion evaluated from its definition on a beta grid."""
    base = empirical(x).probs
    shape = grenander(x).probs if kind == GRENANDER else rearrangement(x).probs
    loo = loo_vectors(x, kind)
    est = np.outer(betas, shape) + np.outer(1.0 - betas, base)
    loo_est = np.outer(betas, loo.shape_loo) + np.outer(1.0 - betas, loo.pi)
    return np.sum(est**2, axis=1) - 2.0 * (loo_est @ base)


def test_criterion_01_mixture_weight_algebra():
    """The closed-form mixture weight minimizes the directly evaluated
    criterion, and the quadratic form reproduces the grid exactly.

    When the base and shape estimators coincide (a_n = 0) the estimate is
    the same for every beta and the weight is fixed at 0 by convention; the
    minimizer clause is replaced by that invariance there.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    betas = np.linspace(0.0, 1.0, 1001)
    degenerate = 0
    for _ in range(100):
        x = random_frequency_data(rng, max_len=30, max_n=500)
        for kind in KINDS:
            beta_hat, a_n, b_n = cv_beta(x, kind)
            grid = _direct_cv_grid(x, kind, betas)
            quad = a_n * betas**2 - 2.0 * b_n * betas
            np.testing.assert_allclose(grid - grid[0], quad, atol=1e-10)
            if a_n > 1e-15:
                cv_hat = _direct_cv_grid(x, kind, np.array([beta_hat]))[0]
                assert cv_hat <= grid.min() + 1e-10
            else:
                degenerate += 1
                assert beta_hat == 0.0
                base = empirical(x).probs
                shape = grenander(x).probs if kind == GRENANDER else rearrangement(x).probs
                np.testing.assert_array_equal(shape, base)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(
        f"\nACCEPTANCE 1 (mixture-weight algebra): PASS in {elapsed:.1f}s "
        f"({degenerate} degenerate coincident cases)"
    )


def test_criterion_02_isotonic_oracle_equivalence():
    """The pool-adjacent-violators fit equals the exhaustive partition oracle
    and the literal repeated-argmax scan."""
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    for _ in range(1000):
        v = rng.normal(size=rng.integers(1, 9))
        fitted, _ = isotonic_decreasing(v)
        np.testing.assert_allclose(fitted, brute_force_isotonic_decreasing(v), atol=1e-10)
    for _ in range(100):
        v = rng.normal(size=rng.integers(1, 201))
        fitted, _ = isotonic_decreasing(v)
        np.testing.assert_allclose(fitted, maximum_upper_sets(v), atol=1e-10)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 2 (isotonic oracle equivalence): PASS in {elapsed:.1f}s")


def test_criterion_03_leave_one_out_inequalities():
    """Leave-one-out values never exceed their full-sample counterparts:
    pi <= base and shape_loo <= n/(n-1) * shape, over 10^4 random inputs
    (1e-15 guard for floating-point representation only)."""
    rng = np.random.default_rng(1003)
    guard = 1e-15
    for i in range(10_000):
        x = random_frequency_data(rng, max_len=60, max_n=10_000)
        base = x.counts / x.n
        scale = x.n / (x.n - 1)
        for kind, full in ((GRENANDER, grenander(x).probs), (REARRANGEMENT, rearrangement(x).probs)):
            loo = loo_vectors_fast(x, kind) if i >= 300 else loo_vectors(x, kind)
            assert np.all(loo.pi <= base + guard)
            assert np.all(loo.shape_loo <= scale * full + guard)
    print("\nACCEPTANCE 3 (leave-one-out inequalities): PASS, 0 violations in 10000 inputs")


def test_criterion_04_error_reduction_on_decreasing_truths():
    """With a nonincreasing truth, each stacked estimator beats or ties the
    empirical one in every norm, replication by replication."""
    for name in ("M1", "M2", "M3", "M4"):
        for n in (20, 300):
            cfg = ExperimentConfig(model=M[name], reps=200, estimators=("e", "sr", "sG"),
                                   norms=(1, 2, math.inf), n=n, seed=1004, workers=WORKERS)
            losses = run_loss_experiment(cfg).per_rep_losses
            for stacked_col in (1, 2):
                assert np.all(losses[:, stacked_col, :] <= losses[:, 0, :] + 1e-12), (name, n)
    print("\nACCEPTANCE 4 (per-replication error reduction, M1-M4): PASS")


def test_criterion_05_coverage_cells():
    """Empirical band coverage matches the reference values within 0.025:
    (e, M1, 1000) 0.945, (sG, M1, 1000) 0.998, (e, M5, 1000) 0.953,
    (sG, M4, 5000) 0.959."""
    observed = {}
    cfg = ExperimentConfig(model=M["M1"], reps=1000, estimators=("e", "sG"), n=1000,
                           alpha=0.05, band_mc_reps=100_000, seed=1005, workers=WORKERS)
    res = run_coverage(cfg)
    observed[("e", "M1", 1000)] = res.coverage["e"]
    observed[("sG", "M1", 1000)] = res.coverage["sG"]
    cfg = ExperimentConfig(model=M["M5"], reps=1000, estimators=("e",), n=1000,
                           alpha=0.05, band_mc_reps=100_000, seed=1005, workers=WORKERS)
    observed[("e", "M5", 1000)] = run_coverage(cfg).coverage["e"]
    cfg = ExperimentConfig(model=M["M4"], reps=1000, estimators=("sG",), n=5000,
                           alpha=0.05, band_mc_reps=100_000, seed=1005, workers=WORKERS)
    observed[("sG", "M4", 5000)] = run_coverage(cfg).coverage["sG"]
    targets = {
        ("e", "M1", 1000): 0.945,
        ("sG", "M1", 1000): 0.998,
        ("e", "M5", 1000): 0.953,
        ("sG", "M4", 5000): 0.959,
    }
    for cell, target in targets.items():
        assert abs(observed[cell] - target) <= 0.025, (cell, observed[cell], target)
    shown = {f"{c[0]}/{c[1]}/n={c[2]}": round(v, 3) for c, v in observed.items()}
    print(f"\nACCEPTANCE 5 (coverage cells): PASS {shown}")


def test_criterion_06_empirical_risk_closed_form():
    """The empirical estimator's scaled risk matches 1 - sum(p^2) within
    3 Monte-Carlo standard errors on every built-in model."""
    report = {}
    for name, model in M.items():
        truth = pmf_truncate(model, 1e-12).probs
        cfg = ExperimentConfig(model=model, reps=2000, estimators=("e",), n_grid=(2000,),
                               seed=1006, workers=WORKERS)
        res = run_risk_curve(cfg)
        target = scaled_risk_closed_form(truth)
        gap = abs(res.risk_estimates[0, 0] - target)
        assert gap <= 3 * res.risk_se[0, 0], (name, res.risk_estimates[0, 0], target)
        report[name] = round(float(res.risk_estimates[0, 0]), 4)
    assert scaled_risk_closed_form(pmf_truncate(M["M1"], 1e-12).probs) == pytest.approx(11 / 12, abs=1e-9)
    assert scaled_risk_closed_form(pmf_truncate(M["M4"], 1e-12).probs) == pytest.approx(0.4, abs=1e-9)
    print(f"\nACCEPTANCE 6 (empirical-risk closed form): PASS {report}")


def _mean_l2_losses(model, codes, seed):
    cfg = ExperimentConfig(model=model, reps=1000, estimators=codes, norms=(2,), n=300,
                           seed=seed, workers=WORKERS)
    losses = run_loss_experiment(cfg).per_rep_losses[:, :, 0]
    return {code: losses[:, i] for i, code in enumerate(codes)}


def _order_margins(losses, better, worse_list, label, report, failures):
    for worse in worse_list:
        diff = losses[worse] - losses[better]
        margin = float(diff.mean()) / (float(diff.std(ddof=1)) / math.sqrt(diff.size))
        report[f"{label}:{better}<{worse}"] = round(margin, 1)
        if not margin > 2.0:
            failures.append(f"{label}: {better}<{worse} margin {margin:.2f} SE")


def test_criterion_07_qualitative_loss_orderings():
    """Mean l2 loss orderings at n=300, each with a margin above 2 SE of the
    paired difference: stacked Grenander beats the stacked rearrangement,
    empirical and minimax estimators on M2 and M3, and beats the empirical
    and minimax estimators on M5, M6 and M7.

    All cells are evaluated and reported; the test fails listing every cell
    below the margin.
    """
    report = {}
    failures = []
    for name in ("M2", "M3"):
        losses = _mean_l2_losses(M[name], ("e", "mm", "sr", "sG"), seed=1007)
        _order_margins(losses, "sG", ("sr", "e", "mm"), name, report, failures)
    for name in ("M5", "M6", "M7"):
        losses = _mean_l2_losses(M[name], ("e", "mm", "sG"), seed=1007)
        _order_margins(losses, "sG", ("e", "mm"), name, report, failures)
    assert not failures, f"cells below the 2 SE margin: {failures}; all margins (SE units): {report}"
    print(f"\nACCEPTANCE 7 (loss orderings, margins in SE units): PASS {report}")


def test_criterion_08_limit_process_sampler():
    """Empirical covariance of 10^6 limit draws matches the multinomial
    covariance entrywise within 5e-3, and the two-point quantile matches its
    closed form within 0.005."""
    for theta in (pmf_truncate(M["M1"], 1e-12).probs, np.array([0.5, 0.5])):
        target = np.diag(theta) - np.outer(theta, theta)
        acc = np.zeros((theta.size, theta.size))
        total = 0
        for y in iter_limit_process(theta, 10**6, seed=1008):
            acc += y.T @ y
            total += y.shape[0]
        max_err = float(np.max(np.abs(acc / total - target)))
        assert max_err <= 5e-3, max_err
    q = quantile_q_alpha(np.array([0.5, 0.5]), 0.05, 10**6, seed=1008)
    target_q = 0.5 * norm.ppf(0.975)
    assert abs(q - target_q) <= 0.005, (q, target_q)
    print(f"\nACCEPTANCE 8 (limit-process sampler): PASS q={q:.5f} target={target_q:.5f}")


def test_criterion_09_worst_case_performance():
    """On the strictly increasing worst-case input: the mixture weight at
    s=5000 and the s=5000 quantile with 1e5 draws each finish within 60 s,
    and the fast leave-one-out pass grows sub-quadratically in s."""
    s_grid = (500, 1000, 3000, 5000)
    loo_times = {REARRANGEMENT: [], GRENANDER: []}
    for s in s_grid:
        x = FrequencyData(np.arange(1, s + 2))
        for kind in KINDS:
            best = math.inf
            for _ in range(3):
                t0 = time.perf_counter()
                loo_vectors_fast(x, kind)
                best = min(best, time.perf_counter() - t0)
            loo_times[kind].append(best)
    x = FrequencyData(np.arange(1, 5002))
    t0 = time.perf_counter()
    cv_beta(x, REARRANGEMENT)
    t_sr = time.perf_counter() - t0
    t0 = time.perf_counter()
    cv_beta(x, GRENANDER)
    t_sg = time.perf_counter() - t0
    assert t_sr <= 60.0 and t_sg <= 60.0, (t_sr, t_sg)
    theta = pmf_truncate(TriangularDecreasing(5000), 1e-12)
    t0 = time.perf_counter()
    quantile_q_alpha(theta, 0.05, 100_000, seed=1009)
    t_q = time.perf_counter() - t0
    assert t_q <= 60.0, t_q
    log_s = np.log(np.asarray(s_grid, dtype=float))
    slopes = {}
    for kind in KINDS:
        slope = float(np.polyfit(log_s, np.log(np.asarray(loo_times[kind])), 1)[0])
        slopes[kind] = round(slope, 2)
        assert slope < 2.0, (kind, slope, loo_times[kind])
    print(
        f"\nACCEPTANCE 9 (worst-case performance): PASS cv_beta {t_sr:.2f}/{t_sg:.2f}s, "
        f"quantile {t_q:.1f}s, loo growth exponents {slopes}"
    )


def test_criterion_10_qq_variances():
    """Coordinate-1 samples scaled by sqrt(n) have variance within 15% of
    p_1(1-p_1): the empirical estimator on every model, both stacked kinds
    additionally on M5, M6, M7 and tri-dec:11; no assertion for the
    flat-region decreasing models.

    All cells are evaluated and reported; the test fails listing every cell
    outside the band.
    """
    report = {}
    failures = []
    cases = [(name, model, ("e", "sr", "sG") if name in ("M5", "M6", "M7") else ("e",))
             for name, model in M.items()]
    cases.append(("tri-dec:11", TriangularDecreasing(11), ("e", "sr", "sG")))
    for name, model, codes in cases:
        truth = pmf_truncate(model, 1e-12).probs
        cfg = ExperimentConfig(model=model, reps=1000, estimators=codes, n=1000,
                               seed=1010, workers=WORKERS)
        res = run_qq_samples(cfg, coord=1)
        target = float(truth[1] * (1 - truth[1]))
        for code in codes:
            ratio = float(res.qq_samples[code].var(ddof=1)) / target
            report[f"{code}@{name}"] = round(ratio, 3)
            if abs(ratio - 1.0) > 0.15:
                failures.append(f"{code}@{name} variance ratio {ratio:.3f}")
    assert not failures, f"cells outside the 15% band: {failures}; all ratios: {report}"
    print(f"\nACCEPTANCE 10 (QQ variance ratios): PASS {report}")


def test_criterion_11_byte_identical_reruns(tmp_path):
    """simulate, band and qq reruns with equal flags and seed write byte
    identical tables, for 1 and 4 workers."""
    counts = tmp_path / "counts.txt"
    counts.write_text("5 9 2 4 1\n")
    jobs = {
        "losses.csv": ["simulate", "--model", "M2", "--n", "40", "--reps", "12",
                       "--est", "e,sr,sG", "--norm", "1,2,inf", "--seed", "31"],
        "band.csv": ["band", "--input", str(counts), "--kind", "sG", "--alpha", "0.05",
                     "--mc", "5000", "--seed", "31"],
        "qq.csv": ["qq", "--model", "M6", "--coord", "1", "--n", "60", "--reps", "15",
                   "--est", "e,sG", "--seed", "31"],
    }
    for filename, args in jobs.items():
        outputs = []
        for run_id, workers in (("r1", "1"), ("r2", "1"), ("r3", "4")):
            out = tmp_path / f"{filename}.{run_id}"
            assert cli_main(args + ["--workers", workers, "--out", str(out)]) == 0
            outputs.append((out / filename).read_bytes())
        assert outputs[0] == outputs[1] == outputs[2], filename
    print("\nACCEPTANCE 11 (byte-identical reruns): PASS")
