"""Tests for the Monte-Carlo experiment drivers."""

import functools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from oracles import counts_vectors, reference_coverage, reference_cv_beta, reference_fit, scaled_risk_closed_form
from stackpmf import (
    ESTIMATOR_CODES,
    GRENANDER,
    REARRANGEMENT,
    ExperimentConfig,
    FrequencyData,
    TriangularIncreasing,
    UniformRange,
    builtin_models,
    pmf_truncate,
    run_coverage,
    run_loss_experiment,
    run_qq_samples,
    run_risk_curve,
)
from stackpmf import estimators as est
from stackpmf import harness, rng
from stackpmf.estimators import fit_estimator

M = builtin_models()


class TestConfig:
    def test_rejects_bad_settings(self):
        with pytest.raises(ValueError):
            ExperimentConfig(model=M["M1"], reps=0)
        with pytest.raises(ValueError):
            ExperimentConfig(model=M["M1"], reps=1, estimators=("zz",))
        with pytest.raises(ValueError):
            ExperimentConfig(model=M["M1"], reps=1, norms=(3,))
        with pytest.raises(ValueError):
            ExperimentConfig(model=M["M1"], reps=1, alpha=1.5)


def _same_length_and_total(counts: np.ndarray, perms: list) -> list:
    """``counts`` followed by copies whose entries before the last are permuted,
    so every data set has one length and one total."""
    rows = [counts] + [np.append(counts[:-1][list(p)], counts[-1]) for p in perms]
    return [FrequencyData(row) for row in rows]


same_length_stacks = counts_vectors.flatmap(
    lambda counts: st.lists(st.permutations(range(counts.size - 1)), max_size=4).map(
        lambda perms: _same_length_and_total(counts, perms)
    )
)


class TestFitStack:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(same_length_stacks, st.lists(st.sampled_from(ESTIMATOR_CODES), min_size=1, max_size=8))
    @example([FrequencyData(np.array([1]))], list(ESTIMATOR_CODES))
    @example([FrequencyData(np.array([0, 0, 1]))] * 2, ["sG", "e", "sG", "sr"])
    @example([FrequencyData(np.array([2, 2, 2, 2]))], list(ESTIMATOR_CODES))
    def test_rows_bitwise_equal_to_standalone_estimators(self, xs, codes):
        fits, weights = est.fit_stack(codes, np.stack([x.counts for x in xs]), xs[0].n)
        assert fits.shape == (len(xs), len(codes), xs[0].counts.size)
        assert fits.flags.c_contiguous
        assert sorted(weights) == sorted({"sr", "sG"} & set(codes))
        for b, (x, row) in enumerate(zip(xs, fits)):
            views = {
                "e": est.empirical(x).probs,
                "mm": est.minimax(x).probs,
                "r": est.rearrangement(x).probs,
                "G": est.grenander(x).probs,
                "sr": est.stacked(x, REARRANGEMENT).estimate.probs,
                "sG": est.stacked(x, GRENANDER).estimate.probs,
            }
            for code, got in zip(codes, row):
                reference = reference_fit(code, x).tobytes()
                assert got.tobytes() == reference, code
                assert fit_estimator(code, x).tobytes() == reference, code
                assert views[code].tobytes() == reference, code
            for code, (beta, a_n, b_n) in weights.items():
                kind = est.SHAPE_KINDS[code]
                if x.n > 1:
                    assert (beta[b], a_n[b], b_n[b]) == reference_cv_beta(x, kind), code
                else:
                    assert beta[b] == 0.0 and b_n is None, code
            for kind in (REARRANGEMENT, GRENANDER):
                fit = est.stacked(x, kind)
                assert 0.0 <= fit.beta_hat <= 1.0
                if x.n > 1:
                    assert est.cv_beta(x, kind) == reference_cv_beta(x, kind)

    def test_each_shape_is_fitted_once_per_row(self, monkeypatch):
        calls = []

        def counting(name, original):
            def counted(*args):
                calls.append(name)
                return original(*args)

            return counted

        for name in ("grenander_blocks", "isotonic_decreasing", "loo_stacks", "loo_vectors_fast"):
            monkeypatch.setattr(est, name, counting(name, getattr(est, name)))
        counts = np.array([[1, 3, 0, 2, 5], [5, 3, 0, 2, 1], [2, 2, 2, 4, 1]])
        est.fit_stack(ESTIMATOR_CODES + ESTIMATOR_CODES, counts, 11)
        # one isotonic partition and one leave-one-out pass per stack and
        # kind, none per row
        assert sorted(calls) == ["grenander_blocks"] + ["loo_stacks"] * 2
        # on a rising and a falling ramp the leave-one-out pass reuses the partition
        calls.clear()
        ramp = np.arange(1, 66)
        est.fit_stack(("sG", "G"), np.stack([ramp, ramp[::-1]]), int(ramp.sum()))
        assert sorted(calls) == ["grenander_blocks", "loo_stacks"]

    def test_unknown_code(self):
        with pytest.raises(ValueError):
            fit_estimator("zz", FrequencyData(np.array([1, 2])))

    def test_output_is_the_only_copy_of_the_fits(self, monkeypatch):
        # once the leave-one-out pass is done, the fit holds its output and
        # one (B, D) temporary at most: no fit is copied into a second output
        x = FrequencyData(np.arange(1, 50_002))
        row = x.counts.size * 8
        cv_betas = est.cv_betas

        def then_reset_peak(*args):
            weights = cv_betas(*args)
            tracemalloc.reset_peak()
            return weights

        monkeypatch.setattr(est, "cv_betas", then_reset_peak)
        tracemalloc.start()
        try:
            fits, _ = est.fit_stack(("e", "G", "sG"), x.counts[None], x.n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fits.nbytes == 3 * row
        assert peak < fits.nbytes + row + 2**16


class TestBlocks:
    """Rows do not depend on how replications are cut into blocks and rounds."""

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(
        st.sampled_from(sorted(M)),
        st.integers(1, 120),
        st.integers(0, 2**32 - 1),
        st.lists(st.sampled_from(ESTIMATOR_CODES), min_size=1, max_size=4),
        st.lists(st.integers(0, 3), min_size=1, max_size=9),
        st.integers(1, 200),
    )
    def test_any_partition_gives_the_same_rows(self, name, n, seed, codes, labels, cells):
        cfg = ExperimentConfig(model=M[name], reps=len(labels), estimators=tuple(codes), n=n,
                               alpha=0.3, band_mc_reps=100, seed=seed)
        truth = pmf_truncate(cfg.model, 1e-12).probs
        reduces = {
            "loss": ((), functools.partial(harness._losses, truth=truth, norms=est.NORMS)),
            "risk": ((1,), functools.partial(harness._losses, truth=truth, norms=(2,))),
            "qq": ((), functools.partial(harness._qq_deviations, coord=1, p_coord=float(truth[1]))),
            "coverage": ((), functools.partial(harness._band_hits, truth=truth, cfg=cfg)),
        }
        blocks = [[i for i, label in enumerate(labels) if label == b] for b in sorted(set(labels))]
        for what, (path, reduce) in reduces.items():
            whole = harness._replications(cfg, n, reduce, path)
            assert len(whole) == cfg.reps
            parts = np.empty_like(whole)
            with mock.patch.object(harness, "STACK_CELLS", cells):
                for block in blocks:
                    parts[block] = harness._fit_block(cfg, n, path, reduce, block)
            assert parts.tobytes() == whole.tobytes(), what


class TestWorkingSet:
    def test_wide_model_peak_is_bounded_by_the_round_size(self):
        # A round of 2**16 count cells gives a (B, c, D) fit stack, the padded
        # |difference| in lk_distances and its square, each c * 2**16 * 8
        # bytes; base, the shape fits and the held counts take less than one
        # more. Every sample of the increasing ramp reaches D = 5001, so the
        # 27 replications fill two rounds of 13 and one of 1, where a single
        # stack of all 27 would need over 19 MB. (The ramp's majorant is one
        # segment, which keeps the traced leave-one-out pass short.)
        codes = ESTIMATOR_CODES
        bound = 4 * len(codes) * 2**16 * 8
        cfg = ExperimentConfig(model=TriangularIncreasing(5000), reps=27, estimators=codes, norms=est.NORMS,
                               n=20_000, seed=17)
        tracemalloc.start()
        try:
            res = run_loss_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.per_rep_losses.shape == (27, len(codes), len(est.NORMS))
        assert peak < bound


    def test_stream_keys_take_the_same_working_set_at_any_reps(self):
        # A pass keys at most 4096 indices: its index, pool, seed and key
        # words take under 128 bytes an index, so the derivation stays below
        # 128 * 4096 bytes plus 64 KiB of fixed cost at any reps, where
        # keying all 2**16 indices at once would hold 1 MiB of keys alone.
        bound = 128 * 4096 + 2**16
        peaks = []
        for reps in (4096, 2**16):
            tracemalloc.start()
            try:
                for _ in rng.keyed_streams(11, ("rep",), range(reps)):
                    pass
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < bound, peaks


class TestLossExperiment:
    def test_shapes_and_nonnegativity(self):
        cfg = ExperimentConfig(model=M["M2"], reps=5, estimators=("e", "mm", "r", "G", "sr", "sG"),
                               norms=(1, 2, math.inf), n=30, seed=1)
        res = run_loss_experiment(cfg)
        assert res.per_rep_losses.shape == (5, 6, 3)
        assert np.all(res.per_rep_losses >= 0.0)

    def test_point_mass_truth_gives_zero_loss(self):
        cfg = ExperimentConfig(model=UniformRange(0), reps=3, estimators=("e", "sG"), n=10, seed=2)
        res = run_loss_experiment(cfg)
        np.testing.assert_allclose(res.per_rep_losses, 0.0, atol=1e-15)

    def test_stacked_never_worse_than_empirical_on_decreasing_truth(self):
        cfg = ExperimentConfig(model=M["M1"], reps=60, estimators=("e", "sG"),
                               norms=(1, 2, math.inf), n=25, seed=3)
        res = run_loss_experiment(cfg)
        assert np.all(res.per_rep_losses[:, 1, :] <= res.per_rep_losses[:, 0, :] + 1e-12)

    def test_identical_results_for_any_worker_count(self):
        base = dict(model=M["M3"], reps=24, estimators=("e", "sr", "sG"), n=40, seed=4)
        serial = run_loss_experiment(ExperimentConfig(**base, workers=1))
        pooled = run_loss_experiment(ExperimentConfig(**base, workers=4))
        np.testing.assert_array_equal(serial.per_rep_losses, pooled.per_rep_losses)

    def test_requires_single_n(self):
        with pytest.raises(ValueError):
            run_loss_experiment(ExperimentConfig(model=M["M1"], reps=2))


class TestRiskCurve:
    def test_empirical_matches_closed_form(self):
        truth = pmf_truncate(M["M1"], 1e-12).probs
        cfg = ExperimentConfig(model=M["M1"], reps=600, estimators=("e",), n_grid=(1000,), seed=5)
        res = run_risk_curve(cfg)
        target = scaled_risk_closed_form(truth)
        assert abs(res.risk_estimates[0, 0] - target) <= 3 * res.risk_se[0, 0]

    def test_single_rep_is_finite(self):
        cfg = ExperimentConfig(model=M["M4"], reps=1, estimators=("e", "sG"), n_grid=(10,), seed=6)
        res = run_risk_curve(cfg)
        assert res.risk_estimates.shape == (1, 2)
        assert np.all(res.risk_estimates >= 0.0)

    def test_requires_grid(self):
        with pytest.raises(ValueError):
            run_risk_curve(ExperimentConfig(model=M["M1"], reps=2, n=10))


class TestCoverage:
    def test_small_run_properties(self):
        cfg = ExperimentConfig(model=M["M1"], reps=30, estimators=("e", "sG"), n=500,
                               band_mc_reps=5000, seed=7)
        res = run_coverage(cfg)
        for code in ("e", "sG"):
            assert 0.0 <= res.coverage[code] <= 1.0
            assert res.coverage_se[code] >= 0.0
        # the stacked band is conservative for a flat decreasing truth
        assert res.coverage["sG"] >= res.coverage["e"] - 0.1

    def test_near_total_alpha_collapses_coverage(self):
        cfg = ExperimentConfig(model=M["M1"], reps=20, estimators=("e",), n=500,
                               alpha=0.999, band_mc_reps=5000, seed=8)
        res = run_coverage(cfg)
        assert res.coverage["e"] <= 0.2

    def test_shared_normals_give_the_standalone_bands(self, monkeypatch):
        original_band = harness.band
        built = []

        def recording_band(*args):
            built.append(original_band(*args))
            return built[-1]

        monkeypatch.setattr(harness, "band", recording_band)
        truth = pmf_truncate(M["M2"], 1e-12).probs
        hits = []
        for alpha in (0.05, 0.5):
            cfg = ExperimentConfig(model=M["M2"], reps=10, estimators=ESTIMATOR_CODES, n=200,
                                   alpha=alpha, band_mc_reps=1000, seed=10)
            band_hits = functools.partial(harness._band_hits, truth=truth, cfg=cfg)
            for i in range(cfg.reps):
                built.clear()
                hits.append(harness._fit_block(cfg, cfg.n, (), band_hits, [i])[0])
                ref_hits, ref_q_hats = reference_coverage(cfg, truth, i)
                np.testing.assert_array_equal(hits[-1], ref_hits)
                assert [b.q_hat for b in built] == ref_q_hats
        assert 0 < np.mean(hits) < 1

    def test_deterministic_across_workers(self):
        base = dict(model=M["M1"], reps=12, estimators=("e",), n=200, band_mc_reps=2000, seed=9)
        a = run_coverage(ExperimentConfig(**base, workers=1))
        b = run_coverage(ExperimentConfig(**base, workers=4))
        assert a.coverage == b.coverage


class TestWorkerCount:
    """Results are bitwise the same with one worker process and with two."""

    @settings(max_examples=10, derandomize=True, deadline=None)
    @given(
        st.sampled_from(sorted(M)),
        st.integers(1, 200),
        st.integers(2, 8),
        st.integers(0, 2**32 - 1),
        st.lists(st.sampled_from(ESTIMATOR_CODES), min_size=1, max_size=3, unique=True),
    )
    def test_loss_and_coverage_independent_of_workers(self, name, n, reps, seed, codes):
        base = dict(model=M[name], reps=reps, estimators=tuple(codes), n=n, band_mc_reps=100, seed=seed)
        serial = ExperimentConfig(**base, workers=1)
        pooled = ExperimentConfig(**base, workers=2)
        np.testing.assert_array_equal(
            run_loss_experiment(serial).per_rep_losses, run_loss_experiment(pooled).per_rep_losses
        )
        a, b = run_coverage(serial), run_coverage(pooled)
        assert (a.coverage, a.coverage_se) == (b.coverage, b.coverage_se)


class TestQqSamples:
    def test_empirical_variance_near_multinomial(self):
        truth = pmf_truncate(M["M1"], 1e-12).probs
        cfg = ExperimentConfig(model=M["M1"], reps=500, estimators=("e",), n=1000, seed=10)
        res = run_qq_samples(cfg, coord=1)
        target = truth[1] * (1 - truth[1])
        assert res.qq_samples["e"].var(ddof=1) == pytest.approx(target, rel=0.2)

    def test_theoretical_quantiles_are_scaled_normal(self):
        cfg = ExperimentConfig(model=M["M2"], reps=50, estimators=("e", "sG"), n=200, seed=11)
        res = run_qq_samples(cfg, coord=1)
        normal_q = scipy.stats.norm.ppf((np.arange(50) + 0.5) / 50)
        for code in ("e", "sG"):
            theo = res.qq_theoretical[code]
            assert theo.shape == (50,)
            assert np.all(np.diff(theo) >= 0.0)
            want = float(res.qq_samples[code].std(ddof=1)) * normal_q
            np.testing.assert_array_equal(theo.view(np.int64), want.view(np.int64))

    # the QQ positions use scipy.special.ndtri, which must equal norm.ppf bit for bit
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.integers(1, 100_000))
    @example(1)
    @example(2)
    @example(3)
    @example(4097)
    @example(100_000)
    def test_normal_quantiles_are_bitwise_norm_ppf(self, reps):
        positions = (np.arange(reps) + 0.5) / reps
        got, want = ndtri(positions), scipy.stats.norm.ppf(positions)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_single_rep(self):
        cfg = ExperimentConfig(model=M["M4"], reps=1, estimators=("e",), n=50, seed=12)
        res = run_qq_samples(cfg, coord=0)
        assert res.qq_samples["e"].shape == (1,)

    def test_coordinate_must_be_in_support(self):
        cfg = ExperimentConfig(model=UniformRange(2), reps=2, estimators=("e",), n=10, seed=13)
        with pytest.raises(ValueError):
            run_qq_samples(cfg, coord=99)
