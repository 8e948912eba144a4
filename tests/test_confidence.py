"""Tests for the limit-process sampler, quantile estimation and the band."""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from oracles import reference_sup_norm
from stackpmf import confidence
from stackpmf import (
    InvalidPmfError,
    TriangularDecreasing,
    band,
    builtin_models,
    confidence_band,
    iter_limit_process,
    pmf_truncate,
    quantile_q_alpha,
    sample_sup_norm,
)
from stackpmf.confidence import MAX_QUANTILE_DRAWS, band_thresholds, quantile_reaches


class TestSampler:
    def test_point_mass_is_degenerate(self):
        draws = sample_sup_norm(np.array([1.0]), 500, seed=1)
        assert np.all(draws == 0.0)

    def test_two_point_distribution_matches_closed_form(self):
        # with theta = (1/2, 1/2) the two coordinates are opposite and the
        # sup norm is |N(0, 1/4)|
        draws = sample_sup_norm(np.array([0.5, 0.5]), 200_000, seed=2)
        grid = np.array([0.2, 0.5, 1.0])
        for t in grid:
            target = 2 * norm.cdf(t / 0.5) - 1
            assert np.mean(draws <= t) == pytest.approx(target, abs=5e-3)

    def test_covariance_matches_target(self):
        theta = pmf_truncate(builtin_models()["M1"], 1e-12).probs
        target = np.diag(theta) - np.outer(theta, theta)
        acc = np.zeros((theta.size, theta.size))
        total = 0
        for y in iter_limit_process(theta, 300_000, seed=3):
            acc += y.T @ y
            total += y.shape[0]
        assert np.max(np.abs(acc / total - target)) <= 5e-3

    def test_rejects_non_pmf(self):
        with pytest.raises(InvalidPmfError):
            sample_sup_norm(np.array([0.5, 0.2]), 100, seed=1)
        with pytest.raises(InvalidPmfError):
            sample_sup_norm(np.array([-0.2, 1.2]), 100, seed=1)

    def test_deterministic_given_seed(self):
        theta = np.array([0.3, 0.3, 0.4])
        a = sample_sup_norm(theta, 5000, seed=11)
        b = sample_sup_norm(theta, 5000, seed=11)
        np.testing.assert_array_equal(a, b)


#: Stacks of 1 to 3 pmfs on a common support of size 1 to 40, with zero
#: entries, built from integer weights that are not all zero.
pmf_stacks = st.integers(1, 40).flatmap(
    lambda d: st.lists(
        st.lists(st.integers(0, 4), min_size=d, max_size=d).filter(any), min_size=1, max_size=3
    )
).map(lambda rows: np.array([np.asarray(w, dtype=float) / sum(w) for w in rows]))


#: Stacks of 1 to 3 pmfs on a support of size 300 to 2000, about a third of
#: the entries zero. From D = 362 on, a row block holds at most D draws.
wide_pmf_stacks = st.tuples(st.integers(1, 3), st.integers(300, 2000), st.integers(0, 2**32 - 1)).map(
    lambda args: _random_stack(*args)
)


def _random_stack(rows: int, dim: int, seed: int) -> np.ndarray:
    weights = np.random.default_rng(seed).integers(0, 3, size=(rows, dim)).astype(float)
    weights[:, -1] += 1.0
    return weights / weights.sum(axis=1, keepdims=True)


class TestBlockedSampler:
    """Draws built in row blocks equal the whole-chunk reference bitwise."""

    @staticmethod
    def check_against_reference(stack, reps, seed):
        expected = reference_sup_norm(stack, reps, seed)
        np.testing.assert_array_equal(sample_sup_norm(stack, reps, seed), expected)
        k = min(max(math.ceil(0.95 * reps), 1), reps)
        np.testing.assert_array_equal(quantile_q_alpha(stack, 0.05, reps, seed), np.sort(expected)[:, k - 1])

    # D < 41, so a row block (up to 8192 draws) is longer than D; 8191 and
    # 8200 draws end on a short block, 8200 also on a short chunk
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(pmf_stacks, st.sampled_from((100, 8191, 8200)), st.integers(0, 2**32 - 1))
    def test_small_support_matches_reference(self, stack, reps, seed):
        self.check_against_reference(stack, reps, seed)

    # chunks of 1048 to 6990 draws and row blocks of 65 to 436
    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(wide_pmf_stacks, st.integers(100, 3000), st.integers(0, 2**32 - 1))
    def test_wide_support_matches_reference(self, stack, reps, seed):
        self.check_against_reference(stack, reps, seed)

    def test_vector_matches_reference(self):
        theta = pmf_truncate(TriangularDecreasing(5000), 1e-12).probs
        np.testing.assert_array_equal(sample_sup_norm(theta, 1000, 9), reference_sup_norm(theta, 1000, 9))

    @pytest.mark.parametrize("support, reps", [(5000, 1000), (100_000, 100)], ids=["D-5001", "D-100001"])
    def test_peak_memory_is_a_few_row_blocks(self, support, reps):
        # the sampler holds three row blocks of at most 2**17 doubles (one
        # row of D past that), the plug-in vector's roots, the draws and
        # their partition copy; the bound adds one D-vector and 1 MiB for
        # numpy and the stream, fixed before measuring. A whole chunk of
        # normals is 16.8 MB at D = 5001 and 51 MB at D = 100 001.
        theta = pmf_truncate(TriangularDecreasing(support), 1e-12).probs
        dim = theta.size
        block = max(1, 2**17 // dim) * dim * 8
        bound = 3 * block + 2 * dim * 8 + 2 * reps * 8 + 2**20
        tracemalloc.start()
        try:
            quantile_q_alpha(theta, 0.05, reps, seed=9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dim == support + 1
        assert peak < bound, (peak, bound)

    def test_draws_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # the centring sum is numpy's, not a BLAS dot product whose blocking
        # follows OPENBLAS_NUM_THREADS
        thetas = {
            "tri-dec-5000": (pmf_truncate(TriangularDecreasing(5000), 1e-12).probs, 1000, 9),
            "dirichlet-777": (np.random.default_rng(4).dirichlet(np.ones(777)), 5000, 3),
        }
        script = tmp_path / "draws.py"
        script.write_text(
            "import sys\n"
            "import numpy as np\n"
            "from stackpmf import sample_sup_norm\n"
            "theta, reps, seed = np.load(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])\n"
            "np.save(sys.argv[4], sample_sup_norm(theta, reps, seed))\n"
        )
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(sys.path)}
        for name, (theta, reps, seed) in thetas.items():
            np.save(tmp_path / f"{name}.npy", theta)
            args = [str(tmp_path / f"{name}.npy"), str(reps), str(seed), str(tmp_path / f"{name}-draws.npy")]
            subprocess.run([sys.executable, str(script), *args], env=env, check=True)
            single = np.load(tmp_path / f"{name}-draws.npy")
            np.testing.assert_array_equal(single, sample_sup_norm(theta, reps, seed), err_msg=name)


class TestStackedCenters:
    """A (c, D) stack shares one set of normals across its rows, and each row
    gets exactly the draws and quantile it would get on its own."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(pmf_stacks, st.sampled_from((100, 8191, 8200)), st.integers(0, 2**32 - 1))
    def test_rows_bitwise_equal_to_single_centers(self, stack, reps, seed):
        draws = sample_sup_norm(stack, reps, seed)
        quantiles = quantile_q_alpha(stack, 0.05, reps, seed)
        assert draws.shape == (len(stack), reps)
        assert quantiles.shape == (len(stack),)
        for i, theta in enumerate(stack):
            np.testing.assert_array_equal(draws[i], sample_sup_norm(theta, reps, seed))
            assert quantiles[i] == quantile_q_alpha(theta, 0.05, reps, seed)

    # D of 300 to 2000 and at least 1000 draws: blocks of 65 to 436 draws,
    # so every chunk spans several blocks
    @settings(max_examples=15, derandomize=True, deadline=None)
    @given(wide_pmf_stacks, st.integers(1000, 3000), st.integers(0, 2**32 - 1))
    def test_wide_rows_bitwise_equal_to_single_centers(self, stack, reps, seed):
        draws = sample_sup_norm(stack, reps, seed)
        for i, theta in enumerate(stack):
            np.testing.assert_array_equal(draws[i], sample_sup_norm(theta, reps, seed))

    def test_vector_keeps_its_return_types(self):
        theta = np.array([0.2, 0.3, 0.5])
        assert sample_sup_norm(theta, 150, seed=1).shape == (150,)
        assert type(quantile_q_alpha(theta, 0.05, 150, seed=1)) is float

    def test_rejects_a_bad_row(self):
        with pytest.raises(InvalidPmfError):
            quantile_q_alpha(np.array([[0.5, 0.5], [0.5, 0.2]]), 0.05, 1000, seed=1)
        with pytest.raises(InvalidPmfError):
            sample_sup_norm(np.array([[0.5, 0.5], [-0.2, 1.2]]), 100, seed=1)

    @pytest.mark.parametrize(
        "theta", [np.full((1, 2, 2), 0.5), np.empty((0, 3)), np.empty((2, 0))], ids=["3-d", "no-rows", "no-columns"]
    )
    def test_rejects_bad_shapes(self, theta):
        with pytest.raises(InvalidPmfError):
            sample_sup_norm(theta, 100, seed=1)


class TestQuantile:
    @pytest.mark.parametrize(
        "theta, reps, seed, expected",
        [
            (pmf_truncate(builtin_models()["M1"], 1e-12).probs, 20_000, 5, 0.7859891775031469),
            # D = 5001: chunks of 419 draws, the third one short
            (pmf_truncate(TriangularDecreasing(5000), 1e-12).probs, 1000, 9, 0.07830266644966465),
            # a short last chunk and a zero entry
            ([0.5, 0.5, 0.0], 8200, 1, 0.9781836950625433),
        ],
        ids=["M1", "tri-dec-5000", "zero-entry"],
    )
    def test_golden_values(self, theta, reps, seed, expected):
        # the exact bytes of the sampler: a change to the draws, their order
        # or the arithmetic that forms them moves these values
        assert quantile_q_alpha(theta, 0.05, reps, seed) == expected

    def test_degenerate(self):
        assert quantile_q_alpha(np.array([1.0]), 0.05, 1000, seed=1) == 0.0

    def test_two_point_closed_form(self):
        q = quantile_q_alpha(np.array([0.5, 0.5]), 0.05, 10**6, seed=4)
        assert q == pytest.approx(0.5 * norm.ppf(0.975), abs=5e-3)

    def test_reproducible(self):
        theta = pmf_truncate(builtin_models()["M1"], 1e-12).probs
        a = quantile_q_alpha(theta, 0.05, 20_000, seed=5)
        b = quantile_q_alpha(theta, 0.05, 20_000, seed=5)
        assert a == b

    def test_monotone_in_alpha(self):
        theta = np.array([0.25, 0.25, 0.25, 0.25])
        qs = [quantile_q_alpha(theta, alpha, 50_000, seed=6) for alpha in (0.01, 0.05, 0.2, 0.5)]
        assert all(qs[i] >= qs[i + 1] for i in range(len(qs) - 1))

    def test_stable_under_tiny_theta_perturbation(self):
        theta = pmf_truncate(builtin_models()["M2"], 1e-12).probs
        bumped = theta.copy()
        bumped[0] += 5e-7
        bumped[1] -= 5e-7
        a = quantile_q_alpha(theta, 0.05, 100_000, seed=7)
        b = quantile_q_alpha(bumped, 0.05, 100_000, seed=7)
        assert abs(a - b) <= 1e-3

    def test_requires_enough_draws(self):
        with pytest.raises(ValueError):
            quantile_q_alpha(np.array([0.5, 0.5]), 0.05, 10, seed=1)

    def test_draws_past_the_cap_rejected_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=str(MAX_QUANTILE_DRAWS)):
                quantile_q_alpha(np.array([0.5, 0.5]), 0.05, MAX_QUANTILE_DRAWS + 1, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestQuantileReaches:
    """Deciding ``q_hat >= t`` from a prefix of the draws gives the full
    quantile's answer."""

    @staticmethod
    def check_against_the_full_quantile(stack, reps, alpha, seed, randoms):
        q = quantile_q_alpha(stack, alpha, reps, seed)
        candidates = {
            "q_hat": q,
            "below": np.nextafter(q, -np.inf),
            "above": np.nextafter(q, np.inf),
            "zero": np.zeros_like(q),
            "random": np.array(randoms[: len(q)]),
        }
        for name, t in candidates.items():
            np.testing.assert_array_equal(quantile_reaches(stack, alpha, reps, seed, t), q >= t, err_msg=name)
        # rows that settle at different draws, each decided as on its own
        mixed = np.array([candidates[name][i] for i, name in enumerate(("below", "q_hat", "random")[: len(q)])])
        decided = quantile_reaches(stack, alpha, reps, seed, mixed)
        np.testing.assert_array_equal(decided, q >= mixed)
        for row, t, d in zip(stack, mixed, decided):
            assert quantile_reaches(row, alpha, reps, seed, t) is bool(d)

    # 1e-9 makes k = reps and 0.9999 makes k = 1 for every reps drawn here;
    # D <= 40 puts all the draws in one block
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        pmf_stacks,
        st.integers(100, 3000),
        st.sampled_from((1e-9, 0.05, 0.5, 0.9999)),
        st.integers(0, 2**32 - 1),
        st.lists(st.floats(0.0, 2.0), min_size=3, max_size=3),
    )
    def test_equals_the_full_quantile_decision(self, stack, reps, alpha, seed, randoms):
        self.check_against_the_full_quantile(stack, reps, alpha, seed, randoms)

    # blocks of 65 to 436 draws, so rows settle part way through the draws
    @settings(max_examples=15, derandomize=True, deadline=None)
    @given(
        wide_pmf_stacks,
        st.integers(100, 3000),
        st.sampled_from((1e-9, 0.05, 0.5, 0.9999)),
        st.integers(0, 2**32 - 1),
        st.lists(st.floats(0.0, 0.2), min_size=3, max_size=3),
    )
    def test_equals_the_full_quantile_decision_across_blocks(self, stack, reps, alpha, seed, randoms):
        self.check_against_the_full_quantile(stack, reps, alpha, seed, randoms)

    def test_stops_once_every_row_is_settled(self, monkeypatch):
        # with t = 0 every draw reaches t, so a row is settled after
        # reps - k + 1 draws: one block of 8192 draws instead of 13 chunks
        opened = []
        real = confidence.substream

        def counted(*args):
            opened.append(args)
            return real(*args)

        monkeypatch.setattr(confidence, "substream", counted)
        theta = pmf_truncate(builtin_models()["M1"], 1e-12).probs
        assert quantile_reaches(np.array([theta, theta]), 0.05, 100_000, 3, [0.0, 0.0]).tolist() == [True, True]
        assert len(opened) == 1

    def test_vector_gives_a_bool(self):
        assert quantile_reaches(np.array([0.5, 0.5]), 0.05, 100, 1, 0.0) is True
        assert quantile_reaches(np.array([0.5, 0.5]), 0.05, 100, 1, math.inf) is False

    def test_rejects_what_the_quantile_rejects(self):
        with pytest.raises(ValueError, match="alpha"):
            quantile_reaches(np.array([0.5, 0.5]), 1.5, 1000, 1, 0.1)
        with pytest.raises(ValueError, match="draws"):
            quantile_reaches(np.array([0.5, 0.5]), 0.05, 10, 1, 0.1)
        with pytest.raises(InvalidPmfError):
            quantile_reaches(np.array([[0.5, 0.5], [0.5, 0.2]]), 0.05, 1000, 1, [0.1, 0.1])


class TestBandThresholds:
    """``band(c, n, q)`` covers the truth exactly when ``q`` reaches the threshold."""

    @staticmethod
    def covers(center, n, q, truth):
        padded = np.zeros(max(center.size, truth.size))
        padded[: center.size] = center
        cb = band(padded, n, q)
        return bool(np.all(cb.lower[: truth.size] <= truth) and np.all(truth <= cb.upper[: truth.size]))

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(pmf_stacks, pmf_stacks, st.integers(1, 10**7))
    def test_threshold_is_the_first_covering_quantile(self, centers, truths, n):
        truth = truths[0]
        thresholds = band_thresholds(centers, n, truth)
        assert thresholds.shape == (len(centers),)
        for center, t in zip(centers, thresholds):
            assert math.isfinite(t) and t >= 0.0
            assert self.covers(center, n, t, truth)
            assert self.covers(center, n, np.nextafter(t, np.inf), truth)
            if t > 0.0:
                assert not self.covers(center, n, np.nextafter(t, -np.inf), truth)

    def test_center_on_the_truth_needs_no_width(self):
        truth = pmf_truncate(builtin_models()["M1"], 1e-12).probs
        assert band_thresholds(truth[None, :], 1000, truth).tolist() == [0.0]

    def test_leading_axes_are_independent(self):
        rng = np.random.default_rng(4)
        truth = rng.dirichlet(np.ones(9))
        centers = rng.dirichlet(np.ones(7), size=(5, 3))
        stacked = band_thresholds(centers, 300, truth)
        assert stacked.shape == (5, 3)
        for index in np.ndindex(5, 3):
            assert stacked[index] == band_thresholds(centers[index], 300, truth)


class TestBand:
    def test_arithmetic(self):
        cb = band(np.array([0.5, 0.5]), 100, 0.1)
        np.testing.assert_allclose(cb.lower, [0.49, 0.49])
        np.testing.assert_allclose(cb.upper, [0.51, 0.51])

    def test_clamps_below_only(self):
        cb = band(np.array([0.01, 0.99]), 100, 0.5)
        np.testing.assert_allclose(cb.lower, [0.0, 0.94])
        np.testing.assert_allclose(cb.upper, [0.06, 1.04])

    def test_zero_quantile_collapses(self):
        cb = band(np.array([0.3, 0.7]), 25, 0.0)
        np.testing.assert_allclose(cb.lower, cb.upper)

    def test_width_bound_and_order(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            c = rng.dirichlet(np.ones(6))
            q = float(rng.uniform(0.0, 2.0))
            n = int(rng.integers(1, 10_000))
            cb = band(c, n, q)
            assert np.all(cb.lower <= cb.upper)
            assert np.all(cb.lower >= 0.0)
            assert np.all(cb.upper - cb.lower <= 2 * q / np.sqrt(n) + 1e-15)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            band(np.array([0.5, 0.5]), 100, -0.1)
        with pytest.raises(ValueError):
            band(np.array([0.5, 0.5]), 0, 0.1)
        with pytest.raises(ValueError):
            quantile_q_alpha(np.array([0.5, 0.5]), 1.5, 1000, seed=1)
        with pytest.raises(ValueError):
            sample_sup_norm(np.array([0.5, 0.5]), 0, seed=1)

    @pytest.mark.parametrize("q_hat", [math.nan, math.inf, np.float64("nan")], ids=["nan", "inf", "numpy-nan"])
    def test_rejects_a_non_finite_quantile(self, q_hat):
        with pytest.raises(ValueError, match="quantile"):
            band(np.array([0.5, 0.5]), 100, q_hat)

    @pytest.mark.parametrize("n", [10.5, 10.0, True, "10"], ids=["fraction", "integral-float", "bool", "str"])
    def test_rejects_a_non_integer_sample_size(self, n):
        with pytest.raises(ValueError, match="sample size"):
            band(np.array([0.5, 0.5]), n, 0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_center(self, bad):
        with pytest.raises(InvalidPmfError):
            band(np.array([0.5, bad]), 100, 0.1)

    def test_accepts_a_numpy_integer_sample_size(self):
        a = band(np.array([0.5, 0.5]), np.int64(100), 0.1)
        b = band(np.array([0.5, 0.5]), 100, 0.1)
        np.testing.assert_array_equal(a.lower, b.lower)
        np.testing.assert_array_equal(a.upper, b.upper)

    def test_one_shot_helper_matches_two_steps(self):
        theta = pmf_truncate(builtin_models()["M1"], 1e-12)
        q = quantile_q_alpha(theta, 0.1, 20_000, seed=9)
        two_step = band(theta, 400, q)
        one_shot = confidence_band(theta, 400, 0.1, 20_000, seed=9)
        assert one_shot.q_hat == two_step.q_hat
        np.testing.assert_array_equal(one_shot.lower, two_step.lower)
        np.testing.assert_array_equal(one_shot.upper, two_step.upper)
