"""Tests for the isotonic projection and the decreasing rearrangement."""

import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings

from oracles import brute_force_isotonic_decreasing, counts_vectors, maximum_upper_sets, scipy_isotonic_decreasing
from stackpmf import EmptyInputError, isotonic_decreasing, rearrange_decreasing, shape


class TestIsotonicDecreasing:
    def test_already_decreasing_is_identity(self):
        fitted, blocks = isotonic_decreasing([5.0, 3.0, 1.0])
        np.testing.assert_array_equal(fitted, [5.0, 3.0, 1.0])
        np.testing.assert_array_equal(blocks.boundaries, [0, 1, 2])

    def test_single_violation_pools_to_mean(self):
        fitted, _ = isotonic_decreasing([1.0, 3.0, 2.0])
        np.testing.assert_allclose(fitted, [2.0, 2.0, 2.0])

    def test_trailing_violation(self):
        fitted, _ = isotonic_decreasing([3.0, 1.0, 2.0])
        np.testing.assert_allclose(fitted, [3.0, 1.5, 1.5])

    def test_constant_vector_is_one_block(self):
        fitted, blocks = isotonic_decreasing([0.1] * 5)
        np.testing.assert_allclose(fitted, [0.1] * 5)
        assert len(blocks) == 1

    def test_empty_input_raises(self):
        with pytest.raises(EmptyInputError):
            isotonic_decreasing([])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            isotonic_decreasing([1.0, np.nan])

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            v = rng.normal(size=rng.integers(1, 9))
            fitted, _ = isotonic_decreasing(v)
            oracle = brute_force_isotonic_decreasing(v)
            np.testing.assert_allclose(fitted, oracle, atol=1e-10)

    def test_matches_repeated_argmax_scan(self):
        rng = np.random.default_rng(202)
        for _ in range(40):
            v = rng.normal(size=rng.integers(1, 120))
            fitted, _ = isotonic_decreasing(v)
            np.testing.assert_allclose(fitted, maximum_upper_sets(v), atol=1e-10)

    def test_sum_preserved(self):
        rng = np.random.default_rng(303)
        for size in (10, 1000, 10_000):
            v = rng.normal(size=size)
            fitted, _ = isotonic_decreasing(v)
            scale = max(1.0, float(np.sum(np.abs(v))))
            assert abs(fitted.sum() - v.sum()) <= 1e-12 * scale

    def test_bounds_preserved(self):
        rng = np.random.default_rng(404)
        for _ in range(50):
            v = rng.normal(size=rng.integers(1, 60))
            fitted, _ = isotonic_decreasing(v)
            assert fitted.min() >= v.min() - 1e-12
            assert fitted.max() <= v.max() + 1e-12

    def test_positive_scale_equivariant(self):
        rng = np.random.default_rng(505)
        for _ in range(50):
            v = rng.normal(size=rng.integers(1, 60))
            a = float(rng.uniform(0.01, 100.0))
            scaled, _ = isotonic_decreasing(a * v)
            fitted, _ = isotonic_decreasing(v)
            np.testing.assert_allclose(scaled, a * fitted, rtol=1e-12, atol=1e-12)

    def test_closer_than_input_to_any_feasible_vector(self):
        rng = np.random.default_rng(606)
        for _ in range(50):
            size = int(rng.integers(1, 40))
            v = rng.normal(size=size)
            g = np.sort(rng.normal(size=size))[::-1]
            fitted, _ = isotonic_decreasing(v)
            assert np.linalg.norm(fitted - g) <= np.linalg.norm(v - g) + 1e-12

    def test_block_structure_invariants(self):
        rng = np.random.default_rng(707)
        for _ in range(100):
            v = rng.normal(size=rng.integers(1, 80))
            fitted, blocks = isotonic_decreasing(v)
            assert blocks.boundaries[-1] == v.size - 1
            assert np.all(np.diff(blocks.boundaries) > 0)
            assert np.all(np.diff(blocks.levels) < 0)
            start = 0
            for end, level in zip(blocks.boundaries, blocks.levels):
                seg = v[start : end + 1]
                assert abs(seg.mean() - level) <= 1e-10
                np.testing.assert_allclose(fitted[start : end + 1], level)
                start = end + 1

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(counts_vectors)
    def test_tied_frequencies_match_oracles_with_maximal_blocks(self, counts):
        v = counts / counts.sum()
        fitted, blocks = isotonic_decreasing(v)
        if v.size <= 10:
            np.testing.assert_allclose(fitted, brute_force_isotonic_decreasing(v), rtol=0, atol=1e-12)
        np.testing.assert_allclose(fitted, maximum_upper_sets(v), rtol=0, atol=1e-12)
        assert np.all(np.diff(blocks.levels) < 0)
        changes = np.flatnonzero(np.diff(fitted) != 0)
        np.testing.assert_array_equal(blocks.boundaries, np.append(changes, v.size - 1))

    def test_near_linear_runtime_growth(self):
        # quadratic growth from 1e4 to 1e6 entries would blow past this ratio
        rng = np.random.default_rng(808)
        small = rng.normal(size=10_000)
        large = rng.normal(size=1_000_000)
        t0 = time.perf_counter()
        isotonic_decreasing(small)
        t_small = time.perf_counter() - t0
        t0 = time.perf_counter()
        isotonic_decreasing(large)
        t_large = time.perf_counter() - t0
        assert t_large < max(t_small, 1e-3) * 1500


class TestFloatPoolRounds:
    """The pool rounds on float input: each fit is SciPy's within ``1e-12 max|v|``."""

    @staticmethod
    def check(v):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fitted, blocks = isotonic_decreasing(v)
        tol = 1e-12 * np.max(np.abs(v))
        np.testing.assert_allclose(fitted, scipy_isotonic_decreasing(v), rtol=0, atol=tol)
        return blocks

    def test_cascade_falls_back_to_the_hull_once(self, monkeypatch):
        # pooling 2000 .. 1 into the last entry takes 2001 rounds
        v = np.append(np.arange(2000, 0, -1), 1e7) / 1e8
        hull, built = shape._hull_vertices, []
        monkeypatch.setattr(shape, "_hull_vertices", lambda cum: built.append(len(cum)) or hull(cum))
        self.check(v)
        assert built == [v.size + 1]

    @pytest.mark.parametrize("v", [
        pytest.param(1e300 * np.random.default_rng(1010).normal(size=200_001), id="noise"),
        # two rising runs pool in the second round, where the first run's
        # sum times the second's width is about 1.5e310 unscaled
        pytest.param(1e300 * np.append(np.linspace(1, 2, 100_000), np.linspace(1.9, 4, 100_001)), id="two-runs"),
    ])
    def test_huge_entries_do_not_overflow(self, v):
        # the rounds' cross products of sums and widths reach D**2 max|v|
        self.check(v)

    def test_block_sums_past_the_float_maximum_give_finite_levels(self):
        # one block whose sum is about 3e308 * 200_001 unscaled
        v = np.linspace(1e303, 2e303, 200_001)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fitted, blocks = isotonic_decreasing(v)
        assert len(blocks) == 1
        np.testing.assert_allclose(fitted, np.mean(v / 4) * 4, rtol=1e-12)

    def test_levels_from_scaled_input_keep_exact_blocks(self):
        v = np.append(np.full(10, 1.5e308), np.full(10, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fitted, blocks = isotonic_decreasing(v)
        assert fitted.tobytes() == v.tobytes()
        assert len(blocks) == 2

    def test_tiny_entries_keep_their_blocks(self):
        # scaling every input down to max|v| <= 1 would flush the two tiny levels together
        assert len(self.check(np.array([1e300, 2e-300, 1e-300]))) == 3


class TestRearrangeDecreasing:
    def test_already_sorted(self):
        np.testing.assert_array_equal(rearrange_decreasing([0.5, 0.3, 0.2]), [0.5, 0.3, 0.2])

    def test_sorts_descending(self):
        np.testing.assert_array_equal(rearrange_decreasing([0.2, 0.5, 0.3]), [0.5, 0.3, 0.2])

    def test_ties(self):
        np.testing.assert_array_equal(rearrange_decreasing([0.25, 0.25, 0.5]), [0.5, 0.25, 0.25])

    def test_empty_input_raises(self):
        with pytest.raises(EmptyInputError):
            rearrange_decreasing([])

    def test_is_a_nonincreasing_permutation(self):
        rng = np.random.default_rng(909)
        for _ in range(200):
            v = rng.normal(size=rng.integers(1, 60))
            out = rearrange_decreasing(v)
            assert np.all(np.diff(out) <= 0)
            np.testing.assert_array_equal(np.sort(out), np.sort(v))
