"""Tests for the random-stream derivation."""

import numpy as np
import pytest

from stackpmf import ExperimentConfig, builtin_models, quantile_q_alpha, run_loss_experiment
from stackpmf.rng import substream, substream_seed


class TestSeedRange:
    @pytest.mark.parametrize("seed", [-1, 2**64], ids=["minus-1", "2p64"])
    def test_seeds_outside_64_bits_raise(self, seed):
        with pytest.raises(ValueError, match="seed must lie in"):
            substream(seed, "rep", 0)
        with pytest.raises(ValueError, match="seed must lie in"):
            substream_seed(seed, "rep", 0)

    def test_seeds_at_both_ends_give_distinct_streams(self):
        low, high = substream_seed(0, "rep", 0), substream_seed(2**64 - 1, "rep", 0)
        assert low != high
        assert substream(0).random() != substream(2**64 - 1).random()

    def test_experiment_and_quantile_with_a_negative_seed_raise(self):
        cfg = ExperimentConfig(model=builtin_models()["M1"], reps=2, n=10, seed=-1)
        with pytest.raises(ValueError, match="seed must lie in"):
            run_loss_experiment(cfg)
        with pytest.raises(ValueError, match="seed must lie in"):
            quantile_q_alpha(np.array([0.5, 0.5]), 0.05, 1000, seed=-5)


class TestSeedType:
    @pytest.mark.parametrize("seed", [1.9, True, np.float64(3)], ids=["float-1.9", "bool-true", "np-float64-3"])
    def test_float_and_bool_seeds_raise(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            substream(seed, "rep", 0)
        with pytest.raises(ValueError, match="seed must be an integer"):
            substream_seed(seed, "rep", 0)

    @pytest.mark.parametrize("part", [1.9, True, np.float64(3)], ids=["float-1.9", "bool-true", "np-float64-3"])
    def test_float_and_bool_path_parts_raise(self, part):
        with pytest.raises(ValueError, match="stream path parts must be an integer"):
            substream_seed(1, "rep", part)

    def test_numpy_unsigned_integer_seed_is_accepted(self):
        assert substream_seed(np.uint64(3), "rep", np.uint64(0)) == substream_seed(3, "rep", 0)
        assert substream(np.uint64(3)).random() == substream(3).random()

    def test_float_seed_of_an_experiment_and_a_quantile_raise(self):
        cfg = ExperimentConfig(model=builtin_models()["M1"], reps=2, n=10, seed=1.0)
        with pytest.raises(ValueError, match="seed must be an integer"):
            run_loss_experiment(cfg)
        with pytest.raises(ValueError, match="seed must be an integer"):
            quantile_q_alpha(np.array([0.5, 0.5]), 0.05, 1000, seed=7.5)
