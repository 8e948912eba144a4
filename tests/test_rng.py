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
