"""Tests for the random-stream derivation."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import substream_seed
from stackpmf import ExperimentConfig, builtin_models, quantile_q_alpha, run_loss_experiment, rng
from stackpmf.rng import child_seeds, keyed_streams, substream

SEEDS = st.integers(0, 2**64 - 1)
#: ``(prefix, index)``: the replication, risk-grid and band paths.
PATHS = st.one_of(
    st.tuples(st.just(("rep",)), st.integers(0, 2**32 - 1)),
    st.tuples(st.integers(0, 2**32 - 1).map(lambda g: ("rep", g)), st.integers(0, 2**32 - 1)),
    st.tuples(st.just(("band",)), st.integers(0, 2**32 - 1)),
)


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


def _numpy_key(seed, *path):
    return substream(substream_seed(seed, *path)).bit_generator.state["state"]["key"]


class TestBlockDerivation:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(seed=SEEDS, path=PATHS, width=st.integers(1, 5))
    @example(seed=0, path=(("rep",), 0), width=1)
    @example(seed=2**32 - 1, path=(("rep", 2**32 - 1), 2**32 - 5), width=5)
    @example(seed=2**32, path=(("band",), 7), width=2)
    @example(seed=2**64 - 1, path=(("rep", 0), 2**20 - 1), width=3)
    def test_block_matches_numpy_seed_sequence(self, seed, path, width):
        prefix, first = path
        indices = range(first, min(first + width, 2**32))
        want_seeds = [substream_seed(seed, *prefix, i) for i in indices]
        assert child_seeds(seed, prefix, indices).tolist() == want_seeds
        for i, stream in zip(indices, keyed_streams(seed, prefix, indices)):
            np.testing.assert_array_equal(stream.bit_generator.state["state"]["key"], _numpy_key(seed, *prefix, i))

    @pytest.mark.parametrize("child", [0, 1, 2**31, 2**32 - 1, 2**32, 2**64 - 1])
    def test_pool_of_a_one_word_child_seed_is_its_two_word_pool(self, child):
        # numpy encodes a child seed below 2**32 (0 included) as one entropy
        # word; the block pass always gives it two, [lo, hi]
        words = [np.array([child & 0xFFFFFFFF], np.uint32), np.array([child >> 32], np.uint32)]
        pool = rng._pool(words)
        reference = np.random.SeedSequence(child)
        assert [int(word[0]) for word in pool] == reference.pool.tolist()
        key = [int(word[0]) for word in rng._pairs(rng._generate_state(pool, 4))]
        assert key == reference.generate_state(2, np.uint64).tolist()

    def test_rekeyed_streams_draw_what_fresh_streams_draw(self, monkeypatch):
        # sub-blocks of 3 indices; each stream leaves a half-used 32-bit
        # buffer behind, which the next key must clear
        monkeypatch.setattr(rng, "KEY_BLOCK", 3)
        indices = range(4, 12)
        for i, stream in zip(indices, keyed_streams(9, ("rep", 2), indices)):
            fresh = substream(substream_seed(9, "rep", 2, i))
            np.testing.assert_array_equal(stream.integers(0, 2**32, 3, dtype=np.uint32),
                                          fresh.integers(0, 2**32, 3, dtype=np.uint32))
            np.testing.assert_array_equal(stream.random(5), fresh.random(5))

    def test_indices_past_32_bits_and_bad_seeds_raise(self):
        with pytest.raises(ValueError, match="block indices"):
            child_seeds(0, ("rep",), [2**32])
        with pytest.raises(ValueError, match="block indices"):
            child_seeds(0, ("rep",), [-1])
        with pytest.raises(ValueError, match="seed must lie in"):
            child_seeds(2**64, ("rep",), [0])
        with pytest.raises(ValueError, match="seed must be an integer"):
            next(keyed_streams(1.5, ("rep",), range(2)))
