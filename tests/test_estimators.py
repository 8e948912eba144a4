"""Tests for the point estimators, leave-one-out machinery and mixture weight."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    counts_vectors,
    exact_block_starts,
    exact_loo_grenander,
    loo_vectors,
    random_frequency_data,
    reference_loo_rearrangement,
    shape_transform,
    staircase,
    staircase_vectors,
)
from stackpmf import (
    GRENANDER,
    KINDS,
    REARRANGEMENT,
    FrequencyData,
    InsufficientSampleError,
    cv_beta,
    empirical,
    grenander,
    lk_distance,
    lk_distances,
    loo_vectors_fast,
    minimax,
    pmf_truncate,
    rearrangement,
    sample,
    stacked,
)
from stackpmf import estimators as est
from stackpmf import shape
from stackpmf.estimators import NORMS, loo_stacks
from stackpmf.models import MAX_COUNT, Geometric, TriangularDecreasing, builtin_models
from stackpmf.shape import block_means

#: The hull on Python ints, kept before any test counts its calls.
HULL_VERTICES = shape._hull_vertices

#: Nonincreasing truths: M1-M4, tri-dec:s and geom:theta.
DECREASING_TRUTHS = st.one_of(
    st.sampled_from([builtin_models()[name] for name in ("M1", "M2", "M3", "M4")]),
    st.integers(0, 200).map(TriangularDecreasing),
    st.floats(0.01, 0.95).map(Geometric),
)


def fd(*counts) -> FrequencyData:
    return FrequencyData(np.asarray(counts, dtype=np.int64))


class TestPlainEstimators:
    def test_empirical(self):
        np.testing.assert_allclose(empirical(fd(2, 1, 1)).probs, [0.5, 0.25, 0.25])
        np.testing.assert_allclose(empirical(fd(5)).probs, [1.0])
        np.testing.assert_allclose(empirical(fd(1, 2)).probs, [1 / 3, 2 / 3])

    def test_rearrangement(self):
        np.testing.assert_allclose(rearrangement(fd(1, 2)).probs, [2 / 3, 1 / 3])
        np.testing.assert_allclose(rearrangement(fd(2, 2)).probs, [0.5, 0.5])
        np.testing.assert_allclose(rearrangement(fd(1, 3, 2)).probs, [0.5, 1 / 3, 1 / 6])

    def test_grenander(self):
        np.testing.assert_allclose(grenander(fd(3, 2, 1)).probs, [0.5, 1 / 3, 1 / 6])
        np.testing.assert_allclose(grenander(fd(1, 3, 2)).probs, [1 / 3, 1 / 3, 1 / 3])
        np.testing.assert_allclose(grenander(fd(1, 2)).probs, [0.5, 0.5])

    def test_minimax(self):
        np.testing.assert_allclose(minimax(fd(2, 2)).probs, [0.5, 0.5])
        np.testing.assert_allclose(minimax(fd(3, 1)).probs, [2 / 3, 1 / 3])
        for k in (1, 4, 9):
            np.testing.assert_allclose(minimax(fd(k)).probs, [1.0])

    def test_all_return_probability_vectors(self):
        rng = np.random.default_rng(11)
        fits = (empirical, rearrangement, grenander, minimax)
        for _ in range(400):
            x = random_frequency_data(rng)
            for fit in fits:
                probs = fit(x).probs
                assert np.all(probs >= 0.0) and np.all(probs <= 1.0)
                assert probs.sum() == pytest.approx(1.0, abs=1e-12)
            for kind in KINDS:
                probs = stacked(x, kind).estimate.probs
                assert np.all(probs >= 0.0) and np.all(probs <= 1.0)
                assert probs.sum() == pytest.approx(1.0, abs=1e-12)


class TestLooVectors:
    def test_grenander_example(self):
        loo = loo_vectors(fd(1, 2), GRENANDER)
        np.testing.assert_allclose(loo.pi, [0.0, 0.5])
        np.testing.assert_allclose(loo.shape_loo, [0.5, 0.5])

    def test_rearrangement_example(self):
        loo = loo_vectors(fd(1, 2), REARRANGEMENT)
        np.testing.assert_allclose(loo.pi, [0.0, 0.5])
        np.testing.assert_allclose(loo.shape_loo, [1.0, 0.5])

    def test_zero_count_indices_stay_zero(self):
        for kind in KINDS:
            loo = loo_vectors(fd(0, 2, 1), kind)
            assert loo.pi[0] == 0.0
            assert loo.shape_loo[0] == 0.0

    def test_single_observation_rejected(self):
        for fn in (loo_vectors, loo_vectors_fast):
            with pytest.raises(InsufficientSampleError):
                fn(fd(1), GRENANDER)

    def test_fast_equals_reference(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            x = random_frequency_data(rng, max_len=200, max_n=5000)
            for kind in KINDS:
                slow = loo_vectors(x, kind)
                fast = loo_vectors_fast(x, kind)
                np.testing.assert_allclose(fast.pi, slow.pi, atol=1e-12)
                np.testing.assert_allclose(fast.shape_loo, slow.shape_loo, atol=1e-12)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(counts_vectors)
    def test_fast_equals_reference_on_zeros_and_ties(self, counts):
        x = FrequencyData(counts)
        for kind in KINDS:
            if x.n < 2:
                for fn in (loo_vectors, loo_vectors_fast):
                    with pytest.raises(InsufficientSampleError):
                        fn(x, kind)
                continue
            slow = loo_vectors(x, kind)
            fast = loo_vectors_fast(x, kind)
            np.testing.assert_allclose(fast.pi, slow.pi, rtol=0, atol=1e-12)
            np.testing.assert_allclose(fast.shape_loo, slow.shape_loo, rtol=0, atol=1e-12)

    def test_fast_equals_reference_long_vectors(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            counts = rng.integers(0, 5, size=500)
            counts[-1] = max(counts[-1], 1)
            x = FrequencyData(counts.astype(np.int64))
            for kind in KINDS:
                slow = loo_vectors(x, kind)
                fast = loo_vectors_fast(x, kind)
                np.testing.assert_allclose(fast.shape_loo, slow.shape_loo, atol=1e-12)

    @staticmethod
    def check_grenander_is_exact(counts):
        x = FrequencyData(counts)
        assume(x.n >= 2)
        exact = np.array([float(v) for v in exact_loo_grenander(counts)])
        assert loo_vectors_fast(x, GRENANDER).shape_loo.tobytes() == exact.tobytes()

    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(counts_vectors)
    def test_grenander_is_correctly_rounded_exact_value(self, counts):
        self.check_grenander_is_exact(counts)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(staircase_vectors)
    def test_grenander_is_correctly_rounded_exact_value_on_staircases(self, counts):
        self.check_grenander_is_exact(counts)

    def test_grenander_peak_memory(self):
        # O(D) int64 and float arrays of the tangent search (2.1 MB here);
        # the bound was fixed against 10.4 MB with one persistent hull per
        # suffix plus binary-lifting tables
        x = FrequencyData(np.arange(1, 50002, dtype=np.int64))
        tracemalloc.start()
        try:
            loo_vectors_fast(x, GRENANDER)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6, peak

    def test_leave_one_out_inequalities(self):
        # pi never exceeds the empirical estimate; the shape columns never
        # exceed n/(n-1) times their full-sample counterparts
        rng = np.random.default_rng(37)
        for _ in range(500):
            x = random_frequency_data(rng)
            base = empirical(x).probs
            scale = x.n / (x.n - 1)
            for kind, full in ((GRENANDER, grenander(x).probs), (REARRANGEMENT, rearrangement(x).probs)):
                loo = loo_vectors_fast(x, kind)
                assert np.all(loo.pi <= base + 1e-15)
                assert np.all(loo.shape_loo <= scale * full + 1e-12)


#: Falling counts 120 .. 1 and then 10**4: pooling reaches one more block
#: per round.
CASCADE = np.append(np.arange(120, 0, -1), 10**4)


def _equal_total_stack(seed: int, rows: int, d: int, top: int) -> np.ndarray:
    """``rows`` permutations of one random count vector with entries up to
    ``top`` (and 2 more at one index), each then reshuffled by ``d`` random
    transfers of mass between cells, so every row has one total n >= 2."""
    rng = np.random.default_rng(seed)
    base = rng.integers(0, top, d, endpoint=True)
    base[rng.integers(d)] += 2
    return _reshuffled_permutations(rng, base, rows)


def _reshuffled_permutations(rng, base: np.ndarray, rows: int) -> np.ndarray:
    """``rows`` permutations of ``base``, each then reshuffled by ``len(base)``
    random transfers of mass between cells, so all keep its total."""
    d = base.size
    stack = np.array([rng.permutation(base) for _ in range(rows)])
    for row in stack:
        for i, j in rng.integers(d, size=(d, 2)):
            amount = rng.integers(0, row[i], endpoint=True)
            row[i] -= amount
            row[j] += amount
    return stack


@st.composite
def _loo_stacks_cases(draw):
    d = draw(st.one_of(st.integers(1, 8), st.integers(61, 67), st.integers(65, 400)))
    rows = draw(st.integers(1, 40 if d <= 67 else 3))
    return _equal_total_stack(draw(st.integers(0, 2**32 - 1)), rows, d, draw(st.sampled_from([3, 2**30, 2**40])))


#: Stacks whose length D is small, 61-67 (1-40 rows) or up to 400 (1-3
#: rows, where the exact oracle is slow), with tie-heavy counts (0-3) or
#: large ones (up to 2**30, or up to 2**40, which from D of about 128 pushes
#: (D + 1) n past 2**53, so the values are taken on Python ints).
loo_stacks_cases = _loo_stacks_cases()


def _stack_totalling(seed: int, rows: int, d: int, n: int, even: bool) -> np.ndarray:
    """A reshuffled stack of ``rows`` rows of length ``d`` with total ``n``,
    from a vector split evenly (ties) or at random cut points."""
    rng = np.random.default_rng(seed)
    if even:
        base = np.full(d, n // d, dtype=np.int64)
        base[rng.integers(d)] += n % d
    else:
        cuts = np.sort(rng.integers(0, n, d - 1, endpoint=True, dtype=np.int64))
        base = np.diff(cuts, prepend=0, append=n)
    return _reshuffled_permutations(rng, base, rows)


@st.composite
def stacks_past_int64_offsets(draw):
    """Stacks of 2-40 rows whose total n <= MAX_COUNT has ``rows (n + 2) >=
    2**63``: offsetting each row by ``b (n + 2)`` would leave int64."""
    rows = draw(st.integers(2, 40))
    n = draw(st.integers(-(-(2**63) // rows) - 2, MAX_COUNT))
    return _stack_totalling(draw(st.integers(0, 2**32 - 1)), rows, draw(st.integers(1, 39)), n, draw(st.booleans()))


def _vertex_row(inc: np.ndarray) -> np.ndarray:
    """Strictly falling counts with the falls ``inc``: every point is a
    majorant vertex. Their total is the sum of ``(k + 1) inc[k]``."""
    return np.cumsum(inc[::-1])[::-1]


@st.composite
def mixed_row_stacks(draw, past: bool):
    """Stacks of 2-8 rows of length D in 65-400 with one total n, each row
    one of: strictly falling counts (every point a vertex, from one set of
    falls moved about without changing n), a rising or flat row (a single
    block), and ties (n / D, with whole cells moved onto others). The falls
    lie in [1, 2**20], which keeps (D + 1) n below 2**53, or in [2**43,
    2**44], which puts it past."""
    d = draw(st.integers(65, 400))
    kinds = draw(st.lists(st.sampled_from(["vertices", "one-block", "ties"]), min_size=2, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inc = rng.integers(2**43, 2**44, d, endpoint=True) if past else rng.integers(1, 2**20, d, endpoint=True)
    ramp = _vertex_row(inc)
    n = int(ramp.sum())
    q, r = divmod(n, d)
    rows = []
    for kind in kinds:
        if kind == "vertices":
            falls = inc.copy()
            for k in rng.integers(1, d - 1, size=d):
                if falls[k] >= 3:  # one unit each to k - 1 and k + 1 keeps the total
                    falls[k] -= 2
                    falls[k - 1] += 1
                    falls[k + 1] += 1
            rows.append(_vertex_row(falls))
        elif kind == "one-block":
            rows.append(ramp[::-1] if rng.integers(2) else np.append(np.full(d - 1, q), q + r))
        else:
            row = np.full(d, q)
            row[rng.choice(d, r, replace=False)] += 1
            for i, j in rng.integers(d, size=(d // 4, 2)):
                moved, row[i] = row[i], 0
                row[j] += moved
            rows.append(row)
    return np.array(rows, dtype=np.int64)


class TestLooStacks:
    @staticmethod
    def check_rows(stack):
        n = int(stack[0].sum())
        pi_g, grenander_loo = loo_stacks(stack, n, GRENANDER)
        pi_r, rearranged_loo = loo_stacks(stack, n, REARRANGEMENT)
        for b, row in enumerate(stack):
            exact = np.array([float(v) for v in exact_loo_grenander(row)])
            assert grenander_loo[b].tobytes() == exact.tobytes(), b
            assert rearranged_loo[b].tobytes() == reference_loo_rearrangement(row, n).tobytes(), b
            pi = np.zeros(row.size)
            pi[row > 0] = (row[row > 0] - 1) / (n - 1)
            assert pi_g[b].tobytes() == pi_r[b].tobytes() == pi.tobytes(), b

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(loo_stacks_cases)
    def test_rows_are_bitwise_the_references(self, stack):
        self.check_rows(stack)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(stacks_past_int64_offsets())
    def test_rows_past_int64_offsets_are_bitwise_the_references(self, stack):
        self.check_rows(stack)

    def test_one_point(self):
        self.check_rows(np.array([[5], [5]]))

    def test_all_mass_at_one_point_next_to_zeros_and_ones(self):
        # the lowered copy is the only one, the last of several, or ties with
        # the next sorted value after lowering (1 next to 0)
        self.check_rows(np.array([[0, 3, 0], [3, 0, 0], [1, 1, 1], [0, 0, 3], [2, 0, 1]]))

    def test_past_exact_floats_the_values_stay_exact(self):
        # (D + 1) n = 4 (2**52 + 8) > 2**53: float slopes could round
        self.check_rows(np.array([[2**51, 7, 2**51 + 1], [2**51 + 1, 2**51, 7], [7, 2**51 + 1, 2**51]]))

    @pytest.mark.parametrize("row", [
        pytest.param(staircase([(1, 8)] * 9 + [(2, 5)] * 4, 30, 2), id="staircase"),
        pytest.param(staircase([(0, 7), (1, 60), (1, 3), (2, 70)], 70, 1), id="staircase-long-steps"),
        pytest.param(np.arange(1, 201), id="single-block-increasing"),
        pytest.param(np.full(150, 3), id="single-block-flat"),
        pytest.param(np.arange(300, 0, -1), id="every-point-a-vertex"),
        pytest.param(np.arange(200, 0, -1) ** 2, id="every-point-a-vertex-convex-counts"),
    ])
    def test_wide_rows_of_known_shape_are_exact(self, row):
        self.check_rows(np.array([row, row[::-1]], dtype=np.int64))

    def test_cascading_pool_rounds_fall_back_to_the_hull(self, monkeypatch):
        # the last count pools with one more block per round, so the rounds
        # run out of work long before the 120 they would need; only that row
        # takes the hull
        built = []
        monkeypatch.setattr(shape, "_hull_vertices", lambda cum: built.append(len(cum)) or HULL_VERTICES(cum))
        self.check_rows(np.array([CASCADE, CASCADE[::-1], np.sort(CASCADE)]))
        assert built == [CASCADE.size + 1]

    @pytest.mark.parametrize("blocks", ["one-block", "singletons"])
    def test_wrong_pava_partition_falls_back_to_the_hull(self, blocks, monkeypatch):
        # rounds cut off after the first leave a partition that still pools:
        # a rising run as one block below the next block's mean, or falling
        # singletons before a large last count; the falling sort of the same
        # counts is final after one round and keeps its blocks
        if blocks == "one-block":
            row = np.concatenate([np.arange(1, 81), [40, 500]])
        else:
            row = np.append(np.arange(80, 0, -1), 500)
        built = []
        monkeypatch.setattr(shape, "POOL_WORK_PER_CELL", 1)
        monkeypatch.setattr(shape, "_hull_vertices", lambda cum: built.append(len(cum)) or HULL_VERTICES(cum))
        self.check_rows(np.array([row, np.sort(row)[::-1]]))
        assert built == [row.size + 1]

    @pytest.mark.parametrize("d, n, past", [
        (127, 2**46, 0),  # (D + 1) n = 2**53: the last int64 stack
        (106, 3 * 28059810762433, 1),  # (D + 1) n = 2**53 + 1: the first on Python ints
    ], ids=["at-2p53", "past-2p53"])
    def test_vectorized_pass_runs_up_to_the_exact_float_guard(self, d, n, past):
        assert (d + 1) * n - 2**53 == past
        for even in (False, True):
            self.check_rows(_stack_totalling(17, 2, d, n, even))

    @pytest.mark.parametrize("past", [False, True], ids=["below-2p53", "past-2p53"])
    @settings(max_examples=15, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_mixed_rows_are_bitwise_exact(self, past, data):
        # neighbouring rows whose searches would run furthest into the next
        # row if they could: every point a vertex, one block, and ties
        stack = data.draw(mixed_row_stacks(past))
        assert ((stack.shape[1] + 1) * int(stack[0].sum()) > 2**53) == past
        self.check_rows(stack)

    def test_vectorized_peak_memory_on_decreasing_counts(self):
        # every point is a majorant vertex, so the binary searches run over
        # D + 1 vertices for D points at once; the bound was fixed before
        # measuring 5.7 MB here
        x = FrequencyData(np.arange(50001, 0, -1, dtype=np.int64))
        tracemalloc.start()
        try:
            loo_vectors_fast(x, GRENANDER)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6, peak

    def test_python_int_peak_memory_on_decreasing_counts(self):
        # (D + 1) n is about 2**66, so the cumulative counts, the search's
        # cross products and the quotients are Python ints; the bound was
        # fixed before measuring 16.1 MB here
        x = FrequencyData(np.arange(50001, 0, -1, dtype=np.int64) * 2**20)
        tracemalloc.start()
        try:
            loo_vectors_fast(x, GRENANDER)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6, peak

    @pytest.mark.parametrize("n", [2**62 - 3, MAX_COUNT], ids=["total-2p62-minus-3", "total-max-count"])
    def test_rearrangement_at_totals_near_max_count(self, n):
        # two rows whose counts n/2, 1 and n - n/2 - 1 sit near the top of int64
        half = n // 2
        stack = np.array([[half, 1, n - half - 1], [n - half - 1, half, 1]], dtype=np.int64)
        _, got = loo_stacks(stack, n, REARRANGEMENT)
        for row, values in zip(stack, got):
            assert values.tobytes() == reference_loo_rearrangement(row, n).tobytes()

    def test_dense_peak_memory_does_not_grow_with_rows(self):
        # the O(B D) arrays of the flat search over a (1000, 64) stack take
        # 4.4 MB, while one (1000, D, D) array of all slopes alone would take
        # 33 MB
        stack = _equal_total_stack(5, 1000, 64, 3)
        tracemalloc.start()
        try:
            loo_stacks(stack, int(stack[0].sum()), GRENANDER)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6, peak


@st.composite
def _block_stacks(draw):
    d = draw(st.integers(1, 400))
    return _equal_total_stack(draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 8)), d,
                              draw(st.sampled_from([5, 2**30])))


def _with_reversed(row) -> np.ndarray:
    return np.array([row, row[::-1]], dtype=np.int64)


#: Stacks of 1-8 rows of length 1-400 with one total, from counts 0-5
#: (ties) or up to 2**30; and a staircase or a falling ramp (every point
#: a vertex) stacked with its reverse, which rises into fewer blocks (one,
#: for the ramp).
block_stacks = st.one_of(
    _block_stacks(),
    staircase_vectors.map(_with_reversed),
    st.integers(1, 400).map(lambda d: _with_reversed(np.arange(d, 0, -1))),
)


class TestGrenanderBlocks:
    @staticmethod
    def check_blocks(stack):
        n, d = int(stack[0].sum()), stack.shape[1]
        starts = est.grenander_blocks(stack)
        _, levels, widths = block_means(stack / n, starts)
        fit = np.repeat(levels, widths).reshape(stack.shape)
        for b, row in enumerate(stack):
            exact = exact_block_starts(row)
            got = starts[(b * d <= starts) & (starts < (b + 1) * d)] - b * d
            assert got.tolist() == exact == HULL_VERTICES([0] + np.cumsum(row).tolist())[:-1], b
            assert fit[b].tobytes() == shape_transform(GRENANDER, row, n).tobytes(), b
            # the float levels keep the exact block count: none merge
            assert np.count_nonzero(np.diff(fit[b])) + 1 == len(exact), b

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(block_stacks)
    def test_blocks_are_the_exact_pav_blocks(self, stack):
        self.check_blocks(stack)

    @pytest.mark.parametrize("d, n, hull_rows", [
        (127, 2**46, 0),  # (D + 1) n = 2**53
        (106, 3 * 28059810762433, 2),  # (D + 1) n = 2**53 + 1: every row
    ], ids=["at-2p53", "past-2p53"])
    def test_int64_rounds_run_up_to_the_exact_float_guard(self, d, n, hull_rows, monkeypatch):
        assert (d + 1) * n - 2**53 == (hull_rows > 0)
        built = []
        monkeypatch.setattr(shape, "_hull_vertices", lambda cum: built.append(len(cum)) or HULL_VERTICES(cum))
        for even in (False, True):
            self.check_blocks(_stack_totalling(17, 2, d, n, even))
        assert built == [d + 1] * 2 * hull_rows

    def test_cascade_falls_back_to_the_hull(self, monkeypatch):
        # pooling 2000 .. 1 into the last count takes 2001 rounds
        row = np.append(np.arange(2000, 0, -1), 10**7)
        built = []
        monkeypatch.setattr(shape, "_hull_vertices", lambda cum: built.append(len(cum)) or HULL_VERTICES(cum))
        self.check_blocks(np.array([row]))
        assert built == [row.size + 1]


class TestCvBeta:
    def test_grenander_hand_values(self):
        beta, a_n, b_n = cv_beta(fd(1, 2), GRENANDER)
        assert a_n == pytest.approx(1 / 18)
        assert b_n == pytest.approx(2 / 9)
        assert beta == 1.0

    def test_rearrangement_hand_values(self):
        beta, a_n, b_n = cv_beta(fd(1, 2), REARRANGEMENT)
        assert a_n == pytest.approx(2 / 9)
        assert b_n == pytest.approx(4 / 9)
        assert beta == 1.0

    def test_decreasing_data_gives_zero(self):
        for kind in KINDS:
            beta, a_n, _ = cv_beta(fd(3, 2, 1), kind)
            assert a_n == 0.0
            assert beta == 0.0

    def test_single_observation_rejected(self):
        with pytest.raises(InsufficientSampleError):
            cv_beta(fd(1), GRENANDER)

    def test_beta_always_in_unit_interval(self):
        rng = np.random.default_rng(41)
        for _ in range(400):
            x = random_frequency_data(rng)
            for kind in KINDS:
                beta, _, _ = cv_beta(x, kind)
                assert 0.0 <= beta <= 1.0

    @staticmethod
    def direct_cv(x, kind, betas):
        """Evaluate the cross-validation criterion from its definition:
        sum of squared stacked coordinates minus twice the weighted
        leave-one-out stacked coordinates, for each beta."""
        base = empirical(x).probs
        shape = grenander(x).probs if kind == GRENANDER else rearrangement(x).probs
        loo = loo_vectors(x, kind)
        values = np.empty(len(betas))
        for i, beta in enumerate(betas):
            est = beta * shape + (1 - beta) * base
            loo_est = beta * loo.shape_loo + (1 - beta) * loo.pi
            values[i] = np.sum(est**2) - 2.0 * np.sum(base * loo_est)
        return values

    def test_quadratic_identity_and_minimizer(self):
        rng = np.random.default_rng(53)
        betas = np.linspace(0.0, 1.0, 201)
        for _ in range(60):
            x = random_frequency_data(rng, max_len=25, max_n=300)
            for kind in KINDS:
                beta_hat, a_n, b_n = cv_beta(x, kind)
                direct = self.direct_cv(x, kind, betas)
                quad = a_n * betas**2 - 2.0 * b_n * betas
                np.testing.assert_allclose(direct - direct[0], quad, atol=1e-10)
                if a_n > 1e-15:
                    cv_at_hat = self.direct_cv(x, kind, [beta_hat])[0]
                    assert cv_at_hat <= direct.min() + 1e-10
                else:
                    # base and shape coincide: any beta gives the same estimate
                    assert beta_hat == 0.0


class TestStacked:
    def test_grenander_example(self):
        fit = stacked(fd(1, 2), GRENANDER)
        assert fit.beta_hat == 1.0
        np.testing.assert_allclose(fit.estimate.probs, [0.5, 0.5])

    def test_decreasing_data_returns_empirical(self):
        fit = stacked(fd(3, 2, 1), GRENANDER)
        assert fit.beta_hat == 0.0
        np.testing.assert_allclose(fit.estimate.probs, [0.5, 1 / 3, 1 / 6])

    def test_rearrangement_example(self):
        fit = stacked(fd(1, 2), REARRANGEMENT)
        assert fit.beta_hat == 1.0
        np.testing.assert_allclose(fit.estimate.probs, [2 / 3, 1 / 3])

    def test_estimate_is_the_declared_mixture(self):
        rng = np.random.default_rng(67)
        for _ in range(100):
            x = random_frequency_data(rng)
            for kind in KINDS:
                fit = stacked(x, kind)
                mix = fit.beta_hat * fit.shape.probs + (1 - fit.beta_hat) * fit.base.probs
                np.testing.assert_array_equal(fit.estimate.probs, mix)

    def test_single_observation_degrades_with_flag(self):
        fit = stacked(fd(1), GRENANDER)
        assert fit.beta_hat == 0.0
        assert fit.b_n is None
        assert fit.diagnostics
        np.testing.assert_allclose(fit.estimate.probs, [1.0])

    @settings(max_examples=1000, derandomize=True, deadline=None)
    @given(DECREASING_TRUTHS, st.integers(1, 1000), st.integers(0, 2**32 - 1))
    def test_error_reduction_for_decreasing_truth(self, model, n, seed):
        """On a nonincreasing truth, none of r, G, sr and sG is farther from
        the truth than the empirical estimator in l1, l2 or l-inf, sample by
        sample.

        The isotonic fit and the decreasing rearrangement never increase the
        l_p distance to a nonincreasing vector (Yang & Barber, "Contraction
        and uniform convergence of isotonic regression", EJS 2019;
        Chernozhukov, Fernández-Val & Galichon, "Improving point and interval
        estimators of monotone functions by rearrangement", Biometrika 2009).
        Past the observed range every fit is 0, like the empirical one, and a
        stacked fit is a convex combination of the two.
        """
        truth = pmf_truncate(model, 1e-12).probs
        x = sample(model, n, seed)
        bound = np.asarray(lk_distances(empirical(x).probs, truth, NORMS)) + 1e-12
        fits = [rearrangement(x), grenander(x)] + [stacked(x, kind).estimate for kind in KINDS]
        for fit in fits:
            assert np.all(np.asarray(lk_distances(fit.probs, truth, NORMS)) <= bound)


@st.composite
def stacks_against_truth(draw):
    """1-6 random pmf rows, each as wide as, narrower or wider than the truth ``v``, and a list of norms."""
    dv = draw(st.integers(2, 40))
    du = draw(st.one_of(st.integers(1, dv - 1), st.just(dv), st.integers(dv + 1, 80)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.random((draw(st.integers(1, 6)), du))
    v = rng.random(dv)
    norms = draw(st.lists(st.sampled_from(NORMS), max_size=4))
    return rows / rows.sum(axis=1, keepdims=True), v / v.sum(), tuple(norms)


class TestDistance:
    # the loss reduction passes a stack, and its rows must keep the bytes of one call per fit
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(stacks_against_truth())
    def test_stack_rows_equal_single_vector_calls(self, case):
        stack, v, norms = case
        got = lk_distances(stack, v, norms)
        assert isinstance(got, np.ndarray) and got.shape == (len(stack), len(norms))
        for row, dists in zip(stack, got):
            assert dists.tobytes() == np.array(lk_distances(row, v, norms), dtype=float).tobytes()

    def test_zero_padding(self):
        assert lk_distance([1.0, 0.5], [1.0], 1) == pytest.approx(0.5)
        assert lk_distance([1.0], [1.0, 0.5], 2) == pytest.approx(0.5)
        assert lk_distance([0.2, 0.3], [0.2, 0.3], math.inf) == 0.0

    def test_norms(self):
        u, v = [1.0, 2.0, 0.0], [0.0, 0.0, 2.0]
        assert lk_distance(u, v, 1) == pytest.approx(5.0)
        assert lk_distance(u, v, 2) == pytest.approx(3.0)
        assert lk_distance(u, v, math.inf) == pytest.approx(2.0)

    def test_several_norms_in_one_call(self):
        u, v = [1.0, 2.0, 0.0], [0.0, 0.0, 2.0, 0.5]
        assert lk_distances(u, v, (math.inf, 1, 2)) == pytest.approx([2.0, 5.5, math.sqrt(9.25)])
        assert lk_distances(u, v, ()) == []

    @pytest.mark.parametrize("k", [0, 0.5, 3, -1, math.nan])
    def test_other_norms_rejected(self, k):
        with pytest.raises(ValueError, match="k must be 1, 2 or inf"):
            lk_distance([1.0, 0.5], [0.5], k)
        with pytest.raises(ValueError, match="k must be 1, 2 or inf"):
            lk_distances([1.0, 0.5], [0.5], (1, k))
        with pytest.raises(ValueError, match="k must be 1, 2 or inf"):
            lk_distances(np.full((3, 2), 0.5), [0.5], (k, 2))
