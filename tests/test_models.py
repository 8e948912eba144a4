"""Tests for the distribution families, truncation and sampling."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    exact_poisson_tail,
    reference_frequency_total,
    reference_poisson_truncation,
    reference_sample,
)
from stackpmf import (
    FrequencyData,
    Geometric,
    Mixture,
    NegativeBinomial,
    ParameterError,
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
from stackpmf import cli, models
from stackpmf.harness import ExperimentConfig, run_loss_experiment
from stackpmf.rng import keyed_streams, substream, substream_seed
from stackpmf.models import (
    MAX_COUNT,
    MAX_SUPPORT,
    SAMPLING_TRUNCATION,
    SAMPLE_CHUNK,
    _guide,
    _guide_search,
    _guide_table,
    _log_factorial,
    _log_factorial_one,
    _sampling_table,
    _tail_mass,
    check_support,
    truncated_probs,
)

ALL_BUILTIN = tuple(builtin_models().items())


class TestPmfEval:
    def test_uniform(self):
        assert pmf_eval(UniformRange(11), 0) == pytest.approx(1 / 12)
        assert pmf_eval(UniformRange(11), 11) == pytest.approx(1 / 12)
        assert pmf_eval(UniformRange(11), 12) == 0.0

    def test_geometric(self):
        assert pmf_eval(Geometric(0.25), 0) == pytest.approx(0.75)
        assert pmf_eval(Geometric(0.25), 3) == pytest.approx(0.75 * 0.25**3)

    def test_m2_mixture(self):
        # hand evaluation: 0.15/4 + 0.1/8 + 0.75/12
        assert pmf_eval(builtin_models()["M2"], 0) == pytest.approx(0.1125)

    def test_triangular_decreasing(self):
        assert pmf_eval(TriangularDecreasing(11), 0) == pytest.approx(12 / 78)
        assert pmf_eval(TriangularDecreasing(11), 11) == pytest.approx(1 / 78)

    def test_negative_binomial(self):
        assert pmf_eval(NegativeBinomial(7, 0.4), 0) == pytest.approx(0.6**7)

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            Geometric(1.5)
        with pytest.raises(ParameterError):
            Poisson(-1.0)
        with pytest.raises(ParameterError):
            NegativeBinomial(0, 0.4)
        with pytest.raises(ParameterError):
            Mixture(((0.5, UniformRange(1)), (0.4, UniformRange(2))))

    @pytest.mark.parametrize("name,model", ALL_BUILTIN)
    def test_total_mass_is_one(self, name, model):
        # direct summation over a long prefix plus the analytic tail
        probs = pmf_values(model, 500)
        pmf = pmf_truncate(model, 1e-12)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert pmf.probs.sum() + pmf.tail_mass == pytest.approx(1.0, abs=1e-9)


class TestPmfTruncate:
    def test_finite_support_exact(self):
        pmf = pmf_truncate(UniformRange(3), 0.5)
        np.testing.assert_allclose(pmf.probs, [0.25] * 4)
        assert pmf.tail_mass == 0.0

    def test_geometric_length_is_smallest(self):
        # geometric tail after L entries is theta**L; 0.25**20 <= 1e-12 < 0.25**19
        pmf = pmf_truncate(Geometric(0.25), 1e-12)
        assert len(pmf) == 20
        assert pmf.tail_mass <= 1e-12

    def test_m7_tail_bound(self):
        pmf = pmf_truncate(builtin_models()["M7"], 1e-12)
        assert pmf.tail_mass <= 1e-12
        assert pmf.probs.sum() >= 1 - 1e-12

    @pytest.mark.parametrize("name,model", ALL_BUILTIN)
    @pytest.mark.parametrize("eps", [1e-6, 1e-12])
    def test_nonnegative_and_normalized(self, name, model, eps):
        pmf = pmf_truncate(model, eps)
        assert np.all(pmf.probs >= 0.0)
        assert pmf.probs.sum() + pmf.tail_mass == pytest.approx(1.0, abs=1e-9)

    def test_monotonicity_of_builtins(self):
        for name, model in ALL_BUILTIN:
            probs = pmf_truncate(model, 1e-12).probs
            decreasing = bool(np.all(np.diff(probs) <= 1e-12))
            assert decreasing == (name in ("M1", "M2", "M3", "M4"))


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


class TestPoissonMatchesScipyStats:
    """The Poisson pmf must equal ``scipy.stats.poisson`` bit for bit, so data
    files keep their bytes; its tail must lie within a stated relative bound
    of the exact tail."""

    # tiny, moderate and huge rates, up to the cap 2**53, at lengths -2..3000
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(
        st.one_of(
            st.floats(min_value=5e-324, max_value=2.0**53),
            st.floats(min_value=-1074.0, max_value=53.0).map(lambda e: 2.0**e),
            st.floats(min_value=0.0, max_value=3000.0, exclude_min=True),
            st.sampled_from([5e-324, 1e-300, 1e-10, 0.5, 1.0, 2.0, 15.0, 745.0, 2.0**52 + 1, 2.0**53]),
        ),
        st.integers(-2, 3000),
    )
    @example(2.0, -2)
    @example(3.0, -1)
    @example(15.0, 0)
    @example(2.0**53, 3000)
    @example(3000.0, 2999)
    @example(3000.0, 3000)
    def test_pmf_and_tail_are_bitwise_scipy_stats(self, lam, length):
        model = Poisson(lam)
        j = np.arange(max(length, 0))
        got = pmf_values(model, max(length, 0))
        want = scipy.stats.poisson.pmf(j, lam)
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(_bits(got), _bits(want))
        tail = _tail_mass(model, length)
        assert type(tail) is float and 0.0 <= tail <= 1.0
        exact = exact_poisson_tail(lam, length)
        assert abs(tail - exact) <= _tail_bound(lam, length, exact)


def _tail_bound(lam: float, length: int, exact: float) -> float:
    """Error bound of the float Poisson tail at ``length``, fixed before it
    was first checked: each term carries the rounding of the pmf's exponent,
    whose parts have magnitude ``S = k |log lam| + log(k!) + lam`` at the
    series' first index ``k``, and each of at most 4096 further terms adds
    one multiplication and one addition; 16 eps per unit of ``S + 4096``
    covers both, relative to a tail (or, below the mean, to the complement
    of a sum of at most about 1/2), plus 1e-300 for sums that are subnormal.
    ``exact`` is the exact tail."""
    if length <= 0:
        return 0.0
    k = length if length > lam else length - 1
    scale = k * abs(math.log(lam)) + math.lgamma(k + 1) + lam
    return 16 * np.finfo(float).eps * (scale + 4096) * exact + 1e-300


class TestScipyFreePoisson:
    """The Poisson pmf takes ``log(j!)`` from a port of cephes ``lgam`` and
    truncation decides its tails by a direct sum of it; both must give
    scipy's bytes, and the lengths of a ``pdtrc`` search wherever ``pdtrc``
    sums its whole series."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.integers(0, MAX_SUPPORT - 1))
    @example(11)
    @example(12)
    @example(998)
    @example(999)
    @example(MAX_SUPPORT - 1)
    def test_log_factorial_is_bitwise_gammaln(self, k):
        k = np.array([k])
        assert _bits(_log_factorial(k)) == _bits(scipy.special.gammaln(k + 1))

    def test_log_factorial_is_bitwise_gammaln_below_2p16(self):
        k = np.arange(2**16)
        np.testing.assert_array_equal(_bits(_log_factorial(k)), _bits(scipy.special.gammaln(k + 1)))

    @pytest.mark.parametrize("k", [0, 11, 12, 13, 999, 1000, 10**8 - 1, 10**8, 10**8 + 1])
    def test_log_factorial_of_one_value_is_bitwise_the_array_path(self, k):
        # the tail series takes log(k!) of its first index without an array
        assert _bits(_log_factorial_one(k)) == _bits(_log_factorial(np.array([k]))[0])

    @pytest.mark.parametrize("eps", [1e-12, 1e-10])
    def test_truncation_matches_a_pdtrc_search(self, eps):
        for lam in np.geomspace(0.01, 1e5, 701):
            got = pmf_truncate(Poisson(lam), eps)
            want = reference_poisson_truncation(float(lam), eps)
            assert got.probs.size == want.size, lam
            assert got.probs.tobytes() == want.tobytes(), lam
            assert got.tail_mass <= eps

    def test_a_tail_just_above_epsilon_is_not_kept(self):
        # the exact tail at 3 008 237 points is 1.00077e-6; pdtrc, which cuts its
        # series at 2000 terms, puts it below 1e-6
        got = pmf_truncate(Poisson(3e6), 1e-6)
        assert got.probs.size == 3_008_238
        exact = exact_poisson_tail(3e6, 3_008_238)
        assert exact_poisson_tail(3e6, 3_008_237) > 1e-6 >= exact
        assert got.tail_mass <= 1e-6
        assert abs(got.tail_mass - exact) <= _tail_bound(3e6, 3_008_238, exact)

    @pytest.mark.parametrize("model", [Poisson(2.0), Poisson(15.0), Poisson(1234.5), builtin_models()["M7"]])
    def test_a_tail_equal_to_epsilon_keeps_its_length(self, model):
        # tail(L) == eps exactly: the decision "tail <= eps" keeps L
        length = pmf_truncate(model, 1e-12).probs.size
        eps = _tail_mass(model, length)
        got = pmf_truncate(model, eps)
        assert got.probs.size == length
        assert got.tail_mass == eps


class TestSupportCap:
    def test_longest_support_passes(self):
        # checked without building the vector: MAX_SUPPORT points exactly,
        # and a geometric whose tail drops under 1e-12 near 2.8e6 points
        check_support(UniformRange(MAX_SUPPORT - 1), 1e-12)
        check_support(Geometric(0.99999), 1e-12)

    @pytest.mark.parametrize("model", [
        UniformRange(MAX_SUPPORT),
        TriangularIncreasing(10**40),
        Geometric(0.999999),
        NegativeBinomial(10**9, 0.5),
        Poisson(2.0**53),
        Mixture(((0.5, UniformRange(3)), (0.5, Poisson(1e9)))),
    ])
    def test_longer_support_is_rejected_before_any_vector(self, model):
        with pytest.raises(ParameterError, match=f"MAX_SUPPORT = {MAX_SUPPORT}"):
            check_support(model, 1e-12)
        with pytest.raises(ParameterError, match=f"MAX_SUPPORT = {MAX_SUPPORT}"):
            pmf_truncate(model, 1e-12)

    def test_negative_binomial_r_is_capped_at_2p53(self):
        NegativeBinomial(2**53, 0.5)
        with pytest.raises(ParameterError):
            NegativeBinomial(2**53 + 1, 0.5)


class TestSample:
    def test_single_draw(self):
        x = sample(builtin_models()["M6"], 1, seed=5)
        assert x.n == 1
        assert x.counts.sum() == 1
        assert np.count_nonzero(x.counts) == 1

    def test_point_mass(self):
        x = sample(UniformRange(0), 50, seed=1)
        np.testing.assert_array_equal(x.counts, [50])

    def test_law_of_large_numbers(self):
        x = sample(Geometric(0.25), 10**6, seed=9)
        se = math.sqrt(0.75 * 0.25 / 10**6)
        assert abs(x.counts[0] / x.n - 0.75) <= 5 * se

    @pytest.mark.parametrize("n", [2.5, True, 3.0], ids=["fraction", "bool", "integral-float"])
    def test_non_integer_sample_size_rejected(self, n):
        with pytest.raises(ValueError, match="sample size"):
            sample(builtin_models()["M1"], n, seed=3)

    def test_sample_size_past_the_int64_total_raises_before_drawing(self):
        rng = substream(3)
        with pytest.raises(ValueError, match=f"sample size must lie in \\[1, {MAX_COUNT}\\]"):
            sample(builtin_models()["M1"], MAX_COUNT + 1, seed=rng)
        np.testing.assert_array_equal(rng.random(3), substream(3).random(3))

    def test_numpy_integer_sample_size_accepted(self):
        x = sample(builtin_models()["M1"], np.int64(5), seed=3)
        assert x.n == 5
        np.testing.assert_array_equal(x.counts, sample(builtin_models()["M1"], 5, seed=3).counts)

    def test_loss_experiment_rejects_fractional_sample_size(self):
        cfg = ExperimentConfig(model=builtin_models()["M1"], reps=2, n=2.5)
        with pytest.raises(ValueError, match="sample size"):
            run_loss_experiment(cfg)

    def test_bit_identical_given_seed(self):
        a = sample(builtin_models()["M7"], 3000, seed=77)
        b = sample(builtin_models()["M7"], 3000, seed=77)
        np.testing.assert_array_equal(a.counts, b.counts)
        c = sample(builtin_models()["M7"], 3000, seed=78)
        assert not np.array_equal(a.counts, c.counts)

    @pytest.mark.parametrize("name,model", ALL_BUILTIN)
    def test_empirical_frequencies_converge(self, name, model):
        n = 10**6
        x = sample(model, n, seed=13)
        truth = pmf_truncate(model, 1e-12).probs
        freq = np.zeros(truth.size)
        freq[: x.counts.size] = x.counts / n
        tol = 5 * math.sqrt(float(np.max(truth * (1 - truth))) / n)
        assert np.max(np.abs(freq - truth)) <= tol

    @pytest.mark.parametrize("name,model", [("M7", builtin_models()["M7"]), ("geom:0.25", Geometric(0.25))])
    def test_chunked_draws_equal_one_call(self, name, model):
        # three whole chunks and a short one against the oracle's one
        # rng.random(n); seeds 0 and 1 reach past the first chunk's support
        # in a later chunk, seeds 2 to 5 do not
        n = 3 * models.SAMPLE_CHUNK + 5
        grew = []
        for seed in range(6):
            want = reference_sample(model, n, seed)
            np.testing.assert_array_equal(sample(model, n, seed).counts, want.counts)
            grew.append(want.counts.size > reference_sample(model, models.SAMPLE_CHUNK, seed).counts.size)
        assert any(grew) and not all(grew)

    def test_a_generator_draws_as_its_seed_does(self):
        model = builtin_models()["M2"]
        for n in (1, 300, models.SAMPLE_CHUNK + 1):
            np.testing.assert_array_equal(sample(model, n, substream(41)).counts, sample(model, n, 41).counts)

    def test_support_length_is_largest_value_plus_one(self):
        x = sample(builtin_models()["M4"], 200, seed=3)
        assert x.counts[-1] > 0
        assert x.t_n == len(x) - 1


@st.composite
def _guide_cases(draw):
    """A nondecreasing table ``cum`` with zero-probability entries, a tail
    within 1e-12 of 1 and a last value that may differ from 1, a guide cap
    small enough to put several points in one bucket, and uniforms at and
    just below the table's values and the bucket edges."""
    head = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=1, max_size=40))
    tail = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-16, 1e-13)), max_size=12))
    if not sum(head):
        head[-1] = 1.0
    scale = draw(st.sampled_from([1.0, 1.0 - 2**-50, 1.0 + 2**-52, 1.0 - 1e-12, 0.75]))
    probs = np.concatenate([np.array(head) / sum(head) * (scale - sum(tail)), tail])
    cum = np.cumsum(probs)
    guide = _guide(cum, cap=2 ** draw(st.integers(0, 10)))
    m = guide[1]
    points = np.concatenate([
        cum, np.nextafter(cum, -np.inf), np.nextafter(cum, np.inf),
        np.arange(m) / m, np.nextafter(np.arange(1, m + 1) / m, -np.inf),
        [0.0, 1.0 - 2**-53], draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20)),
    ])
    return cum, guide, points[(points >= 0.0) & (points < 1.0)]


class TestGuideTable:
    """The guide table maps every uniform to ``np.searchsorted(cum, u, "right")``."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(_guide_cases())
    def test_bitwise_searchsorted(self, case):
        cum, guide, u = case
        want = np.searchsorted(cum, u, side="right")
        got = _guide_search(guide, u)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    def test_buckets_with_several_points_are_searched(self):
        # a cap of 2 puts M7's 50 points into two buckets of many points each
        cum = _sampling_table(builtin_models()["M7"])
        guide = _guide(cum, cap=2)
        assert guide[1] == 2 and np.all(guide[2] < 0)
        u = substream(4).random(10_000)
        np.testing.assert_array_equal(_guide_search(guide, u), np.searchsorted(cum, u, side="right"))

    def test_model_tables_are_cached_and_read_only(self):
        model = builtin_models()["M7"]
        guide = _guide_table(model)
        assert guide is _guide_table(builtin_models()["M7"]) and guide[0] is _sampling_table(model)
        assert guide[1] == 256 and not guide[2].flags.writeable and not guide[3].flags.writeable


class TestSampleStack:
    """Each row of a stacked sample is the one-call reference sample of its stream."""

    @pytest.mark.parametrize("n, rows", [
        (1, 7), (300, 240), (SAMPLE_CHUNK - 1, 3), (SAMPLE_CHUNK, 2), (SAMPLE_CHUNK + 1, 3), (3 * SAMPLE_CHUNK + 7, 2),
    ])
    @pytest.mark.parametrize("name, model", [("M7", builtin_models()["M7"]), ("pois:1e5", Poisson(1e5))])
    def test_rows_equal_the_reference(self, name, model, n, rows):
        # 240 rows of 300 and 3 of 2**16 - 1 or more straddle the 2**16 fills
        seeds = [17 + 1000 * r for r in range(rows)]
        counts = models.sample_stack(model, n, (substream(seed) for seed in seeds), rows)
        width = _sampling_table(model).size
        assert counts.shape == (rows, width) and counts.dtype == np.int64
        np.testing.assert_array_equal(counts.sum(axis=1), n)
        for seed, row in zip(seeds, counts):
            want = reference_sample(model, n, seed).counts
            np.testing.assert_array_equal(row[: want.size], want)
            assert not row[want.size :].any()

    def test_pois_1e5_runs_the_fallback(self):
        # the head of pois:1e5 (about 97 000 points below 1 / 2**16) and its
        # tail share buckets, so some uniforms are searched
        cum, m, start, _ = _guide_table(Poisson(1e5))
        u = substream(17).random(3 * SAMPLE_CHUNK + 7)
        assert m == SAMPLE_CHUNK and 0 < np.count_nonzero(start[(u * m).astype(np.intp)] < 0) < u.size // 100

    def test_keyed_streams_are_taken_one_per_row(self):
        # one re-keyed generator serves every row, also across a fill boundary
        model = builtin_models()["M2"]
        counts = models.sample_stack(model, 30_000, keyed_streams(5, ("rep",), range(4)), 4)
        for i, row in enumerate(counts):
            want = sample(model, 30_000, substream_seed(5, "rep", i)).counts
            np.testing.assert_array_equal(row[: want.size], want)

    def test_sample_size_is_validated_before_drawing(self):
        rng = substream(3)
        with pytest.raises(ValueError, match="sample size"):
            models.sample_stack(builtin_models()["M1"], 0, iter([rng]), 1)
        np.testing.assert_array_equal(rng.random(3), substream(3).random(3))


class TestSamplingTableCache:
    MODELS = ALL_BUILTIN + (
        ("geom:0.9", parse_model("geom:0.9")),
        ("nbin:3,0.7", parse_model("nbin:3,0.7")),
        ("mix", parse_model("mix:0.3*pois:4+0.7*geom:0.5")),
    )

    @pytest.mark.parametrize("name,model", MODELS)
    def test_bitwise_equal_to_uncached_reference(self, name, model):
        for n in (1, 7, 300, 20_000):
            for seed in (0, 3, 2**40 + 11):
                got = sample(model, n, seed)
                want = reference_sample(model, n, seed)
                assert got.counts.dtype == want.counts.dtype
                np.testing.assert_array_equal(got.counts, want.counts)

    def test_table_is_read_only(self):
        cum = _sampling_table(builtin_models()["M7"])
        with pytest.raises(ValueError):
            cum[0] = 0.5
        assert cum[-1] <= 1.0

    def test_equal_models_share_one_entry(self):
        _sampling_table.cache_clear()
        a = _sampling_table(builtin_models()["M7"])
        b = _sampling_table(builtin_models()["M7"])
        assert a is b
        fraction = Mixture(((0.375, Poisson(2)), (0.625, Poisson(15))))
        assert _sampling_table(fraction) is a
        assert _sampling_table(Geometric(0.25)) is _sampling_table(parse_model("geom:1/4"))
        info = _sampling_table.cache_info()
        assert (info.misses, info.currsize) == (2, 2)

    def test_equal_fields_of_different_families_do_not_collide(self):
        uniform = _sampling_table(UniformRange(3))
        decreasing = _sampling_table(TriangularDecreasing(3))
        np.testing.assert_array_equal(uniform, np.cumsum(pmf_values(UniformRange(3), 4)))
        np.testing.assert_array_equal(decreasing, np.cumsum(pmf_values(TriangularDecreasing(3), 4)))
        assert not np.array_equal(uniform, decreasing)

    def test_float_parameters_are_normalized(self):
        assert Geometric(Fraction(1, 4)).theta == 0.25 and type(Geometric(Fraction(1, 4)).theta) is float
        assert type(Poisson(2).lam) is float
        assert type(NegativeBinomial(3, Fraction(7, 10)).theta) is float

    def test_one_truncation_per_model_and_run(self, monkeypatch, tmp_path):
        # qq's support check, its truth vector and the sampler's table all
        # read the one cached truncation
        truncated_probs.cache_clear()
        _sampling_table.cache_clear()
        calls = []

        def counted(model, epsilon):
            calls.append(epsilon)
            return pmf_truncate(model, epsilon)

        monkeypatch.setattr(models, "pmf_truncate", counted)
        argv = ["qq", "--model", "M7", "--coord", "2", "--n", "40", "--reps", "3", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        assert calls == [SAMPLING_TRUNCATION]
        probs = truncated_probs(builtin_models()["M7"])
        assert not probs.flags.writeable
        assert probs.tobytes() == pmf_truncate(builtin_models()["M7"], 1e-12).probs.tobytes()
        # the public truncation stays uncached and writable
        assert pmf_truncate(builtin_models()["M7"], 1e-12).probs.flags.writeable


class TestContainers:
    def test_frequency_data_rejects_trailing_zero(self):
        with pytest.raises(ValueError):
            FrequencyData(np.array([1, 0]))

    def test_frequency_data_allows_leading_zero(self):
        x = FrequencyData(np.array([0, 2, 1]))
        assert x.n == 3
        assert x.t_n == 2

    def test_frequency_data_rejects_negative(self):
        with pytest.raises(ValueError):
            FrequencyData(np.array([2, -1, 1]))

    @pytest.mark.parametrize("copies", [2, 3, 5], ids=["two-2p62", "three-2p62", "five-2p62"])
    def test_frequency_data_rejects_total_past_int64(self, copies):
        # an int64 sum would wrap to 2**63 - 2**64, 3 * 2**62 - 2**64 and 2**62
        with pytest.raises(ValueError, match="exceeds"):
            FrequencyData(np.full(copies, 2**62, dtype=np.int64))

    def test_frequency_data_total_is_exact_at_int64_max(self):
        x = FrequencyData(np.array([2**62, 2**62 - 1], dtype=np.int64))
        assert x.n == 2**63 - 1
        assert type(x.n) is int

    # totals on both sides of 2**63 - 1, with counts near the 2**32 split
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        st.integers(0, 62).flatmap(
            lambda bits: st.lists(
                st.one_of(st.integers(0, 2**bits), st.sampled_from([2**32 - 1, 2**32, 2**32 + 1, 2**63 - 1])),
                min_size=1,
                max_size=40,
            )
        )
    )
    def test_frequency_data_total_is_exact(self, values):
        values[-1] = max(values[-1], 1)
        exact = sum(values)
        counts = np.array(values, dtype=np.int64)
        assert exact == sum(counts.tolist())
        if exact > MAX_COUNT:
            with pytest.raises(ValueError, match="exceeds"):
                FrequencyData(counts)
        else:
            assert FrequencyData(counts).n == exact

    # negative counts, trailing zeros, totals near and past MAX_COUNT from
    # one huge count or many, and declared totals that match or not
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.integers(-3, 3),
                st.integers(0, 2**63 - 1),
                st.integers(0, 2**63 - 1).map(lambda v: v // 40),
                st.sampled_from([2**32 - 1, 2**32, 2**62, MAX_COUNT, MAX_COUNT - 1, -(2**63)]),
            ),
            min_size=1,
            max_size=40,
        ),
        st.one_of(st.just(0), st.just(None), st.integers(-1, 2**64)),
    )
    @example([MAX_COUNT // 2, MAX_COUNT // 2 + 1], None)
    @example([MAX_COUNT // 2, MAX_COUNT // 2 + 2], 0)
    def test_frequency_data_checks_and_totals_like_the_reference(self, values, declared):
        declared = sum(values) if declared is None else declared
        try:
            expected = reference_frequency_total(values, declared)
        except ValueError as exc:
            with pytest.raises(type(exc)) as got:
                FrequencyData(np.array(values, dtype=np.int64), declared)
            assert type(got.value) is type(exc) and str(got.value) == str(exc)
        else:
            x = FrequencyData(np.array(values, dtype=np.int64), declared)
            assert x.n == expected and type(x.n) is int

    def test_pmf_requires_normalization(self):
        with pytest.raises(ValueError):
            Pmf(np.array([0.5, 0.2]))
        with pytest.raises(ValueError):
            Pmf(np.array([-0.1, 1.1]))


def _number(low: int, high: int, den: int):
    """``(value, text)`` for ``a / den`` with ``low <= a <= high``, spelled as
    the fraction ``a/den`` or as the shortest decimal of its float."""
    return st.tuples(st.integers(low, high), st.booleans()).map(
        lambda t: (Fraction(t[0], den), f"{t[0]}/{den}" if t[1] else repr(t[0] / den)))


#: ``(model, text)`` pairs of every plain family, with small parameters.
_spelled_plain = st.one_of(
    *(st.integers(0, 40).map(lambda s, cls=cls, head=head: (cls(s), f"{head}:{s}"))
      for cls, head in ((UniformRange, "uniform"), (TriangularDecreasing, "tri-dec"),
                        (TriangularIncreasing, "tri-inc"))),
    st.integers(2, 40).flatmap(lambda den: _number(1, den - 1, den)).map(
        lambda p: (Geometric(p[0]), f"geom:{p[1]}")),
    st.tuples(st.integers(1, 20), st.integers(2, 40).flatmap(lambda den: _number(1, den - 1, den))).map(
        lambda t: (NegativeBinomial(t[0], t[1][0]), f"nbin:{t[0]},{t[1][1]}")),
    st.integers(1, 40).flatmap(lambda den: _number(1, 30 * den, den)).map(
        lambda p: (Poisson(p[0]), f"pois:{p[1]}")),
)


def _spelled_mixture(parts, den):
    """``(model, text)`` strategy for a ``mix:`` of ``parts`` with weights ``a_i / den`` summing to 1."""
    cuts = st.lists(st.integers(1, den - 1), min_size=len(parts) - 1, max_size=len(parts) - 1, unique=True)

    def build(cut_list):
        bounds = [0] + sorted(cut_list) + [den]
        return st.tuples(*(_number(b - a, b - a, den) for a, b in zip(bounds, bounds[1:])))

    return cuts.flatmap(build).map(lambda weights: (
        Mixture(tuple((w, model) for (w, _), (model, _) in zip(weights, parts))),
        "mix:" + "+".join(f"{text}*{spec}" for (_, text), (_, spec) in zip(weights, parts))))


_spelled_models = st.one_of(
    _spelled_plain,
    st.tuples(st.lists(_spelled_plain, min_size=1, max_size=4), st.integers(4, 1000)).flatmap(
        lambda t: _spelled_mixture(*t)),
)

#: Each builtin model spelled out as a plain or ``mix:`` string.
SPELLED_BUILTINS = {
    "M1": "uniform:11",
    "M2": "mix:0.15*uniform:3+0.1*uniform:7+0.75*uniform:11",
    "M3": "mix:0.25*uniform:1+0.2*uniform:3+0.15*uniform:5+0.4*uniform:7",
    "M4": "geom:0.25",
    "M5": "tri-inc:11",
    "M6": "nbin:7,0.4",
    "M7": "mix:3/8*pois:2+5/8*pois:15",
}


class TestBuiltinsAndParsing:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(_spelled_models)
    def test_spelled_out_model_round_trips(self, spelled):
        model, text = spelled
        assert parse_model(text) == model

    @pytest.mark.parametrize("name", sorted(SPELLED_BUILTINS))
    def test_builtin_equals_its_spelled_out_string(self, name):
        assert parse_model(SPELLED_BUILTINS[name]) == parse_model(name) == builtin_models()[name]

    def test_builtin_mapping(self):
        models = builtin_models()
        assert models["M1"] == UniformRange(11)
        assert models["M4"] == Geometric(0.25)
        assert models["M5"] == TriangularIncreasing(11)
        assert models["M6"] == NegativeBinomial(7, 0.4)
        m7 = models["M7"]
        assert isinstance(m7, Mixture)
        assert [w for w, _ in m7.components] == pytest.approx([3 / 8, 5 / 8])
        assert [c for _, c in m7.components] == [Poisson(2), Poisson(15)]
        assert len(models) == 7

    def test_parse_builtin_and_adhoc(self):
        assert parse_model("M3") == builtin_models()["M3"]
        assert parse_model("uniform:4") == UniformRange(4)
        assert parse_model("geom:0.3") == Geometric(0.3)
        assert parse_model("tri-dec:7") == TriangularDecreasing(7)
        assert parse_model("tri-inc:5") == TriangularIncreasing(5)
        assert parse_model("nbin:3,0.2") == NegativeBinomial(3, 0.2)
        assert parse_model("pois:2.5") == Poisson(2.5)
        mixed = parse_model("mix:0.25*uniform:1+0.75*geom:0.5")
        assert isinstance(mixed, Mixture)
        assert mixed.components[1] == (0.75, Geometric(0.5))

    def test_parse_fraction_weights(self):
        mixed = parse_model("mix:3/8*pois:2+5/8*pois:15")
        assert mixed == builtin_models()["M7"]

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_model("nope")
        with pytest.raises(ValueError):
            parse_model("geom:abc")
        with pytest.raises(ParameterError):
            parse_model("geom:1.5")

    def test_support_size(self):
        assert support_size(UniformRange(3)) == 4
        assert support_size(Geometric(0.5)) is None
        assert support_size(builtin_models()["M2"]) == 12
        assert support_size(builtin_models()["M7"]) is None

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            pmf_eval(UniformRange(3), -1)
        with pytest.raises(ParameterError):
            pmf_truncate(Geometric(0.5), 0.0)
        with pytest.raises(ParameterError):
            pmf_truncate(Geometric(0.5), 1.0)
        with pytest.raises(ValueError):
            sample(UniformRange(3), 0, seed=1)
