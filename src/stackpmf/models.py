"""Discrete distribution families, truncation and seeded sampling.

The seven benchmark distributions are uniform ranges, mixtures of uniform
ranges, a geometric, an increasing triangular, a negative binomial and a
Poisson mixture. Each is described declaratively by a small frozen
dataclass; evaluation, truncation to a finite vector and reproducible
sampling are free functions of the description.

Conventions fixed here:

* ``TriangularDecreasing(s)`` has ``p_j`` proportional to ``s + 1 - j`` and
  ``TriangularIncreasing(s)`` proportional to ``j + 1`` on ``{0, ..., s}``.
* ``NegativeBinomial(r, theta)`` counts successes before the r-th failure:
  ``p_j = C(j + r - 1, j) * theta**j * (1 - theta)**r``.

The Poisson pmf is ``exp(j * log(lam) - log(j!) - lam)`` clipped to
[0, 1], the formula of ``scipy.stats.poisson`` bit for bit, with
``log(j!)`` from a numpy port of the cephes ``lgam`` that
``scipy.special.gammaln`` runs. Its tail, which truncation compares with
the tolerance, is a sum of that pmf to one ulp (see :func:`_poisson_tail`),
so evaluating, truncating and sampling a Poisson loads no scipy module.
The negative binomial still uses ``scipy.stats.nbinom``, imported only
when one is evaluated.

Sampling inverts the cached cumulative table of the truncation through a
guide table (Chen and Asau's indexed search) built once beside it.
:func:`sample_stack` draws a round of samples, one generator per row, into
one ``(B, L)`` count matrix, ``SAMPLE_CHUNK`` uniforms and one ``bincount``
at a time; :func:`sample` is its one-row case.
"""

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from .errors import EmptyInputError, InvalidPmfError, ParameterError
from .rng import _as_int, substream

#: Tail mass discarded when an infinite support is materialized (see :func:`truncated_probs`).
SAMPLING_TRUNCATION = 1e-12

#: Longest truncated support a model may have, in points: a probability
#: vector at the cap takes 32 MiB. Longer ones are rejected before any
#: vector is built.
MAX_SUPPORT = 2**22

#: Uniforms :func:`sample_stack` draws and counts at a time (512 KiB of
#: doubles), and the most buckets a guide table has.
SAMPLE_CHUNK = 2**16

#: Largest total count of frequency data: the total must fit in an int64.
MAX_COUNT = np.iinfo(np.int64).max

_MIXTURE_WEIGHT_TOL = 1e-12

#: cephes ``lgam``: ``log(sqrt(2 pi))`` and the coefficients of its Stirling
#: correction ``polevl(1 / x**2, A, 4) / x``.
_LS2PI = 0.91893853320467274178
_LGAM_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_LOG_FACTORIAL_SMALL = np.array([math.log(math.factorial(k)) for k in range(12)])
_LOG_BLOCK = 2**16

#: The Poisson tail series is summed ``_TAIL_BLOCK`` terms at a time.
_TAIL_BLOCK = 1024

_EPS = float(np.finfo(float).eps)


# ---------------------------------------------------------------------------
# Model descriptions


@dataclass(frozen=True)
class UniformRange:
    """Uniform distribution on ``{0, ..., s}``."""

    s: int

    def __post_init__(self):
        if int(self.s) != self.s or self.s < 0:
            raise ParameterError(f"uniform range needs an integer s >= 0, got {self.s!r}")
        object.__setattr__(self, "s", int(self.s))


@dataclass(frozen=True)
class Geometric:
    """``p_j = (1 - theta) * theta**j`` on the nonnegative integers."""

    theta: float

    def __post_init__(self):
        if not 0.0 < self.theta < 1.0:
            raise ParameterError(f"geometric theta must lie in (0, 1), got {self.theta!r}")
        object.__setattr__(self, "theta", float(self.theta))


@dataclass(frozen=True)
class TriangularDecreasing:
    """Strictly decreasing ramp ``p_j`` proportional to ``s + 1 - j`` on ``{0, ..., s}``."""

    s: int

    def __post_init__(self):
        if int(self.s) != self.s or self.s < 0:
            raise ParameterError(f"triangular range needs an integer s >= 0, got {self.s!r}")
        object.__setattr__(self, "s", int(self.s))


@dataclass(frozen=True)
class TriangularIncreasing:
    """Strictly increasing ramp ``p_j`` proportional to ``j + 1`` on ``{0, ..., s}``."""

    s: int

    def __post_init__(self):
        if int(self.s) != self.s or self.s < 0:
            raise ParameterError(f"triangular range needs an integer s >= 0, got {self.s!r}")
        object.__setattr__(self, "s", int(self.s))


@dataclass(frozen=True)
class NegativeBinomial:
    """Number of successes before the r-th failure, success probability theta."""

    r: int
    theta: float

    def __post_init__(self):
        # beyond 2**53 an integer r is no longer exact as the float scipy uses
        if int(self.r) != self.r or not 1 <= self.r <= 2**53:
            raise ParameterError(f"negative binomial needs an integer r in [1, 2**53], got {self.r!r}")
        if not 0.0 < self.theta < 1.0:
            raise ParameterError(f"negative binomial theta must lie in (0, 1), got {self.theta!r}")
        object.__setattr__(self, "r", int(self.r))
        object.__setattr__(self, "theta", float(self.theta))


@dataclass(frozen=True)
class Poisson:
    """Poisson distribution with rate ``lam``."""

    lam: float

    def __post_init__(self):
        # up to 2**53 every integer is a float64 and the truncation search stays in int64
        if not 0.0 < self.lam <= 2.0**53:
            raise ParameterError(f"poisson rate must lie in (0, 2**53], got {self.lam!r}")
        object.__setattr__(self, "lam", float(self.lam))


@dataclass(frozen=True)
class Mixture:
    """Finite mixture ``sum_i w_i * component_i``; weights positive, summing to 1."""

    components: tuple

    def __post_init__(self):
        comps = tuple((float(w), m) for w, m in self.components)
        if not comps:
            raise ParameterError("mixture needs at least one component")
        for w, _ in comps:
            if not w > 0.0:
                raise ParameterError(f"mixture weights must be positive, got {w!r}")
        total = math.fsum(w for w, _ in comps)
        if abs(total - 1.0) > _MIXTURE_WEIGHT_TOL:
            raise ParameterError(f"mixture weights must sum to 1, got {total!r}")
        object.__setattr__(self, "components", comps)


ModelSpec = Union[
    UniformRange,
    Geometric,
    TriangularDecreasing,
    TriangularIncreasing,
    NegativeBinomial,
    Poisson,
    Mixture,
]


# ---------------------------------------------------------------------------
# Core containers


@dataclass(frozen=True, eq=False)
class Pmf:
    """A finite probability vector plus the mass lost to truncation.

    ``probs[j]`` is the probability of ``j`` for ``j = 0, ..., D - 1`` and
    ``tail_mass`` is the probability beyond ``D - 1`` (zero for a finite
    support). Entries are nonnegative and ``sum(probs) + tail_mass`` is 1
    up to 1e-9.
    """

    probs: np.ndarray
    tail_mass: float = 0.0

    def __post_init__(self):
        probs = np.ascontiguousarray(self.probs, dtype=float)
        if probs.ndim != 1 or probs.size == 0:
            raise InvalidPmfError("probability vector must be nonempty and one-dimensional")
        if np.any(probs < 0.0) or not np.all(np.isfinite(probs)):
            raise InvalidPmfError("probabilities must be finite and nonnegative")
        if self.tail_mass < 0.0:
            raise InvalidPmfError("tail mass must be nonnegative")
        total = float(np.sum(probs)) + float(self.tail_mass)
        if abs(total - 1.0) > 1e-9:
            raise InvalidPmfError(f"probabilities plus tail must sum to 1, got {total!r}")
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "tail_mass", float(self.tail_mass))

    def __len__(self) -> int:
        return self.probs.size


@dataclass(frozen=True, eq=False)
class FrequencyData:
    """Observed counts ``x_0, ..., x_t`` with ``x_t > 0`` and their total ``n``.

    Leading zeros are allowed; a trailing zero is not, because the vector
    length encodes the largest observed value.
    """

    counts: np.ndarray
    n: int = 0

    def __post_init__(self):
        counts = np.ascontiguousarray(self.counts)
        if counts.ndim != 1 or counts.size == 0:
            raise EmptyInputError("counts must be a nonempty one-dimensional vector")
        if not np.issubdtype(counts.dtype, np.integer):
            as_int = np.ascontiguousarray(counts, dtype=np.int64)
            if np.any(as_int != counts):
                raise ValueError("counts must be integers")
            counts = as_int
        else:
            counts = np.ascontiguousarray(counts, dtype=np.int64)
        if counts.min() < 0:
            raise ValueError("counts must be nonnegative")
        if counts[-1] == 0:
            raise ValueError("last count must be positive (trailing zeros are not part of the support)")
        # Exact total without an int64 wrap: a plain sum cannot wrap while
        # D * max(counts) stays in int64. Otherwise each 32-bit half sums to
        # under 2**63 while D < 2**31, and the halves are combined as Python ints.
        if int(counts.max()) <= MAX_COUNT // counts.size:
            n = int(counts.sum())
        else:
            n = (int(np.sum(counts >> 32)) << 32) + int(np.sum(counts & 0xFFFFFFFF))
        if n > MAX_COUNT:
            raise ValueError(f"total count {n} exceeds {MAX_COUNT}")
        if n < 1:
            raise EmptyInputError("total count must be at least 1")
        if self.n not in (0, n):
            raise ValueError(f"declared n={self.n} does not match sum of counts {n}")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "n", n)

    @property
    def t_n(self) -> int:
        """Largest observed value (final index of the counts vector)."""
        return self.counts.size - 1

    def __len__(self) -> int:
        return self.counts.size


# ---------------------------------------------------------------------------
# Evaluation


def pmf_eval(model: ModelSpec, j: int) -> float:
    """Probability of the single point ``j`` under ``model``."""
    if j < 0:
        raise ValueError(f"support point must be nonnegative, got {j}")
    return float(pmf_values(model, j + 1)[j])


def pmf_values(model: ModelSpec, length: int) -> np.ndarray:
    """Vector of ``p_0, ..., p_{length-1}`` under ``model``."""
    j = np.arange(length)
    if isinstance(model, UniformRange):
        return np.where(j <= model.s, 1.0 / (model.s + 1), 0.0)
    if isinstance(model, Geometric):
        return (1.0 - model.theta) * model.theta ** j
    if isinstance(model, TriangularDecreasing):
        total = (model.s + 1) * (model.s + 2) / 2.0
        return np.where(j <= model.s, (model.s + 1 - j) / total, 0.0)
    if isinstance(model, TriangularIncreasing):
        total = (model.s + 1) * (model.s + 2) / 2.0
        return np.where(j <= model.s, (j + 1) / total, 0.0)
    if isinstance(model, NegativeBinomial):
        from scipy.stats import nbinom

        return nbinom.pmf(j, model.r, 1.0 - model.theta)
    if isinstance(model, Poisson):
        log_p = j * math.log(model.lam) - _log_factorial(j) - model.lam
        return np.clip(np.exp(log_p), 0.0, 1.0)
    if isinstance(model, Mixture):
        out = np.zeros(length)
        for w, comp in model.components:
            out += w * pmf_values(comp, length)
        return out
    raise TypeError(f"not a model: {model!r}")


def _log_factorial(k: np.ndarray) -> np.ndarray:
    """``log(k!)`` for an int64 array ``k >= 0``, bitwise equal to
    ``scipy.special.gammaln(k + 1)``.

    A port of cephes ``lgam`` at the integer ``x = k + 1``: below 13 the log
    of the product ``(x - 1)(x - 2)...2``; from 13 Stirling's
    ``(x - 0.5) log x - x + log sqrt(2 pi)`` plus ``polevl(1/x**2, A, 4) / x``,
    a three-term correction from 1000, and none past 1e8
    (:func:`_stirling`). The logs are libm's (``math.log``): numpy's differ
    from them in the last bit. Runs in blocks of ``_LOG_BLOCK`` values, so
    the Python floats the logs pass through stay few.
    """
    out = np.empty(k.shape)
    for at in range(0, k.size, _LOG_BLOCK):
        part = k[at : at + _LOG_BLOCK]
        x = (part + 1).astype(float)
        q, series, three_term = _stirling(x, np.fromiter(map(math.log, x.tolist()), float, x.size))
        q = np.where(x > 1e8, q, q + np.where(x >= 1000.0, three_term, series))
        out[at : at + _LOG_BLOCK] = np.where(x < 13.0, _LOG_FACTORIAL_SMALL[np.minimum(part, 11)], q)
    return out


def _log_factorial_one(k: int) -> float:
    """:func:`_log_factorial` of the one integer ``k >= 0``, bitwise, in float
    arithmetic: the same IEEE operations without an array."""
    if k < 12:
        return float(_LOG_FACTORIAL_SMALL[k])
    x = float(k + 1)
    q, series, three_term = _stirling(x, math.log(x))
    return q if x > 1e8 else q + (three_term if x >= 1000.0 else series)


def _stirling(x, log_x):
    """Stirling's ``q`` of cephes ``lgam`` at ``x`` and its two corrections,
    ``polevl(1 / x**2, A, 4) / x`` and the three-term one, for floats or
    float arrays ``x`` with their logs ``log_x``."""
    q = (x - 0.5) * log_x - x + _LS2PI
    p = 1.0 / (x * x)
    series = _LGAM_A[0]
    for a in _LGAM_A[1:]:
        series = series * p + a
    three_term = (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p + 0.0833333333333333333333
    return q, series / x, three_term / x


def _tail_mass(model: ModelSpec, length: int) -> float:
    """Probability of values ``>= length`` under ``model``; a Poisson's is
    :func:`_poisson_tail`."""
    if isinstance(model, UniformRange):
        return max(model.s + 1 - length, 0) / (model.s + 1)
    if isinstance(model, Geometric):
        return float(model.theta ** length)
    if isinstance(model, TriangularDecreasing):
        if length > model.s:
            return 0.0
        total = (model.s + 1) * (model.s + 2) / 2.0
        m = model.s + 1 - length
        return m * (m + 1) / 2.0 / total
    if isinstance(model, TriangularIncreasing):
        if length > model.s:
            return 0.0
        total = (model.s + 1) * (model.s + 2) / 2.0
        return (total - length * (length + 1) / 2.0) / total
    if isinstance(model, NegativeBinomial):
        from scipy.stats import nbinom

        return float(nbinom.sf(length - 1, model.r, 1.0 - model.theta))
    if isinstance(model, Poisson):
        return _poisson_tail(model.lam, length)
    if isinstance(model, Mixture):
        return float(sum(w * _tail_mass(comp, length) for w, comp in model.components))
    raise TypeError(f"not a model: {model!r}")


def _poisson_tail(lam: float, length: int) -> float:
    """Poisson(lam) probability of values ``>= length``, from one series of
    its pmf that starts at the series' largest term.

    Above the mean (``length > lam``) the series is the tail itself, summed
    upward from ``p_length``; the terms fall by ``lam / (k + 1)``. At or
    below it the series is ``p_k`` for ``k < length``, summed downward from
    ``p_{length-1}`` with the terms falling by ``k / lam``, and the tail is
    its complement, at least about 1/2. Either sum runs ``_TAIL_BLOCK``
    terms at a time and stops once the geometric bound on the rest is below
    one ulp of it.
    """
    if length <= 0:
        return 1.0
    up = length > lam
    k, step = (length, _TAIL_BLOCK) if up else (length - 1, -_TAIL_BLOCK)
    term = math.exp(k * math.log(lam) - _log_factorial_one(k) - lam)  # p_k, not yet summed
    total = 0.0
    while True:
        if up:
            run = term * np.cumprod(lam / np.arange(k + 1, k + _TAIL_BLOCK + 1))
        else:  # a last factor 0 ends the series at p_0
            run = term * np.cumprod(np.arange(k, max(k - _TAIL_BLOCK, -1), -1) / lam)
        total += term + float(np.sum(run[:-1]))
        term, k = float(run[-1]), k + step
        ratio = lam / (k + 1) if up else k / lam  # bounds every later step
        if term <= (1.0 - ratio) * _EPS * total:  # the rest is at most term / (1 - ratio)
            return total if up else 1.0 - total


def support_size(model: ModelSpec):
    """Size of the support when finite, else ``None``."""
    if isinstance(model, (UniformRange, TriangularDecreasing, TriangularIncreasing)):
        return model.s + 1
    if isinstance(model, Mixture):
        sizes = [support_size(comp) for _, comp in model.components]
        if any(s is None for s in sizes):
            return None
        return max(sizes)
    return None


def check_support(model: ModelSpec, epsilon: float) -> None:
    """Raise :class:`ParameterError` when ``model`` truncated at tail mass
    ``epsilon`` keeps more than ``MAX_SUPPORT`` points, from the support
    size or the one decision ``_tail_mass(model, MAX_SUPPORT) > epsilon``,
    without building a vector.
    """
    finite = support_size(model)
    if finite is not None and finite > MAX_SUPPORT:
        raise ParameterError(f"support of {finite} points exceeds the cap MAX_SUPPORT = {MAX_SUPPORT}")
    if finite is None and _tail_mass(model, MAX_SUPPORT) > epsilon:
        raise ParameterError(
            f"truncation at tail mass {epsilon} keeps more than the cap MAX_SUPPORT = {MAX_SUPPORT} points"
        )


def pmf_truncate(model: ModelSpec, epsilon: float) -> Pmf:
    """Shortest probability vector whose discarded tail is at most ``epsilon``.

    Finite-support models are returned exactly, with zero tail mass. A
    vector longer than ``MAX_SUPPORT`` is a :class:`ParameterError`.
    Otherwise the length is found by doubling and then bisection on
    ``_tail_mass(model, length) <= epsilon``, and ``tail_mass`` is that
    tail at the length found.
    """
    if not 0.0 < epsilon < 1.0:
        raise ParameterError(f"truncation epsilon must lie in (0, 1), got {epsilon!r}")
    check_support(model, epsilon)
    finite = support_size(model)
    if finite is not None:
        return Pmf(pmf_values(model, finite), tail_mass=0.0)

    hi = 1
    while (tail := _tail_mass(model, hi)) > epsilon:
        hi *= 2
    lo = max(1, hi // 2)
    while lo < hi:
        mid = (lo + hi) // 2
        if (mid_tail := _tail_mass(model, mid)) <= epsilon:
            hi, tail = mid, mid_tail
        else:
            lo = mid + 1
    return Pmf(pmf_values(model, hi), tail_mass=tail)


# ---------------------------------------------------------------------------
# Sampling


def sample(model: ModelSpec, n: int, seed: "int | np.random.Generator") -> FrequencyData:
    """Draw ``n`` i.i.d. values from ``model`` and return their counts.

    The one-row case of :func:`sample_stack`, with the trailing zeros of
    the row trimmed: the output has length ``max drawn value + 1`` and is a
    bit-identical function of ``(model, n, seed)``. ``seed`` is an integer,
    whose stream is ``substream(seed)``, or a ``numpy.random.Generator`` to
    draw from. ``n`` must be an integer: floats and bools raise
    ``ValueError`` rather than being truncated.
    """
    rng = seed if isinstance(seed, np.random.Generator) else substream(seed)
    counts = sample_stack(model, n, iter((rng,)), 1)[0]
    return FrequencyData(counts[: np.flatnonzero(counts)[-1] + 1])


def sample_stack(model: ModelSpec, n: int, streams, rows: int) -> np.ndarray:
    """The ``(rows, L)`` int64 counts of ``rows`` samples of ``n`` values
    from ``model``, row r drawn from the r-th generator taken from the
    iterator ``streams``; ``L`` is the length of the sampling table.

    Inversion sampling on the cumulative sums of the truncated probability
    vector; a uniform draw landing in the discarded tail (probability at
    most ``SAMPLING_TRUNCATION``) maps to the last retained point. The
    rows' uniforms fill one buffer of at most ``SAMPLE_CHUNK`` doubles in
    order: a fill can hold several rows, and a row longer than a fill
    continues in the next one, which draws the same values as one call, so
    memory does not grow with ``n``. Each fill is inverted through the
    model's guide table (:func:`_guide_search`) and counted by one
    ``bincount`` of ``row * L + index``. A generator is taken from
    ``streams`` only when its row starts and is done with when the next one
    is taken.
    """
    n = _as_int(n, "sample size")
    if not 1 <= n <= MAX_COUNT:
        raise ValueError(f"sample size must lie in [1, {MAX_COUNT}], got {n}")
    guide = _guide_table(model)
    width = guide[0].size
    counts = np.zeros((rows, width), dtype=np.int64)
    flat = counts.reshape(-1)
    total = rows * n
    u = np.empty(min(total, SAMPLE_CHUNK))
    left = 0  # draws still due from the current row's generator
    for start in range(0, total, SAMPLE_CHUNK):
        size, at, lengths = min(SAMPLE_CHUNK, total - start), 0, []
        while at < size:
            if not left:
                rng, left = next(streams), n
            take = min(left, size - at)
            rng.random(out=u[at : at + take])
            lengths.append(take)
            at, left = at + take, left - take
        idx = _guide_search(guide, u[:size])
        np.minimum(idx, width - 1, out=idx)
        idx += np.repeat(np.arange(len(lengths)) * width, lengths)
        first = start // n * width
        flat[first : first + len(lengths) * width] += np.bincount(idx, minlength=len(lengths) * width)
    return counts


def _guide(cum: np.ndarray, cap: int = SAMPLE_CHUNK) -> tuple:
    """Guide table ``(cum, m, start, first)`` of the nondecreasing table ``cum``
    (Chen and Asau's indexed search; Devroye 1986, III.2.4).

    ``m`` is the smallest power of two at or above ``4 * cum.size``, at
    most ``cap``. Bucket k covers ``[k / m, (k + 1) / m)`` and ``start[k]``
    is ``#{cum <= k / m}``, the least index a uniform in it can map to; for
    a bucket holding one table point or none, ``first[k] = cum[start[k]]``
    (``inf`` past the end) decides between ``start[k]`` and ``start[k] +
    1``. A bucket holding several points has ``start[k] = -2``, which sends
    its uniforms to ``searchsorted``.
    """
    m = min(cap, 1 << (4 * cum.size - 1).bit_length())
    edges = np.searchsorted(cum, np.arange(m + 1) / m, side="right")
    start = edges[:-1].copy()
    first = np.append(cum, np.inf)[start]
    start[np.diff(edges) > 1] = -2
    for table in (start, first):
        table.flags.writeable = False
    return cum, m, start, first


def _guide_search(guide: tuple, u: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cum, u, side="right")`` bitwise, for uniforms ``0 <= u < 1``,
    through the guide table ``guide`` of :func:`_guide`.

    With m a power of two, ``u * m`` is exact, so ``k = floor(u * m)``
    puts ``k / m <= u < (k + 1) / m`` and the answer in ``[start[k],
    start[k + 1]]``: one compare with ``first[k]`` when the bucket holds at
    most one point, one ``searchsorted`` over the rest.
    """
    cum, m, start, first = guide
    k = np.multiply(u, m, out=np.empty(u.size, np.intp), casting="unsafe")  # cast in the ufunc: one pass
    idx = start[k]
    idx += first[k] <= u
    hard = np.flatnonzero(idx < 0)
    if hard.size:
        idx[hard] = np.searchsorted(cum, u[hard], side="right")
    return idx


@functools.lru_cache(maxsize=64)
def _sampling_table(model: ModelSpec) -> np.ndarray:
    """Read-only cumulative sums of :func:`truncated_probs`."""
    cum = np.cumsum(truncated_probs(model))
    cum.flags.writeable = False
    return cum


@functools.lru_cache(maxsize=64)
def _guide_table(model: ModelSpec) -> tuple:
    """The guide table (:func:`_guide`) of :func:`_sampling_table`."""
    return _guide(_sampling_table(model))


@functools.lru_cache(maxsize=64)
def truncated_probs(model: ModelSpec) -> np.ndarray:
    """Read-only ``pmf_truncate(model, SAMPLING_TRUNCATION).probs``, for the sampler and as
    the experiments' truth, built once per distinct model (a frozen dataclass) per process."""
    probs = pmf_truncate(model, SAMPLING_TRUNCATION).probs
    probs.flags.writeable = False
    return probs


# ---------------------------------------------------------------------------
# Named benchmark models and the textual model grammar


def builtin_models() -> dict[str, ModelSpec]:
    """The seven named benchmark distributions M1 through M7."""
    return {
        "M1": UniformRange(11),
        "M2": Mixture(((0.15, UniformRange(3)), (0.1, UniformRange(7)), (0.75, UniformRange(11)))),
        "M3": Mixture(
            ((0.25, UniformRange(1)), (0.2, UniformRange(3)), (0.15, UniformRange(5)), (0.4, UniformRange(7)))
        ),
        "M4": Geometric(0.25),
        "M5": TriangularIncreasing(11),
        "M6": NegativeBinomial(7, 0.4),
        "M7": Mixture(((Fraction(3, 8), Poisson(2)), (Fraction(5, 8), Poisson(15)))),
    }


_BUILTIN_RE = re.compile(r"^M[1-7]$")


def _parse_number(text: str) -> float:
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return float(Fraction(int(num), int(den)))
    return float(text)


def parse_model(text: str) -> ModelSpec:
    """Parse a model string.

    Accepted forms: ``M1`` .. ``M7``, ``uniform:s``, ``geom:theta``,
    ``tri-dec:s``, ``tri-inc:s``, ``nbin:r,theta``, ``pois:lambda`` and
    ``mix:w1*spec1+w2*spec2+...`` where each spec is any of the non-mixture
    forms and weights may be decimals or simple fractions like ``3/8``.
    A model whose support truncated for sampling exceeds ``MAX_SUPPORT``
    is a :class:`ParameterError`.
    """
    model = _parse_spec(text)
    check_support(model, SAMPLING_TRUNCATION)
    return model


def _parse_spec(text: str) -> ModelSpec:
    text = text.strip()
    if _BUILTIN_RE.match(text):
        return builtin_models()[text]
    head, sep, rest = text.partition(":")
    if not sep:
        raise ValueError(f"unknown model string {text!r}")
    head = head.strip().lower()
    try:
        if head == "uniform":
            return UniformRange(int(rest))
        if head == "geom":
            return Geometric(_parse_number(rest))
        if head == "tri-dec":
            return TriangularDecreasing(int(rest))
        if head == "tri-inc":
            return TriangularIncreasing(int(rest))
        if head == "nbin":
            r, theta = rest.split(",")
            return NegativeBinomial(int(r), _parse_number(theta))
        if head == "pois":
            return Poisson(_parse_number(rest))
        if head == "mix":
            components = []
            for part in rest.split("+"):
                w, _, spec = part.partition("*")
                if not spec:
                    raise ValueError(f"mixture component {part!r} must look like weight*spec")
                components.append((_parse_number(w), _parse_spec(spec)))
            return Mixture(tuple(components))
    except ParameterError:
        raise
    except (ZeroDivisionError, OverflowError) as exc:
        raise ParameterError(f"cannot parse model string {text!r}: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"cannot parse model string {text!r}: {exc}") from exc
    raise ValueError(f"unknown model string {text!r}")
