"""Decreasing-shape vector transforms.

* :func:`grenander_blocks`, the package's one pool-adjacent-violators
  pass, finds the blocks of the nonincreasing least-squares fit of every
  row of a ``(B, D)`` stack at once: of counts for the estimators'
  Grenander fit and its leave-one-out pass, and of floats for
  :func:`isotonic_decreasing`, which projects one vector and returns its
  fit and its partition into constant blocks.
* :func:`block_means` gives the levels of such a fit from its block starts.
* :func:`rearrange_decreasing` sorts a vector, or each row of a stack,
  into nonincreasing order.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInputError

#: Blocks per cell that the rounds of :func:`grenander_blocks` may visit
#: before the rows still pooling take their vertices from the hull.
POOL_WORK_PER_CELL = 4


@dataclass(frozen=True, eq=False)
class BlockPartition:
    """Constant regions of a nonincreasing fit.

    ``boundaries[r]`` is the last index of block ``r`` (the final entry is
    ``len(v) - 1``); ``levels[r]`` is the fitted value shared by block ``r``.
    Levels are strictly decreasing across blocks, and each level equals the
    mean of the input over its block.
    """

    boundaries: np.ndarray
    levels: np.ndarray

    def __len__(self) -> int:
        return len(self.boundaries)


def isotonic_decreasing(v) -> tuple[np.ndarray, BlockPartition]:
    """Project ``v`` onto the cone of nonincreasing vectors (least squares).

    Parameters
    ----------
    v : array-like of shape (D,)
        Finite real entries.

    Returns
    -------
    fitted : ndarray of shape (D,)
        The unique minimizer of ``sum((v - f)**2)`` over nonincreasing ``f``.
        Constant at the block mean on each block; preserves ``sum(v)`` and
        stays within ``[min(v), max(v)]``. Where a block's sum would pass the
        float maximum, every level is taken from ``v`` scaled by the power
        of two :func:`grenander_blocks` uses.
    blocks : BlockPartition
        The maximal constant regions of the fit.
    """
    v = np.ascontiguousarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError("input must be one-dimensional")
    if v.size == 0:
        raise EmptyInputError("cannot project an empty vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("entries must be finite")
    blocks = grenander_blocks(v[None])
    with np.errstate(over="ignore"):
        starts, levels, widths = block_means(v[None], blocks)
    if not np.isfinite(levels).all():  # a block sum passed the float maximum
        shift = _overflow_shift(v[None])
        starts, levels, widths = block_means(np.ldexp(v, shift)[None], blocks)
        levels = np.ldexp(levels, -shift)  # a float mean of values <= m rounds to at most m
    fitted = np.repeat(levels, widths)
    boundaries = np.append(starts[1:], v.size) - 1
    return fitted, BlockPartition(boundaries=boundaries, levels=levels)


def _hull_vertices(cum: list) -> list[int]:
    """Vertices of the upper hull of the points ``(i, cum[i])``, turns strictly concave."""
    hull: list[int] = []
    for i, c in enumerate(cum):
        while len(hull) >= 2:
            a, b = hull[-1], hull[-2]
            if (c - cum[a]) * (a - b) < (cum[a] - cum[b]) * (i - a):
                break
            hull.pop()
        hull.append(i)
    return hull


def _overflow_shift(v: np.ndarray) -> int:
    """The power of two, at most 0, that scales the float ``(B, D)`` stack
    ``v`` so that ``D**2 max|v|``, which bounds its block sums and their
    cross products with block widths, stays below the float maximum."""
    d = v.shape[1]
    return min(0, 1023 - math.frexp(float(np.max(np.abs(v))))[1] - (d * d).bit_length())


def grenander_blocks(v: np.ndarray) -> np.ndarray:
    """Starts of the maximal constant blocks of the nonincreasing
    least-squares fit of every row of the ``(B, D)`` stack ``v``, as
    indices into ``v.ravel()``; every row start is one. In row b the starts
    minus ``b D``, with D appended, are the vertices V of the least concave
    majorant of the row's cumulative sums, its turns strictly concave.

    Pool-adjacent-violators on all rows at once: each round pools every
    maximal run of neighbouring blocks of a row whose means do not fall,
    tested on their sums S and widths W as ``S_k W_(k+1) <= S_(k+1) W_k``.
    Two such neighbours always share a level of the fit (a fit block's mean
    is at most that of its last part and at least that of its first), so
    when nothing is left to pool the blocks are the fit's. A row drops out
    of the rounds once it has nothing to pool, and the rows still pooling
    once the rounds have visited ``POOL_WORK_PER_CELL`` blocks per cell (a
    cascade that pools one block per round) take V from the hull.

    On integers the products stay below ``(D + 1) T``, T the largest row
    total, so they are exact int64 while that is at most 2**53; past that
    bound the hull on Python ints gives V. On floats they stay below
    ``D**2 max|v|``, and a stack where that could overflow is first scaled
    by a power of two.
    """
    rows, d = v.shape
    starts, hulled = [], range(rows)
    if v.dtype.kind == "f":
        shift = _overflow_shift(v)
        v = np.ldexp(v, shift) if shift else v
    else:
        v = v.astype(np.int64, copy=False)
    if v.dtype.kind == "f" or (d + 1) * int(v.sum(axis=1).max()) <= 2**53:
        flat = v.ravel()
        pool = flat[:-1] <= flat[1:]  # the first round, on blocks of one point
        pool[d - 1 :: d] = False
        start = np.flatnonzero(np.append(True, ~pool))
        sums, widths = np.add.reduceat(flat, start), np.diff(start, append=flat.size)
        budget = (POOL_WORK_PER_CELL - 1) * flat.size
        while True:
            row = start // d
            pool = (sums[:-1] * widths[1:] <= sums[1:] * widths[:-1]) & (row[1:] == row[:-1])
            live = np.zeros(rows, dtype=bool)
            live[row[1:][pool]] = True
            live = live[row]
            starts.append(start[~live])
            if budget <= 0 or not pool.any():
                break
            budget -= start.size
            heads = np.flatnonzero(np.append(True, ~pool))
            live = live[heads]
            start = start[heads][live]
            sums = np.add.reduceat(sums, heads)[live]
            widths = np.add.reduceat(widths, heads)[live]
        hulled = sorted(set((start[live] // d).tolist()))  # np.unique would load numpy.ma
    for b in hulled:
        starts.append(b * d + np.array(_hull_vertices([0] + np.cumsum(v[b]).tolist())[:-1]))
    return np.sort(np.concatenate(starts), kind="stable")  # merges the sorted runs


def block_means(v: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Starts, levels and widths of the blocks of a nonincreasing fit of
    every row of the ``(B, D)`` stack ``v``, given the starts of its blocks
    as indices into ``v.ravel()`` (every row start among them).

    Each level is the block mean ``np.add.reduceat(v, starts) / widths``,
    with pairwise summation over the block alone, so a row's levels do not
    depend on the other rows. Neighbours of one row whose float levels do
    not fall are merged until they do, so the blocks are maximal.
    """
    flat, d = v.ravel(), v.shape[1]
    while True:
        widths = np.diff(np.append(starts, flat.size))
        levels = np.add.reduceat(flat, starts) / widths
        strict = np.append(True, levels[1:] < levels[:-1]) | (starts % d == 0)
        if strict.all():
            return starts, levels, widths
        starts = starts[strict]


def rearrange_decreasing(v) -> np.ndarray:
    """Return the values of ``v`` sorted into nonincreasing order, or each
    row of a ``(B, D)`` stack of vectors sorted on its own.

    Ties keep the lower original index first; since equal values are
    indistinguishable in the output this only fixes the implied permutation.
    """
    v = np.ascontiguousarray(v, dtype=float)
    if v.ndim not in (1, 2):
        raise ValueError("input must be a vector or a (B, D) stack of vectors")
    if v.size == 0:
        raise EmptyInputError("cannot rearrange an empty vector")
    return np.sort(v)[..., ::-1].copy()
