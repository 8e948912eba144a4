"""Decreasing-shape vector transforms.

Two primitives used by every constrained estimator in the package, and
the block means they share with the estimators' isotonic fit:

* :func:`isotonic_decreasing` computes the least-squares projection of a
  float vector onto the cone of nonincreasing vectors with SciPy's
  pool-adjacent-violators algorithm (PAVA), returning both the fitted
  vector and its partition into constant blocks. ``scipy.optimize`` is
  imported on its first call: the estimators fit count vectors with their
  own exact integer PAVA (``estimators.grenander_blocks``), so no fit
  loads it.
* :func:`rearrange_decreasing` sorts a vector, or each row of a stack,
  into nonincreasing order.
* :func:`block_means` gives the levels of a nonincreasing fit of each row
  of a stack from the starts of its blocks.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyInputError


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
        stays within ``[min(v), max(v)]``.
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
    from scipy.optimize import isotonic_regression

    # SciPy's PAVA fixes the partition; block_means merges the equal-level
    # neighbours it leaves apart
    starts, levels, widths = block_means(v[None], isotonic_regression(v, increasing=False).blocks[:-1])
    fitted = np.repeat(levels, widths)
    boundaries = np.append(starts[1:], v.size) - 1
    return fitted, BlockPartition(boundaries=boundaries, levels=levels)


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
