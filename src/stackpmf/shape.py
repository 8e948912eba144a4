"""Decreasing-shape vector transforms.

Two primitives used by every constrained estimator in the package:

* :func:`isotonic_decreasing` computes the least-squares projection of a
  vector onto the cone of nonincreasing vectors with SciPy's
  pool-adjacent-violators algorithm (PAVA), returning both the fitted
  vector and its partition into constant blocks.
* :func:`rearrange_decreasing` sorts a vector, or each row of a stack,
  into nonincreasing order.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import isotonic_regression

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

    # SciPy's PAVA fixes the partition; equal-level neighbours it leaves
    # apart are merged so the blocks are maximal. Levels are block means
    # recomputed with pairwise summation.
    starts = isotonic_regression(v, increasing=False).blocks[:-1]
    while True:
        widths = np.diff(np.append(starts, v.size))
        levels = np.add.reduceat(v, starts) / widths
        strict = np.append(True, levels[1:] < levels[:-1])
        if strict.all():
            break
        starts = starts[strict]
    fitted = np.repeat(levels, widths)
    boundaries = np.append(starts[1:], v.size) - 1
    return fitted, BlockPartition(boundaries=boundaries, levels=levels)


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
