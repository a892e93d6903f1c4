"""Multi-index bookkeeping for the hierarchy of auxiliary operators.

An index is a pair of vectors ``(n, m)`` of non-negative integers, one entry
per damped mode, stored internally as the flat tuple ``n + m`` of length
``2 * n_modes``.  The triangular truncation keeps indices with total depth
``sum(n) + sum(m) <= k_max``.  Enumeration is in lexicographic order of the
flat tuple, which places the physical index ``(0, ..., 0)`` first and, within
each depth, orders indices lexicographically.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence, Tuple

import numpy as np

from .errors import MatrixValidationError, SizeBudgetError

FlatIndex = Tuple[int, ...]

#: Refuse to enumerate more indices than this.
DEFAULT_INDEX_BUDGET = 2_000_000


def count(n_modes: int, k_max: int) -> int:
    """Number of retained indices: ``C(2 * n_modes + k_max, k_max)``.

    Evaluated exactly; values beyond the 64-bit range raise
    :class:`SizeBudgetError` instead of wrapping.
    """
    if n_modes < 1:
        raise MatrixValidationError("n_modes must be >= 1")
    if k_max < 0:
        raise MatrixValidationError("k_max must be >= 0")
    value = math.comb(2 * n_modes + k_max, k_max)
    if value > 2**63 - 1:
        raise SizeBudgetError(f"index count {value} exceeds the 64-bit range")
    return value


def _compositions(length: int, budget: int) -> Iterator[FlatIndex]:
    """Tuples of ``length`` non-negative ints with sum <= budget, in lex order."""
    if length == 0:
        yield ()
        return
    for first in range(budget + 1):
        for rest in _compositions(length - 1, budget - first):
            yield (first,) + rest


class HierarchySpace:
    """Enumerated index set with a vectorized rank lookup; ``indices[r]`` has rank ``r``."""

    __slots__ = ("n_modes", "k_max", "indices", "_tails")

    def __init__(self, n_modes: int, k_max: int, indices: Sequence[FlatIndex]):
        self.n_modes = n_modes
        self.k_max = k_max
        self.indices: Tuple[FlatIndex, ...] = tuple(indices)
        # _tails[i, b + 1]: tuples of length 2 * n_modes - i with sum <= b, for b = -1..k_max.
        width = 2 * n_modes
        self._tails = np.array([[math.comb(width - i + b, width - i) for b in range(-1, k_max + 1)]
                                for i in range(width)], dtype=np.int64)

    def __len__(self) -> int:
        return len(self.indices)

    def ranks(self, indices) -> np.ndarray:
        """Ranks of the rows of an array of flat indices, -1 for a row outside the cut.

        A rank is counted: the indices before ``a`` that first differ at
        position ``i`` number ``tails(i, b) - tails(i, b - a_i)``, with ``b``
        the depth left before ``i``.  An array that is not a stack of
        ``2 * n_modes``-entry rows raises :class:`MatrixValidationError`.
        """
        a = np.asarray(indices, dtype=np.int64)
        if a.ndim != 2 or a.shape[1] != 2 * self.n_modes:
            raise MatrixValidationError(
                f"flat indices of {self.n_modes} modes have {2 * self.n_modes} entries, "
                f"got an array of shape {a.shape}"
            )
        after = np.clip(self.k_max - np.cumsum(a, axis=1), -1, self.k_max)
        before = np.clip(after + a, -1, self.k_max)
        columns = np.arange(a.shape[1])
        ranks = (self._tails[columns, before + 1] - self._tails[columns, after + 1]).sum(axis=1)
        inside = ((a >= 0) & (a <= self.k_max)).all(axis=1) & (a.sum(axis=1) <= self.k_max)
        return np.where(inside, ranks, -1)

    def rank(self, index: FlatIndex) -> int:
        """Rank of one flat index; one outside the cut raises :class:`MatrixValidationError`."""
        found = int(self.ranks([tuple(index)])[0])
        if found < 0:
            raise MatrixValidationError(
                f"index {tuple(index)} lies outside the hierarchy cut k_max={self.k_max}"
            )
        return found


def enumerate_indices(n_modes: int, k_max: int) -> HierarchySpace:
    """Enumerate all indices under the triangular cut, in lexicographic order."""
    total = count(n_modes, k_max)
    if total > DEFAULT_INDEX_BUDGET:
        raise SizeBudgetError(
            f"{total} indices exceed the enumeration budget {DEFAULT_INDEX_BUDGET}"
        )
    return HierarchySpace(n_modes, k_max, _compositions(2 * n_modes, k_max))
