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
from typing import Iterator, Optional, Sequence, Tuple

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
    """Enumerated index set with a rank map and neighbor lookup; ``indices[r]`` has rank ``r``."""

    __slots__ = ("n_modes", "k_max", "indices", "_rank")

    def __init__(self, n_modes: int, k_max: int, indices: Sequence[FlatIndex]):
        self.n_modes = n_modes
        self.k_max = k_max
        self.indices: Tuple[FlatIndex, ...] = tuple(indices)
        self._rank = {idx: r for r, idx in enumerate(self.indices)}

    def __len__(self) -> int:
        return len(self.indices)

    def rank(self, index: FlatIndex) -> int:
        return self._rank[tuple(index)]

    def swapped(self, index: FlatIndex) -> FlatIndex:
        """The index with the ``n`` and ``m`` parts exchanged."""
        return index[self.n_modes :] + index[: self.n_modes]

    def neighbor(
        self, index, mode: int, part: str, delta: int
    ) -> Optional[int]:
        """Rank of the index shifted by ``delta`` in one slot, or ``None``.

        ``index`` may be a flat tuple or a rank.  ``part`` selects the ``n``
        or ``m`` vector.  ``None`` marks moves leaving the non-negative
        orthant or crossing the truncation boundary.
        """
        if isinstance(index, int):
            index = self.indices[index]
        if part not in ("n", "m"):
            raise MatrixValidationError("part must be 'n' or 'm'")
        if not 0 <= mode < self.n_modes:
            raise MatrixValidationError(f"mode {mode} out of range")
        pos = mode if part == "n" else self.n_modes + mode
        value = index[pos] + delta
        if value < 0:
            return None
        shifted = index[:pos] + (value,) + index[pos + 1 :]
        return self._rank.get(shifted)


def enumerate_indices(n_modes: int, k_max: int) -> HierarchySpace:
    """Enumerate all indices under the triangular cut, in lexicographic order."""
    total = count(n_modes, k_max)
    if total > DEFAULT_INDEX_BUDGET:
        raise SizeBudgetError(
            f"{total} indices exceed the enumeration budget {DEFAULT_INDEX_BUDGET}"
        )
    return HierarchySpace(n_modes, k_max, _compositions(2 * n_modes, k_max))
