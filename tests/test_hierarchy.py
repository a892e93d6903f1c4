import math
from collections import deque

import numpy as np
import pytest

from heomspectra.errors import MatrixValidationError, SizeBudgetError
from heomspectra.hierarchy import count, enumerate_indices


def test_count_known_values():
    assert count(1, 1) == 3
    assert count(1, 2) == 6
    assert count(2, 7) == 330


def test_count_matches_binomial():
    for m in range(1, 5):
        for k in range(0, 11):
            assert count(m, k) == math.comb(2 * m + k, k)


def test_count_validation_and_overflow():
    with pytest.raises(MatrixValidationError):
        count(0, 1)
    with pytest.raises(MatrixValidationError):
        count(1, -1)
    with pytest.raises(SizeBudgetError):
        count(40, 40)


def test_enumeration_single_mode_orders():
    space = enumerate_indices(1, 1)
    assert space.indices == ((0, 0), (0, 1), (1, 0))
    space = enumerate_indices(1, 2)
    assert space.indices == ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0))


def test_enumeration_depth_zero():
    space = enumerate_indices(2, 0)
    assert space.indices == ((0, 0, 0, 0),)


def test_within_depth_ordering_is_lexicographic():
    space = enumerate_indices(1, 2)
    by_depth = {}
    for idx in space.indices:
        by_depth.setdefault(sum(idx), []).append(idx)
    assert by_depth[0] == [(0, 0)]
    assert by_depth[1] == [(0, 1), (1, 0)]
    assert by_depth[2] == [(0, 2), (1, 1), (2, 0)]


@pytest.mark.parametrize("m,k", [(m, k) for m in range(1, 5) for k in range(0, 6)])
def test_enumeration_size_and_rank_inverse(m, k):
    space = enumerate_indices(m, k)
    assert len(space) == count(m, k)
    assert space.indices[0] == (0,) * (2 * m)
    for r in range(len(space)):
        assert space.rank(space.indices[r]) == r


def test_enumeration_budget(monkeypatch):
    monkeypatch.setattr("heomspectra.hierarchy.DEFAULT_INDEX_BUDGET", 10)
    with pytest.raises(SizeBudgetError, match="8008 indices"):
        enumerate_indices(3, 10)


def moved(space, index, slot, step):
    """Rank of ``index`` moved by ``step`` in one flat slot, through the rank lookup; -1 outside."""
    shifted = np.array([index])
    shifted[0, slot] += step
    return int(space.ranks(shifted)[0])


def test_neighbor_moves():
    space = enumerate_indices(2, 2)
    start = (0, 0, 0, 0)
    up = moved(space, start, 0, +1)
    assert space.indices[up] == (1, 0, 0, 0)
    assert moved(space, start, 2, -1) == -1  # below zero
    deep = (1, 1, 0, 0)
    assert moved(space, deep, 3, +1) == -1  # crosses the cut
    # opposite move returns to the start
    back = moved(space, space.indices[up], 0, -1)
    assert space.indices[back] == start


def test_neighbor_validation():
    space = enumerate_indices(1, 1)
    with pytest.raises(MatrixValidationError):
        space.ranks(np.zeros((1, 3), dtype=int))  # a slot past the last mode
    with pytest.raises(MatrixValidationError):
        space.ranks(np.zeros(2, dtype=int))  # not an array of rows


def test_rank_outside_the_cut_names_the_index():
    space = enumerate_indices(1, 3)
    for index in ((9, 9), (2, 2), (-1, 0)):
        with pytest.raises(MatrixValidationError, match=rf"\({index[0]}, {index[1]}\).*k_max=3"):
            space.rank(index)
    with pytest.raises(MatrixValidationError):
        space.rank((0,))
    assert space.ranks([[9, 9], [-1, 0], [0, 3], [3, 0]]).tolist() == [-1, -1, 3, 9]
    assert space.ranks([[2**62, 2**62]]).tolist() == [-1]  # a depth that wraps in int64


def test_ranks_are_exact_on_many_modes():
    # 40 slots: a mixed-radix key with radix k_max + 1 = 4 needs 80 bits
    space = enumerate_indices(20, 3)
    indices = np.array(space.indices)
    assert (space.ranks(indices) == np.arange(len(space))).all()
    assert space.rank((0,) * 39 + (3,)) == 3
    assert space.rank((0,) * 38 + (1, 0)) == 4
    assert space.rank((3,) + (0,) * 39) == len(space) - 1


@pytest.mark.parametrize("m,k", [(1, 4), (2, 3), (3, 2)])
def test_bfs_connectivity(m, k):
    """Every enumerated index is reachable from the origin by unit moves."""
    space = enumerate_indices(m, k)
    seen = {0}
    queue = deque([0])
    while queue:
        rank = queue.popleft()
        idx = space.indices[rank]
        for slot in range(2 * m):
            for step in (+1, -1):
                nb = moved(space, idx, slot, step)
                if nb >= 0 and nb not in seen:
                    seen.add(nb)
                    queue.append(nb)
    assert seen == set(range(len(space)))
