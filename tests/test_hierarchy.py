import math
from collections import deque

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


def test_neighbor_moves():
    space = enumerate_indices(2, 2)
    start = (0, 0, 0, 0)
    up = space.neighbor(start, 0, "n", +1)
    assert space.indices[up] == (1, 0, 0, 0)
    assert space.neighbor(start, 0, "m", -1) is None  # below zero
    deep = (1, 1, 0, 0)
    assert space.neighbor(deep, 1, "m", +1) is None  # crosses the cut
    # opposite move returns to the start
    back = space.neighbor(space.indices[up], 0, "n", -1)
    assert space.indices[back] == start


def test_neighbor_validation():
    space = enumerate_indices(1, 1)
    with pytest.raises(MatrixValidationError):
        space.neighbor((0, 0), 0, "x", 1)
    with pytest.raises(MatrixValidationError):
        space.neighbor((0, 0), 5, "n", 1)


@pytest.mark.parametrize("m,k", [(1, 4), (2, 3), (3, 2)])
def test_bfs_connectivity(m, k):
    """Every enumerated index is reachable from the origin by unit moves."""
    space = enumerate_indices(m, k)
    seen = {0}
    queue = deque([0])
    while queue:
        rank = queue.popleft()
        idx = space.indices[rank]
        for mode in range(m):
            for part in ("n", "m"):
                for delta in (+1, -1):
                    nb = space.neighbor(idx, mode, part, delta)
                    if nb is not None and nb not in seen:
                        seen.add(nb)
                        queue.append(nb)
    assert seen == set(range(len(space)))
