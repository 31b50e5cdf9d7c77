"""Tests for repro.parallel.pencil."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.pencil import PencilDecomposition, split_axis

pytestmark = pytest.mark.mpi


class TestSplitAxis:
    def test_even_split(self):
        assert split_axis(8, 2) == [(0, 4), (4, 8)]

    def test_uneven_split(self):
        assert split_axis(10, 3) == [(0, 4), (4, 7), (7, 10)]

    def test_single_part(self):
        assert split_axis(5, 1) == [(0, 5)]

    def test_too_many_parts_rejected(self):
        with pytest.raises(ValueError):
            split_axis(3, 4)

    @given(length=st.integers(1, 100), parts=st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_partition_properties(self, length, parts):
        if parts > length:
            with pytest.raises(ValueError):
                split_axis(length, parts)
            return
        bounds = split_axis(length, parts)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == length
        # contiguous and non-empty
        for (a0, a1), (b0, b1) in zip(bounds, bounds[1:]):
            assert a1 == b0
            assert a1 > a0
        # balanced: sizes differ by at most one
        sizes = [b - a for a, b in bounds]
        assert max(sizes) - min(sizes) <= 1


class TestDecomposition:
    def test_validation(self):
        with pytest.raises(ValueError):
            PencilDecomposition((4, 4, 4), 8, 1)  # p1 > N1
        with pytest.raises(ValueError):
            PencilDecomposition((4, 4), 1, 1)

    def test_from_num_tasks_prefers_square(self):
        deco = PencilDecomposition.from_num_tasks((64, 64, 64), 16)
        assert (deco.p1, deco.p2) == (4, 4)
        deco = PencilDecomposition.from_num_tasks((64, 64, 64), 8)
        assert deco.p1 * deco.p2 == 8

    @pytest.mark.parametrize("num_tasks", [1, 2, 3, 4, 6, 8, 12, 16])
    def test_from_num_tasks_is_the_most_square_factorization(self, num_tasks):
        """``p1`` is the largest divisor of the task count not above its root."""
        deco = PencilDecomposition.from_num_tasks((64, 64, 64), num_tasks)
        assert deco.p1 * deco.p2 == num_tasks
        assert deco.p1 <= deco.p2
        assert not any(
            num_tasks % d == 0 and d * d <= num_tasks
            for d in range(deco.p1 + 1, num_tasks + 1)
        )

    def test_rank_coordinate_round_trip(self):
        deco = PencilDecomposition((8, 8, 8), 2, 3)
        for rank in range(deco.num_tasks):
            r1, r2 = deco.rank_coordinates(rank)
            assert deco.rank_of(r1, r2) == rank

    def test_rank_out_of_range(self):
        deco = PencilDecomposition((8, 8, 8), 2, 2)
        with pytest.raises(ValueError):
            deco.rank_coordinates(4)
        with pytest.raises(ValueError):
            deco.rank_of(2, 0)

    def test_local_shapes_cover_grid(self):
        deco = PencilDecomposition((9, 10, 11), 3, 2)
        total = sum(np.prod(deco.local_shape(r)) for r in range(deco.num_tasks))
        assert total == 9 * 10 * 11

    @pytest.mark.parametrize("pgrid", [(1, 1), (2, 3), (3, 2), (4, 5)])
    def test_every_point_has_exactly_one_owner(self, pgrid):
        """The local slices tile the grid and agree with ``owner_of_indices``."""
        deco = PencilDecomposition((9, 10, 11), *pgrid)
        owner = np.full(deco.global_shape, -1)
        for rank in range(deco.num_tasks):
            assert np.all(owner[deco.local_slices(rank)] == -1)
            owner[deco.local_slices(rank)] = rank
        indices = np.indices(deco.global_shape).reshape(3, -1)
        np.testing.assert_array_equal(
            deco.owner_of_indices(indices), owner.reshape(-1)
        )

    def test_axis_2_is_local(self):
        deco = PencilDecomposition((8, 12, 10), 2, 3)
        assert deco.local_slices(5) == (slice(4, 8), slice(8, 12), slice(None))
        assert deco.local_shape(5) == (4, 4, 10)


class TestScatterGather:
    @pytest.mark.parametrize("pgrid", [(1, 1), (2, 3), (3, 2), (4, 1), (1, 5)])
    def test_scatter_gather_round_trip(self, pgrid, rng):
        deco = PencilDecomposition((8, 9, 10), *pgrid)
        data = rng.standard_normal((8, 9, 10))
        blocks = deco.scatter(data)
        assert len(blocks) == deco.num_tasks
        for rank, block in enumerate(blocks):
            assert block.shape == deco.local_shape(rank)
            np.testing.assert_array_equal(block, data[deco.local_slices(rank)])
        np.testing.assert_array_equal(deco.gather(blocks), data)

    def test_scatter_validates_shape(self):
        deco = PencilDecomposition((8, 8, 8), 2, 2)
        with pytest.raises(ValueError):
            deco.scatter(np.zeros((4, 4, 4)))

    def test_gather_validates_block_count_and_shape(self):
        deco = PencilDecomposition((8, 8, 8), 2, 2)
        blocks = deco.scatter(np.zeros((8, 8, 8)))
        with pytest.raises(ValueError):
            deco.gather(blocks[:-1])
        blocks[0] = np.zeros((3, 3, 3))
        with pytest.raises(ValueError):
            deco.gather(blocks)


class TestOwnership:
    def test_owner_of_indices_matches_slices(self, rng):
        deco = PencilDecomposition((8, 9, 10), 2, 3)
        indices = np.stack(
            [
                rng.integers(0, 8, size=200),
                rng.integers(0, 9, size=200),
                rng.integers(0, 10, size=200),
            ]
        )
        owners = deco.owner_of_indices(indices)
        for point in range(indices.shape[1]):
            rank = owners[point]
            slices = deco.local_slices(rank)
            for axis in (0, 1):
                lo = slices[axis].start or 0
                hi = slices[axis].stop
                assert lo <= indices[axis, point] < hi

    def test_owner_shape_validation(self):
        deco = PencilDecomposition((8, 8, 8), 2, 2)
        with pytest.raises(ValueError):
            deco.owner_of_indices(np.zeros((2, 5), dtype=int))
