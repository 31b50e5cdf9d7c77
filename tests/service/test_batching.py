"""Micro-batching policy: compatibility keys and bitwise-identical merging."""

from __future__ import annotations

import numpy as np
import pytest

from repro.parallel.pencil import PencilDecomposition
from repro.parallel.transport import DistributedTransportSolver
from repro.service.jobs import RegistrationJobSpec, TransportJobSpec
from repro.service.queue import batch_key
from repro.spectral.grid import Grid

from tests.fixtures import make_grid, smooth_scalar_field, smooth_velocity_field


def _spec(grid, seed=5, **kwargs):
    velocity = smooth_velocity_field(grid, seed=seed)
    moving = smooth_scalar_field(grid, seed=seed + 100)
    return TransportJobSpec(velocity=velocity, moving=moving, grid=grid, **kwargs)


@pytest.fixture(scope="module")
def grid() -> Grid:
    return make_grid(8)


class TestBatchKey:
    def test_register_jobs_are_unbatchable(self, grid):
        spec = RegistrationJobSpec(
            template=smooth_scalar_field(grid, seed=1),
            reference=smooth_scalar_field(grid, seed=2),
        )
        assert batch_key(spec) is None

    def test_identical_transport_specs_share_a_key(self, grid):
        assert batch_key(_spec(grid)) == batch_key(_spec(grid))

    def test_key_separates_every_ingredient(self, grid):
        base = _spec(grid)
        assert batch_key(base) != batch_key(_spec(grid, seed=6))  # velocity
        assert batch_key(base) != batch_key(_spec(grid, num_time_steps=8))  # dt
        assert batch_key(base) != batch_key(_spec(grid, num_tasks=2))  # layout
        other_grid = make_grid(10)
        assert batch_key(base) != batch_key(_spec(other_grid))  # grid


@pytest.mark.mpi
class TestBitwiseMerging:
    def test_batched_solve_matches_serial_bitwise(self, grid):
        """The property the batch key must guarantee: merging == serial."""
        velocity = smooth_velocity_field(grid, seed=9)
        movings = [smooth_scalar_field(grid, seed=s) for s in (20, 21, 22)]
        deco = PencilDecomposition.from_num_tasks(grid.shape, 4)

        serial = [
            DistributedTransportSolver(grid, deco, num_time_steps=4).solve_state(
                velocity, moving
            )
            for moving in movings
        ]
        batched = DistributedTransportSolver(grid, deco, num_time_steps=4).solve_state_many(
            velocity, np.stack(movings, axis=0)
        )
        for expected, got in zip(serial, batched):
            np.testing.assert_array_equal(expected, got)
