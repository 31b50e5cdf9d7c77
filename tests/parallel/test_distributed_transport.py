"""Tests for the distributed semi-Lagrangian transport."""

import numpy as np
import pytest

from repro.data.synthetic import sinusoidal_template, synthetic_velocity
from repro.parallel.comm import SimulatedCommunicator
from repro.parallel.pencil import PencilDecomposition
from repro.parallel.transport import DistributedSemiLagrangian, DistributedTransportSolver
from repro.runtime.plan_pool import configure_plan_pool
from repro.spectral.grid import Grid

from tests.fixtures import (
    periodic_gather,
    rk2_departure_points,
    smooth_scalar_field,
    smooth_vector_field,
    smooth_velocity_field,
)

pytestmark = pytest.mark.mpi


@pytest.fixture(scope="module")
def grid():
    return Grid((16, 16, 16))


@pytest.fixture(scope="module")
def velocity(grid):
    return smooth_velocity_field(grid, seed=4)


def step_one(stepper, blocks):
    """One field's step: the ``B = 1`` stack of the stepper's one step method."""
    return [stack[0] for stack in stepper.step_many([block[None] for block in blocks])]


class TestDistributedSemiLagrangian:
    @pytest.mark.parametrize("pgrid", [(2, 2), (1, 4), (2, 3), (4, 2)])
    def test_departure_points_match_serial(self, grid, velocity, pgrid):
        deco = PencilDecomposition(grid.shape, *pgrid)
        stepper = DistributedSemiLagrangian(grid, deco, velocity, dt=0.25)
        # the distributed stepper still traces RK2 through its star plan
        serial = rk2_departure_points(grid, velocity, 0.25, "catmull_rom")
        for rank in range(deco.num_tasks):
            expected = serial[(slice(None), *deco.local_slices(rank))].reshape(3, -1)
            np.testing.assert_allclose(stepper.departure_points(rank), expected, atol=1e-13)

    @pytest.mark.parametrize("pgrid", [(2, 2), (1, 4), (4, 2)])
    def test_single_step_matches_serial(self, grid, velocity, pgrid):
        deco = PencilDecomposition(grid.shape, *pgrid)
        stepper = DistributedSemiLagrangian(grid, deco, velocity, dt=0.25)
        field = smooth_scalar_field(grid, seed=7)
        points = rk2_departure_points(grid, velocity, 0.25, "catmull_rom")
        expected = periodic_gather(grid, field, points)
        blocks = step_one(stepper, deco.scatter(field))
        np.testing.assert_allclose(deco.gather(blocks), expected, atol=1e-13)

    def test_zero_velocity_is_identity(self, grid):
        deco = PencilDecomposition(grid.shape, 2, 2)
        stepper = DistributedSemiLagrangian(grid, deco, grid.zeros_vector(), dt=0.25)
        field = smooth_scalar_field(grid, seed=8)
        blocks = step_one(stepper, deco.scatter(field))
        np.testing.assert_allclose(deco.gather(blocks), field, atol=1e-10)

    def test_negative_dt_rejected(self, grid, velocity):
        deco = PencilDecomposition(grid.shape, 2, 2)
        with pytest.raises(ValueError):
            DistributedSemiLagrangian(grid, deco, velocity, dt=-0.1)

    def test_velocity_shape_validated(self, grid):
        deco = PencilDecomposition(grid.shape, 2, 2)
        with pytest.raises(ValueError):
            DistributedSemiLagrangian(grid, deco, np.zeros(grid.shape), dt=0.1)

    def test_recreated_stepper_is_a_pool_hit_with_no_setup(self, grid, velocity, plan_pool):
        """The tentpole no-replan pin: same velocity -> zero alltoallv setup.

        A re-created distributed stepper for an unchanged velocity must get
        both of its scatter plans (the RK2 star plan and the departure plan)
        warm from the shared pool — no owner computation, no point scatter,
        no operator builds — and still step bitwise identically.
        """
        deco = PencilDecomposition(grid.shape, 2, 2)
        cold = DistributedSemiLagrangian(grid, deco, velocity, dt=0.25)
        assert (plan_pool.stats.hits, plan_pool.stats.misses) == (0, 2)
        field = smooth_scalar_field(grid, seed=9)
        expected = step_one(cold, deco.scatter(field))

        warm_comm = SimulatedCommunicator(deco.num_tasks)
        warm = DistributedSemiLagrangian(grid, deco, velocity, dt=0.25, comm=warm_comm)
        assert (plan_pool.stats.hits, plan_pool.stats.misses) == (2, 2)
        assert warm.star_plan.operator_builds == 0
        assert warm.departure_plan.operator_builds == 0
        # the warm construction shipped no departure points anywhere: its
        # only communication was interpolating v(X*) through the warm plan
        assert warm_comm.ledger.bytes("interp_scatter") == 0
        blocks = step_one(warm, deco.scatter(field))
        for rank in range(deco.num_tasks):
            np.testing.assert_array_equal(blocks[rank], expected[rank])

    def test_disabled_pool_always_rebuilds(self, grid, velocity, plan_pool):
        deco = PencilDecomposition(grid.shape, 2, 2)
        DistributedSemiLagrangian(grid, deco, velocity, dt=0.25)
        configure_plan_pool(0)
        try:
            rebuilt = DistributedSemiLagrangian(grid, deco, velocity, dt=0.25)
        finally:
            configure_plan_pool(None)
        assert (plan_pool.stats.hits, plan_pool.stats.misses) == (0, 4)
        assert rebuilt.departure_plan.operator_builds > 0

    def test_rk2_velocity_components_share_one_exchange_round(self, grid, velocity):
        """Constructing the stepper interpolates all three components of
        v(X*) through one batched round trip: 4 ghost-exchange calls (2
        axes x 2 directions) and one value return, not one round each."""
        deco = PencilDecomposition(grid.shape, 2, 2)
        comm = SimulatedCommunicator(deco.num_tasks)
        DistributedSemiLagrangian(grid, deco, velocity, dt=0.25, comm=comm)
        summary = comm.ledger.summary()
        assert summary["ghost_exchange"]["calls"] == 4
        assert summary["interp_return"]["calls"] == 1

    def test_step_many_matches_per_field_steps(self, grid, velocity):
        deco = PencilDecomposition(grid.shape, 2, 2)
        stepper = DistributedSemiLagrangian(grid, deco, velocity, dt=0.25)
        fields = [smooth_scalar_field(grid, seed=s) for s in (3, 4, 5)]
        per_field = [step_one(stepper, deco.scatter(field)) for field in fields]
        stacks = [
            np.stack([deco.scatter(field)[rank] for field in fields], axis=0)
            for rank in range(deco.num_tasks)
        ]
        batched = stepper.step_many(stacks)
        for rank in range(deco.num_tasks):
            for b in range(3):
                np.testing.assert_array_equal(batched[rank][b], per_field[b][rank])


class TestDistributedTransportSolver:
    @pytest.mark.parametrize("pgrid", [(2, 2), (1, 3), (1, 4), (4, 2)])
    def test_state_solve_matches_serial(self, pgrid):
        grid = Grid((16, 16, 16))
        template = sinusoidal_template(grid)
        velocity = synthetic_velocity(grid)
        deco = PencilDecomposition(grid.shape, *pgrid)
        distributed = DistributedTransportSolver(grid, deco, num_time_steps=4)
        result = distributed.solve_state(velocity, template)

        points = rk2_departure_points(grid, velocity, 0.25, "catmull_rom")
        expected = template
        for _ in range(4):
            expected = periodic_gather(grid, expected, points)
        np.testing.assert_allclose(result, expected, atol=1e-13)

    def test_communication_is_charged(self):
        grid = Grid((12, 12, 12))
        deco = PencilDecomposition(grid.shape, 2, 2)
        comm = SimulatedCommunicator(deco.num_tasks)
        solver = DistributedTransportSolver(grid, deco, num_time_steps=2, comm=comm)
        solver.solve_state(0.3 * smooth_vector_field(grid, seed=1), smooth_scalar_field(grid, seed=2))
        summary = comm.ledger.summary()
        assert summary["interp_scatter"]["bytes"] > 0
        assert summary["interp_return"]["bytes"] > 0
        assert summary["ghost_exchange"]["bytes"] > 0

    def test_solve_state_many_matches_per_template_solves(self):
        grid = Grid((12, 12, 12))
        deco = PencilDecomposition(grid.shape, 2, 2)
        velocity = 0.4 * smooth_vector_field(grid, seed=6)
        templates = np.stack([smooth_scalar_field(grid, seed=s) for s in (7, 8)])
        solver = DistributedTransportSolver(grid, deco, num_time_steps=3)
        batched = solver.solve_state_many(velocity, templates)
        for b in range(2):
            expected = DistributedTransportSolver(grid, deco, num_time_steps=3).solve_state(
                velocity, templates[b]
            )
            np.testing.assert_array_equal(batched[b], expected)

    def test_solve_state_many_validates_stack(self):
        grid = Grid((12, 12, 12))
        deco = PencilDecomposition(grid.shape, 2, 2)
        solver = DistributedTransportSolver(grid, deco)
        with pytest.raises(ValueError, match="stacked"):
            solver.solve_state_many(grid.zeros_vector(), np.zeros(grid.shape))

    def test_template_shape_validated(self):
        grid = Grid((12, 12, 12))
        deco = PencilDecomposition(grid.shape, 2, 2)
        solver = DistributedTransportSolver(grid, deco)
        with pytest.raises(ValueError):
            solver.solve_state(grid.zeros_vector(), np.zeros((4, 4, 4)))

    @pytest.mark.parametrize(
        "num_tasks, pgrid, smallest", [(7, "1x7", 1), (32, "4x8", 1), (64, "8x8", 1)]
    )
    def test_pencil_thinner_than_the_ghost_width_rejected(self, num_tasks, pgrid, smallest):
        grid = Grid((8, 8, 8))
        deco = PencilDecomposition.from_num_tasks(grid.shape, num_tasks)
        message = (
            f"num_tasks={num_tasks} splits the \\(8, 8, 8\\) grid over a {pgrid} process "
            f"grid whose thinnest pencil is {smallest} point"
        )
        with pytest.raises(ValueError, match=message):
            DistributedTransportSolver(grid, deco)

    @pytest.mark.parametrize("num_tasks", [9, 16])
    def test_pencils_as_wide_as_the_ghost_width_solve(self, num_tasks):
        grid = Grid((8, 8, 8))
        deco = PencilDecomposition.from_num_tasks(grid.shape, num_tasks)
        assert min(min(deco.local_shape(rank)) for rank in range(num_tasks)) == 2
        template = smooth_scalar_field(grid, seed=3)
        result = DistributedTransportSolver(grid, deco, num_time_steps=2).solve_state(
            0.3 * smooth_vector_field(grid, seed=2), template
        )
        assert result.shape == grid.shape and np.all(np.isfinite(result))

    def test_invalid_time_steps(self):
        grid = Grid((12, 12, 12))
        deco = PencilDecomposition(grid.shape, 2, 2)
        with pytest.raises(ValueError):
            DistributedTransportSolver(grid, deco, num_time_steps=0)
