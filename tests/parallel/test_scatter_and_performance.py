"""Tests for the scatter interpolation plan, machine models and cost model."""

import numpy as np
import pytest

from repro.parallel.comm import SimulatedCommunicator
from repro.parallel.machines import MAVERICK, STAMPEDE, MachineSpec, get_machine
from repro.parallel.pencil import PencilDecomposition
from repro.parallel.performance import (
    KernelCostModel,
    RegistrationCostModel,
    strong_scaling_efficiency,
    weak_scaling_efficiency,
)
from repro.parallel.scatter import SCATTER_PLAN_TAG, ScatterInterpolationPlan
from repro.runtime.plan_pool import configure_plan_pool
from repro.spectral.grid import Grid
from repro.transport.semi_lagrangian import compute_departure_points

from tests.fixtures import (
    interpolate_one_field,
    make_scatter_plan,
    periodic_gather,
    smooth_scalar_field,
    smooth_velocity_field,
)

pytestmark = pytest.mark.mpi


@pytest.fixture(scope="module")
def grid():
    return Grid((12, 12, 12))


class TestScatterInterpolation:
    @pytest.mark.parametrize(
        "pgrid", [(2, 2), (1, 3), (3, 2), (1, 1), (1, 4), (4, 2), (2, 4), (4, 4)]
    )
    def test_matches_serial_catmull_rom(self, grid, pgrid, rng):
        deco, comm, points, plan = make_scatter_plan(grid, pgrid)
        field = rng.standard_normal(grid.shape)
        values = interpolate_one_field(plan, deco.scatter(field))
        for rank in range(deco.num_tasks):
            serial = periodic_gather(grid, field, points[rank])
            np.testing.assert_allclose(values[rank], serial, atol=1e-13)

    def test_semi_lagrangian_departure_points(self, grid):
        # the actual use case: departure points of the synthetic velocity
        velocity = smooth_velocity_field(grid, seed=2)
        departure = compute_departure_points(grid, velocity, dt=0.25)
        deco = PencilDecomposition(grid.shape, 2, 2)
        comm = SimulatedCommunicator(deco.num_tasks)
        local_points = [
            departure[(slice(None), *deco.local_slices(rank))].reshape(3, -1)
            for rank in range(deco.num_tasks)
        ]
        plan = ScatterInterpolationPlan(grid, deco, comm, local_points)
        field = smooth_scalar_field(grid, seed=3)
        values = interpolate_one_field(plan, deco.scatter(field))
        serial = periodic_gather(grid, field, departure)
        for rank in range(deco.num_tasks):
            expected = serial[deco.local_slices(rank)].reshape(-1)
            np.testing.assert_allclose(values[rank], expected, atol=1e-13)

    @pytest.mark.parametrize("pgrid", [(2, 2), (2, 1), (1, 2)])
    def test_points_one_ulp_from_a_block_edge(self, pgrid, rng):
        """A point one ulp below a block's upper index stays in its block.

        On 16^3 split in two along an axis the blocks end at index 8 and 16;
        shifting ``nextafter(8, 0)`` into the ghost-extended block in
        floating point rounds up to the next cell, whose stencil reads one
        plane past the ghost layer (an ``IndexError`` before the fix).
        """
        grid = Grid((16, 16, 16))
        deco = PencilDecomposition(grid.shape, *pgrid)
        comm = SimulatedCommunicator(deco.num_tasks)
        edges = np.array(
            [np.nextafter(8.0, 0.0), np.nextafter(8.0, 9.0),
             np.nextafter(16.0, 0.0), np.nextafter(16.0, 17.0)]
        )
        h = grid.spacing[0]
        coordinates = edges * h
        for _ in range(4):  # the plan divides by h again: land on the index exactly
            quotient = coordinates / h
            coordinates = np.where(
                quotient == edges, coordinates,
                np.nextafter(coordinates, np.where(quotient < edges, np.inf, -np.inf)),
            )
        np.testing.assert_array_equal(coordinates / h, edges)
        # every combination of edge coordinates along the two decomposed axes
        x, y = np.meshgrid(coordinates, coordinates, indexing="ij")
        z = np.linspace(0.3, 15.7, x.size) * h
        points = [np.stack([x.ravel(), y.ravel(), z]) for _ in range(deco.num_tasks)]
        plan = ScatterInterpolationPlan(grid, deco, comm, points)
        field = rng.standard_normal(grid.shape)
        values = interpolate_one_field(plan, deco.scatter(field))
        for rank in range(deco.num_tasks):
            np.testing.assert_allclose(
                values[rank], periodic_gather(grid, field, points[rank]), rtol=0, atol=1e-12
            )

    def test_communication_is_recorded(self, grid, rng):
        deco, comm, points, plan = make_scatter_plan(grid, (2, 3))
        interpolate_one_field(plan, deco.scatter(rng.standard_normal(grid.shape)))
        assert comm.ledger.bytes("interp_scatter") > 0
        assert comm.ledger.bytes("interp_return") > 0
        assert comm.ledger.bytes("ghost_exchange") > 0

    def test_point_counts_cover_all_points(self, grid):
        deco, comm, points, plan = make_scatter_plan(grid, (2, 2), points_per_rank=100)
        assert sum(plan.local_point_counts()) == 4 * 100

    def test_point_counts_are_the_points_each_owner_received(self, grid):
        deco, comm, points, plan = make_scatter_plan(grid, (2, 3), points_per_rank=100)
        spacing = np.asarray(grid.spacing)[:, None]
        cells = np.floor(np.mod(np.concatenate(points, axis=1) / spacing, 12.0))
        owners = deco.owner_of_indices(cells.astype(np.intp) % 12)
        assert plan.local_point_counts() == [int(np.sum(owners == rank)) for rank in range(6)]

    def test_operators_are_planned_once_per_velocity(self, grid, rng, plan_pool):
        """Repeated interpolate calls never rebuild the owners' operators."""
        deco, comm, points, plan = make_scatter_plan(grid, (2, 2), seed=11)
        builds_after_init = plan.operator_builds
        # one operator per owner, each over the points it received
        assert builds_after_init == 4
        assert (plan_pool.stats.hits, plan_pool.stats.misses) == (0, 1)
        for _ in range(3):
            interpolate_one_field(plan, deco.scatter(rng.standard_normal(grid.shape)))
        assert plan.operator_builds == builds_after_init

    def test_replanning_same_points_is_one_whole_plan_hit(self, grid, plan_pool):
        """The tentpole no-replan pin: re-creating a plan for unchanged
        departure points is a *single* warm pool hit — no routing-table
        rebuild, no operator builds, no ``alltoallv`` point scatter."""
        make_scatter_plan(grid, (2, 2), seed=12)
        deco, comm, points, warm = make_scatter_plan(grid, (2, 2), seed=12)
        assert warm.operator_builds == 0
        assert (plan_pool.stats.hits, plan_pool.stats.misses) == (1, 1)
        # zero alltoallv setup: the warm plan's own communicator shipped
        # no departure points at all
        assert comm.ledger.bytes("interp_scatter") == 0
        # and the warm plans still interpolate correctly
        field = smooth_scalar_field(grid, seed=13)
        values = interpolate_one_field(warm, deco.scatter(field))
        for rank in range(deco.num_tasks):
            serial = periodic_gather(grid, field, points[rank])
            np.testing.assert_allclose(values[rank], serial, atol=1e-13)

    def test_pool_stats_include_scatter_entries(self, grid, plan_pool):
        """Scatter plans are first-class citizens of the pool accounting."""
        make_scatter_plan(grid, (2, 2), seed=14)
        make_scatter_plan(grid, (2, 2), seed=14)  # warm
        (key,) = plan_pool.keys()
        assert key[0] == SCATTER_PLAN_TAG
        stats = plan_pool.stats
        assert stats.entries == 1
        assert stats.hits == 1 and stats.misses == 1
        assert stats.current_bytes > 0

    def test_pooled_entry_bytes_match_plan_payload(self, grid, plan_pool):
        """bytes_used of the scatter entry == the plan data's own nbytes."""
        make_scatter_plan(grid, (2, 2), seed=15)
        (key,) = plan_pool.keys()
        data = plan_pool.get(key, lambda: pytest.fail("the entry must be resident"))
        assert plan_pool.current_bytes == data.nbytes

    def test_disabled_pool_always_rebuilds(self, grid, plan_pool):
        make_scatter_plan(grid, (2, 2), seed=16)
        configure_plan_pool(0)
        try:
            deco, comm, points, plan = make_scatter_plan(grid, (2, 2), seed=16)
        finally:
            configure_plan_pool(None)
        assert (plan_pool.stats.hits, plan_pool.stats.misses) == (0, 2)
        assert plan.operator_builds > 0
        assert comm.ledger.bytes("interp_scatter") > 0

    def test_validates_inputs(self, grid):
        deco = PencilDecomposition(grid.shape, 2, 2)
        comm = SimulatedCommunicator(4)
        with pytest.raises(ValueError):
            ScatterInterpolationPlan(grid, deco, comm, [np.zeros((3, 5))])
        with pytest.raises(ValueError):
            ScatterInterpolationPlan(grid, deco, comm, [np.zeros((2, 5))] * 4)
        plan = ScatterInterpolationPlan(grid, deco, comm, [np.zeros((3, 5))] * 4)
        with pytest.raises(ValueError):
            interpolate_one_field(plan, [np.zeros((6, 6, 12))] * 3)


def stacked_blocks(deco, fields):
    """Every rank's ``(B, n1, n2, n3)`` stack of a global ``(B, N1, N2, N3)`` stack."""
    per_field = [deco.scatter(field) for field in fields]
    return [np.stack([blocks[rank] for blocks in per_field]) for rank in range(deco.num_tasks)]


class TestBatchedScatterInterpolation:
    """The PR-5 distributed pin: one ghost round / one return per batch."""

    def test_batched_matches_per_field_bitwise(self, grid, rng):
        deco, comm, points, plan = make_scatter_plan(grid, (2, 3), seed=21)
        fields = np.stack([rng.standard_normal(grid.shape) for _ in range(4)])
        per_field = [interpolate_one_field(plan, deco.scatter(field)) for field in fields]
        batched = plan.interpolate_many(stacked_blocks(deco, fields))
        for rank in range(deco.num_tasks):
            assert batched[rank].shape == (4, points[rank].shape[1])
            for b in range(4):
                np.testing.assert_array_equal(batched[rank][b], per_field[b][rank])

    def test_exactly_one_exchange_round_per_batch(self, grid, rng):
        """The ledger byte-accounting pin: a stacked batch performs exactly
        one ghost-exchange round and one return alltoallv — the message
        counts of a single field, with B times the payload."""
        batch = 3
        field = rng.standard_normal(grid.shape)
        deco, scalar_comm, points, scalar_plan = make_scatter_plan(grid, (2, 2), seed=22)
        scalar_comm.ledger.reset()  # drop the construction traffic
        interpolate_one_field(scalar_plan, deco.scatter(field))
        scalar = scalar_comm.ledger.summary()

        _, batched_comm, _, batched_plan = make_scatter_plan(grid, (2, 2), seed=22)
        batched_comm.ledger.reset()
        batched_plan.interpolate_many(stacked_blocks(deco, np.repeat(field[None], batch, axis=0)))
        batched = batched_comm.ledger.summary()

        for category in ("ghost_exchange", "interp_return"):
            assert batched[category]["calls"] == scalar[category]["calls"]
            assert batched[category]["messages"] == scalar[category]["messages"]
            assert batched[category]["bytes"] == batch * scalar[category]["bytes"]
        assert batched["interp_return"]["calls"] == 1
        assert batched["ghost_exchange"]["calls"] == 4  # 2 axes x 2 directions
        # no other traffic: the batch reused the cached plan end to end
        assert set(batched) == {"ghost_exchange", "interp_return"}

    def test_batched_matches_serial_interpolate_many(self, grid, rng):
        deco, comm, points, plan = make_scatter_plan(grid, (2, 2), seed=24)
        fields = np.stack([rng.standard_normal(grid.shape) for _ in range(3)])
        batched = plan.interpolate_many(stacked_blocks(deco, fields))
        for rank in range(deco.num_tasks):
            expected = periodic_gather(grid, fields, points[rank])
            np.testing.assert_allclose(batched[rank], expected, atol=1e-13)

    def test_input_validation(self, grid):
        deco, comm, points, plan = make_scatter_plan(grid, (2, 2), seed=25)
        with pytest.raises(ValueError, match="block stacks"):
            plan.interpolate_many([np.zeros((1, 6, 6, 12))] * 3)
        with pytest.raises(ValueError, match="must be"):
            plan.interpolate_many([np.zeros((6, 6, 12))] * 4)


class TestMachines:
    def test_lookup(self):
        assert get_machine("maverick") is MAVERICK
        assert get_machine("STAMPEDE") is STAMPEDE
        with pytest.raises(ValueError):
            get_machine("frontier")

    def test_nodes_for_tasks(self):
        assert MAVERICK.nodes_for_tasks(16) == 1
        assert MAVERICK.nodes_for_tasks(17) == 2
        assert STAMPEDE.nodes_for_tasks(2048) == 1024

    def test_validation(self):
        with pytest.raises(ValueError):
            MachineSpec("bad", 1, 1, -1.0, 1.0, 1.0, 1.0)


class TestKernelCostModel:
    def test_costs_are_positive_and_scale_with_grid(self):
        small = KernelCostModel((64, 64, 64), 16, MAVERICK)
        large = KernelCostModel((128, 128, 128), 16, MAVERICK)
        assert 0 < small.fft_execution_time() < large.fft_execution_time()
        assert 0 < small.interpolation_execution_time() < large.interpolation_execution_time()

    def test_single_task_has_no_communication(self):
        model = KernelCostModel((64, 64, 64), 1, MAVERICK)
        assert model.fft_communication_time() == 0.0
        assert model.interpolation_communication_time() == 0.0

    def test_matvec_cost_structure(self):
        model = KernelCostModel((64, 64, 64), 16, MAVERICK)
        cost = model.matvec_cost(4)
        assert set(cost) == {
            "fft_execution",
            "fft_communication",
            "interp_execution",
            "interp_communication",
        }
        assert cost["fft_execution"] == pytest.approx(32 * model.fft_execution_time())

    def test_memory_model(self):
        model = KernelCostModel((128, 128, 128), 16, MAVERICK)
        # (2*4+5) * N^3/p * 8 bytes
        assert model.memory_per_task_bytes(4) == pytest.approx(13 * 128**3 / 16 * 8)


class TestRegistrationCostModel:
    def test_breakdown_adds_up(self):
        model = RegistrationCostModel((128, 128, 128), 16, MAVERICK)
        b = model.breakdown()
        assert b.time_to_solution == pytest.approx(b.kernel_sum + b.other)
        assert b.num_nodes == 1

    def test_strong_scaling_improves_time(self):
        times = [
            RegistrationCostModel((128, 128, 128), p, MAVERICK).breakdown().time_to_solution
            for p in (16, 32, 64, 256)
        ]
        assert all(a > b for a, b in zip(times, times[1:]))

    def test_calibration_against_table1_run3(self):
        """Model within 50% of the paper's run #3 on every reported column."""
        b = RegistrationCostModel(
            (128, 128, 128), 16, MAVERICK, num_newton_iterations=2, num_hessian_matvecs=2
        ).breakdown()
        paper = {
            "time_to_solution": 15.2,
            "fft_communication": 1.73,
            "fft_execution": 1.35,
            "interp_communication": 1.84,
            "interp_execution": 6.66,
        }
        model = b.as_dict()
        for key, value in paper.items():
            assert abs(model[key] - value) / value < 0.5, key

    def test_efficiency_helpers(self):
        breakdowns = [
            RegistrationCostModel((128, 128, 128), p, MAVERICK).breakdown()
            for p in (16, 32, 64)
        ]
        strong = strong_scaling_efficiency(breakdowns)
        assert strong[0] == pytest.approx(1.0)
        assert all(0 < e <= 1.05 for e in strong)
        weak = weak_scaling_efficiency(breakdowns)
        assert weak[0] == pytest.approx(1.0)
        assert strong_scaling_efficiency([]) == []
        assert weak_scaling_efficiency([]) == []
