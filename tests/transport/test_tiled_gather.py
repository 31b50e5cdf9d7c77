"""Tests for the tiled (out-of-core) gather mode and its FieldSource layer.

The tentpole contract: handing the executor a :class:`FieldSource` instead
of a resident flattened stack changes only *where the field bytes live*
(per-chunk plane tiles vs the whole array), never the gathered bits — on
every backend.  The 96^3 pin shows the peak resident field tile is bounded
by the chunk size, not the grid size.
"""

import numpy as np
import pytest

from repro.spectral.grid import Grid
from repro.transport.interpolation import PeriodicInterpolator
from repro.transport.kernels import (
    STENCIL_CHUNK,
    SUPPORTED_METHODS,
    ArrayFieldSource,
    FieldSource,
    as_field_source,
    build_stencil_plan,
    execute_stencil_plan,
)
from repro.transport.semi_lagrangian import SemiLagrangianStepper

from tests.fixtures import (
    interp_backend_params,
    make_grid,
    random_points,
    smooth_scalar_field,
    smooth_velocity_field,
)

BACKENDS = interp_backend_params()


@pytest.fixture(scope="module")
def grid():
    return make_grid(12)


@pytest.fixture(scope="module")
def fields(grid):
    rng = np.random.default_rng(5)
    return rng.standard_normal((3, *grid.shape))


@pytest.fixture(scope="module")
def points():
    return random_points(900, seed=6)


class TestArrayFieldSource:
    def test_shape_and_batch(self, fields):
        source = ArrayFieldSource(fields)
        assert tuple(source.shape) == fields.shape[1:]
        assert source.num_fields == 3
        assert isinstance(source, FieldSource)

    def test_single_field_promoted(self, fields):
        source = ArrayFieldSource(fields[0])
        assert source.num_fields == 1
        assert tuple(source.shape) == fields.shape[1:]

    def test_bad_rank_rejected(self):
        with pytest.raises(ValueError, match="stacked"):
            ArrayFieldSource(np.zeros((4, 4)))

    def test_load_planes_returns_float64_tiles_and_accounts(self, fields):
        source = ArrayFieldSource(fields.astype(np.float32))
        tile = source.load_planes(np.array([0, 3]))
        assert tile.dtype == np.float64
        assert tile.shape == (3, 2, *fields.shape[2:])
        assert source.loads == 1
        assert source.planes_loaded == 2
        assert source.peak_tile_bytes == tile.nbytes

    def test_as_field_source_passthrough(self, fields):
        source = ArrayFieldSource(fields)
        assert as_field_source(source) is source
        assert isinstance(as_field_source(fields), ArrayFieldSource)


class TestTiledExecutorBitwise:
    @pytest.mark.parametrize("method", SUPPORTED_METHODS)
    def test_tiled_matches_resident(self, method, grid, fields, points):
        coords = PeriodicInterpolator(grid, method).to_index_coordinates(points)
        plan = build_stencil_plan(grid.shape, coords, method)
        flat = np.ascontiguousarray(fields.reshape(3, -1), dtype=np.float64)
        resident = execute_stencil_plan(flat, plan)
        tiled = execute_stencil_plan(ArrayFieldSource(fields), plan)
        np.testing.assert_array_equal(tiled, resident)

    @pytest.mark.parametrize("method", SUPPORTED_METHODS)
    def test_tiled_matches_resident_non_periodic_ghost_block(self, method):
        rng = np.random.default_rng(8)
        block = rng.standard_normal((12, 11, 13))
        coords = rng.uniform(2.0, 8.0, size=(3, 400))
        plan = build_stencil_plan(block.shape, coords, method, periodic=False)
        resident = execute_stencil_plan(block.reshape(1, -1), plan)
        tiled = execute_stencil_plan(ArrayFieldSource(block), plan)
        np.testing.assert_array_equal(tiled, resident)

    def test_tiled_is_bitwise_independent_of_chunk_and_workers(self, grid, fields, points):
        coords = PeriodicInterpolator(grid, "catmull_rom").to_index_coordinates(points)
        plan = build_stencil_plan(grid.shape, coords, "catmull_rom")
        reference = execute_stencil_plan(ArrayFieldSource(fields), plan)
        for chunk, workers in ((64, 1), (200, 2), (901, 3)):
            candidate = execute_stencil_plan(
                ArrayFieldSource(fields), plan, chunk=chunk, workers=workers
            )
            np.testing.assert_array_equal(candidate, reference)


class TestTiledBackends:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("method", SUPPORTED_METHODS)
    def test_gather_from_source_matches_resident(self, backend, method, grid, fields, points):
        """Every backend, every kernel: tiled == resident, bitwise."""
        interp = PeriodicInterpolator(grid, method, backend=backend)
        plan = interp.plan(points)
        resident = interp.interpolate_many_planned(fields, plan)
        tiled = interp.interpolate_many_planned(ArrayFieldSource(fields), plan)
        np.testing.assert_array_equal(tiled, resident)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_counters_are_identical_for_tiled_gathers(self, backend, grid, fields, points):
        """Counting is frontend-owned: tiled and resident charge the same."""
        interp = PeriodicInterpolator(grid, "catmull_rom", backend=backend)
        plan = interp.plan(points)
        interp.interpolate_many_planned(fields, plan)
        resident_count = interp.points_interpolated
        interp.interpolate_many_planned(ArrayFieldSource(fields), plan)
        assert interp.points_interpolated == 2 * resident_count

    def test_source_shape_validated_by_frontend(self, grid, points):
        interp = PeriodicInterpolator(grid, "catmull_rom")
        plan = interp.plan(points)
        with pytest.raises(ValueError, match="field source"):
            interp.interpolate_many_planned(
                ArrayFieldSource(np.zeros((2, 8, 8, 8))), plan
            )


class TestTiledStepper:
    def test_step_many_accepts_a_source_for_pure_advection(self, grid):
        velocity = smooth_velocity_field(grid, seed=3)
        stepper = SemiLagrangianStepper(grid, velocity, dt=0.25)
        stack = np.stack([smooth_scalar_field(grid, seed=s) for s in (1, 2)])
        resident = stepper.step_many(stack)
        tiled = stepper.step_many(ArrayFieldSource(stack))
        np.testing.assert_array_equal(tiled, resident)

    def test_step_many_source_with_sources_rejected(self, grid):
        velocity = smooth_velocity_field(grid, seed=3)
        stepper = SemiLagrangianStepper(grid, velocity, dt=0.25)
        stack = np.stack([smooth_scalar_field(grid, seed=1)])
        with pytest.raises(ValueError, match="pure advection"):
            stepper.step_many(ArrayFieldSource(stack), sources_old=stack)


@pytest.mark.slow
class TestOutOfCoreMemoryPin:
    def test_96_cubed_tiled_field_working_set_is_tile_bounded(self):
        """The acceptance pin: the peak resident field tile of a 96^3 tiled
        gather is a few planes, bounded by the chunk size, not by the grid
        size."""
        n = 96
        grid = Grid((n, n, n))
        rng = np.random.default_rng(0)
        field = rng.standard_normal(grid.shape)
        # semi-Lagrangian access pattern: grid-ordered points displaced by
        # at most `disp` cells (bounded uniform, so the plane span is too)
        disp = 3.0
        spacing = np.asarray(grid.spacing)[:, None]
        points = grid.coordinate_stack().reshape(3, -1) + spacing * rng.uniform(
            -disp, disp, size=(3, grid.num_points)
        )
        interp = PeriodicInterpolator(grid, "catmull_rom", backend="numpy")
        coords = interp.to_index_coordinates(points)

        plan = build_stencil_plan(grid.shape, coords, "catmull_rom")
        source = ArrayFieldSource(field)
        tiled = execute_stencil_plan(source, plan)

        # field side: a chunk of grid-ordered points spans at most
        # ceil(chunk / (N2*N3)) + 1 consecutive base planes, widened by the
        # displacement bound and the 4-tap stencil window — a handful of
        # planes regardless of N1
        plane_bytes = n * n * 8
        max_planes = int(np.ceil(STENCIL_CHUNK / (n * n))) + 1 + 2 * int(np.ceil(disp)) + 4
        assert source.peak_tile_bytes <= max_planes * plane_bytes
        assert source.peak_tile_bytes < 0.2 * field.nbytes

        # bounded memory never changes the bits
        resident = execute_stencil_plan(
            np.ascontiguousarray(field.reshape(1, -1)), plan
        )
        np.testing.assert_array_equal(tiled, resident)
