"""Tests for repro.transport.kernels (the gather kernels + gather plans)."""

import numpy as np
import pytest

from repro.spectral.grid import Grid
from repro.transport.interpolation import PeriodicInterpolator
from repro.transport.kernels import (
    SUPPORTED_METHODS,
    StencilPlan,
    _derive_chunk_stencil,
    build_stencil_plan,
    bspline_weights,
    execute_stencil_plan,
)

from tests.fixtures import (
    materialized_stencil_gather,
    periodic_bspline_prefilter,
    random_points,
    smooth_scalar_field,
)


#: A cubic grid and an odd, anisotropic one: every axis wraps at its own period.
SHAPES = [(16, 16, 16), (9, 12, 7)]
SHAPE_IDS = ["cubic", "anisotropic"]


@pytest.fixture
def shape():
    return (16, 16, 16)


@pytest.fixture
def grid(shape):
    return Grid(shape)


@pytest.fixture
def field(grid):
    return smooth_scalar_field(grid, seed=0, modes=2)


@pytest.fixture(scope="module")
def points():
    return random_points(500, seed=1)


@pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
@pytest.mark.parametrize("method", SUPPORTED_METHODS)
class TestOracleAgreement:
    def test_agrees_with_materialized_stencil_oracle(self, method, grid, field, points):
        """Each kernel's gather path agrees to <= 1e-12 with a test-local oracle.

        ``cubic_bspline`` (the CSR gather operator on ``spline_filter``
        coefficients) against the Fourier-space prefilter + the whole-point-set
        stencil; ``catmull_rom`` (the stencil executor) and ``linear``
        (``map_coordinates``) against the stencil on the raw field.
        """
        interp = PeriodicInterpolator(grid, method)
        coefficients = field
        if method == "cubic_bspline":
            coefficients = periodic_bspline_prefilter(field)
        reference = materialized_stencil_gather(
            coefficients.reshape(1, -1), grid.shape, interp.to_index_coordinates(points), method
        )[0]
        np.testing.assert_allclose(interp(field, points), reference, rtol=0, atol=1e-12)

    def test_smooth_field_round_trip(self, method, grid, field):
        """Interpolating at the grid nodes reproduces the field itself."""
        interp = PeriodicInterpolator(grid, method)
        values = interp(field, grid.coordinate_stack())
        np.testing.assert_allclose(values, field, atol=1e-10)


@pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
@pytest.mark.parametrize("method", SUPPORTED_METHODS)
class TestGatherPlans:
    def test_planned_path_is_bitwise_identical(self, method, grid, field, points):
        interp = PeriodicInterpolator(grid, method)
        unplanned = interp(field, points)
        plan = interp.plan(points)
        planned = interp.interpolate_planned(field, plan)
        np.testing.assert_array_equal(planned, unplanned)

    def test_batched_matches_scalar_bitwise(self, method, grid, points):
        rng = np.random.default_rng(7)
        fields = rng.standard_normal((3, *grid.shape))
        interp = PeriodicInterpolator(grid, method)
        plan = interp.plan(points)
        batched = interp.interpolate_many_planned(fields, plan)
        for component in range(3):
            scalar = interp.interpolate_planned(fields[component], plan)
            np.testing.assert_array_equal(batched[component], scalar)

    def test_plan_reused_across_fields(self, method, grid, points):
        rng = np.random.default_rng(8)
        interp = PeriodicInterpolator(grid, method)
        plan = interp.plan(points)
        for seed in (1, 2):
            f = rng.standard_normal(grid.shape)
            np.testing.assert_array_equal(
                interp.interpolate_planned(f, plan), interp(f, points)
            )

    def test_plan_records_caching_capability(self, method, grid, points):
        interp = PeriodicInterpolator(grid, method)
        plan = interp.plan(points)
        assert plan.is_cached == (method != "linear")
        assert plan.num_points == points.shape[1]


@pytest.mark.parametrize("shape", [(8, 8, 8), SHAPES[1]], ids=SHAPE_IDS)
@pytest.mark.parametrize("method", SUPPORTED_METHODS)
class TestLowerPrecisionFields:
    def test_float32_grid_fields_are_upcast(self, method, shape):
        """Regression: float32 fields interpolate on every kernel."""
        grid = Grid(shape, dtype=np.float32)
        rng = np.random.default_rng(9)
        field = rng.standard_normal(grid.shape).astype(np.float32)
        points = rng.uniform(0, 2 * np.pi, size=(3, 50))
        interp = PeriodicInterpolator(grid, method)
        values = interp(field, points)
        assert values.dtype == np.float32
        reference = PeriodicInterpolator(Grid(shape), method)(
            field.astype(np.float64), points
        )
        np.testing.assert_allclose(values, reference, atol=1e-6)


class TestPlanValidation:
    def test_plan_grid_mismatch_rejected(self, grid, field, points):
        interp = PeriodicInterpolator(grid)
        other = PeriodicInterpolator(Grid((8, 8, 8)))
        plan = other.plan(np.zeros((3, 5)))
        with pytest.raises(ValueError, match="gather plan was built for grid"):
            interp.interpolate_planned(field, plan)

    def test_plan_method_mismatch_rejected(self, grid, field, points):
        plan = PeriodicInterpolator(grid, "linear").plan(points)
        with pytest.raises(ValueError, match="method"):
            PeriodicInterpolator(grid, "catmull_rom").interpolate_planned(field, plan)

    def test_batched_field_stack_validated(self, grid, points):
        interp = PeriodicInterpolator(grid)
        with pytest.raises(ValueError, match="stacked fields"):
            interp.interpolate_many(np.zeros((3, 8, 8, 8)), points)


class TestCounterParity:
    def test_batched_counts_batch_times_points(self, grid, field, points):
        interp = PeriodicInterpolator(grid)
        plan = interp.plan(points)
        interp.interpolate_many_planned(np.stack([field] * 4), plan)
        assert interp.points_interpolated == 4 * points.shape[1]


class TestStencilPlans:
    """The one plan: 36 bytes per point, gathers bitwise like its oracle."""

    @pytest.mark.parametrize("method", SUPPORTED_METHODS)
    @pytest.mark.parametrize("chunk", [1, 97, None])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("mapped", [False, True], ids=["resident", "memmap"])
    @pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "ghosted"])
    def test_gathers_bitwise_like_materialized_stencil(
        self, method, chunk, batch, mapped, periodic, tmp_path
    ):
        """Every chunk size x batch width x in-memory/memory-mapped stack x
        block kind gathers bitwise what the whole-point-set stencil gathers."""
        rng = np.random.default_rng(11)
        shape = (12, 11, 13)
        if periodic:
            coords = rng.uniform(0.0, 1.0, size=(3, 400)) * np.asarray(shape)[:, None]
        else:  # interior of a ghost-extended block: no tap leaves the block
            coords = rng.uniform(2.0, 8.0, size=(3, 400))
        flat = rng.standard_normal((batch, *shape)).reshape(batch, -1)
        fields = flat
        if mapped:
            np.save(tmp_path / "flat.npy", flat)
            fields = np.load(tmp_path / "flat.npy", mmap_mode="r")
        plan = build_stencil_plan(shape, coords, method, periodic=periodic)
        candidate = execute_stencil_plan(fields, plan, chunk=chunk)
        np.testing.assert_array_equal(
            candidate, materialized_stencil_gather(flat, shape, coords, method, periodic)
        )

    @pytest.mark.parametrize("method", ["cubic_bspline", "catmull_rom"])
    def test_tricubic_plan_is_36_bytes_per_point(self, grid, method):
        rng = np.random.default_rng(13)
        coords = rng.uniform(0, 16, size=(3, 4096))
        plan = build_stencil_plan(grid.shape, coords, method)
        # exact accounting: 3 int32 base + 3 float64 frac per point
        assert plan.base.dtype == np.int32
        assert plan.nbytes == coords.shape[1] * 3 * (4 + 8)

    def test_chunk_stencil_is_a_slice_of_the_whole_stencil(self, grid):
        coords = random_points(1000, seed=14, low=0.0, high=16.0)
        plan = build_stencil_plan(grid.shape, coords, "catmull_rom")
        base = np.floor(coords).astype(np.intp)
        whole_idx, whole_w = _derive_chunk_stencil(
            "catmull_rom", 4, grid.shape, True, base, coords - base
        )
        idx, w = plan.chunk_stencil(100, 300)
        for d in range(3):
            np.testing.assert_array_equal(idx[d], whole_idx[d][:, 100:300])
            np.testing.assert_array_equal(w[d], whole_w[d][:, 100:300])

    def test_chunk_protocol_spans_cover_all_points(self, grid):
        coords = random_points(1000, seed=13, low=0.0, high=16.0)
        plan = build_stencil_plan(grid.shape, coords, "catmull_rom")
        for chunk in (1, 7, 256, None):
            spans = plan.iter_chunks(chunk)
            assert spans[0][0] == 0 and spans[-1][1] == 1000
            for (lo_a, hi_a), (lo_b, _) in zip(spans, spans[1:]):
                assert hi_a == lo_b and lo_a < hi_a

    def test_catmull_rom_plans_a_stencil(self, grid, points):
        interp = PeriodicInterpolator(grid, "catmull_rom")
        plan = interp.plan(points)
        assert isinstance(plan.payload, StencilPlan)
        assert plan.nbytes == plan.coordinates.nbytes + plan.payload.nbytes


class TestStencilPrimitives:
    def test_bspline_weights_partition_of_unity(self):
        t = np.linspace(0.0, 1.0, 33)
        np.testing.assert_allclose(sum(bspline_weights(t)), 1.0, atol=1e-12)

    def test_prefilter_matches_scipy_spline_filter(self):
        from scipy import ndimage

        rng = np.random.default_rng(3)
        f = rng.standard_normal((8, 10, 12))
        ours = periodic_bspline_prefilter(f)
        theirs = ndimage.spline_filter(f, order=3, mode="grid-wrap")
        np.testing.assert_allclose(ours, theirs, atol=1e-12)

    def test_non_periodic_stencil_matches_periodic_interior(self):
        """The ghost-block (non-wrapping) plan agrees with the periodic one."""
        rng = np.random.default_rng(4)
        block = rng.standard_normal((12, 12, 12))
        # interior coordinates: the full 4x4x4 stencil stays inside the block
        coords = rng.uniform(2.0, 9.0, size=(3, 200))
        periodic = build_stencil_plan(block.shape, coords, "catmull_rom", periodic=True)
        interior = build_stencil_plan(block.shape, coords, "catmull_rom", periodic=False)
        flat = block.reshape(1, -1)
        np.testing.assert_array_equal(
            execute_stencil_plan(flat, periodic), execute_stencil_plan(flat, interior)
        )
