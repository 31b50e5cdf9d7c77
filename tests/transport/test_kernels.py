"""Tests for repro.transport.kernels (the gather kernels + gather plans)."""

import numpy as np
import pytest

from scipy import ndimage

from repro.spectral.grid import Grid
from repro.transport import kernels
from repro.transport.interpolation import PeriodicInterpolator
from repro.transport.kernels import (
    SUPPORTED_METHODS,
    GatherOperatorPlan,
    _chunk_spans,
    build_gather_operator,
    bspline_weights,
    gather_cubic,
    projected_gather_operator_nbytes,
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

#: The kernels the gather operator evaluates.
CUBIC_KERNELS = ("cubic_bspline", "catmull_rom")


def _coefficients(fields: np.ndarray, kernel: str) -> np.ndarray:
    """What the operator's stencil is applied to: the (periodic) B-spline
    prefilter of each field, or the samples themselves."""
    if kernel == "catmull_rom":
        return np.asarray(fields, dtype=np.float64)
    return np.stack(
        [ndimage.spline_filter(f, order=3, output=np.float64, mode="grid-wrap") for f in fields]
    )


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
        stencil; ``catmull_rom`` (the same operator on the samples) and
        ``linear`` (``map_coordinates``) against the stencil on the raw field.
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


class TestGatherOperators:
    """The one engine of both cubic kernels, periodic and on ghosted blocks."""

    @pytest.mark.parametrize("kernel", CUBIC_KERNELS)
    @pytest.mark.parametrize("block", [1, 97, None])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("mapped", [False, True], ids=["resident", "memmap"])
    @pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "ghosted"])
    def test_gathers_like_materialized_stencil(
        self, kernel, block, batch, mapped, periodic, tmp_path, monkeypatch
    ):
        """Every operator block size x batch width x in-memory/memory-mapped
        stack x block kind agrees with the whole-point-set stencil to 1e-12,
        and gathers the bits of the default block size."""
        rng = np.random.default_rng(11)
        shape = (12, 11, 13)
        if periodic:
            coords = rng.uniform(0.0, 1.0, size=(3, 400)) * np.asarray(shape)[:, None]
        else:  # interior of a ghost-extended block: no tap leaves the block
            coords = rng.uniform(2.0, 8.0, size=(3, 400))
        stack = rng.standard_normal((batch, *shape))
        fields = stack
        if mapped:
            np.save(tmp_path / "stack.npy", stack)
            fields = np.load(tmp_path / "stack.npy", mmap_mode="r")
        default = gather_cubic(
            stack, None, kernel, build_gather_operator(shape, coords, kernel, wrap=periodic)
        )
        if block is not None:
            monkeypatch.setattr(kernels, "OPERATOR_CHUNK", block)
        operator = build_gather_operator(shape, coords, kernel, wrap=periodic)
        candidate = gather_cubic(fields, None, kernel, operator)
        np.testing.assert_array_equal(candidate, default)
        reference = materialized_stencil_gather(
            _coefficients(stack, kernel).reshape(batch, -1), shape, coords, kernel, periodic
        )
        np.testing.assert_allclose(candidate, reference, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kernel", CUBIC_KERNELS)
    def test_operator_is_228_bytes_per_point(self, grid, kernel):
        rng = np.random.default_rng(13)
        coords = rng.uniform(0, 16, size=(3, 4096))
        operator = build_gather_operator(grid.shape, coords, kernel)
        # exact accounting: 16 int32 indices + 16 float64 products + 4 float64
        # axis-2 weights per point, one int32 row pointer more per block
        assert operator.blocks[0].matrix.indices.dtype == np.int32
        assert operator.nbytes == coords.shape[1] * 228 + 4
        assert operator.nbytes == projected_gather_operator_nbytes(4096, grid.shape)

    @pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "ghosted"])
    def test_blocks_are_row_slices_of_the_whole_operator(self, grid, periodic, monkeypatch):
        coords = random_points(1000, seed=14, low=2.0, high=13.0)
        (whole,) = build_gather_operator(grid.shape, coords, "catmull_rom", periodic).blocks
        monkeypatch.setattr(kernels, "OPERATOR_CHUNK", 300)
        blocks = build_gather_operator(grid.shape, coords, "catmull_rom", periodic).blocks
        assert [block.lo for block in blocks] == [0, 300, 600, 900]
        for block in blocks:
            rows = slice(block.lo, block.lo + block.w2.shape[1])
            assert (whole.matrix[rows] != block.matrix).nnz == 0
            np.testing.assert_array_equal(block.w2, whole.w2[:, rows])

    def test_block_spans_cover_all_points(self):
        for chunk in (1, 7, 256, kernels.OPERATOR_CHUNK):
            spans = _chunk_spans(1000, chunk)
            assert spans[0][0] == 0 and spans[-1][1] == 1000
            for (lo_a, hi_a), (lo_b, _) in zip(spans, spans[1:]):
                assert hi_a == lo_b and lo_a < hi_a

    @pytest.mark.parametrize("kernel", CUBIC_KERNELS)
    def test_cubic_kernels_plan_an_operator(self, grid, points, kernel):
        interp = PeriodicInterpolator(grid, kernel)
        plan = interp.plan(points)
        assert isinstance(plan.payload, GatherOperatorPlan)
        assert plan.nbytes == plan.coordinates.nbytes


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

    @pytest.mark.parametrize("kernel", CUBIC_KERNELS)
    def test_ghosted_operator_matches_periodic_interior(self, kernel):
        """The ghost-block (non-wrapping) operator gathers the periodic one's bits."""
        rng = np.random.default_rng(4)
        block = rng.standard_normal((1, 12, 12, 12))
        # interior coordinates: the full 4x4x4 stencil stays inside the block
        coords = rng.uniform(2.0, 9.0, size=(3, 200))
        periodic = build_gather_operator(block.shape[1:], coords, kernel, wrap=True)
        interior = build_gather_operator(block.shape[1:], coords, kernel, wrap=False)
        np.testing.assert_array_equal(
            gather_cubic(block, None, kernel, periodic),
            gather_cubic(block, None, kernel, interior),
        )
