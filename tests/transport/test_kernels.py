"""Tests for repro.transport.kernels (the gather kernels + gather plans)."""

import numpy as np
import pytest

from scipy import ndimage

from repro.spectral.grid import Grid
from repro.transport import kernels
from repro.transport.interpolation import PeriodicInterpolator
from repro.transport.kernels import (
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
    periodic_gather,
    random_points,
    smooth_scalar_field,
)


#: A cubic grid and an odd, anisotropic one: every axis wraps at its own period.
SHAPES = [(16, 16, 16), (9, 12, 7)]
SHAPE_IDS = ["cubic", "anisotropic"]

#: The kernels the gather operator evaluates: the solver's and the scatter's.
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
@pytest.mark.parametrize("kernel", CUBIC_KERNELS)
class TestOracleAgreement:
    def test_agrees_with_materialized_stencil_oracle(self, kernel, grid, field, points):
        """Each kernel's periodic operator agrees to <= 1e-12 with a test-local oracle.

        ``cubic_bspline`` (the CSR gather operator on the per-axis product
        prefilter's coefficients) against the Fourier-space prefilter + the whole-point-set
        stencil; ``catmull_rom`` (the same operator on the samples) against
        the stencil on the raw field.
        """
        coefficients = field
        if kernel == "cubic_bspline":
            coefficients = periodic_bspline_prefilter(field)
        coordinates = PeriodicInterpolator(grid).to_index_coordinates(points)
        reference = materialized_stencil_gather(
            coefficients.reshape(1, -1), grid.shape, coordinates, kernel
        )[0]
        np.testing.assert_allclose(
            periodic_gather(grid, field, points, kernel), reference, rtol=0, atol=1e-12
        )

    def test_smooth_field_round_trip(self, kernel, grid, field):
        """Interpolating at the grid nodes reproduces the field itself."""
        values = periodic_gather(grid, field, grid.coordinate_stack(), kernel)
        np.testing.assert_allclose(values, field, atol=1e-10)


@pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
class TestGatherPlans:
    def test_interpolator_gathers_the_cubic_bspline_operator(self, grid, field, points):
        np.testing.assert_array_equal(
            PeriodicInterpolator(grid)(field, points),
            periodic_gather(grid, field, points, "cubic_bspline"),
        )

    def test_planned_path_is_bitwise_identical(self, grid, field, points):
        interp = PeriodicInterpolator(grid)
        unplanned = interp(field, points)
        plan = interp.plan(points)
        planned = interp.interpolate_planned(field, plan)
        np.testing.assert_array_equal(planned, unplanned)

    def test_batched_matches_scalar_bitwise(self, grid, points):
        rng = np.random.default_rng(7)
        fields = rng.standard_normal((3, *grid.shape))
        interp = PeriodicInterpolator(grid)
        plan = interp.plan(points)
        batched = interp.interpolate_many_planned(fields, plan)
        for component in range(3):
            scalar = interp.interpolate_planned(fields[component], plan)
            np.testing.assert_array_equal(batched[component], scalar)

    def test_plan_reused_across_fields(self, grid, points):
        rng = np.random.default_rng(8)
        interp = PeriodicInterpolator(grid)
        plan = interp.plan(points)
        for seed in (1, 2):
            f = rng.standard_normal(grid.shape)
            np.testing.assert_array_equal(
                interp.interpolate_planned(f, plan), interp(f, points)
            )

    def test_plan_names_an_operator(self, grid, points):
        plan = PeriodicInterpolator(grid).plan(points)
        assert isinstance(plan.payload, GatherOperatorPlan)
        assert plan.num_points == points.shape[1]
        assert plan.nbytes == plan.coordinates.nbytes


@pytest.mark.parametrize("shape", [(8, 8, 8), SHAPES[1]], ids=SHAPE_IDS)
class TestLowerPrecisionFields:
    def test_float32_grid_fields_are_upcast(self, shape):
        """Regression: float32 fields interpolate."""
        grid = Grid(shape, dtype=np.float32)
        rng = np.random.default_rng(9)
        field = rng.standard_normal(grid.shape).astype(np.float32)
        points = rng.uniform(0, 2 * np.pi, size=(3, 50))
        values = PeriodicInterpolator(grid)(field, points)
        assert values.dtype == np.float32
        reference = PeriodicInterpolator(Grid(shape))(field.astype(np.float64), points)
        np.testing.assert_allclose(values, reference, atol=1e-6)


@pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
@pytest.mark.parametrize("kernel", CUBIC_KERNELS)
class TestOperatorPaths:
    """The plan-level invariants above, per kernel, through the operator API
    (the only way to reach ``catmull_rom``, the scatter's kernel)."""

    @staticmethod
    def _coordinates(grid, points):
        return PeriodicInterpolator(grid).to_index_coordinates(points)

    def test_resident_operator_is_bitwise_identical_to_one_shot(
        self, kernel, grid, field, points
    ):
        coords = self._coordinates(grid, points)
        operator = build_gather_operator(grid.shape, coords, kernel)
        stack = field[None]
        np.testing.assert_array_equal(
            gather_cubic(stack, None, kernel, operator), gather_cubic(stack, coords, kernel)
        )

    def test_stacked_matches_single_field_bitwise(self, kernel, grid, points):
        fields = np.random.default_rng(7).standard_normal((3, *grid.shape))
        operator = build_gather_operator(grid.shape, self._coordinates(grid, points), kernel)
        stacked = gather_cubic(fields, None, kernel, operator)
        for component in range(3):
            single = gather_cubic(fields[component : component + 1], None, kernel, operator)
            np.testing.assert_array_equal(stacked[component], single[0])

    def test_operator_reused_across_fields(self, kernel, grid, points):
        rng = np.random.default_rng(8)
        coords = self._coordinates(grid, points)
        operator = build_gather_operator(grid.shape, coords, kernel)
        for _ in range(2):
            f = rng.standard_normal((1, *grid.shape))
            np.testing.assert_array_equal(
                gather_cubic(f, None, kernel, operator), gather_cubic(f, coords, kernel)
            )

    def test_float32_fields_gather_like_float64(self, kernel, grid, points):
        field = np.random.default_rng(9).standard_normal((1, *grid.shape)).astype(np.float32)
        coords = self._coordinates(grid, points)
        values = gather_cubic(field, coords, kernel)
        assert values.dtype == np.float64
        np.testing.assert_allclose(
            values, gather_cubic(field.astype(np.float64), coords, kernel), rtol=0, atol=1e-6
        )

    def test_operator_covers_every_point_once(self, kernel, grid, points, monkeypatch):
        monkeypatch.setattr(kernels, "OPERATOR_CHUNK", 128)
        operator = build_gather_operator(grid.shape, self._coordinates(grid, points), kernel)
        assert operator.num_points == points.shape[1]
        assert [block.lo for block in operator.blocks] == [0, 128, 256, 384]
        assert sum(block.w2.shape[1] for block in operator.blocks) == points.shape[1]


class TestPlanValidation:
    def test_plan_grid_mismatch_rejected(self, grid, field, points):
        interp = PeriodicInterpolator(grid)
        other = PeriodicInterpolator(Grid((8, 8, 8)))
        plan = other.plan(np.zeros((3, 5)))
        with pytest.raises(ValueError, match="gather plan was built for grid"):
            interp.interpolate_planned(field, plan)

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
