"""The scipy engine's sparse gather operator (``cubic_bspline``).

Four contracts:

* **accuracy** — the operator agrees with
  ``map_coordinates(order=3, mode="grid-wrap")`` (same spline coefficients,
  another summation order) to ``1e-13`` on unit-scale fields, wrap seam
  included;
* **bitwise invariance** — the bits of a gather depend on the field and the
  points only: not on the stack it travels in, the block size, or whether
  the operator is resident or built block by block;
* **residency** — operators are byte-accounted pool entries, at most two per
  interpolator, none when the budget cannot hold them;
* **layout invariance** — gathering from axis-2-padded coefficients (padded
  column space, windows from four shifted slices) gives the bits of the
  formulation it replaced, rolled windows of the unpadded coefficients
  (kept here as a test-local oracle).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage, sparse

from repro.observability.metrics import get_metrics_registry
from repro.observability.trace import enable_tracing, get_trace_recorder
from repro.runtime.plan_pool import get_plan_pool
from repro.spectral.grid import Grid
from repro.transport import kernels
from repro.transport.interpolation import PeriodicInterpolator
from repro.transport.kernels import (
    GATHER_OPERATOR_TAG,
    bspline_weights,
    build_gather_operator,
    gather_bspline,
    gather_operator_plan,
    projected_gather_operator_nbytes,
)

from tests.fixtures import make_grid

TOLERANCE = 1e-13
SHAPES = [(16, 19, 16), (8, 8, 8), (9, 7, 11)]


def _reference(fields: np.ndarray, coordinates: np.ndarray) -> np.ndarray:
    return np.stack(
        [
            ndimage.map_coordinates(
                np.asarray(field, dtype=np.float64), coordinates, order=3, mode="grid-wrap"
            )
            for field in fields
        ]
    )


def _coordinates(shape, num_points: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, (3, num_points)) * np.asarray(shape, dtype=np.float64)[:, None]


def _operator_entries() -> int:
    stats = get_plan_pool().stats_by_tag().get(GATHER_OPERATOR_TAG)
    return 0 if stats is None else stats.entries


@pytest.fixture()
def pool_budget():
    """Set the shared pool's budget for one test (the CI legs pin their own)."""
    pool = get_plan_pool()
    before = pool.max_bytes
    yield pool.set_max_bytes
    pool.set_max_bytes(before)


# --------------------------------------------------------------------------- #
# accuracy against map_coordinates
# --------------------------------------------------------------------------- #
class TestAgreesWithMapCoordinates:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_random_points(self, shape):
        fields = np.random.default_rng(1).uniform(-1.0, 1.0, (2, *shape))
        coordinates = _coordinates(shape, 700, seed=2)
        values = gather_bspline(fields, coordinates, None)
        assert np.abs(values - _reference(fields, coordinates)).max() <= TOLERANCE

    def test_float32_input_is_upcast_exactly(self):
        shape = (8, 8, 8)
        fields = np.random.default_rng(3).uniform(-1.0, 1.0, (2, *shape)).astype(np.float32)
        coordinates = _coordinates(shape, 300, seed=4)
        values = gather_bspline(fields, coordinates, None)
        assert values.dtype == np.float64
        np.testing.assert_array_equal(
            values, gather_bspline(fields.astype(np.float64), coordinates, None)
        )
        assert np.abs(values - _reference(fields, coordinates)).max() <= TOLERANCE

    @pytest.mark.parametrize("shape", SHAPES)
    def test_wrap_seam_and_integer_coordinates(self, shape):
        fields = np.random.default_rng(5).uniform(-1.0, 1.0, (1, *shape))
        n = np.asarray(shape, dtype=np.float64)
        seam = np.array([0.0, 1e-12, 0.5, 1.0])
        per_axis = [np.concatenate([seam, size - seam[1:3], [size - 1.0]]) for size in n]
        coordinates = np.stack(
            [grid.ravel() for grid in np.meshgrid(*per_axis, indexing="ij")]
        )
        values = gather_bspline(fields, coordinates, None)
        assert np.abs(values - _reference(fields, coordinates)).max() <= TOLERANCE
        # an interpolating spline returns the samples at the nodes
        nodes = np.stack([g.ravel() for g in np.meshgrid(*map(np.arange, shape), indexing="ij")])
        at_nodes = gather_bspline(fields, nodes.astype(np.float64), None)
        assert np.abs(at_nodes[0] - fields[0].ravel()).max() <= TOLERANCE

    def test_coordinate_equal_to_the_period_wraps(self):
        """``np.mod`` can return the period itself; the stencil must wrap it."""
        shape = (8, 8, 8)
        fields = np.random.default_rng(6).uniform(-1.0, 1.0, (1, *shape))
        at_period = gather_bspline(fields, np.full((3, 1), 8.0), None)
        at_origin = gather_bspline(fields, np.zeros((3, 1)), None)
        np.testing.assert_array_equal(at_period, at_origin)

    def test_frontend_matches_at_physical_points(self):
        grid = make_grid((16, 19, 16))
        interp = PeriodicInterpolator(grid, backend="scipy")
        field = np.random.default_rng(7).uniform(-1.0, 1.0, grid.shape)
        points = np.random.default_rng(8).uniform(-7.0, 13.0, (3, 400))
        reference = _reference(field[None], interp.to_index_coordinates(points))[0]
        assert np.abs(interp(field, points) - reference).max() <= TOLERANCE


# --------------------------------------------------------------------------- #
# bitwise invariance
# --------------------------------------------------------------------------- #
class TestBitwiseInvariance:
    @given(
        num_fields=st.integers(1, 6),
        chunk=st.integers(1, 400),
        num_points=st.integers(1, 300),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_stack_depth_and_block_size_never_change_the_bits(
        self, num_fields, chunk, num_points, seed
    ):
        shape = (8, 10, 9)
        fields = np.random.default_rng(seed).standard_normal((num_fields, *shape))
        coordinates = _coordinates(shape, num_points, seed + 1)
        batched = gather_bspline(fields, coordinates, None)
        before = kernels.OPERATOR_CHUNK
        kernels.OPERATOR_CHUNK = chunk
        try:
            rechunked = gather_bspline(fields, coordinates, None)
            scalars = [gather_bspline(fields[f : f + 1], coordinates, None)[0] for f in range(num_fields)]
        finally:
            kernels.OPERATOR_CHUNK = before
        np.testing.assert_array_equal(rechunked, batched)
        for f in range(num_fields):
            np.testing.assert_array_equal(scalars[f], batched[f])

    @pytest.mark.parametrize("num_fields", [1, 3, 6])
    def test_resident_equals_block_transient(self, num_fields):
        shape = (16, 19, 16)
        fields = np.random.default_rng(9).standard_normal((num_fields, *shape))
        coordinates = _coordinates(shape, 20000, seed=10)
        plan = gather_operator_plan(shape, coordinates)
        resident = gather_bspline(fields, coordinates, plan)
        assert _operator_entries() == 1
        np.testing.assert_array_equal(resident, gather_bspline(fields, coordinates, None))
        # the warm operator serves the same bits again
        np.testing.assert_array_equal(resident, gather_bspline(fields, coordinates, plan))

    def test_one_shot_calls_keep_nothing(self):
        grid = make_grid(8)
        interp = PeriodicInterpolator(grid, backend="scipy")
        fields = np.random.default_rng(11).standard_normal((3, *grid.shape))
        points = np.random.default_rng(12).uniform(0.0, 6.0, (3, 200))
        interp(fields[0], points)
        interp.interpolate_many(fields, points)
        interp.interpolate_vector(fields, points)
        assert len(get_plan_pool()) == 0


# --------------------------------------------------------------------------- #
# layout invariance: padded coefficients vs the stacked-windows formulation
# --------------------------------------------------------------------------- #
def _windows_gather(fields: np.ndarray, coordinates: np.ndarray) -> np.ndarray:
    """The formulation the padded gather replaced, as the bitwise oracle.

    One CSR product (16 ``w0[a] * w1[b]`` values per row, columns in the
    *unpadded* grid) against ``windows[n, 4 f + c]``, the spline coefficient
    of field ``f`` at ``n`` rolled by ``c`` along axis 2, then the same
    fixed-order contraction with the axis-2 weights.
    """
    num_fields, n1, n2, n3 = fields.shape
    num_points = coordinates.shape[1]
    base = np.floor(coordinates).astype(np.intp)
    w0, w1, w2 = (np.stack(bspline_weights(coordinates[d] - base[d])) for d in range(3))
    taps = np.arange(-1, 3)[:, None]
    i0, i1 = (base[0] + taps) % n1, (base[1] + taps) % n2
    columns = (i0[:, None] * n2 + i1[None]) * n3 + (base[2] - 1) % n3
    matrix = sparse.csr_matrix(
        (
            np.ascontiguousarray((w0[:, None] * w1[None]).transpose(2, 0, 1)).reshape(-1),
            np.ascontiguousarray(columns.transpose(2, 0, 1)).reshape(-1),
            np.arange(0, 16 * num_points + 1, 16),
        ),
        shape=(num_points, n1 * n2 * n3),
    )
    windows = np.empty((n1, n2, n3, num_fields, 4))
    for f, field in enumerate(fields):
        coefficients = ndimage.spline_filter(field, order=3, output=np.float64, mode="grid-wrap")
        for c in range(4):
            windows[:, :, :, f, c] = np.roll(coefficients, -c, axis=2)
    product = (matrix @ windows.reshape(-1, 4 * num_fields)).reshape(-1, num_fields, 4)
    out = np.empty((num_fields, num_points))
    for f in range(num_fields):
        value = product[:, f, 0] * w2[0]
        value += product[:, f, 1] * w2[1]
        value += product[:, f, 2] * w2[2]
        value += product[:, f, 3] * w2[3]
        out[f] = value
    return out


def _with_seam_points(shape, num_points: int, seed: int) -> np.ndarray:
    """Random points plus every combination of ``0``, ``N - 1e-13``, ``N - 1``."""
    per_axis = [np.array([0.0, size - 1e-13, size - 1.0]) for size in shape]
    seam = np.stack([g.ravel() for g in np.meshgrid(*per_axis, indexing="ij")])
    return np.concatenate([seam, _coordinates(shape, num_points, seed)], axis=1)


class TestPaddedCoefficients:
    SHAPES = [(32, 32, 32), (16, 19, 16), (9, 7, 11), (6, 5, 2), (2, 4, 5), (3, 2, 1)]

    @pytest.mark.parametrize("num_fields", [1, 2, 3, 5])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_bitwise_equal_to_the_windows_formulation(self, shape, num_fields):
        fields = np.random.default_rng(30).standard_normal((num_fields, *shape))
        coordinates = _with_seam_points(shape, min(9000, 2 * int(np.prod(shape))), seed=31)
        expected = _windows_gather(fields, coordinates)
        transient = gather_bspline(fields, coordinates, None)
        np.testing.assert_array_equal(transient, expected)
        resident = gather_bspline(fields, coordinates, gather_operator_plan(shape, coordinates))
        assert _operator_entries() == 1
        np.testing.assert_array_equal(resident, expected)
        assert np.abs(transient - _reference(fields, coordinates)).max() <= TOLERANCE

    @pytest.mark.parametrize("shape", [(8, 8, 8), (6, 5, 2)])
    def test_coordinate_rounded_up_to_the_period(self, shape):
        """``np.mod`` may return ``N``: base ``N``, window start ``N - 1``, in range."""
        fields = np.random.default_rng(32).standard_normal((2, *shape))
        period = np.asarray(shape, dtype=np.float64)[:, None]
        np.testing.assert_array_equal(
            gather_bspline(fields, period, None), gather_bspline(fields, 0.0 * period, None)
        )
        np.testing.assert_array_equal(
            gather_bspline(fields, period, None), _windows_gather(fields, period)
        )

    @pytest.mark.parametrize("shape", SHAPES)
    def test_column_space_and_padding(self, shape):
        n1, n2, n3 = shape
        coordinates = _with_seam_points(shape, 200, seed=33)
        (block,) = build_gather_operator(shape, coordinates).blocks
        assert block.matrix.shape == (coordinates.shape[1], n1 * n2 * (n3 + 3) - 3)
        starts = block.matrix.indices % (n3 + 3)
        assert starts.min() >= 0 and starts.max() <= n3 - 1
        field = np.random.default_rng(34).standard_normal((1, *shape))
        padded = kernels._padded_coefficients(field).reshape(n1, n2, n3 + 3)
        coefficients = ndimage.spline_filter(
            field[0], order=3, output=np.float64, mode="grid-wrap"
        )
        np.testing.assert_array_equal(padded, coefficients[:, :, np.arange(n3 + 3) % n3])


# --------------------------------------------------------------------------- #
# residency: byte accounting, the bound of two, budget fallback
# --------------------------------------------------------------------------- #
class TestResidency:
    @pytest.mark.parametrize("num_points", [0, 1, 8192, 8193, 20000])
    def test_projected_bytes_are_the_built_bytes(self, num_points):
        shape = (16, 19, 16)
        operator = build_gather_operator(shape, _coordinates(shape, num_points, seed=13))
        assert operator.nbytes == projected_gather_operator_nbytes(num_points, shape)
        assert sum(block.w2.shape[1] for block in operator.blocks) == num_points

    def test_index_dtype_follows_the_padded_length(self):
        """1290 x 1290 x 1290 fits int32 unpadded; its padded flat length does not."""
        for shape, dtype in (((1024, 1024, 1024), np.int32), ((1290, 1290, 1290), np.int64)):
            assert kernels._operator_index_dtype(shape) == dtype
            per_point = 20 * 8 + 17 * np.dtype(dtype).itemsize
            assert projected_gather_operator_nbytes(8192, shape) == (
                8192 * per_point + np.dtype(dtype).itemsize
            )

    def test_pool_accounts_the_operator_under_its_tag(self, pool_budget):
        pool_budget(64 * 2**20)
        grid = make_grid((16, 19, 16))
        interp = PeriodicInterpolator(grid, backend="scipy")
        points = np.random.default_rng(14).uniform(0.0, 6.0, (3, 5000))
        plan = interp.plan(points)
        assert plan.is_cached and plan.payload.nbytes == 0
        assert len(get_plan_pool()) == 0  # planning builds nothing
        interp.interpolate_planned(np.ones(grid.shape), plan)
        stats = get_plan_pool().stats_by_tag()[GATHER_OPERATOR_TAG]
        assert stats.entries == 1 and stats.misses == 1
        assert stats.current_bytes == projected_gather_operator_nbytes(5000, grid.shape)
        # sweeps fetch the warm operator without touching the pool's
        # hit/miss statistics, which measure reuse across velocities
        interp.interpolate_planned(np.ones(grid.shape), plan)
        stats = get_plan_pool().stats_by_tag()[GATHER_OPERATOR_TAG]
        assert (stats.hits, stats.misses, stats.entries) == (0, 1, 1)
        get_plan_pool().validate_accounting()

    def test_third_plan_releases_the_least_recent(self, pool_budget):
        pool_budget(64 * 2**20)
        grid = make_grid(8)
        interp = PeriodicInterpolator(grid, backend="scipy")
        field = np.random.default_rng(15).standard_normal(grid.shape)
        plans = [
            interp.plan(np.random.default_rng(seed).uniform(0.0, 6.0, (3, 300)))
            for seed in (16, 17, 18)
        ]
        first = [interp.interpolate_planned(field, plan) for plan in plans]
        pool = get_plan_pool()
        assert _operator_entries() == 2
        assert plans[0].payload.key not in pool
        assert plans[1].payload.key in pool and plans[2].payload.key in pool
        pool.validate_accounting()
        # touching the second keeps it; the released first one is rebuilt on
        # demand, bit for bit, and pushes out the least recently used third
        interp.interpolate_planned(field, plans[1])
        again = interp.interpolate_planned(field, plans[0])
        np.testing.assert_array_equal(again, first[0])
        assert _operator_entries() == 2
        assert plans[2].payload.key not in pool
        pool.validate_accounting()

    def test_bound_holds_over_a_transport_solve(self, pool_budget):
        """Every velocity a solver plans adds two operators; two stay."""
        from repro.transport.solvers import TransportSolver

        from tests.fixtures import smooth_scalar_field, smooth_velocity_field

        pool_budget(64 * 2**20)
        grid = make_grid(8)
        solver = TransportSolver(grid, num_time_steps=2)
        rho = smooth_scalar_field(grid, seed=1)
        for seed in (1, 2, 3):
            plan = solver.plan(0.3 * smooth_velocity_field(grid, seed=seed))
            solver.solve_adjoint(plan, solver.solve_state(plan, rho)[-1])
            assert _operator_entries() == 2
        get_plan_pool().validate_accounting()

    @pytest.mark.parametrize("budget", [0, 100_000])
    def test_small_budget_degrades_to_transient_bitwise(self, pool_budget, budget):
        grid = make_grid((16, 19, 16))
        fields = np.random.default_rng(19).standard_normal((2, *grid.shape))
        points = np.random.default_rng(20).uniform(0.0, 6.0, (3, 3000))
        pool_budget(64 * 2**20)
        interp = PeriodicInterpolator(grid, backend="scipy")
        resident = interp.interpolate_many_planned(fields, interp.plan(points))
        assert _operator_entries() == 1
        get_plan_pool().reset()
        pool_budget(budget)
        starved = PeriodicInterpolator(grid, backend="scipy")
        values = starved.interpolate_many_planned(fields, starved.plan(points))
        np.testing.assert_array_equal(values, resident)
        assert _operator_entries() == 0
        assert get_plan_pool().stats.oversize_rejections == 0  # never built whole

    def test_live_pair_may_claim_half_the_budget(self, pool_budget):
        shape = (8, 8, 8)
        coordinates = _coordinates(shape, 1000, seed=21)
        projected = projected_gather_operator_nbytes(1000, shape)
        fields = np.ones((1, *shape))
        pool_budget(4 * projected - 1)
        gather_bspline(fields, coordinates, gather_operator_plan(shape, coordinates))
        assert _operator_entries() == 0
        pool_budget(4 * projected)
        gather_bspline(fields, coordinates, gather_operator_plan(shape, coordinates))
        assert _operator_entries() == 1


# --------------------------------------------------------------------------- #
# observability
# --------------------------------------------------------------------------- #
class TestFrontendIntegration:
    def test_counters_and_build_spans(self, pool_budget):
        pool_budget(64 * 2**20)
        registry = get_metrics_registry()

        def counters():
            collected = registry.collect()
            return {
                name: sum(collected.get(f"interp.operator_{name}", {}).values())
                for name in ("builds", "hits", "discards")
            }

        grid = Grid((8, 8, 8))
        interp = PeriodicInterpolator(grid, backend="scipy")
        field = np.ones(grid.shape)
        plans = [
            interp.plan(np.random.default_rng(seed).uniform(0.0, 6.0, (3, 100)))
            for seed in (24, 25, 26)
        ]
        before = counters()
        enable_tracing()
        for plan in plans:
            interp.interpolate_planned(field, plan)  # build
            interp.interpolate_planned(field, plan)  # hit
        interp(field, np.zeros((3, 5)))  # one-shot: a transient build
        after = counters()
        assert after["builds"] - before["builds"] == 4
        assert after["hits"] - before["hits"] == 3
        assert after["discards"] - before["discards"] == 1
        spans = [s for s in get_trace_recorder().spans() if s.name == "interp.operator_build"]
        assert [s.attrs["resident"] for s in spans] == [True, True, True, False]
        assert [s.attrs["points"] for s in spans] == [100, 100, 100, 5]
