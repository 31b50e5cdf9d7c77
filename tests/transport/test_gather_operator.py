"""The sparse gather operator behind ``cubic_bspline`` (and ``catmull_rom``).

Four contracts:

* **accuracy** — the operator agrees with
  ``map_coordinates(order=3, mode="grid-wrap")`` (same spline coefficients,
  another summation order) to ``1e-13`` on unit-scale fields, wrap seam
  included;
* **bitwise invariance** — the bits of a gather depend on the field and the
  points only: not on the stack it travels in, the block size, or whether
  the operator is resident or built block by block;
* **residency** — operators are held by the interpolator that gathers
  through them, at most two, none when the budget cannot hold them, and
  never by the process-wide plan pool;
* **layout** — the windows are the four axis-2 rolls of each field's
  periodic B-spline coefficients (``spline_filter`` is the test-local
  oracle, to ``1e-14`` relative), the prefilter factors invert the
  ``[1/6, 4/6, 1/6]`` circulant, and the operator's columns are unpadded
  flat grid indices.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from repro.observability.metrics import get_metrics_registry
from repro.observability.trace import enable_tracing, get_trace_recorder
from repro.runtime.plan_pool import get_plan_pool
from repro.spectral.grid import Grid
from repro.transport import kernels
from repro.transport.interpolation import PeriodicInterpolator
from repro.transport.kernels import (
    build_gather_operator,
    gather_cubic,
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


def _gather(fields, coordinates, operator=None):
    return gather_cubic(fields, coordinates, "cubic_bspline", operator)


def _operator(shape, coordinates):
    return build_gather_operator(shape, coordinates, "cubic_bspline")


def _operator_builds() -> int:
    return sum(get_metrics_registry().collect().get("interp.operator_builds", {}).values())


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
        values = _gather(fields, coordinates)
        assert np.abs(values - _reference(fields, coordinates)).max() <= TOLERANCE

    def test_float32_input_is_upcast_exactly(self):
        shape = (8, 8, 8)
        fields = np.random.default_rng(3).uniform(-1.0, 1.0, (2, *shape)).astype(np.float32)
        coordinates = _coordinates(shape, 300, seed=4)
        values = _gather(fields, coordinates)
        assert values.dtype == np.float64
        np.testing.assert_array_equal(
            values, _gather(fields.astype(np.float64), coordinates)
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
        values = _gather(fields, coordinates)
        assert np.abs(values - _reference(fields, coordinates)).max() <= TOLERANCE
        # an interpolating spline returns the samples at the nodes
        nodes = np.stack([g.ravel() for g in np.meshgrid(*map(np.arange, shape), indexing="ij")])
        at_nodes = _gather(fields, nodes.astype(np.float64))
        assert np.abs(at_nodes[0] - fields[0].ravel()).max() <= TOLERANCE

    def test_coordinate_equal_to_the_period_wraps(self):
        """``np.mod`` can return the period itself; the stencil must wrap it."""
        shape = (8, 8, 8)
        fields = np.random.default_rng(6).uniform(-1.0, 1.0, (1, *shape))
        at_period = _gather(fields, np.full((3, 1), 8.0))
        at_origin = _gather(fields, np.zeros((3, 1)))
        np.testing.assert_array_equal(at_period, at_origin)

    def test_frontend_matches_at_physical_points(self):
        grid = make_grid((16, 19, 16))
        interp = PeriodicInterpolator(grid)
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
        batched = _gather(fields, coordinates)
        before = kernels.OPERATOR_CHUNK
        kernels.OPERATOR_CHUNK = chunk
        try:
            rechunked = _gather(fields, coordinates)
            scalars = [_gather(fields[f : f + 1], coordinates)[0] for f in range(num_fields)]
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
        operator = _operator(shape, coordinates)
        resident = _gather(fields, coordinates, operator)
        np.testing.assert_array_equal(resident, _gather(fields, coordinates))
        # the resident operator serves the same bits again
        np.testing.assert_array_equal(resident, _gather(fields, coordinates, operator))

    def test_one_shot_calls_keep_nothing(self):
        grid = make_grid(8)
        interp = PeriodicInterpolator(grid)
        fields = np.random.default_rng(11).standard_normal((3, *grid.shape))
        points = np.random.default_rng(12).uniform(0.0, 6.0, (3, 200))
        interp(fields[0], points)
        interp.interpolate_many(fields, points)
        assert interp.resident_operators == 0
        assert get_plan_pool().stats.entries == 0


# --------------------------------------------------------------------------- #
# layout: prefilter factors, windows, unpadded columns
# --------------------------------------------------------------------------- #
WINDOW_TOLERANCE = 1e-14


def _rolled_spline_coefficients(field: np.ndarray) -> np.ndarray:
    """``(N1, N2, N3, 4)``: ``spline_filter`` of *field* shifted by ``c - 1``
    along axis 2 at ``[..., c]`` — what the windows hold, from SciPy."""
    coefficients = ndimage.spline_filter(field, order=3, output=np.float64, mode="grid-wrap")
    return np.stack([np.roll(coefficients, 1 - c, axis=2) for c in range(4)], axis=-1)


def _with_seam_points(shape, num_points: int, seed: int) -> np.ndarray:
    """Random points plus every combination of ``0``, ``N - 1e-13``, ``N - 1``."""
    per_axis = [np.array([0.0, size - 1e-13, size - 1.0]) for size in shape]
    seam = np.stack([g.ravel() for g in np.meshgrid(*per_axis, indexing="ij")])
    return np.concatenate([seam, _coordinates(shape, num_points, seed)], axis=1)


def _circulant(n: int) -> np.ndarray:
    """The ``[1/6, 4/6, 1/6]`` periodic convolution on ``n`` samples, entry by entry."""
    matrix = np.zeros((n, n))
    for k in range(n):
        for offset, weight in ((-1, 1.0), (0, 4.0), (1, 1.0)):
            matrix[k, (k + offset) % n] += weight / 6.0
    return matrix


class TestPrefilterFactor:
    @pytest.mark.parametrize("n", [1, 2, 3, 16, 19, 32, 128])
    def test_inverts_the_circulant(self, n):
        factor = kernels._prefilter_factor(n)
        assert factor.shape == (n, n)
        np.testing.assert_allclose(factor @ _circulant(n), np.eye(n), rtol=0, atol=1e-14)

    def test_cached_and_read_only(self):
        factor = kernels._prefilter_factor(19)
        assert kernels._prefilter_factor(19) is factor
        assert not factor.flags.writeable
        with pytest.raises(ValueError):
            factor[0, 0] = 0.0
        taps = kernels._window_taps(19, 3)
        assert kernels._window_taps(19, 3) is taps and not taps.flags.writeable

    def test_import_does_not_load_scipy_ndimage(self):
        """A fresh interpreter imports ``repro`` without ``scipy.ndimage``."""
        import repro

        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
        code = "import sys, repro; print('scipy.ndimage' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"


class TestWindowLayout:
    SHAPES = [(32, 32, 32), (16, 19, 16), (9, 7, 11), (6, 5, 2), (2, 4, 5), (3, 2, 1)]

    @pytest.mark.parametrize("num_fields", [1, 2, 3, 5])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_windows_are_rolled_spline_coefficients(self, shape, num_fields):
        fields = np.random.default_rng(30).standard_normal((num_fields, *shape))
        windows = kernels._windows(fields, "cubic_bspline")
        assert windows.shape == (int(np.prod(shape)), 4 * num_fields)
        windows = windows.reshape(*shape, num_fields, 4)
        for f, field in enumerate(fields):
            expected = _rolled_spline_coefficients(field)
            error = np.abs(windows[..., f, :] - expected).max()
            assert error <= WINDOW_TOLERANCE * np.abs(expected).max()
            # each field's windows are its scalar windows, bit for bit
            (scalar,) = kernels._windows(fields[f : f + 1], "cubic_bspline").reshape(
                1, -1, 4
            )
            np.testing.assert_array_equal(windows[..., f, :].reshape(-1, 4), scalar)

    @pytest.mark.parametrize("num_fields", [1, 2, 3, 5])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_gathers_bitwise_invariant_and_accurate(self, shape, num_fields):
        fields = np.random.default_rng(30).standard_normal((num_fields, *shape))
        coordinates = _with_seam_points(shape, min(9000, 2 * int(np.prod(shape))), seed=31)
        transient = _gather(fields, coordinates)
        resident = _gather(fields, coordinates, _operator(shape, coordinates))
        np.testing.assert_array_equal(resident, transient)
        for f in range(num_fields):
            np.testing.assert_array_equal(_gather(fields[f : f + 1], coordinates)[0], transient[f])
        assert np.abs(transient - _reference(fields, coordinates)).max() <= TOLERANCE

    @pytest.mark.parametrize("shape", SHAPES)
    def test_catmull_rom_windows_are_rolled_samples(self, shape):
        fields = np.random.default_rng(35).standard_normal((2, *shape))
        windows = kernels._windows(fields, "catmull_rom").reshape(*shape, 2, 4)
        for f, field in enumerate(fields):
            for c in range(4):
                np.testing.assert_array_equal(windows[..., f, c], np.roll(field, 1 - c, axis=2))

    @pytest.mark.parametrize("shape", [(8, 8, 8), (6, 5, 2), (3, 2, 1)])
    def test_coordinate_rounded_up_to_the_period(self, shape):
        """``np.mod`` may return ``N``: base ``N`` wraps to ``0``, bit for bit."""
        fields = np.random.default_rng(32).standard_normal((2, *shape))
        period = np.asarray(shape, dtype=np.float64)[:, None]
        np.testing.assert_array_equal(
            _gather(fields, period), _gather(fields, 0.0 * period)
        )
        (at_period,) = _operator(shape, period).blocks
        (at_origin,) = _operator(shape, 0.0 * period).blocks
        np.testing.assert_array_equal(at_period.matrix.indices, at_origin.matrix.indices)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_columns_are_unpadded_flat_indices(self, shape):
        n1, n2, n3 = shape
        coordinates = _with_seam_points(shape, 200, seed=33)
        (block,) = _operator(shape, coordinates).blocks
        assert block.matrix.shape == (coordinates.shape[1], n1 * n2 * n3)
        columns = block.matrix.indices.reshape(-1, 4, 4)
        assert columns.min() >= 0 and columns.max() <= n1 * n2 * n3 - 1
        base = np.floor(coordinates).astype(np.intp)
        taps = np.arange(-1, 3)
        i0 = (base[0][:, None] + taps) % n1
        i1 = (base[1][:, None] + taps) % n2
        expected = (i0[:, :, None] * n2 + i1[:, None, :]) * n3 + (base[2] % n3)[:, None, None]
        np.testing.assert_array_equal(columns, expected)


# --------------------------------------------------------------------------- #
# residency: byte accounting, the bound of two, budget fallback
# --------------------------------------------------------------------------- #
class TestResidency:
    @pytest.mark.parametrize("num_points", [0, 1, 8192, 8193, 20000])
    def test_projected_bytes_are_the_built_bytes(self, num_points):
        shape = (16, 19, 16)
        operator = _operator(shape, _coordinates(shape, num_points, seed=13))
        assert operator.nbytes == projected_gather_operator_nbytes(num_points, shape)
        assert sum(block.w2.shape[1] for block in operator.blocks) == num_points

    def test_index_dtype_follows_the_flat_length(self):
        """1290 x 1290 x 1290 flat indices fit int32; 1291 x 1291 x 1291 do not."""
        for shape, dtype in (((1290, 1290, 1290), np.int32), ((1291, 1291, 1291), np.int64)):
            assert kernels._operator_index_dtype(shape) == dtype
            per_point = 20 * 8 + 17 * np.dtype(dtype).itemsize
            assert projected_gather_operator_nbytes(8192, shape) == (
                8192 * per_point + np.dtype(dtype).itemsize
            )

    def test_the_interpolator_holds_the_operator(self, pool_budget):
        pool_budget(64 * 2**20)
        grid = make_grid((16, 19, 16))
        interp = PeriodicInterpolator(grid)
        points = np.random.default_rng(14).uniform(0.0, 6.0, (3, 5000))
        plan = interp.plan(points)
        assert plan.payload is not None and plan.payload.nbytes == 0
        assert interp.resident_operators == 0  # planning builds nothing
        builds = _operator_builds()
        interp.interpolate_planned(np.ones(grid.shape), plan)
        interp.interpolate_planned(np.ones(grid.shape), plan)
        # built once, then served resident; nothing went through the pool
        assert (interp.resident_operators, _operator_builds() - builds) == (1, 1)
        assert get_plan_pool().stats.entries == 0 and get_plan_pool().stats.misses == 0

    def test_third_plan_releases_the_least_recent(self, pool_budget):
        pool_budget(64 * 2**20)
        grid = make_grid(8)
        interp = PeriodicInterpolator(grid)
        field = np.random.default_rng(15).standard_normal(grid.shape)
        plans = [
            interp.plan(np.random.default_rng(seed).uniform(0.0, 6.0, (3, 300)))
            for seed in (16, 17, 18)
        ]
        first = [interp.interpolate_planned(field, plan) for plan in plans]
        assert interp.resident_operators == 2
        # the second and third are resident: gathering them builds nothing
        builds = _operator_builds()
        interp.interpolate_planned(field, plans[2])
        interp.interpolate_planned(field, plans[1])
        assert _operator_builds() == builds
        # the released first one is rebuilt on demand, bit for bit, and pushes
        # out the least recently used third
        again = interp.interpolate_planned(field, plans[0])
        np.testing.assert_array_equal(again, first[0])
        assert (interp.resident_operators, _operator_builds() - builds) == (2, 1)
        interp.interpolate_planned(field, plans[1])
        assert _operator_builds() - builds == 1
        interp.interpolate_planned(field, plans[2])
        assert _operator_builds() - builds == 2

    def test_release_drops_every_operator(self, pool_budget):
        pool_budget(64 * 2**20)
        grid = make_grid(8)
        interp = PeriodicInterpolator(grid)
        field = np.random.default_rng(22).standard_normal(grid.shape)
        plan = interp.plan(np.random.default_rng(23).uniform(0.0, 6.0, (3, 300)))
        resident = interp.interpolate_planned(field, plan)
        assert interp.resident_operators == 1
        interp.release_operators()
        assert interp.resident_operators == 0
        # the plan stays valid: its next gather builds the operator again, same bits
        np.testing.assert_array_equal(interp.interpolate_planned(field, plan), resident)
        assert interp.resident_operators == 1

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
            assert solver.interpolator.resident_operators == 2
        assert get_plan_pool().stats.entries == 0

    @pytest.mark.parametrize("budget", [0, 100_000])
    def test_small_budget_degrades_to_transient_bitwise(self, pool_budget, budget):
        grid = make_grid((16, 19, 16))
        fields = np.random.default_rng(19).standard_normal((2, *grid.shape))
        points = np.random.default_rng(20).uniform(0.0, 6.0, (3, 3000))
        pool_budget(64 * 2**20)
        interp = PeriodicInterpolator(grid)
        resident = interp.interpolate_many_planned(fields, interp.plan(points))
        assert interp.resident_operators == 1
        pool_budget(budget)
        starved = PeriodicInterpolator(grid)
        values = starved.interpolate_many_planned(fields, starved.plan(points))
        np.testing.assert_array_equal(values, resident)
        assert starved.resident_operators == 0

    def test_live_pair_may_claim_half_the_budget(self, pool_budget):
        grid = make_grid(8)
        interp = PeriodicInterpolator(grid)
        points = np.random.default_rng(21).uniform(0.0, 6.0, (3, 1000))
        projected = projected_gather_operator_nbytes(1000, grid.shape)
        field = np.ones(grid.shape)
        pool_budget(4 * projected - 1)
        interp.interpolate_planned(field, interp.plan(points))
        assert interp.resident_operators == 0
        pool_budget(4 * projected)
        interp.interpolate_planned(field, interp.plan(points))
        assert interp.resident_operators == 1


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
        interp = PeriodicInterpolator(grid)
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
