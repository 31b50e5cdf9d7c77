"""Tests for repro.transport.kernels (backend registry + gather plans)."""

import numpy as np
import pytest

from repro.spectral.backends import BackendUnavailableError
from repro.spectral.grid import Grid
from repro.transport.interpolation import PeriodicInterpolator
from repro.transport.kernels import (
    BACKEND_ENV_VAR,
    SUPPORTED_METHODS,
    NumbaInterpolationBackend,
    StencilPlan,
    _derive_chunk_stencil,
    available_backends,
    build_stencil_plan,
    bspline_weights,
    default_backend_name,
    execute_stencil_plan,
    get_backend,
    periodic_bspline_prefilter,
    register_backend,
    registered_backends,
)

from tests.fixtures import (
    interp_backend_params,
    materialized_stencil_gather,
    random_points,
    smooth_scalar_field,
)

BACKENDS = interp_backend_params()


@pytest.fixture(scope="module")
def grid():
    return Grid((16, 16, 16))


@pytest.fixture(scope="module")
def field(grid):
    return smooth_scalar_field(grid, seed=0, modes=2)


@pytest.fixture(scope="module")
def points():
    return random_points(500, seed=1)


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert set(registered_backends()) >= {"scipy", "numpy", "numba"}

    def test_always_available_backends(self):
        assert "scipy" in available_backends()
        assert "numpy" in available_backends()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown interpolation backend"):
            get_backend("cuda")

    def test_instances_are_cached_per_name(self):
        assert get_backend("numpy") is get_backend("numpy")

    def test_instance_passes_through(self):
        instance = get_backend("numpy")
        assert get_backend(instance) is instance

    def test_non_backend_object_rejected(self):
        with pytest.raises(TypeError):
            get_backend(42)

    def test_default_is_scipy(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert default_backend_name() == "scipy"

    def test_environment_variable_selects_default(self, monkeypatch, grid):
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        assert default_backend_name() == "numpy"
        assert PeriodicInterpolator(grid).backend_name == "numpy"

    def test_unavailable_backend_raises_cleanly(self):
        if NumbaInterpolationBackend.is_available():
            pytest.skip("numba is installed; unavailability path not testable")
        with pytest.raises(BackendUnavailableError, match="numba"):
            get_backend("numba")

    def test_malformed_env_backend_is_a_clear_error(self, monkeypatch):
        """An env typo names the variable and lists the registered backends."""
        monkeypatch.setenv(BACKEND_ENV_VAR, "scippy")
        with pytest.raises(ValueError, match=BACKEND_ENV_VAR) as excinfo:
            default_backend_name()
        assert "scipy" in str(excinfo.value) and "numpy" in str(excinfo.value)
        with pytest.raises(ValueError, match=BACKEND_ENV_VAR):
            get_backend(None)  # the env path of every consumer

    def test_register_backend_hook(self, grid, field, points):
        class EchoBackend:
            name = "echo"

            @classmethod
            def is_available(cls):
                return True

            def supports_plan(self, method):
                return False

            def build_plan(self, grid_shape, coordinates, method):
                return None

            def gather(self, fields, coordinates, payload, method):
                return np.zeros((fields.shape[0], coordinates.shape[1]))

        register_backend("echo", EchoBackend)
        try:
            interp = PeriodicInterpolator(grid, backend="echo")
            np.testing.assert_array_equal(interp(field, points), 0.0)
        finally:
            from repro.transport import kernels

            kernels._REGISTRY.pop("echo", None)
            kernels._INSTANCES.pop("echo", None)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("method", SUPPORTED_METHODS)
class TestBackendAgreement:
    def test_agrees_with_scipy_reference(self, backend, method, grid, field, points):
        """All engines agree to <= 1e-10 on a smooth-field evaluation."""
        reference = PeriodicInterpolator(grid, method, backend="scipy")(field, points)
        values = PeriodicInterpolator(grid, method, backend=backend)(field, points)
        np.testing.assert_allclose(values, reference, atol=1e-10)

    def test_smooth_field_round_trip(self, backend, method, grid, field):
        """Interpolating at the grid nodes reproduces the field itself."""
        interp = PeriodicInterpolator(grid, method, backend=backend)
        values = interp(field, grid.coordinate_stack())
        np.testing.assert_allclose(values, field, atol=1e-10)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("method", SUPPORTED_METHODS)
class TestGatherPlans:
    def test_planned_path_is_bitwise_identical(self, backend, method, grid, field, points):
        interp = PeriodicInterpolator(grid, method, backend=backend)
        unplanned = interp(field, points)
        plan = interp.plan(points)
        planned = interp.interpolate_planned(field, plan)
        np.testing.assert_array_equal(planned, unplanned)

    def test_batched_matches_scalar_bitwise(self, backend, method, grid, points):
        rng = np.random.default_rng(7)
        fields = rng.standard_normal((3, *grid.shape))
        interp = PeriodicInterpolator(grid, method, backend=backend)
        plan = interp.plan(points)
        batched = interp.interpolate_many_planned(fields, plan)
        for component in range(3):
            scalar = interp.interpolate_planned(fields[component], plan)
            np.testing.assert_array_equal(batched[component], scalar)

    def test_plan_reused_across_fields(self, backend, method, grid, points):
        rng = np.random.default_rng(8)
        interp = PeriodicInterpolator(grid, method, backend=backend)
        plan = interp.plan(points)
        for seed in (1, 2):
            f = rng.standard_normal(grid.shape)
            np.testing.assert_array_equal(
                interp.interpolate_planned(f, plan), interp(f, points)
            )

    def test_plan_records_caching_capability(self, backend, method, grid, points):
        interp = PeriodicInterpolator(grid, method, backend=backend)
        plan = interp.plan(points)
        assert plan.is_cached == interp.backend.supports_plan(method)
        assert plan.num_points == points.shape[1]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("method", SUPPORTED_METHODS)
class TestLowerPrecisionFields:
    def test_float32_grid_fields_are_upcast(self, backend, method):
        """Regression: float32 fields interpolate on every backend/kernel."""
        grid = Grid((8, 8, 8), dtype=np.float32)
        rng = np.random.default_rng(9)
        field = rng.standard_normal(grid.shape).astype(np.float32)
        points = rng.uniform(0, 2 * np.pi, size=(3, 50))
        interp = PeriodicInterpolator(grid, method, backend=backend)
        values = interp(field, points)
        assert values.dtype == np.float32
        reference = PeriodicInterpolator(Grid((8, 8, 8)), method, backend=backend)(
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
    def test_counters_identical_across_backends(self, grid, field, points):
        counts = {}
        for backend in available_backends():
            interp = PeriodicInterpolator(grid, "catmull_rom", backend=backend)
            interp(field, points)
            plan = interp.plan(points)
            interp.interpolate_many_planned(np.stack([field] * 3), plan)
            counts[backend] = interp.points_interpolated
        assert len(set(counts.values())) == 1, counts

    def test_batched_counts_batch_times_points(self, grid, field, points):
        interp = PeriodicInterpolator(grid, backend="numpy")
        plan = interp.plan(points)
        interp.interpolate_many_planned(np.stack([field] * 4), plan)
        assert interp.points_interpolated == 4 * points.shape[1]


class TestStencilPlans:
    """The one plan: 36 bytes per point, gathers bitwise like its oracle."""

    @pytest.mark.parametrize("method", SUPPORTED_METHODS)
    @pytest.mark.parametrize("chunk", [1, 97, None])
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("mapped", [False, True], ids=["resident", "memmap"])
    @pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "ghosted"])
    def test_gathers_bitwise_like_materialized_stencil(
        self, method, chunk, workers, mapped, periodic, tmp_path
    ):
        """Every chunk size x worker count x in-memory/memory-mapped stack x
        block kind gathers bitwise what the whole-point-set stencil gathers."""
        rng = np.random.default_rng(11)
        shape = (12, 11, 13)
        if periodic:
            coords = rng.uniform(0.0, 1.0, size=(3, 400)) * np.asarray(shape)[:, None]
        else:  # interior of a ghost-extended block: no tap leaves the block
            coords = rng.uniform(2.0, 8.0, size=(3, 400))
        flat = rng.standard_normal((2, *shape)).reshape(2, -1)
        fields = flat
        if mapped:
            np.save(tmp_path / "flat.npy", flat)
            fields = np.load(tmp_path / "flat.npy", mmap_mode="r")
        plan = build_stencil_plan(shape, coords, method, periodic=periodic)
        candidate = execute_stencil_plan(fields, plan, chunk=chunk, workers=workers)
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

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backends_plan_stencils(self, backend, grid, points):
        interp = PeriodicInterpolator(grid, "catmull_rom", backend=backend)
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
