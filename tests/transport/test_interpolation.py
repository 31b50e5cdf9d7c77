"""Tests for repro.transport.interpolation."""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from repro.spectral.grid import Grid
from repro.transport.interpolation import PeriodicInterpolator
from repro.transport.kernels import catmull_rom_weights

from tests.fixtures import periodic_gather, smooth_scalar_field

#: The solver's kernel and the distributed scatter's.
KERNELS = ("cubic_bspline", "catmull_rom")


def _interpolator(grid, kernel):
    """``interp(field, points)``: the solver's interpolator for ``cubic_bspline``,
    the periodic operator (the scatter's serial counterpart) for ``catmull_rom``."""
    if kernel == "cubic_bspline":
        return PeriodicInterpolator(grid)
    return partial(periodic_gather, grid, kernel=kernel)


class TestWeights:
    def test_catmull_rom_partition_of_unity(self):
        t = np.linspace(0.0, 1.0, 33)
        w = catmull_rom_weights(t)
        np.testing.assert_allclose(sum(w), 1.0, atol=1e-12)

    def test_catmull_rom_interpolates_nodes(self):
        w0, w1, w2, w3 = catmull_rom_weights(np.array([0.0]))
        np.testing.assert_allclose([w0[0], w1[0], w2[0], w3[0]], [0, 1, 0, 0], atol=1e-14)

    def test_catmull_rom_reproduces_linear_functions(self):
        # exact for polynomials up to degree 3; check degree 1 explicitly
        t = np.linspace(0, 1, 11)
        w = catmull_rom_weights(t)
        nodes = np.array([-1.0, 0.0, 1.0, 2.0])
        interpolated = sum(wi * ni for wi, ni in zip(w, nodes))
        np.testing.assert_allclose(interpolated, t, atol=1e-12)


class TestConstructionAndValidation:
    def test_field_shape_validated(self):
        interp = PeriodicInterpolator(Grid((8, 8, 8)))
        with pytest.raises(ValueError):
            interp(np.zeros((4, 4, 4)), np.zeros((3, 5)))

    def test_points_leading_dimension_validated(self):
        interp = PeriodicInterpolator(Grid((8, 8, 8)))
        with pytest.raises(ValueError):
            interp(np.zeros((8, 8, 8)), np.zeros((2, 5)))

    def test_stack_shape_validated(self):
        interp = PeriodicInterpolator(Grid((8, 8, 8)))
        with pytest.raises(ValueError):
            interp.interpolate_many(np.zeros((2, 8, 8, 7)), np.zeros((3, 5)))

    def test_counts_interpolated_points(self):
        grid = Grid((8, 8, 8))
        interp = PeriodicInterpolator(grid)
        interp(np.zeros(grid.shape), np.zeros((3, 10)))
        assert interp.points_interpolated == 10


@pytest.mark.parametrize("kernel", KERNELS)
class TestExactnessOnGridPoints:
    def test_reproduces_values_at_grid_points(self, kernel, rng):
        grid = Grid((8, 8, 8))
        field = rng.standard_normal(grid.shape)
        values = _interpolator(grid, kernel)(field, grid.coordinate_stack())
        # cubic b-splines and Catmull-Rom both interpolate (pass through) the data
        np.testing.assert_allclose(values, field, atol=1e-9)

    def test_constant_field_reproduced_anywhere(self, kernel, rng):
        grid = Grid((8, 8, 8))
        field = np.full(grid.shape, 3.14)
        points = rng.uniform(-10, 10, size=(3, 200))
        np.testing.assert_allclose(_interpolator(grid, kernel)(field, points), 3.14, atol=1e-9)

    def test_output_shape_follows_points_shape(self, kernel):
        grid = Grid((8, 8, 8))
        points = np.zeros((3, 4, 5))
        assert _interpolator(grid, kernel)(np.zeros(grid.shape), points).shape == (4, 5)


@pytest.mark.parametrize("kernel", KERNELS)
class TestPeriodicity:
    def test_wraps_around_domain(self, kernel, rng):
        grid = Grid((8, 8, 8))
        field = rng.standard_normal(grid.shape)
        interp = _interpolator(grid, kernel)
        points = rng.uniform(0, 2 * np.pi, size=(3, 50))
        shifted = points + 2 * np.pi * np.array([[1.0], [-2.0], [3.0]])
        np.testing.assert_allclose(interp(field, points), interp(field, shifted), atol=1e-9)

    def test_negative_coordinates_allowed(self, kernel, rng):
        grid = Grid((8, 8, 8))
        field = rng.standard_normal(grid.shape)
        points = rng.uniform(-2 * np.pi, 0, size=(3, 50))
        out = _interpolator(grid, kernel)(field, points)
        assert np.all(np.isfinite(out))


class TestAccuracy:
    def test_cubic_more_accurate_than_linear(self):
        grid = Grid((16, 16, 16))
        field = smooth_scalar_field(grid, seed=1, modes=2)
        rng = np.random.default_rng(0)
        points = rng.uniform(0, 2 * np.pi, size=(3, 500))

        x1, x2, x3 = points
        # rebuild the analytic field value at the query points
        exact = np.zeros(points.shape[1])
        rng_local = np.random.default_rng(1)
        for _ in range(4):
            k = rng_local.integers(1, 3, size=3)
            phase = rng_local.uniform(0, 2 * np.pi, size=3)
            amp = rng_local.uniform(0.2, 1.0)
            exact += amp * (
                np.sin(k[0] * x1 + phase[0])
                * np.sin(k[1] * x2 + phase[1])
                * np.sin(k[2] * x3 + phase[2])
            )

        # the trilinear baseline the paper rejects (Sec. III-B2)
        coordinates = PeriodicInterpolator(grid).to_index_coordinates(points)
        trilinear = ndimage.map_coordinates(field, coordinates, order=1, mode="grid-wrap")
        errors = {"linear": np.max(np.abs(trilinear - exact))}
        for kernel in KERNELS:
            errors[kernel] = np.max(np.abs(_interpolator(grid, kernel)(field, points) - exact))
        assert errors["cubic_bspline"] < errors["linear"]
        assert errors["catmull_rom"] < errors["linear"]

    def test_cubic_convergence_order(self):
        # error of tricubic interpolation should drop by roughly 2^4 per refinement
        errors = []
        for n in (8, 16, 32):
            grid = Grid((n, n, n))
            x1, x2, x3 = grid.coordinates()
            field = np.sin(x1) * np.sin(x2) * np.sin(x3)
            rng = np.random.default_rng(3)
            pts = rng.uniform(0, 2 * np.pi, size=(3, 300))
            exact = np.sin(pts[0]) * np.sin(pts[1]) * np.sin(pts[2])
            errors.append(np.max(np.abs(periodic_gather(grid, field, pts) - exact)))
        assert errors[1] < errors[0] / 6
        assert errors[2] < errors[1] / 6

    def test_methods_agree_on_smooth_field(self):
        grid = Grid((16, 16, 16))
        field = smooth_scalar_field(grid, seed=4, modes=1)
        rng = np.random.default_rng(5)
        points = rng.uniform(0, 2 * np.pi, size=(3, 100))
        a = _interpolator(grid, "cubic_bspline")(field, points)
        b = _interpolator(grid, "catmull_rom")(field, points)
        np.testing.assert_allclose(a, b, atol=5e-3)


class TestVectorInterpolation:
    def test_vector_interpolation_matches_componentwise(self, rng):
        grid = Grid((8, 8, 8))
        v = rng.standard_normal((3, *grid.shape))
        interp = PeriodicInterpolator(grid)
        points = rng.uniform(0, 2 * np.pi, size=(3, 40))
        out = interp.interpolate_many(v, points)
        for comp in range(3):
            np.testing.assert_allclose(out[comp], interp(v[comp], points), atol=1e-12)


class TestPropertyBased:
    @given(seed=st.integers(0, 1000), shift=st.integers(-3, 3))
    @settings(max_examples=10, deadline=None)
    def test_periodic_shift_invariance(self, seed, shift):
        grid = Grid((8, 8, 8))
        rng = np.random.default_rng(seed)
        field = rng.standard_normal(grid.shape)
        interp = partial(periodic_gather, grid)
        pts = rng.uniform(0, 2 * np.pi, size=(3, 20))
        np.testing.assert_allclose(
            interp(field, pts), interp(field, pts + shift * 2 * np.pi), atol=1e-9
        )

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=10, deadline=None)
    def test_interpolation_is_linear_in_the_field(self, seed):
        grid = Grid((8, 8, 8))
        rng = np.random.default_rng(seed)
        f = rng.standard_normal(grid.shape)
        g = rng.standard_normal(grid.shape)
        interp = partial(periodic_gather, grid)
        pts = rng.uniform(0, 2 * np.pi, size=(3, 25))
        np.testing.assert_allclose(
            interp(f + 2.0 * g, pts), interp(f, pts) + 2.0 * interp(g, pts), atol=1e-9
        )
