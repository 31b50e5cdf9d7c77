"""Tests for repro.spectral.grid."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spectral.grid import TWO_PI, Grid


class TestConstruction:
    def test_default_domain_is_two_pi_cube(self):
        grid = Grid((8, 8, 8))
        assert grid.lengths == (TWO_PI, TWO_PI, TWO_PI)

    def test_rejects_two_dimensional_shape(self):
        with pytest.raises(ValueError):
            Grid((8, 8))

    def test_rejects_tiny_axis(self):
        with pytest.raises(ValueError):
            Grid((8, 1, 8))

    def test_rejects_nonpositive_lengths(self):
        with pytest.raises(ValueError):
            Grid((8, 8, 8), lengths=(1.0, 0.0, 1.0))

    def test_num_points(self):
        assert Grid((4, 6, 8)).num_points == 4 * 6 * 8

    def test_is_isotropic(self):
        assert Grid((8, 8, 8)).is_isotropic()
        assert not Grid((8, 16, 8)).is_isotropic()

    def test_grid_is_hashable_and_equal(self):
        assert Grid((8, 8, 8)) == Grid((8, 8, 8))
        assert hash(Grid((8, 8, 8))) == hash(Grid((8, 8, 8)))
        assert Grid((8, 8, 8)) != Grid((8, 8, 16))


class TestGeometry:
    def test_spacing_matches_paper_definition(self):
        grid = Grid((16, 16, 16))
        assert grid.spacing == pytest.approx((TWO_PI / 16,) * 3)

    def test_cell_volume_times_points_is_domain_volume(self):
        grid = Grid((8, 12, 10))
        assert grid.cell_volume * grid.num_points == pytest.approx(grid.domain_volume)

    def test_axis_coordinates_start_at_zero_exclude_endpoint(self):
        grid = Grid((8, 8, 8))
        x = grid.axis_coordinates(0)
        assert x[0] == 0.0
        assert x[-1] == pytest.approx(TWO_PI - TWO_PI / 8)

    def test_axis_coordinates_invalid_axis(self):
        with pytest.raises(ValueError):
            Grid((8, 8, 8)).axis_coordinates(3)

    def test_coordinate_stack_shape(self):
        grid = Grid((4, 6, 8))
        assert grid.coordinate_stack().shape == (3, 4, 6, 8)

    def test_coordinates_meshgrid_matches_stack(self):
        grid = Grid((4, 5, 6))
        x1, x2, x3 = grid.coordinates()
        stack = grid.coordinate_stack()
        np.testing.assert_allclose(stack[0], x1)
        np.testing.assert_allclose(stack[2], x3)


class TestWavenumbers:
    def test_integer_wavenumbers_on_default_domain(self):
        grid = Grid((8, 8, 8))
        k = grid.wavenumbers_1d(0)
        assert set(np.round(k).astype(int)) == {0, 1, 2, 3, -4, -3, -2, -1}

    def test_real_axis_wavenumbers_are_half_spectrum(self):
        grid = Grid((8, 8, 8))
        k = grid.wavenumbers_1d(2, real_axis=True)
        np.testing.assert_allclose(k, [0, 1, 2, 3, 4])

    def test_wavenumber_scaling_for_nondefault_length(self):
        grid = Grid((8, 8, 8), lengths=(np.pi, TWO_PI, TWO_PI))
        k = grid.wavenumbers_1d(0)
        # domain half as long -> wavenumbers twice as large
        assert k[1] == pytest.approx(2.0)

    @pytest.mark.parametrize("n", [8, 10])
    def test_derivative_wavenumbers_zero_the_nyquist_mode_of_an_even_axis(self, n):
        grid = Grid((n, 8, n))
        k = grid.wavenumbers_1d(0)
        kd = grid.derivative_wavenumbers_1d(0)
        assert kd[n // 2] == 0.0 and k[n // 2] == -(n // 2)
        np.testing.assert_array_equal(np.delete(kd, n // 2), np.delete(k, n // 2))
        assert grid.derivative_wavenumbers_1d(2, real_axis=True)[-1] == 0.0

    def test_derivative_wavenumbers_of_an_odd_axis_are_unchanged(self):
        grid = Grid((9, 8, 8))
        np.testing.assert_array_equal(
            grid.derivative_wavenumbers_1d(0), grid.wavenumbers_1d(0)
        )

    def test_laplacian_symbol_nonpositive(self):
        grid = Grid((8, 10, 12))
        sym = grid.laplacian_symbol()
        assert np.all(sym <= 0.0)
        assert sym.flat[0] == 0.0

    def test_wavenumber_mesh_broadcast_shape(self):
        grid = Grid((4, 6, 8))
        k1, k2, k3 = grid.wavenumber_mesh()
        assert k1.shape == (4, 1, 1)
        assert k2.shape == (1, 6, 1)
        assert k3.shape == (1, 1, 8 // 2 + 1)


class TestFieldFactoriesAndInnerProduct:
    def test_zeros_shapes(self):
        grid = Grid((4, 5, 6))
        assert grid.zeros().shape == (4, 5, 6)
        assert grid.zeros_vector().shape == (3, 4, 5, 6)

    def test_inner_product_of_constants(self):
        grid = Grid((8, 8, 8))
        ones = np.ones(grid.shape)
        assert grid.inner(ones, ones) == pytest.approx(grid.domain_volume)

    def test_norm_of_sine_is_analytic(self):
        # ||sin(x1)||^2 over [0,2pi)^3 = (2pi)^3 / 2
        grid = Grid((16, 16, 16))
        x1 = grid.coordinates()[0]
        field = np.sin(x1)
        assert grid.norm(field) ** 2 == pytest.approx(grid.domain_volume / 2, rel=1e-12)

    def test_inner_rejects_mismatched_shapes(self):
        grid = Grid((4, 4, 4))
        with pytest.raises(ValueError):
            grid.inner(grid.zeros(), np.zeros((5, 4, 4)))

    def test_random_field_is_reproducible(self):
        grid = Grid((4, 4, 4))
        a = grid.random_field(np.random.default_rng(1))
        b = grid.random_field(np.random.default_rng(1))
        np.testing.assert_array_equal(a, b)


class TestPropertyBased:
    @given(
        n1=st.integers(min_value=2, max_value=20),
        n2=st.integers(min_value=2, max_value=20),
        n3=st.integers(min_value=2, max_value=20),
    )
    @settings(max_examples=25, deadline=None)
    def test_cell_volume_consistency(self, n1, n2, n3):
        grid = Grid((n1, n2, n3))
        assert grid.cell_volume * grid.num_points == pytest.approx(grid.domain_volume)

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=20, deadline=None)
    def test_cauchy_schwarz(self, seed):
        grid = Grid((6, 6, 6))
        rng = np.random.default_rng(seed)
        a = grid.random_field(rng)
        b = grid.random_field(rng)
        lhs = abs(grid.inner(a, b))
        rhs = grid.norm(a) * grid.norm(b)
        assert lhs <= rhs * (1 + 1e-12)

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=20, deadline=None)
    def test_norm_positive_definite(self, seed):
        grid = Grid((5, 6, 7))
        rng = np.random.default_rng(seed)
        a = grid.random_field(rng)
        assert grid.norm(a) >= 0.0
        assert grid.norm(np.zeros(grid.shape)) == 0.0
