"""Tests for repro.spectral.filters."""

import numpy as np
import pytest

from repro.spectral.filters import gaussian_smooth, gaussian_symbol
from repro.spectral.grid import Grid
from repro.spectral.operators import SpectralOperators


class TestGaussianSmoothing:
    def test_preserves_constant_field(self):
        grid = Grid((8, 8, 8))
        field = np.full(grid.shape, 1.7)
        np.testing.assert_allclose(gaussian_smooth(field, grid), field, atol=1e-12)

    def test_preserves_mean(self, rng):
        grid = Grid((16, 16, 16))
        field = rng.standard_normal(grid.shape)
        smoothed = gaussian_smooth(field, grid, sigma=0.5)
        assert smoothed.mean() == pytest.approx(field.mean(), abs=1e-12)

    def test_reduces_high_frequency_content(self, rng):
        grid = Grid((16, 16, 16))
        field = rng.standard_normal(grid.shape)
        smoothed = gaussian_smooth(field, grid, sigma=1.0)
        assert np.var(smoothed) < np.var(field)

    def test_zero_sigma_is_identity(self, rng):
        grid = Grid((8, 8, 8))
        field = rng.standard_normal(grid.shape)
        np.testing.assert_allclose(gaussian_smooth(field, grid, sigma=0.0), field, atol=1e-12)

    def test_larger_sigma_smooths_more(self, rng):
        grid = Grid((16, 16, 16))
        field = rng.standard_normal(grid.shape)
        mild = gaussian_smooth(field, grid, sigma=0.2)
        strong = gaussian_smooth(field, grid, sigma=1.0)
        assert np.var(strong) < np.var(mild)

    def test_default_sigma_is_grid_spacing(self):
        grid = Grid((8, 8, 8))
        np.testing.assert_allclose(
            gaussian_symbol(grid), gaussian_symbol(grid, sigma=grid.spacing)
        )

    def test_symbol_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            gaussian_symbol(Grid((8, 8, 8)), sigma=(-1.0, 1.0, 1.0))

    def test_anisotropic_sigma(self, rng):
        grid = Grid((8, 8, 8))
        field = rng.standard_normal(grid.shape)
        out = gaussian_smooth(field, grid, sigma=(0.0, 0.0, 2.0))
        # smoothing only along the third axis preserves averages along it
        np.testing.assert_allclose(out.mean(axis=2), field.mean(axis=2), atol=1e-10)


class TestGaussianMultiplier:
    """The filter is the Fourier multiplier ``exp(-|k sigma|^2 / 2)``."""

    @pytest.mark.parametrize("mode", [(1, 0, 0), (0, 2, 0), (0, 0, 3), (1, 1, 1)])
    def test_single_mode_is_damped_by_its_symbol(self, mode):
        grid = Grid((16, 16, 16))
        x1, x2, x3 = grid.coordinates(sparse=True)
        field = np.cos(mode[0] * x1 + mode[1] * x2 + mode[2] * x3)
        sigma = 0.3
        damping = np.exp(-0.5 * sigma**2 * sum(k * k for k in mode))
        np.testing.assert_allclose(
            gaussian_smooth(field, grid, sigma=sigma), damping * field, atol=1e-12
        )

    def test_is_self_adjoint(self, rng):
        grid = Grid((8, 10, 12))
        f = rng.standard_normal(grid.shape)
        g = rng.standard_normal(grid.shape)
        lhs = grid.inner(gaussian_smooth(f, grid, sigma=0.4), g)
        rhs = grid.inner(f, gaussian_smooth(g, grid, sigma=0.4))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_two_passes_are_one_pass_of_the_combined_width(self, rng):
        grid = Grid((12, 12, 12))
        field = rng.standard_normal(grid.shape)
        twice = gaussian_smooth(gaussian_smooth(field, grid, sigma=0.3), grid, sigma=0.4)
        once = gaussian_smooth(field, grid, sigma=0.5)
        np.testing.assert_allclose(twice, once, atol=1e-12)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_commutes_with_the_derivative(self, rng, axis):
        grid = Grid((12, 12, 12))
        ops = SpectralOperators(grid)
        field = gaussian_smooth(rng.standard_normal(grid.shape), grid, sigma=0.5)
        np.testing.assert_allclose(
            ops.derivative(gaussian_smooth(field, grid, sigma=0.3), axis),
            gaussian_smooth(ops.derivative(field, axis), grid, sigma=0.3),
            atol=1e-10,
        )

    def test_symbol_rejects_a_sigma_of_the_wrong_length(self):
        with pytest.raises(ValueError, match="3 non-negative"):
            gaussian_symbol(Grid((8, 8, 8)), sigma=(1.0, 1.0))
