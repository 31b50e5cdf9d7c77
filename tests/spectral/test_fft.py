"""Tests for repro.spectral.fft."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spectral.fft import FourierTransform
from repro.spectral.grid import Grid


@pytest.fixture()
def fft16():
    return FourierTransform(Grid((16, 16, 16)))


class TestRoundTrip:
    def test_forward_backward_identity(self, fft16, rng):
        field = rng.standard_normal(fft16.grid.shape)
        np.testing.assert_allclose(fft16.backward(fft16.forward(field)), field, atol=1e-12)

    def test_round_trip_anisotropic(self):
        grid = Grid((8, 12, 10))
        fft = FourierTransform(grid)
        field = np.random.default_rng(0).standard_normal(grid.shape)
        np.testing.assert_allclose(fft.backward(fft.forward(field)), field, atol=1e-12)

    def test_round_trip_odd_last_axis(self):
        grid = Grid((8, 8, 9))
        fft = FourierTransform(grid)
        field = np.random.default_rng(1).standard_normal(grid.shape)
        np.testing.assert_allclose(fft.backward(fft.forward(field)), field, atol=1e-12)

    def test_vector_round_trip(self, fft16, rng):
        v = rng.standard_normal((3, *fft16.grid.shape))
        np.testing.assert_allclose(
            fft16.inverse_vector(fft16.forward_vector(v)), v, atol=1e-12
        )


class TestShapesAndValidation:
    def test_spectral_shape(self, fft16):
        assert fft16.spectral_shape == (16, 16, 9)

    def test_forward_rejects_wrong_shape(self, fft16):
        with pytest.raises(ValueError):
            fft16.forward(np.zeros((8, 8, 8)))

    def test_backward_rejects_wrong_shape(self, fft16):
        with pytest.raises(ValueError):
            fft16.backward(np.zeros((16, 16, 16), dtype=complex))

    def test_vector_shape_validation(self, fft16):
        with pytest.raises(ValueError):
            fft16.forward_vector(np.zeros(fft16.grid.shape))
        with pytest.raises(ValueError):
            fft16.inverse_vector(np.zeros((2, *fft16.spectral_shape), dtype=complex))

    def test_backward_returns_real_dtype(self, fft16, rng):
        out = fft16.backward(fft16.forward(rng.standard_normal(fft16.grid.shape)))
        assert out.dtype == fft16.grid.dtype


class TestSpectralContent:
    def test_constant_field_has_only_zero_mode(self, fft16):
        spectrum = fft16.forward(np.full(fft16.grid.shape, 3.0))
        assert spectrum[0, 0, 0] == pytest.approx(3.0 * fft16.grid.num_points)
        spectrum[0, 0, 0] = 0.0
        assert np.max(np.abs(spectrum)) < 1e-9

    def test_single_sine_mode(self):
        grid = Grid((16, 16, 16))
        fft = FourierTransform(grid)
        x1 = grid.coordinates()[0]
        spectrum = fft.forward(np.sin(2 * x1))
        magnitude = np.abs(spectrum)
        # energy concentrated at k1 = +-2, k2 = k3 = 0
        assert magnitude[2, 0, 0] > 1.0
        total = magnitude.sum()
        assert magnitude[2, 0, 0] + magnitude[-2, 0, 0] == pytest.approx(total, rel=1e-9)

    def test_apply_identity_symbol(self, fft16, rng):
        field = rng.standard_normal(fft16.grid.shape)
        symbol = np.ones(fft16.spectral_shape)
        np.testing.assert_allclose(fft16.apply_symbol(field, symbol), field, atol=1e-12)

    def test_apply_zero_symbol(self, fft16, rng):
        field = rng.standard_normal(fft16.grid.shape)
        out = fft16.apply_symbol(field, np.zeros(fft16.spectral_shape))
        np.testing.assert_allclose(out, 0.0, atol=1e-14)


class TestCounters:
    def test_counters_track_transforms(self, fft16, rng):
        fft16.reset_counters()
        field = rng.standard_normal(fft16.grid.shape)
        fft16.backward(fft16.forward(field))
        assert fft16.counters.forward == 1
        assert fft16.counters.backward == 1
        assert fft16.counters.total == 2

    def test_apply_symbol_counts_two_transforms(self, fft16, rng):
        fft16.reset_counters()
        fft16.apply_symbol(rng.standard_normal(fft16.grid.shape), np.ones(fft16.spectral_shape))
        assert fft16.counters.total == 2

    def test_reset(self, fft16, rng):
        fft16.forward(rng.standard_normal(fft16.grid.shape))
        fft16.reset_counters()
        assert fft16.counters.total == 0


class TestHalfSpectrumInnerProduct:
    """``fft.inner`` / ``fft.norm`` are ``grid.inner`` / ``grid.norm`` of the fields."""

    # even, odd and non-cubic grids: the Nyquist plane exists only for even N3
    SHAPES = [(8, 8, 8), (9, 8, 7), (16, 19, 16)]

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("stack", [(), (3,), (2, 3)])
    def test_matches_the_grid_inner_product(self, shape, stack):
        grid = Grid(shape)
        fft = FourierTransform(grid)
        rng = np.random.default_rng(sum(shape) + len(stack))
        a = rng.standard_normal((*stack, *shape))
        b = rng.standard_normal((*stack, *shape))
        a_hat, b_hat = fft.forward_batch(a), fft.forward_batch(b)
        before = fft.counters.total
        assert fft.inner(a_hat, b_hat) == pytest.approx(grid.inner(a, b), rel=1e-13)
        assert fft.norm(a_hat) == pytest.approx(grid.norm(a), rel=1e-13)
        assert fft.counters.total == before  # Parseval: no transform

    def test_rejects_mismatched_or_full_spectra(self, fft16, rng):
        spectrum = fft16.forward(rng.standard_normal(fft16.grid.shape))
        with pytest.raises(ValueError):
            fft16.inner(spectrum, spectrum[:, :, :-1])
        with pytest.raises(ValueError):
            fft16.inner(np.zeros((16, 16, 16), dtype=complex), np.zeros((16, 16, 16), dtype=complex))


class TestParsevalProperty:
    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=15, deadline=None)
    def test_parseval(self, seed):
        grid = Grid((8, 8, 8))
        fft = FourierTransform(grid)
        field = np.random.default_rng(seed).standard_normal(grid.shape)
        spectrum = np.fft.fftn(field)
        lhs = np.sum(field**2)
        rhs = np.sum(np.abs(spectrum) ** 2) / grid.num_points
        assert lhs == pytest.approx(rhs, rel=1e-10)

    @given(seed=st.integers(min_value=0, max_value=2**16), scale=st.floats(0.1, 10.0))
    @settings(max_examples=15, deadline=None)
    def test_linearity(self, seed, scale):
        grid = Grid((8, 8, 8))
        fft = FourierTransform(grid)
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(grid.shape)
        b = rng.standard_normal(grid.shape)
        lhs = fft.forward(a + scale * b)
        rhs = fft.forward(a) + scale * fft.forward(b)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)
