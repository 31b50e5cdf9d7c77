"""Tests for repro.spectral.operators.

Spectral derivatives are exact for band-limited fields, so most tests check
analytic identities to near machine precision.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spectral.grid import TWO_PI, Grid
from repro.spectral.operators import SpectralOperators

from tests.fixtures import smooth_scalar_field, smooth_vector_field


@pytest.fixture(scope="module")
def ops():
    return SpectralOperators(Grid((16, 16, 16)))


def _trig_field(grid):
    x1, x2, x3 = grid.coordinates(sparse=True)
    return np.sin(2 * x1) * np.cos(x2) + np.sin(x3)


class TestDerivatives:
    def test_derivative_of_sine(self, ops):
        grid = ops.grid
        x1 = grid.coordinates()[0]
        d = ops.derivative(np.sin(3 * x1), axis=0)
        np.testing.assert_allclose(d, 3 * np.cos(3 * x1), atol=1e-10)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_derivative_of_each_axis_mode(self, ops, axis, k):
        x = ops.grid.coordinates()[axis]
        np.testing.assert_allclose(
            ops.derivative(np.cos(k * x), axis), -k * np.sin(k * x), atol=1e-9
        )

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_derivative_of_the_nyquist_mode_is_zero(self, ops, axis):
        # cos(N/2 x) samples as (-1)^i: no odd derivative is defined for it
        x = ops.grid.coordinates()[axis]
        nyquist = ops.grid.shape[axis] // 2
        np.testing.assert_allclose(
            ops.derivative(np.cos(nyquist * x), axis), 0.0, atol=1e-10
        )

    def test_derivative_invalid_axis(self, ops):
        with pytest.raises(ValueError):
            ops.derivative(ops.grid.zeros(), axis=3)

    def test_gradient_matches_analytic(self, ops):
        grid = ops.grid
        x1, x2, x3 = grid.coordinates()
        field = np.sin(x1) * np.sin(2 * x2) * np.cos(x3)
        grad = ops.gradient(field)
        np.testing.assert_allclose(grad[0], np.cos(x1) * np.sin(2 * x2) * np.cos(x3), atol=1e-10)
        np.testing.assert_allclose(grad[1], 2 * np.sin(x1) * np.cos(2 * x2) * np.cos(x3), atol=1e-10)
        np.testing.assert_allclose(grad[2], -np.sin(x1) * np.sin(2 * x2) * np.sin(x3), atol=1e-10)

    def test_gradient_of_constant_is_zero(self, ops):
        grad = ops.gradient(np.full(ops.grid.shape, 2.5))
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_divergence_of_gradient_is_laplacian(self, ops):
        field = _trig_field(ops.grid)
        lhs = ops.divergence(ops.gradient(field))
        rhs = ops.laplacian(field)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_anisotropic_grid_derivative(self):
        ops = SpectralOperators(Grid((8, 12, 10)))
        x2 = ops.grid.coordinates()[1]
        d = ops.derivative(np.cos(2 * x2), axis=1)
        np.testing.assert_allclose(d, -2 * np.sin(2 * x2), atol=1e-10)

    def test_jacobian_diagonal_matches_derivatives(self, ops):
        v = smooth_vector_field(ops.grid, seed=5)
        jac = ops.jacobian(v)
        for i in range(3):
            np.testing.assert_allclose(jac[i, i], ops.derivative(v[i], i), atol=1e-10)

    def test_convective_derivative_is_the_contracted_jacobian(self, ops):
        v = smooth_vector_field(ops.grid, seed=6)
        w = smooth_vector_field(ops.grid, seed=7)
        before = ops.fft.counters.total
        out = ops.convective_derivative(v, w)
        assert ops.fft.counters.total - before == 12
        expected = np.einsum("j...,ij...->i...", v, ops.jacobian(w))
        np.testing.assert_allclose(out, expected, atol=1e-12)


class TestLaplacianFamily:
    def test_laplacian_eigenfunction(self, ops):
        x1, x2, _ = ops.grid.coordinates()
        field = np.sin(2 * x1) * np.cos(3 * x2)
        np.testing.assert_allclose(ops.laplacian(field), -(4 + 9) * field, atol=1e-9)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_laplacian_eigenfunction_on_a_stretched_domain(self, axis):
        lengths = [TWO_PI, TWO_PI, TWO_PI]
        lengths[axis] = np.pi
        ops = SpectralOperators(Grid((8, 12, 10), lengths=tuple(lengths)))
        x = ops.grid.coordinates()[axis]
        field = np.sin(4 * x)  # mode 2 of the short axis: wavenumber 2 * (2 pi / L) = 4
        np.testing.assert_allclose(ops.laplacian(field), -16.0 * field, atol=1e-9)

    def test_biharmonic_eigenfunction(self, ops):
        x1, _, x3 = ops.grid.coordinates()
        field = np.cos(x1) * np.sin(2 * x3)
        np.testing.assert_allclose(ops.biharmonic(field), 25.0 * field, atol=1e-8)

    def test_biharmonic_is_laplacian_squared(self, ops):
        field = smooth_scalar_field(ops.grid, seed=2)
        np.testing.assert_allclose(
            ops.biharmonic(field), ops.laplacian(ops.laplacian(field)), atol=1e-8
        )

    def test_vector_laplacian_componentwise(self, ops):
        v = smooth_vector_field(ops.grid, seed=4)
        out = ops.vector_laplacian(v)
        for i in range(3):
            np.testing.assert_allclose(out[i], ops.laplacian(v[i]), atol=1e-10)

    def test_vector_biharmonic_componentwise(self, ops):
        v = smooth_vector_field(ops.grid, seed=6)
        out = ops.vector_biharmonic(v)
        for i in range(3):
            np.testing.assert_allclose(out[i], ops.biharmonic(v[i]), atol=1e-8)


class TestVectorCalculusIdentities:
    def test_divergence_validates_shape(self, ops):
        with pytest.raises(ValueError):
            ops.divergence(ops.grid.zeros())

    def test_integration_by_parts(self, ops):
        # <grad f, v> = -<f, div v> on the periodic domain
        grid = ops.grid
        f = smooth_scalar_field(grid, seed=9)
        v = smooth_vector_field(grid, seed=10)
        lhs = grid.inner(ops.gradient(f), v)
        rhs = -grid.inner(f, ops.divergence(v))
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-10)


class TestLerayProjection:
    def test_is_divergence_free_flags_a_gradient_part(self, ops):
        solenoidal = ops.leray_project(smooth_vector_field(ops.grid, seed=11))
        v = solenoidal + ops.gradient(_trig_field(ops.grid))
        assert ops.is_divergence_free(solenoidal)
        assert not ops.is_divergence_free(v)
        np.testing.assert_allclose(ops.leray_project(v), solenoidal, atol=1e-10)

    def test_projected_field_is_divergence_free(self, ops):
        v = smooth_vector_field(ops.grid, seed=11)
        pv = ops.leray_project(v)
        assert ops.is_divergence_free(pv, tol=1e-9)

    def test_projection_is_idempotent(self, ops):
        v = smooth_vector_field(ops.grid, seed=12)
        pv = ops.leray_project(v)
        ppv = ops.leray_project(pv)
        np.testing.assert_allclose(ppv, pv, atol=1e-10)

    def test_divergence_free_field_unchanged(self, ops):
        x1, x2, x3 = ops.grid.coordinates()
        v = np.stack([np.sin(x2) * np.sin(x3), np.sin(x1), np.cos(x1) * np.sin(x2)], axis=0)
        assert ops.is_divergence_free(v, tol=1e-9)
        np.testing.assert_allclose(ops.leray_project(v), v, atol=1e-9)

    def test_gradient_field_projects_to_constant(self, ops):
        # grad f is curl-free; its divergence-free part is only its mean (zero here)
        f = smooth_scalar_field(ops.grid, seed=13)
        pv = ops.leray_project(ops.gradient(f))
        assert ops.grid.norm(pv) < 1e-8

    def test_projection_is_orthogonal(self, ops):
        # <P v, (I - P) v> = 0
        v = smooth_vector_field(ops.grid, seed=14)
        pv = ops.leray_project(v)
        residual = v - pv
        assert abs(ops.grid.inner(pv, residual)) < 1e-8

    def test_projection_is_symmetric(self, ops):
        u = smooth_vector_field(ops.grid, seed=15)
        w = smooth_vector_field(ops.grid, seed=16)
        lhs = ops.grid.inner(ops.leray_project(u), w)
        rhs = ops.grid.inner(u, ops.leray_project(w))
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-10)


class TestLerayProjectionOfSpectra:
    """The projection where it is diagonal: no transform, optionally in place."""

    def test_idempotent_and_divergence_free(self, ops):
        spectra = ops.fft.forward_vector(smooth_vector_field(ops.grid, seed=17))
        before = ops.fft.counters.total
        projected = ops.leray_project_spectra(spectra)
        again = ops.leray_project_spectra(projected)
        assert ops.fft.counters.total == before
        scale = np.abs(projected).max()
        np.testing.assert_allclose(again, projected, rtol=0, atol=1e-12 * scale)
        divergence = ops.divergence_of_spectra(projected)
        assert ops.grid.norm(divergence) <= 1e-12 * ops.grid.norm(ops.fft.inverse_vector(projected))

    def test_is_the_projection_of_the_field(self, ops):
        v = smooth_vector_field(ops.grid, seed=18)
        spectra = ops.fft.forward_vector(v)
        kept = spectra.copy()
        projected = ops.leray_project_spectra(spectra)
        np.testing.assert_array_equal(spectra, kept)  # out of place by default
        np.testing.assert_array_equal(ops.fft.inverse_vector(projected), ops.leray_project(v))
        assert ops.leray_project_spectra(spectra, out=spectra) is spectra
        np.testing.assert_array_equal(spectra, projected)

    def test_validates_shape(self, ops):
        with pytest.raises(ValueError):
            ops.leray_project_spectra(np.zeros((3, 16, 16, 16), dtype=complex))


class TestOperatorLinearityProperty:
    @given(
        seed=st.integers(min_value=0, max_value=1000),
        alpha=st.floats(min_value=-3.0, max_value=3.0),
    )
    @settings(max_examples=10, deadline=None)
    def test_laplacian_linearity(self, seed, alpha):
        ops = SpectralOperators(Grid((8, 8, 8)))
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(ops.grid.shape)
        b = rng.standard_normal(ops.grid.shape)
        lhs = ops.laplacian(a + alpha * b)
        rhs = ops.laplacian(a) + alpha * ops.laplacian(b)
        np.testing.assert_allclose(lhs, rhs, atol=1e-8)

    @given(seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=10, deadline=None)
    def test_laplacian_self_adjoint(self, seed):
        ops = SpectralOperators(Grid((8, 8, 8)))
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(ops.grid.shape)
        b = rng.standard_normal(ops.grid.shape)
        lhs = ops.grid.inner(ops.laplacian(a), b)
        rhs = ops.grid.inner(a, ops.laplacian(b))
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-9)
