"""Tests for repro.core.regularization."""

import numpy as np
import pytest

from repro.core.preconditioner import SpectralPreconditioner
from repro.core.regularization import (
    H1Regularization,
    H2Regularization,
    H3Regularization,
    make_regularization,
)
from repro.spectral.grid import Grid
from repro.spectral.operators import SpectralOperators

from tests.fixtures import smooth_vector_field


@pytest.fixture(scope="module")
def ops():
    return SpectralOperators(Grid((16, 16, 16)))


def first_variation(reg, v):
    """``beta A v`` as a field; the regularization applies it to half-spectra."""
    fft = reg.operators.fft
    spectrum = fft.forward_vector(v)
    return fft.inverse_vector(reg.add_first_variation(spectrum, out=np.zeros_like(spectrum)))


def apply_inverse(reg, v):
    """``(beta A)^+ v`` (identity on the constant mode): the preconditioner's symbol."""
    fft = reg.operators.fft
    return fft.inverse_vector(SpectralPreconditioner(reg)(fft.forward_vector(v)))


class TestFactory:
    def test_factory_names(self, ops):
        assert isinstance(make_regularization("h1", ops, 1.0), H1Regularization)
        assert isinstance(make_regularization("H2", ops, 1.0), H2Regularization)
        assert isinstance(make_regularization("h3", ops, 1.0), H3Regularization)

    def test_unknown_name_rejected(self, ops):
        with pytest.raises(ValueError):
            make_regularization("tv", ops, 1.0)

    def test_invalid_beta_rejected(self, ops):
        with pytest.raises(ValueError):
            H1Regularization(ops, 0.0)
        with pytest.raises(ValueError):
            H1Regularization(ops, -1.0)

    def test_with_beta_returns_same_type(self, ops):
        reg = H2Regularization(ops, 1e-2)
        new = reg.with_beta(1e-3)
        assert isinstance(new, H2Regularization)
        assert new.beta == pytest.approx(1e-3)
        assert reg.beta == pytest.approx(1e-2)


class TestEnergyAndGradient:
    def test_energy_zero_for_zero_velocity(self, ops):
        reg = H1Regularization(ops, 1e-2)
        assert reg.energy(ops.grid.zeros_vector()) == 0.0

    def test_energy_zero_for_constant_velocity(self, ops):
        reg = H1Regularization(ops, 1e-2)
        v = ops.grid.zeros_vector()
        v += 2.0
        assert reg.energy(v) == pytest.approx(0.0, abs=1e-10)

    def test_energy_positive_for_nonconstant_velocity(self, ops):
        reg = H1Regularization(ops, 1e-2)
        assert reg.energy(smooth_vector_field(ops.grid, seed=1)) > 0.0

    def test_h1_energy_matches_gradient_norm(self, ops):
        # beta/2 ||grad v||^2 = beta/2 sum_i <grad v_i, grad v_i>
        beta = 0.37
        reg = H1Regularization(ops, beta)
        v = smooth_vector_field(ops.grid, seed=2)
        explicit = 0.0
        for comp in range(3):
            grad = ops.gradient(v[comp])
            explicit += ops.grid.inner(grad, grad)
        assert reg.energy(v) == pytest.approx(0.5 * beta * explicit, rel=1e-8)

    def test_h2_energy_matches_laplacian_norm(self, ops):
        beta = 0.51
        reg = H2Regularization(ops, beta)
        v = smooth_vector_field(ops.grid, seed=3)
        explicit = sum(
            ops.grid.inner(ops.laplacian(v[i]), ops.laplacian(v[i])) for i in range(3)
        )
        assert reg.energy(v) == pytest.approx(0.5 * beta * explicit, rel=1e-8)

    def test_gradient_is_beta_times_operator(self, ops):
        reg = H1Regularization(ops, 2.0)
        v = smooth_vector_field(ops.grid, seed=4)
        np.testing.assert_allclose(
            first_variation(reg, v), 2.0 * reg.apply_operator(v), atol=1e-10
        )

    def test_h1_operator_is_negative_laplacian(self, ops):
        reg = H1Regularization(ops, 1.0)
        v = smooth_vector_field(ops.grid, seed=5)
        np.testing.assert_allclose(reg.apply_operator(v), -ops.vector_laplacian(v), atol=1e-8)

    def test_h2_operator_is_biharmonic(self, ops):
        reg = H2Regularization(ops, 1.0)
        v = smooth_vector_field(ops.grid, seed=6)
        np.testing.assert_allclose(reg.apply_operator(v), ops.vector_biharmonic(v), atol=1e-7)

    def test_gradient_consistent_with_energy_finite_difference(self, ops):
        reg = H1Regularization(ops, 1e-1)
        grid = ops.grid
        v = 0.5 * smooth_vector_field(grid, seed=7)
        dv = 0.5 * smooth_vector_field(grid, seed=8)
        eps = 1e-6
        fd = (reg.energy(v + eps * dv) - reg.energy(v - eps * dv)) / (2 * eps)
        assert fd == pytest.approx(grid.inner(first_variation(reg, v), dv), rel=1e-6)

    def test_hessian_matvec_equals_gradient_for_quadratic(self, ops):
        """One operator is both: the first variation is linear, and it accumulates."""
        reg = H2Regularization(ops, 1e-2)
        fft = ops.fft
        v = fft.forward_vector(smooth_vector_field(ops.grid, seed=9))
        w = fft.forward_vector(smooth_vector_field(ops.grid, seed=10))
        at_sum = reg.add_first_variation(v + w, out=np.zeros_like(v))
        accumulated = reg.add_first_variation(v, out=np.zeros_like(v))
        reg.add_first_variation(w, out=accumulated)
        np.testing.assert_allclose(at_sum, accumulated, atol=1e-12)

    def test_energy_scales_quadratically(self, ops):
        reg = H1Regularization(ops, 1e-2)
        v = smooth_vector_field(ops.grid, seed=10)
        assert reg.energy(2.0 * v) == pytest.approx(4.0 * reg.energy(v), rel=1e-10)


class TestInverse:
    def test_inverse_is_right_inverse_on_zero_mean_fields(self, ops):
        reg = H1Regularization(ops, 0.3)
        v = smooth_vector_field(ops.grid, seed=11)
        v -= v.mean(axis=(1, 2, 3), keepdims=True)
        recovered = apply_inverse(reg, first_variation(reg, v))
        np.testing.assert_allclose(recovered, v, atol=1e-8)

    def test_inverse_identity_on_constant_mode(self, ops):
        reg = H1Regularization(ops, 0.3)
        v = ops.grid.zeros_vector() + 1.5
        np.testing.assert_allclose(apply_inverse(reg, v), v, atol=1e-10)

    def test_inverse_without_beta(self, ops):
        reg = H1Regularization(ops, 0.25)
        v = smooth_vector_field(ops.grid, seed=12)
        with_beta = apply_inverse(reg, v)
        without = apply_inverse(reg.with_beta(1.0), v)
        # on non-constant modes the two differ exactly by the factor beta
        diff = with_beta - without / 0.25
        # constant modes are treated identically (identity), so remove them
        diff -= diff.mean(axis=(1, 2, 3), keepdims=True)
        assert ops.grid.norm(diff) < 1e-8

    def test_inverse_is_spd(self, ops):
        reg = H2Regularization(ops, 1e-2)
        grid = ops.grid
        a = smooth_vector_field(grid, seed=13)
        b = smooth_vector_field(grid, seed=14)
        assert grid.inner(apply_inverse(reg, a), b) == pytest.approx(
            grid.inner(a, apply_inverse(reg, b)), rel=1e-8
        )
        assert grid.inner(apply_inverse(reg, a), a) > 0.0
