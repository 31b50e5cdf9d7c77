"""Tests for repro.spectral.fft (the serial transform over numpy.fft)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spectral.fft import FourierTransform
from repro.spectral.grid import Grid
from repro.spectral.operators import SpectralOperators


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


    def test_half_spectrum_parseval(self):
        grid = Grid((8, 8, 8))
        fft = FourierTransform(grid)
        field = np.random.default_rng(2).standard_normal(grid.shape)
        spectrum = fft.forward(field)
        # double every mode that has a conjugate twin
        weights = np.full(fft.spectral_shape, 2.0)
        weights[..., 0] = 1.0
        if grid.shape[2] % 2 == 0:
            weights[..., -1] = 1.0
        lhs = np.sum(field**2)
        rhs = np.sum(weights * np.abs(spectrum) ** 2) / grid.num_points
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_matches_numpy_reference(self):
        grid = Grid((8, 10, 12))
        field = np.random.default_rng(3).standard_normal(grid.shape)
        np.testing.assert_array_equal(FourierTransform(grid).forward(field), np.fft.rfftn(field))


class TestBatched:
    SHAPES = [(10, 8, 12), (8, 8, 9), (9, 8, 7)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_batched_equals_per_component_bitwise(self, shape):
        fft = FourierTransform(Grid(shape))
        v = np.random.default_rng(4).standard_normal((3, *shape))
        np.testing.assert_array_equal(
            fft.forward_vector(v), np.stack([fft.forward(component) for component in v])
        )

    @pytest.mark.parametrize("shape", SHAPES)
    def test_inverse_vector_is_per_component_backward(self, shape):
        fft = FourierTransform(Grid(shape))
        v = np.random.default_rng(5).standard_normal((3, *shape))
        spectra = fft.forward_vector(v)
        np.testing.assert_array_equal(
            fft.inverse_vector(spectra), np.stack([fft.backward(s) for s in spectra])
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

    def test_batched_vector_transform_counts_three(self, fft16, rng):
        fft16.reset_counters()
        v = rng.standard_normal((3, *fft16.grid.shape))
        fft16.inverse_vector(fft16.forward_vector(v))
        assert (fft16.counters.forward, fft16.counters.backward) == (3, 3)

    def test_batched_and_per_component_operators_count_alike(self, rng):
        """Counter parity: a batched call counts what its components would."""
        batched = SpectralOperators(Grid((8, 8, 8)))
        looped = SpectralOperators(Grid((8, 8, 8)))
        vector = rng.standard_normal((3, *batched.grid.shape))
        symbol = np.ones(batched.fft.spectral_shape)
        batched.apply_vector_symbol(vector, symbol)
        for component in vector:
            looped.fft.apply_symbol(component, symbol)
        assert batched.fft.counters == looped.fft.counters

    # (forward, backward) scalar transforms each operator costs; counting
    # lives in the frontend, so these pin the operators' transform budget
    OPERATOR_COUNTS = {
        "gradient": (1, 3),
        "laplacian": (1, 1),
        "divergence": (3, 1),
        "jacobian": (3, 9),
        "leray_project": (3, 3),
        "vector_laplacian": (3, 3),
    }

    @pytest.mark.parametrize("name", sorted(OPERATOR_COUNTS))
    def test_operator_transform_counts(self, name, rng):
        ops = SpectralOperators(Grid((8, 8, 8)))
        scalar_input = name in ("gradient", "laplacian")
        field = rng.standard_normal((*(() if scalar_input else (3,)), *ops.grid.shape))
        ops.fft.reset_counters()
        getattr(ops, name)(field)
        assert (ops.fft.counters.forward, ops.fft.counters.backward) == self.OPERATOR_COUNTS[name]

    def test_end_to_end_solve_counts_are_reproducible(self):
        """A fixed amount of solver work gives the same transform total every run.

        A zero forcing cap makes every inner solve run to its iteration cap,
        so the total depends only on the algorithm.
        """
        from repro.core.optim.gauss_newton import SolverOptions
        from repro.core.registration import RegistrationSolver
        from repro.data.synthetic import synthetic_registration_problem

        synthetic = synthetic_registration_problem(8)
        totals = []
        for _ in range(2):
            solver = RegistrationSolver(
                beta=1e-2,
                num_time_steps=2,
                options=SolverOptions(
                    max_newton_iterations=2,
                    max_krylov_iterations=3,
                    forcing_max=0.0,
                    gradient_tolerance=1e-14,
                ),
            )
            result = solver.run(synthetic.template, synthetic.reference, grid=synthetic.grid)
            totals.append(result.problem.operators.fft.counters.total)
        assert totals[0] == totals[1] > 0


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
