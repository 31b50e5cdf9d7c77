"""Tests for the pluggable FFT backend subsystem.

Covers the registry (selection by name, environment variable, and instance),
per-backend numerical correctness (round trip, Parseval, batched-vs-looped
equivalence), exact FFT-counter parity across backends, and validation of
the distributed pencil-decomposed FFT against every serial backend.
"""

import numpy as np
import pytest

from repro.parallel.distributed_fft import DistributedFFT
from repro.parallel.pencil import PencilDecomposition
from repro.spectral import backends
from repro.spectral.backends import (
    BACKEND_ENV_VAR,
    NumpyFFTBackend,
    default_backend_name,
    get_backend,
    registered_backends,
)
from repro.spectral.fft import FourierTransform
from repro.spectral.grid import Grid
from repro.spectral.operators import SpectralOperators

ALL_BACKENDS = registered_backends()


@pytest.fixture(params=ALL_BACKENDS)
def backend_name(request) -> str:
    return request.param


# --------------------------------------------------------------------------- #
# registry behaviour
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_builtin_backends_registered(self):
        assert set(registered_backends()) == {"numpy", "scipy"}

    def test_default_is_numpy_without_env(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert default_backend_name() == "numpy"
        assert get_backend(None).name == "numpy"

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "scipy")
        assert default_backend_name() == "scipy"
        fft = FourierTransform(Grid((8, 8, 8)))
        assert fft.backend_name == "scipy"

    def test_explicit_name_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "scipy")
        fft = FourierTransform(Grid((8, 8, 8)), backend="numpy")
        assert fft.backend_name == "numpy"

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown FFT backend"):
            get_backend("not-a-backend")

    def test_malformed_env_backend_is_a_clear_error(self, monkeypatch):
        """An env typo names the variable and lists the registered backends."""
        monkeypatch.setenv(BACKEND_ENV_VAR, "numppy")
        with pytest.raises(ValueError, match=BACKEND_ENV_VAR) as excinfo:
            default_backend_name()
        assert "numpy" in str(excinfo.value) and "scipy" in str(excinfo.value)
        with pytest.raises(ValueError, match=BACKEND_ENV_VAR):
            get_backend(None)  # the env path of every consumer

    def test_instances_are_singletons(self, backend_name):
        assert get_backend(backend_name) is get_backend(backend_name)

    def test_instance_passthrough(self):
        instance = NumpyFFTBackend()
        assert get_backend(instance) is instance

    def test_non_backend_object_rejected_early(self):
        with pytest.raises(TypeError, match="FFTBackend protocol"):
            get_backend(object())

    def test_custom_backend_registration(self):
        class EchoBackend(NumpyFFTBackend):
            name = "echo-test"

        backends.register_backend("echo-test", EchoBackend)
        try:
            assert "echo-test" in registered_backends()
            assert get_backend("echo-test").name == "echo-test"
        finally:
            backends._REGISTRY.pop("echo-test", None)
            backends._INSTANCES.pop("echo-test", None)


# --------------------------------------------------------------------------- #
# numerical correctness, per backend
# --------------------------------------------------------------------------- #
class TestPerBackendCorrectness:
    @pytest.mark.parametrize("shape", [(16, 16, 16), (8, 12, 10), (8, 8, 9)])
    def test_scalar_round_trip(self, backend_name, shape):
        grid = Grid(shape)
        fft = FourierTransform(grid, backend=backend_name)
        field = np.random.default_rng(0).standard_normal(grid.shape)
        np.testing.assert_allclose(fft.backward(fft.forward(field)), field, atol=1e-12)

    def test_vector_round_trip(self, backend_name):
        grid = Grid((12, 12, 12))
        fft = FourierTransform(grid, backend=backend_name)
        v = np.random.default_rng(1).standard_normal((3, *grid.shape))
        np.testing.assert_allclose(fft.inverse_vector(fft.forward_vector(v)), v, atol=1e-12)

    def test_parseval(self, backend_name):
        grid = Grid((8, 8, 8))
        fft = FourierTransform(grid, backend=backend_name)
        field = np.random.default_rng(2).standard_normal(grid.shape)
        spectrum = fft.forward(field)
        # half-spectrum Parseval: double every mode that has a conjugate twin
        weights = np.full(fft.spectral_shape, 2.0)
        weights[..., 0] = 1.0
        if grid.shape[2] % 2 == 0:
            weights[..., -1] = 1.0
        lhs = np.sum(field**2)
        rhs = np.sum(weights * np.abs(spectrum) ** 2) / grid.num_points
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_matches_numpy_reference(self, backend_name):
        grid = Grid((8, 10, 12))
        fft = FourierTransform(grid, backend=backend_name)
        field = np.random.default_rng(3).standard_normal(grid.shape)
        np.testing.assert_allclose(fft.forward(field), np.fft.rfftn(field), atol=1e-10)

    def test_batched_equals_per_component(self, backend_name):
        grid = Grid((10, 8, 12))
        fft = FourierTransform(grid, backend=backend_name)
        v = np.random.default_rng(4).standard_normal((3, *grid.shape))
        batched = fft.forward_vector(v)
        looped = np.stack([np.fft.rfftn(v[i]) for i in range(3)], axis=0)
        np.testing.assert_allclose(batched, looped, atol=1e-10)

    def test_inverse_vector_is_per_component_backward(self, backend_name):
        grid = Grid((8, 8, 8))
        fft = FourierTransform(grid, backend=backend_name)
        v = np.random.default_rng(5).standard_normal((3, *grid.shape))
        spectra = fft.forward_vector(v)
        np.testing.assert_array_equal(
            fft.inverse_vector(spectra), np.stack([fft.backward(s) for s in spectra])
        )


# --------------------------------------------------------------------------- #
# FFT-counter parity across backends
# --------------------------------------------------------------------------- #
def _canonical_operator_workload(ops: SpectralOperators) -> None:
    """Fixed sequence of spectral operations used for counter-parity checks."""
    rng = np.random.default_rng(7)
    scalar = rng.standard_normal(ops.grid.shape)
    vector = rng.standard_normal((3, *ops.grid.shape))
    ops.gradient(scalar)
    ops.laplacian(scalar)
    ops.divergence(vector)
    ops.curl(vector)
    ops.jacobian(vector)
    ops.leray_project(vector)
    ops.apply_vector_symbol(vector, np.ones(ops.fft.spectral_shape))


class TestCounterParity:
    def test_operator_workload_counts_identical(self):
        """The counters must be exactly equal no matter which engine runs."""
        totals = {}
        for name in ALL_BACKENDS:
            ops = SpectralOperators(Grid((8, 8, 8)), fft_backend=name)
            _canonical_operator_workload(ops)
            totals[name] = (ops.fft.counters.forward, ops.fft.counters.backward)
        assert len(set(totals.values())) == 1, f"counter mismatch: {totals}"

    def test_batched_vector_transform_counts_three(self, backend_name):
        grid = Grid((8, 8, 8))
        fft = FourierTransform(grid, backend=backend_name)
        v = np.random.default_rng(8).standard_normal((3, *grid.shape))
        fft.inverse_vector(fft.forward_vector(v))
        assert fft.counters.forward == 3
        assert fft.counters.backward == 3

    def test_end_to_end_solve_counter_parity(self):
        """Acceptance check: identical FFT totals on a full registration solve.

        The solver is configured for a deterministic amount of work
        (constant, effectively-zero PCG forcing so every inner solve runs to
        its iteration cap) so that the transform totals depend only on the
        algorithm, not on floating-point noise between engines.
        """
        from repro.core.optim.gauss_newton import SolverOptions
        from repro.core.registration import RegistrationSolver
        from repro.data.synthetic import synthetic_registration_problem
        from repro.runtime.plan_pool import reset_plan_pool

        synthetic = synthetic_registration_problem(8)
        totals = {}
        for name in ALL_BACKENDS:
            reset_plan_pool()  # every arm plans its velocities (24 transforms each)
            solver = RegistrationSolver(
                beta=1e-2,
                num_time_steps=2,
                options=SolverOptions(
                    max_newton_iterations=2,
                    max_krylov_iterations=3,
                    forcing="constant",
                    constant_forcing=1e-14,
                    gradient_tolerance=1e-14,
                ),
                fft_backend=name,
            )
            result = solver.run(synthetic.template, synthetic.reference, grid=synthetic.grid)
            totals[name] = result.problem.operators.fft.counters.total
        assert len(set(totals.values())) == 1, f"end-to-end counter mismatch: {totals}"
        assert next(iter(totals.values())) > 0


# --------------------------------------------------------------------------- #
# distributed FFT validates against every serial backend
# --------------------------------------------------------------------------- #
class TestDistributedAgainstSerialBackends:
    def test_forward_matches_global_fftn(self, backend_name):
        deco = PencilDecomposition((8, 8, 8), p1=2, p2=2)
        dfft = DistributedFFT(deco, backend=backend_name)
        field = np.random.default_rng(9).standard_normal((8, 8, 8))
        np.testing.assert_allclose(
            dfft.forward_global(field), np.fft.fftn(field), atol=1e-10
        )

    def test_round_trip(self, backend_name):
        deco = PencilDecomposition((8, 12, 10), p1=2, p2=2)
        dfft = DistributedFFT(deco, backend=backend_name)
        field = np.random.default_rng(10).standard_normal((8, 12, 10))
        out = dfft.backward_global(dfft.forward_global(field))
        np.testing.assert_allclose(np.real(out), field, atol=1e-10)
