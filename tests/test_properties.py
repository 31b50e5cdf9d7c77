"""Cross-cutting property-based tests (hypothesis) on the core invariants.

These complement the per-module unit tests with randomized checks of the
mathematical invariants the solver relies on:

* spectral operators: linearity, self-adjointness, projector properties,
* transport: constants are invariant, advection is linear, forward/backward
  duality for divergence-free velocities,
* regularization: homogeneity, convexity along segments, positivity,
* performance model: monotonicity in problem size and task count,
* pencil decomposition: scatter/gather is a bijection for every admissible
  process grid.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gradients import trapezoid_weights
from repro.core.regularization import make_regularization
from repro.parallel.machines import MAVERICK
from repro.parallel.pencil import PencilDecomposition
from repro.parallel.performance import RegistrationCostModel
from repro.spectral.grid import Grid
from repro.spectral.operators import SpectralOperators
from repro.transport.semi_lagrangian import SemiLagrangianStepper
from repro.transport.solvers import TransportSolver

GRID = Grid((8, 8, 8))
OPS = SpectralOperators(GRID)


def random_scalar(seed: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(GRID.shape)


def random_vector(seed: int, amplitude: float = 0.5) -> np.ndarray:
    return amplitude * np.random.default_rng(seed).standard_normal((3, *GRID.shape))


def smooth_solenoidal(seed: int, amplitude: float = 0.5) -> np.ndarray:
    return OPS.leray_project(
        amplitude * GRID.zeros_vector()
        + OPS.apply_vector_symbol(
            random_vector(seed, amplitude),
            np.exp(GRID.laplacian_symbol() / 4.0),
        )
    )


class TestSpectralProperties:
    @given(seed=st.integers(0, 5000), alpha=st.floats(-2.0, 2.0))
    @settings(max_examples=15, deadline=None)
    def test_gradient_linearity(self, seed, alpha):
        f = random_scalar(seed)
        g = random_scalar(seed + 1)
        lhs = OPS.gradient(f + alpha * g)
        rhs = OPS.gradient(f) + alpha * OPS.gradient(g)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=15, deadline=None)
    def test_divergence_is_adjoint_of_minus_gradient(self, seed):
        f = random_scalar(seed)
        v = random_vector(seed + 7)
        lhs = GRID.inner(OPS.gradient(f), v)
        rhs = -GRID.inner(f, OPS.divergence(v))
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-9)

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=15, deadline=None)
    def test_leray_projection_is_contractive(self, seed):
        v = random_vector(seed)
        assert GRID.norm(OPS.leray_project(v)) <= GRID.norm(v) * (1 + 1e-12)


class TestTransportProperties:
    @given(seed=st.integers(0, 5000), constant=st.floats(-5.0, 5.0))
    @settings(max_examples=10, deadline=None)
    def test_constants_are_transport_invariant(self, seed, constant):
        velocity = random_vector(seed, amplitude=0.3)
        stepper = SemiLagrangianStepper(GRID, velocity, dt=0.25)
        field = np.full(GRID.shape, constant)
        np.testing.assert_allclose(stepper.step(field), constant, atol=1e-9)

    @given(seed=st.integers(0, 5000), alpha=st.floats(-2.0, 2.0))
    @settings(max_examples=10, deadline=None)
    def test_advection_is_linear_in_the_transported_field(self, seed, alpha):
        velocity = random_vector(seed, amplitude=0.3)
        stepper = SemiLagrangianStepper(GRID, velocity, dt=0.25)
        a = random_scalar(seed + 1)
        b = random_scalar(seed + 2)
        lhs = stepper.step(a + alpha * b)
        rhs = stepper.step(a) + alpha * stepper.step(b)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    @given(seed=st.integers(0, 2000))
    @settings(max_examples=6, deadline=None)
    def test_state_adjoint_duality_for_solenoidal_velocity(self, seed):
        velocity = smooth_solenoidal(seed, amplitude=0.4)
        solver = TransportSolver(GRID, num_time_steps=4)
        plan = solver.plan(velocity)
        rho0 = 1.0 + 0.2 * np.sin(GRID.coordinates()[0])
        lam1 = 1.0 + 0.2 * np.cos(GRID.coordinates()[1])
        rho = solver.solve_state(plan, rho0)
        lam = solver.solve_adjoint(plan, lam1)
        lhs = GRID.inner(rho[-1], lam[-1])
        rhs = GRID.inner(rho[0], lam[0])
        assert lhs == pytest.approx(rhs, rel=5e-2)

    @given(nt=st.integers(1, 8))
    @settings(max_examples=8, deadline=None)
    def test_time_integral_of_ones_is_one(self, nt):
        history = np.ones((nt + 1, *GRID.shape))
        integral = np.tensordot(trapezoid_weights(nt), history, axes=(0, 0))
        np.testing.assert_allclose(integral, 1.0, atol=1e-12)


class TestRegularizationProperties:
    @given(
        name=st.sampled_from(["h1", "h2", "h3"]),
        seed=st.integers(0, 5000),
        scale=st.floats(0.1, 3.0),
    )
    @settings(max_examples=15, deadline=None)
    def test_energy_is_quadratically_homogeneous(self, name, seed, scale):
        reg = make_regularization(name, OPS, beta=1e-2)
        v = random_vector(seed)
        assert reg.energy(scale * v) == pytest.approx(scale**2 * reg.energy(v), rel=1e-9)

    @given(name=st.sampled_from(["h1", "h2"]), seed=st.integers(0, 5000), t=st.floats(0.0, 1.0))
    @settings(max_examples=15, deadline=None)
    def test_energy_is_convex_along_segments(self, name, seed, t):
        reg = make_regularization(name, OPS, beta=1e-2)
        a = random_vector(seed)
        b = random_vector(seed + 1)
        lhs = reg.energy(t * a + (1 - t) * b)
        rhs = t * reg.energy(a) + (1 - t) * reg.energy(b)
        assert lhs <= rhs + 1e-10

    @given(name=st.sampled_from(["h1", "h2", "h3"]), seed=st.integers(0, 5000))
    @settings(max_examples=15, deadline=None)
    def test_gradient_is_consistent_with_energy(self, name, seed):
        reg = make_regularization(name, OPS, beta=1e-1)
        v = random_vector(seed)
        # for a quadratic energy: E(v) = 1/2 <grad E(v), v>
        gradient = reg.beta * reg.apply_operator(v)
        assert reg.energy(v) == pytest.approx(0.5 * GRID.inner(gradient, v), rel=1e-8)


class TestPerformanceModelProperties:
    @given(
        exponent=st.integers(5, 9),
        tasks=st.sampled_from([1, 4, 16, 64, 256]),
        matvecs=st.integers(1, 30),
    )
    @settings(max_examples=25, deadline=None)
    def test_breakdown_is_positive_and_consistent(self, exponent, tasks, matvecs):
        n = 2**exponent
        if tasks > n:
            return
        model = RegistrationCostModel(
            (n, n, n), tasks, MAVERICK, num_hessian_matvecs=matvecs
        )
        b = model.breakdown()
        assert b.time_to_solution > 0
        assert b.time_to_solution == pytest.approx(b.kernel_sum + b.other)
        assert b.interp_execution > 0
        if tasks == 1:
            assert b.fft_communication == 0.0

    @given(exponent=st.integers(6, 9), matvecs=st.integers(1, 20))
    @settings(max_examples=15, deadline=None)
    def test_more_work_costs_more(self, exponent, matvecs):
        n = 2**exponent
        small = RegistrationCostModel((n, n, n), 16, MAVERICK, num_hessian_matvecs=matvecs)
        big = RegistrationCostModel((n, n, n), 16, MAVERICK, num_hessian_matvecs=matvecs + 5)
        assert big.breakdown().time_to_solution > small.breakdown().time_to_solution

    @given(exponent=st.integers(6, 9))
    @settings(max_examples=10, deadline=None)
    def test_doubling_resolution_costs_more(self, exponent):
        n = 2**exponent
        coarse = RegistrationCostModel((n, n, n), 16, MAVERICK).breakdown()
        fine = RegistrationCostModel((2 * n,) * 3, 16, MAVERICK).breakdown()
        assert fine.time_to_solution > coarse.time_to_solution


class TestPencilProperties:
    @given(
        n1=st.integers(4, 12),
        n2=st.integers(4, 12),
        n3=st.integers(4, 12),
        p1=st.integers(1, 4),
        p2=st.integers(1, 4),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_scatter_gather_identity(self, n1, n2, n3, p1, p2, seed):
        if p1 > n1 or p2 > n2:
            return
        deco = PencilDecomposition((n1, n2, n3), p1, p2)
        data = np.random.default_rng(seed).standard_normal((n1, n2, n3))
        np.testing.assert_array_equal(deco.gather(deco.scatter(data)), data)

    @given(p1=st.integers(1, 4), p2=st.integers(1, 4))
    @settings(max_examples=16, deadline=None)
    def test_every_index_has_exactly_one_owner(self, p1, p2):
        deco = PencilDecomposition((8, 8, 8), p1, p2)
        counts = np.zeros(deco.num_tasks, dtype=int)
        for rank in range(deco.num_tasks):
            counts[rank] = np.prod(deco.local_shape(rank))
        assert counts.sum() == 8**3
        assert np.all(counts > 0)
